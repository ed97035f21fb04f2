"""Whole-lattice computations for a Lie algebra over GF(p).

build_lattice returns a LatticeCache that computes the subalgebras of GF(p)^n
one dimension at a time, the first time anything asks for that dimension:
a batched closure (and ideal) test with numpy over every dim-k subspace of
echelon generation, which tests one pair of basis rows of every subspace
first and the other pairs only for the few that pass
(_closed_and_ideal_masks); an abelian algebra (a zero table) makes every
subspace an ideal without a bracket.  Where GF(p)^n has at most
isqrt(_BLOCK) = 512 vectors, and fewer than m (k - 1) for the m subspaces
of dimension k, the test goes by table lookup (_lookup_masks) in the index
of every bracket [x, y] (_bracket_table, per algebra), whether
<x, h> != 0 mod p (_pairings, per (n, p)) and the indices of the basis
rows and parity-check columns of each subspace (_index_table, per shape),
all in the shape store (subspace._stored); elsewhere by staged int64
matrix products (_staged_masks).  A computed dimension is kept as an index vector into the shared, read-only
echelon_arrays and _parity_checks arrays, whose entries are in the
smallest unsigned dtype (_entry_dtype; the kernels that multiply them cast
one row block at a time to int64 or to a float), and no whole dimension is
made into Subspaces: member(k, row), ideals(k), maximals and the witnesses
make Subspaces of the rows they return alone, rows_inside and row give
rows, and stats counts from the arrays.
The maximal subalgebras are found on first access, by a top-down scan
(_maximal_masks) whose containment tests and cover counts are float
matrix products, in float32 where the integer bound of the product is
below 2^24 and in float64 otherwise, exact either way.  Core and Frattini
ideal work from exact linear algebra; radical, minimal ideals and
simplicity read the ideals one dimension at a time; supersolvability walks
a chain of ideals up the ideal masks, one containment test per dimension,
and builds no quotient.
One search decides B + C = L for complements and supplements alike
(_first_hits): it pairs Plücker coordinates with column blocks of
candidates, in lattice order, and drops each row at its first hit.
LatticeCache.first_complements(k, rows) runs it on those dim-k subalgebras
against the dim-(n-k) ones, and computes only dimensions k and n - k.  The
coordinates of an echelon row depend on its shape (n, p, k) alone, not on
the algebra, so they are computed once per shape, in row blocks, into a
read-only table (_plucker_table) that the shape caches keep like the
echelon arrays (ECHELON_CACHE_TOTAL in all, a quarter of it a shape); a
dimension of a larger shape takes plucker of the subalgebra rows it pairs
alone.
LatticeCache.unsupplemented(k) decides c-supplementation for every dim-k
subalgebra at once: ideals are supplemented, so a dimension of ideals alone
needs no pairing; for the other rows it reads the cores K from the ideal
masks and runs the search on B', the rows of B at pivots outside K's,
against the candidates that contain K (B + C = L exactly when B' + C = L
for K <= C).  LatticeCache.core_supplement(k, row) runs the same core test
on one row and returns its first such candidate, the witness of
classify.c_supplement where no complement exists.
LatticeCache.subalgebra_phis() gives the nonzero Frattini ideals of the
subalgebras B, from the members of the lattice that lie in B, once per
distinct induced table, without a lattice of B: one maximal scan per
dimension, with one B per table as its tops, finds their maximal
subalgebras and F(B), the intersection of those, and one batched test per
dimension of F(B) finds where F(B) is an ideal of B, and so phi(B); the
core fixpoint runs only where it is not.  No zero phi(B) is made.

All lists are sorted by (dim, lexicographic RREF rows) so reports are
byte-stable across runs, whatever order the dimensions were computed in.
"""
from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import comb, isqrt
from typing import Dict, List, Optional, Tuple

import numpy as np

from .gfp import InternalError
from .liealg import LieAlgebra
from .subspace import (
    CapExceededError,
    DEFAULT_SUBSPACE_CAP,
    Subspace,
    _BLOCK,
    _entry_dtype,
    _index_dtype,
    _lookup_space,
    _parity_check,
    _parity_checks,
    _read_only,
    _shape_cache,
    _shape_kept,
    _stored,
    count_subspaces,
    echelon_arrays,
    rref,
)


class _Dim:
    """The subalgebras of one dimension k: rows idx of the arrays
    (bases, pivots, checks) of echelon_arrays and _parity_checks, in
    Subspace.sort_key order, and which of them are ideals.  sub and
    subs_at make the Subspaces of the rows asked for alone."""

    __slots__ = ("_p", "_kept", "_bases", "_piv", "_checks", "idx", "ideal")

    def __init__(self, L: LieAlgebra, k: int):
        n, p = L.dim, L.p
        bases, piv = echelon_arrays(n, p, k)
        checks = _parity_checks(n, p, k)
        closed, ideal = _closed_and_ideal_masks(L, bases, checks)
        idx = np.flatnonzero(closed)
        if k:
            # lexsort's last key is its primary one, so this is lexicographic
            # order of the flattened rows: Subspace.sort_key order
            idx = idx[np.lexsort(bases[idx].reshape(len(idx), k * n).T[::-1])]
        self._kept = _shape_kept(n, p, k)
        if not self._kept:
            # arrays the shape cache does not keep: hold the subalgebra rows
            # only, so that a lattice never pins a whole Grassmannian
            bases, piv, checks = bases[idx], piv[idx], checks[idx]
            ideal, idx = ideal[idx], np.arange(len(idx))
        else:
            ideal = ideal[idx]
        self._p, self._bases, self._piv, self._checks = p, bases, piv, checks
        self.idx, self.ideal = idx, ideal

    def subs_at(self, rows) -> List[Subspace]:
        """The Subspaces of the given rows (an index array, a boolean mask
        or a slice)."""
        at = self.idx[rows]
        if not len(at):
            return []
        n, p = self._bases.shape[2], self._p
        return [
            Subspace(n, p, tuple(map(tuple, basis)), tuple(pivots))
            for basis, pivots in zip(self._bases[at].tolist(), self._piv[at].tolist())
        ]

    def sub(self, row: int) -> Subspace:
        """The Subspace of one row."""
        n, at = self._bases.shape[2], self.idx[row]
        rows, pivots = self._bases[at].tolist(), self._piv[at].tolist()
        return Subspace(n, self._p, tuple(map(tuple, rows)), tuple(pivots))

    # copies of the rows in idx, for one computation at a time
    @property
    def bases(self) -> np.ndarray:
        return self._bases[self.idx]

    @property
    def piv(self) -> np.ndarray:
        return self._piv[self.idx]

    @property
    def checks(self) -> np.ndarray:
        return self._checks[self.idx]

    def pluckers(self, rows) -> np.ndarray:
        """The Plücker coordinates of the given rows (an index array or a
        slice): rows of the shape's _plucker_table where the shape caches
        keep the arrays, else plucker of those subalgebra rows alone, in
        row blocks, so that no whole-Grassmannian table is built past
        _shape_kept."""
        at = self.idx[rows]
        if self._kept:
            _, k, n = self._bases.shape
            return _plucker_table(n, self._p, k)[at]
        return _plucker_blocks(self._bases[at], self._p)


class LatticeCache:
    """The subalgebra lattice of one algebra, computed on demand: each
    dimension and the maximal subalgebras the first time they are asked
    for.  The subalgebras of dimension k are numbered by row,
    0, 1, ... in Subspace.sort_key order; member(k, row) makes one of them.
    subspace_count is the number of subspaces of GF(p)^n, all of which the
    dimensions together test.  verdicts: classify.Analyzer's, by name."""

    def __init__(self, algebra: LieAlgebra, subspace_count: int):
        self.algebra = algebra
        self.subspace_count = subspace_count
        self.verdicts: Dict[str, object] = {}
        self._dims: Dict[int, _Dim] = {}
        # subalgebra_phis(), built on first use
        self._phis: Optional[Dict[Tuple[int, int], Subspace]] = None

    def _dim(self, k: int) -> _Dim:
        got = self._dims.get(k)
        if got is None:
            got = self._dims[k] = _Dim(self.algebra, k)
        return got

    def _computed(self) -> Dict[int, _Dim]:
        """Every dimension 0 .. n that holds a subalgebra, computed."""
        dims = {k: self._dim(k) for k in range(self.algebra.dim + 1)}
        return {k: dim for k, dim in dims.items() if len(dim.idx)}

    def ideals(self, k: int) -> List[Subspace]:
        """The ideals of dimension k, in lattice order."""
        dim = self._dim(k)
        return dim.subs_at(dim.ideal)

    @cached_property
    def maximals(self) -> List[Subspace]:
        return self._top_scan[0]

    @cached_property
    def _top_scan(self) -> Tuple[List[Subspace], Subspace]:
        """The maximal subalgebras and F(L), their intersection, from one
        _maximal_masks scan with the top L."""
        n = self.algebra.dim
        dims = self._computed()
        arrays = {k: (dim.bases, dim.checks) for k, dim in dims.items()}
        masks, meets = _maximal_masks(arrays, dims[n].checks, n, self.algebra.p)
        maximals = [s for k in sorted(masks) for s in dims[k].subs_at(masks[k][:, 0])]
        d, row = meets[0]
        return maximals, dims[d].sub(row)

    @cached_property
    def _phi(self) -> Subspace:
        """phi(L), see frattini."""
        return core(self.algebra, self._top_scan[1])

    def member(self, k: int, row: int) -> Subspace:
        """The subalgebra in row `row` of dimension k, made alone."""
        return self._dim(k).sub(row)

    def row(self, b: Subspace) -> int:
        """The row of b in dimension dim b: the one row of
        rows_inside(dim b, b), as a subalgebra of the same dimension that
        lies in b is b.  ValueError when b is not a subalgebra of this
        lattice."""
        if (b.n, b.p) == (self.algebra.dim, self.algebra.p):
            hit = self.rows_inside(b.dim, b)
            if len(hit):
                return int(hit[0])
        raise ValueError(f"{b} is not a subalgebra of this lattice")

    def rows_inside(self, d: int, space: Subspace) -> np.ndarray:
        """The rows of dimension d, ascending, of the subalgebras that lie in
        `space`, from one _contained test; computes dimension d only."""
        dim = self._dim(d)
        return np.flatnonzero(_contained(dim.bases, _parity_check(space)[None], space.p)[:, 0])

    def first_complements(self, k: int, rows=None) -> np.ndarray:
        """For each of the given rows of dimension k (an index array, every
        row by default), the row in dimension n - k of its first complement
        C (b + C = L, so b meets C in 0), or -1 when it has none.  Computes
        dimensions k and n - k only, and pairs only the rows asked for, with
        every row of dimension n - k (see _first_hits)."""
        n = self.algebra.dim
        if k > n:  # no dim-k subspace, and no dimension n - k
            return np.empty(0, dtype=np.intp)
        if rows is None:
            rows = np.arange(len(self._dim(k).idx))
        pu = self._dim(k).pluckers(np.asarray(rows, dtype=np.intp))
        return _first_hits(self, pu, n - k, np.arange(len(self._dim(n - k).idx)))

    def unsupplemented(self, k: int) -> np.ndarray:
        """The rows of dimension k, ascending, of the subalgebras B without
        a c-supplement: no subalgebra C with B + C = L and B meet C inside
        the core of B.  Computes the dimensions up to k, n - k and the
        dimensions of the candidates it tests (see _unsupplemented)."""
        return _unsupplemented(self, k)

    def core_supplement(self, k: int, row: int) -> Optional[Subspace]:
        """For the subalgebra B in row `row` of dimension k, which has no
        complement: the first C of _core_supplements, which meets B in
        exactly its core and exists exactly when B has a c-supplement, or
        None.  For a nonzero ideal B it is L."""
        core_dims, firsts = _core_supplements(self, k, np.array([row]))
        if firsts[0] < 0:
            return None
        return self.member(self.algebra.dim - k + int(core_dims[0]), int(firsts[0]))

    def subalgebra_phis(self) -> Dict[Tuple[int, int], Subspace]:
        """phi(B), the Frattini ideal of B's own algebra, in ambient
        coordinates, for every subalgebra B where it is nonzero: keyed by
        B's (k, row), in lattice order; phi(L) is the entry (n, 0) when it
        is nonzero.  Built on first use, once per distinct induced table
        (see _subalgebra_phis); no lattice of a subalgebra is built."""
        if self._phis is None:
            self._phis = _subalgebra_phis(self)
        return self._phis

    def table_groups(self, k: int) -> Dict[bytes, List[int]]:
        """The rows of dimension k grouped by induced table (_induced_tables,
        the table LieAlgebra.as_algebra gives): the bytes of each table to
        its rows, ascending, the tables in the order of their first rows."""
        dim, n = self._dim(k), self.algebra.dim
        groups: Dict[bytes, List[int]] = {}
        # the [b_s, e_j] array of _induced_tables holds k n^2 values a row
        step = _block_rows(k * n * n)
        for lo in range(0, len(dim.idx), step):
            at = dim.idx[lo : lo + step]
            tables = _induced_tables(self.algebra, dim._bases[at], dim._piv[at])
            for a, table in enumerate(tables, lo):
                groups.setdefault(table.tobytes(), []).append(a)
        return groups

    def first_non_ideal_inside(self, space: Subspace) -> Optional[Subspace]:
        """The first subalgebra in lattice order that lies in `space` and is
        not an ideal, or None: rows_inside read with the ideal mask, one
        dimension at a time.  For space = phi(L) it is the first subalgebra
        of phi's own algebra whose image is not an ideal: RREF rows read at
        phi's pivot columns are the RREF in phi's coordinates, in the same
        order."""
        for d in range(space.dim + 1):
            dim, rows = self._dim(d), self.rows_inside(d, space)
            rows = rows[~dim.ideal[rows]]
            if len(rows):
                return dim.sub(rows[0])
        return None

    def stats(self) -> Dict[str, int]:
        dims = self._computed().values()
        return {
            "subspaces": self.subspace_count,
            "subalgebras": sum(len(dim.idx) for dim in dims),
            "ideals": sum(int(dim.ideal.sum()) for dim in dims),
            "maximal_subalgebras": len(self.maximals),
        }


# -- the batched tests --------------------------------------------------------
#
# checks[a] is the parity check of the subspace spanned by bases[a]
# (subspace._parity_checks): v lies in it iff v @ checks[a] == 0 mod p.  The
# products below multiply residues below p, sum n terms and are reduced mod p
# before they enter the next product; the one exception, the unreduced
# brackets that _inside tests in the staged closure test and in _ideal_of,
# leaves sums below n^2 (p - 1)^3, the bound LieAlgebra enforces
# (gfp.int64_safe).  So all of it is int64-exact.  The containment products
# (_contained), below n (p - 1)^2 < 2^42, the cover counts of the maximal
# scan, below the number of members, and the Plücker pairings
# (plucker_pairing), below C(n, k) (p - 1)^2, run through BLAS in floats
# instead: in float32 when the bound (plus p, for _reduce) is at most 2^24,
# else in float64, exact up to 2^53 (_exact_float).  The closure test by
# lookup does no arithmetic mod p: it gathers from tables whose products,
# [x, y] = sum_j y[j] [x, e_j] and <x, h>, below n (p - 1)^2, are float
# products exact by _exact_float too, reduced by _reduce; the base-p
# indices it adds and multiplies are below p^(2n) <= _BLOCK.

# Every kernel here (and census's batches) goes in blocks of at most _BLOCK
# (2^18, from subspace) values, int64 or float (a bool or a uint8 counts as
# one too), whatever the size of the lattice: a kernel states how many values
# one of its rows holds, and _block_rows turns that into its row step.  The
# BLAS products of _contained, the cover counts and the supersolvable walk
# take at most _BLOCK multiply-adds too: OpenBLAS runs a larger one on
# several threads, which stall when other processes hold CPUs.


def _block_rows(per_row: int) -> int:
    """The rows of one block of a kernel whose intermediate arrays hold
    per_row values a row: as many as keep the block within _BLOCK values,
    and at least one."""
    return max(1, _BLOCK // max(1, per_row))


def _vector_table(L: LieAlgebra) -> Optional[np.ndarray]:
    """[v, e_j] mod p for every vector v of GF(p)^n, shape (p^n, n, n), in
    _entry_dtype(p), row index the base-p digits of v (see _ad_rows), kept
    in the shape store by L's table, read-only; built in row blocks of
    int64 digits and n^2 products (at most p^n rows: multiplied, not looked
    up).  None, unbuilt, past _stored's rule (GF(53)^4's takes 126 MB)."""
    p, n, size = L.p, L.dim, L.p**L.dim

    def build():
        places, table = p ** np.arange(n - 1, -1, -1), np.empty((size, n, n), _entry_dtype(p))
        step = _block_rows(n * (n + 1))
        for lo in range(0, size, step):
            table[lo : lo + step] = _ad_rows(L, np.arange(lo, min(lo + step, size))[:, None] // places % p)
        return _read_only(table)[0]

    return _stored((_vector_table, L.key), size * n * n * _entry_dtype(p).itemsize, build)


def _ad_rows(
    L: LieAlgebra, rows: np.ndarray, table: Optional[np.ndarray] = None
) -> np.ndarray:
    """[r, e_j] mod p, shape (len(rows), n, n), for each row r of rows.  With
    a _vector_table, or when GF(p)^n has fewer vectors than there are rows
    and the store keeps L's, the rows are looked up by their base-p digits
    (in _entry_dtype(p)); otherwise multiplied, in int64."""
    p, n = L.p, L.dim
    if table is None and p**n < len(rows):
        table = _vector_table(L)
    if table is not None:
        return table.take(rows @ p ** np.arange(n - 1, -1, -1), axis=0)
    ad = rows @ L.table.reshape(n, n * n)
    ad %= p
    return ad.reshape(len(rows), n, n)


@lru_cache(maxsize=64)
def _pairs(k: int):
    """Index arrays (s, t) of the pairs s < t < k."""
    return _read_only(*np.triu_indices(k, 1))


def _closed_and_ideal_masks(L: LieAlgebra, bases: np.ndarray, checks: np.ndarray):
    """Batch closure/ideal tests for all dim-k subspaces U at once (bases
    and checks: echelon_arrays and _parity_checks of the shape): masks of
    the subalgebras and of the ideals.  For k = 0 and k = n (0 and L), and
    for an abelian L (a zero table), every subspace is an ideal, and
    nothing is bracketed.  Otherwise _lookup_masks decides where GF(p)^n is
    small (_lookup_space) and has fewer than m (k - 1) vectors, m the
    number of subspaces, and the store keeps L's _bracket_table (and so
    _pairings, no larger), and _staged_masks elsewhere: the lookup does not pay on the lines (k = 1), nor on dimensions of a few rows,
    such as those of GF(2)^3 and GF(3)^3 (7 to 13 rows), where building
    its tables costs more than the products they replace.  The choice
    depends on (n, p, k, m) and ECHELON_CACHE_TOTAL alone."""
    p, n = L.p, L.dim
    m, k = bases.shape[:2]
    if k in (0, n) or not L.table.any():
        ones = np.ones(m, dtype=bool)
        return ones, ones
    if _lookup_space(n, p) and p**n < m * (k - 1) and _bracket_table(L) is not None:
        indices = _index_table(n, p, k) if _shape_kept(n, p, k) else None
        return _lookup_masks(L, bases, checks, indices)
    return _staged_masks(L, bases, checks)


def _staged_masks(L: LieAlgebra, bases: np.ndarray, checks: np.ndarray):
    """_closed_and_ideal_masks by matrix products, for 0 < k < n, in row
    blocks whose [b_s, e_j] arrays hold at most _BLOCK values.  The
    closure test goes one basis row at a time: stage t brackets b_t with
    b_0 .. b_{t-1} and keeps the rows whose brackets lie in U, so that only
    the subspaces with [b_0, b_1] in U (a few percent, unless L is nearly
    abelian) reach the dearer stages; for k = 2 that first stage is the
    whole test.  Only a subalgebra can be an ideal, so the ideal test runs
    on the closed ones.  The [v, e_j] table of _ad_rows is L's
    _vector_table where GF(p)^n has fewer vectors than there are
    subspaces and the shape store keeps it."""
    p, n = L.p, L.dim
    m, k = bases.shape[:2]
    closed = np.zeros(m, dtype=bool)
    ideal = np.zeros(m, dtype=bool)
    table = _vector_table(L) if p**n < m else None
    step = _block_rows(k * n * n)
    for lo in range(0, m, step):
        rows = np.arange(lo, min(lo + step, m))
        block = bases[lo : lo + step].astype(np.int64)
        held = checks[lo : lo + step].astype(np.int64)
        ads = []  # ads[s][a, j] = [b_s, e_j] mod p, for the rows still in
        for t in range(1, k):
            ads.append(_ad_rows(L, block[:, t - 1], table))
            # [b_s, b_t] = sum_j b_t[j] [b_s, e_j]
            brackets = np.concatenate([block[:, t, None] @ ad for ad in ads], axis=1)
            keep = _inside(brackets, held, p)
            if not keep.all():
                keep = np.flatnonzero(keep)
                rows, block, held = rows[keep], block.take(keep, 0), held.take(keep, 0)
                ads = [ad.take(keep, 0) for ad in ads]
        if not len(rows):
            continue
        closed[rows] = True
        # ideal: every [b_s, e_j] (= -[e_j, b_s]) stays inside
        ads.append(_ad_rows(L, block[:, k - 1], table))
        ideal[rows] = _inside(np.concatenate(ads, axis=1), held, p)
    return closed, ideal


def _lookup_masks(
    L: LieAlgebra, bases: np.ndarray, checks: np.ndarray, indices: Optional[Tuple] = None
):
    """_closed_and_ideal_masks by table lookup, for 0 < k < n on a
    _lookup_space.  With b_s the basis rows and h_c the parity-check
    columns of U, U is closed iff <[b_s, b_t], h_c> = 0 mod p for all
    s < t and all c, and an ideal iff also <[b_s, e_j], h_c> = 0 for all
    s, j and c.  Every vector goes by its index (_vector_indices), every
    bracket is read from L's _bracket_table and every pairing from
    _pairings, so a test is two gathers and a count, with no arithmetic
    mod p.  As in _staged_masks, the pair (b_0, b_1) goes first, over a
    block of rows, and the other pairs and the ideal test only over the
    rows of the block that pass it, in sub-blocks, whose rows hold the
    larger gathers; for k = 2 that first pair is the whole closure test.
    The indices are read from `indices`, the _index_table of the shape
    whose arrays bases and checks are, or, without it (past _shape_kept),
    computed from the rows of each block.  A block and a sub-block each
    hold at most _BLOCK values."""
    p, n = L.p, L.dim
    m, k = bases.shape[:2]
    size = p**n
    brackets, nonzero = _bracket_table(L), _pairings(n, p)
    kept = indices is not None

    def outside(vectors, cols):
        """Mask: some of a row's vectors (indices, shape (r, q)) pairs to
        nonzero with one of its parity-check columns (cols, (r, n - k)).
        The pairings of a row are counted by a product with ones in a
        dtype that holds their number, faster than `any` on short rows."""
        at = vectors.astype(np.intp)[:, :, None] * size + cols[:, None, :]
        width = at.shape[1] * at.shape[2]
        off = nonzero.take(at).reshape(len(at), width).view(np.uint8)
        return (off @ np.ones(width, dtype=np.min_scalar_type(width))) != 0

    s, t = _pairs(k)
    units = p ** np.arange(n - 1, -1, -1)  # the indices of e_0 .. e_{n-1}
    closed = np.zeros(m, dtype=bool)
    ideal = np.zeros(m, dtype=bool)
    # a row of a block holds its n indices and n - k pairings, and where
    # the indices come from its rows, int64 copies of its n^2 entries too;
    # a row of a sub-block the indices and pairings of its k n brackets
    # [b_s, e_j]
    step = _block_rows(3 * n if kept else n * (n + 2))
    sub = _block_rows(2 * k * n * (n - k + 1))
    for lo in range(0, m, step):
        if kept:
            rows = indices[0][lo : lo + step].astype(np.intp)
            cols = indices[1][lo : lo + step].astype(np.intp)
        else:
            rows, cols = _vector_indices(bases[lo : lo + step], checks[lo : lo + step], p)
        first = brackets.take(rows[:, s[:1]] * size + rows[:, t[:1]])
        passed = np.flatnonzero(~outside(first, cols))
        for a in range(0, len(passed), sub):
            at = passed[a : a + sub]
            got, cols_at = rows[at], cols[at]
            if k > 2:
                others = brackets.take(got[:, s[1:]] * size + got[:, t[1:]])
                keep = ~outside(others, cols_at)
                at, got, cols_at = at[keep], got[keep], cols_at[keep]
            closed[lo + at] = True
            ad = brackets.take(got[:, :, None] * size + units)
            ideal[lo + at] = ~outside(ad.reshape(len(at), k * n), cols_at)
    return closed, ideal


def _bracket_table(L: LieAlgebra) -> Optional[np.ndarray]:
    """The index of [x, y] for every pair of vectors x, y of GF(p)^n, shape
    (p^n, p^n), in _index_dtype, vectors by index as in _vector_table.
    From [x, e_j] (_ad_rows), [x, y] = sum_j y[j] [x, e_j]: one float
    product per block of rows x, exact by _exact_float, reduced by _reduce
    and weighed by the base-p place values.  Kept like _vector_table."""
    p, n, size = L.p, L.dim, L.p**L.dim

    def build():
        dtype = _exact_float(n * (p - 1) ** 2, p)
        digits = np.indices((p,) * n).reshape(n, size).T
        vectors, places = digits.astype(dtype), p ** np.arange(n - 1, -1, -1, dtype=dtype)
        out = np.empty((size, size), dtype=_index_dtype(n, p))
        # a row x: [x, e_j], its float copy, n residues and quotients a y
        step = _block_rows(2 * n * size + 2 * n * n)
        for lo in range(0, size, step):
            block = _ad_rows(L, digits[lo : lo + step])
            flat = block.transpose(1, 0, 2).reshape(n, len(block) * n).astype(dtype)
            resid = _reduce(vectors @ flat, p)  # [x, y]_i at (y, (x, i))
            out[lo : lo + step] = (resid.reshape(size, len(block), n) @ places).T
        return _read_only(out)[0]

    return _stored((_bracket_table, L.key), size * size * _index_dtype(n, p).itemsize, build)


def _pairings(n: int, p: int) -> Optional[np.ndarray]:
    """(p^n, p^n) bool: <x, h> != 0 mod p, for every pair of vectors of
    GF(p)^n by index, as _vector_table numbers them: one float product per
    row block, exact by _exact_float.  Kept like _vector_table, by (n, p)."""
    size = p**n

    def build():
        vectors = np.indices((p,) * n, dtype=_exact_float(n * (p - 1) ** 2, p))
        vectors, out = vectors.reshape(n, size), np.empty((size, size), dtype=bool)
        step = _block_rows(2 * size + n)  # residues and quotients of _reduce
        for lo in range(0, size, step):
            out[lo : lo + step] = _reduce(vectors.T[lo : lo + step] @ vectors, p) != 0
        return _read_only(out)[0]

    return _stored((_pairings, n, p), size * size, build)


def _vector_indices(bases: np.ndarray, checks: np.ndarray, p: int):
    """The indices (base-p digits, as _vector_table numbers vectors) of the
    basis rows and of the parity-check columns of a batch of subspaces:
    (m, k) and (m, n - k) int64 arrays."""
    places = p ** np.arange(bases.shape[2] - 1, -1, -1)
    return bases @ places, places @ checks


@_shape_cache
def _index_table(n: int, p: int, k: int):
    """_vector_indices of every row of echelon_arrays(n, p, k) and
    _parity_checks(n, p, k), in that order and in _index_dtype(n, p),
    built in row blocks, each row holding int64 copies of its n^2 entries
    and its n indices.  They depend on the shape alone, so they are kept in
    the shape caches and read-only, for the shapes _shape_kept admits;
    _closed_and_ideal_masks asks for no other."""
    bases, checks = echelon_arrays(n, p, k)[0], _parity_checks(n, p, k)
    dtype = _index_dtype(n, p)
    rows = np.empty((len(bases), k), dtype=dtype)
    cols = np.empty((len(bases), n - k), dtype=dtype)
    step = _block_rows(n * (n + 1))
    for lo in range(0, len(bases), step):
        at = slice(lo, lo + step)
        rows[at], cols[at] = _vector_indices(bases[at], checks[at], p)
    return _read_only(rows, cols)


def _inside(vectors: np.ndarray, checks: np.ndarray, p: int) -> np.ndarray:
    """Mask over a batch: every row of vectors[a] lies in the subspace with
    parity check checks[a]."""
    resid = vectors @ checks
    resid %= p
    return ~resid.any(axis=(1, 2))


def build_lattice(L: LieAlgebra, cap: int = DEFAULT_SUBSPACE_CAP) -> LatticeCache:
    """The subalgebra lattice of L, computed on demand (see LatticeCache).
    Refuses (CapExceededError) when GF(p)^n has more than cap subspaces."""
    total = count_subspaces(L.dim, L.p)
    if total > cap:
        raise CapExceededError(total, cap)
    return LatticeCache(L, total)


def _maximal_masks(
    arrays: Dict[int, Tuple[np.ndarray, np.ndarray]], tops: np.ndarray, n: int, p: int
) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
    """Top-down scan for the maximal subalgebras of a batch of T subalgebras
    B_t of one dimension k (the tops, given by their parity checks, shape
    (T, n, n - k)); arrays[d] holds the bases and parity checks of the
    subalgebras of L of each dim d, 0 included.  From dim k - 1 down, a
    member inside B_t is maximal in B_t iff its cover count, the number of
    maximal subalgebras of B_t kept so far that contain it, is 0.  Tops go
    in chunks, and containment tests (_contained) and cover counts in row
    blocks, each sized by _block_rows: a top holds a column of the chunk's
    arrays, and a member row its containment masks and the float copies
    that the cover-count products make of them.

    Returns (masks, meets): masks[d] (d < k) is the (len(arrays[d][0]), T)
    mask of the members maximal in each top, and F(B_t), the intersection of
    the maximal subalgebras of B_t, is row meets[t, 1] of arrays[meets[t, 0]].
    F is 0 when k < 2.  For k >= 2, B_t has at least two maximal subalgebras
    (each line lies in one), so F(B_t) lies strictly inside each and is the
    largest member whose cover count is their number, or the zero member
    when no other has that count."""
    count, width = len(tops), tops.shape[2]
    k = n - width
    below = sorted((d for d in arrays if 0 < d < k), reverse=True)
    masks = {d: np.zeros((len(arrays[d][0]), count), dtype=bool) for d in below}
    if k:  # the zero member lies in everything: maximal only in a line
        masks[0] = np.full((1, count), k == 1)
    meets = np.zeros((count, 2), dtype=np.intp)
    members = sum(len(arrays[d][0]) for d in below)
    counts = _exact_float(members)  # a cover count is at most members
    # a top holds n width values of _contained's float copy of its parity
    # check and, for each member, its entries of inside, covers, maximal
    # and the kept masks
    per = _block_rows(n * width + 4 * members)
    for lo in range(0, count, per):
        chunk = tops[lo : lo + per]
        found = np.zeros(len(chunk))  # maximal subalgebras of each top so far
        kept = []  # (parity checks, mask over the chunk) of those
        candidates = []  # (d, rows, tops, found then) under every one so far
        for d in below:
            bases, checks = arrays[d]
            if width:
                inside = _contained(bases, chunk, p)
                rows = np.flatnonzero(inside.any(axis=1))
                inside, bases = inside[rows], bases[rows]
            else:  # the top is L: every member is inside
                inside = np.ones((len(bases), len(chunk)), dtype=bool)
                rows = np.arange(len(bases))
            covers = np.zeros(inside.shape, dtype=counts)
            for held, mask in kept:
                # a row holds its mask over held, the float copy the product
                # with mask makes of it, and the product, which goes in
                # sub-blocks of len(held) len(chunk) multiply-adds a row
                step = _block_rows(2 * len(held) + len(chunk))
                sub = _block_rows(len(held) * len(chunk))
                for at in range(0, len(rows), step):
                    within = _contained(bases[at : at + step], held, p)
                    out = covers[at : at + step]  # a view: += writes to covers
                    for s in range(0, len(within), sub):
                        out[s : s + sub] += within[s : s + sub] @ mask
            maximal = inside & (covers == 0)
            masks[d][rows, lo : lo + per] = maximal
            at, top = np.nonzero(inside & (covers == found) & (found > 0))
            if len(top):
                candidates.append((d, rows[at], top, found[top]))
            some = maximal.any(axis=1)
            if some.any():
                kept.append((checks[rows[some]], maximal[some].astype(counts)))
                found = found + maximal.sum(axis=0)
        for d, rows, top, then in candidates:  # highest dimension first
            new = (then == found[top]) & (meets[lo + top, 0] == 0)
            meets[lo + top[new]] = np.stack([np.full(new.sum(), d), rows[new]], axis=1)
    return masks, meets


def _contained(bases: np.ndarray, checks: np.ndarray, p: int) -> np.ndarray:
    """(len(bases), len(checks)) mask: span(bases[r]) lies in the subspace
    with parity check checks[t].  The residues are BLAS products below
    n (p - 1)^2, exact in the float type _exact_float picks for that bound
    (float32 up to 2^24, else float64: below 2^42 under gfp.int64_safe),
    reduced by _reduce, in blocks of checks and of rows sized by
    _block_rows."""
    m, d, n = bases.shape
    count, width = checks.shape[0], checks.shape[2]
    dtype = _exact_float(n * (p - 1) ** 2, p)
    out = np.empty((m, count), dtype=bool)
    # a check holds its n width float values, and takes d n width multiply-adds a row
    per = _block_rows(max(d, 1) * n * width)
    for c in range(0, count, per):
        part = checks[c : c + per]
        # columns (j, t): the residues of (r, t) are the middle axis
        cols = width * len(part)
        flat = np.ascontiguousarray(part.transpose(1, 2, 0), dtype=dtype).reshape(n, cols)
        # a row holds its float basis, residues and quotients, d n cols multiply-adds
        step = _block_rows(d * max(n + 2 * cols, n * cols))
        for lo in range(0, m, step):
            block = bases[lo : lo + step]
            resid = _reduce(block.reshape(len(block) * d, n).astype(dtype) @ flat, p)
            resid = resid.reshape(len(block), d * width, len(part))
            out[lo : lo + step, c : c + per] = ~resid.any(axis=1)
    return out


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float32 or float64 array of whole numbers
    with |x| + p at most 2^24 or 2^53, the whole numbers the type holds
    exactly: x / p rounds to a whole number only when it is one, so its
    floor is exact, and so are p * floor(x / p), below |x| + p, and
    x - p * floor(x / p), which is x mod p."""
    quotient = x / p
    np.floor(quotient, out=quotient)
    quotient *= p
    x -= quotient
    return x


def _exact_float(bound: int, p: int = 0) -> type:
    """The float type for a BLAS product of whole numbers whose terms'
    absolute values sum to at most bound, so that every partial sum is a
    whole number of absolute value at most bound, then reduced by _reduce
    mod p (p = 0 when it is not): float32 when bound + p <= 2^24, where
    both steps are exact in it, else float64, exact up to 2^53, which the
    callers keep below.  Like the _entry_dtype of the shape arrays, the
    choice depends on the input alone."""
    return np.float32 if bound + p <= 2**24 else np.float64


# -- Frattini ideals of subalgebras ------------------------------------------
#
# The subalgebras of a subalgebra B are the members of L's lattice that lie
# in B, so phi(B) needs no lattice of its own: the maximal subalgebras of B
# are the maximal elements among those members, F(B) is their intersection
# and phi(B) the largest ideal of B inside F(B).  phi(B) depends only on B's
# structure constants in its RREF basis, and an isomorphism B -> B' maps
# phi(B) onto phi(B'), so it is computed once per distinct table and mapped
# to the other subalgebras with that table.


def _induced_tables(L: LieAlgebra, bases: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """The structure constants of a batch of subalgebras in their RREF
    bases: (m, C(k, 2) * k), row a holding the coordinates of [b_s, b_t],
    its entries at the pivot columns, for the pairs s < t of _pairs(k)."""
    m, k, n = bases.shape
    bases = bases.astype(np.int64)
    ad = _ad_rows(L, bases.reshape(m * k, n)).reshape(m, k, n, n)
    # [b_s, b_t] = sum_j b_t[j] [b_s, e_j]
    s, t = _pairs(k)
    brackets = (bases[:, t, None, :] @ ad[:, s]).reshape(m, len(s), n) % L.p
    return np.take_along_axis(brackets, piv[:, None, :], axis=2).reshape(m, -1)


def _subalgebra_phis(lattice: LatticeCache) -> Dict[Tuple[int, int], Subspace]:
    """See LatticeCache.subalgebra_phis.  phi(L) is frattini's, and a
    subalgebra B of dimension k <= 2 has phi(B) = 0 (for k = 2 the p + 1
    lines of B are its maximal subalgebras, and meet in 0).  For
    3 <= k < n, the subalgebras are grouped by their induced tables; a zero
    table (abelian B) has phi = 0, so an abelian L, all of whose tables are
    zero, gives the empty map before any dimension is computed.
    The first subalgebras B with each other table are the tops of one
    _maximal_masks scan per dimension, which gives F(B).  Where F(B) is an
    ideal of B, tested in one batch per dim F (_ideal_of), phi(B) = F(B);
    elsewhere phi(B) = core(L, F(B), B).
    The RREF rows of phi(B) read at B's pivot columns are its RREF
    coordinates Phi; a subalgebra B' with the same table has
    phi(B') = Phi . rows(B'), again in RREF, with pivots those of B' at the
    leading columns of Phi.  The table groups of a dimension interleave, so
    the entries are sorted by key at the end."""
    L = lattice.algebra
    n, p = L.dim, L.p
    if not L.table.any():
        return {}
    dims = lattice._computed()
    arrays = {d: (dim.bases, dim.checks) for d, dim in dims.items()}
    phi_l = frattini(L, lattice)
    out = {(n, 0): phi_l} if phi_l.dim else {}
    for k in range(3, n):
        if k not in dims:
            continue
        bases, piv = arrays[k][0], dims[k].piv
        alike = [rows for table, rows in lattice.table_groups(k).items() if any(table)]
        if not alike:
            continue
        reps = np.array([members[0] for members in alike])
        meets = _maximal_masks(arrays, arrays[k][1][reps], n, p)[1]
        for d in np.unique(meets[:, 0]):
            if not d:
                continue
            at = np.flatnonzero(meets[:, 0] == d)
            rows = meets[at, 1]
            ideal = _ideal_of(L, arrays[d][0][rows], arrays[d][1][rows], bases[reps[at]])
            for t, row, is_ideal in zip(at.tolist(), rows.tolist(), ideal.tolist()):
                meet, rep = dims[d].sub(row), reps[t]
                phi = meet if is_ideal else core(L, meet, dims[k].sub(rep))
                if not phi.dim:
                    continue
                members = alike[t]
                coords = np.array(phi.rows, dtype=np.int64)[:, piv[rep]]
                lead = (coords != 0).argmax(axis=1)
                images = coords @ bases[members].astype(np.int64) % p
                pivots = piv[members][:, lead]
                for a, r, q in zip(members, images.tolist(), pivots.tolist()):
                    out[k, a] = Subspace(n, p, tuple(map(tuple, r)), tuple(q))
    return {key: out[key] for key in sorted(out)}


def _ideal_of(L: LieAlgebra, bases: np.ndarray, checks: np.ndarray, within: np.ndarray):
    """Mask over a batch of subspaces F_a (bases and parity checks) inside
    subalgebras B_a (bases within): F_a is an ideal of B_a, that is every
    [f_s, w_u] lies in F_a."""
    m, d, n = bases.shape
    bases, checks, within = (a.astype(np.int64) for a in (bases, checks, within))
    ad = _ad_rows(L, bases.reshape(m * d, n)).reshape(m, d, n, n)
    # [f_s, w_u] = sum_j w_u[j] [f_s, e_j]
    brackets = within[:, None] @ ad
    return _inside(brackets.reshape(m, -1, n), checks, L.p)


# -- Plücker coordinates ----------------------------------------------------
#
# For dim U + dim W = n, U + W = GF(p)^n exactly when det[U; W] != 0, and by
# the generalized Laplace expansion along the rows of U that determinant is
#   sum over k-subsets S of the columns of sign(S) * minor_S(U) * minor_S'(W),
# S' the complement of S and sign(S) = (-1)^(k(k-1)/2 + sum S) (0-based).
# The minors are the Plücker coordinates of U and W; reduced mod p they are
# below p, so each of the C(n, k) products is below p^2 and the sum is below
# C(n, k) p^2.  plucker_pairing takes them in float32 when the sum stays
# below 2^24 and in float64 otherwise, and refuses sums that could reach
# 2^53, so its float products are exact integers.

def plucker(bases: np.ndarray, p: int) -> np.ndarray:
    """Plücker coordinates of a batch of subspaces: for bases of shape
    (m, d, n), the (m, C(n, d)) array of d x d minors mod p, columns in
    combinations(range(n), d) order, in _entry_dtype(p); d = 0 gives the
    one empty minor, 1.  Laplace expansion one row at a time: the minors of
    the first r rows come from those of the first r - 1 rows, in int64
    (minors[:, smaller] is int64, so each product with a basis entry of
    any dtype is too).  Its callers go through _plucker_blocks."""
    m, d, n = bases.shape
    minors = np.ones((m, 1), dtype=np.int64)
    for r in range(1, d + 1):
        cols, smaller, signs = _laplace_step(n, r)
        terms = bases[:, r - 1, cols] * minors[:, smaller]
        minors = (terms * signs).sum(axis=2) % p
    return minors.astype(_entry_dtype(p))


def _plucker_blocks(bases: np.ndarray, p: int) -> np.ndarray:
    """plucker of bases in row blocks, for the shape tables, the rows of
    _Dim.pluckers on shapes the shape caches do not keep and the B' of
    _core_supplements: each Laplace step of plucker holds about four int64
    arrays (gathered entries, gathered minors, their products, the signed
    products) of C(n, r) r <= C(n, n // 2) d values a row, so a block keeps
    them at about _BLOCK values together."""
    m, d, n = bases.shape
    out = np.empty((m, comb(n, d)), dtype=_entry_dtype(p))
    step = _block_rows(4 * comb(n, n // 2) * d)
    for lo in range(0, m, step):
        out[lo : lo + step] = plucker(bases[lo : lo + step], p)
    return out


@_shape_cache
def _plucker_table(n: int, p: int, k: int) -> np.ndarray:
    """plucker of every row of echelon_arrays(n, p, k), in that order, built
    in row blocks (_plucker_blocks).  The coordinates of a RREF basis depend
    on the shape alone, not on the algebra, so the table is kept in the
    shape caches and read-only like echelon_arrays, for the shapes
    _shape_kept admits; _Dim.pluckers asks for no other."""
    return _read_only(_plucker_blocks(echelon_arrays(n, p, k)[0], p))[0]


@lru_cache(maxsize=256)
def _laplace_step(n: int, r: int):
    """Index arrays expanding every r x r minor along its last row: for
    each r-subset S (in combinations order) and each t < r, the column S[t],
    the index of the (r-1)-subset S without S[t], and the cofactor sign
    (-1)^(r-1+t)."""
    prev = {s: i for i, s in enumerate(combinations(range(n), r - 1))}
    subsets = list(combinations(range(n), r))
    cols = np.array(subsets, dtype=np.intp)
    smaller = np.array(
        [[prev[s[:t] + s[t + 1 :]] for t in range(r)] for s in subsets],
        dtype=np.intp,
    )
    signs = np.array([(-1) ** (r - 1 + t) for t in range(r)], dtype=np.int64)
    return _read_only(cols, smaller, signs)


def plucker_pairing(
    pu: np.ndarray, pw: np.ndarray, n: int, k: int, p: int
) -> np.ndarray:
    """det[U; W] mod p for every pair of a batch of dim-k subspaces U of
    GF(p)^n (rows of their Plücker coordinates pu) and a batch of
    dim-(n-k) subspaces W (rows of pw): a (len(pu), len(pw)) array of exact
    residues, held in the float type that _exact_float picks for the bound
    C(n, k) (p - 1)^2 of the pairing, so that the product runs through
    BLAS: float32 below 2^24, else float64."""
    bound = comb(n, k) * (p - 1) ** 2
    if bound >= 2**53:
        # PrimeField and the subspace cap keep every caller far below this
        raise InternalError(
            f"GF({p})^{n}: Plücker pairings of dim {k} would overflow "
            "the exact integers of float64"
        )
    dtype = _exact_float(bound, p)
    dual, signs = _pairing_dual(n, k)
    return _reduce(np.multiply(pu[:, dual], signs, dtype=dtype) @ pw.T.astype(dtype), p)


def _first_hits(
    lattice: LatticeCache, pu: np.ndarray, d: int, columns: np.ndarray
) -> np.ndarray:
    """For each dim-(n - d) subspace U, one row of Plücker coordinates in
    pu: the first W among the rows `columns` (ascending) of dimension d
    with U + W = L, or -1.  The rows are paired (plucker_pairing) with
    column blocks of isqrt(_BLOCK) candidates, the side of a square pairing
    block, whose Plücker rows come from _Dim.pluckers, in row chunks of at
    most _BLOCK pairings; a row leaves the search at the first block where
    it has a hit, which holds its least one, so the search ends once every
    row has one."""
    n, p = lattice.algebra.dim, lattice.algebra.p
    candidates = lattice._dim(d)
    first = np.full(len(pu), -1, dtype=np.intp)
    left = np.arange(len(pu))  # rows of pu still without a hit
    width = isqrt(_BLOCK)
    for lo in range(0, len(columns), width):
        if not len(left):
            break
        block = columns[lo : lo + width]
        pw = candidates.pluckers(block)
        step = _block_rows(len(pw))
        for at in range(0, len(left), step):
            chunk = left[at : at + step]
            hit = plucker_pairing(pu[chunk], pw, n, n - d, p) != 0
            found = hit.any(axis=1)
            first[chunk[found]] = block[hit[found].argmax(axis=1)]
        left = left[first[left] < 0]
    return first


def _unsupplemented(lattice: LatticeCache, k: int) -> np.ndarray:
    """See LatticeCache.unsupplemented.  An ideal B has the supplement L
    (B meet L = B is its own core), so the ideal masks come first: a
    dimension of ideals alone (always k = 0 and k = n, every k for an
    abelian L) is answered without first_complements.  A complement is a
    supplement, so first_complements is asked for the other rows alone,
    and only those without a complement are tested, by
    _core_supplements."""
    dim = lattice._dim(k)
    rows = np.flatnonzero(~dim.ideal)
    if not len(rows):
        return rows
    rows = rows[lattice.first_complements(k, rows) < 0]
    if not len(rows):
        return rows
    return rows[_core_supplements(lattice, k, rows)[1] < 0]


def _core_supplements(
    lattice: LatticeCache, k: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(core_dims, firsts) for the subalgebras B in the given rows of
    dimension k, which have no complement: the dimension c of the core K of
    B, and the row of the first C of dimension n - k + c, in lattice order,
    with K <= C and B + C = L, or -1.  K, the sum of the ideals of L inside
    B, is the one ideal of largest dimension inside B (B for an ideal): one
    _contained test of the ideals of dims 1 .. k, padded to k rows, finds
    every core.  As K is an ideal, a supplement C may be replaced by the
    subalgebra C + K, of dimension n - k + c, and B meet (C + K) =
    (B meet C) + K = K (modular law); so such a C exists exactly when B has
    a supplement, and meets B in exactly K.  For K = 0 it would be a
    complement, so none is sought.  The rows are grouped by core, and the
    candidates of a group found by one _contained test of its core.  B =
    K + B', B' the RREF rows of B at pivots outside K's, so for K <= C,
    B + C = L exactly when B' + C = L: _first_hits pairs the B' of a group
    (dim k - c; 0 for an ideal B, whose one candidate is L) with them.
    The ideals x rows mask stays small as _unsupplemented passes only the
    rows without a complement (given every non-ideal row, it ran the
    dim-8 sums out of memory)."""
    L = lattice.algebra
    n, p = L.dim, L.p
    dim = lattice._dim(k)
    core_dims = np.zeros(len(rows), dtype=np.intp)
    firsts = np.full(len(rows), -1, dtype=np.intp)
    below = [(d, lattice._dim(d)) for d in range(1, k + 1)]
    padded = [np.pad(b.bases[b.ideal], ((0, 0), (0, k - d), (0, 0))) for d, b in below]
    sizes = np.repeat([d for d, _ in below], [len(ideals) for ideals in padded])
    if not len(sizes):
        return core_dims, firsts
    padded = np.concatenate(padded)
    at = dim.idx[rows]
    inside = _contained(padded, dim._checks[at], p) * sizes[:, None]
    cores, core_dims = inside.argmax(axis=0), inside.max(axis=0)
    for j in np.unique(cores[core_dims > 0]).tolist():
        group = np.flatnonzero((cores == j) & (core_dims > 0))
        c = int(sizes[j])
        candidates = lattice._dim(n - k + c)
        containing = np.flatnonzero(_contained(padded[j : j + 1, :c], candidates.checks, p)[0])
        outside = ~np.isin(dim._piv[at[group]], (padded[j, :c] != 0).argmax(axis=1))
        rest = dim._bases[at[group]][outside].reshape(len(group), k - c, n)
        firsts[group] = _first_hits(lattice, _plucker_blocks(rest, p), n - k + c, containing)
    return core_dims, firsts


@lru_cache(maxsize=256)
def _pairing_dual(n: int, k: int):
    """For each (n-k)-subset T, in combinations order: the index of its
    complement S among the k-subsets, and sign(S)."""
    index = {s: i for i, s in enumerate(combinations(range(n), k))}
    dual, signs = [], []
    for t in combinations(range(n), n - k):
        s = tuple(j for j in range(n) if j not in t)
        dual.append(index[s])
        signs.append((-1) ** (k * (k - 1) // 2 + sum(s)))
    return _read_only(np.array(dual, dtype=np.intp), np.array(signs, dtype=np.float64))


# -- core -------------------------------------------------------------------


def core(L: LieAlgebra, b: Subspace, within: Optional[Subspace] = None) -> Subspace:
    """Largest ideal of `within` (default L) contained in b, for b inside
    `within`, by fixpoint refinement: each round keeps the x of the current
    subspace with [x, w] still inside it for every basis row w of `within`.
    With rows b_s and parity check H of the current subspace,
    x = sum_s a_s b_s is kept iff sum_s a_s ([b_s, w] @ H) = 0 mod p for
    every w: one _ad_rows product and one nullspace per round."""
    n, p = L.dim, L.p
    cur = b
    while cur.dim:
        rows = np.array(cur.rows, dtype=np.int64)
        ad = _ad_rows(L, rows)  # [b_s, e_j]
        if within is not None:
            # [b_s, w] = sum_j w[j] [b_s, e_j]
            ad = np.array(within.rows, dtype=np.int64) @ ad % p
        cond = (ad @ _parity_check(cur).astype(np.int64)).reshape(cur.dim, -1) % p
        cond = cond.T[cond.any(axis=0)]  # one equation in the a_s per row
        kernel = _nullspace(cond.tolist(), cur.dim, p)
        if len(kernel) == cur.dim:
            return cur
        coeffs = np.array(kernel, dtype=np.int64).reshape(len(kernel), cur.dim)
        cur = Subspace.span((coeffs @ rows % p).tolist(), n, p)
    return cur


def _nullspace(mat: List[List[int]], ncols: int, p: int) -> List[Tuple[int, ...]]:
    red, pivots = rref(mat, ncols, p)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = (-row[f]) % p
        basis.append(tuple(v))
    return basis


# -- Frattini, minimal ideals, radical ---------------------------------------


def frattini(L: LieAlgebra, lattice: LatticeCache) -> Subspace:
    """phi(L), the largest ideal of L inside F(L), the intersection of all
    maximal subalgebras, which the maximal scan reads from its cover
    counts; computed once per lattice."""
    return lattice._phi


def minimal_ideals(L: LieAlgebra, lattice: LatticeCache) -> List[Subspace]:
    """The nonzero ideals that contain no smaller nonzero ideal, in lattice
    order: each contains a minimal one, so the ones of lower dims suffice."""
    out: List[Subspace] = []
    for d in range(1, L.dim + 1):
        out += [i for i in lattice.ideals(d) if not any(i.contains(m) for m in out)]
    return out


def _space_solvable(L: LieAlgebra, u: Subspace) -> bool:
    cur = u
    while cur.dim:
        nxt = L.product_space(cur, cur)
        if nxt.dim == cur.dim:
            return False
        cur = nxt
    return True


def radical(L: LieAlgebra, lattice: LatticeCache) -> Subspace:
    """The radical: the largest solvable ideal, which contains every
    solvable ideal and so is the only one of its dimension.  The ideals are
    read one dimension at a time, d = n .. 0, and the solvable ones of the
    first dimension that has any (0 always does) are summed, so a solvable
    L reads one row; InternalError when that sum is not solvable."""
    for d in range(L.dim, -1, -1):
        solvable = [i for i in lattice.ideals(d) if _space_solvable(L, i)]
        if solvable:
            break
    out = reduce(Subspace.sum, solvable)
    if not _space_solvable(L, out):
        raise InternalError("radical is not solvable")
    return out


def is_simple(L: LieAlgebra, lattice: LatticeCache) -> bool:
    """n > 1 and no ideal of dims 1 .. n - 1 in the ideal masks."""
    return L.dim > 1 and not any(lattice._dim(d).ideal.any() for d in range(1, L.dim))


# -- supersolvability --------------------------------------------------------


def is_supersolvable(L: LieAlgebra, lattice: LatticeCache) -> bool:
    """L has ideals 0 = I_0 < I_1 < ... < I_n = L with dim I_d = d.  The
    walk goes d = 1 .. n over the ideal masks of the lattice and keeps one
    reached ideal per dimension: I_d is the first dim-d ideal that contains
    I_{d - 1}, found by _contained tests of the dim-d ideals in row blocks
    sized by _block_rows, up to the first hit; the walk stops at the first
    dimension where there is none.  One ideal is enough: a quotient of a
    supersolvable algebra is supersolvable, so if L is, L/I_d has a 1-dim
    ideal for d < n, and its preimage extends any chain I_0 < ... < I_d
    with dim I_j = j.  No quotient is built."""
    n = L.dim
    reached = lattice._dim(0).bases  # the zero ideal
    for d in range(1, n + 1):
        dim = lattice._dim(d)
        rows = dim.idx[dim.ideal]
        # an ideal row holds its gathered parity check and _contained's
        # float copy of it (n (n - d) values each), and its residues and
        # the quotient of _reduce (d (n - d) each), and d n (n - d) multiply-adds
        step = _block_rows(max(2 * (n - d) * (n + d), d * n * (n - d)))
        for lo in range(0, len(rows), step):
            block = rows[lo : lo + step]
            hit = _contained(reached, dim._checks[block], L.p)[0]
            if hit.any():
                reached = dim._bases[block[hit.argmax()]][None]
                break
        else:
            return False
    return True
