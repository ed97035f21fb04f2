"""Whole-lattice computations for a Lie algebra over GF(p).

build_lattice returns a LatticeCache that computes the subalgebras of GF(p)^n
one dimension at a time, the first time anything asks for that dimension:
a batched closure (and ideal) test with numpy over every dim-k subspace of
echelon generation.  A computed dimension is kept as an index vector into
the shared, read-only echelon_arrays and _parity_checks arrays; its
Subspace list is made when first read.  The ideals and the maximal
subalgebras are found on first access.  Everything downstream (core, Frattini ideal, minimal ideals,
socle, radical, supersolvability) works from exact linear algebra on those
lists.  Complements are found per dimension: LatticeCache.first_complements(k)
pairs the Plücker coordinates of every dim-k subalgebra with those of every
dim-(n-k) one in blocked matrix products and keeps, for each subalgebra, its
first complement, so a complement query is a row lookup; it computes only
dimensions k and n - k.  LatticeCache.subalgebra_phis() gives the Frattini
ideal of every subalgebra B from the members of the lattice that lie in B,
once per distinct induced table, without a lattice of B.

All lists are sorted by (dim, lexicographic RREF rows) so reports are
byte-stable across runs, whatever order the dimensions were computed in.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .gfp import InternalError
from .liealg import LieAlgebra
from .subspace import (
    ECHELON_CACHE_ROWS,
    CapExceededError,
    DEFAULT_SUBSPACE_CAP,
    Subspace,
    _parity_check,
    _parity_checks,
    _read_only,
    count_subspaces,
    echelon_arrays,
    rref,
)


class _Dim:
    """The subalgebras of one dimension k: rows idx of the arrays
    (bases, pivots, checks) of echelon_arrays and _parity_checks, in
    Subspace.sort_key order, and which of them are ideals.  Their Subspace
    list is made on first use."""

    __slots__ = ("_p", "_bases", "_piv", "_checks", "idx", "ideal", "_subs")

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
        if len(bases) > ECHELON_CACHE_ROWS:
            # arrays the shape cache does not keep: hold the subalgebra rows
            # only, so that a lattice never pins a whole Grassmannian
            bases, piv, checks = bases[idx], piv[idx], checks[idx]
            ideal, idx = ideal[idx], np.arange(len(idx))
        else:
            ideal = ideal[idx]
        self._p, self._bases, self._piv, self._checks = p, bases, piv, checks
        self.idx, self.ideal = idx, ideal
        self._subs: Optional[List[Subspace]] = None

    @property
    def subs(self) -> List[Subspace]:
        if self._subs is None:
            n, p = self._bases.shape[2], self._p
            self._subs = [
                Subspace(n, p, tuple(map(tuple, rows)), tuple(pivots))
                for rows, pivots in zip(self.bases.tolist(), self.piv.tolist())
            ]
        return self._subs

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


class _ByDim(Mapping):
    """LatticeCache.by_dim: each dimension that holds a subalgebra, in
    increasing order, to its subalgebras in Subspace.sort_key order.  A
    dimension is computed when it is first looked up or iterated over."""

    __slots__ = ("_lattice",)

    def __init__(self, lattice: "LatticeCache"):
        self._lattice = lattice

    def __getitem__(self, k: int) -> List[Subspace]:
        if not 0 <= k <= self._lattice.algebra.dim:
            raise KeyError(k)
        dim = self._lattice._dim(k)
        if not len(dim.idx):
            raise KeyError(k)
        return dim.subs

    def __iter__(self) -> Iterator[int]:
        lat = self._lattice
        return (k for k in range(lat.algebra.dim + 1) if len(lat._dim(k).idx))

    def __len__(self) -> int:
        return sum(1 for _ in self)


class LatticeCache:
    """The subalgebra lattice of one algebra, computed on demand: each
    dimension of by_dim, the ideals and the maximal subalgebras the first
    time they are asked for.  subspace_count is the number of subspaces of
    GF(p)^n, all of which the dimensions together test."""

    def __init__(self, algebra: LieAlgebra, subspace_count: int):
        self.algebra = algebra
        self.subspace_count = subspace_count
        self.by_dim: Mapping[int, List[Subspace]] = _ByDim(self)
        self._dims: Dict[int, _Dim] = {}
        # first_complements(d) per dimension d, built on first use
        self._first: Dict[int, np.ndarray] = {}
        # subalgebra_phis(), built on first use
        self._phis: Optional[Dict[int, List[Subspace]]] = None

    def _dim(self, k: int) -> _Dim:
        got = self._dims.get(k)
        if got is None:
            got = self._dims[k] = _Dim(self.algebra, k)
        return got

    def _computed(self) -> Dict[int, _Dim]:
        """Every dimension that holds a subalgebra, computed."""
        return {k: self._dim(k) for k in self.by_dim}

    @cached_property
    def subalgebras(self) -> List[Subspace]:
        return [s for subs in self.by_dim.values() for s in subs]

    @cached_property
    def ideals(self) -> List[Subspace]:
        return [
            s
            for dim in self._computed().values()
            for s, ideal in zip(dim.subs, dim.ideal)
            if ideal
        ]

    @cached_property
    def maximals(self) -> List[Subspace]:
        n = self.algebra.dim
        dims = self._computed()
        arrays = {k: (dim.bases, dim.checks) for k, dim in dims.items()}
        masks = _maximal_masks(arrays, n, n, self.algebra.p)
        return [s for k in sorted(masks) for s, m in zip(dims[k].subs, masks[k]) if m]

    def row(self, b: Subspace) -> int:
        """Index of b in by_dim[dim b]; b must be a subalgebra of this
        lattice."""
        same_dim = self.by_dim.get(b.dim, [])
        row = bisect_left(same_dim, b.rows, key=_rows)
        if row == len(same_dim) or same_dim[row] != b:
            raise ValueError(f"{b} is not a subalgebra of this lattice")
        return row

    def first_complements(self, k: int) -> np.ndarray:
        """For each row of by_dim[k], the index in by_dim[n - k] of its first
        complement C (b + C = L, so b meets C in 0), or -1 when it has
        none.  Computes dimensions k and n - k only, and answers both by
        one blocked Plücker product (see _first_complements)."""
        got = self._first.get(k)
        if got is None:
            n = self.algebra.dim
            if k > n:  # no dim-k subspace, and no dimension n - k
                return np.empty(0, dtype=np.intp)
            got, self._first[n - k] = _first_complements(
                self._dim(k).bases, self._dim(n - k).bases, self.algebra.p
            )
            self._first[k] = got
        return got

    def subalgebra_phis(self) -> Dict[int, List[Subspace]]:
        """phi(B), the Frattini ideal of B's own algebra, for every
        subalgebra B, in ambient coordinates: a list per dimension k, row
        for row with by_dim[k].  Built on first use, once per distinct
        induced table (see _subalgebra_phis); no lattice of a subalgebra is
        built."""
        if self._phis is None:
            self._phis = _subalgebra_phis(self)
        return self._phis

    def inside(self, space: Subspace) -> Iterator[Subspace]:
        """The subalgebras of this lattice contained in `space`, in lattice
        order; computes the dimensions up to dim space only."""
        check = _parity_check(space)
        for d in range(space.dim + 1):
            dim = self._dim(d)
            resid = dim.bases @ check % space.p
            for row in np.flatnonzero(~resid.any(axis=(1, 2))):
                yield dim.subs[row]

    def stats(self) -> Dict[str, int]:
        return {
            "subspaces": self.subspace_count,
            "subalgebras": len(self.subalgebras),
            "ideals": len(self.ideals),
            "maximal_subalgebras": len(self.maximals),
        }


# -- the batched tests --------------------------------------------------------
#
# checks[a] is the parity check of the subspace spanned by bases[a]
# (subspace._parity_checks): v lies in it iff v @ checks[a] == 0 mod p.  The
# products below multiply residues below p, sum n terms and are reduced mod p
# before they enter the next product; the one exception, the unreduced
# brackets of the closure test, leaves sums below n^2 (p - 1)^3, the bound
# LieAlgebra enforces (gfp.int64_safe).  So all of it is int64-exact.

# upper bound on the int64 values of one residual block of the maximal test
_MAXIMAL_BLOCK = 2**18
# upper bound on the float64 values of one block of Plücker pairings
_PAIRING_BLOCK = 2**18


def _ad_rows(L: LieAlgebra, rows: np.ndarray) -> np.ndarray:
    """[r, e_j] mod p, shape (len(rows), n, n), for each row r of rows.  When
    GF(p)^n has fewer vectors than there are rows, it brackets every vector
    once and looks the rows up by their base-p digits."""
    p, n = L.p, L.dim
    flat = L.table.reshape(n, n * n)
    if p**n < len(rows):
        vectors = np.indices((p,) * n).reshape(n, p**n).T  # index = digits
        table = vectors @ flat
        table %= p
        ad = table.take(rows @ p ** np.arange(n - 1, -1, -1), axis=0)
    else:
        ad = rows @ flat
        ad %= p
    return ad.reshape(len(rows), n, n)


@lru_cache(maxsize=64)
def _pairs(k: int):
    """Index arrays (s, t) of the pairs s < t < k."""
    return _read_only(*np.triu_indices(k, 1))


def _pair_brackets(L: LieAlgebra, bases: np.ndarray):
    """(ad, brackets) for a batch of bases of shape (m, k, n): ad[a, s, j] is
    [b_s, e_j] mod p for basis row b_s of bases[a], and brackets[a, u] is
    [b_s, b_t], not reduced mod p, for the u-th pair s < t of _pairs(k);
    the other pairs follow by antisymmetry."""
    m, k, n = bases.shape
    ad = _ad_rows(L, bases.reshape(m * k, n)).reshape(m, k, n, n)
    # [b_s, b_t] = sum_j b_t[j] [b_s, e_j]
    s, t = _pairs(k)
    brackets = bases[:, t, None, :] @ ad[:, s]
    return ad, brackets.reshape(m, len(s), n)


def _closed_and_ideal_masks(L: LieAlgebra, bases: np.ndarray, checks: np.ndarray):
    """Batch closure/ideal tests for all dim-k subspaces at once.  Only a
    subalgebra can be an ideal, so the ideal test runs on the closed ones."""
    p, n = L.p, L.dim
    m, k = bases.shape[:2]
    if k == 0:
        ones = np.ones(m, dtype=bool)
        return ones, ones
    ad, brackets = _pair_brackets(L, bases)
    outside = brackets @ checks
    outside %= p
    closed = ~outside.any(axis=(1, 2))

    sub = np.flatnonzero(closed)
    # ideal: every [b_s, e_j] (= -[e_j, b_s]) stays inside
    outside = ad[sub].reshape(len(sub), k * n, n) @ checks[sub]
    outside %= p
    ideal = np.zeros(m, dtype=bool)
    ideal[sub] = ~outside.any(axis=(1, 2))
    return closed, ideal


def build_lattice(L: LieAlgebra, cap: int = DEFAULT_SUBSPACE_CAP) -> LatticeCache:
    """The subalgebra lattice of L, computed on demand (see LatticeCache).
    Refuses (CapExceededError) when GF(p)^n has more than cap subspaces."""
    total = count_subspaces(L.dim, L.p)
    if total > cap:
        raise CapExceededError(total, cap)
    return LatticeCache(L, total)


def _maximal_masks(
    arrays: Dict[int, Tuple[np.ndarray, np.ndarray]], top: int, n: int, p: int
) -> Dict[int, np.ndarray]:
    """Top-down scan over the subalgebras of a subalgebra B of dim `top`
    (arrays[d] holds the bases and parity checks of those of dim d): every
    proper subalgebra of B lies in a maximal one, so going from the highest
    dimension below `top` down, s is maximal in B exactly when no maximal
    subalgebra kept so far contains it.  Each dimension is tested at once
    against the kept parity checks, zero-padded to the widest one, in blocks
    of at most _MAXIMAL_BLOCK residues.  Returns the mask of the maximal
    ones per dimension; with every subalgebra of L and top = n, those of
    L."""
    masks: Dict[int, np.ndarray] = {}
    kept: List[np.ndarray] = []
    for d in sorted((d for d in arrays if d < top), reverse=True):
        bases, checks = arrays[d]
        keep = np.ones(len(bases), dtype=bool)
        if kept:
            width = max(h.shape[2] for h in kept)
            count = sum(len(h) for h in kept)
            padded = np.zeros((count, n, width), dtype=np.int64)
            at = 0
            for h in kept:
                padded[at : at + len(h), :, : h.shape[2]] = h
                at += len(h)
            flat = padded.transpose(1, 0, 2).reshape(n, count * width)
            step = max(1, _MAXIMAL_BLOCK // max(1, d * count * width))
            for lo in range(0, len(bases), step):
                block = bases[lo : lo + step]
                resid = block.reshape(len(block) * d, n) @ flat
                resid %= p
                inside = ~resid.reshape(len(block), d, count, width).any(axis=(1, 3))
                keep[lo : lo + step] = ~inside.any(axis=1)
        masks[d] = keep
        kept.append(checks[keep])
    return masks


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
    brackets = _pair_brackets(L, bases)[1] % L.p
    return np.take_along_axis(brackets, piv[:, None, :], axis=2).reshape(len(piv), -1)


def _subalgebra_phis(lattice: LatticeCache) -> Dict[int, List[Subspace]]:
    """See LatticeCache.subalgebra_phis.  Subalgebras of dimension k >= 2
    are grouped by their induced tables; a zero table (abelian B) has
    phi = 0.  For each other table the first subalgebra B with it gives
    phi(B), whose RREF rows read at B's pivot columns are its RREF
    coordinates Phi; a subalgebra B' with the same table has
    phi(B') = Phi . rows(B'), again in RREF, with pivots those of B' at the
    leading columns of Phi."""
    L = lattice.algebra
    n, p = L.dim, L.p
    zero = Subspace.zero(n, p)
    # dim d -> (bases, pivots, parity checks) of by_dim[d]
    arrays = {
        d: (dim.bases, dim.piv, dim.checks) for d, dim in lattice._computed().items()
    }
    out: Dict[int, List[Subspace]] = {}
    for k, subs in lattice.by_dim.items():
        phis = out[k] = [zero] * len(subs)
        if k < 2:
            continue
        bases, piv, _ = arrays[k]
        tables = _induced_tables(L, bases, piv)
        groups: Dict[bytes, List[int]] = {}
        for a, table in enumerate(map(bytes, tables)):
            groups.setdefault(table, []).append(a)
        for members in groups.values():
            rep = members[0]
            if not tables[rep].any():
                continue
            phi = _phi_of_member(L, arrays, subs[rep], rep)
            if not phi.dim:
                continue
            coords = np.array(phi.rows, dtype=np.int64)[:, piv[rep]]
            lead = (coords != 0).argmax(axis=1)
            rows = coords @ bases[members] % p
            pivots = piv[members][:, lead]
            for a, r, q in zip(members, rows.tolist(), pivots.tolist()):
                phis[a] = Subspace(n, p, tuple(map(tuple, r)), tuple(q))
    return out


def _phi_of_member(L: LieAlgebra, arrays, b: Subspace, row: int) -> Subspace:
    """phi(B) for the subalgebra B = b of dim k >= 2, row `row` of
    arrays[k] (see _subalgebra_phis), from the lattice members inside B:
    one parity-check product per lower dimension finds them and
    the top-down scan of _maximal_masks picks the maximal ones.  F(B) is
    the x = a . rows(B) with x . H = 0 for the parity check H of every
    maximal one, a nullspace in the k coordinates a, and
    phi(B) = core(L, F(B), B)."""
    n, p, k = L.dim, L.p, b.dim
    rows, _, checks = arrays[k]
    rows, check = rows[row], checks[row]
    below = {}  # dim d -> (bases, checks) of the members of dim d inside B
    for d in range(1, k):
        if d not in arrays:
            continue
        bases, _, checks = arrays[d]
        resid = bases.reshape(len(bases) * d, n) @ check
        resid %= p
        inside = ~resid.reshape(len(bases), -1).any(axis=1)
        below[d] = bases[inside], checks[inside]
    equations = [
        (rows @ below[d][1][mask]).transpose(0, 2, 1).reshape(-1, k)
        for d, mask in _maximal_masks(below, k, n, p).items()
    ]
    equations = set(map(tuple, (np.concatenate(equations) % p).tolist()))
    coords = _nullspace(list(equations), k, p)
    if not coords:
        return Subspace.zero(n, p)
    f = Subspace.span((np.array(coords, dtype=np.int64) @ rows % p).tolist(), n, p)
    return core(L, f, b)


# -- Plücker coordinates ----------------------------------------------------
#
# For dim U + dim W = n, U + W = GF(p)^n exactly when det[U; W] != 0, and by
# the generalized Laplace expansion along the rows of U that determinant is
#   sum over k-subsets S of the columns of sign(S) * minor_S(U) * minor_S'(W),
# S' the complement of S and sign(S) = (-1)^(k(k-1)/2 + sum S) (0-based).
# The minors are the Plücker coordinates of U and W; reduced mod p they are
# below p, so each of the C(n, k) products is below p^2 and the sum is below
# C(n, k) p^2.  plucker_pairing refuses sums that could reach 2^53, so its
# float64 products are exact integers.

_rows = attrgetter("rows")


def plucker(bases: np.ndarray, p: int) -> np.ndarray:
    """Plücker coordinates of a batch of subspaces: for bases of shape
    (m, d, n), the (m, C(n, d)) array of d x d minors mod p, columns in
    combinations(range(n), d) order, in the smallest unsigned dtype that
    holds p - 1.  Laplace expansion one row at a time: the minors of the
    first r rows come from those of the first r - 1 rows."""
    m, d, n = bases.shape
    minors = np.ones((m, 1), dtype=np.int64)
    for r in range(1, d + 1):
        cols, smaller, signs = _laplace_step(n, r)
        terms = bases[:, r - 1, cols] * minors[:, smaller]
        minors = (terms * signs).sum(axis=2) % p
    return minors.astype(np.min_scalar_type(p - 1))


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
    residues, held in float64 so that the product runs through BLAS."""
    if comb(n, k) * (p - 1) ** 2 >= 2**53:
        # PrimeField and the subspace cap keep every caller far below this
        raise InternalError(
            f"GF({p})^{n}: Plücker pairings of dim {k} would overflow "
            "the exact integers of float64"
        )
    dual, signs = _pairing_dual(n, k)
    det = (pu[:, dual] * signs) @ pw.T.astype(np.float64)
    # |det| < 2^53, so det / p rounds to a whole number only when it is one,
    # and its floor is exact: det - p * floor(det / p) is det mod p
    quotient = det / p
    np.floor(quotient, out=quotient)
    quotient *= p
    det -= quotient
    return det


def _first_complements(
    us: np.ndarray, ws: np.ndarray, p: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(first_u, first_w) for the RREF bases of dim-k and dim-(n-k)
    subspaces, shapes (a, k, n) and (b, n - k, n): first_u[i] is the least
    j with us[i] + ws[j] = GF(p)^n, or -1, and first_w[j] the least such i.
    The pairings are taken in row blocks of at most _PAIRING_BLOCK values;
    det[W; U] = +-det[U; W], so one product answers both dimensions."""
    first_u = np.full(len(us), -1, dtype=np.intp)
    first_w = np.full(len(ws), -1, dtype=np.intp)
    if not len(us) or not len(ws):
        return first_u, first_w
    k, n = us.shape[1:]
    pu, pw = plucker(us, p), plucker(ws, p)
    step = max(1, _PAIRING_BLOCK // len(ws))
    for lo in range(0, len(us), step):
        hit = plucker_pairing(pu[lo : lo + step], pw, n, k, p) != 0
        found = hit.any(axis=1)
        first_u[lo : lo + step][found] = hit[found].argmax(axis=1)
        new = hit.any(axis=0) & (first_w < 0)
        first_w[new] = lo + hit[:, new].argmax(axis=0)
    return first_u, first_w


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
        cond = (ad @ _parity_check(cur)).reshape(cur.dim, -1) % p
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


# -- Frattini, socle, radical ----------------------------------------------


def frattini(L: LieAlgebra, lattice: LatticeCache) -> Tuple[Subspace, Subspace]:
    """(F, phi): F is the intersection of all maximal subalgebras, phi the
    largest ideal of L inside F.  An algebra with no proper subalgebra
    (dim 0) has F = L."""
    n, p = L.dim, L.p
    if n == 0:
        z = Subspace.zero(n, p)
        return z, z
    f = Subspace.full(n, p)
    for m in lattice.maximals:
        f = f.intersect(m)
    return f, core(L, f)


def minimal_ideals(L: LieAlgebra, lattice: LatticeCache) -> List[Subspace]:
    nonzero = [i for i in lattice.ideals if i.dim > 0]
    out = []
    for i in nonzero:
        if not any(j.dim < i.dim and i.contains(j) for j in nonzero):
            out.append(i)
    return out


def abelian_socle(L: LieAlgebra, lattice: LatticeCache) -> Subspace:
    out = Subspace.zero(L.dim, L.p)
    for i in minimal_ideals(L, lattice):
        if L.product_space(i, i).dim == 0:
            out = out.sum(i)
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
    """Sum of all solvable ideals, taken over the enumerated ideal list."""
    out = Subspace.zero(L.dim, L.p)
    for i in lattice.ideals:
        if _space_solvable(L, i):
            out = out.sum(i)
    if not _space_solvable(L, out):
        raise InternalError("radical is not solvable")
    return out


def is_simple(L: LieAlgebra, lattice: LatticeCache) -> bool:
    if L.dim <= 1:
        return False
    return len(lattice.ideals) == 2


# -- supersolvability --------------------------------------------------------


def is_supersolvable(L: LieAlgebra, _memo: Optional[dict] = None) -> bool:
    """Chain-of-ideals criterion, computed recursively: true iff some
    1-dimensional ideal has a supersolvable quotient.  The lines that are
    ideals come from one ideal-mask product over every line, tried in
    echelon order (leading coefficient 1, lexicographic tails)."""
    if _memo is None:
        _memo = {}
    got = _memo.get(L.key)
    if got is not None:
        return got
    if L.dim == 0:
        return True
    n, p = L.dim, L.p
    lines, piv = echelon_arrays(n, p, 1)
    ideal = _closed_and_ideal_masks(L, lines, _parity_checks(n, p, 1))[1]
    result = False
    for row in np.flatnonzero(ideal):
        line = Subspace(n, p, (tuple(lines[row, 0].tolist()),), (int(piv[row, 0]),))
        if is_supersolvable(L.quotient(line), _memo):
            result = True
            break
    _memo[L.key] = result
    return result
