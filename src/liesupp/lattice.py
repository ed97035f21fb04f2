"""Whole-lattice computations for a Lie algebra over GF(p).

build_lattice enumerates every subspace of GF(p)^n (echelon generation,
batched closure tests with numpy) and records which are subalgebras, which
are ideals, and which subalgebras are maximal.  Everything downstream
(core, Frattini ideal, minimal ideals, socle, radical, supersolvability)
works from exact linear algebra on those lists; complements of a
subalgebra are found by pairing Plücker coordinates (see complements).

All lists are sorted by (dim, lexicographic RREF rows) so reports are
byte-stable across runs.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from .gfp import InternalError
from .liealg import LieAlgebra
from .subspace import (
    CapExceededError,
    DEFAULT_SUBSPACE_CAP,
    Subspace,
    _parity_checks,
    _read_only,
    count_subspaces,
    echelon_arrays,
)


@dataclass
class LatticeCache:
    """Complete subalgebra/ideal/maximal lists for one algebra."""

    algebra: LieAlgebra
    subalgebras: List[Subspace]
    ideals: List[Subspace]
    maximals: List[Subspace]
    subspace_count: int
    by_dim: Dict[int, List[Subspace]]
    # Plücker coordinates of by_dim[d], built on first use by complements
    _plucker: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def complements(self, b: Subspace) -> np.ndarray:
        """Bool mask over by_dim[n - dim b]: True where that subalgebra C has
        b + C = L (and so meets b in 0).  One Plücker pairing per C instead
        of a row reduction; b must be a subalgebra of this lattice."""
        n, p, k = self.algebra.dim, self.algebra.p, b.dim
        same_dim = self.by_dim.get(k, [])
        row = bisect_left(same_dim, b.rows, key=_rows)
        if row == len(same_dim) or same_dim[row] != b:
            raise ValueError(f"{b} is not a subalgebra of this lattice")
        if n - k not in self.by_dim:
            return np.zeros(0, dtype=bool)
        det = plucker_pairing(self._coords(k)[row], self._coords(n - k), n, k, p)
        return det != 0

    def _coords(self, d: int) -> np.ndarray:
        got = self._plucker.get(d)
        if got is None:
            n, subs = self.algebra.dim, self.by_dim[d]
            bases = np.array([s.rows for s in subs], dtype=np.int64)
            got = plucker(bases.reshape(len(subs), d, n), self.algebra.p)
            self._plucker[d] = got
        return got

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


def _closed_and_ideal_masks(L: LieAlgebra, bases: np.ndarray, checks: np.ndarray):
    """Batch closure/ideal tests for all dim-k subspaces at once.  Only a
    subalgebra can be an ideal, so the ideal test runs on the closed ones."""
    p, n = L.p, L.dim
    m, k = bases.shape[:2]
    if k == 0:
        ones = np.ones(m, dtype=bool)
        return ones, ones
    # ad[a, s, j] = [b_s, e_j] for basis row b_s of bases[a]
    ad = _ad_rows(L, bases.reshape(m * k, n)).reshape(m, k, n, n)
    # [b_s, b_t] = sum_j b_t[j] [b_s, e_j] for s < t; the other pairs
    # follow by antisymmetry
    s, t = _pairs(k)
    brackets = bases[:, t, None, :] @ ad[:, s]
    outside = brackets.reshape(m, len(s), n) @ checks
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
    n, p = L.dim, L.p
    total = count_subspaces(n, p)
    if total > cap:
        raise CapExceededError(total, cap)
    zero = Subspace.zero(n, p)
    by_dim = {0: [zero]}
    ideals = [zero]
    # bases and parity checks of by_dim[k], row for row
    arrays = {0: (np.zeros((1, 0, n), dtype=np.int64), np.eye(n, dtype=np.int64)[None])}
    for k in range(1, n + 1):
        bases, piv = echelon_arrays(n, p, k)
        checks = _parity_checks(n, p, k)
        closed, ideal = _closed_and_ideal_masks(L, bases, checks)
        idx = np.flatnonzero(closed)
        if not len(idx):
            continue
        # lexsort's last key is its primary one, so this is lexicographic
        # order of the flattened rows: Subspace.sort_key order within dim k
        idx = idx[np.lexsort(bases[idx].reshape(len(idx), k * n).T[::-1])]
        subs = [
            Subspace(n, p, tuple(map(tuple, rows)), tuple(pivots))
            for rows, pivots in zip(bases[idx].tolist(), piv[idx].tolist())
        ]
        by_dim[k] = subs
        ideals += [s for s, i in zip(subs, ideal[idx]) if i]
        arrays[k] = bases[idx], checks[idx]
    subalgebras = [s for subs in by_dim.values() for s in subs]
    maximals = _maximal_subalgebras(by_dim, arrays, n, p)
    return LatticeCache(L, subalgebras, ideals, maximals, total, by_dim)


def _maximal_subalgebras(
    by_dim: Dict[int, List[Subspace]],
    arrays: Dict[int, Tuple[np.ndarray, np.ndarray]],
    n: int,
    p: int,
) -> List[Subspace]:
    """Top-down scan: every proper subalgebra lies in a maximal one, so going
    from the highest dimension down, s is maximal exactly when no maximal
    subalgebra kept so far contains it.  Each dimension is tested at once
    against the kept parity checks, zero-padded to the widest one, in blocks
    of at most _MAXIMAL_BLOCK residues."""
    found: Dict[int, List[Subspace]] = {}
    kept: List[np.ndarray] = []
    for d in sorted((d for d in by_dim if d < n), reverse=True):
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
        found[d] = [s for s, k in zip(by_dim[d], keep) if k]
        kept.append(checks[keep])
    return [s for d in sorted(found) for s in found[d]]


# -- Plücker coordinates ----------------------------------------------------
#
# For dim U + dim W = n, U + W = GF(p)^n exactly when det[U; W] != 0, and by
# the generalized Laplace expansion along the rows of U that determinant is
#   sum over k-subsets S of the columns of sign(S) * minor_S(U) * minor_S'(W),
# S' the complement of S and sign(S) = (-1)^(k(k-1)/2 + sum S) (0-based).
# The minors are the Plücker coordinates of U and W; reduced mod p they are
# below p, so each of the C(n, k) products is below p^2.

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
    """det[U; W] mod p for one dim-k subspace U of GF(p)^n (Plücker
    coordinates pu) against a batch of dim-(n-k) subspaces W (rows of pw)."""
    if comb(n, k) * (p - 1) ** 2 >= 2**63:
        # PrimeField and the subspace cap keep every caller far below this
        raise InternalError(
            f"GF({p})^{n}: Plücker pairings of dim {k} would overflow int64"
        )
    dual, signs = _pairing_dual(n, k)
    return (pw @ (pu[dual].astype(np.int64) * signs)) % p


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
    return _read_only(np.array(dual, dtype=np.intp), np.array(signs, dtype=np.int64))


# -- core -------------------------------------------------------------------


def core(L: LieAlgebra, b: Subspace) -> Subspace:
    """Largest ideal of L contained in b, by fixpoint refinement: repeatedly
    keep the x with [e_i, x] still inside for every basis vector e_i."""
    n, p = L.dim, L.p
    cur = b
    while cur.dim:
        rows = cur.rows
        r = len(rows)
        # condition matrix on coefficient vectors a: sum_j a_j * resid_ij = 0
        cond = []
        resid = [
            [cur.reduce(L.bracket(L.basis_vector(i), rows[j])) for j in range(r)]
            for i in range(n)
        ]
        for i in range(n):
            for coord in range(n):
                row = [resid[i][j][coord] for j in range(r)]
                if any(row):
                    cond.append(row)
        if not cond:
            return cur
        kernel = _nullspace(cond, r, p)
        nxt_rows = []
        for coeffs in kernel:
            v = [0] * n
            for a, brow in zip(coeffs, rows):
                if a:
                    v = [(x + a * y) % p for x, y in zip(v, brow)]
            nxt_rows.append(tuple(v))
        nxt = Subspace.span(nxt_rows, n, p)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt
    return cur


def _nullspace(mat: List[List[int]], ncols: int, p: int) -> List[Tuple[int, ...]]:
    from .subspace import rref

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


def frattini(
    L: LieAlgebra, lattice: Optional[LatticeCache] = None
) -> Tuple[Subspace, Subspace]:
    """(F, phi): F is the intersection of all maximal subalgebras, phi the
    largest ideal of L inside F.  An algebra with no proper subalgebra
    (dim 0) has F = L."""
    n, p = L.dim, L.p
    if n == 0:
        z = Subspace.zero(n, p)
        return z, z
    if lattice is None:
        lattice = build_lattice(L)
    f = Subspace.full(n, p)
    for m in lattice.maximals:
        f = f.intersect(m)
    return f, core(L, f)


def minimal_ideals(
    L: LieAlgebra, lattice: Optional[LatticeCache] = None
) -> List[Subspace]:
    if lattice is None:
        lattice = build_lattice(L)
    nonzero = [i for i in lattice.ideals if i.dim > 0]
    out = []
    for i in nonzero:
        if not any(j.dim < i.dim and i.contains(j) for j in nonzero):
            out.append(i)
    return out


def abelian_socle(
    L: LieAlgebra, lattice: Optional[LatticeCache] = None
) -> Subspace:
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


def radical(L: LieAlgebra, lattice: Optional[LatticeCache] = None) -> Subspace:
    """Sum of all solvable ideals, taken over the enumerated ideal list."""
    if lattice is None:
        lattice = build_lattice(L)
    out = Subspace.zero(L.dim, L.p)
    for i in lattice.ideals:
        if _space_solvable(L, i):
            out = out.sum(i)
    if not _space_solvable(L, out):
        raise InternalError("radical is not solvable")
    return out


def is_semisimple(L: LieAlgebra, lattice: Optional[LatticeCache] = None) -> bool:
    return L.dim > 0 and radical(L, lattice).dim == 0


def is_simple(L: LieAlgebra, lattice: Optional[LatticeCache] = None) -> bool:
    if L.dim <= 1:
        return False
    if lattice is None:
        lattice = build_lattice(L)
    return len(lattice.ideals) == 2


# -- supersolvability --------------------------------------------------------


def _line_reps(n: int, p: int):
    """One canonical spanning vector per line (leading coefficient 1)."""
    from itertools import product as iproduct

    for lead in range(n):
        for tail in iproduct(range(p), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def is_supersolvable(L: LieAlgebra, _memo: Optional[dict] = None) -> bool:
    """Chain-of-ideals criterion, computed recursively: true iff some
    1-dimensional ideal has a supersolvable quotient."""
    if _memo is None:
        _memo = {}
    got = _memo.get(L.key)
    if got is not None:
        return got
    if L.dim == 0:
        return True
    n, p = L.dim, L.p
    result = False
    for v in _line_reps(n, p):
        line = Subspace.span([v], n, p)
        if all(
            line.member(L.bracket(L.basis_vector(i), v)) for i in range(n)
        ):
            q, _ = L.quotient(line)
            if is_supersolvable(q, _memo):
                result = True
                break
    _memo[L.key] = result
    return result
