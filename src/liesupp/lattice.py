"""Whole-lattice computations for a Lie algebra over GF(p).

build_lattice enumerates every subspace of GF(p)^n (echelon generation,
batched closure tests with numpy) and records which are subalgebras, which
are ideals, and which subalgebras are maximal.  Everything downstream
(core, Frattini ideal, minimal ideals, socle, radical, supersolvability)
works from exact linear algebra on those lists; complements of a
subalgebra are found by pairing Plücker coordinates (see complements).

All lists are sorted by (dim, lexicographic RREF rows) so reports are
byte-stable across runs and worker counts.
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

from .gfp import ModulusTooLargeError
from .liealg import LieAlgebra
from .subspace import (
    CapExceededError,
    DEFAULT_SUBSPACE_CAP,
    Subspace,
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
    by_dim: Dict[int, List[Subspace]] = field(default_factory=dict)
    # Plücker coordinates of by_dim[d], built on first use by complements
    _plucker: Dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.by_dim:
            for s in self.subalgebras:
                self.by_dim.setdefault(s.dim, []).append(s)

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


def _closed_and_ideal_masks(L: LieAlgebra, bases: np.ndarray, piv: np.ndarray):
    """Batch closure/ideal tests for all dim-k subspaces at once.  Only a
    subalgebra can be an ideal, so the ideal test runs on the closed ones."""
    p = L.p
    c = L.table
    m, k, n = bases.shape
    if k == 0:
        ones = np.ones(m, dtype=bool)
        return ones, ones

    def outside(prod, bases, piv):
        # does prod[a, ..., :] leave the span of bases[a]?  Compare it with
        # its reconstruction from its coordinates at the RREF pivots.
        coeff = np.take_along_axis(
            prod, np.broadcast_to(piv[:, None, None, :], prod.shape[:3] + (k,)), axis=3
        )
        recon = np.einsum("astr,arn->astn", coeff, bases) % p
        return ((prod - recon) % p).any(axis=(1, 2, 3))

    half = np.einsum("asi,ijm->asjm", bases, c) % p
    prod = np.einsum("asjm,atj->astm", half, bases) % p
    closed = ~outside(prod, bases, piv)

    sub = np.flatnonzero(closed)
    whole = np.einsum("atj,ijm->aitm", bases[sub], c) % p  # [e_i, basis row t]
    ideal = np.zeros(m, dtype=bool)
    ideal[sub] = ~outside(whole, bases[sub], piv[sub])
    return closed, ideal


def build_lattice(L: LieAlgebra, cap: int = DEFAULT_SUBSPACE_CAP) -> LatticeCache:
    n, p = L.dim, L.p
    total = count_subspaces(n, p)
    if total > cap:
        raise CapExceededError(total, cap)
    subalgebras: List[Subspace] = []
    ideals: List[Subspace] = []
    for k in range(n + 1):
        if k == 0:
            z = Subspace.zero(n, p)
            subalgebras.append(z)
            ideals.append(z)
            continue
        bases, piv = echelon_arrays(n, p, k)
        closed, ideal = _closed_and_ideal_masks(L, bases, piv)
        for idx in np.flatnonzero(closed):
            rows = tuple(tuple(int(x) for x in r) for r in bases[idx])
            s = Subspace(n, p, rows, tuple(int(x) for x in piv[idx]))
            subalgebras.append(s)
            if ideal[idx]:
                ideals.append(s)
    subalgebras.sort(key=Subspace.sort_key)
    ideals.sort(key=Subspace.sort_key)
    maximals = _maximal_subalgebras(subalgebras, n)
    return LatticeCache(L, subalgebras, ideals, maximals, total)


def _maximal_subalgebras(subalgebras: List[Subspace], n: int) -> List[Subspace]:
    """Top-down scan: every proper subalgebra lies in a maximal one, so going
    from the highest dimension down, s is maximal exactly when no maximal
    subalgebra kept so far contains it."""
    proper = [s for s in subalgebras if s.dim < n]
    maximals: List[Subspace] = []
    for s in sorted(proper, key=lambda s: -s.dim):
        if not any(m.contains(s) for m in maximals):
            maximals.append(s)
    maximals.sort(key=Subspace.sort_key)
    return maximals


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
        raise ModulusTooLargeError(
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
    assert _space_solvable(L, out), "radical is not solvable"
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
