"""Whole-lattice computations for a Lie algebra over GF(p).

build_lattice enumerates every subspace of GF(p)^n (echelon generation,
batched closure tests with numpy) and records which are subalgebras, which
are ideals, and which subalgebras are maximal.  Everything downstream
(core, Frattini ideal, minimal ideals, socle, radical, supersolvability)
works from exact linear algebra on those lists.

All lists are sorted by (dim, lexicographic RREF rows) so reports are
byte-stable across runs and worker counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .liealg import LieAlgebra
from .subspace import (
    CapExceededError,
    DEFAULT_SUBSPACE_CAP,
    Subspace,
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

    def __post_init__(self):
        if not self.by_dim:
            for s in self.subalgebras:
                self.by_dim.setdefault(s.dim, []).append(s)

    def stats(self) -> Dict[str, int]:
        return {
            "subspaces": self.subspace_count,
            "subalgebras": len(self.subalgebras),
            "ideals": len(self.ideals),
            "maximal_subalgebras": len(self.maximals),
        }


def _closed_and_ideal_masks(L: LieAlgebra, bases: np.ndarray, piv: np.ndarray):
    """Batch closure/ideal tests for all dim-k subspaces at once."""
    p = L.p
    c = L.table
    m, k, n = bases.shape
    if k == 0:
        ones = np.ones(m, dtype=bool)
        return ones, ones

    def residuals(prod):
        # prod[..., n] minus its reconstruction from RREF coordinates
        coeff = np.take_along_axis(
            prod, np.broadcast_to(piv[:, None, None, :], prod.shape[:3] + (k,)), axis=3
        )
        recon = np.einsum("astr,arn->astn", coeff, bases) % p
        return (prod - recon) % p

    half = np.einsum("asi,ijm->asjm", bases, c) % p
    prod = np.einsum("asjm,atj->astm", half, bases) % p
    closed = ~residuals(prod).any(axis=(1, 2, 3))

    whole = np.einsum("atj,ijm->aitm", bases, c) % p  # [e_i, basis row t]
    ideal = ~residuals(whole).any(axis=(1, 2, 3))
    return closed, ideal & closed


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
