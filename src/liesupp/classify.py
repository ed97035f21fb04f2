"""Structural predicates: c-supplementation, complete factorisability,
phi-free / elementary / E-algebra, and the semisimple-shape and main
decomposition checks.

Supplement searches iterate candidates in (dim, lexicographic RREF) order
and return the first witness, so reports are reproducible across runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .liealg import LieAlgebra
from .lattice import (
    LatticeCache,
    build_lattice,
    frattini,
    is_simple,
    is_supersolvable,
    minimal_ideals,
    radical,
)
from .subspace import DEFAULT_SUBSPACE_CAP, Subspace, _LRU

# lattices kept by an Analyzer, each with the verdicts of its algebra
LATTICE_SLOTS = 256


def c_supplement(L: LieAlgebra, lattice: LatticeCache, b: Subspace) -> Optional[Subspace]:
    """A supplement C of b (b + C = L, b meet C inside the core K of b), or
    None: the witness of one subalgebra (check --subspace).  It is b's first
    complement where b has one, else LatticeCache.core_supplement, from the
    core test that decides every subalgebra for is_c_supplemented_algebra
    and pfrat (LatticeCache.unsupplemented): the first C in lattice order
    of dimension codim(b) + dim K that contains K and spans L with b."""
    c_ = complement_subalgebra(L, lattice, b)
    if c_ is not None:
        return c_
    return lattice.core_supplement(b.dim, lattice.row(b))


def complement_subalgebra(
    L: LieAlgebra, lattice: LatticeCache, b: Subspace
) -> Optional[Subspace]:
    """A subalgebra C with b + C everything and b meet C = 0, or None.
    Such a C necessarily has dimension exactly codim(b); the first one in
    lattice order is returned.  b must be a subalgebra of the lattice
    (ValueError otherwise)."""
    first = lattice.first_complements(b.dim, [lattice.row(b)])[0]
    return lattice.member(L.dim - b.dim, first) if first >= 0 else None


def is_c_supplemented_algebra(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """Conjunction over every subalgebra; on failure reports the canonically
    first subalgebra without a supplement.  The dimensions are decided one
    at a time, in increasing order, each by LatticeCache.unsupplemented
    (array tests by core, without c_supplement or core), and the first
    one with a failing row ends the search."""
    for k in range(L.dim + 1):
        rows = lattice.unsupplemented(k)
        if len(rows):
            return False, lattice.member(k, rows[0])
    return True, None


def is_completely_factorisable(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """Every subalgebra has a complement; on failure reports the canonically
    first one without.  The lines decide it: if every line has a complement
    then every subalgebra has one (by induction on the dimension: a line l'
    inside a complement M of a line l has a complement in M, its
    intersection with a complement of l' in L), the zero subspace always has
    the complement L, and lines come first in lattice order."""
    missing = np.flatnonzero(lattice.first_complements(1) < 0)
    if not len(missing):
        return True, None
    return False, lattice.member(1, missing[0])


def is_elementary(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """phi(B) = 0 for every subalgebra B (phi computed inside B's own
    algebra): LatticeCache.subalgebra_phis, which holds the nonzero ones
    alone, is empty.  Returns the subalgebra of its first key otherwise."""
    for k, row in lattice.subalgebra_phis():
        return False, lattice.member(k, row)
    return True, None


def is_E_algebra(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """phi(B) <= phi(L) for every subalgebra B, phi(B) taken in the ambient
    coordinates.  A zero phi(B) always is, so only the entries of
    LatticeCache.subalgebra_phis are read; with phi(L) = 0 (no entry
    (n, 0)) each fails.  Returns the first offending subalgebra otherwise."""
    phis = lattice.subalgebra_phis()
    phi_l = phis.get((L.dim, 0))  # L is the one subalgebra of dimension n
    for (k, row), phi_b in phis.items():
        if phi_l is None or not phi_l.contains(phi_b):
            return False, lattice.member(k, row)
    return True, None


# -- structure-theorem shapes -----------------------------------------------


def check_semisimple_shape(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Dict]:
    """True iff p != 2, the radical is zero, and L is the direct sum of its
    minimal ideals, each 3-dimensional and isomorphic to sl2.

    A 3-dimensional summand m is tested as perfect, [m, m] = m: a perfect
    3-dimensional Lie algebra is simple (a proper ideal would leave it
    solvable), in characteristic != 2 every 3-dimensional simple Lie algebra
    is a form of sl2 (Jacobson, Lie Algebras, 1962, ch. I), and over a
    finite field every such form is split.  The tests check this against
    a brute-force isomorphism search over GF(3), GF(5) and GF(7)."""
    n, p = L.dim, L.p
    if n == 0:
        return False, {"reason": "zero algebra"}
    if p == 2:
        return False, {"reason": "characteristic two"}
    if radical(L, lattice).dim != 0:
        return False, {"reason": "nonzero radical"}
    mins = minimal_ideals(L, lattice)
    if sum(m.dim for m in mins) != n:
        return False, {"reason": "minimal ideals do not sum directly to L"}
    # with dimensions adding up to n, no overlap means the sum is L
    s = Subspace.zero(n, p)
    for m in mins:
        if s.intersect(m).dim:
            return False, {"reason": "minimal ideals overlap"}
        s = s.sum(m)
    for m in mins:
        if m.dim != 3:
            return False, {"reason": f"summand of dimension {m.dim}"}
        if L.product_space(m, m).dim != 3:
            return False, {"reason": "summand not isomorphic to sl2"}
    return True, {"summands": mins}


def check_main_decomposition(L: LieAlgebra, az: "Analyzer") -> Tuple[bool, Dict]:
    """The full structural criterion: every bracket-closed subspace of phi(L)
    is an ideal of L, and L/phi(L) splits as R + S with R the (supersolvable,
    phi-free) radical and S zero or an sl2 direct sum.  Every lattice, and
    so the cap, comes from `az`."""
    phi = az.frattini(L)
    out: Dict = {"phi": phi}
    witness = az.lattice(L).first_non_ideal_inside(phi)
    if witness is not None:
        out["reason"] = "phi_subalgebra_not_ideal"
        out["witness"] = witness
        return False, out
    q = L.quotient(phi)
    out["quotient_dim"] = q.dim
    lat_q = az.lattice(q)
    r = az.radical(q)
    out["R"] = r
    if r.dim:
        r_alg = q.as_algebra(r)
        if not az.supersolvable(r_alg):
            out["reason"] = "radical_not_supersolvable"
            return False, out
        if az.frattini(r_alg).dim:
            out["reason"] = "radical_not_phi_free"
            return False, out
    # R meet S = 0 and R + S = q iff dim S = dim q - dim R and R meet S = 0
    for s in lat_q.ideals(q.dim - r.dim):
        if r.intersect(s).dim or q.product_space(r, s).dim:
            continue
        if s.dim == 0:
            out["S"] = s
            return True, out
        s_alg = q.as_algebra(s)
        ok, _info = az.semisimple_shape(s_alg)
        if ok:
            out["S"] = s
            return True, out
    out["reason"] = "no_semisimple_complement"
    return False, out


# -- reports ----------------------------------------------------------------

# name -> verdict of L through an Analyzer: a bool, or a pair (ok, detail)
# whose detail is a dict of witnesses or the first failing subalgebra (None
# when there is none).  Each entry looks its Analyzer method up when called.
PREDICATES: Dict[str, Callable[["Analyzer", LieAlgebra], object]] = {
    "solvable": lambda az, L: L.is_solvable(),
    "nilpotent": lambda az, L: L.is_nilpotent(),
    "supersolvable": lambda az, L: az.supersolvable(L),
    "simple": lambda az, L: az.simple(L),
    "semisimple": lambda az, L: L.dim > 0 and az.radical(L).dim == 0,
    "phi_free": lambda az, L: az.frattini(L).dim == 0,
    "c_supplemented": lambda az, L: az.c_supplemented(L),
    "completely_factorisable": lambda az, L: az.completely_factorisable(L),
    "elementary": lambda az, L: az.elementary(L),
    "E_algebra": lambda az, L: az.e_algebra(L),
    "semisimple_shape": lambda az, L: az.semisimple_shape(L),
    "main_decomposition": lambda az, L: az.main_decomposition(L),
}
ALL_PREDICATES = tuple(PREDICATES)


@dataclass
class ClassificationReport:
    p: int
    dim: int
    predicates: Dict[str, bool] = field(default_factory=dict)
    witnesses: Dict[str, object] = field(default_factory=dict)
    lattice_stats: Dict[str, int] = field(default_factory=dict)
    degenerate: bool = False
    elapsed_s: float = 0.0


def classify_algebra(
    L: LieAlgebra,
    predicates: Optional[Tuple[str, ...]] = None,
    analyzer: Optional["Analyzer"] = None,
) -> ClassificationReport:
    """Evaluate the wanted predicates of L (all of PREDICATES by default)
    through one Analyzer, so the lattice and Frattini ideal of each distinct
    quotient and summand table are computed once; the Frattini ideals of L's
    subalgebras come from L's own lattice (LatticeCache.subalgebra_phis).
    Without an analyzer a fresh Analyzer() with the default cap is used; a
    given one brings its own cap and may be shared across calls."""
    wanted = tuple(predicates) if predicates else ALL_PREDICATES
    unknown = set(wanted) - set(PREDICATES)
    if unknown:
        raise ValueError(f"unknown predicates: {sorted(unknown)}")
    start = time.monotonic()
    az = analyzer if analyzer is not None else Analyzer()
    rep = ClassificationReport(p=L.p, dim=L.dim, degenerate=L.dim <= 1)
    rep.lattice_stats = az.lattice(L).stats()
    rep.witnesses["phi"] = az.frattini(L)
    for name in wanted:
        verdict = PREDICATES[name](az, L)
        if isinstance(verdict, tuple):
            verdict, detail = verdict
            if isinstance(detail, dict):
                rep.witnesses[name] = detail
            elif detail is not None:
                rep.witnesses[f"{name}_failing"] = detail
        rep.predicates[name] = verdict
    rep.elapsed_s = time.monotonic() - start
    return rep


class Analyzer:
    """Memoized predicate evaluation keyed by structure-constant tables.

    Census campaigns hit the same subalgebra/quotient tables over and over;
    caching verdicts per table collapses that cost.  One store, a
    subspace._LRU of at most LATTICE_SLOTS lattices, bounds it: each
    algebra's verdicts live on its lattice (LatticeCache.verdicts) and are
    dropped with it.  Every verdict is computed from the lattice of its own
    algebra, under the Analyzer's cap."""

    def __init__(self, cap: int = DEFAULT_SUBSPACE_CAP):
        self.cap = cap
        self._lattices = _LRU(LATTICE_SLOTS)

    def lattice(self, L: LieAlgebra) -> LatticeCache:
        got = self._lattices.get(L.key)
        if got is None:
            got = self._lattices[L.key] = build_lattice(L, self.cap)
        return got

    def _cached(self, name, L, fn):
        """The verdict `name` of L, fn(L's lattice) the first time."""
        verdicts = (lattice := self.lattice(L)).verdicts
        if name not in verdicts:
            verdicts[name] = fn(lattice)
        return verdicts[name]

    def frattini(self, L):
        """phi(L)."""
        return self._cached("frattini", L, lambda lat: frattini(L, lat))

    def c_supplemented(self, L):
        return self._cached("csupp", L, lambda lat: is_c_supplemented_algebra(L, lat))

    def completely_factorisable(self, L):
        return self._cached("cf", L, lambda lat: is_completely_factorisable(L, lat))

    def supersolvable(self, L):
        return self._cached("ss", L, lambda lat: is_supersolvable(L, lat))

    def elementary(self, L):
        return self._cached("elem", L, lambda lat: is_elementary(L, lat))

    def e_algebra(self, L):
        return self._cached("ealg", L, lambda lat: is_E_algebra(L, lat))

    def radical(self, L):
        return self._cached("radical", L, lambda lat: radical(L, lat))

    def simple(self, L):
        return self._cached("simple", L, lambda lat: is_simple(L, lat))

    def semisimple_shape(self, L):
        return self._cached("ss_shape", L, lambda lat: check_semisimple_shape(L, lat))

    def main_decomposition(self, L):
        return self._cached("main", L, lambda lat: check_main_decomposition(L, self))
