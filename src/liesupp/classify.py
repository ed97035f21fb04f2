"""Structural predicates: c-supplementation, complete factorisability,
phi-free / elementary / E-algebra, and the semisimple-shape and main
decomposition checks.

Supplement searches iterate candidates in (dim, lexicographic RREF) order
and return the first witness, so reports are reproducible across runs.
"""
from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from .liealg import LieAlgebra
from .lattice import (
    LatticeCache,
    build_lattice,
    core,
    frattini,
    is_simple,
    is_supersolvable,
    minimal_ideals,
    radical,
)
from .subspace import DEFAULT_SUBSPACE_CAP, Subspace

# entries in each of an Analyzer's two verdict memos: with one check per
# isomorphism class the benchmark campaigns peak at 41 (csupp_dsum over
# GF(2) dims <= 3), and a random universe, checked table by table, at 1,324
# for 1,441 GF(3) tables of dims <= 3 (tsupp), so none of them evicts
MEMO_SLOTS = 8192
# lattices kept by an Analyzer
LATTICE_SLOTS = 256


@dataclass
class SupplementWitness:
    """A pair (B, C) certifying that B is c-supplemented: B + C is the whole
    algebra and B intersect C lies in the core of B.  The core is computed
    on first access, since a C meeting B trivially needs no core to certify
    it."""

    algebra: LieAlgebra
    subalgebra: Subspace
    supplement: Subspace
    meets_in: Subspace

    @cached_property
    def core_of_subalgebra(self) -> Subspace:
        return core(self.algebra, self.subalgebra)


def c_supplement(
    L: LieAlgebra, lattice: LatticeCache, b: Subspace
) -> Optional[SupplementWitness]:
    """First supplement of b in canonical search order, or None.

    Candidates of dimension exactly codim(b) meet b trivially whenever the
    sum is everything; the first of them is looked up in
    lattice.first_complements.  Only when none fits is the core computed and
    larger candidates scanned: a C with b + C = L meets b in
    dim C - codim(b) dimensions, so no C of dimension above
    codim(b) + dim core(b) can meet b inside the core.
    """
    n = L.dim
    d0 = n - b.dim
    c_ = complement_subalgebra(L, lattice, b)
    if c_ is not None:
        return SupplementWitness(L, b, c_, Subspace.zero(n, L.p))
    core_b = core(L, b)
    for d in range(d0 + 1, d0 + core_b.dim + 1):
        for c_ in lattice.by_dim.get(d, []):
            if b.sum(c_).dim != n:
                continue
            meet = b.intersect(c_)
            if core_b.contains(meet):
                witness = SupplementWitness(L, b, c_, meet)
                witness.core_of_subalgebra = core_b
                return witness
    return None


def complement_subalgebra(
    L: LieAlgebra, lattice: LatticeCache, b: Subspace
) -> Optional[Subspace]:
    """A subalgebra C with b + C everything and b meet C = 0, or None.
    Such a C necessarily has dimension exactly codim(b); the first one in
    lattice order is returned.  b must be a subalgebra of the lattice
    (ValueError otherwise)."""
    first = lattice.first_complements(b.dim)[lattice.row(b)]
    return lattice.by_dim[L.dim - b.dim][first] if first >= 0 else None


def _uncomplemented(lattice: LatticeCache) -> Iterator[Subspace]:
    """The subalgebras without a complement, in lattice order.  The
    Subspace list of a dimension is made only when one of its rows has
    none."""
    for k in range(lattice.algebra.dim + 1):
        for row in np.flatnonzero(lattice.first_complements(k) < 0):
            yield lattice.by_dim[k][row]


def is_c_supplemented_algebra(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """Conjunction over every subalgebra; on failure reports the canonically
    first subalgebra without a supplement.  A complement is a supplement,
    so only the subalgebras without one are searched further."""
    for b in _uncomplemented(lattice):
        if c_supplement(L, lattice, b) is None:
            return False, b
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
    return False, lattice.by_dim[1][missing[0]]


def is_elementary(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """phi(B) = 0 for every subalgebra B (phi computed inside B's own
    algebra, see LatticeCache.subalgebra_phis).  Returns the first
    offending subalgebra otherwise."""
    phis = lattice.subalgebra_phis()
    for k, subs in lattice.by_dim.items():
        for b, phi_b in zip(subs, phis[k]):
            if phi_b.dim:
                return False, b
    return True, None


def is_E_algebra(
    L: LieAlgebra, lattice: LatticeCache
) -> Tuple[bool, Optional[Subspace]]:
    """phi(B) <= phi(L) for every subalgebra B, phi(B) taken in the ambient
    coordinates.  Returns the first offending subalgebra otherwise."""
    phis = lattice.subalgebra_phis()
    phi_l = phis[L.dim][0]  # L is the one subalgebra of dimension n
    for k, subs in lattice.by_dim.items():
        for b, phi_b in zip(subs, phis[k]):
            if phi_b.dim and not phi_l.contains(phi_b):
                return False, b
    return True, None


def first_non_ideal_inside(lattice: LatticeCache, space: Subspace) -> Optional[Subspace]:
    """The first subalgebra of the lattice, in lattice order, that lies in
    `space` and is not an ideal, or None.  For space = phi(L) this is the
    first subalgebra of phi(L)'s own algebra whose image is not an ideal:
    the RREF rows of a subspace of phi read at phi's pivot columns are its
    RREF in phi's coordinates, and that map keeps lexicographic order."""
    ideals = {i for i in lattice.ideals if i.dim <= space.dim}
    return next((s for s in lattice.inside(space) if s not in ideals), None)


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
    s = Subspace.zero(n, p)
    for m in mins:
        if s.intersect(m).dim:
            return False, {"reason": "minimal ideals overlap"}
        s = s.sum(m)
    if s.dim != n:
        return False, {"reason": "minimal ideals do not span"}
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
    lattice = az.lattice(L)
    phi = az.frattini(L)[1]
    out: Dict = {"phi": phi}
    witness = first_non_ideal_inside(lattice, phi)
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
        if az.frattini(r_alg)[1].dim:
            out["reason"] = "radical_not_phi_free"
            return False, out
    for s in lat_q.ideals:
        if r.intersect(s).dim or r.sum(s).dim != q.dim:
            continue
        if q.product_space(r, s).dim:
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
    "phi_free": lambda az, L: az.frattini(L)[1].dim == 0,
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
    rep.witnesses["phi"] = az.frattini(L)[1]
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


class _LRU(OrderedDict):
    """A dict of at most `slots` entries: get and assignment make a key the
    newest, and an assignment past the bound drops the oldest."""

    def __init__(self, slots: int):
        super().__init__()
        self.slots = slots

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > self.slots:
            self.popitem(last=False)


_MISSING = object()


class Analyzer:
    """Memoized predicate evaluation keyed by structure-constant tables.

    Census campaigns hit the same subalgebra/quotient tables over and over;
    caching verdicts per table collapses that cost.  Lattices, verdicts and
    supersolvability answers are each kept in a bounded LRU (LATTICE_SLOTS
    lattices, MEMO_SLOTS entries), so a long campaign cannot grow without
    limit.
    """

    def __init__(self, cap: int = DEFAULT_SUBSPACE_CAP):
        self.cap = cap
        self._lattices = _LRU(LATTICE_SLOTS)
        self._memo = _LRU(MEMO_SLOTS)
        self._ss_memo = _LRU(MEMO_SLOTS)

    def lattice(self, L: LieAlgebra) -> LatticeCache:
        got = self._lattices.get(L.key)
        if got is None:
            got = self._lattices[L.key] = build_lattice(L, self.cap)
        return got

    def _cached(self, name, L, fn):
        key = (name, L.key)
        got = self._memo.get(key, _MISSING)
        if got is _MISSING:
            got = self._memo[key] = fn()
        return got

    def frattini(self, L):
        """(F, phi) of L."""
        return self._cached("frattini", L, lambda: frattini(L, self.lattice(L)))

    def c_supplemented(self, L):
        return self._cached(
            "csupp", L, lambda: is_c_supplemented_algebra(L, self.lattice(L))
        )

    def completely_factorisable(self, L):
        return self._cached(
            "cf", L, lambda: is_completely_factorisable(L, self.lattice(L))
        )

    def supersolvable(self, L):
        return is_supersolvable(L, self._ss_memo)

    def elementary(self, L):
        return self._cached("elem", L, lambda: is_elementary(L, self.lattice(L)))

    def e_algebra(self, L):
        return self._cached("ealg", L, lambda: is_E_algebra(L, self.lattice(L)))

    def radical(self, L):
        return self._cached("radical", L, lambda: radical(L, self.lattice(L)))

    def simple(self, L):
        return self._cached("simple", L, lambda: is_simple(L, self.lattice(L)))

    def semisimple_shape(self, L):
        return self._cached(
            "ss_shape", L, lambda: check_semisimple_shape(L, self.lattice(L))
        )

    def main_decomposition(self, L):
        return self._cached("main", L, lambda: check_main_decomposition(L, self))
