"""Brute-force routines kept only as independent oracles for the tests.

The library computes the same things by faster or structural routes; each
function here is the direct definition, with no shortcut.  random_conjugate
changes basis in exact Python-int arithmetic, so that isomorphism invariants
can be checked without trusting the code under test.
"""
from functools import lru_cache, reduce
from itertools import combinations, groupby, product
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from liesupp.census import CHECKERS, generate
from liesupp.classify import Analyzer
from liesupp.formats import algebra_to_doc
from liesupp.gfp import PrimeField
from liesupp.lattice import (
    _closed_and_ideal_masks,
    minimal_ideals,
    plucker,
    plucker_pairing,
)
from liesupp.liealg import InvalidAlgebraError, LieAlgebra, sl2
from liesupp.subspace import (
    Subspace,
    _free_positions,
    _parity_checks,
    echelon_arrays,
    rref,
)

# (prime, left summand, right summand or None): the dim-5/6 algebras of the
# benchmark's classify workload, inputs of several oracle tests
DIM56_SUMS = (
    (3, "counterexample_double", None),
    (2, "counterexample_double", None),
    (3, "sl2", "sl2"),
    (3, "sl2", "counterexample_L1"),
    (5, "sl2", "nonabelian2"),
    (3, "heisenberg", "nonabelian2"),
    (2, "heisenberg", "heisenberg"),
    (2, "L1_gamma", "L1_gamma"),
)
# upper bound on the int64 values of one residual block of
# maximal_masks_one_top
ONE_TOP_BLOCK = 2**18
# the brute-force isomorphism routines scan all p^(n*n) basis changes
ISO_DIM_LIMIT = 3
_ISO_CHUNK = 200_000


def enumerate_subspaces(n, p, dim_filter=None):
    """Every subspace of GF(p)^n exactly once (those of dimension dim_filter
    only, when given), grouped by dimension then by pivot pattern, one
    echelon matrix at a time."""
    dims = range(n + 1) if dim_filter is None else [dim_filter]
    for k in dims:
        if k == 0:
            yield Subspace.zero(n, p)
            continue
        for pivots in combinations(range(n), k):
            free = _free_positions(pivots, n)
            for filling in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), val in zip(free, filling):
                    rows[i][j] = val
                yield Subspace(n, p, tuple(tuple(r) for r in rows), pivots)


def maximal_subalgebras_all_pairs(subalgebras, n):
    """Proper subalgebras contained in no strictly larger proper subalgebra,
    found by comparing all pairs, in the order of the input list."""
    proper = [s for s in subalgebras if s.dim < n]
    return [
        s
        for s in proper
        if not any(t.dim > s.dim and t.contains(s) for t in proper)
    ]


def maximal_masks_one_top(
    arrays: Dict[int, Tuple[np.ndarray, np.ndarray]], top: int, n: int, p: int
) -> Dict[int, np.ndarray]:
    """Top-down scan over the subalgebras of a subalgebra B of dim `top`
    (arrays[d] holds the bases and parity checks of those of dim d): every
    proper subalgebra of B lies in a maximal one, so going from the highest
    dimension below `top` down, s is maximal in B exactly when no maximal
    subalgebra kept so far contains it.  Each dimension is tested at once
    against the kept parity checks, zero-padded to the widest one, in blocks
    of at most ONE_TOP_BLOCK residues.  Returns the mask of the maximal
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
            step = max(1, ONE_TOP_BLOCK // max(1, d * count * width))
            for lo in range(0, len(bases), step):
                block = bases[lo : lo + step]
                resid = block.reshape(len(block) * d, n) @ flat
                resid %= p
                inside = ~resid.reshape(len(block), d, count, width).any(axis=(1, 3))
                keep[lo : lo + step] = ~inside.any(axis=1)
        masks[d] = keep
        kept.append(checks[keep])
    return masks


class EagerLattice:
    """The lattice of L with every dimension, the ideals and the maximal
    subalgebras computed at once: the closure, ideal and maximal masks of
    the batched kernels over every dimension in one loop, each list sorted
    by Subspace.sort_key in Python.  Its first complements come from one
    unblocked Plücker product per dimension and its subalgebra_phis from
    the subalgebras' own lattices (subalgebra_phis_by_sublattices)."""

    def __init__(self, L):
        n, p = L.dim, L.p
        self.algebra = L
        self.by_dim, self.ideals, arrays = {}, [], {}
        for k in range(n + 1):
            bases, piv = echelon_arrays(n, p, k)
            checks = _parity_checks(n, p, k)
            closed, ideal = _closed_and_ideal_masks(L, bases, checks)
            if not closed.any():
                continue
            found = sorted(
                (
                    (Subspace(n, p, tuple(map(tuple, rows)), tuple(q)), a)
                    for a, (rows, q) in enumerate(zip(bases.tolist(), piv.tolist()))
                    if closed[a]
                ),
                key=lambda sa: sa[0].sort_key(),
            )
            self.by_dim[k] = [s for s, _ in found]
            self.ideals += [s for s, a in found if ideal[a]]
            rows = [a for _, a in found]
            arrays[k] = bases[rows], checks[rows]
        self.subalgebras = [s for subs in self.by_dim.values() for s in subs]
        masks = maximal_masks_one_top(arrays, n, n, p)
        self.maximals = [
            s for k in sorted(masks) for s, m in zip(self.by_dim[k], masks[k]) if m
        ]
        self._bases = {k: a[0] for k, a in arrays.items()}
        self.subspace_count = sum(len(echelon_arrays(n, p, k)[0]) for k in range(n + 1))

    def stats(self):
        return {
            "subspaces": self.subspace_count,
            "subalgebras": len(self.subalgebras),
            "ideals": len(self.ideals),
            "maximal_subalgebras": len(self.maximals),
        }

    def first_complements(self, k):
        """For each subalgebra of dim k, the index of the first dim-(n-k)
        one with a nonzero Plücker pairing, or -1."""
        n, p = self.algebra.dim, self.algebra.p
        us, ws = (self._bases.get(d, np.zeros((0, d, n), dtype=np.int64)) for d in (k, n - k))
        if not len(us) or not len(ws):
            return np.full(len(us), -1)
        hit = plucker_pairing(plucker(us, p), plucker(ws, p), n, k, p) != 0
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

    def subalgebra_phis(self, analyzer):
        return subalgebra_phis_by_sublattices(self.algebra, self, analyzer)


def core_by_enumeration(L, b, lattice):
    """Independent route to the core: sum of all enumerated ideals inside b."""
    out = Subspace.zero(L.dim, L.p)
    for ideal in lattice.ideals:
        if b.contains(ideal):
            out = out.sum(ideal)
    return out


def lift_space(space, u):
    """The subspace of the ambient space whose coordinates in space's RREF
    basis span u."""
    n, p = space.n, space.p
    rows = [
        [sum(a * row[j] for a, row in zip(coords, space.rows)) % p for j in range(n)]
        for coords in u.rows
    ]
    return Subspace.span(rows, n, p)


def subalgebra_phis_by_sublattices(L, lattice, analyzer):
    """{k: [phi(B) for B in lattice.by_dim[k]]}: each B made an algebra of
    its own (as_algebra), its Frattini ideal taken from its own lattice
    through `analyzer` and lifted back to the ambient coordinates."""
    out = {}
    for k, subs in lattice.by_dim.items():
        out[k] = []
        for b in subs:
            sub = L.as_algebra(b)
            out[k].append(lift_space(b, analyzer.frattini(sub)))
    return out


def nonzero_phis(phis):
    """The items of LatticeCache.subalgebra_phis() that a list-format map
    {k: [phi(B) for each row]} (subalgebra_phis_by_sublattices) stands for:
    its nonzero entries keyed by (k, row), in lattice order.  Compared as a
    list with subalgebra_phis().items(), so that the key order counts."""
    return [((k, row), phi) for k in sorted(phis) for row, phi in enumerate(phis[k]) if phi.dim]


def phi_subalgebra_not_ideal_by_sublattice(L, phi):
    """The first subalgebra of phi's own algebra, in its lattice order
    (EagerLattice) and lifted to L, that is not an ideal of L (tested
    bracket by bracket), or None."""
    phi_alg = L.as_algebra(phi)
    for s in EagerLattice(phi_alg).subalgebras:
        lifted = lift_space(phi, s)
        if not L.is_ideal(lifted):
            return lifted
    return None


def check_pfrat_by_sublattices(L, az):
    """census pfrat checker with phi(D) from D's own lattice, over the
    subalgebras of EagerLattice."""
    lat = EagerLattice(L)
    phi_l = az.frattini(L)
    phis = subalgebra_phis_by_sublattices(L, lat, az)
    for k, subs in lat.by_dim.items():
        for d, lifted in zip(subs, phis[k]):
            for b in lat.subalgebras:
                if b.dim == 0 or not lifted.contains(b):
                    continue
                if c_supplement_by_sums(L, lat, b) is None:
                    continue
                if not (L.is_ideal(b) and phi_l.contains(b)):
                    return {
                        "kind": "frattini_subalgebra_not_promoted",
                        "D": [list(r) for r in d.rows],
                        "B": [list(r) for r in b.rows],
                    }
    return None


def check_lsupp_closure_by_subalgebras(L, az):
    """census lsupp_closure checker that makes every proper subalgebra of
    EagerLattice an algebra of its own (as_algebra) and tests it, in
    lattice order, then the quotient by every proper ideal."""
    if not az.c_supplemented(L)[0]:
        return None
    lat = EagerLattice(L)
    for b in lat.subalgebras:
        if 0 < b.dim < L.dim and not az.c_supplemented(L.as_algebra(b))[0]:
            return {
                "kind": "subalgebra_not_c_supplemented",
                "subalgebra": [list(r) for r in b.rows],
            }
    for i in lat.ideals:
        if 0 < i.dim < L.dim and not az.c_supplemented(L.quotient(i))[0]:
            return {"kind": "quotient_not_c_supplemented", "ideal": [list(r) for r in i.rows]}
    return None


def check_pequ_by_sublattice(L, az):
    """census pequ checker with the subalgebras of phi(L) from phi's own
    lattice."""
    phi = az.frattini(L)
    lhs = az.c_supplemented(L)[0]
    q = L.quotient(phi)
    rhs = (
        az.completely_factorisable(q)[0]
        and phi_subalgebra_not_ideal_by_sublattice(L, phi) is None
    )
    if lhs != rhs:
        return {"kind": "equivalence_fails", "c_supplemented": lhs, "criterion": rhs}
    return None


def check_tsolv_by_sublattice(L, az):
    """census tsolv checker with the subalgebras of phi(L) from phi's own
    lattice."""
    if not L.is_solvable():
        return None
    phi = az.frattini(L)
    lhs = az.c_supplemented(L)[0]
    rhs = az.supersolvable(L) and phi_subalgebra_not_ideal_by_sublattice(L, phi) is None
    if lhs != rhs:
        return {"kind": "solvable_equivalence_fails", "c_supplemented": lhs, "criterion": rhs}
    return None


def core_within_by_enumeration(L, b, c, lattice):
    """Independent route to the largest ideal of c inside b: the sum of all
    enumerated subalgebras X inside b with [x, w] in X for every basis row
    x of X and w of c, one bracket call each."""
    out = Subspace.zero(L.dim, L.p)
    for x in lattice.subalgebras:
        if b.contains(x) and all(x.member(L.bracket(r, w)) for r in x.rows for w in c.rows):
            out = out.sum(x)
    return out


def is_supersolvable_by_lines(L, memo=None):
    """Chain-of-ideals recursion: some 1-dimensional ideal has a
    supersolvable quotient.  Every line, spanned by its vector with leading
    coefficient 1 in lexicographic order of the tails, is tested by n
    bracket and member calls."""
    memo = {} if memo is None else memo
    if L.key not in memo:
        n, p = L.dim, L.p
        memo[L.key] = n == 0
        for lead in range(n):
            for tail in product(range(p), repeat=n - lead - 1):
                v = (0,) * lead + (1,) + tail
                line = Subspace.span([v], n, p)
                if all(line.member(L.bracket(e, v)) for e in np.eye(n, dtype=np.int64)):
                    if is_supersolvable_by_lines(L.quotient(line), memo):
                        memo[L.key] = True
                        return True
    return memo[L.key]


def flag_search_supersolvable(L, eager):
    """DFS for a chain of ideals of L with dims 0, 1, ..., n, over the
    Subspace list of the ideals of an EagerLattice, one contains call per
    step."""
    by_dim = {}
    for i in eager.ideals:
        by_dim.setdefault(i.dim, []).append(i)

    def extend(chain):
        d = chain[-1].dim
        if d == L.dim:
            return True
        return any(
            i.contains(chain[-1]) and extend(chain + [i])
            for i in by_dim.get(d + 1, [])
        )

    return extend([Subspace.zero(L.dim, L.p)])


def radical_by_ideal_list(L, eager):
    """The radical from the whole ideal list of an EagerLattice: the
    solvable ideals (as_algebra, is_solvable) of the largest dimension
    that has any, summed."""
    for _, same_dim in groupby(reversed(eager.ideals), key=attrgetter("dim")):
        solvable = [i for i in same_dim if L.as_algebra(i).is_solvable()]
        if solvable:
            return reduce(Subspace.sum, solvable)


def is_simple_by_ideal_list(L, eager):
    """n > 1 and 0 and L are the only ideals of the EagerLattice."""
    return L.dim > 1 and len(eager.ideals) == 2


def minimal_ideals_by_ideal_list(eager):
    """The nonzero ideals of the EagerLattice that contain no nonzero ideal
    of lower dimension, compared pair by pair."""
    nonzero = [i for i in eager.ideals if i.dim > 0]
    return [i for i in nonzero if not any(j.dim < i.dim and i.contains(j) for j in nonzero)]


def first_non_ideal_inside_by_ideal_list(eager, space):
    """The first subalgebra of the EagerLattice in `space` that is not in
    its ideal list, or None."""
    ideals = {i for i in eager.ideals if i.dim <= space.dim}
    return next(
        (
            s
            for s in eager.subalgebras
            if s.dim <= space.dim and s not in ideals and space.contains(s)
        ),
        None,
    )


def main_decomposition_by_all_ideals(L, az):
    """check_main_decomposition over EagerLattices: the phi witness from
    first_non_ideal_inside_by_ideal_list, R from radical_by_ideal_list,
    and S the first ideal of the whole ideal list of L/phi(L) with
    R meet S = 0, R + S = L/phi(L), [R, S] = 0 and S zero or of semisimple
    shape.  Frattini ideals, supersolvability and shapes come from `az`."""
    phi = az.frattini(L)
    out = {"phi": phi}
    witness = first_non_ideal_inside_by_ideal_list(EagerLattice(L), phi)
    if witness is not None:
        out.update(reason="phi_subalgebra_not_ideal", witness=witness)
        return False, out
    q = L.quotient(phi)
    out["quotient_dim"] = q.dim
    eager_q = EagerLattice(q)
    r = out["R"] = radical_by_ideal_list(q, eager_q)
    if r.dim:
        r_alg = q.as_algebra(r)
        if not az.supersolvable(r_alg):
            out["reason"] = "radical_not_supersolvable"
            return False, out
        if az.frattini(r_alg).dim:
            out["reason"] = "radical_not_phi_free"
            return False, out
    for s in eager_q.ideals:
        if r.intersect(s).dim or r.sum(s).dim != q.dim or q.product_space(r, s).dim:
            continue
        if s.dim == 0 or az.semisimple_shape(q.as_algebra(s))[0]:
            out["S"] = s
            return True, out
    out["reason"] = "no_semisimple_complement"
    return False, out


def random_conjugate(L, rng):
    """L in the basis f_i = sum_a t[i, a] e_a for a random t in GL(n, p)."""
    n, p = L.dim, L.p
    while True:
        t = rng.integers(0, p, size=(n, n)).tolist()
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        red, piv = rref([row + e for row, e in zip(t, eye)], 2 * n, p)
        if piv[:n] == tuple(range(n)):
            break
    t_inv = [row[n:] for row in red]
    c = L.table.tolist()
    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            # coordinates of [f_i, f_j] in e, then in f through t_inv
            e_coords = [
                sum(t[i][a] * t[j][b] * c[a][b][m] for a in range(n) for b in range(n))
                for m in range(n)
            ]
            table[i, j] = [
                sum(e_coords[m] * t_inv[m][k] for m in range(n)) % p for k in range(n)
            ]
    return LieAlgebra(L.field, n, table=table)


def jacobi_residuals_full(tables, p):
    """All n^3 Jacobi residuals of a batch of antisymmetric tables, shape
    (b, n, n, n, n): out[b, i, j, k] is the coefficient vector of
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] mod p."""
    b, n = tables.shape[0], tables.shape[1]
    # t[b, i, j, k] = [[e_i, e_j], e_k]
    t = np.matmul(tables.reshape(b, n * n, n), tables.reshape(b, n, n * n))
    t = t.reshape(b, n, n, n, n)
    return (t + np.transpose(t, (0, 3, 1, 2, 4)) + np.transpose(t, (0, 2, 3, 1, 4))) % p


def census_by_index(spec):
    """The exhaustive census one table index at a time: decode each index
    into its digits (pair-major, lex pairs i<j, coefficients ascending within
    a pair, most significant first) and keep the tables that LieAlgebra
    accepts.  Yields (("e", n, t), algebra)."""
    p = spec.p
    for n in spec.dims():
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        e = n * len(pairs)
        for t in range(p**e):
            digits, rest = [0] * e, t
            for pos in range(e - 1, -1, -1):
                rest, digits[pos] = divmod(rest, p)
            brackets = {
                ij: tuple(digits[q * n : (q + 1) * n])
                for q, ij in enumerate(pairs)
                if any(digits[q * n : (q + 1) * n])
            }
            try:
                alg = LieAlgebra(PrimeField(p), n, brackets)
            except InvalidAlgebraError:
                continue
            yield ("e", n, t), alg


def _digit_matrices(start: int, stop: int, n: int, p: int) -> np.ndarray:
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((len(idx), n * n), dtype=np.int64)
    rem = idx.copy()
    for pos in range(n * n - 1, -1, -1):
        digits[:, pos] = rem % p
        rem //= p
    return digits.reshape(-1, n, n)


def _dets_mod(T: np.ndarray, p: int) -> np.ndarray:
    n = T.shape[1]
    if n == 1:
        return T[:, 0, 0] % p
    if n == 2:
        return (T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]) % p
    a, b, c = T[:, 0, 0], T[:, 0, 1], T[:, 0, 2]
    d, e, f = T[:, 1, 0], T[:, 1, 1], T[:, 1, 2]
    g, h, i = T[:, 2, 0], T[:, 2, 1], T[:, 2, 2]
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def _inverses_mod(T: np.ndarray, det: np.ndarray, p: int) -> np.ndarray:
    """Adjugate-based inverse of a batch of invertible 1x1..3x3 matrices."""
    inv_table = np.array([0] + [pow(d, p - 2, p) for d in range(1, p)], dtype=np.int64)
    dinv = inv_table[det % p]
    n = T.shape[1]
    adj = np.empty_like(T)
    if n == 1:
        adj[:, 0, 0] = 1
    elif n == 2:
        adj[:, 0, 0] = T[:, 1, 1]
        adj[:, 0, 1] = -T[:, 0, 1]
        adj[:, 1, 0] = -T[:, 1, 0]
        adj[:, 1, 1] = T[:, 0, 0]
    else:
        for r in range(3):
            for s in range(3):
                r1, r2 = [x for x in range(3) if x != s]
                c1, c2 = [x for x in range(3) if x != r]
                adj[:, r, s] = (-1) ** (r + s) * (
                    T[:, r1, c1] * T[:, r2, c2] - T[:, r1, c2] * T[:, r2, c1]
                )
    return (adj * dinv[:, None, None]) % p


def is_isomorphic_small(
    A: LieAlgebra, B: LieAlgebra
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Exhaustive basis-change search in dimension <= 3.

    Returns the first invertible T (rows = images of A's basis in B's
    coordinates) with [Tx, Ty]_B = T[x, y]_A for all basis pairs, or None.
    """
    if A.p != B.p:
        raise ValueError("field mismatch")
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    n, p = A.dim, A.p
    if n > ISO_DIM_LIMIT:
        raise ValueError(f"isomorphism search limited to dimension {ISO_DIM_LIMIT}")
    if n == 0:
        return ()
    # cheap invariants first
    for inv in (
        lambda x: tuple(s.dim for s in x.derived_series()),
        lambda x: tuple(s.dim for s in x.lower_central_series()),
    ):
        if inv(A) != inv(B):
            return None
    pairs_i = np.array([i for i in range(n) for _ in range(i + 1, n)], dtype=np.int64)
    pairs_j = np.array([j for i in range(n) for j in range(i + 1, n)], dtype=np.int64)
    c_a = A.table[pairs_i, pairs_j, :] if len(pairs_i) else None
    total = p ** (n * n)
    for start in range(0, total, _ISO_CHUNK):
        T = _digit_matrices(start, min(start + _ISO_CHUNK, total), n, p)
        if len(pairs_i):
            lhs = np.einsum("pk,ckm->cpm", c_a, T) % p
            rhs = (
                np.einsum("cpu,cpv,uvm->cpm", T[:, pairs_i, :], T[:, pairs_j, :], B.table)
                % p
            )
            ok = (lhs == rhs).all(axis=(1, 2))
        else:
            ok = np.ones(len(T), dtype=bool)
        ok &= _dets_mod(T, p) != 0
        hits = np.flatnonzero(ok)
        if len(hits):
            t = T[hits[0]]
            return tuple(tuple(int(x) for x in row) for row in t)
    return None


def canonical_form_small(L: LieAlgebra) -> LieAlgebra:
    """Lexicographically least structure-constant table reachable by any
    basis change; a true isomorphism-class invariant in dimension <= 3."""
    n, p = L.dim, L.p
    if n > ISO_DIM_LIMIT:
        raise ValueError(f"canonical form limited to dimension {ISO_DIM_LIMIT}")
    if n < 2:
        return LieAlgebra(L.field, n)
    pairs_i = np.array([i for i in range(n) for _ in range(i + 1, n)], dtype=np.int64)
    pairs_j = np.array([j for i in range(n) for j in range(i + 1, n)], dtype=np.int64)
    npairs = len(pairs_i)
    powers = p ** np.arange(npairs * n - 1, -1, -1, dtype=object)
    best = None
    total = p ** (n * n)
    for start in range(0, total, _ISO_CHUNK):
        T = _digit_matrices(start, min(start + _ISO_CHUNK, total), n, p)
        det = _dets_mod(T, p)
        T = T[det != 0]
        det = det[det != 0]
        if not len(T):
            continue
        tinv = _inverses_mod(T, det, p)
        w = (
            np.einsum("cpu,cpv,uvm->cpm", T[:, pairs_i, :], T[:, pairs_j, :], L.table)
            % p
        )
        new = np.einsum("cpm,cmk->cpk", w, tinv) % p
        flat = new.reshape(len(T), npairs * n)
        codes = flat.astype(object) @ powers
        i = int(np.argmin(codes))
        if best is None or codes[i] < best[0]:
            best = (codes[i], flat[i].copy())
    digits = best[1]
    brackets = {}
    for idx in range(npairs):
        coeffs = tuple(int(x) for x in digits[idx * n : (idx + 1) * n])
        brackets[(int(pairs_i[idx]), int(pairs_j[idx]))] = coeffs
    return LieAlgebra(L.field, n, brackets)


def sl2_summands_by_isomorphism(L, lattice):
    """True iff every minimal ideal of L is isomorphic to sl2 over GF(p),
    by the brute-force basis-change search."""
    reference = sl2(L.p)
    for m in minimal_ideals(L, lattice):
        if m.dim != 3 or is_isomorphic_small(reference, L.as_algebra(m)) is None:
            return False
    return True


def first_unsupplemented(L, lattice):
    """The first subalgebra B, in lattice order, with no subalgebra C such
    that B + C = L and B meet C lies in the core of B; None if every B has
    one.  Every C is tried, with the core taken by enumeration."""
    n = L.dim
    for b in lattice.subalgebras:
        core_b = core_by_enumeration(L, b, lattice)
        if not any(
            b.sum(c_).dim == n and core_b.contains(b.intersect(c_))
            for c_ in lattice.subalgebras
        ):
            return b
    return None


def complement_by_sums(L, lattice, b):
    """The first subalgebra C of dimension codim(B), in lattice order, with
    B + C = L (so B meet C = 0), or None.  Each candidate costs one row
    reduction of B + C."""
    n = L.dim
    for c_ in lattice.by_dim.get(n - b.dim, []):
        if b.sum(c_).dim == n:
            return c_
    return None


@lru_cache(maxsize=4096)
def first_complements_by_sums(L):
    """{k: [index in by_dim[n - k] of complement_by_sums(B), or -1, for each
    B in by_dim[k]]} over the EagerLattice of L."""
    lattice = EagerLattice(L)
    out = {}
    for k, subs in lattice.by_dim.items():
        index = {c_: i for i, c_ in enumerate(lattice.by_dim.get(L.dim - k, []))}
        found = (complement_by_sums(L, lattice, b) for b in subs)
        out[k] = [-1 if c_ is None else index[c_] for c_ in found]
    return out


def c_supplement_by_sums(L, lattice, b):
    """(C, B meet C) for the first subalgebra C, by dimension from codim(B)
    up and then in lattice order, with B + C = L and B meet C inside the core
    of B (taken by enumeration), or None.  Every candidate of every
    dimension is tried with one row reduction of B + C."""
    n = L.dim
    c_ = complement_by_sums(L, lattice, b)
    if c_ is not None:
        return c_, Subspace.zero(n, L.p)
    core_b = core_by_enumeration(L, b, lattice)
    for d in range(n - b.dim + 1, n + 1):
        for c_ in lattice.by_dim.get(d, []):
            if b.sum(c_).dim == n and core_b.contains(b.intersect(c_)):
                return c_, b.intersect(c_)
    return None


def core_supplement_by_sums(L, lattice, b):
    """The witness of c_supplement: complement_by_sums(B) when B has a
    complement, else the first subalgebra C, in lattice order, of dimension
    codim(B) + dim K that contains the core K of B (taken by enumeration)
    and has B + C = L, or None.  Each candidate costs one containment test
    and one row reduction of B + C."""
    c_ = complement_by_sums(L, lattice, b)
    if c_ is not None:
        return c_
    core_b = core_by_enumeration(L, b, lattice)
    for c_ in lattice.by_dim.get(L.dim - b.dim + core_b.dim, []):
        if c_.contains(core_b) and b.sum(c_).dim == L.dim:
            return c_
    return None


def verify_by_table(theorem_id, spec, analyzer=None, dedup=True):
    """The verify document, timing left out, from a check of every table of
    the universe in census order.  A per-algebra statement runs
    census.CHECKERS[theorem_id] (looked up at call time) on each table; a
    pair statement keeps every table that satisfies its hypothesis, or with
    dedup, per isomorphism class, the canonical form of the first such
    table, and tests every ordered direct sum of those."""
    az = analyzer or Analyzer()
    universe = spec.describe()
    counterexamples = []
    if theorem_id in ("ldsum", "csupp_dsum"):
        holds = az.completely_factorisable if theorem_id == "ldsum" else az.c_supplemented
        members, seen = [], set()
        for entry in generate(spec):
            if not holds(entry.algebra)[0]:
                continue
            if not dedup:
                members.append((list(entry.index), entry.algebra))
            else:
                canon = canonical_form_small(entry.algebra)
                if canon.key not in seen:
                    seen.add(canon.key)
                    members.append((list(entry.index), canon))
        for idx_a, a in members:
            for idx_b, b in members:
                d = a.direct_sum(b)
                if not holds(d)[0]:
                    counterexamples.append(
                        {
                            "index": [idx_a, idx_b],
                            "summands": [algebra_to_doc(a), algebra_to_doc(b)],
                            "algebra": algebra_to_doc(d),
                            "violation": {"kind": f"{theorem_id}_conclusion_fails"},
                        }
                    )
        examined = len(members) ** 2
        universe.update(pairs=True, dedup_by_isomorphism=dedup, members=len(members))
    else:
        checker = CHECKERS[theorem_id]
        examined = 0
        for entry in generate(spec):
            examined += 1
            v = checker(entry.algebra, az)
            if v is not None:
                counterexamples.append(
                    {
                        "index": list(entry.index),
                        "algebra": algebra_to_doc(entry.algebra),
                        "violation": v,
                    }
                )
    return {
        "theorem": theorem_id,
        "universe": universe,
        "examined": examined,
        "confirmed": not counterexamples,
        "counterexamples": counterexamples,
    }


@lru_cache(maxsize=4)
def gl_group(n, p):
    """Every invertible n x n matrix over GF(p), with its inverse: all
    p^(n*n) matrices, inverted together by Gauss-Jordan elimination of
    [T | I], the singular ones dropped."""
    codes = np.arange(p ** (n * n), dtype=np.int64)
    digits = (codes[:, None] // p ** np.arange(n * n - 1, -1, -1)) % p
    t = digits.reshape(-1, n, n)
    aug = np.concatenate([t, np.broadcast_to(np.eye(n, dtype=np.int64), t.shape)], axis=2)
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int64)
    invertible = np.ones(len(t), dtype=bool)
    batch = np.arange(len(t))
    for col in range(n):
        nonzero = aug[:, col:, col] != 0
        invertible &= nonzero.any(axis=1)
        piv = col + nonzero.argmax(axis=1)
        top, row = aug[batch, col].copy(), aug[batch, piv].copy()
        aug[batch, piv], aug[batch, col] = top, row
        aug[:, col] = aug[:, col] * inverse[aug[:, col, col]][:, None] % p
        factor = aug[:, :, col].copy()
        factor[:, col] = 0
        aug = (aug - factor[:, :, None] * aug[:, col][:, None, :]) % p
    return t[invertible], aug[invertible][:, :, n:]


def gl_orbit(L):
    """Sorted census indices of every table of L in every basis
    f_i = sum_a T[i, a] e_a, T running over all of GL(n, p)."""
    n, p = L.dim, L.p
    t, t_inv = gl_group(n, p)
    brackets = np.einsum("cia,cjb,abm->cijm", t, t, L.table) % p
    tables = np.einsum("cijm,cmk->cijk", brackets, t_inv) % p
    codes = np.zeros(len(tables), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                codes = codes * p + tables[:, i, j, k]
    return np.unique(codes)
