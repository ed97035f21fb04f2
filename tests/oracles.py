"""Brute-force routines kept only as independent oracles for the tests.

The library computes the same things by faster or structural routes; each
function here is the direct definition, with no shortcut.  random_conjugate
changes basis in exact Python-int arithmetic, so that isomorphism invariants
can be checked without trusting the code under test.
"""
import numpy as np

from liesupp.classify import is_isomorphic_small
from liesupp.gfp import PrimeField
from liesupp.lattice import minimal_ideals
from liesupp.liealg import InvalidAlgebraError, LieAlgebra, sl2
from liesupp.subspace import Subspace, rref

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


def maximal_subalgebras_all_pairs(subalgebras, n):
    """Proper subalgebras contained in no strictly larger proper subalgebra,
    found by comparing all pairs, in the order of the input list."""
    proper = [s for s in subalgebras if s.dim < n]
    return [
        s
        for s in proper
        if not any(t.dim > s.dim and t.contains(s) for t in proper)
    ]


def core_by_enumeration(L, b, lattice):
    """Independent route to the core: sum of all enumerated ideals inside b."""
    out = Subspace.zero(L.dim, L.p)
    for ideal in lattice.ideals:
        if b.contains(ideal):
            out = out.sum(ideal)
    return out


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


def sl2_summands_by_isomorphism(L, lattice):
    """True iff every minimal ideal of L is isomorphic to sl2 over GF(p),
    by the brute-force basis-change search."""
    reference = sl2(L.p)
    for m in minimal_ideals(L, lattice):
        if m.dim != 3 or is_isomorphic_small(reference, L.as_algebra(m)[0]) is None:
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
