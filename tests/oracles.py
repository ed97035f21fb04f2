"""Brute-force routines kept only as independent oracles for the tests.

The library computes the same things by faster or structural routes; each
function here is the direct definition, with no shortcut.  random_conjugate
changes basis in exact Python-int arithmetic, so that isomorphism invariants
can be checked without trusting the code under test.
"""
import numpy as np

from liesupp.liealg import LieAlgebra
from liesupp.subspace import Subspace, rref


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
