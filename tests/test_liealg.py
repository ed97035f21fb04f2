import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesupp.gfp import ModulusTooLargeError, PrimeField, int64_safe, is_prime
from liesupp.liealg import (
    InvalidAlgebraError,
    JacobiError,
    LieAlgebra,
    NotIdealError,
    NotSubalgebraError,
    abelian,
    catalog,
    counterexample_L1,
    counterexample_double,
    heisenberg,
    jacobi_residuals,
    L1_gamma,
    sl2,
)
from liesupp.census import classes
from liesupp.subspace import Subspace
from oracles import (
    enumerate_subspaces,
    jacobi_residuals_full,
    lift_space,
    random_conjugate,
)

# the largest prime p with 3^2 (p - 1)^3 < 2^63, and the next prime
LARGEST_DIM3_PRIME = 1_008_199
NEXT_PRIME = 1_008_209


def test_bracket_examples():
    h = heisenberg(2)
    assert h.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)  # [x, y] = z
    l1 = counterexample_L1(3)
    assert l1.bracket((1, 0, 0), (0, 1, 0)) == (0, 1, 1)  # [x, y] = y + z
    assert l1.bracket((0, 1, 0), (1, 0, 0)) == (0, 2, 2)  # antisymmetry


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=100, deadline=None)
def test_bracket_alternating(p, data):
    L = sl2(p)
    v = data.draw(st.tuples(*[st.integers(0, p - 1)] * 3))
    assert L.bracket(v, v) == (0, 0, 0)


def test_jacobi_rejection_by_mutation():
    # randomly mutate one structure constant of sl2(3): the rejection rate
    # must be strictly positive (most perturbations break Jacobi)
    base = sl2(3)
    rng = random.Random(7)
    rejected = 0
    trials = 60
    for _ in range(trials):
        brackets = {k: list(v) for k, v in base.sparse_brackets().items()}
        i, j = rng.choice(list(brackets))
        k = rng.randrange(3)
        brackets[(i, j)][k] = (brackets[(i, j)][k] + rng.randrange(1, 3)) % 3
        try:
            LieAlgebra(PrimeField(3), 3, {key: tuple(v) for key, v in brackets.items()})
        except JacobiError as exc:
            assert len(exc.triple) == 3
            rejected += 1
    assert rejected > 0


def test_bad_tables_rejected():
    with pytest.raises(InvalidAlgebraError):
        LieAlgebra(PrimeField(2), 2, {(1, 0): (1, 0)})  # i >= j
    with pytest.raises(InvalidAlgebraError):
        LieAlgebra(PrimeField(2), 2, {(0, 1): (1,)})  # wrong length


def test_product_space():
    h = heisenberg(2)
    full = Subspace.full(3, 2)
    assert h.product_space(full, full).rows == ((0, 0, 1),)
    assert h.product_space(full, Subspace.zero(3, 2)).dim == 0
    s = sl2(3)
    assert s.product_space(Subspace.full(3, 3), Subspace.full(3, 3)).dim == 3


@pytest.mark.parametrize("p", [2, 3])
def test_brackets_on_bases_match_pairwise_brackets(p):
    """product_space, is_subalgebra, as_algebra, is_ideal and quotient
    against one bracket call per basis pair, on every subspace (and pair of
    subspaces) of every class representative of dims 1..3."""
    algebras = [rep for n in (1, 2, 3) for _, rep, _ in classes(p, n)]
    for L in algebras:
        spaces = list(enumerate_subspaces(L.dim, p))
        units = [tuple(e) for e in np.eye(L.dim, dtype=int).tolist()]
        for u in spaces:
            for v in spaces:
                prods = [L.bracket(x, y) for x in u.rows for y in v.rows]
                assert L.product_space(u, v) == Subspace.span(prods, L.dim, p)
            closed = all(u.member(L.bracket(x, y)) for x in u.rows for y in u.rows)
            assert L.is_subalgebra(u) == closed
            ideal = all(u.member(L.bracket(e, y)) for e in units for y in u.rows)
            assert L.is_ideal(u) == ideal
            if ideal:
                comp = [j for j in range(L.dim) if j not in u.pivots]
                q = L.quotient(u)
                for a, s in enumerate(comp):
                    for b, t in enumerate(comp):
                        w = u.reduce(L.bracket(units[s], units[t]))
                        assert tuple(q.table[a, b]) == tuple(w[c] for c in comp)
            else:
                with pytest.raises(NotIdealError):
                    L.quotient(u)
            if not closed:
                with pytest.raises(NotSubalgebraError):
                    L.as_algebra(u)
                continue
            sub = L.as_algebra(u)
            for s in range(u.dim):
                for t in range(u.dim):
                    w = L.bracket(u.rows[s], u.rows[t])
                    assert tuple(sub.table[s, t]) == tuple(w[c] for c in u.pivots)


def test_subalgebra_and_ideal():
    h = heisenberg(2)
    xy = Subspace.span([(1, 0, 0), (0, 1, 0)], 3, 2)
    assert not h.is_subalgebra(xy)  # [x, y] = z is outside
    xz = Subspace.span([(1, 0, 0), (0, 0, 1)], 3, 2)
    assert h.is_subalgebra(xz) and h.is_ideal(xz)
    assert h.is_ideal(Subspace.zero(3, 2)) and h.is_ideal(Subspace.full(3, 2))


def test_quotient():
    h = heisenberg(2)
    z = Subspace.span([(0, 0, 1)], 3, 2)
    q = h.quotient(z)
    assert q.dim == 2 and not q.table.any()
    q0 = h.quotient(Subspace.zero(3, 2))
    assert q0.key == h.key
    qfull = h.quotient(Subspace.full(3, 2))
    assert qfull.dim == 0


def test_quotient_requires_ideal():
    h = heisenberg(2)
    with pytest.raises(NotIdealError):
        h.quotient(Subspace.span([(1, 0, 0)], 3, 2))


def test_direct_sum():
    a = abelian(3, 1).direct_sum(abelian(3, 2))
    assert a.dim == 3 and not a.table.any()
    # two copies of the three-dimensional solvable example
    l1 = counterexample_L1(2)
    d = l1.direct_sum(l1)
    assert d.bracket((0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1, 1)
    assert (d.table == counterexample_double(2).table).all()
    ss = sl2(3).direct_sum(sl2(3))
    assert ss.dim == 6
    blk_a = Subspace.span([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], 6, 3)
    blk_b = Subspace.span([(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)], 6, 3)
    assert ss.product_space(blk_a, blk_b).dim == 0


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        abelian(2, 1).direct_sum(abelian(3, 1))


def test_as_algebra():
    h = heisenberg(2)
    yz = Subspace.span([(0, 1, 0), (0, 0, 1)], 3, 2)
    sub = h.as_algebra(yz)
    assert sub.dim == 2 and not sub.table.any()
    full_sub = h.as_algebra(Subspace.full(3, 2))
    assert full_sub.key == h.key
    s = sl2(3)
    he = Subspace.span([(1, 0, 0), (0, 1, 0)], 3, 3)  # span(e, h)
    sub2 = s.as_algebra(he)
    assert sub2.dim == 2 and sub2.table.any()


def test_as_algebra_series_consistency():
    # derived series computed inside the subalgebra agrees with the ambient one
    l1 = counterexample_L1(3)
    full = Subspace.full(3, 3)
    sub = l1.as_algebra(full)
    inner = [lift_space(full, s) for s in sub.derived_series()]
    outer = l1.derived_series()
    assert [s.rows for s in inner] == [s.rows for s in outer]


def test_series():
    h = heisenberg(2)
    assert [s.dim for s in h.derived_series()] == [3, 1, 0]
    assert h.is_solvable() and h.is_nilpotent()
    s = sl2(3)
    assert [x.dim for x in s.derived_series()] == [3]
    assert not s.is_solvable()
    a = abelian(5, 4)
    assert [x.dim for x in a.derived_series()] == [4, 0]
    l1 = counterexample_L1(2)
    assert l1.is_solvable() and not l1.is_nilpotent()


def test_catalog():
    assert catalog("heisenberg", 5).product_space(
        Subspace.full(3, 5), Subspace.full(3, 5)
    ).rows == ((0, 0, 1),)
    assert catalog("abelian", 3, n=4).dim == 4
    assert catalog("nonabelian2", 2).bracket((1, 0), (0, 1)) == (0, 1)
    # gamma = 0 member of the rank-one family vs sl2: same series profile
    g = L1_gamma(3, gamma0=0)
    assert not g.is_solvable()
    counterexample_L1(2)  # Jacobi validation passes
    with pytest.raises(KeyError):
        catalog("nope", 2)


def test_dim3_modulus_bound():
    p, q = LARGEST_DIM3_PRIME, NEXT_PRIME
    assert is_prime(p) and is_prime(q)
    assert not any(is_prime(x) for x in range(p + 1, q))
    assert int64_safe(p, 3) and not int64_safe(q, 3)


def test_bracket_exact_at_largest_admitted_prime():
    p = LARGEST_DIM3_PRIME
    rng = np.random.default_rng(3)
    L = random_conjugate(sl2(p), rng)  # dense table of large residues
    c = L.table.tolist()
    for _ in range(200):
        u = rng.integers(0, p, size=3).tolist()
        v = rng.integers(0, p, size=3).tolist()
        exact = tuple(
            sum(u[i] * v[j] * c[i][j][k] for i in range(3) for j in range(3)) % p
            for k in range(3)
        )
        assert L.bracket(u, v) == exact


def test_modulus_beyond_int64_refused():
    with pytest.raises(ModulusTooLargeError):
        sl2(NEXT_PRIME)
    assert abelian(NEXT_PRIME, 2).dim == 2  # dimension 2 is still exact
    s = sl2(LARGEST_DIM3_PRIME)
    with pytest.raises(ModulusTooLargeError):
        s.direct_sum(s)


def _antisymmetric(upper, n, p):
    """Tables of shape (b, n, n, n) from the rows of `upper`, one coefficient
    vector per pair i < j in lex order."""
    tables = np.zeros((len(upper), n, n, n), dtype=np.int64)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for q, (i, j) in enumerate(pairs):
        tables[:, i, j] = upper[:, q * n : (q + 1) * n]
        tables[:, j, i] = (-upper[:, q * n : (q + 1) * n]) % p
    return tables


def _accepted_one_by_one(tables, n, p):
    accepted = []
    for t in tables:
        try:
            LieAlgebra(PrimeField(p), n, table=t)
        except JacobiError:
            accepted.append(False)
        else:
            accepted.append(True)
    return np.array(accepted)


def _batch_mask(tables, p):
    return ~jacobi_residuals(tables, p).reshape(len(tables), -1).any(axis=1)


def _full_mask(tables, p):
    return ~jacobi_residuals_full(tables, p).reshape(len(tables), -1).any(axis=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_batch_mask_every_gf3_table(n):
    e = n * (n * (n - 1) // 2)
    upper = np.array(list(itertools.product(range(3), repeat=e)), dtype=np.int64)
    tables = _antisymmetric(upper.reshape(len(upper), e), n, 3)
    mask = _batch_mask(tables, 3)
    assert np.array_equal(mask, _accepted_one_by_one(tables, n, 3))
    assert np.array_equal(mask, _full_mask(tables, 3))
    assert mask.sum() == {1: 1, 2: 9, 3: 1431}[n]


@pytest.mark.parametrize("p", [2, 3])
def test_jacobi_batch_mask_dim4_sample(p):
    rng = np.random.default_rng(20_000 + p)
    sample = _antisymmetric(rng.integers(0, p, size=(20_000, 24)), 4, p)
    # random tables are almost never Lie algebras, so add known ones in
    # random bases
    known = [
        abelian(p, 4),
        sl2(p).direct_sum(abelian(p, 1)),
        heisenberg(p).direct_sum(abelian(p, 1)),
        counterexample_L1(p).direct_sum(abelian(p, 1)),
        L1_gamma(p, gamma0=1).direct_sum(abelian(p, 1)),
    ]
    lie = np.stack([random_conjugate(L, rng).table for L in known for _ in range(8)])
    tables = np.concatenate([sample, lie])
    mask = _batch_mask(tables, p)
    assert np.array_equal(mask, _accepted_one_by_one(tables, 4, p))
    assert mask[len(sample) :].all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_triple_jacobi_mask_matches_full_form_every_gf2_table(n):
    e = n * (n * (n - 1) // 2)
    upper = np.array(list(itertools.product(range(2), repeat=e)), dtype=np.int64)
    tables = _antisymmetric(upper.reshape(len(upper), e), n, 2)
    assert np.array_equal(_batch_mask(tables, 2), _full_mask(tables, 2))


def test_triple_jacobi_mask_matches_full_form_first_gf2_dim4_tables():
    for lo in range(0, 2**16, 1024):
        idx = np.arange(lo, lo + 1024, dtype=np.int64)
        digits = (idx[:, None] >> np.arange(23, -1, -1)) & 1
        tables = _antisymmetric(digits, 4, 2)
        assert np.array_equal(_batch_mask(tables, 2), _full_mask(tables, 2))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4)])
def test_jacobi_error_triple_and_residual_match_full_form(p, n):
    """For every failing table, JacobiError names the least failing triple
    i < j < k of the full residual array, with its residual."""
    e = n * (n * (n - 1) // 2)
    if p**e <= 2**12:
        upper = np.array(list(itertools.product(range(p), repeat=e)), dtype=np.int64)
    else:
        upper = np.random.default_rng(20071222).integers(0, p, size=(4096, e))
    tables = _antisymmetric(upper.reshape(len(upper), e), n, p)
    full = jacobi_residuals_full(tables, p)
    for table, jac in zip(tables, full):
        failing = [tuple(t) for t in np.argwhere(jac.any(axis=3)).tolist()]
        if not failing:
            LieAlgebra(PrimeField(p), n, table=table)
            continue
        with pytest.raises(JacobiError) as exc:
            LieAlgebra(PrimeField(p), n, table=table)
        first = min(t for t in failing if t[0] < t[1] < t[2])
        assert exc.value.triple == first
        assert exc.value.residual == tuple(int(x) for x in jac[first])


@pytest.mark.parametrize("p", [2, 3])
def test_non_alternating_table_refused(p):
    # [e_0, e_0] = e_1: over GF(2) this table is antisymmetric, t = -t
    # (p odd: t = -t forces t = 0, so the antisymmetry test refuses it)
    reason = "not alternating" if p == 2 else "not antisymmetric"
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 1] = 1
    with pytest.raises(InvalidAlgebraError, match=reason):
        LieAlgebra(PrimeField(p), 2, table=table)
    # the same kind of entry on top of an otherwise valid algebra
    table = np.array(heisenberg(p).table)
    table[2, 2, 0] = 1
    with pytest.raises(InvalidAlgebraError, match=reason):
        LieAlgebra(PrimeField(p), 3, table=table)


def test_jacobi_error_names_first_triple():
    # [e0, e1] = e2, [e2, e3] = e0: J(e0, e1, e3) = [e2, e3] = e0 and
    # J(e1, e2, e3) = [e0, e1] = e2; the least failing triple is reported
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(PrimeField(3), 4, {(0, 1): (0, 0, 1, 0), (2, 3): (1, 0, 0, 0)})
    assert exc.value.triple == (0, 1, 3)
    assert exc.value.residual == (1, 0, 0, 0)
