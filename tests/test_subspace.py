import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesupp.subspace as subspace_mod
from liesupp.subspace import (
    ECHELON_CACHE_ROWS,
    CapExceededError,
    Subspace,
    _parity_checks,
    count_subspaces,
    echelon_arrays,
    enumerate_subspaces,
    gaussian_binomial,
)


def test_span_examples():
    u = Subspace.span([(1, 1, 0), (0, 1, 0)], 3, 2)
    assert u.rows == ((1, 0, 0), (0, 1, 0))
    assert Subspace.span([], 3, 2).dim == 0
    assert Subspace.span([(2, 4)], 2, 5).rows == ((1, 2),)


def test_sum_examples():
    e1 = Subspace.span([(1, 0, 0)], 3, 2)
    e2 = Subspace.span([(0, 1, 0)], 3, 2)
    assert e1.sum(e2).rows == ((1, 0, 0), (0, 1, 0))
    assert e1.sum(Subspace.zero(3, 2)) == e1
    assert e1.sum(e1) == e1


def test_intersect_examples():
    u = Subspace.span([(1, 0, 0), (0, 1, 0)], 3, 3)
    v = Subspace.span([(0, 1, 0), (0, 0, 1)], 3, 3)
    assert u.intersect(v).rows == ((0, 1, 0),)
    assert u.intersect(Subspace.full(3, 3)) == u
    a = Subspace.span([(1, 1)], 2, 3)
    b = Subspace.span([(1, 2)], 2, 3)
    assert a.intersect(b).dim == 0


def test_contains_member():
    full = Subspace.full(3, 2)
    e1 = Subspace.span([(1, 0, 0)], 3, 2)
    assert full.contains(e1)
    assert e1.contains(e1)
    assert not e1.member((0, 1, 0))
    assert e1.member((1, 0, 0))


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        Subspace.full(3, 2).sum(Subspace.full(2, 2))
    with pytest.raises(ValueError):
        Subspace.full(3, 2).intersect(Subspace.full(3, 3))


@st.composite
def random_subspace_pair(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    vecs = st.lists(
        st.tuples(*[st.integers(0, p - 1)] * n), min_size=0, max_size=n
    )
    u = Subspace.span(draw(vecs), n, p)
    v = Subspace.span(draw(vecs), n, p)
    return u, v


@given(random_subspace_pair())
@settings(max_examples=200, deadline=None)
def test_modular_law_dimensions(pair):
    u, v = pair
    assert u.sum(v).dim + u.intersect(v).dim == u.dim + v.dim


@given(random_subspace_pair())
@settings(max_examples=100, deadline=None)
def test_canonicity_respan(pair):
    u, v = pair
    for s in (u, v, u.sum(v), u.intersect(v)):
        assert Subspace.span(s.rows, s.n, s.p) == s


def test_enumeration_counts_small():
    assert count_subspaces(3, 2) == 16  # 1 + 7 + 7 + 1
    assert count_subspaces(2, 3) == 6  # 1 + 4 + 1
    assert gaussian_binomial(6, 1, 3) == 364  # (3^6 - 1) / 2


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_no_duplicates_matches_gaussian(n, p):
    seen = set()
    per_dim = {}
    for s in enumerate_subspaces(n, p):
        assert s not in seen
        seen.add(s)
        per_dim[s.dim] = per_dim.get(s.dim, 0) + 1
    for k in range(n + 1):
        assert per_dim.get(k, 0) == gaussian_binomial(n, k, p)


@pytest.mark.parametrize("p,n", [(2, 5), (2, 6), (3, 5), (3, 6)])
def test_echelon_arrays_counts(n, p):
    for k in range(n + 1):
        bases, piv = echelon_arrays(n, p, k)
        assert bases.shape == (gaussian_binomial(n, k, p), k, n)
        # every basis really is in echelon form with unit pivots
        if k:
            idx = np.arange(bases.shape[0])
            for r in range(k):
                assert (bases[idx, r, piv[:, r]] == 1).all()


@pytest.mark.parametrize("n,k", [(0, 1), (2, 3)])
def test_no_subspace_past_the_ambient_dimension(n, k):
    bases, piv = echelon_arrays(n, 2, k)
    assert bases.shape == (0, k, n) and piv.shape == (0, k)
    assert len(_parity_checks(n, 2, k)) == 0


def test_echelon_arrays_shared_and_read_only():
    import inspect

    import liesupp.subspace as subspace_mod

    # a plain function, so that a wrapper installed around it sees every call
    assert inspect.isfunction(subspace_mod.echelon_arrays)
    bases, piv = echelon_arrays(4, 3, 2)
    again = echelon_arrays(4, 3, 2)
    assert again[0] is bases and again[1] is piv
    for a in (bases, piv):
        with pytest.raises(ValueError):
            a[0, 0] = 2
    big = echelon_arrays(4, 17, 2)  # 89,030 planes: built, not kept
    assert len(big[0]) > subspace_mod.ECHELON_CACHE_ROWS
    assert echelon_arrays(4, 17, 2)[0] is not big[0]
    assert not big[0].flags.writeable


# every (p, n, k) with p in {2, 3, 5}, n <= 6 whose arrays the cache keeps
PARITY_SHAPES = [
    (p, n, k)
    for p in (2, 3, 5)
    for n in range(1, 7)
    for k in range(n + 1)
    if gaussian_binomial(n, k, p) <= ECHELON_CACHE_ROWS
]


@st.composite
def subspace_and_vector(draw):
    p, n, k = draw(st.sampled_from(PARITY_SHAPES))
    bases, piv = echelon_arrays(n, p, k)
    a = draw(st.integers(0, len(bases) - 1))
    # a combination of the basis rows, then maybe moved off the subspace
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    v = [sum(c * int(x) for c, x in zip(coeffs, col)) % p for col in bases[a].T]
    if draw(st.booleans()):
        noise = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        v = [(x + y) % p for x, y in zip(v, noise)]
    return p, n, k, a, v


@given(subspace_and_vector())
@settings(max_examples=400, deadline=None)
def test_parity_check_annihilates_exactly_the_members(case):
    p, n, k, a, v = case
    bases, piv = echelon_arrays(n, p, k)
    checks = _parity_checks(n, p, k)
    assert checks.shape == (len(bases), n, n - k)
    s = Subspace(n, p, tuple(map(tuple, bases[a].tolist())), tuple(piv[a].tolist()))
    zero = not ((np.array(v, dtype=np.int64) @ checks[a]) % p).any()
    assert zero == s.member(v)


def test_parity_checks_shared_and_read_only():
    checks = _parity_checks(4, 3, 2)
    assert _parity_checks(4, 3, 2) is checks
    with pytest.raises(ValueError):
        checks[0, 0, 0] = 2
    big = _parity_checks(4, 17, 2)  # 89,030 planes: built, not kept
    assert len(big) > subspace_mod.ECHELON_CACHE_ROWS
    assert _parity_checks(4, 17, 2) is not big
    assert not big.flags.writeable


def test_dim_filter_line_count():
    lines = list(enumerate_subspaces(6, 3, dim_filter=1))
    assert len(lines) == 364


def test_cap_refusal():
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_subspaces(6, 3, cap=1000))
    assert exc.value.needed == count_subspaces(6, 3)
    assert exc.value.cap == 1000
