import importlib
import pkgutil
import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesupp
import liesupp.census as census_mod
import liesupp.classify as classify_mod
import liesupp.lattice as lattice_mod
import liesupp.subspace as subspace_mod
from liesupp.census import CHECKERS, CensusSpec, classes, generate, verify
from liesupp.classify import (
    Analyzer,
    c_supplement,
    check_main_decomposition,
    check_semisimple_shape,
    PREDICATES,
    classify_algebra,
    complement_subalgebra,
    is_E_algebra,
    is_c_supplemented_algebra,
    is_completely_factorisable,
    is_elementary,
)
from liesupp.formats import jsonable
from liesupp.gfp import PrimeField
from liesupp.lattice import (
    build_lattice,
    core,
    frattini,
    is_simple,
    minimal_ideals,
    radical,
)
from liesupp.liealg import (
    LieAlgebra,
    abelian,
    catalog,
    counterexample_L1,
    counterexample_double,
    heisenberg,
    L1_gamma,
    nonabelian2,
    sl2,
)
from liesupp.subspace import ECHELON_CACHE_TOTAL, CapExceededError, Subspace, _LRU, _nbytes
from oracles import (
    DIM56_SUMS,
    EagerLattice,
    c_supplement_by_sums,
    canonical_form_small,
    core_by_enumeration,
    core_supplement_by_sums,
    first_complements_by_sums,
    first_non_ideal_inside_by_ideal_list,
    first_unsupplemented,
    is_isomorphic_small,
    is_simple_by_ideal_list,
    main_decomposition_by_all_ideals,
    maximal_subalgebras_all_pairs,
    minimal_ideals_by_ideal_list,
    nonzero_phis,
    phi_subalgebra_not_ideal_by_sublattice,
    radical_by_ideal_list,
    random_conjugate,
    sl2_summands_by_isomorphism,
    subalgebra_phis_by_sublattices,
)


def test_ideal_always_supplemented():
    h = heisenberg(2)
    lat = build_lattice(h)
    z = Subspace.span([(0, 0, 1)], 3, 2)
    c = c_supplement(h, lat, z)
    assert c is not None
    assert z.sum(c).dim == 3
    assert core(h, z).contains(z.intersect(c))


def test_line_supplement_in_heisenberg():
    h = heisenberg(2)
    lat = build_lattice(h)
    x = Subspace.span([(1, 0, 0)], 3, 2)
    c = c_supplement(h, lat, x)
    assert c is not None
    assert x.intersect(c).dim == 0 and c.dim == 2


def test_no_supplement_for_diagonal_line():
    d = counterexample_double(2)
    lat = build_lattice(d)
    zc = Subspace.span([(0, 0, 1, 0, 0, 1)], 6, 2)
    assert c_supplement(d, lat, zc) is None


@pytest.mark.parametrize("p", [2, 3])
def test_c_supplemented_algebra_examples(p):
    h, d = heisenberg(p), counterexample_double(p)
    assert is_c_supplemented_algebra(h, build_lattice(h))[0]
    ok, failing = is_c_supplemented_algebra(d, build_lattice(d))
    assert not ok
    # canonically first failing subalgebra is the diagonal line span(z + c)
    assert failing.rows == ((0, 0, 1, 0, 0, 1),)


def test_char2_family_member_not_supplemented():
    L = L1_gamma(2, gamma0=0)
    ok, failing = is_c_supplemented_algebra(L, build_lattice(L))
    assert not ok
    # canonically first unsupplemented line
    assert failing.rows == ((0, 1, 0),)


@pytest.mark.parametrize("p", [3, 5])
def test_sl2_like_member_supplemented_odd_char(p):
    # gamma = 0, odd characteristic: the family member is c-supplemented
    L = L1_gamma(p, gamma0=0)
    assert is_c_supplemented_algebra(L, build_lattice(L))[0]


def test_completely_factorisable_examples():
    for L in (abelian(2, 3), sl2(3)):
        assert is_completely_factorisable(L, build_lattice(L))[0]
    h = heisenberg(2)
    ok, failing = is_completely_factorisable(h, build_lattice(h))
    assert not ok
    assert failing.rows == ((0, 0, 1),)  # span(z): inside every maximal


def test_cf_implies_c_supplemented_on_census():
    az = Analyzer()
    for entry in generate(CensusSpec(2, 3)):
        if az.completely_factorisable(entry.algebra)[0]:
            assert az.c_supplemented(entry.algebra)[0]


def test_heisenberg_c_supplemented_but_not_phi_free():
    h = heisenberg(2)
    assert is_c_supplemented_algebra(h, build_lattice(h))[0]
    assert not PREDICATES["phi_free"](Analyzer(), h)


def test_elementary_and_E():
    for p in (2, 3):
        h = heisenberg(p)
        lat = build_lattice(h)
        assert not PREDICATES["phi_free"](Analyzer(), h)
        assert is_E_algebra(h, lat)[0]
        assert not is_elementary(h, lat)[0]
    a = abelian(3, 3)
    assert is_elementary(a, build_lattice(a))[0]
    l1 = counterexample_L1(2)
    lat = build_lattice(l1)
    assert not is_elementary(l1, lat)[0]
    assert is_E_algebra(l1, lat)[0]


def test_complement_search():
    h = heisenberg(2)
    lat = build_lattice(h)
    x = Subspace.span([(1, 0, 0)], 3, 2)
    c = complement_subalgebra(h, lat, x)
    assert c is not None and c.dim == 2 and x.intersect(c).dim == 0
    z = Subspace.span([(0, 0, 1)], 3, 2)
    assert complement_subalgebra(h, lat, z) is None


def test_isomorphism_witness():
    a = L1_gamma(3, gamma0=0)
    b = sl2(3)
    t = is_isomorphic_small(a, b)
    assert t is not None
    # check the witness honestly: T[x,y]_A = [Tx,Ty]_B on all basis pairs
    p = 3

    def apply(tmat, v):
        return tuple(
            sum(v[i] * tmat[i][k] for i in range(3)) % p for k in range(3)
        )

    for i in range(3):
        for j in range(3):
            e_i, e_j = np.eye(3, dtype=np.int64)[[i, j]]
            lhs = apply(t, a.bracket(e_i, e_j))
            rhs = b.bracket(apply(t, e_i), apply(t, e_j))
            assert lhs == rhs


def test_isomorphism_negative_and_permuted():
    assert is_isomorphic_small(heisenberg(2), abelian(2, 3)) is None
    h = heisenberg(2)
    permuted = LieAlgebra(PrimeField(2), 3, {(1, 2): (1, 0, 0)})  # [y, z] = x
    assert is_isomorphic_small(h, permuted) is not None


def test_isomorphism_guards():
    with pytest.raises(ValueError):
        is_isomorphic_small(heisenberg(2), heisenberg(3))
    with pytest.raises(ValueError):
        is_isomorphic_small(abelian(2, 2), abelian(2, 3))
    with pytest.raises(ValueError):
        is_isomorphic_small(abelian(2, 4), abelian(2, 4))


def test_canonical_form_is_class_invariant():
    h = heisenberg(2)
    permuted = LieAlgebra(PrimeField(2), 3, {(1, 2): (1, 0, 0)})
    assert canonical_form_small(h).key == canonical_form_small(permuted).key
    assert canonical_form_small(h).key != canonical_form_small(abelian(2, 3)).key
    assert is_isomorphic_small(canonical_form_small(h), h) is not None


def _shape(L):
    return check_semisimple_shape(L, build_lattice(L))


def test_semisimple_shape():
    ok, info = _shape(sl2(3))
    assert ok and len(info["summands"]) == 1
    ok, info = _shape(heisenberg(3))
    assert not ok and info["reason"] == "nonzero radical"
    ok, info = _shape(sl2(5))
    assert ok
    # characteristic-2 policy: refused outright
    ok, info = _shape(L1_gamma(2, gamma0=0))
    assert not ok and info["reason"] == "characteristic two"


def test_main_decomposition():
    ok, info = check_main_decomposition(heisenberg(3), Analyzer())
    assert ok and info["R"].dim == 2 and info["S"].dim == 0
    ok, info = check_main_decomposition(sl2(3), Analyzer())
    assert ok and info["R"].dim == 0 and info["S"].dim == 3
    ok, info = check_main_decomposition(counterexample_double(2), Analyzer())
    assert not ok
    assert info["reason"] == "phi_subalgebra_not_ideal"
    assert info["witness"].rows == ((0, 0, 1, 0, 0, 1),)


# -- the ideal queries, one dimension at a time ------------------------------


def assert_ideal_queries_match_ideal_list_oracles(L):
    """radical, is_simple, minimal_ideals, first_non_ideal_inside with every
    subalgebra as the space, and check_main_decomposition, which takes S
    from the derived series of the quotient, against the oracles over the
    whole ideal list of EagerLattice."""
    lat, eager = build_lattice(L), EagerLattice(L)
    assert radical(L, lat) == radical_by_ideal_list(L, eager)
    assert is_simple(L, lat) == is_simple_by_ideal_list(L, eager)
    assert minimal_ideals(L, lat) == minimal_ideals_by_ideal_list(eager)
    for space in eager.subalgebras:
        got = lat.first_non_ideal_inside(space)
        assert got == first_non_ideal_inside_by_ideal_list(eager, space)
    az = Analyzer()
    assert check_main_decomposition(L, az) == main_decomposition_by_all_ideals(L, az)


@pytest.mark.parametrize("p", [2, 3])
def test_ideal_queries_match_ideal_list_oracles_on_census(p):
    algebras = [entry.algebra for entry in generate(CensusSpec(p, 3))]
    simple = [is_simple_by_ideal_list(L, EagerLattice(L)) for L in algebras]
    assert any(simple) and not all(simple)
    for L in algebras:
        assert_ideal_queries_match_ideal_list_oracles(L)


def test_ideal_queries_match_ideal_list_oracles_on_gf5_classes():
    """The class representatives of dims 1..3 over GF(5); sl2 is one, and
    its S is the whole quotient."""
    algebras = [rep for n in (1, 2, 3) for _, rep, _ in classes(5, n)]
    for L in algebras:
        assert_ideal_queries_match_ideal_list_oracles(L)
    az = Analyzer()
    details = [check_main_decomposition(L, az)[1] for L in algebras]
    assert any("S" in info and info["S"].dim for info in details)


def test_ideal_queries_match_ideal_list_oracles_on_gf3_class_sums():
    """The sums of two class representatives of dims 1..2 over GF(3)."""
    reps = [rep for n in (1, 2) for _, rep, _ in classes(3, n)]
    for i, left in enumerate(reps):
        for right in reps[i:]:
            assert_ideal_queries_match_ideal_list_oracles(left.direct_sum(right))


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_ideal_queries_match_ideal_list_oracles_dim56(p, left, right):
    L = catalog(left, p)
    if right is not None:
        L = L.direct_sum(catalog(right, p))
    for M in (L, random_conjugate(L, np.random.default_rng(20071230))):
        assert_ideal_queries_match_ideal_list_oracles(M)


def test_classification_report():
    rep = classify_algebra(heisenberg(2))
    assert rep.predicates["c_supplemented"]
    assert rep.predicates["E_algebra"]
    assert not rep.predicates["completely_factorisable"]
    assert not rep.predicates["phi_free"]
    assert rep.witnesses["phi"].dim == 1
    assert rep.lattice_stats["subalgebras"] == 12
    assert not rep.degenerate
    assert classify_algebra(abelian(2, 1)).degenerate


def test_classification_report_unknown_predicate():
    with pytest.raises(ValueError):
        classify_algebra(heisenberg(2), predicates=("bogus",))


def test_classify_cap_and_analyzer():
    L = heisenberg(2)  # 16 subspaces
    with pytest.raises(CapExceededError):
        classify_algebra(L, analyzer=Analyzer(cap=10))
    assert classify_algebra(L, analyzer=Analyzer(cap=100)).predicates


def _report_doc(rep):
    return (rep.predicates, jsonable(rep.witnesses), rep.lattice_stats, rep.degenerate)


def test_classify_builds_each_subalgebra_lattice_once(monkeypatch):
    real = lattice_mod.build_lattice
    phi_free = counterexample_double(3)
    L = heisenberg(2).direct_sum(abelian(2, 2))
    quotient = L.quotient(frattini(L, real(L)))
    built = []

    def counting(L, *args, **kwargs):
        built.append(L)
        return real(L, *args, **kwargs)

    monkeypatch.setattr(lattice_mod, "build_lattice", counting)
    monkeypatch.setattr(classify_mod, "build_lattice", counting)
    # the subalgebras' Frattini ideals come from L's own lattice, so only L
    # and, when phi(L) != 0, L/phi(L) are built
    classify_algebra(phi_free)
    assert built == [phi_free]
    built.clear()
    classify_algebra(L)
    assert built == [L, quotient] and quotient.dim == 4


def test_classify_report_independent_of_analyzer():
    L = counterexample_double(3)
    shared = Analyzer()
    classify_algebra(sl2(3).direct_sum(abelian(3, 1)), analyzer=shared)
    docs = [
        _report_doc(classify_algebra(L)),
        _report_doc(classify_algebra(L, analyzer=Analyzer())),
        _report_doc(classify_algebra(L, analyzer=shared)),
    ]
    assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize(
    "L", [heisenberg(3), sl2(3).direct_sum(abelian(3, 1)), counterexample_double(2)]
)
def test_classify_evaluates_through_the_analyzer_memo(L, monkeypatch):
    az = Analyzer()
    report = classify_algebra(L, analyzer=az)
    underlying = {
        "frattini": "frattini",
        "c_supplemented": "is_c_supplemented_algebra",
        "completely_factorisable": "is_completely_factorisable",
        "elementary": "is_elementary",
        "e_algebra": "is_E_algebra",
        "radical": "radical",
        "simple": "is_simple",
        "semisimple_shape": "check_semisimple_shape",
        "main_decomposition": "check_main_decomposition",
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a predicate was evaluated outside the memo")

    for fn in underlying.values():
        monkeypatch.setattr(classify_mod, fn, refuse)
    for method in underlying:
        getattr(az, method)(L)  # a memo hit, or the refusal above
    assert report.predicates["c_supplemented"] == az.c_supplemented(L)[0]
    assert report.predicates["semisimple"] == (az.radical(L).dim == 0)


def test_lru_keeps_the_newest_entries():
    lru = _LRU(2)
    lru["a"], lru["b"] = 1, 2
    assert lru.get("a") == 1  # now the newest
    lru["c"] = 3
    assert list(lru) == ["a", "c"]
    assert lru.get("b", "gone") == "gone"


def _verify_docs(make_analyzer):
    docs = {}
    for theorem in sorted(CHECKERS):
        doc = verify(theorem, CensusSpec(2, 3), analyzer=make_analyzer()).to_doc()
        doc.pop("timing")
        docs[theorem] = doc
    return docs


def test_memo_bound_keeps_verdicts(monkeypatch):
    """With LATTICE_SLOTS at 4 every campaign's documents equal the default
    ones, the store never passes its bound and reaches it, and a verdict is
    dropped with its lattice: computed again once four other lattices were
    stored after it."""
    default = _verify_docs(Analyzer)
    monkeypatch.setattr(classify_mod, "LATTICE_SLOTS", 4)
    real_set = _LRU.__setitem__
    sizes = []

    def recording(lru, key, value):
        real_set(lru, key, value)
        sizes.append((lru.total, lru.bound))

    monkeypatch.setattr(_LRU, "__setitem__", recording)
    analyzers = []

    def small():
        analyzers.append(Analyzer())
        return analyzers[-1]

    assert _verify_docs(small) == default
    assert all(total <= bound for total, bound in sizes)
    for az in analyzers:
        assert az._lattices.bound == 4
    # the bound was reached, so lattices, and their verdicts, were dropped
    assert max(len(az._lattices) for az in analyzers) == 4
    az, L = Analyzer(), heisenberg(3)
    calls = []
    real = classify_mod.is_c_supplemented_algebra
    monkeypatch.setattr(
        classify_mod, "is_c_supplemented_algebra", lambda *a: calls.append(1) or real(*a)
    )
    verdict = az.c_supplemented(L)
    assert az.lattice(L).verdicts == {"csupp": verdict}
    assert az.c_supplemented(L) == verdict and len(calls) == 1
    for other in (abelian(3, 1), abelian(3, 2), nonabelian2(3), sl2(3)):
        az.lattice(other)
    assert L.key not in az._lattices
    assert az.c_supplemented(L) == verdict and len(calls) == 2


@lru_cache(maxsize=2)
def _census_algebras(p):
    return [entry.algebra for entry in generate(CensusSpec(p, 3))]


@given(
    p=st.sampled_from([2, 3]),
    index=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_classification_invariant_under_basis_change(p, index, seed):
    algebras = _census_algebras(p)
    L = algebras[index % len(algebras)]
    M = random_conjugate(L, np.random.default_rng(seed))
    before, after = classify_algebra(L), classify_algebra(M)
    assert after.predicates == before.predicates
    assert after.lattice_stats == before.lattice_stats
    assert after.witnesses["phi"].dim == before.witnesses["phi"].dim


# -- the structural sl2 test ------------------------------------------------


def _sl2_orbit_equals_perfect_tables(p):
    """Plain numpy: the Jacobi-valid 3-dim tables over GF(p) whose bracket
    matrix (rows [e0,e1], [e0,e2], [e1,e2]) is invertible are exactly the
    tables of sl2(p) in every basis of GF(p)^3.  Tables are coded as census
    indices (9 digits, pair-major, most significant first)."""
    pairs = np.array([(0, 1), (0, 2), (1, 2)])
    weights = p ** np.arange(8, -1, -1, dtype=np.int64)
    batch = 1 << 16

    def det3(m):
        return (
            m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0])
        ) % p

    def digits_of(idx, width):
        return (idx[:, None] // p ** np.arange(width - 1, -1, -1)) % p

    perfect = []
    for lo in range(0, p**9, batch):
        idx = np.arange(lo, min(lo + batch, p**9), dtype=np.int64)
        brk = digits_of(idx, 9).reshape(-1, 3, 3)
        # in dimension 3 the Jacobiator is alternating, so the identity is
        # J(e0, e1, e2) = [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] = 0
        c = np.zeros((len(idx), 3, 3, 3), dtype=np.int64)
        c[:, pairs[:, 0], pairs[:, 1]] = brk
        c[:, pairs[:, 1], pairs[:, 0]] = -brk
        jac = sum(
            np.einsum("ba,bam->bm", c[:, i, j], c[:, :, k])
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
        )
        ok = ~(jac % p).any(axis=1) & (det3(brk) != 0)
        perfect.append(idx[ok])
    perfect = np.concatenate(perfect)

    c = sl2(p).table
    orbit = []
    for lo in range(0, p**9, batch):
        T = digits_of(np.arange(lo, min(lo + batch, p**9), dtype=np.int64), 9)
        T = T.reshape(-1, 3, 3)
        det = det3(T)
        T, det = T[det != 0], det[det != 0]
        r0, r1, r2 = T[:, 0], T[:, 1], T[:, 2]
        adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=2)
        inv_det = np.array([pow(int(d), p - 2, p) for d in range(p)])[det]
        t_inv = adj * inv_det[:, None, None] % p
        # f_i = sum_a T[i, a] e_a; [f_i, f_j] in e-coordinates, then in f
        rows = [
            np.einsum("bv,bvm->bm", T[:, j], np.einsum("bu,uvm->bvm", T[:, i], c))
            for i, j in pairs
        ]
        new = np.stack([np.einsum("bm,bmk->bk", r, t_inv) % p for r in rows], 1)
        orbit.append(new.reshape(len(T), 9) @ weights)
    orbit = np.unique(np.concatenate(orbit))
    return len(perfect), len(orbit), np.array_equal(np.sort(perfect), orbit)


@pytest.mark.parametrize("p,count", [(3, 468), (5, 12_400)])
def test_perfect_dim3_tables_are_the_sl2_orbit(p, count):
    assert _sl2_orbit_equals_perfect_tables(p) == (count, count, True)


@pytest.mark.parametrize(
    "base",
    [sl2(3), sl2(5), sl2(7), sl2(3).direct_sum(sl2(3))],
    ids=["sl2/GF(3)", "sl2/GF(5)", "sl2/GF(7)", "sl2+sl2/GF(3)"],
)
def test_semisimple_shape_agrees_with_brute_force(base):
    rng = np.random.default_rng(base.p * 100 + base.dim)
    for L in [base] + [random_conjugate(base, rng) for _ in range(3)]:
        lat = build_lattice(L)
        ok, info = check_semisimple_shape(L, lat)
        assert ok and len(info["summands"]) == L.dim // 3
        assert sl2_summands_by_isomorphism(L, lat)


@pytest.mark.parametrize(
    "L",
    [
        L1_gamma(2, gamma0=0),
        L1_gamma(2, gamma0=1),
        heisenberg(3),
        heisenberg(5),
        sl2(2),
        sl2(2).direct_sum(sl2(2)),
        counterexample_L1(3),
    ],
)
def test_semisimple_shape_refusals_unchanged(L):
    ok, info = _shape(L)
    assert not ok
    if L.p == 2:
        assert info["reason"] == "characteristic two"
    else:
        assert not sl2_summands_by_isomorphism(L, build_lattice(L))


def test_semisimple_shape_makes_no_isomorphism_search():
    # the brute-force search lives only in the test oracles
    names = [info.name for info in pkgutil.iter_modules(liesupp.__path__)]
    assert "classify" in names
    for mod in [liesupp] + [importlib.import_module(f"liesupp.{n}") for n in names]:
        assert not hasattr(mod, "is_isomorphic_small")
        assert not hasattr(mod, "canonical_form_small")
    assert _shape(sl2(7))[0]
    assert classify_algebra(sl2(3).direct_sum(sl2(3))).predicates["semisimple_shape"]


# -- one supplement search --------------------------------------------------


@pytest.mark.parametrize("p,max_dim", [(2, 3), (3, 2)])
def test_c_supplemented_matches_oracle_on_census(p, max_dim):
    for entry in generate(CensusSpec(p, max_dim)):
        L = entry.algebra
        lat = build_lattice(L)
        ok, failing = is_c_supplemented_algebra(L, lat)
        expected = first_unsupplemented(L, EagerLattice(L))
        assert ok == (expected is None)
        assert failing == expected


def test_c_supplemented_matches_oracle_on_examples():
    for L in (counterexample_double(2), L1_gamma(2, gamma0=0), sl2(3)):
        lat = build_lattice(L)
        assert is_c_supplemented_algebra(L, lat)[1] == first_unsupplemented(L, EagerLattice(L))


def test_supplement_witness_core_is_the_core(monkeypatch):
    """The witness `liesupp check --subspace` reports for a supplement C of
    b: b meet C and core(b), which holds the meet, and is the meet where C
    is not a complement.  c_supplement runs with core refused in lattice
    and classify: it reads the core from the ideal masks."""
    L = counterexample_double(3)
    eager = EagerLattice(L)
    cores = {}
    for b in eager.subalgebras:
        cores[b] = core(L, b)
        assert cores[b] == core_by_enumeration(L, b, eager)

    def refuse(*args, **kwargs):
        raise AssertionError("core called")

    monkeypatch.setattr(lattice_mod, "core", refuse)
    monkeypatch.setattr(classify_mod, "core", refuse, raising=False)
    lat = build_lattice(L)
    found = Counter()
    for b in eager.subalgebras:
        c = c_supplement(L, lat, b)
        if c is not None:
            assert b.sum(c).dim == L.dim
            assert cores[b].contains(b.intersect(c))
            if c.dim > L.dim - b.dim:
                assert b.intersect(c) == cores[b]
            found[c.dim > L.dim - b.dim] += 1
    assert found[True] and found[False]


# -- supplement search by Plücker pairing -----------------------------------


def assert_supplements_match_oracles(L):
    """c_supplement and complement_subalgebra on every subalgebra, and the
    witnesses of is_c_supplemented_algebra and is_completely_factorisable,
    against the per-candidate row-reduction oracles: the witness against
    core_supplement_by_sums, its existence against c_supplement_by_sums,
    which tries every candidate of every dimension.  A witness that is not
    a complement meets b in exactly the core of b.  The core test on a
    nonzero ideal row, with or without a complement, gives L: the ideal is
    its own core, so the B' it pairs is 0 and the one candidate is L."""
    lat = build_lattice(L)
    eager = EagerLattice(L)
    whole = Subspace.full(L.dim, L.p)
    for k, subs in eager.by_dim.items():
        for row, b in enumerate(subs):
            if k and L.is_ideal(b):
                assert lat.core_supplement(k, row) == whole
    unsupplemented, uncomplemented = [], []
    for b in eager.subalgebras:
        c = c_supplement(L, lat, b)
        assert c == core_supplement_by_sums(L, eager, b)
        assert (c is None) == (c_supplement_by_sums(L, eager, b) is None)
        # core_supplement_by_sums returns complement_by_sums when it finds
        # one, and a larger subalgebra otherwise
        complement = c if c is not None and c.dim == L.dim - b.dim else None
        if complement is None and c is not None:
            assert b.intersect(c) == core_by_enumeration(L, b, eager)
        assert complement_subalgebra(L, lat, b) == complement
        if c is None:
            unsupplemented.append(b)
        if complement is None:
            uncomplemented.append(b)
    first = unsupplemented[0] if unsupplemented else None
    assert is_c_supplemented_algebra(L, lat) == (first is None, first)
    first = uncomplemented[0] if uncomplemented else None
    assert is_completely_factorisable(L, lat) == (first is None, first)


@pytest.mark.parametrize("p,max_dim", [(2, 3), (3, 2)])
def test_supplements_match_oracles_on_census(p, max_dim):
    for entry in generate(CensusSpec(p, max_dim)):
        assert_supplements_match_oracles(entry.algebra)


@lru_cache(maxsize=1)
def gf2_pair_sums():
    """Every ordered direct sum that the GF(2) dims <= 3 pair campaigns
    (ldsum and csupp_dsum, deduplicated by isomorphism) examine."""
    az = Analyzer()
    sums = {}
    for hypothesis in (az.completely_factorisable, az.c_supplemented):
        members = {}
        for entry in generate(CensusSpec(2, 3)):
            if hypothesis(entry.algebra)[0]:
                canon = canonical_form_small(entry.algebra)
                members.setdefault(canon.key, canon)
        for a in members.values():
            for b in members.values():
                d = a.direct_sum(b)
                sums.setdefault(d.key, d)
    return tuple(sums.values())


def test_supplements_match_oracles_on_gf2_pair_sums():
    sums = gf2_pair_sums()
    # the 6 x 6 ldsum pairs lie among the 8 x 8 csupp_dsum pairs, and
    # sums such as a + b and b + a of abelian summands share a table
    assert len(sums) == 58
    for L in sums:
        assert_supplements_match_oracles(L)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_supplements_match_oracles_dim56(p, left, right):
    L = catalog(left, p)
    if right is not None:
        L = L.direct_sum(catalog(right, p))
    for M in (L, random_conjugate(L, np.random.default_rng(20071217))):
        assert_supplements_match_oracles(M)


def _dim56_both_bases():
    out = []
    for p, left, right in DIM56_SUMS:
        L = catalog(left, p)
        if right is not None:
            L = L.direct_sum(catalog(right, p))
        out += [L, random_conjugate(L, np.random.default_rng(20071217))]
    return out


FIRST_COMPLEMENT_UNIVERSES = {
    "census_gf2": lambda: _census_algebras(2),
    "census_gf3": lambda: _census_algebras(3),
    "gf2_pair_sums": gf2_pair_sums,
    "dim56": _dim56_both_bases,
    "abelian_gf2_6": lambda: [abelian(2, 6)],
}


def _built(L):
    """A lattice of L with every dimension computed, in blocks of the
    default size: a test that shrinks _BLOCK afterwards runs only the
    searches it checks in the small blocks, not the closure test."""
    lat = build_lattice(L)
    lat._computed()
    return lat


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("universe", sorted(FIRST_COMPLEMENT_UNIVERSES))
def test_first_complements_match_sums(universe, block, monkeypatch):
    """The first-complement table of every dimension equals
    complement_by_sums on every subalgebra, also with pairing blocks of
    one row, and is_completely_factorisable reports its first -1."""
    for L in FIRST_COMPLEMENT_UNIVERSES[universe]():
        lat = _built(L)
        expected = first_complements_by_sums(L)
        dims = range(L.dim + 1)
        with monkeypatch.context() as patch:
            if block is not None:
                patch.setattr(lattice_mod, "_BLOCK", block)
            got = [lat.first_complements(k).tolist() for k in dims]
            assert got == [expected.get(k, []) for k in dims]
            missing = [
                lat.member(k, r) for k, c in expected.items() for r, j in enumerate(c) if j < 0
            ]
            first = missing[0] if missing else None
            assert is_completely_factorisable(L, lat) == (first is None, first)


@pytest.mark.parametrize("columns,block", [(1, None), (3, 6)])
@pytest.mark.parametrize("universe", ["census_gf2", "census_gf3", "gf2_pair_sums"])
def test_first_complements_in_small_column_blocks(universe, columns, block, monkeypatch):
    """The complement search with column blocks of one and of three
    candidates (_BLOCK at 1 and at 9, whose isqrt is the width; and, with 6
    pairings a row chunk, two rows a chunk) answers every dimension as
    complement_by_sums does, for all its rows and for every other row,
    taken in descending order: each row's least complement is its first hit
    in the first block where it has one."""
    for L in FIRST_COMPLEMENT_UNIVERSES[universe]():
        lat = _built(L)
        expected = first_complements_by_sums(L)
        with monkeypatch.context() as patch:
            patch.setattr(lattice_mod, "_BLOCK", columns**2)
            if block is not None:
                patch.setattr(lattice_mod, "_block_rows", lambda per_row: max(1, block // per_row))
            for k, want in expected.items():
                assert lat.first_complements(k).tolist() == want
                rows = np.arange(len(want))[::-2]
                assert lat.first_complements(k, rows).tolist() == [want[r] for r in rows]


# the shape arrays of these algebras sit at the dtype edges of
# test_lattice.DTYPE_EDGES: uint8 over GF(11) and GF(251), uint16 over GF(257)
DTYPE_EDGE_ALGEBRAS = {
    "sl2/GF(11)": lambda: sl2(11),
    "heisenberg/GF(11)": lambda: heisenberg(11),
    "nonabelian2/GF(251)": lambda: catalog("nonabelian2", 251),
    "nonabelian2/GF(257)": lambda: catalog("nonabelian2", 257),
}


@pytest.mark.parametrize("name", sorted(DTYPE_EDGE_ALGEBRAS))
def test_supplements_match_oracles_at_the_dtype_edges(name):
    L = DTYPE_EDGE_ALGEBRAS[name]()
    assert_supplements_match_oracles(L)
    lat = build_lattice(L)
    expected = first_complements_by_sums(L)
    assert {k: lat.first_complements(k).tolist() for k in expected} == expected


def test_dim8_gf2_sum_c_supplemented_in_bounded_memory(monkeypatch):
    """abelian(4) + heisenberg + abelian(1) over GF(2), of dim 8 with
    417,199 subspaces, is c-supplemented.  From empty shape caches, so that
    every shape array it reads is built inside the trace, the verdict
    peaks at about 63 MB traced: the arrays are uint8, every shape of
    GF(2)^8 is kept, and the complement search pairs the non-ideal rows
    alone, each until its first hit.  With int64 arrays rebuilt per
    lattice and every row paired with every candidate it peaked at 419
    MB."""
    monkeypatch.setattr(subspace_mod, "_SHAPES", _LRU(ECHELON_CACHE_TOTAL, _nbytes))
    L = abelian(2, 4).direct_sum(heisenberg(2)).direct_sum(abelian(2, 1))
    tracemalloc.start()
    try:
        verdict = is_c_supplemented_algebra(L, build_lattice(L))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == (True, None)
    assert peak < 96 * 2**20

# -- c-supplementation by core, one dimension at a time -----------------------


def _with_conjugates(algebras, seed):
    rng = np.random.default_rng(seed)
    return [M for L in algebras for M in (L, random_conjugate(L, rng))]


UNSUPPLEMENTED_UNIVERSES = {
    "census_gf2": lambda: _with_conjugates(_census_algebras(2), 20071301),
    "census_gf3": lambda: _with_conjugates(_census_algebras(3), 20071302),
    "gf2_pair_sums": lambda: _with_conjugates(gf2_pair_sums(), 20071303),
    "dim56": _dim56_both_bases,
}


def assert_unsupplemented_rows_match(L, oracle=True, block=None):
    """LatticeCache.unsupplemented(k) lists exactly the rows of dimension k
    for which c_supplement finds nothing, and (with oracle) for which the
    per-candidate row-reduction oracle finds nothing either.  With block,
    both run with _BLOCK at that value."""
    lat = _built(L)
    eager = EagerLattice(L)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(lattice_mod, "_BLOCK", block)
        for k, subs in eager.by_dim.items():
            missing = [r for r, b in enumerate(subs) if c_supplement(L, lat, b) is None]
            assert lat.unsupplemented(k).tolist() == missing
            if oracle:
                assert missing == [
                    r for r, b in enumerate(subs) if c_supplement_by_sums(L, eager, b) is None
                ]


@pytest.mark.parametrize("universe", sorted(UNSUPPLEMENTED_UNIVERSES))
def test_unsupplemented_rows_match_oracles(universe):
    for L in UNSUPPLEMENTED_UNIVERSES[universe]():
        assert_unsupplemented_rows_match(L)


def test_unsupplemented_rows_in_small_blocks():
    """Pairing blocks of one (subalgebra, candidate) pair and of a few
    pairs: with 200 values the candidates of 22 of the 26 core groups of
    these algebras span several blocks, and in 14 some block holds pairs
    of two subalgebras."""
    for block in (1, 200):
        for L in _dim56_both_bases():
            assert_unsupplemented_rows_match(L, oracle=False, block=block)


def test_unsupplemented_takes_all_three_branches(monkeypatch):
    """Over DIM56_SUMS and the GF(2) pair sums, some non-ideal subalgebras
    without a complement have core 0 (no supplement, no pairing), and of
    those with a nonzero core the B' pairing of a core group finds a
    supplement for some and none for others."""
    taken = Counter()
    in_core = []
    real_core, real_hits = lattice_mod._core_supplements, lattice_mod._first_hits

    def core_spy(*args):
        in_core.append(True)
        try:
            return real_core(*args)
        finally:
            in_core.pop()

    def spy(lattice, pu, d, columns):
        out = real_hits(lattice, pu, d, columns)
        if in_core:
            assert np.isin(out, np.append(columns, -1)).all()
            taken["supplemented"] += int((out >= 0).sum())
            taken["unsupplemented"] += int((out < 0).sum())
        return out

    monkeypatch.setattr(lattice_mod, "_core_supplements", core_spy)
    monkeypatch.setattr(lattice_mod, "_first_hits", spy)
    tested = 0
    for L in _dim56_both_bases() + list(gf2_pair_sums()):
        lat = build_lattice(L)
        for k in range(L.dim + 1):
            lat.unsupplemented(k)
            tested += int(((lat.first_complements(k) < 0) & ~lat._dim(k).ideal).sum())
    assert taken["supplemented"] and taken["unsupplemented"]
    assert tested > taken["supplemented"] + taken["unsupplemented"]  # core 0


def test_c_supplemented_calls_neither_c_supplement_nor_core(monkeypatch):
    """The verdict comes from LatticeCache.unsupplemented alone, on a
    c-supplemented algebra and on a sum that fails csupp_dsum over GF(2)
    (T + T, T: [e0, e2] = e1, [e1, e2] = e0)."""

    def refuse(*args, **kwargs):
        raise AssertionError("c_supplement or core called")

    t = LieAlgebra(PrimeField(2), 3, {(0, 2): (0, 1, 0), (1, 2): (1, 0, 0)})
    cases = [heisenberg(2).direct_sum(heisenberg(2)), t.direct_sum(t)]
    expected = [is_c_supplemented_algebra(L, build_lattice(L)) for L in cases]
    assert expected[0] == (True, None) and not expected[1][0]
    monkeypatch.setattr(classify_mod, "c_supplement", refuse)
    monkeypatch.setattr(classify_mod, "core", refuse, raising=False)
    monkeypatch.setattr(lattice_mod, "core", refuse)
    assert [Analyzer().c_supplemented(L) for L in cases] == expected


# -- Frattini ideals of subalgebras from the ambient lattice ------------------

# shared by the oracle calls, so that each distinct subalgebra table has its
# lattice and Frattini ideal built once
PHI_ORACLE_AZ = Analyzer()


def assert_phis_match_oracles(L):
    """subalgebra_phis against the per-subalgebra lattices of the oracle, on
    every subalgebra; the witnesses of is_elementary and is_E_algebra and
    the phi-subalgebra witness against loops over the oracle's answers."""
    lat = build_lattice(L)
    eager = EagerLattice(L)
    expected = subalgebra_phis_by_sublattices(L, eager, PHI_ORACLE_AZ)
    assert list(lat.subalgebra_phis().items()) == nonzero_phis(expected)
    pairs = [(b, phi_b) for k, subs in eager.by_dim.items() for b, phi_b in zip(subs, expected[k])]
    first = next((b for b, phi_b in pairs if phi_b.dim), None)
    assert is_elementary(L, lat) == (first is None, first)
    phi_l = frattini(L, lat)
    first = next((b for b, phi_b in pairs if not phi_l.contains(phi_b)), None)
    assert is_E_algebra(L, lat) == (first is None, first)
    assert lat.first_non_ideal_inside(phi_l) == phi_subalgebra_not_ideal_by_sublattice(L, phi_l)


@pytest.mark.parametrize("p", [2, 3])
def test_subalgebra_phis_match_sublattice_oracle_on_census(p):
    for entry in generate(CensusSpec(p, 3)):
        assert_phis_match_oracles(entry.algebra)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_subalgebra_phis_match_sublattice_oracle_dim56(p, left, right):
    L = catalog(left, p)
    if right is not None:
        L = L.direct_sum(catalog(right, p))
    for M in (L, random_conjugate(L, np.random.default_rng(20071219))):
        assert_phis_match_oracles(M)


def test_subalgebra_phis_match_sublattice_oracle_heisenberg_sum():
    # 9,564 subalgebras, of which 1,837 have phi(B) != 0
    assert_phis_match_oracles(heisenberg(2).direct_sum(abelian(2, 4)))


def test_subalgebra_phis_match_sublattice_oracle_in_blocks_of_one(monkeypatch):
    """One top and one member row per block of the maximal scan."""
    monkeypatch.setattr(lattice_mod, "_BLOCK", 1)
    L = catalog("L1_gamma", 2).direct_sum(catalog("L1_gamma", 2))
    assert_phis_match_oracles(random_conjugate(L, np.random.default_rng(20071227)))


def _meet_of_maximals(lat, b):
    """Oracle F(B): the intersection of the maximal subalgebras of b, found
    by comparing all pairs of the members of lat inside b."""
    f = b
    inside = [lat.member(d, r) for d in range(b.dim + 1) for r in lat.rows_inside(d, b)]
    for m in maximal_subalgebras_all_pairs(inside, b.dim):
        f = f.intersect(m)
    return f


def test_subalgebra_phis_scan_once_per_dimension(monkeypatch):
    """subalgebra_phis runs one maximal scan per dimension 3 <= k < n that
    has a subalgebra with a nonzero induced table, with the first
    subalgebra of each distinct table as its tops, and takes phi(L) from
    the one scan with the top L that maximals and frattini share.  It calls
    core within a top B exactly where F(B) is neither 0 nor an ideal of B,
    and core on L once, for frattini, however often phi(L) is read."""
    L = random_conjugate(catalog("counterexample_double", 3), np.random.default_rng(20071228))
    n = L.dim
    lat = build_lattice(L)
    firsts = {}  # dim k -> {nonzero table: first dim-k subalgebra with it}
    for b in EagerLattice(L).subalgebras:
        table = L.as_algebra(b).table
        if table.any():
            firsts.setdefault(b.dim, {}).setdefault(table.tobytes(), b)
    scanned = [k for k in firsts if 2 < k < n]
    expected_scans = [(n, 1)] + [(k, len(firsts[k])) for k in scanned]
    expected_cores = Counter({(_meet_of_maximals(lat, lat.member(n, 0)), None): 1})
    for b in (b for k in scanned for b in firsts[k].values()):
        f = _meet_of_maximals(lat, b)
        if f.dim and not all(f.member(L.bracket(x, y)) for x in f.rows for y in b.rows):
            expected_cores[f, b] += 1
    scans, cores = [], Counter()
    real_scan, real_core = lattice_mod._maximal_masks, lattice_mod.core

    def scan(arrays, tops, n, p):
        scans.append((n - tops.shape[2], len(tops)))
        return real_scan(arrays, tops, n, p)

    def spy_core(L, b, within=None):
        cores[b, within] += 1
        return real_core(L, b, within)

    monkeypatch.setattr(lattice_mod, "_maximal_masks", scan)
    monkeypatch.setattr(lattice_mod, "core", spy_core)
    phis = lat.subalgebra_phis()
    assert lat.maximals and phis[n, 0] == frattini(L, lat)  # phi(L) != 0 here
    assert sorted(scans) == sorted(expected_scans)
    assert cores == expected_cores


def test_subalgebra_phis_take_both_branches_of_the_ideal_test(monkeypatch):
    """Over DIM56_SUMS, F(B) of some tops B is an ideal of B and is phi(B)
    with no core call, and that of others is not and goes through core;
    assert_phis_match_oracles checks the answers of both."""
    taken = Counter()
    real_ideal, real_core = lattice_mod._ideal_of, lattice_mod.core

    def spy_ideal(L, bases, checks, within):
        out = real_ideal(L, bases, checks, within)
        taken["shortcut"] += int(out.sum())
        return out

    def spy_core(L, b, within=None):
        taken["fallback"] += within is not None
        return real_core(L, b, within)

    monkeypatch.setattr(lattice_mod, "_ideal_of", spy_ideal)
    monkeypatch.setattr(lattice_mod, "core", spy_core)
    for p, left, right in DIM56_SUMS:
        L = catalog(left, p)
        build_lattice(L if right is None else L.direct_sum(catalog(right, p))).subalgebra_phis()
    assert taken["shortcut"] and taken["fallback"]


def test_abelian_gf2_7_is_elementary_and_E():
    # 29,212 subalgebras, every induced table zero
    L = abelian(2, 7)
    lat = build_lattice(L)
    assert is_elementary(L, lat) == (True, None)
    assert is_E_algebra(L, lat) == (True, None)


def test_subalgebra_phis_of_an_abelian_algebra_compute_no_dimension():
    """Every phi(B) of an abelian algebra is 0, so the map is empty and is
    answered before any dimension of the lattice is computed."""
    lat = build_lattice(abelian(2, 6))
    assert lat.subalgebra_phis() == {}
    assert not lat._dims


def test_E_algebra_with_zero_phi_fails_at_the_first_entry():
    """GF(2) dim-4 class t = 8728 has phi(L) = 0, so the map has no entry
    (n, 0) and its first entry, a 3-dimensional B with phi(B) != 0, is the
    witness of is_E_algebra, as the loop over the oracle's answers finds."""
    table = census_mod._tables_from_indices(np.array([8728]), 4, 2)[0]
    L = LieAlgebra(PrimeField(2), 4, table=table)
    lat = build_lattice(L)
    assert frattini(L, lat).dim == 0 and (4, 0) not in lat.subalgebra_phis()
    witness = Subspace.span([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], 4, 2)
    assert is_E_algebra(L, lat) == (False, witness)
    assert_phis_match_oracles(L)


def test_subalgebra_phis_build_no_subalgebra_lattice(monkeypatch):
    L = counterexample_double(3)
    lat = build_lattice(L)
    expected = subalgebra_phis_by_sublattices(L, EagerLattice(L), Analyzer())

    def refuse(*args, **kwargs):
        raise AssertionError("a subalgebra lattice was built")

    monkeypatch.setattr(lattice_mod, "build_lattice", refuse)
    monkeypatch.setattr(classify_mod, "build_lattice", refuse)
    monkeypatch.setattr(LieAlgebra, "as_algebra", refuse)
    phis = lat.subalgebra_phis()
    assert list(phis.items()) == nonzero_phis(expected)
    assert lat.subalgebra_phis() is phis  # memoised on the lattice
    assert not is_elementary(L, lat)[0]
    assert is_E_algebra(L, lat)[0]
