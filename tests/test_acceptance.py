"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with -s)
and enforces its wall-clock budget.
"""
import time

from liesupp.census import CensusSpec, generate, verify
from liesupp.classify import (
    Analyzer,
    check_main_decomposition,
    check_semisimple_shape,
    classify_algebra,
    is_c_supplemented_algebra,
)
from liesupp.formats import algebra_from_doc, algebra_to_doc
from liesupp.lattice import (
    build_lattice,
    core,
    frattini,
    is_supersolvable,
    radical,
)
from liesupp.liealg import (
    L1_gamma,
    counterexample_L1,
    counterexample_double,
    heisenberg,
    sl2,
)
from liesupp.subspace import Subspace, gaussian_binomial
from oracles import (
    EagerLattice,
    canonical_form_small,
    core_by_enumeration,
    enumerate_subspaces,
    flag_search_supersolvable,
)

AZ = Analyzer()

CAMPAIGN_IDS = ("lsupp_closure", "pfrat", "cE", "pequ", "tsolv", "tsupp")


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_catalog_facts():
    start = time.monotonic()
    for p in (2, 3, 5):
        t0 = time.monotonic()
        h = heisenberg(p)
        rep = classify_algebra(h, analyzer=AZ)
        assert rep.predicates["c_supplemented"]
        assert rep.predicates["E_algebra"]
        assert not rep.predicates["completely_factorisable"]
        assert not rep.predicates["phi_free"]
        phi = rep.witnesses["phi"]
        assert phi.dim == 1
        assert phi == h.product_space(Subspace.full(3, p), Subspace.full(3, p))
        assert time.monotonic() - t0 < 1.0
    _report(1, f"nilpotent catalog facts for p in (2,3,5) in {time.monotonic()-start:.2f}s")


def test_criterion_2_counterexample_reproduction():
    start = time.monotonic()
    for p in (2, 3):
        l1 = counterexample_L1(p)
        phi = frattini(l1, build_lattice(l1))
        assert phi.rows == ((0, 0, 1),)  # span(z)
        assert is_c_supplemented_algebra(l1, build_lattice(l1))[0]
        d = counterexample_double(p)
        ok, failing = is_c_supplemented_algebra(d, build_lattice(d))
        assert not ok
        assert failing.rows == ((0, 0, 1, 0, 0, 1),)  # span(z + c)
        ok, info = check_main_decomposition(d, Analyzer())
        assert not ok and info["reason"] == "phi_subalgebra_not_ideal"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"double-copy counterexample reproduced for p in (2,3) in {elapsed:.2f}s")


def test_criterion_3_simple_semisimple():
    start = time.monotonic()
    for p in (3, 5):
        rep = classify_algebra(sl2(p), analyzer=AZ)
        assert rep.predicates["simple"]
        assert rep.predicates["c_supplemented"]
        assert rep.predicates["completely_factorisable"]
    g = L1_gamma(2, gamma0=0)
    assert not is_c_supplemented_algebra(g, build_lattice(g))[0]
    gf3_elapsed = time.monotonic() - start
    assert gf3_elapsed < 60.0
    big = sl2(3).direct_sum(sl2(3))
    lat = build_lattice(big)
    ok, info = check_semisimple_shape(big, lat)
    assert ok and len(info["summands"]) == 2
    assert is_c_supplemented_algebra(big, lat)[0]
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    _report(3, f"simple/semisimple classification incl. 6-dim sum in {elapsed:.2f}s")


def test_criterion_4_exhaustive_campaigns():
    start = time.monotonic()
    examined = {2: None, 3: None}
    for p, candidates in ((2, 512), (3, 19683)):
        spec = CensusSpec(p, 3)
        for theorem_id in CAMPAIGN_IDS:
            log = verify(theorem_id, spec, analyzer=AZ)
            assert log.confirmed, f"{theorem_id} refuted over GF({p})"
            if examined[p] is None:
                examined[p] = log.examined
            assert log.examined == examined[p]
        assert examined[p] > 0
        # the universe really was carved out of the full candidate grid
        from liesupp.census import candidate_count

        assert candidate_count(spec) >= candidates
    elapsed = time.monotonic() - start
    assert elapsed < 1800.0
    _report(
        4,
        f"6 campaigns x ({examined[2]} GF(2) + {examined[3]} GF(3)) algebras, "
        f"0 counterexamples, in {elapsed:.1f}s",
    )


def test_criterion_5_false_conjecture_detected():
    log = verify("csupp_dsum", CensusSpec(2, 3), analyzer=AZ)
    assert not log.confirmed
    assert len(log.counterexamples) >= 1
    # every hit is replayable from its document
    for cx in log.counterexamples:
        d = algebra_from_doc(cx["algebra"])
        assert not is_c_supplemented_algebra(d, build_lattice(d))[0]
    # the double-copy algebra is among the hits: both summands are in the
    # isomorphism class of its 3-dimensional building block
    target = algebra_to_doc(canonical_form_small(counterexample_L1(2)))
    assert any(cx["summands"] == [target, target] for cx in log.counterexamples)
    d = counterexample_double(2)
    assert not is_c_supplemented_algebra(d, build_lattice(d))[0]
    _report(
        5,
        f"direct-sum conjecture refuted with {len(log.counterexamples)} "
        "replayable counterexamples incl. the double-copy algebra",
    )


def test_criterion_6_oracle_equivalences():
    # (a) fixpoint core == enumeration core; (b) chain walk == flag search;
    # (c) radical is the unique maximal solvable ideal
    checked = 0
    for entry in generate(CensusSpec(2, 3)):
        L = entry.algebra
        lat = build_lattice(L)
        eager = EagerLattice(L)
        for b in eager.subalgebras:
            assert core(L, b) == core_by_enumeration(L, b, eager)
            checked += 1
        assert is_supersolvable(L, lat) == flag_search_supersolvable(L, eager)
        r = radical(L, lat)
        assert L.is_ideal(r)
        sub = L.as_algebra(r)
        assert sub.is_solvable()
        for i in eager.ideals:
            isub = L.as_algebra(i)
            if isub.is_solvable():
                assert r.contains(i)
    # (d) per-dimension subspace counts == Gaussian binomials
    for n, p in ((3, 2), (4, 2), (3, 3)):
        per_dim = {}
        for s in enumerate_subspaces(n, p):
            per_dim[s.dim] = per_dim.get(s.dim, 0) + 1
        for k in range(n + 1):
            assert per_dim.get(k, 0) == gaussian_binomial(n, k, p)
    _report(6, f"all four oracle equivalences hold ({checked} core comparisons)")


def test_criterion_7_determinism():
    spec = CensusSpec(2, 3)
    for theorem_id in ("tsupp", "csupp_dsum"):
        docs = []
        for _ in range(2):
            d = verify(theorem_id, spec).to_doc()
            d.pop("timing")
            docs.append(d)
        assert docs[0] == docs[1]
    reps = []
    for _ in range(2):
        rep = classify_algebra(counterexample_double(2))
        reps.append((rep.predicates, [s.rows for s in [rep.witnesses["phi"]]]))
    assert reps[0] == reps[1]
    _report(7, "verification and classification reports are byte-stable modulo timing")
