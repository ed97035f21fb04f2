import itertools
from collections import Counter

import pytest

import liesupp.census as census_mod
from liesupp.census import (
    CHECKERS,
    CensusSpec,
    PAIR_THEOREMS,
    candidate_count,
    generate,
    table_digit_count,
    verify,
)
from liesupp.classify import Analyzer, canonical_form_small
from liesupp.formats import algebra_to_doc
from liesupp.gfp import ModulusTooLargeError, PrimeField
from liesupp.liealg import counterexample_L1
from liesupp.subspace import CapExceededError
from oracles import census_by_index


def brute_force_jacobi_count(n, p):
    """Oracle: count antisymmetric tables satisfying Jacobi, checked by direct
    triple-loop evaluation of [[x,y],z] + [[y,z],x] + [[z,x],y] on the basis."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = 0
    for assignment in itertools.product(
        itertools.product(range(p), repeat=n), repeat=len(pairs)
    ):
        table = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in zip(pairs, assignment):
            for k in range(n):
                table[i][j][k] = coeffs[k]
                table[j][i][k] = (-coeffs[k]) % p

        def br(u, v):
            out = [0] * n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        out[k] = (out[k] + u[i] * v[j] * table[i][j][k]) % p
            return out

        basis = [[1 if t == s else 0 for t in range(n)] for s in range(n)]
        ok = True
        for x in basis:
            for y in basis:
                for z in basis:
                    s = [
                        (a + b + c) % p
                        for a, b, c in zip(br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))
                    ]
                    if any(s):
                        ok = False
        if ok:
            count += 1
    return count


def test_exhaustive_counts_dim_le_2():
    assert sum(1 for _ in generate(CensusSpec(2, 1))) == 1
    entries = list(generate(CensusSpec(2, 2)))
    # dim 2: all 4 tables pass Jacobi vacuously
    assert sum(1 for e in entries if e.algebra.dim == 2) == 4
    assert candidate_count(CensusSpec(2, 2)) == 1 + 4


@pytest.mark.parametrize(
    "p,expected_dim3,expected_total",
    [(2, 120, 125), (3, 1431, 1441)],
)
def test_exhaustive_counts_dim3(p, expected_dim3, expected_total):
    entries = list(generate(CensusSpec(p, 3)))
    assert len(entries) == expected_total
    assert sum(1 for e in entries if e.algebra.dim == 3) == expected_dim3
    # indices are unique and strictly increasing per dimension
    idx = [e.index for e in entries]
    assert len(set(idx)) == len(idx)


def test_dim3_count_matches_brute_force_oracle():
    assert brute_force_jacobi_count(3, 2) == 120


def test_dim2_count_matches_brute_force_oracle():
    assert brute_force_jacobi_count(2, 3) == 9


def test_caps_refused():
    with pytest.raises(CapExceededError):
        list(generate(CensusSpec(2, 4)))  # dim 4 needs opt-in
    with pytest.raises(CapExceededError):
        list(generate(CensusSpec(3, 3, table_cap=100)))


@pytest.mark.parametrize("p,max_dim", [(2, 3), (3, 3), (5, 2)])
def test_generate_matches_per_index_oracle(p, max_dim):
    spec = CensusSpec(p, max_dim)
    got = [(e.index, e.algebra.key) for e in generate(spec)]
    assert got == [(idx, alg.key) for idx, alg in census_by_index(spec)]


def test_chunked_workers_cover_the_census():
    # GF(3) dim 3 splits into chunks that straddle the Jacobi batches
    log = verify("csimple_neg_char2", CensusSpec(3, 3), workers=2)
    assert log.examined == 1441 and log.confirmed


@pytest.mark.parametrize("workers", [0, -3])
def test_verify_refuses_workers_below_one(workers):
    with pytest.raises(ValueError, match="at least 1"):
        verify("pequ", CensusSpec(2, 2), workers=workers)


SERIAL_ONLY = (
    ("ldsum", CensusSpec(2, 2)),
    ("csupp_dsum", CensusSpec(2, 2)),
    ("pequ", CensusSpec(2, 3, mode="random", count=6, seed=0)),
)


@pytest.mark.parametrize("theorem,spec", SERIAL_ONLY)
def test_verify_refuses_workers_without_parallel_path(theorem, spec, monkeypatch):
    def refuse(spec):
        raise AssertionError("census generated before the workers check")

    with monkeypatch.context() as m:
        m.setattr(census_mod, "generate", refuse)
        with pytest.raises(ValueError, match="workers > 1"):
            verify(theorem, spec, workers=2)
    serial = verify(theorem, spec, workers=1).to_doc()
    default = verify(theorem, spec).to_doc()
    serial.pop("timing")
    default.pop("timing")
    assert serial == default


def test_random_mode_balances_dimensions():
    spec = CensusSpec(2, 4, mode="random", count=40, seed=0)
    entries = list(generate(spec))
    assert Counter(e.algebra.dim for e in entries) == {1: 10, 2: 10, 3: 10, 4: 10}
    odd = CensusSpec(3, 3, mode="random", count=7, seed=1)
    assert Counter(e.algebra.dim for e in generate(odd)) == {1: 3, 2: 2, 3: 2}


def test_random_mode_attempts_bounded_by_table_cap():
    # dim-4 tables over GF(2) pass Jacobi about once in 200 draws
    spec = CensusSpec(2, 4, mode="random", count=40, seed=0, table_cap=100)
    with pytest.raises(CapExceededError):
        list(generate(spec))
    with pytest.raises(CapExceededError):
        list(generate(CensusSpec(3, 1, mode="random", count=5, table_cap=4)))


def test_pair_dedup_refused_before_any_generation(monkeypatch):
    def refuse(spec):
        raise AssertionError("census generated before the dedup limit check")

    monkeypatch.setattr(census_mod, "generate", refuse)
    spec = CensusSpec(2, 4, mode="random", count=8, seed=0)
    with pytest.raises(CapExceededError, match="--no-dedup"):
        verify("ldsum", spec)


def test_random_mode_deterministic():
    spec = CensusSpec(3, 3, mode="random", count=25, seed=11)
    a = [(e.index, e.algebra.key) for e in generate(spec)]
    b = [(e.index, e.algebra.key) for e in generate(spec)]
    assert a == b
    assert len(a) == 25
    c = [(e.index, e.algebra.key) for e in generate(
        CensusSpec(3, 3, mode="random", count=25, seed=12)
    )]
    assert a != c


def test_modulus_refused_before_any_work():
    CensusSpec(1008199, 3)  # the largest prime exact in dimension 3
    with pytest.raises(ModulusTooLargeError):
        CensusSpec(1008209, 3)
    # 2000003 is exact in dimension 1, but its pair sums have dimension 2
    spec = CensusSpec(2000003, 1)
    with pytest.raises(ModulusTooLargeError):
        verify("ldsum", spec)


def test_unknown_mode_and_theorem():
    with pytest.raises(ValueError):
        list(generate(CensusSpec(2, 2, mode="weird")))
    with pytest.raises(KeyError):
        verify("bogus", CensusSpec(2, 2))


def test_verify_confirms_on_small_universe():
    spec = CensusSpec(2, 3)
    az = Analyzer()
    for theorem_id in ("lsupp_closure", "pfrat", "cE", "tsolv"):
        log = verify(theorem_id, spec, analyzer=az)
        assert log.confirmed
        assert log.examined == 125
        doc = log.to_doc()
        assert doc["confirmed"] is True
        assert doc["universe"]["p"] == 2


def test_verify_deterministic_modulo_timing():
    spec = CensusSpec(2, 2)
    d1 = verify("pequ", spec).to_doc()
    d2 = verify("pequ", spec).to_doc()
    d1.pop("timing")
    d2.pop("timing")
    assert d1 == d2


def test_verify_workers_merge_matches_serial():
    spec = CensusSpec(2, 3)
    serial = verify("tsupp", spec, workers=1).to_doc()
    parallel = verify("tsupp", spec, workers=2).to_doc()
    serial.pop("timing")
    parallel.pop("timing")
    assert serial == parallel


def test_pair_campaign_ldsum_confirmed():
    log = verify("ldsum", CensusSpec(2, 3))
    assert log.confirmed
    assert log.universe["pairs"] and log.universe["dedup_by_isomorphism"]
    assert log.examined == log.universe["members"] ** 2


def test_pair_campaign_csupp_dsum_refuted():
    log = verify("csupp_dsum", CensusSpec(2, 3))
    assert not log.confirmed
    assert log.universe["members"] == 8
    assert log.examined == 64
    assert len(log.counterexamples) == 3
    # the known bad pair is among the hits: both summands in the isomorphism
    # class of the solvable algebra with [x,y] = y + z, [x,z] = z
    target = algebra_to_doc(canonical_form_small(counterexample_L1(2)))
    assert any(
        cx["summands"] == [target, target] for cx in log.counterexamples
    )


def test_counterexamples_replayable():
    from liesupp.formats import algebra_from_doc
    from liesupp.classify import is_c_supplemented_algebra

    log = verify("csupp_dsum", CensusSpec(2, 3))
    for cx in log.counterexamples:
        d = algebra_from_doc(cx["algebra"])
        assert not is_c_supplemented_algebra(d)[0]


def test_theorem_registry_complete():
    assert set(CHECKERS) == {
        "lsupp_closure",
        "pfrat",
        "cE",
        "pequ",
        "tsolv",
        "tsupp",
        "pss",
        "csimple_neg_char2",
    }
    assert PAIR_THEOREMS == ("ldsum", "csupp_dsum")


def test_table_digit_count():
    assert table_digit_count(3) == 9
    assert table_digit_count(2) == 2
    assert candidate_count(CensusSpec(2, 3)) == 1 + 4 + 512
