import itertools
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import liesupp.census as census_mod
import liesupp.classify as classify_mod
import liesupp.lattice as lattice_mod
import liesupp.subspace as subspace_mod
from liesupp.census import (
    CHECKERS,
    CensusSpec,
    PAIR_THEOREMS,
    candidate_count,
    generate,
    table_digit_count,
    verify,
)
from liesupp.classify import Analyzer, classify_algebra
from liesupp.formats import algebra_to_doc
from liesupp.gfp import ModulusTooLargeError, PrimeField
from liesupp.lattice import LatticeCache
from liesupp.liealg import (
    L1_gamma,
    LieAlgebra,
    abelian,
    counterexample_L1,
    counterexample_double,
    heisenberg,
    nonabelian2,
)
from liesupp.subspace import CapExceededError, Subspace, _LRU
from oracles import (
    EagerLattice,
    canonical_form_small,
    census_by_index,
    check_lsupp_closure_by_subalgebras,
    check_pequ_by_sublattice,
    check_pfrat_by_sublattices,
    check_tsolv_by_sublattice,
    gl_orbit,
    random_conjugate,
    subalgebra_phis_by_sublattices,
    verify_by_table,
)


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
    # 3^24 dim-4 and 2^50 dim-5 tables lie past the default table cap of
    # 2^25; the refusal comes before any table of a lower dimension is made
    for spec in (CensusSpec(3, 4), CensusSpec(2, 5)):
        with pytest.raises(CapExceededError):
            next(generate(spec))
    with pytest.raises(CapExceededError):
        list(generate(CensusSpec(3, 3, table_cap=100)))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_dim=0),
        dict(max_dim=-2),
        dict(max_dim=3, mode="random", count=-4),
        dict(max_dim=2, mode="random", count=0),
    ],
)
def test_empty_universes_refused(kwargs):
    """A spec with no dimension, or a random one with no sample, is refused
    when it is made: its campaigns would examine nothing and confirm."""
    with pytest.raises(ValueError):
        CensusSpec(2, **kwargs)


@pytest.mark.parametrize("seed", [-1, 2**64, 10**23])
def test_random_seeds_outside_64_bits_refused(seed):
    """A random sample is keyed by (seed, counter), two 64-bit words, so a
    random spec refuses a seed outside [0, 2^64) when it is made, and takes
    2^64 - 1; an exhaustive universe, which no seed selects, takes any."""
    with pytest.raises(ValueError, match="seed"):
        CensusSpec(2, 2, mode="random", count=2, seed=seed)
    CensusSpec(2, 2, seed=seed)
    assert len(list(generate(CensusSpec(2, 2, mode="random", count=2, seed=2**64 - 1)))) == 2


@pytest.mark.parametrize("seed", [0, 12, 2**63 + 1, 2**64 - 1025, 2**64 - 1])
def test_random_samples_keyed_by_the_exact_seed(seed):
    """Each random sample ("r", n, counter) is the table of the digits that
    Philox keyed by the uint64 words (seed, counter) draws, for every seed
    in [0, 2^64): none past 2^63 is rounded, and 2^64 - 1 does not draw
    the samples of seed 0."""
    p = 2
    entries = list(generate(CensusSpec(p, 3, mode="random", count=12, seed=seed)))
    for entry in entries:
        _, n, counter = entry.index
        key = np.array([seed, counter], dtype=np.uint64)
        digits = np.random.Generator(np.random.Philox(key=key)).integers(
            0, p, size=census_mod.table_digit_count(n)
        )
        want = census_mod._tables_from_digits(digits[None], n, p)[0]
        assert np.array_equal(np.array(entry.algebra.table), want)
    if seed:
        seed_0 = generate(CensusSpec(p, 3, mode="random", count=12, seed=0))
        assert [e.index for e in entries] != [e.index for e in seed_0]


def test_campaigns_refused_before_any_class_is_built(monkeypatch):
    def refuse(p, n):
        raise AssertionError("classes built before the table cap check")

    monkeypatch.setattr(census_mod, "classes", refuse)
    for spec in (CensusSpec(3, 4), CensusSpec(2, 5)):
        for theorem in ("pequ", "ldsum"):
            with pytest.raises(CapExceededError):
                verify(theorem, spec)


@pytest.mark.parametrize("p,max_dim", [(2, 3), (3, 3), (5, 2)])
def test_generate_matches_per_index_oracle(p, max_dim):
    spec = CensusSpec(p, max_dim)
    got = [(e.index, e.algebra.key) for e in generate(spec)]
    assert got == [(idx, alg.key) for idx, alg in census_by_index(spec)]


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
    # 2^50 dim-5 tables lie past the default table cap of 2^25
    spec = CensusSpec(2, 5, mode="random", count=8, seed=0)
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


def test_pair_campaigns_agree_with_cold_and_warm_shape_caches():
    """ldsum and csupp_dsum over GF(2) dims <= 3 write the same documents,
    timing aside, with every per-shape cache (echelon rows, parity checks,
    Plücker tables, Laplace and pairing indices) cleared first, and again
    with those caches warm."""

    def docs():
        out = []
        for theorem in ("ldsum", "csupp_dsum"):
            doc = verify(theorem, CensusSpec(2, 3)).to_doc()
            doc.pop("timing")
            out.append(doc)
        return out

    for cache in (
        subspace_mod._cached_echelon_arrays,
        subspace_mod._cached_parity_checks,
        lattice_mod._plucker_table,
        lattice_mod._laplace_step,
        lattice_mod._pairing_dual,
    ):
        cache.cache_clear()
    cold = docs()
    assert docs() == cold


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
    from liesupp.lattice import build_lattice

    log = verify("csupp_dsum", CensusSpec(2, 3))
    for cx in log.counterexamples:
        d = algebra_from_doc(cx["algebra"])
        assert not is_c_supplemented_algebra(d, build_lattice(d))[0]


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


# -- isomorphism classes ------------------------------------------------------


@pytest.mark.parametrize(
    "p,per_dim,tables", [(2, (1, 2, 7), 125), (3, (1, 2, 9), 1441), (5, (1, 2), 26)]
)
def test_classes_cover_the_census(p, per_dim, tables):
    spec = CensusSpec(p, len(per_dim))
    census_keys = {e.index: e.algebra.key for e in generate(spec)}
    covered = []
    for n, count in zip(spec.dims(), per_dim):
        found = census_mod.classes(p, n)
        assert len(found) == count
        assert [t for t, _, _ in found] == sorted(t for t, _, _ in found)
        for t, rep, size in found:
            # the least index of the orbit is the canonical form's table
            assert census_keys[("e", n, t)] == rep.key == canonical_form_small(rep).key
            members = [u for u, _ in census_mod.class_members(rep)]
            assert members[0] == t and len(members) == size
            assert np.array_equal(members, gl_orbit(rep))
            covered += [("e", n, u) for u in members]
    assert len(covered) == tables
    assert sorted(covered) == sorted(census_keys)


# (p, n, _BLOCK): a block of 30 values decodes three dim-2 tables a batch and
# one dim-3 table, 200 two dim-3 tables, 2^14 195 of them
SMALL_BLOCKS = [(2, 1, 30), (2, 2, 30), (2, 3, 30), (2, 3, 200), (3, 3, 200), (5, 3, 2**14)]


@pytest.mark.parametrize("p,n,block", SMALL_BLOCKS)
def test_census_batches_at_a_small_block(p, n, block, monkeypatch):
    """At a _BLOCK that cuts the census into batches of a few tables,
    _jacobi_batches gives the same indices and tables in more batches, and
    classes (orbit closures and member lists in batches too) the same class
    lists, computed afresh, with the same members (class_members, decoded
    in batches too) below GF(5)."""

    def batches():
        got = list(census_mod._jacobi_batches(p, n))
        return [np.concatenate(part).tolist() for part in zip(*got)], len(got)

    def members(found):
        return [[t for t, _ in census_mod.class_members(rep)] for _, rep, _ in found if p < 5]

    (want, count), found = batches(), census_mod.classes(p, n)
    monkeypatch.setattr(lattice_mod, "_BLOCK", block)
    monkeypatch.setattr(census_mod, "_CLASSES", _LRU(census_mod.CLASS_CACHE_SLOTS))
    got, small = batches()
    assert got == want and (small > count or p ** table_digit_count(n) <= 3)
    again = census_mod.classes(p, n)
    assert [(t, rep.key, size) for t, rep, size in again] == [
        (t, rep.key, size) for t, rep, size in found
    ]
    assert members(again) == members(found)


DIM4_GF2 = {
    "abelian": abelian(2, 4),
    "nonabelian2+nonabelian2": nonabelian2(2).direct_sum(nonabelian2(2)),
    "heisenberg+F": heisenberg(2).direct_sum(abelian(2, 1)),
    "counterexample_L1+F": counterexample_L1(2).direct_sum(abelian(2, 1)),
    "L1_gamma+F": L1_gamma(2).direct_sum(abelian(2, 1)),
}


@pytest.mark.parametrize("name", sorted(DIM4_GF2))
def test_generator_closure_matches_gl_orbit_dim4(name):
    L = DIM4_GF2[name]
    members = [u for u, _ in census_mod.class_members(L)]
    assert np.array_equal(members, gl_orbit(L))


def test_class_cache_is_lazy_and_bounded(monkeypatch):
    code = "import liesupp.census as c; assert not c._CLASSES, list(c._CLASSES)"
    src = str(Path(census_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    monkeypatch.setattr(census_mod, "_CLASSES", _LRU(2))
    first = census_mod.classes(2, 2)
    assert census_mod.classes(2, 2) is first
    for key in ((3, 1), (3, 2), (2, 1)):
        census_mod.classes(*key)
    assert list(census_mod._CLASSES) == [(3, 2), (2, 1)]


ORACLE_AZ = Analyzer()


def _forbid_c_supplement(monkeypatch):
    """Make every call of classify.c_supplement, also through a name that
    census imports, fail."""

    def forbidden(L, lattice, b):
        raise AssertionError("c_supplement called")

    monkeypatch.setattr(classify_mod, "c_supplement", forbidden)
    monkeypatch.setattr(census_mod, "c_supplement", forbidden, raising=False)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("theorem", sorted(CHECKERS))
def test_class_campaign_matches_per_table_oracle(theorem, p):
    spec = CensusSpec(p, 3)
    doc = verify(theorem, spec).to_doc()
    timing = doc.pop("timing")
    assert doc == verify_by_table(theorem, spec, ORACLE_AZ)
    assert timing["classes"] == {2: 10, 3: 12}[p]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "theorem,oracle",
    [
        ("pfrat", check_pfrat_by_sublattices),
        ("pequ", check_pequ_by_sublattice),
        ("tsolv", check_tsolv_by_sublattice),
    ],
)
def test_phi_campaigns_match_sublattice_oracles(theorem, oracle, p, monkeypatch):
    """The campaigns that read phi of subalgebras from the ambient lattice
    give the documents of a per-table run of checkers that build the
    lattice of each subalgebra or of phi(L), and search supplements by
    sums (pfrat).  The campaigns themselves call no c_supplement."""
    spec = CensusSpec(p, 3)
    _forbid_c_supplement(monkeypatch)
    doc = verify(theorem, spec).to_doc()
    doc.pop("timing")
    monkeypatch.setitem(CHECKERS, theorem, oracle)
    assert doc == verify_by_table(theorem, spec, Analyzer())


@pytest.mark.parametrize("p", [2, 3])
def test_lsupp_closure_matches_per_subalgebra_oracle(p, monkeypatch):
    """The lsupp_closure campaign, which tests one subalgebra per distinct
    induced table, gives the document of a per-table run of the checker
    that makes every proper subalgebra an algebra of its own."""
    spec = CensusSpec(p, 3)
    doc = verify("lsupp_closure", spec).to_doc()
    doc.pop("timing")
    monkeypatch.setitem(CHECKERS, "lsupp_closure", check_lsupp_closure_by_subalgebras)
    assert doc == verify_by_table("lsupp_closure", spec, Analyzer())


def test_lsupp_closure_makes_one_algebra_per_induced_table(monkeypatch):
    """On heisenberg + heisenberg over GF(2), c-supplemented and of dim 6,
    lsupp_closure makes at most as many as_algebra and quotient calls as
    its proper subalgebras have distinct induced tables and it has proper
    ideals: 15 tables for 623 proper subalgebras.  The verdict is the
    oracle's, which makes every proper subalgebra an algebra."""
    L = heisenberg(2).direct_sum(heisenberg(2))
    eager = EagerLattice(L)
    proper = [b for b in eager.subalgebras if 0 < b.dim < L.dim]
    tables = {(b.dim, L.as_algebra(b).table.tobytes()) for b in proper}
    ideals = [i for i in eager.ideals if 0 < i.dim < L.dim]
    assert Analyzer().c_supplemented(L)[0]
    expected = check_lsupp_closure_by_subalgebras(L, Analyzer())
    calls = Counter()
    real_sub, real_quotient = LieAlgebra.as_algebra, LieAlgebra.quotient

    def as_algebra(self, space):
        calls["as_algebra"] += 1
        return real_sub(self, space)

    def quotient(self, ideal):
        calls["quotient"] += 1
        return real_quotient(self, ideal)

    monkeypatch.setattr(LieAlgebra, "as_algebra", as_algebra)
    monkeypatch.setattr(LieAlgebra, "quotient", quotient)
    assert CHECKERS["lsupp_closure"](L, Analyzer()) == expected
    assert calls["as_algebra"] + calls["quotient"] <= len(tables) + len(ideals)
    assert len(tables) < len(proper)


@pytest.mark.parametrize(
    "L",
    [counterexample_double(2), heisenberg(2).direct_sum(heisenberg(2))],
    ids=["counterexample_double/GF(2)", "heisenberg+heisenberg/GF(2)"],
)
def test_pfrat_examines_each_subalgebra_of_each_phi(L, monkeypatch):
    """pfrat tests c-supplementation on the nonzero subalgebras inside
    phi(D), for every subalgebra D in lattice order, by rows: each B is a
    row of LatticeCache.rows_inside(d, phi(D)), looked up in
    LatticeCache.unsupplemented, with no c_supplement call, and no call of
    LatticeCache.row, LieAlgebra.is_ideal or Subspace.contains; with no
    violation it reaches every such pair (phi(D), B).  Its first calls of
    rows_inside, one per dimension of phi(L), read the rows inside
    phi(L)."""
    phi_l = Analyzer().frattini(L)
    seen = []
    real = LatticeCache.rows_inside

    def recording(self, d, space):
        rows = real(self, d, space)
        seen.append((space, d, [self.member(d, r) for r in rows]))
        return rows

    def forbidden(*args):
        raise AssertionError("called by pfrat")

    _forbid_c_supplement(monkeypatch)
    az = Analyzer()
    with monkeypatch.context() as patch:
        patch.setattr(LatticeCache, "rows_inside", recording)
        patch.setattr(LatticeCache, "row", forbidden)
        patch.setattr(LieAlgebra, "is_ideal", forbidden)
        patch.setattr(Subspace, "contains", forbidden)
        assert CHECKERS["pfrat"](L, az) is None
    prefix, seen = seen[: phi_l.dim], seen[phi_l.dim :]
    assert [(space, d) for space, d, _ in prefix] == [(phi_l, d) for d in range(1, phi_l.dim + 1)]
    eager = EagerLattice(L)
    phis = subalgebra_phis_by_sublattices(L, eager, Analyzer())
    reached = [
        (phi_d, b)
        for k in eager.by_dim
        for phi_d in phis[k]
        for b in eager.subalgebras
        if b.dim and phi_d.contains(b)
    ]
    assert reached and [(space, b) for space, _, members in seen for b in members] == reached


@pytest.mark.parametrize("theorem", PAIR_THEOREMS)
@pytest.mark.parametrize("p,max_dim", [(2, 3), (3, 2)])
def test_class_pair_dedup_matches_canonical_forms(theorem, p, max_dim):
    spec = CensusSpec(p, max_dim)
    doc = verify(theorem, spec).to_doc()
    doc.pop("timing")
    assert doc == verify_by_table(theorem, spec, ORACLE_AZ)


@pytest.mark.parametrize("theorem", PAIR_THEOREMS)
@pytest.mark.parametrize("p,max_dim,seed", [(2, 3, 1), (3, 3, 2), (5, 2, 3)])
def test_random_pair_dedup_matches_canonical_forms(theorem, p, max_dim, seed):
    spec = CensusSpec(p, max_dim, mode="random", count=30, seed=seed)
    doc = verify(theorem, spec).to_doc()
    timing = doc.pop("timing")
    assert doc == verify_by_table(theorem, spec, ORACLE_AZ)
    assert 0 < doc["universe"]["members"] < 30
    # each member is the representative of a class the sample found
    assert timing["classes"] == doc["universe"]["members"]


@pytest.mark.parametrize("theorem", PAIR_THEOREMS)
@pytest.mark.parametrize(
    "spec",
    [CensusSpec(3, 2), CensusSpec(2, 3, mode="random", count=30, seed=1)],
    ids=["GF(3) dims<=2", "GF(2) dims<=3 random"],
)
def test_pair_campaign_without_dedup_matches_oracle(theorem, spec):
    """Members repeat classes, and in the random universe tables; csupp_dsum
    fails there on both orders of some pairs of distinct members."""
    doc = verify(theorem, spec, dedup=False).to_doc()
    doc.pop("timing")
    assert doc == verify_by_table(theorem, spec, ORACLE_AZ, dedup=False)


@pytest.mark.parametrize("theorem", PAIR_THEOREMS)
def test_pair_campaign_tests_each_unordered_sum_once(theorem, monkeypatch):
    sums, tested = [], []
    real_sum = LieAlgebra.direct_sum
    name = "completely_factorisable" if theorem == "ldsum" else "c_supplemented"
    real_conclusion = getattr(Analyzer, name)

    def recording_sum(self, other):
        sums.append(real_sum(self, other))
        return sums[-1]

    def recording_conclusion(self, L):
        if any(L is d for d in sums):
            tested.append(L)
        return real_conclusion(self, L)

    monkeypatch.setattr(LieAlgebra, "direct_sum", recording_sum)
    monkeypatch.setattr(Analyzer, name, recording_conclusion)
    doc = verify(theorem, CensusSpec(2, 3)).to_doc()
    m = doc["universe"]["members"]
    assert m == {"ldsum": 6, "csupp_dsum": 8}[theorem]
    # m(m+1)/2 < m^2, so a campaign testing every ordered sum fails here
    assert len(tested) == m * (m + 1) // 2
    assert doc["timing"]["sums_tested"] == len(tested)
    assert doc["examined"] == m * m


def test_random_pair_campaign_counts_its_classes():
    doc = verify("ldsum", CensusSpec(3, 3, mode="random", count=30, seed=2)).to_doc()
    assert doc["universe"]["members"] == 5
    assert doc["timing"]["classes"] == 5


class _Generated(Exception):
    """Raised by a stand-in for census.generate."""


def test_random_pair_dedup_admitted_where_the_census_is(monkeypatch):
    def sentinel(spec):
        raise _Generated

    monkeypatch.setattr(census_mod, "generate", sentinel)
    # 7^9 = 40,353,607 dim-3 tables lie past the default table cap of 2^25
    with pytest.raises(CapExceededError, match="--no-dedup"):
        verify("ldsum", CensusSpec(7, 3, mode="random", count=8, seed=0))
    for spec in (
        CensusSpec(7, 3, mode="random", count=8, seed=0, table_cap=7**9),
        CensusSpec(2, 4, mode="random", count=8, seed=0),
    ):
        with pytest.raises(_Generated):
            verify("ldsum", spec)


def _first_bracket_row(L, az):
    """Flags every nonabelian algebra, with a detail written in its basis."""
    rows = [row for row in L.table.reshape(-1, L.dim).tolist() if any(row)]
    return {"kind": "nonabelian", "row": rows[0]} if rows else None


@pytest.mark.parametrize("p", [2, 3])
def test_failing_classes_rerun_every_member(p, monkeypatch):
    monkeypatch.setitem(CHECKERS, "nonabelian", _first_bracket_row)
    spec = CensusSpec(p, 3)
    for n in spec.dims():
        census_mod.classes(p, n)  # warm, so classes_s reads 0
    doc = verify("nonabelian", spec).to_doc()
    timing = doc.pop("timing")
    assert doc == verify_by_table("nonabelian", spec)
    # every class but the abelian one of each dimension fails
    failing = [size for n in spec.dims() for t, _, size in census_mod.classes(p, n) if t]
    assert timing["members_rerun"] == sum(size - 1 for size in failing)
    assert len(doc["counterexamples"]) == sum(failing)
    assert timing["classes_s"] == 0


def test_random_campaign_checks_every_table(monkeypatch):
    monkeypatch.setitem(CHECKERS, "nonabelian", _first_bracket_row)
    spec = CensusSpec(3, 3, mode="random", count=12, seed=5)
    for theorem in ("pequ", "nonabelian"):
        doc = verify(theorem, spec).to_doc()
        timing = doc.pop("timing")
        assert doc == verify_by_table(theorem, spec)
        assert doc["examined"] == 12 and timing["classes"] == 0
    assert doc["counterexamples"]


@pytest.mark.parametrize("theorem", sorted(CHECKERS))
def test_exhaustive_campaign_without_dedup_checks_every_table(theorem):
    spec = CensusSpec(2, 3)
    doc = verify(theorem, spec, dedup=False).to_doc()
    timing = doc.pop("timing")
    default = verify(theorem, spec).to_doc()
    default.pop("timing")
    assert doc == default
    assert timing["classes"] == 0


def test_pair_dedup_past_dim3_through_classes(monkeypatch):
    def refuse(spec):
        raise AssertionError("per-table census used for an exhaustive dedup")

    monkeypatch.setattr(census_mod, "generate", refuse)
    spec = CensusSpec(2, 3)
    doc = verify("csupp_dsum", spec).to_doc()
    assert doc["universe"]["members"] == 8 and len(doc["counterexamples"]) == 3


@pytest.mark.skipif(
    os.environ.get("LIESUPP_DIM4") != "1", reason="the dim-4 sweep takes minutes"
)
def test_dim4_gf2_campaigns():
    start = time.monotonic()
    found = census_mod.classes(2, 4)
    assert len(found) == 23
    assert sum(size for _, _, size in found) == 34336
    spec = CensusSpec(2, 4)
    for theorem in sorted(CHECKERS):
        log = verify(theorem, spec)
        assert log.examined == 1 + 4 + 120 + 34336
    elapsed = time.monotonic() - start
    print(f"dim-4 GF(2): classes and eight campaigns in {elapsed:.1f}s")
    assert elapsed < 300
    # classify is invariant under a change of basis past dim 3 too: one
    # random conjugate of each class
    rng = np.random.default_rng(20071225)
    for _, L, _ in found:
        before, after = classify_algebra(L), classify_algebra(random_conjugate(L, rng))
        assert after.predicates == before.predicates
        assert after.lattice_stats == before.lattice_stats
        assert after.witnesses["phi"].dim == before.witnesses["phi"].dim


@pytest.mark.skipif(
    os.environ.get("LIESUPP_DIM4") != "1", reason="the dim-4 sweep takes minutes"
)
def test_dim4_gf2_pair_campaigns():
    """ldsum and csupp_dsum over GF(2) dims <= 4, whose sums reach dim 8,
    after the class sweep: 11 members for ldsum, all 121 ordered sums
    completely factorisable; 19 for csupp_dsum, with 48 of the 361 ordered
    sums not c-supplemented.  csupp_dsum took 12.8 s on 2 shared vCPUs."""
    census_mod.classes(2, 4)
    start = time.monotonic()
    ldsum = verify("ldsum", CensusSpec(2, 4))
    assert ldsum.confirmed and ldsum.examined == 121
    csupp = verify("csupp_dsum", CensusSpec(2, 4))
    assert csupp.examined == 361 and len(csupp.counterexamples) == 48
    elapsed = time.monotonic() - start
    print(f"dim-4 GF(2) pair campaigns in {elapsed:.1f}s")
    assert elapsed < 60
