"""Lattice-level computations checked against independent brute-force oracles."""
import os
import tracemalloc
from collections import Counter
from itertools import combinations, permutations, product
from math import comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesupp.lattice as lattice_mod
import liesupp.subspace as subspace_mod
from liesupp.census import CensusSpec, classes, generate, verify
from liesupp.classify import (
    PREDICATES,
    Analyzer,
    classify_algebra,
    complement_subalgebra,
    is_c_supplemented_algebra,
)
from liesupp.gfp import PrimeField, int64_safe, is_prime
from liesupp.lattice import (
    _Dim,
    _closed_and_ideal_masks,
    _contained,
    _maximal_masks,
    build_lattice,
    core,
    frattini,
    is_simple,
    is_supersolvable,
    minimal_ideals,
    plucker,
    plucker_pairing,
    radical,
)
from liesupp.liealg import (
    LieAlgebra,
    abelian,
    catalog,
    counterexample_L1,
    counterexample_double,
    heisenberg,
    nonabelian2,
    sl2,
)
from liesupp.subspace import (
    ECHELON_CACHE_TOTAL,
    Subspace,
    _LRU,
    _entry_dtype,
    _index_dtype,
    _lookup_space,
    _nbytes,
    _parity_check,
    _parity_checks,
    echelon_arrays,
)
from oracles import (
    DIM56_SUMS,
    EagerLattice,
    complement_by_sums,
    core_by_enumeration,
    core_within_by_enumeration,
    enumerate_subspaces,
    first_complements_by_sums,
    flag_search_supersolvable,
    is_supersolvable_by_lines,
    maximal_masks_one_top,
    maximal_subalgebras_all_pairs,
    nonzero_phis,
    random_conjugate,
)


def naive_subalgebras(L):
    """Oracle: filter the raw subspace enumeration with a direct bracket check."""
    out = []
    for s in enumerate_subspaces(L.dim, L.p):
        if all(s.member(L.bracket(a, b)) for a in s.rows for b in s.rows):
            out.append(s)
    return out


def lattice_members(lat):
    """{k: [lat.member(k, row) for every row of dimension k]} over the
    dimensions that hold a subalgebra: the rows of the lattice, each made
    alone."""
    out = {}
    for k in range(lat.algebra.dim + 1):
        rows = len(lat._dim(k).idx)
        if rows:
            out[k] = [lat.member(k, row) for row in range(rows)]
    return out


def test_heisenberg_lattice_counts_vs_oracle():
    h = heisenberg(2)
    lat = build_lattice(h)
    naive = naive_subalgebras(h)
    members = [s for subs in lattice_members(lat).values() for s in subs]
    assert sorted(s.rows for s in members) == sorted(s.rows for s in naive)
    assert len(members) == lat.stats()["subalgebras"] == 12
    assert sum(len(lat.ideals(k)) for k in range(h.dim + 1)) == lat.stats()["ideals"] == 6
    assert len(lat.maximals) == 3


def _census(p):
    return [entry.algebra for entry in generate(CensusSpec(p, 3))]


def _dim56(p, left, right):
    L = catalog(left, p)
    return L if right is None else L.direct_sum(catalog(right, p))


@pytest.mark.parametrize("p", [2, 3])
def test_maximals_match_all_pairs_oracle_on_census(p):
    for entry in generate(CensusSpec(p, 3)):
        lat = build_lattice(entry.algebra)
        assert lat.maximals == maximal_subalgebras_all_pairs(
            EagerLattice(entry.algebra).subalgebras, entry.algebra.dim
        )


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_maximals_match_all_pairs_oracle_dim56(p, left, right):
    L = _dim56(p, left, right)
    rng = np.random.default_rng(20071217)
    stats = []
    for M in (L, random_conjugate(L, rng)):
        lat = build_lattice(M)
        subalgebras = EagerLattice(M).subalgebras
        assert lat.maximals == maximal_subalgebras_all_pairs(subalgebras, M.dim)
        stats.append(lat.stats())
    assert stats[0] == stats[1]  # the lattice is an isomorphism invariant


def _assert_masks_match_naive(L):
    """The batched closure and ideal masks of every dimension against
    naive_subalgebras and L.is_ideal."""
    n, p = L.dim, L.p
    naive = naive_subalgebras(L)
    closed_rows = {s.rows for s in naive}
    ideal_rows = {s.rows for s in naive if L.is_ideal(s)}
    for k in range(n + 1):
        bases, _ = echelon_arrays(n, p, k)
        closed, ideal = _closed_and_ideal_masks(L, bases, _parity_checks(n, p, k))
        rows = [tuple(map(tuple, b)) for b in bases.tolist()]
        assert closed.tolist() == [r in closed_rows for r in rows]
        assert ideal.tolist() == [r in ideal_rows for r in rows]


@pytest.mark.parametrize("p", [2, 3])
def test_masks_match_naive_on_census(p):
    for L in _census(p):
        _assert_masks_match_naive(L)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_masks_match_naive_dim56(p, left, right):
    _assert_masks_match_naive(
        random_conjugate(_dim56(p, left, right), np.random.default_rng(20071218))
    )


@pytest.mark.parametrize(
    "block,algebras",
    [
        (40, lambda: _census(2) + _census(3)),
        (400, lambda: [_dim56(2, "heisenberg", "heisenberg")]),
    ],
    ids=["census", "heisenberg+heisenberg/GF(2)"],
)
def test_masks_match_naive_in_small_blocks(monkeypatch, block, algebras):
    """Blocks of a few rows, so that the rows that pass the one-bracket
    stage of a block, and the closed ones of the ideal test, sit at every
    offset of a block and on either side of its boundaries."""
    monkeypatch.setattr(lattice_mod, "_BLOCK", block)
    for L in algebras():
        _assert_masks_match_naive(L)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_masks_match_naive_abelian_gf3(monkeypatch, n):
    """Every subspace of an abelian algebra is a subalgebra and an ideal,
    with the closure test in whole blocks and in blocks of a few rows."""
    L = abelian(3, n)
    _assert_masks_match_naive(L)
    monkeypatch.setattr(lattice_mod, "_BLOCK", 3 * n * n)
    for k in range(n + 1):
        bases, _ = echelon_arrays(n, 3, k)
        closed, ideal = _closed_and_ideal_masks(L, bases, _parity_checks(n, 3, k))
        assert closed.all() and ideal.all()


ABELIAN_SHAPES = [(2, n) for n in range(1, 6)] + [(3, n) for n in range(1, 5)] + [(5, 2), (5, 3)]


@pytest.mark.parametrize("p,n", ABELIAN_SHAPES)
def test_abelian_masks_bracket_nothing(monkeypatch, p, n):
    """A zero table makes every subspace an ideal: the masks of abelian(p, n)
    agree with the naive oracle, and no [b_s, e_j] row is computed and no
    bracket tested."""
    L = abelian(p, n)
    _assert_masks_match_naive(L)

    def refuse(*args):
        raise AssertionError("an abelian algebra bracketed")

    monkeypatch.setattr(lattice_mod, "_ad_rows", refuse)
    monkeypatch.setattr(lattice_mod, "_inside", refuse)
    for k in range(n + 1):
        bases, _ = echelon_arrays(n, p, k)
        closed, ideal = _closed_and_ideal_masks(L, bases, _parity_checks(n, p, k))
        assert closed.all() and ideal.all() and len(closed) == len(bases)


def test_closure_prefilter_leaves_few_subspaces_to_the_all_pairs_stage(monkeypatch):
    """On the 33,880 3-dimensional subspaces of sl2+sl2 over GF(3), every
    subspace gets the one-bracket test [b_0, b_1] in U, fewer than a tenth
    of them the test of the two other pairs, and only the subalgebras the
    ideal test."""
    L = sl2(3).direct_sum(sl2(3))
    n, p, k = L.dim, L.p, 3
    tested = Counter()  # vectors tested per subspace -> subspaces tested
    real = lattice_mod._inside

    def spy(vectors, checks, p):
        tested[vectors.shape[1]] += len(vectors)
        return real(vectors, checks, p)

    monkeypatch.setattr(lattice_mod, "_inside", spy)
    bases, _ = echelon_arrays(n, p, k)
    closed, _ = _closed_and_ideal_masks(L, bases, _parity_checks(n, p, k))
    m = len(bases)
    assert sorted(tested) == [1, 2, k * n]  # [b_s, e_j] for every s and j
    assert tested[1] == m
    assert closed.sum() <= tested[2] < m / 10
    assert tested[k * n] == closed.sum()


def _class_sums(p):
    """The GF(p) census classes of dims 1 to 3 and their sums, each
    unordered pair once, on a _lookup_space (dims <= 6 over GF(2), <= 5
    over GF(3))."""
    found = [L for d in (1, 2, 3) for _, L, _ in classes(p, d)]
    sums = [
        a.direct_sum(b)
        for i, a in enumerate(found)
        for b in found[i:]
        if _lookup_space(a.dim + b.dim, p)
    ]
    return found + sums


LOOKUP_UNIVERSES = {
    "classes_gf2": lambda: _class_sums(2),
    "classes_gf3": lambda: _class_sums(3),
    "dim56_gf2": lambda: [
        random_conjugate(_dim56(p, left, right), np.random.default_rng(20071219))
        for p, left, right in DIM56_SUMS
        if p == 2
    ],
}


def _assert_kernels_match(L, staged=None):
    """On every dimension 0 < k < n, the lookup masks equal the staged
    ones (the staged masks given, or computed here), with the shape's
    index table and with indices computed block by block; returns the
    staged masks."""
    n, p = L.dim, L.p
    staged = staged or {}
    for k in range(1, n):
        bases, checks = echelon_arrays(n, p, k)[0], _parity_checks(n, p, k)
        want = staged.setdefault(k, lattice_mod._staged_masks(L, bases, checks))
        for indices in (lattice_mod._index_table(n, p, k), None):
            got = lattice_mod._lookup_masks(L, bases, checks, indices)
            assert [a.tolist() for a in got] == [a.tolist() for a in want], k
    return staged


@pytest.mark.parametrize("universe", sorted(LOOKUP_UNIVERSES))
def test_lookup_matches_staged_and_naive(universe, monkeypatch):
    """The closure and ideal test by lookup against the staged products,
    its oracle, on every dimension, and both, through
    _closed_and_ideal_masks, against naive_subalgebras and L.is_ideal.
    Then again with _BLOCK at 200, its tables built afresh: the lookup's
    blocks take 1 to 22 rows, so that the rows that pass the first pair,
    and the closed rows of the ideal test, sit on both sides of block
    edges; the staged masks of the full block are the oracle there."""
    algebras = LOOKUP_UNIVERSES[universe]()
    staged = []
    for L in algebras:
        _assert_masks_match_naive(L)
        staged.append(_assert_kernels_match(L))
    monkeypatch.setattr(lattice_mod, "_BLOCK", 200)
    monkeypatch.setattr(subspace_mod, "_SHAPES", _LRU(ECHELON_CACHE_TOTAL, _nbytes))
    for L, masks in zip(algebras, staged):
        _assert_kernels_match(L, masks)


def test_lookup_dimensions_make_no_product(monkeypatch):
    """heisenberg + heisenberg over GF(2): GF(2)^6 has 64 vectors, fewer
    than m (k - 1) for k = 2 .. 5, so those dimensions go by lookup and
    make no _inside call; the lines (k - 1 = 0) take the staged products,
    and 0 and L no test at all."""
    L = _dim56(2, "heisenberg", "heisenberg")
    calls = []
    for name in ("_inside", "_lookup_masks"):
        real = getattr(lattice_mod, name)
        monkeypatch.setattr(
            lattice_mod, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    tested = {}
    for k in range(L.dim + 1):
        calls.clear()
        _Dim(L, k)
        tested[k] = sorted(set(calls))
    assert tested == {
        0: [], 1: ["_inside"], 2: ["_lookup_masks"], 3: ["_lookup_masks"],
        4: ["_lookup_masks"], 5: ["_lookup_masks"], 6: [],
    }


def _index(v, p):
    """The index of a vector, as _vector_table numbers them."""
    return sum(int(x) * p**e for e, x in enumerate(reversed(v)))


def _count_builds(monkeypatch):
    """An empty shape store, and the list of the keys of the tables that
    _stored builds into it from now on."""
    monkeypatch.setattr(subspace_mod, "_SHAPES", _LRU(ECHELON_CACHE_TOTAL, _nbytes))
    built, real = [], lattice_mod._stored

    def stored(key, nbytes, build):
        return real(key, nbytes, lambda: built.append(key) or build())

    monkeypatch.setattr(lattice_mod, "_stored", stored)
    return built


def test_bracket_table_built_once_per_algebra(monkeypatch):
    """Every dimension of the lattice of heisenberg + heisenberg over
    GF(2) that goes by lookup, and subalgebra_phis, share one read-only
    bracket table, built once into the shape store, which holds the index
    of L.bracket(x, y) for every pair of vectors; the read-only pairing
    table of GF(2)^6 holds whether <x, h> != 0 mod 2."""
    L = _dim56(2, "heisenberg", "heisenberg")
    built = _count_builds(monkeypatch)
    lat = build_lattice(L)
    lat._computed()
    lat.subalgebra_phis()
    assert [key for key in built if key[0] is lattice_mod._bracket_table] == [
        (lattice_mod._bracket_table, L.key)
    ]
    assert (lattice_mod._bracket_table, L.key) in subspace_mod._SHAPES
    table, pairings = lattice_mod._bracket_table(L), lattice_mod._pairings(6, 2)
    assert not table.flags.writeable and not pairings.flags.writeable
    assert table.dtype == _index_dtype(6, 2) == np.uint8 and pairings.dtype == bool
    vectors = list(product(range(2), repeat=6))  # in index order
    assert [_index(v, 2) for v in vectors] == list(range(64))
    assert table.tolist() == [[_index(L.bracket(x, y), 2) for y in vectors] for x in vectors]
    dots = [[sum(a * b for a, b in zip(x, h)) % 2 != 0 for h in vectors] for x in vectors]
    assert pairings.tolist() == dots


def test_lookup_memory_is_bounded_by_its_block(monkeypatch):
    """The table builds and the lookup test of the 200,787 4-dimensional
    subspaces of GF(2)^8 in heisenberg + heisenberg + nonabelian2, through
    _Dim, from empty tables and an empty shape store (the shape's bases
    and parity checks built outside the trace): they peak at a few row
    blocks of _BLOCK values, the 8 bytes of uint8 indices a subspace that
    the shape store keeps, and a few bytes more a subspace for the masks."""
    L = heisenberg(2).direct_sum(heisenberg(2)).direct_sum(nonabelian2(2))
    n, p, k = L.dim, L.p, 4
    monkeypatch.setattr(subspace_mod, "_SHAPES", _LRU(ECHELON_CACHE_TOTAL, _nbytes))
    m = len(echelon_arrays(n, p, k)[0])
    _parity_checks(n, p, k)
    tracemalloc.start()
    try:
        dim = _Dim(L, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dim.idx) and m == 200787
    assert lattice_mod._index_table(n, p, k)[0].dtype == np.uint8
    assert peak < 4 * 8 * lattice_mod._BLOCK + (n + 8) * m


@pytest.mark.skipif(
    os.environ.get("LIESUPP_DIM4") != "1", reason="the dim-8 checks run with the dim-4 sweep"
)
@pytest.mark.parametrize(
    "parts", [("heisenberg", "heisenberg", "nonabelian2"), ("L1_gamma", "L1_gamma", "nonabelian2")]
)
def test_lookup_matches_staged_on_dim8_gf2_sums(parts):
    """Two non-abelian dim-8 sums over GF(2), the dimension of the pair
    campaigns over GF(2) dims <= 4: the lookup masks equal the staged ones
    on every dimension, from the index tables the shape store keeps and
    from indices computed block by block."""
    L = catalog(parts[0], 2)
    for part in parts[1:]:
        L = L.direct_sum(catalog(part, 2))
    assert L.dim == 8 and L.table.any()
    _assert_kernels_match(L)


def _assert_lattice_order(lat):
    """The rows of each dimension, the ideals of each dimension and the
    maximal subalgebras come in Subspace.sort_key order, and row k of the
    lattice and ideals(k) hold subalgebras of dimension k."""
    members = lattice_members(lat)
    ideals = {k: lat.ideals(k) for k in range(lat.algebra.dim + 1)}
    for subs in (lat.maximals, *members.values(), *ideals.values()):
        assert subs == sorted(subs, key=Subspace.sort_key)
    for d, subs in (*members.items(), *ideals.items()):
        assert all(s.dim == d for s in subs)


def test_lattice_lists_in_sort_key_order():
    algebras = _census(2) + _census(3)
    rng = np.random.default_rng(20071219)
    for case in DIM56_SUMS:
        L = _dim56(*case)
        algebras += [L, random_conjugate(L, rng)]
    for L in algebras:
        _assert_lattice_order(build_lattice(L))


def test_maximals_in_blocks_of_one_match_all_pairs_oracle(monkeypatch):
    """The maximal scan with _BLOCK = 1, one row a block in every kernel,
    and with blocks of three rows, so that the cover counts of every layer
    of more than three members go in blocks of several rows whose
    boundaries fall inside the layer."""
    algebras = _census(2) + _census(3) + [abelian(3, 4), abelian(2, 5)]
    algebras += [_dim56(*case) for case in DIM56_SUMS if case[0] == 2]
    for L in algebras:
        expected = maximal_subalgebras_all_pairs(EagerLattice(L).subalgebras, L.dim)
        with monkeypatch.context() as patch:
            patch.setattr(lattice_mod, "_BLOCK", 1)
            assert build_lattice(L).maximals == expected
        with monkeypatch.context() as patch:
            patch.setattr(lattice_mod, "_block_rows", lambda per_row: 3)
            assert build_lattice(L).maximals == expected


def test_maximals_memory_is_bounded_by_its_blocks():
    """In abelian(8) over GF(2) the 255 hyperplanes are the maximal
    subalgebras, and every other member of dims 1 .. 6 is tested against
    them for its cover count.  With the dimensions built, the scan holds
    copies of the bases and parity checks of the members (about 27 MB) and
    blocks of _BLOCK values: it peaks under 64 MB (with the cover counts of
    a whole dimension in one product, 273 MB)."""
    L = abelian(2, 8)
    lat = build_lattice(L)
    for k in range(L.dim + 1):
        lat._dim(k)
    tracemalloc.start()
    try:
        assert len(lat.maximals) == 255
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 10**6


class _Recorded(np.ndarray):
    """A _contained mask that records the (M, N, K) shape of its products
    with another array, the cover counts of the maximal scan."""

    shapes: list = []

    def __matmul__(self, other):
        self.shapes.append((self.shape[0], other.shape[1], self.shape[1]))
        return np.asarray(self) @ other


def test_block_products_stay_under_the_block(monkeypatch):
    """The float products of the maximal scan and the supersolvable walk
    over abelian(8), dimensions built, and of the many-top scans of
    subalgebra_phis over counterexample_double(3): the containment
    products of _contained ((rows d) x n by n x (width count), the residues
    _reduce receives) and the cover counts (a mask of rows x len(held) by a
    len(held) x tops one).  Each product whose block holds more than one
    row (a pair of a basis row and a parity check, or a member row) has
    M N K <= _BLOCK multiply-adds, the size below which OpenBLAS runs a
    product on one thread (with values alone, the scan of abelian(8)
    multiplied 504 x 8 by 8 x 255, and a cover count of
    counterexample_double(3) 391 x 129 by 129 x 18).  Then one row
    against more checks than a block holds, at _BLOCK = 2^10, as the core
    test of _core_supplements takes one core against every candidate."""
    L = abelian(2, 8)
    lat = build_lattice(L)
    for k in range(L.dim + 1):
        lat._dim(k)
    products = []  # (rows of the block, M N K)
    monkeypatch.setattr(_Recorded, "shapes", [])
    real_contained, real_reduce = lattice_mod._contained, lattice_mod._reduce

    def contained(bases, checks, p):
        d, n = bases.shape[1:]

        def reduce(x, p):
            products.append((len(x) // max(d, 1) * len(checks), len(x) * n * x.shape[1]))
            return real_reduce(x, p)

        monkeypatch.setattr(lattice_mod, "_reduce", reduce)
        try:
            return real_contained(bases, checks, p).view(_Recorded)
        finally:
            monkeypatch.setattr(lattice_mod, "_reduce", real_reduce)

    monkeypatch.setattr(lattice_mod, "_contained", contained)
    assert len(lat.maximals) == 255
    assert is_supersolvable(L, lat)
    assert build_lattice(counterexample_double(3)).subalgebra_phis()
    covers = _Recorded.shapes
    products += [(m, m * n * k) for m, n, k in covers]
    assert covers and len(products) > len(covers)
    assert max(mnk for _, mnk in products) > lattice_mod._BLOCK // 4
    assert all(mnk <= lattice_mod._BLOCK for rows, mnk in products if rows > 1)
    # one plane against the 10,795 parity checks of dimension 6, more than
    # a block of 2^10 values holds (32 multiply-adds each): the checks go in
    # blocks too
    plane, checks = lat._dim(2).bases[:1], lat._dim(6).checks
    want = real_contained(plane, checks, 2)
    monkeypatch.setattr(lattice_mod, "_BLOCK", 2**10)
    products.clear()
    assert np.array_equal(lattice_mod._contained(plane, checks, 2), want)
    assert want.sum() == 651 and len(products) > 1
    assert all(mnk <= lattice_mod._BLOCK for rows, mnk in products)


def _assert_scan_matches_one_top_oracle(L):
    """_maximal_masks with all subalgebras of one dimension k as its tops,
    for every k, against maximal_masks_one_top on the members inside each
    top (found by int64 residues), and F(B) against the intersection of
    the oracle's maximal subalgebras of B."""
    n, p = L.dim, L.p
    dims = build_lattice(L)._computed()
    arrays = {d: (dim.bases, dim.checks) for d, dim in dims.items()}
    for k, top_dim in dims.items():
        masks, meets = _maximal_masks(arrays, top_dim.checks, n, p)
        assert sorted(masks) == [d for d in sorted(dims) if d < k]
        tops = top_dim.subs_at(slice(None))
        for t, (top, check) in enumerate(zip(tops, top_dim.checks)):
            inside, below = {}, {}
            for d in masks:
                bases, checks = arrays[d]
                resid = bases @ check % p
                inside[d] = np.flatnonzero(~resid.any(axis=(1, 2)))
                below[d] = bases[inside[d]], checks[inside[d]]
            expected = maximal_masks_one_top(below, k, n, p)
            maximals = []
            for d, mask in masks.items():
                assert np.flatnonzero(mask[:, t]).tolist() == inside[d][expected[d]].tolist()
                maximals += [dims[d].sub(row) for row in inside[d][expected[d]]]
            f = top
            for m in maximals:
                f = f.intersect(m)
            d, row = meets[t]
            assert dims[d].sub(row) == f


@pytest.mark.parametrize("p", [2, 3])
def test_maximal_scan_matches_one_top_oracle_on_classes(p):
    for n in (1, 2, 3):
        for _, L, _ in classes(p, n):
            _assert_scan_matches_one_top_oracle(L)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_maximal_scan_matches_one_top_oracle_dim56(p, left, right):
    L = _dim56(p, left, right)
    for M in (L, random_conjugate(L, np.random.default_rng(20071225))):
        _assert_scan_matches_one_top_oracle(M)


def float32_edge(bound):
    """(p, q): the largest prime p with bound(p) < 2^24, for bound
    increasing in p, and the next prime q."""
    p = 2**12 + 1
    while not (is_prime(p) and bound(p) < 2**24):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    return p, q


def test_float_containment_exact_near_the_int64_limit():
    """_contained against Subspace.contains over the largest prime p that
    gfp.int64_safe admits in dimension 6, where its float64 products come
    within a factor of 2 of their 2^42 bound, and, for n = 3..6, over the
    largest prime with n (p - 1)^2 < 2^24, the last one in float32, and the
    next prime, the first one in float64 (asserted of _exact_float); the
    spans are given by raw random rows, not RREF ones, and by rows of
    p - 1 alone."""
    n = 6
    p = int((2**63 / n**2) ** (1 / 3)) + 2
    while not (is_prime(p) and int64_safe(p, n)):
        p -= 1
    assert n * (p - 1) ** 2 > 2**41
    cases = [(n, p, np.float64)]
    for n in range(3, 7):
        last, first = float32_edge(lambda p: n * (p - 1) ** 2)
        cases += [(n, last, np.float32), (n, first, np.float64)]
    rng = np.random.default_rng(20071226)
    for n, p, dtype in cases:
        assert lattice_mod._exact_float(n * (p - 1) ** 2, p) is dtype
        for dim_w in range(n + 1):
            w = Subspace.span(rng.integers(0, p, (dim_w, n)).tolist(), n, p)
            rows_w = np.array(w.rows, dtype=np.int64).reshape(w.dim, n)
            for d in range(n + 1):
                bases = [rng.integers(0, p, (d, n)) for _ in range(3)]
                bases.append(np.full((d, n), p - 1))
                if d <= w.dim:  # spans inside w
                    bases += [rng.integers(0, p, (d, w.dim)) @ rows_w % p for _ in range(3)]
                bases = np.array(bases).reshape(len(bases), d, n)
                got = _contained(bases, _parity_check(w)[None], p)[:, 0]
                assert got.tolist() == [w.contains(Subspace.span(b.tolist(), n, p)) for b in bases]


@pytest.mark.parametrize("p", [2, 3])
def test_inside_matches_contains(p):
    """LatticeCache.inside(space) lists the subalgebras contained in space,
    in lattice order, for every subspace of every class representative of
    dims 1..3."""
    for n in (1, 2, 3):
        for _, L, _ in classes(p, n):
            lat = build_lattice(L)
            subalgebras = EagerLattice(L).subalgebras
            for space in enumerate_subspaces(n, p):
                expected = [s for s in subalgebras if space.contains(s)]
                assert list(lat.inside(space)) == expected


# -- the lazy lattice ---------------------------------------------------------

# shared by the subalgebra_phis oracle calls
LAZY_ORACLE_AZ = Analyzer()


def _assert_lazy_matches_eager(L, rng):
    """Every query of a fresh lattice, in an order shuffled by rng, against
    EagerLattice: the rows of each dimension, made one at a time by member,
    the first complements and the ideals of every dimension, the maximal
    subalgebras, stats() and subalgebra_phis()."""
    eager = EagerLattice(L)
    lat = build_lattice(L)
    n = L.dim
    queries = [("rows", k) for k in range(n + 1)] + [("first", k) for k in range(n + 1)]
    queries += [("ideals", k) for k in range(n + 1)] + [("maximals", None)]
    queries += [("stats", None), ("phis", None)]
    for q in rng.permutation(len(queries)):
        kind, arg = queries[q]
        if kind == "rows":
            rows = len(lat._dim(arg).idx)
            assert [lat.member(arg, row) for row in range(rows)] == eager.by_dim.get(arg, [])
        elif kind == "first":
            got = lat.first_complements(arg).tolist()
            assert got == eager.first_complements(arg).tolist()
        elif kind == "ideals":
            assert lat.ideals(arg) == [i for i in eager.ideals if i.dim == arg]
        elif kind == "maximals":
            assert lat.maximals == eager.maximals
        elif kind == "stats":
            assert lat.stats() == eager.stats()
        else:
            expected = nonzero_phis(eager.subalgebra_phis(LAZY_ORACLE_AZ))
            assert list(lat.subalgebra_phis().items()) == expected
    assert lattice_members(lat) == eager.by_dim


@pytest.mark.parametrize("p", [2, 3])
def test_lazy_lattice_matches_eager_oracle_on_classes(p):
    rng = np.random.default_rng(20071222 + p)
    for n in (1, 2, 3):
        for _, L, _ in classes(p, n):
            _assert_lazy_matches_eager(L, rng)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_lazy_lattice_matches_eager_oracle_dim56(p, left, right):
    _assert_lazy_matches_eager(_dim56(p, left, right), np.random.default_rng(20071223))


def test_lattice_computes_only_what_is_asked(monkeypatch):
    """Complete factorisability computes the lines and the hyperplanes and
    nothing else; c-supplementation never runs the maximal scan."""
    L = heisenberg(2).direct_sum(heisenberg(2))
    tested = []
    real = lattice_mod._closed_and_ideal_masks

    def spy(L, bases, checks):
        tested.append(bases.shape[1])
        return real(L, bases, checks)

    def refuse(*args):
        raise AssertionError("maximal subalgebras computed")

    monkeypatch.setattr(lattice_mod, "_closed_and_ideal_masks", spy)
    assert not Analyzer().completely_factorisable(L)[0]
    assert sorted(tested) == [1, 5]
    monkeypatch.setattr(lattice_mod, "_maximal_masks", refuse)
    assert Analyzer().c_supplemented(L) == (True, None)


def test_vector_table_built_once_per_algebra(monkeypatch):
    """Every dimension of the lattice of sl2 + sl2 over GF(3) with more
    subspaces than GF(3)^6 has vectors, and the induced tables of
    subalgebra_phis, share one read-only [v, e_j] table, built once into
    the shape store."""
    L = sl2(3).direct_sum(sl2(3))
    built = _count_builds(monkeypatch)
    lat = build_lattice(L)
    lat.subalgebra_phis()
    assert [key for key in built if key[0] is lattice_mod._vector_table] == [
        (lattice_mod._vector_table, L.key)
    ]
    assert not lattice_mod._vector_table(L).flags.writeable


VECTOR_TABLE_SPACES = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 5)] + [(31, 3)]


@pytest.mark.parametrize("p,n", VECTOR_TABLE_SPACES)
def test_vector_table_is_the_int64_product(p, n, monkeypatch):
    """The compact _vector_table, in _entry_dtype(p), holds the int64
    product [v, e_j] mod p of every vector v (digits in index order) with
    L's table, for an algebra with a nonzero table where n > 1, also when
    built in blocks of a few rows (_BLOCK at 100)."""
    L = {
        1: lambda: abelian(p, 1),
        2: lambda: nonabelian2(p),
        3: lambda: sl2(p) if p > 2 else heisenberg(p),
        4: lambda: nonabelian2(p).direct_sum(nonabelian2(p)),
    }[n]()
    vectors = np.array(list(product(range(p), repeat=n)), dtype=np.int64)
    want = (vectors @ L.table.reshape(n, n * n) % p).reshape(p**n, n, n)
    for block in (lattice_mod._BLOCK, 100):
        monkeypatch.setattr(lattice_mod, "_BLOCK", block)
        monkeypatch.setattr(subspace_mod, "_SHAPES", _LRU(ECHELON_CACHE_TOTAL, _nbytes))
        table = lattice_mod._vector_table(L)
        assert table.dtype == _entry_dtype(p) and not table.flags.writeable
        assert np.array_equal(table, want)


def test_vector_table_past_the_store_is_not_built(monkeypatch):
    """With ECHELON_CACHE_TOTAL four times one byte short of the [v, e_j]
    table of heisenberg + nonabelian2 over GF(3) (243 vectors, 6,075
    bytes), the store keeps no such table and none is built: the staged
    closure and ideal masks, _induced_tables, _ideal_of and core, which read
    the table where there are more rows than vectors, answer by products as
    they did with it."""
    L = _dim56(3, "heisenberg", "nonabelian2")
    n, p = L.dim, L.p

    def answers():
        out = []
        for k in range(1, n):
            bases, piv = echelon_arrays(n, p, k)
            closed, ideal = lattice_mod._staged_masks(L, bases, _parity_checks(n, p, k))
            at = np.flatnonzero(closed)
            tables = lattice_mod._induced_tables(L, bases[at], piv[at])
            out += [closed.tolist(), ideal.tolist(), tables.tolist()]
        # the planes F of GF(3)^5 that are ideals of L
        planes = echelon_arrays(n, p, 2)[0]
        whole = np.broadcast_to(np.eye(n, dtype=np.int64), (len(planes), n, n))
        out.append(lattice_mod._ideal_of(L, planes, _parity_checks(n, p, 2), whole).tolist())
        out.append([core(L, b) for b in build_lattice(L).ideals(3) + build_lattice(L).maximals])
        return out

    built = _count_builds(monkeypatch)
    want = answers()
    assert (lattice_mod._vector_table, L.key) in built
    monkeypatch.setattr(subspace_mod, "ECHELON_CACHE_TOTAL", 4 * (p**n * n * n - 1))
    built = _count_builds(monkeypatch)
    assert answers() == want
    assert lattice_mod._vector_table(L) is None
    assert not [key for key in built if key[0] is lattice_mod._vector_table]


def test_vector_table_memory_is_its_entries(monkeypatch):
    """The [v, e_j] table of nonabelian2 + nonabelian2 over GF(31), 923,521
    vectors of 16 uint8 entries (14.1 MiB), built from an empty store in
    row blocks, peaks below 1.5 times its size (an int64 table of the
    whole product took 140.9 MB)."""
    L = nonabelian2(31).direct_sum(nonabelian2(31))
    monkeypatch.setattr(subspace_mod, "_SHAPES", _LRU(ECHELON_CACHE_TOTAL, _nbytes))
    tracemalloc.start()
    try:
        table = lattice_mod._vector_table(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 31**4 * 16
    assert peak < 1.5 * table.nbytes


def _assert_closure_memory_bounded(L):
    """The closure and ideal test of the 3-dimensional subspaces of L,
    through _Dim, peaks at a few row blocks of _BLOCK values and
    some bytes per subspace, while an unblocked [b_s, e_j] array would take
    29 MB."""
    n, p, k = L.dim, L.p, 3
    m = len(echelon_arrays(n, p, k)[0])  # the shared arrays, built outside the trace
    _parity_checks(n, p, k)
    tracemalloc.start()
    try:
        dim = _Dim(L, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dim.idx) and m * k * n * n * 8 > 29 * 10**6
    assert peak < 4 * 8 * lattice_mod._BLOCK + 32 * m


def test_closure_test_memory_is_bounded_by_its_block():
    """The 33,880 3-dimensional subspaces of GF(3)^6 in sl2+sl2."""
    _assert_closure_memory_bounded(sl2(3).direct_sum(sl2(3)))


def test_closure_test_memory_is_bounded_by_its_block_abelian():
    """The same subspaces in abelian(6) over GF(3), which the zero table
    decides without a bracket."""
    _assert_closure_memory_bounded(abelian(3, 6))


def test_closure_test_memory_is_bounded_by_its_block_every_subspace_closed():
    """The same subspaces in the algebra with [e_0, e_j] = e_j for j > 0,
    where every subspace is a subalgebra ([u, w] = a w - b u for u, w with
    e_0-coordinates a, b): every one passes every stage of the closure test
    and reaches the ideal test, so the later stages hold whole blocks."""
    brackets = {(0, j): tuple(int(i == j) for i in range(6)) for j in range(1, 6)}
    L = LieAlgebra(PrimeField(3), 6, brackets)
    bases, _ = echelon_arrays(6, 3, 3)
    assert _closed_and_ideal_masks(L, bases, _parity_checks(6, 3, 3))[0].all()
    _assert_closure_memory_bounded(L)


def test_classify_computes_each_lattice_dimension_once(monkeypatch):
    """Every predicate, supersolvability included, reads the dimensions it
    needs from the Analyzer's one lattice of its algebra, so no
    (table, dimension) is tested twice."""
    built = Counter()
    real = _Dim.__init__

    def spy(self, L, k):
        built[L.key, k] += 1
        real(self, L, k)

    monkeypatch.setattr(_Dim, "__init__", spy)
    classify_algebra(heisenberg(3))
    assert built and max(built.values()) == 1


def _spy_rows_made(patch):
    """Record, for each _Dim, the rows that sub and subs_at make into
    Subspaces: {_Dim: set of rows}."""
    made = {}
    real_at, real_one = _Dim.subs_at, _Dim.sub

    def subs_at(self, rows):
        made.setdefault(self, set()).update(np.arange(len(self.idx))[rows].tolist())
        return real_at(self, rows)

    def sub(self, row):
        made.setdefault(self, set()).add(int(row))
        return real_one(self, row)

    patch.setattr(_Dim, "subs_at", subs_at)
    patch.setattr(_Dim, "sub", sub)
    return made


def _assert_no_whole_dimension_made(lat, made):
    """In no dimension 0 < k < n of lat were all the rows that are not
    maximal subalgebras (the list that maximals returns whole) made into
    Subspaces; the rows are those of EagerLattice.  Dimensions 0 and n
    hold one row each, 0 and L."""
    eager = EagerLattice(lat.algebra)
    listed = set(eager.maximals)
    for k, subs in eager.by_dim.items():
        if k in (0, lat.algebra.dim):
            continue
        others = {row for row, s in enumerate(subs) if s not in listed}
        assert not others or not others <= made.get(lat._dim(k), set()), (lat.algebra, k)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_classify_makes_no_whole_dimension_list(p, left, right, monkeypatch):
    """classify_algebra, in the catalog basis and in one random conjugate,
    makes Subspaces of the rows it reads alone: no dimension of the
    algebra's lattice has all its rows made, apart from the ideals and the
    maximal subalgebras, which it lists.  Its lattice stats, counted from
    the arrays, are those of EagerLattice."""
    L = _dim56(p, left, right)
    for M in (L, random_conjugate(L, np.random.default_rng(20071224))):
        az = Analyzer()
        with monkeypatch.context() as patch:
            made = _spy_rows_made(patch)
            report = classify_algebra(M, analyzer=az)
        assert made
        _assert_no_whole_dimension_made(az.lattice(M), made)
        assert report.lattice_stats == EagerLattice(M).stats()


def test_pfrat_and_complements_make_no_whole_dimension_list(monkeypatch):
    """The pfrat campaign over GF(2) dims <= 3 makes no whole dimension
    into Subspaces (as above, on every lattice of its Analyzer), and
    complement_subalgebra with LatticeCache.row on every subalgebra of
    heisenberg(2) makes the row of the complement alone: rows are found in
    the arrays.  The campaign document is that of an unpatched run, and
    the complements those of the oracle complement_by_sums."""
    expected = verify("pfrat", CensusSpec(2, 3)).to_doc()
    L = heisenberg(2)
    eager = EagerLattice(L)
    complements = [complement_by_sums(L, eager, b) for b in eager.subalgebras]
    made = _spy_rows_made(monkeypatch)
    az = Analyzer()
    got = verify("pfrat", CensusSpec(2, 3), analyzer=az).to_doc()
    for doc in (expected, got):
        doc.pop("timing")
    assert got == expected
    assert az._lattices
    for lat in az._lattices.values():
        _assert_no_whole_dimension_made(lat, made)
    lat = build_lattice(L)
    for b, c in zip(eager.subalgebras, complements):
        made.clear()
        row = lat.row(b)
        assert not made
        assert complement_subalgebra(L, lat, b) == c
        assert sum(map(len, made.values())) == (c is not None)
        assert lat.member(b.dim, row) == b


def test_abelian_everything_closed():
    lat = build_lattice(abelian(2, 2))
    assert lat.stats()["subalgebras"] == 5  # all subspaces of GF(2)^2


def test_sl2_lines_are_subalgebras():
    lat = build_lattice(sl2(3))
    assert len(lattice_members(lat)[1]) == 13  # all lines: alternating product


def test_core_examples():
    h = heisenberg(2)
    assert core(h, Subspace.span([(1, 0, 0)], 3, 2)).dim == 0
    xz = Subspace.span([(1, 0, 0), (0, 0, 1)], 3, 2)
    assert core(h, xz) == xz  # already an ideal
    d = counterexample_double(2)
    zc = Subspace.span([(0, 0, 1, 0, 0, 1)], 6, 2)
    assert core(d, zc).dim == 0


def test_core_monotone_idempotent():
    h = heisenberg(2)
    subalgebras = EagerLattice(h).subalgebras
    for b in subalgebras:
        cb = core(h, b)
        assert core(h, cb) == cb
        for b2 in subalgebras:
            if b2.contains(b):
                assert core(h, b2).contains(cb)


@pytest.mark.parametrize("p", [2, 3])
def test_core_fixpoint_matches_enumeration_oracle(p):
    # every subalgebra of every algebra in the small exhaustive universe
    for entry in generate(CensusSpec(p, 3)):
        L = entry.algebra
        eager = EagerLattice(L)
        for b in eager.subalgebras:
            assert core(L, b) == core_by_enumeration(L, b, eager)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_core_within_a_subalgebra_matches_enumeration_oracle(p):
    """core(L, b, c), the largest ideal of c inside b, on every pair b <= c
    of subalgebras of every class representative of dims 1..3, and of
    heisenberg + nonabelian2 (dim 5) over GF(2)."""
    algebras = [rep for n in (1, 2, 3) for _, rep, _ in classes(p, n)]
    if p == 2:
        algebras.append(heisenberg(2).direct_sum(catalog("nonabelian2", 2)))
    for L in algebras:
        lat = build_lattice(L)
        eager = EagerLattice(L)
        for c in eager.subalgebras:
            for b in lat.inside(c):
                assert core(L, b, c) == core_within_by_enumeration(L, b, c, eager)


@pytest.mark.parametrize("p,left,right", DIM56_SUMS)
def test_core_fixpoint_matches_enumeration_oracle_dim56(p, left, right):
    L = _dim56(p, left, right)
    for M in (L, random_conjugate(L, np.random.default_rng(20071221))):
        eager = EagerLattice(M)
        for b in eager.subalgebras:
            assert core(M, b) == core_by_enumeration(M, b, eager)


def test_frattini_examples():
    for p in (2, 3, 5):
        h = heisenberg(p)
        phi = frattini(h, build_lattice(h))
        assert phi.rows == ((0, 0, 1),)  # phi = L^2 = span(z)
    l1, d = counterexample_L1(2), counterexample_double(2)
    phi1 = frattini(l1, build_lattice(l1))
    assert phi1.rows == ((0, 0, 1),)
    phid = frattini(d, build_lattice(d))
    assert phid.rows == ((0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1))  # span(z, c)


def test_frattini_degenerate_dims():
    a0, a1 = abelian(2, 0), abelian(2, 1)
    phi0 = frattini(a0, build_lattice(a0))
    assert phi0.dim == 0
    phi1 = frattini(a1, build_lattice(a1))
    assert phi1.dim == 0  # only maximal subalgebra is 0


def test_frattini_is_ideal_inside_all_maximals():
    for L in (heisenberg(3), counterexample_L1(3), sl2(3)):
        lat = build_lattice(L)
        phi = frattini(L, lat)
        assert L.is_ideal(phi)
        assert all(m.contains(phi) for m in lat.maximals)


def test_minimal_ideals():
    h = heisenberg(2)
    lat = build_lattice(h)
    mins = minimal_ideals(h, lat)
    assert [m.rows for m in mins] == [((0, 0, 1),)]
    s = sl2(3)
    lat = build_lattice(s)
    assert [m.dim for m in minimal_ideals(s, lat)] == [3]
    a = abelian(2, 2)
    # every line of an abelian algebra is a minimal ideal
    assert [m.dim for m in minimal_ideals(a, build_lattice(a))] == [1, 1, 1]


def test_radical_examples():
    s, h, a = sl2(3), heisenberg(3), abelian(2, 1)
    lat = build_lattice(s)
    assert radical(s, lat).dim == 0
    assert is_simple(s, lat) and PREDICATES["semisimple"](Analyzer(), s)
    assert radical(h, build_lattice(h)).dim == 3
    mixed = sl2(3).direct_sum(abelian(3, 1))
    assert radical(mixed, build_lattice(mixed)).rows == ((0, 0, 0, 1),)
    assert not is_simple(a, build_lattice(a))  # 1-dim algebras are not simple


def test_radical_quotient_is_semisimple():
    for entry in generate(CensusSpec(2, 3)):
        L = entry.algebra
        lat = build_lattice(L)
        r = radical(L, lat)
        q = L.quotient(r)
        if q.dim:
            assert radical(q, build_lattice(q)).dim == 0


def _supersolvable(L):
    return is_supersolvable(L, build_lattice(L))


def test_supersolvable_examples():
    assert _supersolvable(heisenberg(3))
    assert not _supersolvable(sl2(3))
    assert _supersolvable(abelian(5, 3))
    assert _supersolvable(counterexample_L1(2))
    # the zero algebra has the empty chain; for a line, the first step
    # tests the one line against the zero ideal, a basis of no rows
    for p in (2, 3):
        assert _supersolvable(abelian(p, 0))
        assert _supersolvable(abelian(p, 1))


def _dim4_catalog(p):
    out = [abelian(p, 4), catalog("nonabelian2", p).direct_sum(catalog("nonabelian2", p))]
    for name in ("nonabelian2", "heisenberg", "counterexample_L1", "L1_gamma", "sl2"):
        L = catalog(name, p)
        out.append(L.direct_sum(abelian(p, 4 - L.dim)))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_supersolvable_matches_per_line_oracle_on_census(p):
    for L in _census(p):
        assert _supersolvable(L) == is_supersolvable_by_lines(L)


def test_supersolvable_matches_per_line_oracle_dims_4_to_6():
    rng = np.random.default_rng(20071224)
    algebras = _dim4_catalog(2) + _dim4_catalog(3) + [_dim56(*case) for case in DIM56_SUMS]
    verdicts = set()
    for L in algebras:
        for M in (L, random_conjugate(L, rng)):
            expected = is_supersolvable_by_lines(M)
            assert _supersolvable(M) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_supersolvable_chain_matches_flag_oracle():
    """The walk that keeps one reached ideal per dimension against the
    depth-first search over every chain of ideals, on the GF(2) and GF(3)
    dims <= 3 censuses, the dim-4 catalog algebras and DIM56_SUMS, the
    last two also in one random basis."""
    rng = np.random.default_rng(20071229)
    algebras = _census(2) + _census(3)
    for L in _dim4_catalog(2) + _dim4_catalog(3) + [_dim56(*case) for case in DIM56_SUMS]:
        algebras += [L, random_conjugate(L, rng)]
    verdicts = set()
    for L in algebras:
        got = is_supersolvable(L, build_lattice(L))
        assert got == flag_search_supersolvable(L, EagerLattice(L))
        if got:
            assert L.is_solvable()
        verdicts.add(got)
    assert verdicts == {True, False}


def test_supersolvable_memory_is_one_ideal_per_dimension():
    """In abelian(7) over GF(2) every one of the 29,212 subspaces is an
    ideal.  With the dimensions built, the walk keeps one reached ideal per
    dimension, so its containment test has one row per dimension, and it
    tests the ideal rows in row blocks sized by _block_rows, up to the
    first hit: it peaks under 2 MB (testing every ideal of a dimension at
    once, it took 4.8 MB; keeping every reached ideal, 146 MB)."""
    L = abelian(2, 7)
    lat = build_lattice(L)
    for k in range(L.dim + 1):
        lat._dim(k)
    tracemalloc.start()
    try:
        assert is_supersolvable(L, lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


def test_table_groups_memory_is_bounded_by_its_block():
    """In abelian(7) over GF(2), with the dimensions built, table_groups(k)
    builds the induced tables in row blocks whose [b_s, e_j] arrays hold
    about _BLOCK values, and the pairs gathered from them up to
    (k - 1) / 2 times as many: each k peaks under six blocks and some bytes
    per row.  In one batch over a whole dimension, k = 3, 4 and 5 took 34,
    57 and 20 MB."""
    L = abelian(2, 7)
    lat = build_lattice(L)
    for k in range(L.dim + 1):
        lat._dim(k)
    for k in range(1, L.dim):
        rows = len(lat._dim(k).idx)
        tracemalloc.start()
        try:
            groups = lat.table_groups(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(groups.values()) == [list(range(rows))]  # one zero table
        assert peak < 6 * 8 * lattice_mod._BLOCK + 64 * rows, k


def test_table_groups_in_small_blocks_match_one_batch(monkeypatch):
    """table_groups in row blocks of one row against the grouping of
    _induced_tables over each whole dimension at once."""
    monkeypatch.setattr(lattice_mod, "_BLOCK", 1)
    for L in (sl2(3).direct_sum(nonabelian2(3)), heisenberg(2).direct_sum(heisenberg(2))):
        lat = build_lattice(L)
        for k in range(L.dim + 1):
            dim = lat._dim(k)
            expected = {}
            for a, table in enumerate(lattice_mod._induced_tables(L, dim.bases, dim.piv)):
                expected.setdefault(table.tobytes(), []).append(a)
            got = lat.table_groups(k)
            assert list(got.items()) == list(expected.items())


def test_classify_makes_no_whole_dimension_of_ideals(monkeypatch):
    """In abelian(7) over GF(2) every subalgebra is an ideal.  classify_algebra
    reads the radical, simplicity, phi(L) and the R + S split one dimension
    at a time, so of dims 1 .. 5 it makes no row into a Subspace; dim 6
    holds the 127 hyperplanes, the maximal subalgebras, which it lists.
    Listing every ideal of the lattice made all 29,212 rows."""
    L = abelian(2, 7)
    az = Analyzer()
    made = _spy_rows_made(monkeypatch)
    report = classify_algebra(L, analyzer=az)
    lat = az.lattice(L)
    assert report.predicates["supersolvable"] and not report.predicates["simple"]
    for k in range(1, L.dim - 1):
        dim = lat._dim(k)
        assert dim.ideal.all() and not made.get(dim), k
    assert made[lat._dim(L.dim - 1)] == set(range(127))


def test_analyzer_supersolvable_builds_no_quotient(monkeypatch):
    """Analyzer.supersolvable walks the ideals of L's own lattice: over
    DIM56_SUMS, in the catalog basis and in one random conjugate, it makes
    no LieAlgebra.quotient call, and agrees with the per-line oracle."""

    def refuse(L, ideal):
        raise AssertionError("a quotient algebra built")

    rng = np.random.default_rng(20071224)
    verdicts = set()
    for case in DIM56_SUMS:
        L = _dim56(*case)
        for M in (L, random_conjugate(L, rng)):
            with monkeypatch.context() as patch:
                patch.setattr(LieAlgebra, "quotient", refuse)
                got = Analyzer().supersolvable(M)
            assert got == is_supersolvable_by_lines(M)
            verdicts.add(got)
    assert verdicts == {True, False}


# -- Plücker coordinates ----------------------------------------------------


def det_by_permutations(rows, p):
    """Leibniz formula mod p, Python ints."""
    d = len(rows)
    total = 0
    for perm in permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(d), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total % p


@pytest.mark.parametrize(
    "p,dtype",
    [(2, np.uint8), (5, np.uint8), (257, np.uint16), (1008199, np.uint32)],
)
def test_plucker_coordinates_are_the_minors(p, dtype):
    rng = np.random.default_rng(p)
    for n in range(1, 6):
        for d in range(n + 1):
            bases = rng.integers(0, p, size=(4, d, n))
            coords = plucker(bases, p)
            assert coords.dtype == dtype
            for a in range(4):
                assert coords[a].tolist() == [
                    det_by_permutations(bases[a][:, list(cols)].tolist(), p)
                    for cols in combinations(range(n), d)
                ]


@st.composite
def complementary_batches(draw):
    """One to three random k x n and one to three (n - k) x n matrices over
    one of four fields."""
    p = draw(st.sampled_from([2, 3, 5, 1008199]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    us = draw(st.lists(st.lists(row, min_size=k, max_size=k), min_size=1, max_size=3))
    ws = draw(
        st.lists(st.lists(row, min_size=n - k, max_size=n - k), min_size=1, max_size=3)
    )
    return p, n, k, us, ws


@given(complementary_batches())
@settings(max_examples=300, deadline=None)
def test_plucker_pairing_nonzero_iff_sum_is_everything(case):
    p, n, k, us, ws = case
    pu = plucker(np.array(us, dtype=np.int64).reshape(len(us), k, n), p)
    pw = plucker(np.array(ws, dtype=np.int64).reshape(len(ws), n - k, n), p)
    det = plucker_pairing(pu, pw, n, k, p)
    assert det.shape == (len(us), len(ws))
    assert ((det >= 0) & (det < p) & (det == np.floor(det))).all()
    full = [
        [Subspace.span(u, n, p).sum(Subspace.span(w, n, p)).dim == n for w in ws]
        for u in us
    ]
    assert (det != 0).tolist() == full


def det_by_elimination(rows, p):
    """Determinant mod p by row reduction, Python ints."""
    mat = [[x % p for x in r] for r in rows]
    det = 1
    for c in range(len(mat)):
        pivot = next((r for r in range(c, len(mat)) if mat[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det = det * mat[c][c] % p
        inv = pow(mat[c][c], p - 2, p)
        for r in range(c + 1, len(mat)):
            f = mat[r][c] * inv % p
            mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[c])]
    return det % p


def test_plucker_pairing_is_the_determinant_mod_p():
    """Against the Leibniz determinant over four fields, and, for n = 3..6
    and every k, over the largest prime with C(n, k) (p - 1)^2 < 2^24, the
    last one paired in float32, and the next prime, the first one in
    float64 (asserted of _exact_float and of the result): against a
    determinant by row reduction, and on coordinates whose C(n, k) terms
    are all (p - 1)^2 or 0 with one sign, the largest sums of each sign."""
    rng = np.random.default_rng(20071220)
    for p in (2, 3, 5, 1008199):
        for n in range(1, 6):
            for k in range(n + 1):
                us = rng.integers(0, p, size=(3, k, n))
                ws = rng.integers(0, p, size=(4, n - k, n))
                det = plucker_pairing(plucker(us, p), plucker(ws, p), n, k, p)
                assert det.tolist() == [
                    [det_by_permutations(np.concatenate([u, w]).tolist(), p) for w in ws]
                    for u in us
                ]
    for n in range(3, 7):
        for k in range(n + 1):
            terms = comb(n, k)
            edge = float32_edge(lambda p: terms * (p - 1) ** 2)
            for p, dtype in zip(edge, (np.float32, np.float64)):
                assert lattice_mod._exact_float(terms * (p - 1) ** 2, p) is dtype
                us = rng.integers(0, p, size=(3, k, n))
                ws = rng.integers(0, p, size=(4, n - k, n))
                det = plucker_pairing(plucker(us, p), plucker(ws, p), n, k, p)
                assert det.dtype == dtype
                assert det.tolist() == [
                    [det_by_elimination(np.concatenate([u, w]).tolist(), p) for w in ws]
                    for u in us
                ]
                dual, signs = lattice_mod._pairing_dual(n, k)
                pw = np.full((1, terms), p - 1, dtype=np.min_scalar_type(p - 1))
                for sign in (1, -1):
                    pu = np.zeros((1, terms), dtype=pw.dtype)
                    pu[0, dual[signs == sign]] = p - 1
                    det = plucker_pairing(pu, pw, n, k, p)
                    # (p - 1)^2 = 1 mod p
                    assert det.tolist() == [[sign * int((signs == sign).sum()) % p]]


# every GF(p)^n, n >= 1, of the shape tables pinned below
TABLE_SHAPES = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 6)]
TABLE_SHAPES += [(5, n) for n in range(1, 5)]


def test_plucker_table_is_plucker_of_the_echelon_rows():
    """_plucker_table(n, p, k) is plucker of every row of echelon_arrays, in
    plucker's dtype, for every k; cached and read-only."""
    for p, n in TABLE_SHAPES:
        for k in range(n + 1):
            table = lattice_mod._plucker_table(n, p, k)
            expected = plucker(echelon_arrays(n, p, k)[0], p)
            assert table.dtype == expected.dtype
            assert np.array_equal(table, expected)
            assert lattice_mod._plucker_table(n, p, k) is table
            with pytest.raises(ValueError):
                table[0, 0] = 1


def test_plucker_table_built_in_blocks(monkeypatch):
    """The table of the 33,880 3-dimensional subspaces of GF(3)^6 is built
    in row blocks whose four Laplace arrays hold at most _BLOCK values
    together, not in one plucker call."""
    sizes = []
    real = lattice_mod.plucker

    def spy(bases, p):
        sizes.append(len(bases))
        return real(bases, p)

    monkeypatch.setattr(lattice_mod, "plucker", spy)
    table = lattice_mod._plucker_table.__wrapped__(6, 3, 3)
    assert sum(sizes) == len(table) == 33880
    assert 4 * max(sizes) * comb(6, 3) * 3 <= lattice_mod._BLOCK
    assert np.array_equal(table, real(echelon_arrays(6, 3, 3)[0], 3))


def _first_complement_algebras():
    algebras = [L for p in (2, 3) for n in (1, 2, 3) for _, L, _ in classes(p, n)]
    return algebras + [_dim56(2, "heisenberg", "heisenberg"), _dim56(3, "heisenberg", "nonabelian2")]


def test_first_complements_past_the_cache_rows_build_no_table(monkeypatch):
    """With ECHELON_CACHE_TOTAL at 0 no shape is kept: the first complements
    still match the oracle by sums, no Plücker table is asked for, so none
    is built or kept, and plucker runs on the subalgebra rows paired alone,
    in the row blocks of _plucker_blocks: on the dim-k rows asked for, then
    on the dim-(n - k) candidates in column blocks of min(isqrt(_BLOCK),
    candidates left), in order, up to the block that holds the last least
    complement (every block when a row has none)."""
    _check_plucker_calls_past_the_cache_rows(monkeypatch)


def test_first_complements_past_the_cache_rows_in_small_column_blocks(monkeypatch):
    """As above, with _BLOCK = 9: column blocks of three candidates, so that
    most searches take several blocks and many end before the last, and
    plucker on one row at a time."""
    monkeypatch.setattr(lattice_mod, "_BLOCK", 9)
    _check_plucker_calls_past_the_cache_rows(monkeypatch)


def _check_plucker_calls_past_the_cache_rows(monkeypatch):
    algebras = _first_complement_algebras()
    expected = [first_complements_by_sums(L) for L in algebras]
    monkeypatch.setattr(subspace_mod, "ECHELON_CACHE_TOTAL", 0)
    width = isqrt(lattice_mod._BLOCK)

    def blocks(rows, d, n):
        """The plucker calls of _plucker_blocks on `rows` rows of dim d."""
        step = lattice_mod._block_rows(4 * comb(n, n // 2) * d)
        return [(min(step, rows - lo), d) for lo in range(0, rows, step)]

    def refuse(*args):
        raise AssertionError("a Plücker table built for a shape past _shape_kept")

    monkeypatch.setattr(lattice_mod, "_plucker_table", refuse)
    calls = []
    real = lattice_mod.plucker

    def spy(bases, p):
        calls.append(bases.shape[:2])
        return real(bases, p)

    monkeypatch.setattr(lattice_mod, "plucker", spy)
    for L, want in zip(algebras, expected):
        lat = build_lattice(L)
        for k, first in want.items():
            del calls[:]
            assert lat.first_complements(k).tolist() == first
            n, m = L.dim, len(lat._dim(L.dim - k).idx)
            end = m if -1 in first else max(first, default=-1) + 1
            want_calls = blocks(len(first), k, n)
            for lo in range(0, end, width):
                want_calls += blocks(min(width, m - lo), n - k, n)
            assert calls == want_calls


def test_warm_shape_makes_no_plucker_call(monkeypatch):
    """Once one lattice of GF(p)^n has paired its dimensions, the tables of
    that shape are kept: a lattice of another algebra of the same shape
    takes its Plücker rows from them and calls plucker on no echelon basis.
    Its first complements match the oracle by sums."""
    for first, second in (
        (sl2(3), counterexample_L1(3)),
        (_dim56(2, "heisenberg", "heisenberg"), _dim56(2, "L1_gamma", "L1_gamma")),
    ):
        assert (first.dim, first.p) == (second.dim, second.p)
        warm = build_lattice(first)
        for k in range(first.dim + 1):
            warm.first_complements(k)
        expected = first_complements_by_sums(second)
        lat = build_lattice(second)
        with monkeypatch.context() as patch:

            def refuse(*args):
                raise AssertionError("plucker called on a warm shape")

            patch.setattr(lattice_mod, "plucker", refuse)
            got = {k: lat.first_complements(k).tolist() for k in expected}
        assert got == expected


def test_abelian_c_supplementation_pairs_nothing(monkeypatch):
    """Every subalgebra of abelian(6) over GF(2) is an ideal, so each
    dimension is decided by its ideal mask without a Plücker pairing."""

    def refuse(*args):
        raise AssertionError("_first_hits called")

    monkeypatch.setattr(lattice_mod, "_first_hits", refuse)
    L = abelian(2, 6)
    assert is_c_supplemented_algebra(L, build_lattice(L)) == (True, None)


def test_dim_rows_made_alone_match_the_whole_list():
    """_Dim.sub(row) and _Dim.subs_at (index arrays, masks, slices, none)
    give the Subspaces of the rows of EagerLattice's whole list."""
    L = sl2(3).direct_sum(nonabelian2(3))
    lat, eager = build_lattice(L), EagerLattice(L)
    for k in range(6):
        dim = lat._dim(k)
        whole = eager.by_dim.get(k, [])
        assert [dim.sub(row) for row in range(len(dim.idx))] == whole
        assert dim.subs_at(slice(None)) == whole
        assert dim.subs_at([]) == dim.subs_at(np.zeros(len(whole), dtype=bool)) == []
        assert dim.subs_at(dim.ideal) == [s for s, i in zip(whole, dim.ideal) if i]
        assert dim.subs_at(slice(1, None, 2)) == whole[1::2]


@pytest.mark.parametrize("block", [None, 1, 200])
def test_spanning_matches_sums_pair_by_pair(block, monkeypatch):
    """The first-hit search _first_hits as _core_supplements runs it, on
    abelian GF(3)^4, whose subalgebras are all subspaces: for every dim-k
    subspace B and every candidate dimension d >= 4 - k, with c = d - 4 + k,
    K the span of B's first c RREF rows and B' that of the others, the B'
    of the B with one K are paired with the dim-d subspaces C that contain
    K (for c = 0 every dim-k B against every C, as for a complement).  One
    candidate at a time the answer is C where B + C = GF(3)^4 by row
    reduction and -1 elsewhere; with all of them at once it is the first
    such C.  Also with _BLOCK at 1 (blocks of one pair, column blocks of one
    candidate) and at 200 (chunks and column blocks of 14)."""
    if block is not None:
        monkeypatch.setattr(lattice_mod, "_BLOCK", block)
    n, p = 4, 3
    lat = build_lattice(abelian(p, n))
    subs = {k: [lat.member(k, r) for r in range(len(lat._dim(k).idx))] for k in range(n + 1)}
    for pairings in (lattice_mod._BLOCK, 1):
        monkeypatch.setattr(lattice_mod, "_BLOCK", pairings)
        for k in range(1, n):
            for d in range(n - k, n + 1):
                c = d - (n - k)
                groups = {}
                for b in subs[k]:
                    groups.setdefault(Subspace.span(b.rows[:c], n, p), []).append(b)
                for core_, group in groups.items():
                    cols = [j for j, cand in enumerate(subs[d]) if cand.contains(core_)]
                    rest = np.array([b.rows[c:] for b in group], dtype=np.int64)
                    pu = plucker(rest.reshape(len(group), k - c, n), p)
                    spans = [[b.sum(subs[d][j]).dim == n for j in cols] for b in group]
                    for i, j in enumerate(cols):
                        got = lattice_mod._first_hits(lat, pu, d, np.array([j]))
                        assert got.tolist() == [j if hits[i] else -1 for hits in spans]
                    got = lattice_mod._first_hits(lat, pu, d, np.array(cols, dtype=np.intp))
                    first = [cols[hits.index(True)] if any(hits) else -1 for hits in spans]
                    assert got.tolist() == first


# (p, n, entry dtype): _entry_dtype is uint8 up to p = 251 and uint16 from
# p = 257; at p = 11 and n = 3 an entry of the product of two such arrays
# reaches n (p - 1)^2 = 300, past uint8
DTYPE_EDGES = [(11, 3, np.uint8), (251, 3, np.uint8), (257, 3, np.uint16)]


def _sample(n, p, k, rng, size):
    """(bases, pivots, checks, Subspaces) of up to `size` random rows of the
    dim-k shape arrays of GF(p)^n."""
    bases, piv = echelon_arrays(n, p, k)
    at = np.sort(rng.choice(len(bases), size=min(size, len(bases)), replace=False))
    subs = [
        Subspace(n, p, tuple(map(tuple, b)), tuple(q))
        for b, q in zip(bases[at].tolist(), piv[at].tolist())
    ]
    return bases[at], piv[at], _parity_checks(n, p, k)[at], subs


@pytest.mark.parametrize("p,n,dtype", DTYPE_EDGES)
def test_shape_array_kernels_exact_at_the_dtype_edges(p, n, dtype):
    """The shape arrays and Plücker coordinates are held in the smallest
    unsigned dtype, and every kernel that multiplies them is exact there,
    on random rows of each dimension against Python arithmetic: the parity
    checks (as _parity_check builds them) vanish exactly on the members,
    _contained agrees with Subspace.contains, the Plücker pairing with
    B + W = GF(p)^n, and the B' pairing of _core_supplements (K the span
    of B's first c rows, B' of the others) with the row reduction of B + C,
    on candidates C that contain K and meet B' or are random beyond K."""
    rng = np.random.default_rng(p)
    sample = {k: _sample(n, p, k, rng, 24) for k in range(n + 1)}
    for k, (bases, piv, checks, subs) in sample.items():
        assert bases.dtype == checks.dtype == plucker(bases, p).dtype == dtype
        for b, h, s in zip(bases, checks, subs):
            assert np.array_equal(_parity_check(s), h) and _parity_check(s).dtype == dtype
            member = rng.integers(0, p, size=k) @ b.astype(np.int64) % p
            for v in (member, rng.integers(0, p, size=n)):
                zero = not (v @ h.astype(np.int64) % p).any()
                assert zero == s.member(v.tolist())
    for d in range(n + 1):
        for k in range(n + 1):
            bases_d, _, _, subs_d = sample[d]
            _, _, checks_k, subs_k = sample[k]
            got = _contained(bases_d, checks_k, p)
            assert got.tolist() == [[t.contains(u) for t in subs_k] for u in subs_d]
            if d + k == n:
                det = plucker_pairing(plucker(sample[k][0], p), plucker(bases_d, p), n, k, p)
                assert (det != 0).tolist() == [[b.sum(c).dim == n for c in subs_d] for b in subs_k]
            if d + k < n:
                continue
            # B' (plucker of the entry-dtype rows) against C of dim d
            # containing K, of dim c = d + k - n, with d - c random vectors,
            # or with a vector of B' and d - c - 1 random ones
            c = d + k - n
            for b, basis in zip(subs_k, sample[k][0]):
                spans = [list(b.rows[:c]) + rng.integers(0, p, (d - c, n)).tolist() for _ in range(8)]
                if c < k < n:
                    spans += [
                        list(b.rows[: c + 1]) + rng.integers(0, p, (d - c - 1, n)).tolist()
                        for _ in range(4)
                    ]
                cs = [cand for cand in (Subspace.span(s, n, p) for s in spans) if cand.dim == d]
                cands = np.array([cand.rows for cand in cs], dtype=dtype).reshape(len(cs), d, n)
                det = plucker_pairing(plucker(basis[None, c:], p), plucker(cands, p), n, k - c, p)
                assert (det[0] != 0).tolist() == [b.sum(cand).dim == n for cand in cs]


def test_shape_caches_keep_a_bounded_total(monkeypatch):
    """The shape caches share one store, bounded by ECHELON_CACHE_TOTAL: a
    shape past a quarter of it is built afresh each time, and once what the
    store keeps passes its bound the least recently used arrays are
    dropped and the newest stay."""
    store = subspace_mod._LRU(subspace_mod.ECHELON_CACHE_TOTAL, subspace_mod._nbytes)
    monkeypatch.setattr(subspace_mod, "_SHAPES", store)
    planes, lines = echelon_arrays(4, 3, 2), echelon_arrays(4, 3, 1)
    kept = subspace_mod._shape_bytes(4, 3, 2)
    assert store.total == sum(a.nbytes for a in planes + lines) <= kept
    monkeypatch.setattr(subspace_mod, "ECHELON_CACHE_TOTAL", 4 * (kept - 1))
    assert echelon_arrays(4, 3, 2)[0] is planes[0]  # kept before the bound moved
    assert echelon_arrays(4, 3, 3)[0] is echelon_arrays(4, 3, 3)[0]
    assert echelon_arrays(5, 3, 2)[0] is not echelon_arrays(5, 3, 2)[0]
    # room for the lines and one more small shape: the planes, used least
    # recently, go
    store.bound = store.total - 1
    checks = _parity_checks(4, 3, 1)
    assert store.total <= store.bound
    assert echelon_arrays(4, 3, 2)[0] is not planes[0]
    assert _parity_checks(4, 3, 1) is checks


def test_complements_refuses_a_subspace_outside_the_lattice():
    L = sl2(3)
    lat, eager = build_lattice(L), EagerLattice(L)
    plane = next(
        s for s in enumerate_subspaces(3, 3, dim_filter=2) if s not in eager.subalgebras
    )
    for outside in (plane, Subspace.zero(4, 3)):
        with pytest.raises(ValueError, match="not a subalgebra"):
            lat.row(outside)
        with pytest.raises(ValueError, match="not a subalgebra"):
            complement_subalgebra(L, lat, outside)
    for k, subs in eager.by_dim.items():
        assert [lat.row(b) for b in subs] == list(range(len(subs)))
    line = lat.member(1, 0)
    first = lat.first_complements(1)[lat.row(line)]
    hits = [line.sum(c).dim == 3 for c in eager.by_dim[2]]
    assert first == hits.index(True)
