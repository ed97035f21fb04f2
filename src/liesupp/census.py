"""Census generation and theorem-verification campaigns.

A census is an exhaustive (or seeded-random) universe of structure-constant
tables over GF(p), Jacobi-filtered into Lie algebras.  Each verification
campaign evaluates one structural statement on every algebra (or ordered
pair of algebras) of the universe and logs every violation with the full
table, so each counterexample is replayable standalone.  An exhaustive
census is split into GL(n, p) isomorphism classes (see classes), and its
campaigns evaluate the statement once per class.

Theorem ids
-----------
Per-algebra: lsupp_closure, pfrat, cE, pequ, tsolv, tsupp, pss,
csimple_neg_char2.  Pair universes: ldsum (direct sums of completely
factorisable algebras stay completely factorisable) and csupp_dsum (the
deliberately FALSE statement that direct sums of c-supplemented algebras
stay c-supplemented; running it is expected to produce counterexamples).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .classify import Analyzer
from .formats import algebra_to_doc, jsonable
from .gfp import PrimeField, primitive_root, require_int64_safe
from .lattice import _block_rows
from .liealg import InvalidAlgebraError, LieAlgebra, jacobi_residuals
from .subspace import CapExceededError, Subspace, _LRU

DEFAULT_TABLE_CAP = 2**25
# (p, n) class lists kept by classes(); the dim-4 GF(2) list alone takes
# minutes to build again
CLASS_CACHE_SLOTS = 8

PAIR_THEOREMS = ("ldsum", "csupp_dsum")


@dataclass
class CensusSpec:
    """Universe description: all dims 1..max_dim over GF(p)."""

    p: int
    max_dim: int
    mode: str = "exhaustive"  # "exhaustive" | "random"
    count: int = 0  # random mode: number of accepted algebras
    seed: int = 0
    table_cap: int = DEFAULT_TABLE_CAP

    def __post_init__(self):
        # refuse a bad modulus before any cap is consulted, and an empty
        # universe, over which a campaign would confirm having examined nothing
        PrimeField(self.p)
        if self.max_dim < 1:
            raise ValueError(f"max_dim must be at least 1, got {self.max_dim}")
        if self.mode == "random" and self.count < 1:
            raise ValueError(f"a random universe needs count >= 1, got {self.count}")
        # the first of the two uint64 words of a sample's Philox key
        if self.mode == "random" and not 0 <= self.seed < 2**64:
            raise ValueError(f"a random universe needs 0 <= seed < 2^64, got {self.seed}")
        require_int64_safe(self.p, self.max_dim)

    def dims(self) -> range:
        return range(1, self.max_dim + 1)

    def describe(self) -> Dict:
        out = {"p": self.p, "max_dim": self.max_dim, "mode": self.mode}
        if self.mode == "random":
            out["count"] = self.count
            out["seed"] = self.seed
        return out


@dataclass
class CensusEntry:
    index: Tuple  # ("e", dim, table_index) or ("r", dim, counter)
    algebra: LieAlgebra


def table_digit_count(n: int) -> int:
    return n * (n * (n - 1) // 2)


def _check_exhaustive_caps(spec: CensusSpec, use: str = "") -> None:
    """Refuse, before any table is made, the exhaustive census of a spec
    with a dimension past its table cap, the one guard on census size;
    `use` names what the census is wanted for."""
    for n in spec.dims():
        total = spec.p ** table_digit_count(n)
        if total > spec.table_cap:
            raise CapExceededError(total, spec.table_cap, f"candidate tables{use}")


def _tables_from_digits(digits: np.ndarray, n: int, p: int) -> np.ndarray:
    """Antisymmetric tables of shape (b, n, n, n) from rows of digits in
    [0, p), each of length n*(n(n-1)/2): pair-major (lex pairs i<j),
    coefficient index ascending within a pair."""
    tables = np.zeros((len(digits), n, n, n), dtype=np.int64)
    pos = 0
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = digits[:, pos : pos + n]
            tables[:, i, j] = coeffs
            tables[:, j, i] = (-coeffs) % p
            pos += n
    return tables


def _tables_from_indices(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Tables of the given indices: the base-p digits of an index, most
    significant first, in the digit order of _tables_from_digits."""
    e = table_digit_count(n)
    digits = np.empty((len(idx), e), dtype=np.int64)
    rem = np.array(idx, dtype=np.int64)
    for pos in range(e - 1, -1, -1):
        digits[:, pos] = rem % p
        rem //= p
    return _tables_from_digits(digits, n, p)


def _index_weights(n: int, p: int) -> np.ndarray:
    """W of shape (n, n, n) with index(table) = sum(W * table): the place
    value of each digit at its (i < j, k) position, 0 below the diagonal."""
    w = np.zeros((n, n, n), dtype=np.int64)
    place = table_digit_count(n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                place -= 1
                w[i, j, k] = p**place
    return w


def _jacobi_batches(p: int, n: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(indices, tables) of the Jacobi-passing tables of dimension n, in
    index order, decoded and filtered in lattice._block_rows batches: a
    table holds its digits and n^3 entries, the 3 C(n, 3) n (n + 1) values
    jacobi_residuals gathers, 3 C(n, 3) n products and C(n, 3) n residuals."""
    e, triples = table_digit_count(n), n * (n - 1) * (n - 2) // 6
    stop = p**e
    step = _block_rows(e + n**3 + 3 * triples * n * (n + 2) + triples * n)
    for lo in range(0, stop, step):
        idx = np.arange(lo, min(lo + step, stop), dtype=np.int64)
        tables = _tables_from_indices(idx, n, p)
        ok = ~jacobi_residuals(tables, p).reshape(len(idx), -1).any(axis=1)
        yield idx[ok], tables[ok]


# -- isomorphism classes ----------------------------------------------------


def _generators(n: int, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n(n-1)+1 elementary generators of GL(n, p) and their inverses:
    the transvections I + E_ij (i != j), which generate SL(n, p), and for
    p > 2 diag(g, 1, ..., 1) with g a primitive root, whose determinant
    generates the units."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    gens = np.tile(np.eye(n, dtype=np.int64), (len(pairs) + (p > 2), 1, 1))
    invs = gens.copy()
    for g, (i, j) in enumerate(pairs):
        gens[g, i, j], invs[g, i, j] = 1, p - 1
    if p > 2:
        root = primitive_root(p)
        gens[-1, 0, 0], invs[-1, 0, 0] = root, pow(root, p - 2, p)
    return gens, invs


def _is_marked(bits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return ((bits[idx >> 3] >> (idx & 7)) & 1).astype(bool)


def _mark(bits: np.ndarray, idx: np.ndarray) -> None:
    np.bitwise_or.at(bits, idx >> 3, (1 << (idx & 7)).astype(np.uint8))


def _orbit(table: np.ndarray, p: int, bits: np.ndarray) -> np.ndarray:
    """Sorted table indices of the GL(n, p)-orbit of `table`.

    The orbit is the closure of the table under the basis changes
    f_i = sum_a T[i, a] e_a of the elementary generators T, breadth first,
    so the work grows with the orbit and not with |GL(n, p)|.  Every index
    found is marked in the bitset `bits` (one bit per table index), and a
    marked index counts as already found, so `bits` must hold no index of
    this orbit on entry.  The frontier goes in _block_rows batches, a table
    holding the n^3 values of w and of its image under each generator."""
    n = table.shape[0]
    gens, invs = _generators(n, p)
    weights = _index_weights(n, p)
    frontier = table[None]
    found = [np.tensordot(frontier, weights, axes=3)]
    _mark(bits, found[0])
    step = _block_rows(2 * len(gens) * n**3)
    while len(frontier):
        grown = []
        for lo in range(0, len(frontier), step):
            part = frontier[lo : lo + step]
            # [f_i, f_j] in the old basis, then its coordinates in the new
            w = np.einsum("gia,gjb,fabm->fgijm", gens, gens, part) % p
            images = (np.einsum("fgijm,gmk->fgijk", w, invs) % p).reshape(-1, n, n, n)
            codes, first = np.unique(
                np.tensordot(images, weights, axes=3), return_index=True
            )
            new = ~_is_marked(bits, codes)
            _mark(bits, codes[new])
            found.append(codes[new])
            grown.append(images[first[new]])
        frontier = np.concatenate(grown)
    return np.sort(np.concatenate(found))


def _new_bitset(p: int, n: int) -> np.ndarray:
    return np.zeros(-(-(p ** table_digit_count(n)) // 8), dtype=np.uint8)


def _sweep_classes(p: int, n: int) -> Iterator[Tuple[int, LieAlgebra, int]]:
    field_ = PrimeField(p)
    bits = _new_bitset(p, n)
    for idx, tables in _jacobi_batches(p, n):
        for t, table in zip(idx, tables):
            if not _is_marked(bits, t):
                size = len(_orbit(table, p, bits))
                yield int(t), LieAlgebra(field_, n, table=table), size


_CLASSES = _LRU(CLASS_CACHE_SLOTS)


def classes(p: int, n: int) -> Tuple[Tuple[int, LieAlgebra, int], ...]:
    """The isomorphism classes of n-dimensional Lie algebras over GF(p), as
    (t, representative, orbit size) triples in increasing t.

    One sweep over the census in index order marks, at each Jacobi-passing
    index t not yet marked, the whole GL(n, p)-orbit of t's table in a
    bitset of p^(n^2(n-1)/2) bits; t is then the least index of its orbit,
    whose table, the representative, is the lexicographically least table of
    the class.  Only representatives are built as algebras.  The orbit sizes
    add up to the number of Jacobi-passing tables.  Results are kept for the
    last CLASS_CACHE_SLOTS (p, n) pairs.  No cap is checked here: a census
    spec checks its own (see verify)."""
    got = _CLASSES.get((p, n))
    if got is None:
        got = _CLASSES[(p, n)] = tuple(_sweep_classes(p, n))
    return got


def class_members(L: LieAlgebra) -> Iterator[Tuple[int, LieAlgebra]]:
    """(t, algebra) for every table of the GL(n, p)-orbit of L's table, that
    is every census table isomorphic to L, in increasing index t.  Like
    classes, it takes a bitset of one bit per census table of dimension n;
    members are decoded in _block_rows batches of digits and n^3 entries."""
    n, p = L.dim, L.p
    members = _orbit(np.array(L.table), p, _new_bitset(p, n))
    step = _block_rows(table_digit_count(n) + n**3)
    for lo in range(0, len(members), step):
        idx = members[lo : lo + step]
        for t, table in zip(idx, _tables_from_indices(idx, n, p)):
            yield int(t), LieAlgebra(L.field, n, table=table)


def _representative_if_new(L: LieAlgebra, bits: np.ndarray) -> Optional[LieAlgebra]:
    """The representative of L's isomorphism class, the least table of its
    GL(n, p)-orbit, with the whole orbit marked in `bits` (one bit per
    census table of dimension n); None when L's table is already marked."""
    n, p = L.dim, L.p
    if _is_marked(bits, np.tensordot(L.table, _index_weights(n, p), axes=3)):
        return None
    least = _orbit(np.array(L.table), p, bits)[:1]
    return LieAlgebra(L.field, n, table=_tables_from_indices(least, n, p)[0])


def generate(spec: CensusSpec) -> Iterator[CensusEntry]:
    """Stream the universe: every Jacobi-passing table exactly once in
    exhaustive mode, or a seeded counter-based random sample with
    count // max_dim algebras of each dimension (the remainder going to the
    lowest dimensions); at most spec.table_cap tables are drawn."""
    field_ = PrimeField(spec.p)
    if spec.mode == "exhaustive":
        _check_exhaustive_caps(spec)
        # only the Jacobi-passing tables are built (and validated again)
        for n in spec.dims():
            for idx, tables in _jacobi_batches(spec.p, n):
                for t, table in zip(idx, tables):
                    yield CensusEntry(("e", n, int(t)), LieAlgebra(field_, n, table=table))
    elif spec.mode == "random":
        accepted = 0
        counter = 0
        dims = list(spec.dims())
        while accepted < spec.count:
            if counter >= spec.table_cap:
                raise CapExceededError(counter + 1, spec.table_cap, "random tables")
            # counter-based generator: a sample is reproducible from (seed,
            # counter), given as uint64 words (numpy rounds a list holding a
            # seed past 2^63 through float64, and those near 2^64 to 0)
            key = np.array([spec.seed, counter], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            n = dims[accepted % len(dims)]
            digits = gen.integers(0, spec.p, size=table_digit_count(n))
            table = _tables_from_digits(digits[None], n, spec.p)[0]
            counter += 1
            try:
                alg = LieAlgebra(field_, n, table=table)
            except InvalidAlgebraError:
                continue
            yield CensusEntry(("r", n, counter - 1), alg)
            accepted += 1
    else:
        raise ValueError(f"unknown census mode {spec.mode!r}")


def candidate_count(spec: CensusSpec) -> int:
    if spec.mode != "exhaustive":
        return spec.count
    return sum(spec.p ** table_digit_count(n) for n in spec.dims())


# -- per-algebra theorem checkers -------------------------------------------


def _rows(s: Subspace):
    return [list(r) for r in s.rows]


def _check_lsupp_closure(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if not az.c_supplemented(L)[0]:
        return None
    lat = az.lattice(L)
    # c-supplementation depends on the induced table alone, so each table
    # is tested once, on its first row: the first failing row of a
    # dimension is then the first row of the first failing table
    for k in range(1, L.dim):
        for rows in lat.table_groups(k).values():
            b = lat.member(k, rows[0])
            if not az.c_supplemented(L.as_algebra(b))[0]:
                return {"kind": "subalgebra_not_c_supplemented", "subalgebra": _rows(b)}
    for k in range(1, L.dim):
        for i in lat.ideals(k):
            if not az.c_supplemented(L.quotient(i))[0]:
                return {"kind": "quotient_not_c_supplemented", "ideal": _rows(i)}
    return None


def _check_pfrat(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    lat = az.lattice(L)
    phi_l = az.frattini(L)
    # LatticeCache.unsupplemented(k), for each k on first use
    unsupplemented: Dict[int, np.ndarray] = {}
    for (k, row), phi_d in lat.subalgebra_phis().items():
        for b in lat.inside(phi_d):
            if b.dim == 0:
                continue
            if b.dim not in unsupplemented:
                unsupplemented[b.dim] = lat.unsupplemented(b.dim)
            if lat.row(b) in unsupplemented[b.dim]:
                continue
            if not (L.is_ideal(b) and phi_l.contains(b)):
                return {
                    "kind": "frattini_subalgebra_not_promoted",
                    "D": _rows(lat.member(k, row)),
                    "B": _rows(b),
                }
    return None


def _check_cE(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if not az.c_supplemented(L)[0]:
        return None
    ok, failing = az.e_algebra(L)
    if not ok:
        return {"kind": "not_E_algebra", "subalgebra": _rows(failing)}
    return None


def _check_pequ(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    phi = az.frattini(L)
    lhs = az.c_supplemented(L)[0]
    q = L.quotient(phi)
    rhs = (
        az.completely_factorisable(q)[0]
        and az.lattice(L).first_non_ideal_inside(phi) is None
    )
    if lhs != rhs:
        return {"kind": "equivalence_fails", "c_supplemented": lhs, "criterion": rhs}
    return None


def _check_tsolv(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if not L.is_solvable():
        return None
    phi = az.frattini(L)
    lhs = az.c_supplemented(L)[0]
    rhs = az.supersolvable(L) and az.lattice(L).first_non_ideal_inside(phi) is None
    if lhs != rhs:
        return {"kind": "solvable_equivalence_fails", "c_supplemented": lhs, "criterion": rhs}
    return None


def _check_tsupp(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    lhs = az.c_supplemented(L)[0]
    rhs, info = az.main_decomposition(L)
    if lhs != rhs:
        return {
            "kind": "main_classification_fails",
            "c_supplemented": lhs,
            "decomposition": rhs,
            "detail": jsonable(info),
        }
    return None


def _check_pss(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if L.dim == 0 or az.radical(L).dim != 0:
        return None
    lhs = az.c_supplemented(L)[0]
    rhs = az.semisimple_shape(L)[0]
    if lhs != rhs:
        return {"kind": "semisimple_equivalence_fails", "c_supplemented": lhs, "shape": rhs}
    return None


def _check_csimple_neg_char2(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if L.p != 2:
        return None
    if az.simple(L) and az.c_supplemented(L)[0]:
        return {"kind": "char2_simple_c_supplemented"}
    return None


CHECKERS = {
    "lsupp_closure": _check_lsupp_closure,
    "pfrat": _check_pfrat,
    "cE": _check_cE,
    "pequ": _check_pequ,
    "tsolv": _check_tsolv,
    "tsupp": _check_tsupp,
    "pss": _check_pss,
    "csimple_neg_char2": _check_csimple_neg_char2,
}


# -- verdict logs -----------------------------------------------------------


@dataclass
class VerdictLog:
    theorem: str
    universe: Dict
    examined: int
    counterexamples: List[Dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    # representatives checked, member tables re-checked, class-build seconds,
    # pair sums whose conclusion was computed
    classes: int = 0
    members_rerun: int = 0
    classes_s: float = 0.0
    sums_tested: int = 0

    @property
    def confirmed(self) -> bool:
        return not self.counterexamples

    def to_doc(self) -> Dict:
        return {
            "theorem": self.theorem,
            "universe": self.universe,
            "examined": self.examined,
            "confirmed": self.confirmed,
            "counterexamples": self.counterexamples,
            "timing": {
                "elapsed_s": round(self.elapsed_s, 3),
                "classes": self.classes,
                "members_rerun": self.members_rerun,
                "classes_s": round(self.classes_s, 3),
                "sums_tested": self.sums_tested,
            },
        }


def _timed_classes(spec: CensusSpec, n: int, log: VerdictLog):
    """classes(spec.p, n), its build time added to log.classes_s (0 on a
    cache hit); the caller has checked the spec's table cap."""
    t0 = time.monotonic()
    out = classes(spec.p, n)
    log.classes_s += time.monotonic() - t0
    return out


def _counterexample(index: Tuple, alg: LieAlgebra, violation: Dict) -> Dict:
    return {"index": list(index), "algebra": algebra_to_doc(alg), "violation": violation}


def verify(
    theorem_id: str,
    spec: CensusSpec,
    dedup: bool = True,
    analyzer: Optional[Analyzer] = None,
) -> VerdictLog:
    """Evaluate one statement over the whole universe; log every violation.

    An exhaustive per-algebra campaign checks one representative per
    isomorphism class (see classes) and counts its whole orbit as examined.
    A class whose representative fails is checked again table by table, in
    index order, because a violation's details are written in the table's
    own basis; so the document is the one a check of every table would
    give.  A random universe, and any universe when dedup is false, is
    checked table by table.  Every lattice comes from `analyzer` (a fresh
    Analyzer() with the default subspace cap unless one is passed), so its
    cap is the campaign's one guard on lattice size; the spec's table cap
    guards the census."""
    start_time = time.monotonic()
    if theorem_id in PAIR_THEOREMS:
        log = _verify_pairs(theorem_id, spec, dedup, analyzer)
    elif theorem_id not in CHECKERS:
        raise KeyError(
            f"unknown theorem id {theorem_id!r}; known: "
            f"{sorted(CHECKERS) + list(PAIR_THEOREMS)}"
        )
    else:
        az = analyzer or Analyzer()
        log = VerdictLog(theorem_id, spec.describe(), 0)
        if spec.mode == "exhaustive" and dedup:
            _check_classes(CHECKERS[theorem_id], spec, az, log)
        else:
            _check_tables(CHECKERS[theorem_id], spec, az, log)
    log.elapsed_s = time.monotonic() - start_time
    return log


def _check_tables(checker, spec: CensusSpec, az: Analyzer, log: VerdictLog):
    for entry in generate(spec):
        log.examined += 1
        v = checker(entry.algebra, az)
        if v is not None:
            log.counterexamples.append(_counterexample(entry.index, entry.algebra, v))


def _check_classes(checker, spec: CensusSpec, az: Analyzer, log: VerdictLog):
    _check_exhaustive_caps(spec)
    found = []  # (dim, index, algebra, violation)
    for n in spec.dims():
        for t, rep, size in _timed_classes(spec, n, log):
            log.examined += size
            log.classes += 1
            v = checker(rep, az)
            if v is None:
                continue
            found.append((n, t, rep, v))
            for u, alg in class_members(rep):
                if u != t:
                    log.members_rerun += 1
                    w = checker(alg, az)
                    if w is not None:
                        found.append((n, u, alg, w))
    found.sort(key=lambda f: (f[0], f[1]))
    log.counterexamples = [_counterexample(("e", n, t), a, v) for n, t, a, v in found]


def _verify_pairs(
    theorem_id: str,
    spec: CensusSpec,
    dedup: bool,
    analyzer: Optional[Analyzer],
) -> VerdictLog:
    """Pair campaigns: filter the universe by the hypothesis predicate,
    optionally deduplicate by isomorphism class, then examine every ordered
    direct sum of the members.  Swapping the summands is an isomorphism of
    A + B onto B + A, and both conclusions are isomorphism invariants, so
    the conclusion is tested once per unordered pair of member positions
    i <= j and its verdict reused for (j, i).  Every ordered pair still
    counts as examined, and a failing one is reported in order with its own
    summands and the table of its own sum.

    An exhaustive universe dedups through its class representatives.  A
    random one keeps, per class, the representative in place of the first
    sample that satisfies the hypothesis, finding classes by orbit in a
    bitset of the whole census of each dimension; so it is refused wherever
    that census would be."""
    require_int64_safe(spec.p, 2 * spec.max_dim)  # the sums double the dimension
    random_dedup = dedup and spec.mode != "exhaustive"
    if random_dedup:
        _check_exhaustive_caps(
            spec, " for the dedup of a random universe (--no-dedup skips it)"
        )
    az = analyzer or Analyzer()
    # the hypothesis of each summand and the conclusion of each sum
    holds = az.completely_factorisable if theorem_id == "ldsum" else az.c_supplemented
    log = VerdictLog(theorem_id, spec.describe(), 0)
    members: List[Tuple[Tuple, LieAlgebra]] = []
    if dedup and not random_dedup:
        _check_exhaustive_caps(spec)
        for n in spec.dims():
            for t, rep, _size in _timed_classes(spec, n, log):
                log.classes += 1
                if holds(rep)[0]:
                    members.append((("e", n, t), rep))
    else:
        bits = {n: _new_bitset(spec.p, n) for n in spec.dims()} if dedup else None
        for entry in generate(spec):
            alg = entry.algebra
            if not holds(alg)[0]:
                continue
            if dedup:
                alg = _representative_if_new(alg, bits[alg.dim])
                if alg is None:
                    continue
                log.classes += 1
            members.append((entry.index, alg))
    failed = set()  # (i, j), i <= j, whose sum fails the conclusion
    for i, (idx_a, a) in enumerate(members):
        for j, (idx_b, b) in enumerate(members):
            log.examined += 1
            if i <= j:
                log.sums_tested += 1
                d = a.direct_sum(b)
                if holds(d)[0]:
                    continue
                failed.add((i, j))
            elif (j, i) in failed:
                d = a.direct_sum(b)  # the table of this pair's own sum
            else:
                continue
            log.counterexamples.append(
                {
                    "index": [list(idx_a), list(idx_b)],
                    "summands": [algebra_to_doc(a), algebra_to_doc(b)],
                    "algebra": algebra_to_doc(d),
                    "violation": {"kind": f"{theorem_id}_conclusion_fails"},
                }
            )
    log.universe["pairs"] = True
    log.universe["dedup_by_isomorphism"] = dedup
    log.universe["members"] = len(members)
    return log
