"""Census generation and theorem-verification campaigns.

A census is an exhaustive (or seeded-random) universe of structure-constant
tables over GF(p), Jacobi-filtered into Lie algebras.  Each verification
campaign evaluates one structural statement on every algebra (or ordered
pair of algebras) of the universe and logs every violation with the full
table, so each counterexample is replayable standalone.

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
from multiprocessing import Pool
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .classify import ISO_DIM_LIMIT, Analyzer, c_supplement
from .formats import algebra_to_doc, jsonable
from .gfp import PrimeField, require_int64_safe
from .liealg import InvalidAlgebraError, LieAlgebra, jacobi_residuals
from .subspace import CapExceededError, DEFAULT_SUBSPACE_CAP, Subspace

DEFAULT_TABLE_CAP = 2**25
# tables decoded and Jacobi-filtered together: the int64 residuals of one
# batch take 2 MB in dimension 3 and 8 MB in dimension 4
JACOBI_BATCH = 1024

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
    dim4_opt_in: bool = False

    def __post_init__(self):
        # refuse a bad modulus before any cap is consulted
        PrimeField(self.p)
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


def _check_exhaustive_caps(spec: CensusSpec, n: int) -> int:
    total = spec.p ** table_digit_count(n)
    if total > spec.table_cap:
        raise CapExceededError(total, spec.table_cap, "candidate tables")
    if n >= 4 and not spec.dim4_opt_in:
        raise CapExceededError(
            total, 0, f"dim-{n} exhaustive tables (enable dim4_opt_in)"
        )
    return total


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


def _exhaustive_algebras(
    p: int, n: int, start: int, stop: int
) -> Iterator[Tuple[int, LieAlgebra]]:
    """(t, algebra) for every Jacobi-passing table index t in [start, stop),
    in order.  Indices are decoded and Jacobi-filtered JACOBI_BATCH at a time,
    and only the passing tables are built (and validated again) as algebras."""
    field_ = PrimeField(p)
    e = table_digit_count(n)
    for lo in range(start, stop, JACOBI_BATCH):
        idx = np.arange(lo, min(lo + JACOBI_BATCH, stop), dtype=np.int64)
        digits = np.empty((len(idx), e), dtype=np.int64)
        rem = idx.copy()
        for pos in range(e - 1, -1, -1):
            digits[:, pos] = rem % p
            rem //= p
        tables = _tables_from_digits(digits, n, p)
        ok = ~jacobi_residuals(tables, p).reshape(len(idx), -1).any(axis=1)
        for b in np.flatnonzero(ok):
            yield int(idx[b]), LieAlgebra(field_, n, table=tables[b])


def generate(spec: CensusSpec) -> Iterator[CensusEntry]:
    """Stream the universe: every Jacobi-passing table exactly once in
    exhaustive mode, or a seeded counter-based random sample with
    count // max_dim algebras of each dimension (the remainder going to the
    lowest dimensions); at most spec.table_cap tables are drawn."""
    if spec.mode == "exhaustive":
        for n in spec.dims():
            total = _check_exhaustive_caps(spec, n)
            for t, alg in _exhaustive_algebras(spec.p, n, 0, total):
                yield CensusEntry(("e", n, t), alg)
    elif spec.mode == "random":
        field_ = PrimeField(spec.p)
        accepted = 0
        counter = 0
        dims = list(spec.dims())
        while accepted < spec.count:
            if counter >= spec.table_cap:
                raise CapExceededError(counter + 1, spec.table_cap, "random tables")
            # counter-based generator: workers can partition counter ranges
            gen = np.random.Generator(np.random.Philox(key=[spec.seed, counter]))
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


def _phi_subalgebras_ideal(L: LieAlgebra, phi: Subspace, az: Analyzer) -> bool:
    if phi.dim == 0:
        return True
    phi_alg, emb = L.as_algebra(phi)
    for s in az.lattice(phi_alg).subalgebras:
        if not L.is_ideal(emb.lift_space(s)):
            return False
    return True


def _check_lsupp_closure(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if not az.c_supplemented(L)[0]:
        return None
    lat = az.lattice(L)
    for k in lat.subalgebras:
        if 0 < k.dim < L.dim:
            sub, _ = L.as_algebra(k)
            if not az.c_supplemented(sub)[0]:
                return {"kind": "subalgebra_not_c_supplemented", "subalgebra": _rows(k)}
    for i in lat.ideals:
        if 0 < i.dim < L.dim:
            q, _ = L.quotient(i)
            if not az.c_supplemented(q)[0]:
                return {"kind": "quotient_not_c_supplemented", "ideal": _rows(i)}
    return None


def _check_pfrat(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    lat = az.lattice(L)
    phi_l = az.frattini(L)[1]
    for d in lat.subalgebras:
        if d.dim == 0:
            continue
        dalg, emb = L.as_algebra(d)
        phi_d = az.frattini(dalg)[1]
        if phi_d.dim == 0:
            continue
        lifted = emb.lift_space(phi_d)
        for b in lat.subalgebras:
            if b.dim == 0 or not lifted.contains(b):
                continue
            if c_supplement(L, lat, b) is None:
                continue
            if not (L.is_ideal(b) and phi_l.contains(b)):
                return {
                    "kind": "frattini_subalgebra_not_promoted",
                    "D": _rows(d),
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
    phi = az.frattini(L)[1]
    lhs = az.c_supplemented(L)[0]
    q, _ = L.quotient(phi)
    rhs = az.completely_factorisable(q)[0] and _phi_subalgebras_ideal(L, phi, az)
    if lhs != rhs:
        return {"kind": "equivalence_fails", "c_supplemented": lhs, "criterion": rhs}
    return None


def _check_tsolv(L: LieAlgebra, az: Analyzer) -> Optional[Dict]:
    if not L.is_solvable():
        return None
    phi = az.frattini(L)[1]
    lhs = az.c_supplemented(L)[0]
    rhs = az.supersolvable(L) and _phi_subalgebras_ideal(L, phi, az)
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
            "timing": {"elapsed_s": round(self.elapsed_s, 3)},
        }


def _verify_chunk(args) -> Tuple[int, List[Tuple]]:
    theorem_id, p, n, start, stop, sub_cap = args
    az = Analyzer(cap=sub_cap)
    checker = CHECKERS[theorem_id]
    examined = 0
    violations = []
    for t, alg in _exhaustive_algebras(p, n, start, stop):
        examined += 1
        v = checker(alg, az)
        if v is not None:
            violations.append((n, t, algebra_to_doc(alg), v))
    return examined, violations


def verify(
    theorem_id: str,
    spec: CensusSpec,
    subspace_cap: int = DEFAULT_SUBSPACE_CAP,
    workers: int = 1,
    dedup: bool = True,
    analyzer: Optional[Analyzer] = None,
) -> VerdictLog:
    """Evaluate one statement over the whole universe; log every violation.

    Only exhaustive per-algebra campaigns have a parallel path, so
    workers > 1 is refused (ValueError) for pair campaigns and random
    universes, as is workers < 1."""
    start_time = time.monotonic()
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers > 1 and (theorem_id in PAIR_THEOREMS or spec.mode != "exhaustive"):
        raise ValueError(
            "workers > 1 needs an exhaustive per-algebra campaign; "
            "pair campaigns and random universes run serially"
        )
    if theorem_id in PAIR_THEOREMS:
        log = _verify_pairs(theorem_id, spec, subspace_cap, dedup, analyzer)
        log.elapsed_s = time.monotonic() - start_time
        return log
    if theorem_id not in CHECKERS:
        raise KeyError(
            f"unknown theorem id {theorem_id!r}; known: "
            f"{sorted(CHECKERS) + list(PAIR_THEOREMS)}"
        )
    universe = spec.describe()
    examined = 0
    counterexamples = []
    if workers > 1:
        jobs = []
        for n in spec.dims():
            total = _check_exhaustive_caps(spec, n)
            step = max(1, total // (workers * 4))
            for s in range(0, total, step):
                jobs.append(
                    (theorem_id, spec.p, n, s, min(s + step, total), subspace_cap)
                )
        with Pool(workers) as pool:
            results = pool.map(_verify_chunk, jobs)
        merged = []
        for ex, vs in results:
            examined += ex
            merged.extend(vs)
        merged.sort(key=lambda item: (item[0], item[1]))
        for n, t, doc, v in merged:
            counterexamples.append({"index": ["e", n, t], "algebra": doc, "violation": v})
    else:
        az = analyzer or Analyzer(cap=subspace_cap)
        checker = CHECKERS[theorem_id]
        for entry in generate(spec):
            examined += 1
            v = checker(entry.algebra, az)
            if v is not None:
                counterexamples.append(
                    {
                        "index": list(entry.index),
                        "algebra": algebra_to_doc(entry.algebra),
                        "violation": v,
                    }
                )
    return VerdictLog(
        theorem_id,
        universe,
        examined,
        counterexamples,
        time.monotonic() - start_time,
    )


def _verify_pairs(
    theorem_id: str,
    spec: CensusSpec,
    subspace_cap: int,
    dedup: bool,
    analyzer: Optional[Analyzer],
) -> VerdictLog:
    """Pair campaigns: filter the universe by the hypothesis predicate,
    optionally deduplicate by isomorphism class (canonical form, dims <= 3),
    then test every ordered direct sum."""
    require_int64_safe(spec.p, 2 * spec.max_dim)  # the sums double the dimension
    if dedup and spec.max_dim > ISO_DIM_LIMIT:
        # canonical forms are brute force; refuse before generating anything
        raise CapExceededError(
            spec.max_dim,
            ISO_DIM_LIMIT,
            "dimensions for isomorphism dedup (--no-dedup skips it)",
        )
    az = analyzer or Analyzer(cap=subspace_cap)
    if theorem_id == "ldsum":
        hypothesis = lambda a: az.completely_factorisable(a)[0]
        conclusion = lambda d: az.completely_factorisable(d)[0]
    else:  # csupp_dsum
        hypothesis = lambda a: az.c_supplemented(a)[0]
        conclusion = lambda d: az.c_supplemented(d)[0]
    members: List[Tuple[Tuple, LieAlgebra]] = []
    seen = set()
    for entry in generate(spec):
        if not hypothesis(entry.algebra):
            continue
        if dedup:
            canon = az.canonical(entry.algebra)
            if canon.key in seen:
                continue
            seen.add(canon.key)
            members.append((entry.index, canon))
        else:
            members.append((entry.index, entry.algebra))
    counterexamples = []
    examined = 0
    for idx_a, a in members:
        for idx_b, b in members:
            examined += 1
            d = a.direct_sum(b)
            if not conclusion(d):
                counterexamples.append(
                    {
                        "index": [list(idx_a), list(idx_b)],
                        "summands": [algebra_to_doc(a), algebra_to_doc(b)],
                        "algebra": algebra_to_doc(d),
                        "violation": {"kind": f"{theorem_id}_conclusion_fails"},
                    }
                )
    universe = spec.describe()
    universe["pairs"] = True
    universe["dedup_by_isomorphism"] = dedup
    universe["members"] = len(members)
    return VerdictLog(theorem_id, universe, examined, counterexamples)
