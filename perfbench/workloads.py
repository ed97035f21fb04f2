"""The benchmark's workloads: their inputs, their top-level calls and the
checks of every answer against recorded values.

Each workload is a list of `Call`s.  A call is one top-level entry into
liesupp (one `verify` campaign, or one `classify` through the CLI), the unit
that `slowest_call_s` reports.  `ops` is how many ops the call completes:
one algebra examined by one statement, one ordered pair, or one classified
algebra.  The functions of liesupp are looked up on their modules when a call
runs, so the tracer's wrappers see them.

Why each workload exists, and what was left out, is in README.md.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

STATEMENTS = (
    "lsupp_closure",
    "pfrat",
    "cE",
    "pequ",
    "tsolv",
    "tsupp",
    "pss",
    "csimple_neg_char2",
)

# classify_d6: (label, prime, left summand, right summand); a summand is a
# catalog name, and None means the catalog algebra is used as it is.
CLASSIFY_ALGEBRAS = (
    ("counterexample_double/GF(3)", 3, "counterexample_double", None),
    ("counterexample_double/GF(2)", 2, "counterexample_double", None),
    ("sl2+sl2/GF(3)", 3, "sl2", "sl2"),
    ("sl2+counterexample_L1/GF(3)", 3, "sl2", "counterexample_L1"),
    ("sl2+nonabelian2/GF(5)", 5, "sl2", "nonabelian2"),
    ("heisenberg+nonabelian2/GF(3)", 3, "heisenberg", "nonabelian2"),
    ("heisenberg+heisenberg/GF(2)", 2, "heisenberg", "heisenberg"),
    ("L1_gamma+L1_gamma/GF(2)", 2, "L1_gamma", "L1_gamma"),
)

SMOKE_CLASSIFY = (("heisenberg+nonabelian2/GF(2)", 2, "heisenberg", "nonabelian2"),)


@dataclass
class Call:
    name: str
    ops: int  # ops the call completes when it answers as recorded
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None, or what was wrong


@dataclass
class Workload:
    name: str
    calls: List[Call]
    op_boundaries: tuple  # span names that start a new op in the trace
    out_bytes: Callable[[], int] = lambda: 0


def _digest(doc: Dict) -> str:
    doc = {k: v for k, v in doc.items() if k != "timing"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def verdict_summary(doc: Dict) -> Dict:
    return {
        "examined": doc["examined"],
        "counterexamples": len(doc["counterexamples"]),
        "members": doc["universe"].get("members"),
        "sha256": _digest(doc),
    }


def _campaign_call(lib, theorem: str, p: int, max_dim: int, expected: Dict) -> Call:
    census = lib.census
    spec = census.CensusSpec(p=p, max_dim=max_dim)
    name = f"verify {theorem} GF({p}) dims<={max_dim}"
    want = expected.get(name)
    if want is None:
        raise KeyError(f"no recorded answer for {name!r}")

    def run():
        return census.verify(theorem, spec).to_doc()

    def check(doc):
        got = verdict_summary(doc)
        if got != want:
            return f"{name}: got {got}, recorded {want}"
        return None

    return Call(name, want["examined"], run, check)


# -- classify inputs: catalog algebras under a random change of basis ---------


def _inverse_mod(m: np.ndarray, p: int) -> Optional[np.ndarray]:
    """Inverse of a square matrix over GF(p) by Gauss-Jordan, or None."""
    n = m.shape[0]
    a = [[int(x) % p for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [(x * inv) % p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return np.array([row[n:] for row in a], dtype=np.int64)


def random_basis_change(n: int, p: int, rng: np.random.Generator):
    """A uniformly random element T of GL(n, p) and its inverse."""
    while True:
        t = rng.integers(0, p, size=(n, n), dtype=np.int64)
        t_inv = _inverse_mod(t, p)
        if t_inv is not None:
            return t, t_inv


def conjugate_table(table: np.ndarray, t: np.ndarray, t_inv: np.ndarray, p: int):
    """Structure constants in the basis f_i = sum_a t[i, a] e_a."""
    brackets = np.einsum("ia,jb,abm->ijm", t, t, table) % p
    return np.einsum("ijm,mk->ijk", brackets, t_inv) % p


def table_doc(table: np.ndarray, p: int) -> Dict:
    n = table.shape[0]
    return {
        "field": {"prime": p},
        "dim": n,
        "brackets": [
            {"i": i, "j": j, "coeffs": {str(k): int(c) for k, c in enumerate(table[i, j]) if c}}
            for i in range(n)
            for j in range(i + 1, n)
            if table[i, j].any()
        ],
    }


def catalog_table(lib, p: int, left: str, right: Optional[str]) -> np.ndarray:
    catalog = lib.liealg.catalog
    alg = catalog(left, p)
    if right is not None:
        alg = alg.direct_sum(catalog(right, p))
    return np.array(alg.table)


def classify_answer(report: Dict) -> Dict:
    """The basis-independent part of a classify report."""
    return {
        "predicates": report["predicates"],
        "lattice": report["lattice"],
        "phi_dim": report["witnesses"]["phi"]["dim"],
    }


def _classify_calls(lib, algebras, seed: int, workdir: Path, expected: Dict, sizes: List):
    rng = np.random.Generator(np.random.PCG64(seed))
    calls = []
    for idx, (label, p, left, right) in enumerate(algebras):
        want = expected.get(label)
        if want is None:
            raise KeyError(f"no recorded answer for {label!r}")
        table = catalog_table(lib, p, left, right)
        t, t_inv = random_basis_change(table.shape[0], p, rng)
        doc_path = workdir / f"algebra{idx}.json"
        out_path = workdir / f"report{idx}.json"
        doc_path.write_text(json.dumps(table_doc(conjugate_table(table, t, t_inv, p), p)))
        calls.append(_classify_call(lib, label, doc_path, out_path, want, sizes))
    return calls


def _classify_call(lib, label, doc_path: Path, out_path: Path, want: Dict, sizes: List) -> Call:
    cli = lib.cli

    def run():
        if out_path.exists():
            out_path.unlink()
        return cli.main(["classify", str(doc_path), "--out", str(out_path)])

    def check(code):
        if code != 0:
            return f"classify {label}: exit code {code}"
        blob = out_path.read_bytes()
        sizes.append(len(blob))
        got = classify_answer(json.loads(blob))
        if got != want:
            return f"classify {label}: got {got}, recorded {want}"
        return None

    return Call(f"classify {label}", 1, run, check)


def classify_document(lib, table: np.ndarray, p: int, doc_path: Path, out_path: Path) -> Dict:
    """Write the algebra as a document and classify it through the CLI,
    untimed; returns the basis-independent answer."""
    doc_path.write_text(json.dumps(table_doc(table, p)))
    if lib.cli.main(["classify", str(doc_path), "--out", str(out_path)]) != 0:
        raise RuntimeError(f"classify {doc_path} failed")
    return classify_answer(json.loads(out_path.read_text()))


def classify_both_bases(lib, algebra, seed: int, workdir: Path):
    """Classify answers for one algebra before and after a random change of
    basis."""
    workdir.mkdir(parents=True, exist_ok=True)
    label, p, left, right = algebra
    table = catalog_table(lib, p, left, right)
    t, t_inv = random_basis_change(table.shape[0], p, np.random.Generator(np.random.PCG64(seed)))
    return [
        classify_document(lib, tab, p, workdir / f"basis{i}.json", workdir / f"basis_report{i}.json")
        for i, tab in enumerate((table, conjugate_table(table, t, t_inv, p)))
    ]


# -- the workloads ------------------------------------------------------------


def build(lib, name: str, seed: int, workdir: Path, expected: Dict) -> Workload:
    """Inputs of one workload; `seed` only changes classify's basis changes."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "campaigns_d3":
        want = expected["campaigns"]
        calls = [_campaign_call(lib, th, 2, 3, want) for th in STATEMENTS]
        calls.append(_campaign_call(lib, "tsupp", 3, 3, want))
        return Workload(name, calls, ("census.checker",))
    if name == "pairs_gf2":
        want = expected["pairs"]
        calls = [_campaign_call(lib, th, 2, 3, want) for th in ("ldsum", "csupp_dsum")]
        return Workload(name, calls, ("liealg.direct_sum",))
    if name == "classify_d6":
        sizes: List[int] = []
        calls = _classify_calls(lib, CLASSIFY_ALGEBRAS, seed, workdir, expected["classify"], sizes)
        return Workload(name, calls, ("cli.main",), out_bytes=lambda: sum(sizes))
    if name == "smoke":
        want = expected["smoke"]
        sizes = []
        calls = [_campaign_call(lib, th, 2, 2, want) for th in STATEMENTS]
        calls += [_campaign_call(lib, th, 2, 2, want) for th in ("ldsum", "csupp_dsum")]
        calls += _classify_calls(lib, SMOKE_CLASSIFY, seed, workdir, want, sizes)
        return Workload(name, calls, ("census.checker", "cli.main"), out_bytes=lambda: sum(sizes))
    raise KeyError(f"unknown workload {name!r}")


def record(lib, workdir: Path) -> Dict:
    """Recompute every recorded answer.  Classify answers come from the
    algebras before any change of basis."""
    workdir.mkdir(parents=True, exist_ok=True)
    out: Dict = {"campaigns": {}, "pairs": {}, "classify": {}, "smoke": {}}
    census = lib.census

    def campaign(section, theorem, p, max_dim):
        doc = census.verify(theorem, census.CensusSpec(p=p, max_dim=max_dim)).to_doc()
        out[section][f"verify {theorem} GF({p}) dims<={max_dim}"] = verdict_summary(doc)

    for th in STATEMENTS:
        campaign("campaigns", th, 2, 3)
        campaign("smoke", th, 2, 2)
    campaign("campaigns", "tsupp", 3, 3)
    for th in ("ldsum", "csupp_dsum"):
        campaign("pairs", th, 2, 3)
        campaign("smoke", th, 2, 2)
    for section, algebras in (("classify", CLASSIFY_ALGEBRAS), ("smoke", SMOKE_CLASSIFY)):
        for label, p, left, right in algebras:
            out[section][label] = classify_document(
                lib,
                catalog_table(lib, p, left, right),
                p,
                workdir / "record.json",
                workdir / "record_report.json",
            )
    return out

