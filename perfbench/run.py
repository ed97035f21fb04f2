#!/usr/bin/env python3
"""Benchmark of liesupp: verify campaigns, pair campaigns and classify.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaigns_d3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # the three workloads, one process
    python3 perfbench/run.py --self-test                  # smoke check, a few seconds
    python3 perfbench/run.py --record                     # rewrite expected.json

With `--trace 0` a run repeats whole passes over the workload's calls, untraced,
while another pass still fits in `--seconds` (at least one pass), and reports
the median pass.  With `--trace 1` it makes one untraced pass and then one
traced pass, and reports the per-layer numbers of the traced pass.  Every
answer is checked against `expected.json`; a wrong or failed answer counts in
`failed` and makes the exit code 1.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.  Results, provenance and
trace spans are also written under `.perfbench/` in the checkout.
"""
from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One serial caller: native thread pools are pinned before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from tracer import MODULES, Tracer, wrapped_leftovers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 7
# setup_s is given at the machine speed where the reference kernel takes this
# long, so that a busy phase of a shared machine does not read as a slower
# set-up; the measured median is printed as setup_raw_s.
NOMINAL_REF_S = 0.025

# Times of the workload's calls are reported in reference units (see
# calibrate.py): on a shared machine they are far steadier than seconds, which
# are printed beside them as wall_s, ops_per_s and slowest_call_s.
END_TO_END = (
    ("wall_ref", "ref"),
    ("ops_per_ref", "1/ref"),
    ("slowest_call_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Per-layer metrics of the traced pass.  A self time is listed in
# BENCHMARK.json only when every workload enters its span, so that no listed
# time reads 0 on every run of some workload; the others, in
# PER_LAYER_REPORT_ONLY, are printed and written to the result file.
PER_LAYER = (
    ("gfp.PrimeField.calls", "count"),
    ("gfp.PrimeField.self_s", "s"),
    ("subspace.rref.calls", "count"),
    ("subspace.rref.self_s", "s"),
    ("subspace.Subspace.span.calls", "count"),
    ("subspace.Subspace.member.calls", "count"),
    ("subspace.Subspace.contains.calls", "count"),
    ("subspace.Subspace.contains.self_s", "s"),
    ("subspace.Subspace.sum.calls", "count"),
    ("subspace.Subspace.sum.self_s", "s"),
    ("subspace.Subspace.intersect.calls", "count"),
    ("subspace.Subspace.intersect.self_s", "s"),
    ("subspace.echelon_arrays.rows", "count"),
    ("subspace.echelon_arrays.self_s", "s"),
    ("liealg.LieAlgebra.calls", "count"),
    ("liealg.LieAlgebra.self_s", "s"),
    ("liealg.jacobi_rejects", "count"),
    ("liealg.bracket.calls", "count"),
    ("liealg.bracket.self_s", "s"),
    ("liealg.as_algebra.calls", "count"),
    ("liealg.quotient.calls", "count"),
    ("liealg.direct_sum.calls", "count"),
    ("lattice.build_lattice.calls", "count"),
    ("lattice.build_lattice.self_s", "s"),
    ("lattice.build_lattice.subspaces", "count"),
    ("lattice.core.calls", "count"),
    ("lattice.core.self_s", "s"),
    ("lattice.frattini.calls", "count"),
    ("lattice.frattini.self_s", "s"),
    ("lattice.radical.calls", "count"),
    ("lattice.radical.self_s", "s"),
    ("lattice.is_supersolvable.calls", "count"),
    ("lattice.is_supersolvable.self_s", "s"),
    ("lattice.minimal_ideals.self_s", "s"),
    ("classify.classify_algebra.self_s", "s"),
    ("classify.c_supplement.calls", "count"),
    ("classify.c_supplement.self_s", "s"),
    ("classify.is_c_supplemented_algebra.calls", "count"),
    ("classify.is_c_supplemented_algebra.self_s", "s"),
    ("classify.is_isomorphic_small.calls", "count"),
    ("classify.is_isomorphic_small.self_s", "s"),
    ("classify.canonical_form_small.calls", "count"),
    ("classify.canonical_form_small.self_s", "s"),
    ("classify.is_completely_factorisable.self_s", "s"),
    ("classify.is_elementary.self_s", "s"),
    ("classify.is_E_algebra.self_s", "s"),
    ("classify.check_semisimple_shape.self_s", "s"),
    ("classify.check_main_decomposition.self_s", "s"),
    ("classify.Analyzer.lookups", "count"),
    ("classify.Analyzer.memo_hit_ratio", "ratio"),
    ("classify.Analyzer.lattice.calls", "count"),
    ("classify.Analyzer.lattice_hit_ratio", "ratio"),
    ("census.verify.calls", "count"),
    ("census.verify.self_s", "s"),
    ("census.generate.candidates", "count"),
    ("census.generate.accepted", "count"),
    ("census.generate.accept_ratio", "ratio"),
    ("census.generate.self_s", "s"),
    ("census.checker.self_s", "s"),
    ("formats.algebra_to_doc.calls", "count"),
    ("formats.algebra_to_doc.self_s", "s"),
    ("formats.algebra_from_doc.self_s", "s"),
    ("formats.jsonable.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("gfp.self_s", "s"),
    ("subspace.self_s", "s"),
    ("liealg.self_s", "s"),
    ("lattice.self_s", "s"),
    ("classify.self_s", "s"),
    ("trace.overhead_s", "s"),
)
PER_LAYER_REPORT_ONLY = frozenset(
    {
        "lattice.frattini.self_s",
        "lattice.radical.self_s",
        "lattice.is_supersolvable.self_s",
        "lattice.minimal_ideals.self_s",
        "classify.classify_algebra.self_s",
        "classify.c_supplement.self_s",
        "classify.is_isomorphic_small.self_s",
        "classify.canonical_form_small.self_s",
        "classify.is_elementary.self_s",
        "classify.is_E_algebra.self_s",
        "classify.check_semisimple_shape.self_s",
        "classify.check_main_decomposition.self_s",
        "census.verify.self_s",
        "census.generate.self_s",
        "census.checker.self_s",
        "formats.algebra_to_doc.self_s",
        "formats.algebra_from_doc.self_s",
        "formats.jsonable.self_s",
        "cli.main.self_s",
    }
)
LISTED_PER_LAYER = [n for n, _ in PER_LAYER if n not in PER_LAYER_REPORT_ONLY]

WORKLOAD_NAMES = ("campaigns_d3", "pairs_gf2", "classify_d6")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_lib():
    """Import liesupp from the checkout's src/, never from elsewhere."""
    if not (SRC / "liesupp" / "__init__.py").is_file():
        raise SetupError(f"no liesupp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"liesupp.{m}") for m in MODULES}
    pkg_file = Path(importlib.import_module("liesupp").__file__).resolve()
    if SRC not in pkg_file.parents:
        raise SetupError(f"liesupp imported from {pkg_file}, not from {SRC}")
    return types.SimpleNamespace(**mods)


def load_expected():
    if not EXPECTED.is_file():
        raise SetupError(f"missing {EXPECTED}")
    return json.loads(EXPECTED.read_text())


def setup(workload: str, seed: int, workdir: Path, expected=None):
    """Everything a run needs before its first call: imports, specs, documents."""
    import workloads

    return workloads.build(load_lib(), workload, seed, workdir, expected or load_expected())


# -- measuring ----------------------------------------------------------------


def run_pass(wl, tracer=None, calibrator=None):
    """One pass over the workload's calls.  With a calibrator, the reference
    kernel is sampled at the start and during the pass, its time is left out
    of every call's time, and the pass's times are also given in reference
    units: divided by the median kernel time of the pass."""
    pass_start = time.perf_counter()
    if calibrator is not None:
        calibrator.sample()
    samples = []
    for call in wl.calls:
        if tracer is not None:
            tracer.begin_call()
        h_wall = calibrator.handler_wall_s if calibrator else 0.0
        h_cpu = calibrator.handler_cpu_s if calibrator else 0.0
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = call.run()
            error = None
        except Exception as exc:  # a raised exception is a failed call, not a crash
            result = None
            error = f"{call.name}: raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if calibrator is not None:
            h_wall = calibrator.handler_wall_s - h_wall
            h_cpu = calibrator.handler_cpu_s - h_cpu
        if error is None:
            error = call.check(result)
        if error is not None:
            print(f"FAILED {error}", file=sys.stderr)
        samples.append(
            {
                "call": call.name,
                "wall_s": t1 - t0 - h_wall,
                "cpu_s": c1 - c0 - h_cpu,
                "ops": call.ops,
                "failed": call.ops if error else 0,
                "error": error,
            }
        )
    wall = sum(s["wall_s"] for s in samples)
    ops = sum(s["ops"] for s in samples)
    out = {
        "wall_s": wall,
        "cpu_s": sum(s["cpu_s"] for s in samples),
        "ops": ops,
        "failed": sum(s["failed"] for s in samples),
        "ops_per_s": ops / wall,
        "slowest_call_s": max(s["wall_s"] for s in samples),
        "calls": samples,
    }
    if calibrator is not None:
        ref = calibrator.median_since(pass_start)
        out["ref_s"] = ref
        out["kernel_runs"] = calibrator.runs_since(pass_start)
        out["wall_ref"] = wall / ref
        out["ops_per_ref"] = ops / out["wall_ref"]
        out["slowest_call_ref"] = out["slowest_call_s"] / ref
    return out


def measure(wl, seconds: float, calibrator):
    """Whole passes while another one still fits in `seconds`; at least one."""
    passes = []
    start = time.perf_counter()
    with calibrator:
        while True:
            passes.append(run_pass(wl, calibrator=calibrator))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if elapsed + typical > seconds:
                return passes


def measure_setup(workload: str, seed: int, calibrator) -> list:
    """Wall time from spawning a fresh interpreter until its inputs are ready,
    each with the reference kernel's time just before it."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-only",
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    samples = []
    for _ in range(SETUP_REPEATS):
        calibrator.sample()
        start, end = calibrator.samples[-1]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise SetupError(f"set-up child exited with {code}")
        samples.append({"setup_s": t1 - t0, "ref_s": end - start})
    return samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer numbers ----------------------------------------------------------


def per_layer(tracer, overhead_s: float, out_bytes: int) -> dict:
    c = tracer.counters
    lookups = c.get("classify.Analyzer.lookups", 0)
    lat_calls = tracer.calls("classify.Analyzer.lattice")
    candidates = c.get("census.generate.candidates", 0)
    accepted = c.get("census.generate.accepted", 0)
    special = {
        "subspace.echelon_arrays.rows": c.get("subspace.echelon_arrays.rows", 0),
        "liealg.jacobi_rejects": c.get("liealg.jacobi_rejects", 0),
        "lattice.build_lattice.subspaces": c.get("lattice.build_lattice.subspaces", 0),
        "classify.Analyzer.lookups": lookups,
        "classify.Analyzer.memo_hit_ratio": (
            c.get("classify.Analyzer.hits", 0) / lookups if lookups else 0.0
        ),
        "classify.Analyzer.lattice_hit_ratio": (
            1.0 - c.get("lattice.build_lattice.under_analyzer", 0) / lat_calls
            if lat_calls
            else 0.0
        ),
        "census.generate.candidates": candidates,
        "census.generate.accepted": accepted,
        "census.generate.accept_ratio": accepted / candidates if candidates else 0.0,
        "cli.out_bytes": out_bytes,
        "trace.overhead_s": overhead_s,
    }
    special.update({f"{m}.self_s": v for m, v in tracer.module_self_s().items()})
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = tracer.calls(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            value = tracer.self_s(name[: -len(".self_s")])
        else:
            raise KeyError(name)
        out[name] = {"value": value, "unit": unit}
    return out


def trace_report(tracer) -> dict:
    mods = tracer.module_self_s()
    total = sum(mods.values()) or 1.0
    top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])[:15]
    return {
        "module_self_s": mods,
        "module_self_share": {m: v / total for m, v in mods.items()},
        "top_self_s": [
            {"span": name, "calls": int(st[0]), "self_s": st[2], "total_s": st[1]}
            for name, st in top
        ],
        "counters": dict(tracer.counters),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "all_spans": {
            name: {"calls": int(st[0]), "total_s": st[1], "self_s": st[2], "raised": int(st[3])}
            for name, st in sorted(tracer.stats.items())
        },
    }


# -- provenance and output ------------------------------------------------------


def provenance(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "liesupp").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def print_metrics(title: str, metrics: dict):
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected=None):
    """One workload, measured; returns the full result document."""
    wl = setup(name, seed, WORKDIR / "inputs" / name, expected)
    result = {"workload": name}
    if not trace:
        calibrator = Calibrator()
        setups = measure_setup(name, seed, calibrator)
        result["setup_samples"] = setups
        passes = measure(wl, seconds, calibrator)
        med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
        metrics = {
            "wall_ref": {"value": med("wall_ref"), "unit": "ref"},
            "ops_per_ref": {"value": med("ops_per_ref"), "unit": "1/ref"},
            "slowest_call_ref": {"value": med("slowest_call_ref"), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {
                "value": statistics.median(
                    x["setup_s"] * NOMINAL_REF_S / x["ref_s"] for x in setups
                ),
                "unit": "s",
            },
        }
        result["passes"] = passes
        result["seconds"] = {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "ops_per_s": {"value": med("ops_per_s"), "unit": "1/s"},
            "slowest_call_s": {"value": med("slowest_call_s"), "unit": "s"},
            "cpu_s": {"value": med("cpu_s"), "unit": "s"},
            "ref_ms": {"value": 1000 * med("ref_s"), "unit": "ms"},
            "setup_raw_s": {
                "value": statistics.median(x["setup_s"] for x in setups),
                "unit": "s",
            },
        }
    else:
        untraced = run_pass(wl)
        bytes_before = wl.out_bytes()
        tracer = Tracer("liesupp", wl.op_boundaries)
        with tracer:
            traced = run_pass(wl, tracer)
        overhead = traced["wall_s"] - untraced["wall_s"]
        metrics = per_layer(tracer, overhead, wl.out_bytes() - bytes_before)
        passes = [untraced, traced]
        result["passes"] = passes
        result["trace"] = trace_report(tracer)
        spans_path = WORKDIR / "traces" / f"{name}-seed{seed}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_path)
        result["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result.update(
        {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "metrics": metrics,
        }
    )
    return result


def emit(result: dict, metric_names) -> dict:
    """The result line: exactly these four keys."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in metric_names},
    }


def write_result(args, result: dict):
    out = WORKDIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, default=str))


def main_run(args) -> int:
    load_lib()  # a checkout without liesupp fails here, before any output
    load_expected()
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    lines = {}
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["provenance"] = prov
        results[name] = result
        if args.trace:
            keys = LISTED_PER_LAYER
            shares = result["trace"]["module_self_share"]
            print(f"== {name}: self-time share by module " + json.dumps(
                {m: round(v, 3) for m, v in shares.items()}))
            for row in result["trace"]["top_self_s"][:8]:
                print(f"   top self time: {row['span']:44s} {row['self_s']:10.4f} s  {row['calls']} calls")
        else:
            keys = [n for n, _ in END_TO_END]
        shown = dict(result["metrics"])
        if not args.trace:
            shown.update(result["seconds"])
        shown["error_rate"] = {"value": result["error_rate"], "unit": "ratio"}
        print_metrics(f"{name} (seed {args.seed}, trace {args.trace})", shown)
        lines[name] = emit(result, keys)
    write_result(args, results if len(names) > 1 else results[names[0]])
    if len(names) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{w}.{k}": v for w, l in lines.items() for k, v in l["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- maintenance modes -------------------------------------------------------------


def main_record() -> int:
    import workloads

    answers = workloads.record(load_lib(), WORKDIR / "record")
    EXPECTED.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def main_self_test() -> int:
    """Smoke check: metric names and units, and a corrupted digest must fail."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    want_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    problems = []
    if want_e2e != list(END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {want_e2e} != {list(END_TO_END)}")
    listed = [(n, u) for n, u in PER_LAYER if n in LISTED_PER_LAYER]
    if want_layer != listed:
        problems.append("BENCHMARK.json per_layer differs from run.py PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py WORKLOAD_NAMES")

    untraced = run_workload("smoke", 1, 0.1, trace=False)
    traced = run_workload("smoke", 1, 0.1, trace=True)
    left = wrapped_leftovers(load_lib())
    if left:
        problems.append(f"tracer wrappers left installed: {left[:5]}")
    for result, table in ((untraced, END_TO_END), (traced, PER_LAYER)):
        for name, unit in table:
            m = result["metrics"].get(name)
            if m is None or m["unit"] != unit:
                problems.append(f"metric {name} [{unit}] missing or wrong unit: {m}")
        if result["failed"]:
            problems.append(f"smoke run failed {result['failed']} ops")
    shown = dict(untraced["metrics"], **untraced["seconds"])
    seconds = ("wall_s", "ops_per_s", "slowest_call_s", "cpu_s", "ref_ms", "setup_raw_s")
    for name in seconds + tuple(n for n, _ in END_TO_END):
        if not shown[name]["value"] > 0:
            problems.append(f"{name} is not positive")
    if untraced["error_rate"] != 0:
        problems.append(f"error_rate is {untraced['error_rate']}")

    # the classify answer does not change under a change of basis; both sides
    # are computed here, independent of expected.json
    import workloads

    plain, conj = workloads.classify_both_bases(
        load_lib(), workloads.SMOKE_CLASSIFY[0], 7, WORKDIR / "inputs" / "self-test"
    )
    if plain != conj:
        problems.append(f"classify answer changed with the basis: {plain} != {conj}")

    corrupted = load_expected()
    key = sorted(k for k, v in corrupted["smoke"].items() if "sha256" in v)[0]
    corrupted["smoke"][key] = dict(corrupted["smoke"][key], sha256="0" * 64)
    print(f"self-test: recorded digest of {key!r} corrupted; one FAILED line expected",
          file=sys.stderr)
    bad = run_workload("smoke", 1, 0.1, trace=False, expected=corrupted)
    if bad["failed"] == 0 or emit(bad, [n for n, _ in END_TO_END])["correct"]:
        problems.append(f"a corrupted digest ({key}) did not fail the run")

    for p in problems:
        print(f"SELF-TEST PROBLEM: {p}")
    print("self-test " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all", "smoke"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.self_test or args.record) and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            setup(args.workload, args.seed, WORKDIR / "setup-child" / args.workload)
            print("ready", flush=True)
            return 0
        if args.record:
            return main_record()
        if args.self_test:
            return main_self_test()
        return main_run(args)
    except SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
