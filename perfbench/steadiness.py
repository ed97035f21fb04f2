#!/usr/bin/env python3
"""Steadiness report: repeat the benchmark with different seeds and report,
per workload and end-to-end metric, the median, the quartiles and the spread
(the distance between the quartiles as a share of the median, from
`statistics.quantiles(values, n=4)`) against the metric's bound.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md
    python3 perfbench/steadiness.py --runs 5 --workloads pairs_gf2

Runs go round-robin over the workloads, so slow phases of a shared machine
fall on every workload alike.  The process CPU time of each run's median pass
is reported beside its wall time: when the two move together, the spread comes
from the machine running the same instructions more slowly, not from waiting.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "seed": seed,
        "run_s": elapsed,
        "passes": len(result["passes"]),
        "seconds": {k: v["value"] for k, v in result["seconds"].items()},
        "correct": line["correct"],
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
    }


SECONDS = ("wall_s", "ops_per_s", "slowest_call_s", "cpu_s", "ref_ms", "setup_raw_s")


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def pearson(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / (sxx * syy) ** 0.5 if sxx and syy else float("nan")


def render(report: dict, bounds: dict) -> str:
    meta = report["meta"]
    lines = [
        "# Steadiness of the liesupp benchmark",
        "",
        f"{meta['runs']} runs per workload, seeds {meta['seed_base']}..{meta['seed_base'] + meta['runs'] - 1}, "
        f"`--seconds {meta['seconds']}`, round-robin over the workloads.",
        "Spread is (q3 - q1) / median from `statistics.quantiles(values, n=4)`.  The benchmark "
        "is accepted when every spread except setup_s's is within its bound; the aim is a "
        "third of the bound.",
        "",
        meta["machine"],
        "",
    ]
    for w, rs in report["runs"].items():
        lines += [
            f"## {w}",
            "",
            "| metric | median | q1 | q3 | spread | bound | within bound | below bound/3 |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for name in list(bounds) + list(SECONDS):
            s = summarize([r["metrics"][name] if name in bounds else r["seconds"][name] for r in rs])
            if name in bounds:
                within = "-" if name == "setup_s" else ("yes" if s["spread"] <= bounds[name] else "NO")
                third = "-" if name == "setup_s" else ("yes" if s["spread"] < bounds[name] / 3 else "no")
                lines.append(
                    f"| {name} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                    f"{s['spread']:.3f} | {bounds[name]} | {within} | {third} |"
                )
            else:
                lines.append(
                    f"| {name} (printed, not in BENCHMARK.json) | {s['median']:.4g} | {s['q1']:.4g} | "
                    f"{s['q3']:.4g} | {s['spread']:.3f} | - | - | - |"
                )
        walls = [r["seconds"]["wall_s"] for r in rs]
        cpus = [r["seconds"]["cpu_s"] for r in rs]
        refs = [r["seconds"]["ref_ms"] for r in rs]
        corr = pearson(walls, cpus)
        lines += [
            "",
            "wall_s by run: " + ", ".join(f"{x:.3f}" for x in walls),
            "",
            "cpu_s by run: " + ", ".join(f"{x:.3f}" for x in cpus),
            "",
            "reference kernel ms by run: " + ", ".join(f"{x:.2f}" for x in refs),
            "",
            f"Correlation of wall_s with process CPU time: {corr:.3f}; with the "
            f"reference kernel's time: {pearson(walls, refs):.3f}; "
            f"passes per run: {sorted({r['passes'] for r in rs})}; "
            f"all answers correct: {all(r['correct'] for r in rs)}.",
            "",
        ]
        if corr > 0.9:
            lines += [
                "CPU time moved with wall time, so the spread in seconds is machine noise: "
                "the shared machine ran the same work more slowly, nothing waited.",
                "",
            ]
    return "\n".join(lines)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", help="write the markdown report here")
    ap.add_argument("--render", action="store_true",
                    help="only render the report of the last recorded runs")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    saved = ROOT / ".perfbench" / "steadiness.json"
    if args.render:
        report = json.loads(saved.read_text())
    else:
        runs = {w: [] for w in args.workloads}
        for i in range(args.runs):
            for w in args.workloads:
                r = run_once(w, args.seed_base + i, args.seconds)
                runs[w].append(r)
                print(f"{w} seed {r['seed']}: " + ", ".join(
                    f"{k}={v:.4g}" for k, v in {**r["metrics"], **r["seconds"]}.items()),
                    flush=True)
        prov = json.loads(
            (ROOT / ".perfbench" / "results" / f"{args.workloads[0]}-seed{args.seed_base}-trace0.json").read_text()
        )["provenance"]
        machine = (
            f"Machine: {prov['nproc']} CPUs, {prov['machine']}, Python {prov['python']}, "
            f"numpy {prov['numpy']}, threads pinned {prov['thread_vars']}, "
            f"commit {prov['git_commit']}, sources {prov['src_sha256'][:12]}."
        )
        report = {
            "meta": {"runs": args.runs, "seed_base": args.seed_base,
                     "seconds": args.seconds, "machine": machine},
            "runs": runs,
        }
        saved.parent.mkdir(exist_ok=True)
        saved.write_text(json.dumps(report, indent=1))
    text = render(report, bounds)
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    ok = all(
        summarize([r["metrics"][n] for r in rs])["spread"] <= b
        for rs in report["runs"].values()
        for n, b in bounds.items()
        if n != "setup_s"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
