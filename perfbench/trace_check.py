#!/usr/bin/env python3
"""Trace check: two traced runs of the same seed must give identical counts.

    python3 perfbench/trace_check.py --seed 1 --out perfbench/TRACE_CHECK.md

For each workload it runs `run.py --trace 1` twice and compares every count
the tracer keeps: the calls of every span, the counters (rows, subspaces,
candidates, accepted, Jacobi rejects, Analyzer lookups and hits) and the
count metrics of the result line.  It reports `trace.overhead_s`, the
traced pass's wall time minus the untraced pass's, and each module's share of
self time, so the workloads can be told apart by where their time goes.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace1.json").read_text()
    )


def counts(result: dict) -> dict:
    """Every count of a traced run.  cli.out_bytes is left out: the reports
    it measures carry their own elapsed time, whose digits vary."""
    out = {f"span {k}.calls": v["calls"] for k, v in result["trace"]["all_spans"].items()}
    out.update({f"counter {k}": v for k, v in result["trace"]["counters"].items()})
    out.update({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out", help="write the markdown report here")
    args = ap.parse_args(argv)

    lines = ["# Trace check", "", f"Two traced runs per workload, seed {args.seed}.", ""]
    ok = True
    for w in args.workloads:
        a, b = traced(w, args.seed), traced(w, args.seed)
        ca, cb = counts(a), counts(b)
        diff = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
        ok &= not diff
        shares = a["trace"]["module_self_share"]
        top = a["trace"]["top_self_s"][:5]
        lines += [
            f"## {w}",
            "",
            f"- counts compared: {len(ca)}; differing: {len(diff)}"
            + (f" ({', '.join(diff[:10])})" if diff else ""),
            f"- trace.overhead_s: {a['metrics']['trace.overhead_s']['value']:.2f} and "
            f"{b['metrics']['trace.overhead_s']['value']:.2f} "
            f"(untraced pass {a['passes'][0]['wall_s']:.2f} s, traced {a['passes'][1]['wall_s']:.2f} s)",
            "- self-time share by module: "
            + ", ".join(f"{m} {v:.1%}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])),
            "- largest self times: "
            + ", ".join(f"{t['span']} {t['self_s']:.2f} s ({t['calls']} calls)" for t in top),
            f"- spans kept {a['trace']['spans_kept']}, dropped {a['trace']['spans_dropped']}",
            "",
        ]
        print("\n".join(lines[-8:]), flush=True)
    lines.append("All counts identical." if ok else "COUNTS DIFFER.")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(lines[-1])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
