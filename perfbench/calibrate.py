"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same instructions run slower or
faster from one minute to the next, so the wall time of a fixed workload
drifts by tens of percent between runs, with CPU time moving in step.  The
calibrator times a fixed reference kernel at the start of each pass and then
every `interval` seconds while the workload runs (from a SIGALRM handler, in
the main thread between bytecodes).  A pass's time divided by the median
kernel time sampled during that pass is its time in reference units ("ref"):
a measure of the work the pass needed that is far less sensitive to the
machine's momentary speed than seconds are.  (Dividing each call by the
kernel runs inside it, or weighting each stretch of a call by the nearest
kernel runs, spread more between runs than this whole-pass median.)

The kernel imitates the workload's mix and uses no liesupp code, so a change
to liesupp never changes it: row reduction over GF(p) on Python lists,
lookups of tuples in a large dict and list (a working set of several MB, like
a lattice of Subspace objects), small int64 einsums in numpy, and a batched
einsum over a few MB like the brute-force isomorphism search's.  Time spent
in the handler is excluded from the calls' wall and CPU times.  On a 2-vCPU
shared VM, over three sets of ten runs of each workload, the spread of a
pass's wall time was 0.06-0.28 in seconds and 0.06-0.13 in ref; for the
slowest call, 0.06-0.33 against 0.05-0.15 (see README.md).
"""
from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np


class ReferenceKernel:
    def __init__(self, seed: int = 12345):
        rng = np.random.Generator(np.random.PCG64(seed))
        self.rows = [[int(x) for x in rng.integers(0, 7, size=12)] for _ in range(10)]
        self.table = [tuple(int(x) for x in rng.integers(0, 5, size=6)) for _ in range(100_000)]
        self.index = {t: i for i, t in enumerate(self.table[:50_000])}
        self.probes = [int(i) for i in rng.integers(0, len(self.table), size=8_000)]
        self.a = rng.integers(0, 3, size=(800, 6, 6))
        self.b = rng.integers(0, 3, size=(6, 6, 6))
        self.c = rng.integers(0, 3, size=(40_000, 3, 3))

    def _eliminate(self, p: int = 7) -> int:
        mat = [r[:] for r in self.rows]
        rank = 0
        for col in range(12):
            piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = pow(mat[rank][col], p - 2, p)
            top = [(x * inv) % p for x in mat[rank]]
            mat[rank] = top
            for i in range(len(mat)):
                if i != rank and mat[i][col]:
                    f = mat[i][col]
                    mat[i] = [(x - f * y) % p for x, y in zip(mat[i], top)]
            rank += 1
            if rank == len(mat):
                break
        return rank

    def run(self) -> int:
        acc = 0
        for _ in range(40):
            acc += self._eliminate()
        table, index = self.table, self.index
        for i in self.probes:
            t = table[i]
            acc += index.get(t, 0) + t[0]
        acc += int((np.einsum("aij,jkm->aikm", self.a, self.b) % 3).sum())
        acc += int((np.einsum("cpu,cpv->cuv", self.c, self.c) % 3).sum())
        return acc


class Calibrator:
    """Samples the reference kernel's time while a pass runs."""

    def __init__(self, interval: float = 0.5):
        self.kernel = ReferenceKernel()
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []  # (start, end) of each kernel run
        self.handler_wall_s = 0.0
        self.handler_cpu_s = 0.0
        self._last_end = 0.0
        self._previous = None
        self.kernel.run()  # first run pays for lazy set-up, untimed

    def sample(self):
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.kernel.run()
        t1 = time.perf_counter()
        self.samples.append((t0, t1))
        self.handler_wall_s += t1 - t0
        self.handler_cpu_s += time.process_time() - c0
        self._last_end = t1

    def _on_alarm(self, signum, frame):
        # on a very slow machine a pending alarm must not starve the workload
        if time.perf_counter() - self._last_end >= self.interval / 2:
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def runs_since(self, start: float) -> int:
        return sum(1 for s, _ in self.samples if s >= start)

    def median_since(self, start: float) -> float:
        return statistics.median(e - s for s, e in self.samples if s >= start)
