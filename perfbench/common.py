"""Timing loop, set-up probes and oracle checks shared by the workloads."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from repro.throughput.lp import lp_throughput

from tracing import median

#: Times each set-up step runs per benchmark run; set-up metrics are medians.
SETUP_REPEATS = 5

#: What a program that runs ``infer_port_mapping`` imports before any work.
_PROGRAM_IMPORT = "import repro.machine, repro.pmevo"


def child_env(root: Path) -> dict[str, str]:
    """Environment for program subprocesses: the checkout's sources and the
    launcher's one-thread BLAS/OpenMP pins."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_seconds(root: Path) -> float:
    """Median wall time of a fresh interpreter importing the program.

    One untimed import comes first, so that no timed one pays for reading
    the files from disk.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _PROGRAM_IMPORT],
            env=child_env(root),
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - start)
    return median(times[1:])


def timed_rounds(round_ops, seconds: float) -> tuple[list[float], float, int]:
    """Run whole rounds of operations until ``seconds`` have passed.

    ``round_ops`` is a list of callables making up one round; every run
    attempts whole rounds, at least two, so each operation appears equally
    often and is repeated at least once.  An operation that raises is
    counted as failed and its traceback goes to stderr.  Returns the wall
    times of the operations that completed, the wall time of the whole phase
    and the number of failed operations.
    """
    durations: list[float] = []
    failed = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        rounds += 1
        for op in round_ops:
            op_start = time.perf_counter()
            try:
                op()
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            durations.append(time.perf_counter() - op_start)
        if rounds >= 2 and time.perf_counter() - start >= seconds:
            return durations, time.perf_counter() - start, failed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: Operations per block of the tail metric.
TAIL_BLOCK = 1000


def latency_metrics(durations: list[float], elapsed: float) -> dict[str, float]:
    """Rate, median latency and tail latency of one timed phase.

    The tail is the 99th percentile of each block of ``TAIL_BLOCK``
    consecutive operations (ten samples beyond it), as a median over the
    blocks; a run with fewer operations is one block.  A whole-run 99th
    percentile swung fourfold between identical runs whenever the host
    stalled the virtual CPUs for a few seconds of one run.
    """
    blocks = [
        durations[i : i + TAIL_BLOCK]
        for i in range(0, len(durations) - TAIL_BLOCK + 1, TAIL_BLOCK)
    ] or [durations]
    return {
        "ops_per_s": len(durations) / elapsed,
        "op_p50_ms": 1000.0 * median(durations),
        "op_p99_ms": 1000.0 * median([percentile(block, 99) for block in blocks]),
    }


def own_peak_rss_mb() -> float:
    """Peak RSS of this process and of any child it has waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def lp_davg(mapping, measurements) -> float:
    """D_avg of ``mapping`` over ``measurements``, each predicted by the LP."""
    errors = [
        abs(lp_throughput(mapping, item.experiment) - item.throughput) / item.throughput
        for item in measurements
    ]
    return sum(errors) / len(errors)


class Checks:
    """Collects failed correctness checks; ``ok`` is the run's ``correct``."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures
