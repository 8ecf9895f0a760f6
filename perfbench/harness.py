"""The measurement loop shared by every workload.

A workload is driven in *rounds* of a fixed number of operations.  The
loop is closed: one client, each operation sent after the previous one
returned.  The order of a run is fixed:

1. set-up, repeated :data:`SETUP_REPEATS` times (``setup_s`` is the
   median), then peak resident memory is read;
2. warm-up rounds, untimed, so lazy set-up and caches settle;
3. timed rounds until ``--seconds`` have been measured *and* at least
   ``min_rounds`` rounds ran (so p95 has 10 samples beyond it), ending
   on a multiple of ``round_multiple`` rounds (whole passes);
4. the correctness check and the run's descriptions, untimed, before
   the last tear-down.

The I/O ledger covers the first ``ledger_rounds`` rounds, warm-up
included, so it is an exact count that repeats from run to run whatever
the machine's speed.  With ``--trace 1`` every other timed round runs
with the layer wrappers installed; per-layer numbers come from those
rounds and the tracing overhead from comparing them with the others.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Dict, List, Optional, Tuple

from tracing import Tracer

SETUP_REPEATS = 5

Metric = Tuple[float, str]


class Recorder:
    """What the timed rounds produced, split by traced / untraced."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.queries = 0
        self.attempted = 0
        self.failed = 0
        # [untraced, traced] totals, for the tracing overhead.
        self.round_seconds = [0.0, 0.0]
        self.round_ops = [0, 0]


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default definition)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seconds: float, tracer: Optional[Tracer]) -> Dict:
    """Drive one workload; returns its metrics and run facts."""
    setup_times = []
    for i in range(SETUP_REPEATS):
        if i:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    rss = peak_rss_mb()
    workload.after_setup()

    rec = Recorder()
    try:
        rounds = 0
        for _ in range(workload.warmup_rounds):
            workload.run_round(Recorder(), None)
            rounds += 1
            if rounds == workload.ledger_rounds:
                workload.mark_ledger()
        timed_rounds = 0
        measured = 0.0
        per_pass = 2 if tracer and workload.paired_trace_rounds else 1
        min_rounds = workload.min_rounds * per_pass
        round_multiple = workload.round_multiple * per_pass
        while (
            measured < seconds
            or timed_rounds < min_rounds
            or timed_rounds % round_multiple
        ):
            traced = tracer is not None and timed_rounds % 2 == 0
            if traced:
                tracer.install()
            ops_before = rec.attempted
            started = time.perf_counter()
            try:
                workload.run_round(rec, tracer if traced else None)
            finally:
                elapsed = time.perf_counter() - started
                if traced:
                    tracer.uninstall()
            measured += elapsed
            rec.round_seconds[traced] += elapsed
            rec.round_ops[traced] += rec.attempted - ops_before
            timed_rounds += 1
            rounds += 1
            if rounds == workload.ledger_rounds:
                workload.mark_ledger()
        mismatches = workload.check()
        layer_inputs = workload.layer_inputs(tracer) if tracer else None
        stored = workload.stored_bytes_per_input_byte()
        properties = workload.properties()
    finally:
        workload.teardown()

    elements, io_cost = workload.ledger_per_query()
    lat_ms = [x * 1e3 for x in rec.latencies]
    out: Dict = {
        "correct": not mismatches,
        "mismatches": mismatches[:5],
        "attempted": rec.attempted,
        "failed": rec.failed + workload.late_failures,
        "samples": len(lat_ms),
        "timed_rounds": timed_rounds,
        "measured_s": measured,
        "setup_runs_s": setup_times,
        "properties": properties,
        "end_to_end": {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_qps": (
                (rec.queries - workload.late_failures) / measured, "1/s"
            ),
            "latency_p50_ms": (quantile(lat_ms, 0.50), "ms"),
            "latency_p95_ms": (quantile(lat_ms, 0.95), "ms"),
            "elements_read_per_query": (elements, "count"),
            "io_cost_per_query": (io_cost, "count"),
            "rss_mb": (rss, "MB"),
            "stored_bytes_per_input_byte": (stored, "ratio"),
        },
    }
    if tracer is not None:
        per_op = [
            rec.round_seconds[i] / max(rec.round_ops[i], 1) for i in (0, 1)
        ]
        out["overhead_share"] = per_op[1] / per_op[0] - 1.0
        out["layer_inputs"] = layer_inputs
    return out
