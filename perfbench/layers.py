"""Which entry points the traced run wraps, and the per-layer metrics.

Layers, by module, and the calls wrapped as their spans:

=====================  ==============================================
span layer             wrapped call
=====================  ==============================================
``http``               the benchmark's own client request
``service.search``     ``SimilarityService.search``
``service.batch``      ``SimilarityService.search_batch``
``prepare``            ``SetSimilaritySearcher.prepare``
``algo``               ``SetSimilaritySearcher.search_prepared``
``shared_scan``        ``BatchSelector.search_many``
``updatable``          ``UpdatableSearcher.search``
``epoch_rebuild``      ``UpdatableSearcher.rebuild``
``insert``             ``DurableUpdatableSearcher.add``
``oplog_append``       ``OperationsLog.append``
=====================  ==============================================

Every workload reports every metric; a layer the workload never reaches
reports 0 (no spans), which the metric table in README.md spells out.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, List, Sequence, Tuple

from harness import Metric, quantile
from tracing import Span, Tracer, children_per_span, self_times

from repro.algorithms.batch import BatchSelector
from repro.core.query import PreparedQuery
from repro.core.search import SetSimilaritySearcher
from repro.core.updatable import UpdatableSearcher
from repro.service.service import SimilarityService
from repro.storage.invlist import InvertedIndex
from repro.storage.oplog import DurableUpdatableSearcher, OperationsLog
from repro.storage.pages import IOStats

SWEEP_ALGORITHMS = ("sf", "inra", "ita", "hybrid")
SWEEP_TAUS = (0.6, 0.8, 0.9)
SERVICE_LAYERS = ("service.search", "service.batch")


def _algo_info(args: tuple, kwargs: dict, result) -> tuple:
    tau = args[2] if len(args) > 2 else kwargs["threshold"]
    stats = result.stats
    return (
        result.algorithm,
        tau,
        stats.elements_read,
        stats.sequential_pages,
        stats.random_pages,
        stats.skip_jumps,
        stats.hash_probes,
        result.elements_total,
        result.peak_candidates,
    )


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.target(SimilarityService, "search", "service.search")
    tracer.target(SimilarityService, "search_batch", "service.batch")
    tracer.target(SetSimilaritySearcher, "prepare", "prepare")
    tracer.target(
        SetSimilaritySearcher, "search_prepared", "algo", _algo_info
    )
    tracer.target(BatchSelector, "search_many", "shared_scan")
    tracer.target(UpdatableSearcher, "search", "updatable")
    tracer.target(UpdatableSearcher, "rebuild", "epoch_rebuild")
    tracer.target(DurableUpdatableSearcher, "add", "insert")
    tracer.target(OperationsLog, "append", "oplog_append")
    return tracer


def cursor_replay(
    index: InvertedIndex,
    items: Sequence[Tuple[PreparedQuery, float]],
    passes: int = 3,
) -> float:
    """Microseconds per element for a cursor-only scan of each query's
    Theorem 1 window: ``cursor``, ``seek_length_ge`` and ``next`` over
    the same lists the algorithms open.  Median of ``passes``."""
    timings = []
    for _ in range(passes):
        stats = IOStats()
        started = time.perf_counter()
        for query, tau in items:
            lo, hi = query.bounds(tau)
            for token in query.tokens:
                cursor = index.cursor(token, stats)
                if cursor is None:
                    continue
                cursor.seek_length_ge(lo)
                while not cursor.exhausted():
                    if cursor.peek()[0] > hi:
                        break
                    cursor.next()
        elapsed = time.perf_counter() - started
        timings.append(elapsed * 1e6 / max(stats.elements_read, 1))
    return statistics.median(timings)


def _p50_ms(values: Iterable[float]) -> float:
    return quantile([v * 1e3 for v in values], 0.5)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _algorithm_metrics(algo_spans: List[Span]) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    for name in SWEEP_ALGORITHMS:
        mine = [s for s in algo_spans if s.info[0] == name]
        for tau in SWEEP_TAUS:
            cell = [s for s in mine if abs(s.info[1] - tau) < 1e-9]
            key = f"algo.{name}.tau{tau}"
            out[f"{key}.us_per_query"] = (
                quantile([s.seconds * 1e6 for s in cell], 0.5), "us"
            )
            out[f"{key}.elements_per_query"] = (
                _ratio(sum(s.info[2] for s in cell), len(cell)), "count"
            )
        read = sum(s.info[2] for s in mine)
        total = sum(s.info[7] for s in mine)
        out[f"algo.{name}.us_per_element"] = (
            _ratio(sum(s.seconds for s in mine) * 1e6, read), "us"
        )
        out[f"algo.{name}.pruning_power"] = (
            1.0 - _ratio(read, total) if mine else 0.0, "ratio"
        )
        out[f"algo.{name}.peak_candidates"] = (
            _ratio(sum(s.info[8] for s in mine), len(mine)), "count"
        )
    return out


def per_layer(
    tracer: Tracer,
    service_delta: Dict[str, float],
    cursor_us_per_element: float,
    persist: Dict[str, float],
    overhead_share: float,
) -> Dict[str, Metric]:
    """Every per-layer metric, from the traced rounds' spans plus the
    workload's own counters (``service_delta``: ``service.stats()``
    differences over the traced rounds)."""
    spans = tracer.spans
    algo = tracer.of("algo")
    batches = tracer.of("service.batch")
    inserts = tracer.of("insert")
    updatable = tracer.of("updatable")
    service_self: List[float] = []
    for layer in SERVICE_LAYERS:
        service_self += self_times(spans, layer, ("algo", "shared_scan"))
    shared = children_per_span(spans, "service.batch", "shared_scan")
    fanout = children_per_span(spans, "updatable", "algo")
    rebuilds = tracer.of("epoch_rebuild")
    d = service_delta

    out: Dict[str, Metric] = {
        "httpd.self_ms_p50": (
            _p50_ms(self_times(spans, "http", SERVICE_LAYERS)), "ms"
        ),
        "service.self_ms_p50": (_p50_ms(service_self), "ms"),
        "service.result_hit_rate": (
            _ratio(d["result_hits"], d["result_lookups"]), "ratio"
        ),
        "service.prepared_hit_rate": (
            _ratio(d["prepared_hits"], d["prepared_lookups"]), "ratio"
        ),
        "service.coalesced_share": (
            _ratio(d["coalesced"], d["queries_served"]), "ratio"
        ),
        "service.shared_scan_share": (
            _ratio(sum(1 for n in shared if n), len(batches)), "ratio"
        ),
        "search.prepare_us": (
            quantile([s.seconds * 1e6 for s in tracer.of("prepare")], 0.5),
            "us",
        ),
    }
    out.update(_algorithm_metrics(algo))
    n_algo = len(algo)
    out.update({
        "storage.cursor_us_per_element": (cursor_us_per_element, "us"),
        "storage.seq_pages_per_query": (
            _ratio(sum(s.info[3] for s in algo), n_algo), "count"
        ),
        "storage.rand_pages_per_query": (
            _ratio(sum(s.info[4] for s in algo), n_algo), "count"
        ),
        "storage.skip_jumps_per_query": (
            _ratio(sum(s.info[5] for s in algo), n_algo), "count"
        ),
        "storage.hash_probes_per_query": (
            _ratio(sum(s.info[6] for s in algo), n_algo), "count"
        ),
        "persist.save_s": (persist.get("save_s", 0.0), "s"),
        "persist.load_s": (persist.get("load_s", 0.0), "s"),
        "persist.bytes": (persist.get("bytes", 0.0), "bytes"),
        "oplog.append_ms_p50": (
            _p50_ms(s.seconds for s in tracer.of("oplog_append")), "ms"
        ),
        "updatable.add_self_ms_p50": (
            _p50_ms(self_times(spans, "insert", ("oplog_append",))), "ms"
        ),
        "updatable.insert_ms_p50": (
            quantile([s.seconds * 1e3 for s in inserts], 0.5), "ms"
        ),
        "updatable.insert_ms_p95": (
            quantile([s.seconds * 1e3 for s in inserts], 0.95), "ms"
        ),
        "updatable.epoch_rebuilds": (float(len(rebuilds)), "count"),
        "updatable.rebuild_s": (
            quantile([s.seconds for s in rebuilds], 0.5), "s"
        ),
        "updatable.delta_share": (
            _ratio(sum(1 for n in fanout if n > 1), len(updatable)),
            "ratio",
        ),
        "service.invalidations_per_insert": (
            _ratio(d["invalidations"], len(inserts)), "count"
        ),
        "trace.overhead_share": (overhead_share, "ratio"),
    })
    return out


def service_counters(service: SimilarityService) -> Dict[str, float]:
    """The ``service.stats()`` counters the per-layer rates are built on."""
    stats = service.stats()
    result = stats["result_cache"] or {}
    prepared = stats["prepared_cache"] or {}
    return {
        "result_hits": result.get("hits", 0),
        "result_lookups": result.get("hits", 0) + result.get("misses", 0),
        "prepared_hits": prepared.get("hits", 0),
        "prepared_lookups": (
            prepared.get("hits", 0) + prepared.get("misses", 0)
        ),
        "coalesced": stats["coalesced"],
        "queries_served": stats["queries_served"],
        "invalidations": result.get("invalidations", 0),
    }


def counter_delta(
    before: Dict[str, float], after: Dict[str, float],
    into: Dict[str, float],
) -> None:
    for key, value in after.items():
        into[key] = into.get(key, 0) + value - before[key]


NO_SERVICE = {
    key: 0
    for key in (
        "result_hits", "result_lookups", "prepared_hits",
        "prepared_lookups", "coalesced", "queries_served", "invalidations",
    )
}
