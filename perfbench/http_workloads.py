"""The two workloads that go through ``repro serve``'s HTTP front end.

The server is set up as ``repro index`` followed by ``repro serve`` set
it up: a ``StringMatcher`` over the words is persisted with
``save_searcher``, loaded back with ``load_searcher``, wrapped in a
``SimilarityService`` with the default ``ServiceConfig`` and the metrics
registry enabled, and served by an in-process ``ServiceHTTPServer`` on
an ephemeral port.  The client is one keep-alive ``http.client``
connection.

The I/O ledger is read from the server's own ``GET /metrics``.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import statistics
import time
from typing import Dict, List, Optional, Tuple

import inputs
from common import Workload, answer_of, compare, dir_bytes, input_bytes
from layers import (
    NO_SERVICE,
    counter_delta,
    cursor_replay,
    service_counters,
)

from repro.algorithms.batch import batch_overlap_factor
from repro.core.search import StringMatcher
from repro.obs import metrics as obs_metrics
from repro.service import ServiceConfig, SimilarityService
from repro.service.httpd import ServiceHTTPServer
from repro.service.service import SHARED_SCAN_OVERLAP
from repro.storage.persist import load_searcher, save_searcher

NUM_RECORDS = 20_000
TAU = 0.8
HEADERS = {"Content-Type": "application/json"}
_SAMPLE = re.compile(r"^(\w+)\{([^}]*)\} (\S+)$")


def scrape_ledger(text: str) -> Tuple[float, float]:
    """(elements read, I/O cost) summed over algorithms, from Prometheus
    text: sequential pages + 10 x random pages, as ``IOStats.cost()``."""
    elements = 0.0
    cost = 0.0
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        family, labels, value = match.groups()
        if family == "elements_read_total":
            elements += float(value)
        elif family == "pages_read_total":
            weight = 10.0 if 'kind="random"' in labels else 1.0
            cost += weight * float(value)
    return elements, cost


class _Served(Workload):
    """Set-up, client plumbing, ledger and checks shared by both."""

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(workdir)
        self.words = inputs.word_list(NUM_RECORDS, seed)
        self.server: Optional[ServiceHTTPServer] = None
        self.service: Optional[SimilarityService] = None
        self.conn: Optional[http.client.HTTPConnection] = None
        self._setups = 0
        self._persist_runs: List[Tuple[float, float, int]] = []
        self._ledger_base = (0.0, 0.0)
        # (pool or batch index, raw body) of every answered request.
        self.responses: List[Tuple[int, bytes]] = []
        self.sent = 0  # queries sent since set-up
        self._service_delta = dict(NO_SERVICE)
        self.searcher = None

    def setup(self) -> None:
        self._setups += 1
        index_dir = self.fresh_dir(f"index-{self._setups}")
        matcher = StringMatcher(self.words, tokenizer=inputs.TOKENIZER)
        started = time.perf_counter()
        save_searcher(matcher.searcher, index_dir)
        saved = time.perf_counter()
        del matcher
        searcher = load_searcher(index_dir)
        loaded = time.perf_counter()
        self._persist_runs.append(
            (saved - started, loaded - saved, dir_bytes(index_dir))
        )
        obs_metrics.enable()
        self.searcher = searcher
        self.service = SimilarityService(
            searcher, ServiceConfig(), tokenizer=inputs.TOKENIZER
        )
        self.server = ServiceHTTPServer(self.service, port=0).start()
        probe = http.client.HTTPConnection(self.server.host, self.server.port)
        try:
            probe.request("GET", "/healthz")
            if probe.getresponse().read() != b'{"ok": true}':
                raise RuntimeError("server not ready")
        finally:
            probe.close()
        self.conn = http.client.HTTPConnection(
            self.server.host, self.server.port
        )
        self._ledger_base = self._scrape()
        self.responses = []
        self.sent = 0

    def after_setup(self) -> None:
        self.persist = {
            key: statistics.median(run[i] for run in self._persist_runs)
            for i, key in enumerate(("save_s", "load_s", "bytes"))
        }

    def teardown(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.shutdown()
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None
        self.searcher = None

    # -- client ---------------------------------------------------------
    def _post(self, path: str, body: Dict) -> Tuple[int, bytes]:
        self.conn.request(
            "POST", path, body=json.dumps(body), headers=HEADERS
        )
        response = self.conn.getresponse()
        return response.status, response.read()

    def _scrape(self) -> Tuple[float, float]:
        self.conn.request("GET", "/metrics")
        return scrape_ledger(self.conn.getresponse().read().decode())

    def request(self, rec, tracer, path: str, body: Dict, key, n: int):
        """One timed request carrying ``n`` queries; the raw response is
        kept for the correctness check."""
        if tracer is not None:
            tracer.request += 1
        started = time.perf_counter()
        try:
            status, data = self._post(path, body)
        except (OSError, http.client.HTTPException):
            # Count the loss and reconnect; the run goes on.
            rec.attempted += n
            rec.failed += n
            self.conn.close()
            return
        finally:
            ended = time.perf_counter()
        if tracer is not None:
            tracer.record("http", started, ended)
        rec.latencies.append(ended - started)
        rec.attempted += n
        self.sent += n
        if status != 200:
            rec.failed += n
            return
        rec.queries += n
        self.responses.append((key, data))

    # -- ledger, checks, layers -----------------------------------------
    def ledger_now(self):
        elements, cost = self._scrape()
        base_elements, base_cost = self._ledger_base
        return elements - base_elements, cost - base_cost, self.sent

    def reference(self, text: str) -> Dict[int, float]:
        query = self.searcher.prepare(inputs.TOKENIZER.tokens(text))
        return answer_of(self.searcher.search_prepared(query, TAU).results)

    def check_slot(self, refs, text: str, slot: Dict) -> Optional[str]:
        if text not in refs:
            refs[text] = self.reference(text)
        got = {m["id"]: m["score"] for m in slot["results"]}
        return compare(repr(text), got, refs[text])

    def stored_bytes_per_input_byte(self) -> float:
        return self.persist["bytes"] / input_bytes(self.words)

    def measured_texts(self) -> List[str]:
        raise NotImplementedError

    def layer_inputs(self, tracer):
        texts = self.measured_texts()[:200]
        items = [
            (self.searcher.prepare(inputs.TOKENIZER.tokens(t)), TAU)
            for t in texts
        ]
        return self._service_delta, cursor_replay(self.searcher.index, items)

    def run_round(self, rec, tracer) -> None:
        before = service_counters(self.service) if tracer else None
        self._round(rec, tracer)
        if tracer is not None:
            counter_delta(
                before, service_counters(self.service), self._service_delta
            )

    def _round(self, rec, tracer) -> None:
        raise NotImplementedError

    def base_properties(self) -> Dict:
        return {
            "corpus_sets": len(self.searcher.collection),
            "corpus_postings": self.searcher.index.num_postings(),
            "tau": TAU,
        }


class HttpSearch(_Served):
    """Distinct ``POST /search`` text queries, none repeated while the
    stream lasts, and the stream is longer than the result cache."""

    round_size = 20
    warmup_rounds = 1
    ledger_rounds = 12  # 240 requests, warm-up included
    min_rounds = 11  # 220 samples: 11 beyond p95
    POOL = 2500

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed * 7919 + 1)
        self.pool = inputs.distinct_queries(
            inputs.word_collection(self.words), ((6, 10), (11, 15)),
            self.POOL, rng,
        )

    def _round(self, rec, tracer) -> None:
        for _ in range(self.round_size):
            i = self.sent % len(self.pool)
            self.request(
                rec, tracer, "/search",
                {"text": self.pool[i], "threshold": TAU}, i, 1,
            )

    def measured_texts(self) -> List[str]:
        return [self.pool[i] for i, _data in self.responses]

    def check(self) -> List[str]:
        refs: Dict[str, Dict[int, float]] = {}
        bad = []
        for i, data in self.responses:
            slot = json.loads(data)
            if slot.get("degraded") or not slot.get("ok"):
                self.late_failures += 1
                continue
            problem = self.check_slot(refs, self.pool[i], slot)
            if problem:
                bad.append(problem)
        return bad

    def properties(self) -> Dict:
        sent = [i for i, _data in self.responses]
        return dict(
            self.base_properties(),
            pool=len(self.pool),
            repeat_share=1.0 - len(set(sent)) / max(len(sent), 1),
            result_cache_entries=ServiceConfig().result_cache_size,
        )


class HttpBatchHot(_Served):
    """``POST /batch`` of 32 Zipf-skewed queries from a pool that fits
    the result cache; no ``strategy`` field, so the server default runs.

    The warm-up sends the whole pool once, so the timed batches find
    every query cached: what is timed is the hot path, and p95 does not
    hinge on how many rarely drawn queries happened to miss.  The ledger
    covers the warm-up and the first 24 timed batches, 1,024 queries.
    """

    BATCH = 32
    POOL = 256
    STREAM_BATCHES = 2000
    round_size = 4  # batches
    warmup_rounds = POOL // (BATCH * round_size)
    ledger_rounds = warmup_rounds + 6
    min_rounds = 53  # 212 batches: 10 beyond p95

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(seed, workdir)
        rng = random.Random(seed * 7919 + 2)
        self.pool = inputs.distinct_queries(
            inputs.word_collection(self.words), ((6, 10), (11, 15)),
            self.POOL, rng,
        )
        draws = self.pool + inputs.zipf_stream(
            self.pool, self.BATCH * self.STREAM_BATCHES, rng
        )
        self.batches = [
            draws[i:i + self.BATCH] for i in range(0, len(draws), self.BATCH)
        ]
        self._batch_no = 0

    def setup(self) -> None:
        super().setup()
        self._batch_no = 0

    def _round(self, rec, tracer) -> None:
        for _ in range(self.round_size):
            b = self._batch_no % len(self.batches)
            self._batch_no += 1
            self.request(
                rec, tracer, "/batch",
                {"queries": self.batches[b], "threshold": TAU}, b, self.BATCH,
            )

    def measured_texts(self) -> List[str]:
        return list(self.pool)

    def check(self) -> List[str]:
        refs: Dict[str, Dict[int, float]] = {}
        bad = []
        for b, data in self.responses:
            body = json.loads(data)
            for text, slot in zip(self.batches[b], body["results"]):
                if slot.get("degraded") or not slot.get("ok"):
                    self.late_failures += 1
                    continue
                problem = self.check_slot(refs, text, slot)
                if problem:
                    bad.append(problem)
        return bad

    def properties(self) -> Dict:
        used = [self.batches[b] for b, _data in self.responses]
        overlaps = []
        repeats = 0
        for batch in used[: len(self.batches)]:
            prepared = [
                self.searcher.prepare(inputs.TOKENIZER.tokens(t))
                for t in batch
            ]
            overlaps.append(batch_overlap_factor(prepared))
            repeats += len(batch) - len(set(batch))
        seen = sum(len(b) for b in used[: len(self.batches)])
        return dict(
            self.base_properties(),
            pool=len(self.pool),
            batch=self.BATCH,
            in_batch_repeat_share=repeats / max(seen, 1),
            batch_overlap_factor={
                "min": min(overlaps, default=0.0),
                "median": statistics.median(overlaps) if overlaps else 0.0,
                "max": max(overlaps, default=0.0),
            },
            strategy="threads (server default: no strategy field sent)",
            auto_would_choose_shared_share=(
                sum(1 for o in overlaps if o >= SHARED_SCAN_OVERLAP)
                / max(len(overlaps), 1)
            ),
        )
