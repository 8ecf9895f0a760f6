"""``rw-durable``: searches and durable inserts through the service.

A ``SimilarityService`` (default ``ServiceConfig``) serves a
``DurableUpdatableSearcher`` whose operations log lives in the run's
temporary directory.  Each cycle inserts one new perturbed word and then
runs :data:`SEARCHES_PER_INSERT` Zipf-skewed searches.  The searcher
rebuilds its epoch once the pending sets reach
:data:`REBUILD_FRACTION` of the base, so a run spans several epoch
rebuilds and the insert cost cycles instead of growing with run length.

Set-up is constructing the durable searcher from the word list (which
frames and fsyncs every initial set into the log, then builds the base
index) and the service over it.

Answers are checked against an exhaustive scan of an independent
token-to-set map, scored with the epoch statistics the searcher reported
at the time of the search.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import inputs
from common import Workload, answer_of, compare, input_bytes
from layers import (
    NO_SERVICE,
    counter_delta,
    cursor_replay,
    service_counters,
)

from repro.core.properties import effective_threshold
from repro.core.search import StringMatcher
from repro.service import ServiceConfig, SimilarityService
from repro.storage.oplog import DurableUpdatableSearcher

NUM_RECORDS = 6_000
TAU = 0.8
POOL = 500
ZIPF_EXPONENT = 0.5
SEARCHES_PER_INSERT = 4
CYCLES_PER_ROUND = 5
REBUILD_FRACTION = 0.05
STREAM = 100_000
INSERTS = 5_000


class _ExhaustiveReference:
    """All sets, as token sets, with a token -> set-id map; answers by
    accumulating idf^2 over every posting of the query's tokens."""

    def __init__(self, token_sets: List[List[str]]) -> None:
        self.sets: List[frozenset] = []
        self.postings: Dict[str, List[int]] = defaultdict(list)
        self._stats = None
        self._lengths: Dict[int, float] = {}
        for tokens in token_sets:
            self.add(tokens)

    def add(self, tokens: List[str]) -> None:
        set_id = len(self.sets)
        self.sets.append(frozenset(tokens))
        for token in self.sets[-1]:
            self.postings[token].append(set_id)

    def answer(
        self, tokens: List[str], stats, num_sets: int
    ) -> Dict[int, float]:
        if stats is not self._stats:
            self._stats = stats
            self._lengths = {}
        query = frozenset(tokens)
        q_length = stats.length(query)
        acc: Dict[int, float] = defaultdict(float)
        for token in query:
            weight = stats.idf_squared(token)
            for set_id in self.postings.get(token, ()):
                if set_id < num_sets:
                    acc[set_id] += weight
        cutoff = effective_threshold(TAU)
        out = {}
        for set_id, total in acc.items():
            length = self._lengths.get(set_id)
            if length is None:
                length = self._lengths[set_id] = stats.length(
                    self.sets[set_id]
                )
            score = total / (q_length * length)
            if score >= cutoff:
                out[set_id] = score
        return out


class RwDurable(Workload):
    warmup_rounds = 1
    ledger_rounds = 16  # 320 searches, warm-up included
    min_rounds = 15  # 300 search samples

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(workdir)
        self.words = inputs.word_list(NUM_RECORDS, seed)
        collection = inputs.word_collection(self.words)
        self.word_tokens = [list(rec.tokens) for rec in collection]
        rng = random.Random(seed * 7919 + 4)
        pool = inputs.distinct_queries(
            collection, ((6, 10), (11, 15)), POOL, rng
        )
        self.pool_tokens = [inputs.TOKENIZER.tokens(t) for t in pool]
        # Pool indices, Zipf-skewed.
        self.stream = inputs.zipf_stream(
            range(len(pool)), STREAM, rng, ZIPF_EXPONENT
        )
        self.inserts = inputs.new_words(self.words, INSERTS, rng)
        self.insert_tokens = [inputs.TOKENIZER.tokens(w) for w in self.inserts]
        self.updatable: Optional[DurableUpdatableSearcher] = None
        self.service: Optional[SimilarityService] = None
        self._setups = 0
        self._service_delta = dict(NO_SERVICE)

    def setup(self) -> None:
        self._setups += 1
        log_dir = self.fresh_dir(f"durable-{self._setups}")
        self.updatable = DurableUpdatableSearcher(
            log_dir,
            initial_sets=self.word_tokens,
            payloads=self.words,
            auto_rebuild_fraction=REBUILD_FRACTION,
        )
        self.service = SimilarityService(
            self.updatable, ServiceConfig(), tokenizer=inputs.TOKENIZER
        )
        self._searches_done = 0
        self._inserts_done = 0
        self._elements = 0
        self._io_cost = 0.0
        self._ledger_searches = 0
        # (pool index, epoch stats, sets visible, service answer)
        self.answers: List[Tuple[int, object, int, object]] = []
        self.inserted: List[int] = []  # insert indices, in order

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        self.updatable = None

    def run_round(self, rec, tracer) -> None:
        before = service_counters(self.service) if tracer else None
        for _ in range(CYCLES_PER_ROUND):
            self._insert(rec, tracer)
            for _ in range(SEARCHES_PER_INSERT):
                self._search(rec, tracer)
        if tracer is not None:
            counter_delta(
                before, service_counters(self.service), self._service_delta
            )

    def _insert(self, rec, tracer) -> None:
        j = self._inserts_done % len(self.inserts)
        self._inserts_done += 1
        if tracer is not None:
            tracer.request += 1
        rec.attempted += 1
        try:
            self.updatable.add(
                self.insert_tokens[j], payload=self.inserts[j]
            )
        except Exception:  # repro-check: allow-broad-except
            # Counted as a failure; the closed loop goes on.
            rec.failed += 1
            return
        self.inserted.append(j)

    def _search(self, rec, tracer) -> None:
        i = self.stream[self._searches_done % STREAM]
        self._searches_done += 1
        if tracer is not None:
            tracer.request += 1
        rec.attempted += 1
        started = time.perf_counter()
        try:
            out = self.service.search(self.pool_tokens[i], TAU)
        except Exception:  # repro-check: allow-broad-except
            # Counted as a failure; the closed loop goes on.
            rec.failed += 1
            return
        rec.latencies.append(time.perf_counter() - started)
        self.answers.append(
            (i, self.updatable.stats_epoch, len(self.updatable), out)
        )
        if out.degraded or out.result is None:
            rec.failed += 1
            return
        rec.queries += 1
        if not out.cached:
            self._elements += out.result.stats.elements_read
            self._io_cost += out.result.stats.cost()
        self._ledger_searches += 1

    def ledger_now(self):
        return self._elements, self._io_cost, self._ledger_searches

    def check(self) -> List[str]:
        ref = _ExhaustiveReference(self.word_tokens)
        added = 0
        bad = []
        for i, stats, num_sets, out in self.answers:
            while len(ref.sets) < num_sets:
                ref.add(self.insert_tokens[self.inserted[added]])
                added += 1
            if out.degraded or out.result is None:
                continue
            want = ref.answer(self.pool_tokens[i], stats, num_sets)
            problem = compare(
                f"search {i}", answer_of(out.result.results), want
            )
            if problem:
                bad.append(problem)
        return bad

    def stored_bytes_per_input_byte(self) -> float:
        words = self.words + [self.inserts[j] for j in self.inserted]
        return self.updatable.log.size_bytes() / input_bytes(words)

    def layer_inputs(self, tracer):
        searcher = StringMatcher(
            self.words, tokenizer=inputs.TOKENIZER
        ).searcher
        items = [
            (searcher.prepare(tokens), TAU)
            for tokens in self.pool_tokens
        ]
        return self._service_delta, cursor_replay(searcher.index, items)

    def properties(self) -> Dict:
        searched = self.stream[: min(self._searches_done, STREAM)]
        distinct = len(set(searched))
        return {
            "corpus_sets": len(self.words),
            "pool": len(self.pool_tokens),
            "tau": TAU,
            "repeat_share": 1.0 - distinct / max(len(searched), 1),
            "insert_share": self._inserts_done
            / max(self._inserts_done + self._searches_done, 1),
            "inserts": self._inserts_done,
            "epochs": self.updatable.epoch,
            "rebuild_fraction": REBUILD_FRACTION,
            "strategy": "single searches (no batches)",
        }
