"""``library-sweep``: the paper's algorithm grid, in-process.

Every round takes the next query of a fixed pool, prepares it once and
runs ``search_prepared`` for each of {sf, inra, ita, hybrid} at each
tau in {0.6, 0.8, 0.9}: twelve timed operations, one latency sample
each.  The pool holds the same number of distinct queries from each of
the 6-10, 11-15 and 16-20 gram buckets, interleaved, so any stretch of
rounds covers the buckets evenly.  Queries are unmodified words (the
paper's default workload), so each has an exact match.  Runs measure
whole passes over the pool.  No HTTP, no service, no cache: the
algorithms and the list cursors do all the work.

Set-up is building the index from the word list.  The index is saved
and loaded once more, untimed, for the stored-size and persist numbers.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

import inputs
from common import Workload, answer_of, compare, dir_bytes, input_bytes
from layers import NO_SERVICE, SWEEP_ALGORITHMS, SWEEP_TAUS, cursor_replay

from repro.core.properties import effective_threshold
from repro.core.search import SetSimilaritySearcher, StringMatcher
from repro.storage.persist import load_searcher, save_searcher

NUM_RECORDS = 20_000
BUCKETS = ((6, 10), (11, 15), (16, 20))
PER_BUCKET = 40


class LibrarySweep(Workload):
    warmup_rounds = len(BUCKETS)
    min_rounds = len(BUCKETS) * PER_BUCKET  # one whole pass: 1,440 samples
    round_multiple = min_rounds
    paired_trace_rounds = True
    ledger_rounds = warmup_rounds + min_rounds

    def __init__(self, seed: int, workdir) -> None:
        super().__init__(workdir)
        self.words = inputs.word_list(NUM_RECORDS, seed)
        collection = inputs.word_collection(self.words)
        rng = random.Random(seed * 7919 + 3)
        per_bucket = [
            inputs.distinct_queries(collection, (b,), PER_BUCKET, rng)
            for b in BUCKETS
        ]
        self.pool = [q for group in zip(*per_bucket) for q in group]
        self.tokens = [inputs.TOKENIZER.tokens(q) for q in self.pool]
        self.searcher: SetSimilaritySearcher = None
        self._next = 0
        self._replay = None
        # (pool index, algorithm, tau, answer) for every timed search.
        self.answers: List[Tuple[int, str, float, Dict[int, float]]] = []
        self._elements = 0
        self._io_cost = 0.0
        self._searches = 0

    def setup(self) -> None:
        self.searcher = StringMatcher(
            self.words, tokenizer=inputs.TOKENIZER
        ).searcher
        self._next = 0
        self._replay = None
        self.answers = []
        self._elements = 0
        self._io_cost = 0.0
        self._searches = 0

    def after_setup(self) -> None:
        index_dir = self.fresh_dir("index")
        started = time.perf_counter()
        save_searcher(self.searcher, index_dir)
        saved = time.perf_counter()
        load_searcher(index_dir)
        self.persist = {
            "save_s": saved - started,
            "load_s": time.perf_counter() - saved,
            "bytes": dir_bytes(index_dir),
        }

    def teardown(self) -> None:
        self.searcher = None

    def run_round(self, rec, tracer) -> None:
        if tracer is None and self._replay is not None:
            # Trace mode pairs rounds: the untraced round repeats the
            # traced one's query, so the overhead compares equal work.
            i, self._replay = self._replay, None
        else:
            i = self._next % len(self.pool)
            self._next += 1
            if tracer is not None:
                self._replay = i
        searcher = self.searcher
        clock = time.perf_counter
        query = searcher.prepare(self.tokens[i])
        for tau in SWEEP_TAUS:
            for algorithm in SWEEP_ALGORITHMS:
                if tracer is not None:
                    tracer.request += 1
                rec.attempted += 1
                started = clock()
                try:
                    result = searcher.search_prepared(query, tau, algorithm)
                except Exception:  # repro-check: allow-broad-except
                    # Counted as a failure; the closed loop goes on.
                    rec.failed += 1
                    continue
                rec.latencies.append(clock() - started)
                rec.queries += 1
                stats = result.stats
                self._elements += stats.elements_read
                self._io_cost += stats.cost()
                self._searches += 1
                self.answers.append(
                    (i, algorithm, tau, answer_of(result.results))
                )

    def ledger_now(self):
        return self._elements, self._io_cost, self._searches

    def check(self) -> List[str]:
        """Every answer against ``brute_force`` (run once per query at
        the lowest tau, then cut at each higher tau)."""
        low = min(SWEEP_TAUS)
        refs: Dict[int, Dict[int, float]] = {}
        bad = []
        for i, algorithm, tau, got in self.answers:
            if i not in refs:
                refs[i] = answer_of(
                    self.searcher.brute_force(self.tokens[i], low)
                )
            cutoff = effective_threshold(tau)
            want = {k: v for k, v in refs[i].items() if v >= cutoff}
            problem = compare(f"{self.pool[i]!r} {algorithm}@{tau}", got, want)
            if problem:
                bad.append(problem)
        return bad

    def stored_bytes_per_input_byte(self) -> float:
        return self.persist["bytes"] / input_bytes(self.words)

    def layer_inputs(self, tracer):
        items = [
            (self.searcher.prepare(tokens), tau)
            for tokens in self.tokens
            for tau in SWEEP_TAUS
        ]
        return dict(NO_SERVICE), cursor_replay(self.searcher.index, items)

    def properties(self) -> Dict:
        index = self.searcher.index
        return {
            "corpus_sets": len(self.searcher.collection),
            "corpus_postings": index.num_postings(),
            "pool": len(self.pool),
            "buckets": [list(b) for b in BUCKETS],
            "algorithms": list(SWEEP_ALGORITHMS),
            "taus": list(SWEEP_TAUS),
            "repeat_share": 1.0 - min(self._next, len(self.pool)) / max(
                self._next, 1
            ),
        }
