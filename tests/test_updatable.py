"""Tests for the updatable (epoch-based) searcher."""

import random
import sys
import threading

import pytest

from repro import SetCollection, SetSimilaritySearcher, SimilarityService
from repro.core.errors import ConfigurationError
from repro.core.updatable import UpdatableSearcher


def answers(results):
    return {(r.set_id, round(r.score, 9)) for r in results}


class TestBasics:
    def test_initial_build_searches(self):
        u = UpdatableSearcher([["a", "b"], ["b", "c"]])
        assert 0 in u.search(["a", "b"], 0.9).ids()

    def test_insert_visible_immediately(self):
        u = UpdatableSearcher([["a", "b"]], auto_rebuild_fraction=1.0)
        new_id = u.add(["x", "y"])
        assert new_id == 1
        assert new_id in u.search(["x", "y"], 0.5).ids()

    def test_payloads(self):
        u = UpdatableSearcher([["a"]], payloads=["first"])
        u.add(["b"], payload="second")
        assert u.payload(0) == "first"
        assert u.payload(1) == "second"

    def test_len_and_pending(self):
        u = UpdatableSearcher([["a"], ["b"]], auto_rebuild_fraction=1.0)
        assert len(u) == 2 and u.pending == 0
        u.add(["c"])
        assert len(u) == 3 and u.pending == 1

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            UpdatableSearcher([["a"]], auto_rebuild_fraction=0.0)

    def test_empty_start(self):
        u = UpdatableSearcher()
        u.add(["a", "b"])
        assert 0 in u.search(["a", "b"], 0.5).ids()


class TestEpochSemantics:
    def test_scores_use_epoch_stats_before_rebuild(self):
        # Before a rebuild, pending sets are scored with the old snapshot:
        # a token unseen at snapshot time keeps its default (max) idf.
        u = UpdatableSearcher([["a", "b"], ["a", "c"]],
                              auto_rebuild_fraction=1.0)
        snapshot = u.stats_epoch
        u.add(["a", "b"])  # duplicate of set 0 under the old stats
        result = u.search(["a", "b"], 0.99)
        assert set(result.ids()) == {0, 2}
        assert u.stats_epoch is snapshot  # epoch unchanged

    def test_rebuild_matches_fresh_build(self):
        rng = random.Random(12)
        vocab = [f"t{i}" for i in range(20)]
        initial = [rng.sample(vocab, rng.randint(1, 5)) for _ in range(50)]
        additions = [rng.sample(vocab, rng.randint(1, 5)) for _ in range(20)]
        u = UpdatableSearcher(initial, auto_rebuild_fraction=1.0)
        for s in additions:
            u.add(s)
        u.rebuild()

        fresh_coll = SetCollection.from_token_sets(initial + additions)
        fresh = SetSimilaritySearcher(fresh_coll)
        for _ in range(10):
            q = rng.sample(vocab, rng.randint(1, 4))
            for tau in (0.4, 0.8):
                assert answers(u.search(q, tau).results) == answers(
                    fresh.search(q, tau).results
                )

    def test_auto_rebuild_triggers(self):
        u = UpdatableSearcher(
            [["a"], ["b"], ["c"], ["d"]], auto_rebuild_fraction=0.25
        )
        assert u.epoch == 0
        u.add(["e"])  # pending 1 > 0.25*4 -> rebuild
        assert u.epoch == 1
        assert u.pending == 0

    def test_manual_rebuild_resets_pending(self):
        u = UpdatableSearcher([["a"], ["b"]], auto_rebuild_fraction=1.0)
        u.add(["c"])
        assert u.pending == 1
        epoch = u.rebuild()
        assert epoch == 1
        assert u.pending == 0

    def test_pending_results_merge_with_base(self):
        u = UpdatableSearcher(
            [["a", "b"], ["q", "r"]], auto_rebuild_fraction=1.0
        )
        u.add(["a", "b"])
        result = u.search(["a", "b"], 0.9)
        assert set(result.ids()) == {0, 2}
        # Telemetry aggregated across both indexes.
        assert result.elements_total > 0

    def test_consistency_before_and_after_rebuild(self):
        # The same query must return the same *sets* pre/post rebuild when
        # the additions do not change relative idf ordering drastically;
        # here we assert the exact-match set is stable.
        u = UpdatableSearcher(
            [["x", "y"], ["x", "z"]], auto_rebuild_fraction=1.0
        )
        u.add(["x", "y"])
        before = set(u.search(["x", "y"], 0.999).ids())
        u.rebuild()
        after = set(u.search(["x", "y"], 0.999).ids())
        assert before == after == {0, 2}


class TestInterleaved:
    def test_random_interleaving_always_complete(self):
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(15)]
        u = UpdatableSearcher(auto_rebuild_fraction=0.5)
        shadow = []
        for step in range(60):
            tokens = rng.sample(vocab, rng.randint(1, 5))
            u.add(tokens)
            shadow.append(tokens)
            if step % 7 == 0:
                q = rng.sample(vocab, rng.randint(1, 4))
                got = set(u.search(q, 0.95).ids())
                # Every exact duplicate of the query must be found
                # irrespective of epoch state.
                expect = {
                    i for i, s in enumerate(shadow)
                    if frozenset(s) == frozenset(q)
                }
                assert expect <= got


class _PinnedCollection(SetCollection):
    """A collection scored with given statistics: the fresh build an
    incrementally grown delta must equal."""

    def __init__(self, token_sets, stats) -> None:
        super().__init__()
        for tokens in token_sets:
            self.add(tokens)
        self.freeze()
        self._pinned = stats

    @property
    def stats(self):
        return self._pinned


def _structure(index):
    """Every list's postings and skip structure, plus the lengths."""
    lists = {}
    for token in index.tokens():
        postings = index._postings[token]
        skip = postings.skip
        lists[token] = (
            list(postings.weight_file.records()),
            postings.weight_file.page_capacity,
            len(skip),
            skip.stride,
            list(skip._keys),
            [list(level) for level in skip._levels],
            list(skip._positions),
        )
    return lists, list(index.lengths)


class TestIncrementalDelta:
    @staticmethod
    def _sets(seed, count, vocab_size=25):
        rng = random.Random(seed)
        vocab = [f"t{i}" for i in range(vocab_size)]
        # Repeated tokens and duplicate sets exercise (len, id) ties.
        return [
            rng.choices(vocab, k=rng.randint(1, 7)) for _ in range(count)
        ]

    def test_delta_equals_fresh_build_after_every_insert(self):
        base = self._sets(1, 200)
        additions = self._sets(2, 150, vocab_size=10) + [base[0], base[0]]
        u = UpdatableSearcher(base, auto_rebuild_fraction=1.0)
        for n, tokens in enumerate(additions, start=1):
            u.add(tokens)
            assert u.pending == n
            fresh = SetSimilaritySearcher(
                _PinnedCollection(additions[:n], u.stats_epoch),
                with_id_lists=False,
                with_hash_index=False,
            )
            assert _structure(u._snapshot.delta.index) == _structure(
                fresh.index
            ), f"after insert {n}"
        # Long enough lists to give the skip structures several levels.
        assert max(
            len(u._snapshot.delta.index._postings[t].skip._levels)
            for t in u._snapshot.delta.index.tokens()
        ) > 2

    def test_insert_shares_lists_it_does_not_touch(self):
        u = UpdatableSearcher(self._sets(3, 100), auto_rebuild_fraction=1.0)
        for tokens in self._sets(4, 30):
            u.add(tokens)
        before = u._snapshot.delta.index._postings
        u.add(["t1", "t2", "new-token"])
        after = u._snapshot.delta.index._postings
        assert set(after) == set(before) | {"new-token"}
        for token, postings in before.items():
            if token in ("t1", "t2"):
                assert after[token] is not postings
            else:
                assert after[token] is postings

    def test_captured_delta_is_unchanged_by_add(self):
        u = UpdatableSearcher(self._sets(5, 100), auto_rebuild_fraction=1.0)
        for tokens in self._sets(6, 20):
            u.add(tokens)
        captured = u._snapshot
        expected = _structure(captured.delta.index)
        u.add(["t1", "t2", "t3"])
        u.add(["t1", "new-token"])
        assert _structure(captured.delta.index) == expected
        assert captured.size == len(u) - 2
        assert u._snapshot.delta is not captured.delta

    def test_new_epoch_starts_from_an_empty_delta(self):
        u = UpdatableSearcher([["a"], ["b"]], auto_rebuild_fraction=1.0)
        u.add(["a", "c"])
        u.rebuild()
        assert u.pending == 0
        assert list(u._snapshot.delta.index.tokens()) == []
        assert u._snapshot.delta.index.lengths == []


class TestPublication:
    def test_search_during_insert_never_caches_a_stale_answer(
        self, monkeypatch
    ):
        u = UpdatableSearcher(
            [["a", "b"], ["c", "d"]], auto_rebuild_fraction=1.0
        )
        service = SimilarityService(u)
        publish = u._publish
        during = []

        def search_then_publish(snapshot):
            # A reader that runs in the last step before publication.
            during.append(service.search(["x", "y"], 0.5))
            publish(snapshot)

        monkeypatch.setattr(u, "_publish", search_then_publish)
        new_id = u.add(["x", "y"])
        monkeypatch.undo()
        assert during and during[0].result.ids() == []
        after = service.search(["x", "y"], 0.5)
        assert new_id in after.result.ids()
        assert after.result.ids() == u.search(["x", "y"], 0.5).ids()

    def test_version_changes_only_on_publication(self, monkeypatch):
        u = UpdatableSearcher([["a"], ["b"]], auto_rebuild_fraction=1.0)
        publish = u._publish
        seen = []

        def record_then_publish(snapshot):
            seen.append((u.version, len(u), u.pending))
            publish(snapshot)

        monkeypatch.setattr(u, "_publish", record_then_publish)
        before = u.version
        u.add(["c"])
        u.rebuild()
        assert seen == [(before, 2, 0), ((0, 3), 3, 1)]
        assert u.version == (1, 3)

    def test_concurrent_readers_see_whole_inserts(self):
        # Every set equals the query, so any search over any published
        # state answers exactly the ids 0..n-1 for that state's size n,
        # and n never shrinks for one reader; a torn insert or epoch
        # switch would leave a gap, a duplicate or a shrinking answer.
        pair = ["j", "k"]
        u = UpdatableSearcher([pair] * 20, auto_rebuild_fraction=0.25)
        done = threading.Event()
        problems = []

        def read():
            seen = 0
            while not done.is_set() and not problems:
                ids = sorted(u.search(pair, 0.99).ids())
                if ids != list(range(len(ids))) or len(ids) < seen:
                    problems.append((seen, ids))
                seen = len(ids)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [threading.Thread(target=read) for _ in range(4)]
            for reader in readers:
                reader.start()
            for _ in range(150):
                u.add(pair)
            done.set()
            for reader in readers:
                reader.join(timeout=30)
        finally:
            done.set()
            sys.setswitchinterval(previous)
        assert not any(reader.is_alive() for reader in readers)
        assert not problems, problems[:3]
        assert u.epoch > 3 and len(u) == 170
