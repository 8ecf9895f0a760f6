"""Updatable search over a growing collection — epoch-based statistics.

The paper's indexes are static for a reason: every idf weight depends on
the global corpus (``N`` and each ``N(t)``), so inserting one set shifts
*every* normalized length and every stored posting order.  Real deployments
still need inserts; the standard resolution (used by search engines) is
*epoching*: scores are defined against a statistics snapshot, new data is
absorbed into a small delta index immediately, and a rebuild refreshes the
snapshot when the delta grows past a bound.

The delta is never rebuilt.  Within an epoch the statistics are pinned,
so a pending set's normalized length never changes: ``add`` computes it
once and places the set's ``(len, id)`` postings into its own tokens'
delta lists (:meth:`~repro.storage.invlist.InvertedIndex.with_set`).
An insert costs the lists it touches, not the pending count, and after
any number of inserts the delta equals a fresh build over the pending
sets, so the I/O ledger of a search does not depend on how the delta
was grown.

:class:`UpdatableSearcher` implements exactly that contract:

* ``add(tokens, payload)`` — visible to the *next* query;
* scores are always computed with the **current epoch's statistics** (the
  corpus as of the last :meth:`rebuild`); this is documented, observable
  (:attr:`epoch`), and tested — after ``rebuild()`` results equal a fresh
  build over everything;
* ``auto_rebuild_fraction`` — rebuild automatically once the delta exceeds
  that fraction of the base (default 25 %), bounding the drift window;
  a new epoch starts from an empty delta.

**Publication.**  The base index, the delta, the epoch and the set count
form one immutable snapshot.  ``add`` and ``rebuild`` build the next
snapshot beside the current one — an insert copies only the lists it
touches and the token-to-list dict — and publish it with one assignment.
``search``, ``version``, ``pending`` and ``stats_epoch`` each read one
snapshot, so a concurrent search sees the index as it was before or
after an insert, never a mix.  :attr:`version` changes exactly when an
insert or a rebuild becomes visible: a cache keyed on it cannot file an
old answer under a new version.  Writers are not serialized against
each other; one thread inserts.

A query is prepared once against the epoch statistics and runs on the
base index and the delta, whose answers merge; search cost stays near
the static index's until a rebuild amortizes the inserts.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence

from ..algorithms.base import AlgorithmResult, SearchResult
from ..storage.pages import IOStats
from .collection import SetCollection
from .errors import ConfigurationError
from .search import SetSimilaritySearcher


class _Snapshot(NamedTuple):
    """Everything a search reads, published as one object."""

    base: SetSimilaritySearcher
    base_size: int
    delta: SetSimilaritySearcher  # the pending sets; ids offset by base_size
    epoch: int
    size: int  # sets visible: base_size + pending


class UpdatableSearcher:
    """Insert-friendly wrapper: base index + delta index + epoch rebuilds."""

    def __init__(
        self,
        initial_sets: Optional[Sequence[Sequence[str]]] = None,
        payloads: Optional[Sequence[Any]] = None,
        auto_rebuild_fraction: float = 0.25,
    ) -> None:
        if not (0.0 < auto_rebuild_fraction <= 1.0):
            raise ConfigurationError(
                "auto_rebuild_fraction must be in (0, 1]"
            )
        self.auto_rebuild_fraction = auto_rebuild_fraction
        # Append-only; a set is appended before the snapshot that shows
        # it is published, so every visible id has its tokens and payload.
        self._all_tokens: List[List[str]] = [
            list(tokens) for tokens in initial_sets or ()
        ]
        self._all_payloads: List[Any] = [
            payloads[i] if payloads is not None else None
            for i in range(len(self._all_tokens))
        ]
        self._snapshot = self._new_epoch(0)

    # ------------------------------------------------------------------
    def _new_epoch(self, epoch: int) -> _Snapshot:
        """A base index over every set so far, and an empty delta."""
        coll = SetCollection()
        for tokens, payload in zip(self._all_tokens, self._all_payloads):
            coll.add(tokens, payload=payload)
        coll.freeze()
        base = SetSimilaritySearcher(
            coll, with_id_lists=False, with_hash_index=False
        )
        delta = SetSimilaritySearcher(
            SetCollection().freeze(),
            with_id_lists=False,
            with_hash_index=False,
        )
        size = len(coll)
        return _Snapshot(base, size, delta, epoch, size)

    def _publish(self, snapshot: _Snapshot) -> None:
        """Make ``snapshot`` the one every reader sees: one assignment."""
        self._snapshot = snapshot

    @property
    def stats_epoch(self):
        """The statistics snapshot every score is computed against."""
        return self._snapshot.base.collection.stats

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    def __len__(self) -> int:
        return self._snapshot.size

    @property
    def pending(self) -> int:
        """Sets inserted since the current epoch's snapshot."""
        snapshot = self._snapshot
        return snapshot.size - snapshot.base_size

    @property
    def version(self):
        """Cache-invalidation token: changes on every insert and rebuild.

        The service layer keys its result cache on this value, so any
        mutation — an insert absorbed by the delta index or an epoch
        rebuild — invalidates stale cached answers.  It changes only when
        the mutation is published, never before a search can see it."""
        snapshot = self._snapshot
        return (snapshot.epoch, snapshot.size)

    # ------------------------------------------------------------------
    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        """Insert one set; returns its id.  Visible to the next query."""
        snapshot = self._snapshot
        tokens = list(tokens)
        set_id = snapshot.size
        length = snapshot.base.collection.stats.length(tokens)
        delta = SetSimilaritySearcher.over_index(
            snapshot.delta.index.with_set(tokens, length)
        )
        self._all_tokens.append(tokens)
        self._all_payloads.append(payload)
        self._publish(snapshot._replace(delta=delta, size=set_id + 1))
        pending = set_id + 1 - snapshot.base_size
        if pending >= self.auto_rebuild_fraction * max(snapshot.base_size, 1):
            self.rebuild()
        return set_id

    def rebuild(self) -> int:
        """Start a new epoch: fold all pending sets into the base index and
        refresh the statistics snapshot.  Returns the new epoch number."""
        epoch = self._snapshot.epoch + 1
        self._publish(self._new_epoch(epoch))
        return epoch

    # ------------------------------------------------------------------
    def search(
        self, tokens: Sequence[str], threshold: float,
        algorithm: str = "sf", deadline: Optional[float] = None,
    ) -> AlgorithmResult:
        """Selection over base + pending sets (epoch-stats scoring); one
        prepared query serves both indexes, and one ``deadline`` instant
        bounds both searches."""
        snapshot = self._snapshot
        query = snapshot.base.prepare(tokens)
        base_result = snapshot.base.search_prepared(
            query, threshold, algorithm, deadline=deadline
        )
        if snapshot.size == snapshot.base_size:
            return base_result
        delta_result = snapshot.delta.search_prepared(
            query, threshold, algorithm, deadline=deadline
        )
        merged = list(base_result.results) + [
            SearchResult(r.set_id + snapshot.base_size, r.score)
            for r in delta_result.results
        ]
        stats = IOStats()
        stats.add(base_result.stats)
        stats.add(delta_result.stats)
        return AlgorithmResult(
            algorithm=base_result.algorithm,
            results=merged,
            stats=stats,
            elements_total=(
                base_result.elements_total + delta_result.elements_total
            ),
            wall_seconds=(
                base_result.wall_seconds + delta_result.wall_seconds
            ),
            peak_candidates=max(
                base_result.peak_candidates, delta_result.peak_candidates
            ),
        )

    def payload(self, set_id: int) -> Any:
        return self._all_payloads[set_id]

