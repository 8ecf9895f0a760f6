"""Updatable search over a growing collection — epoch-based statistics.

The paper's indexes are static for a reason: every idf weight depends on
the global corpus (``N`` and each ``N(t)``), so inserting one set shifts
*every* normalized length and every stored posting order.  Real deployments
still need inserts; the standard resolution (used by search engines) is
*epoching*: scores are defined against a statistics snapshot, new data is
absorbed into a small delta index immediately, and a rebuild refreshes the
snapshot when the delta grows past a bound.

:class:`UpdatableSearcher` implements exactly that contract:

* ``add(tokens, payload)`` — visible to the *next* query, O(delta rebuild);
* scores are always computed with the **current epoch's statistics** (the
  corpus as of the last :meth:`rebuild`); this is documented, observable
  (:attr:`epoch`), and tested — after ``rebuild()`` results equal a fresh
  build over everything;
* ``auto_rebuild_fraction`` — rebuild automatically once the delta exceeds
  that fraction of the base (default 25 %), bounding the drift window.

Queries fan out to the base index and the delta index and merge, so search
cost stays near the static index's until a rebuild amortizes the inserts.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..algorithms.base import AlgorithmResult, SearchResult
from ..storage.pages import IOStats
from .collection import SetCollection
from .errors import ConfigurationError
from .search import SetSimilaritySearcher


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
        self.epoch = 0
        self._all_tokens: List[List[str]] = []
        self._all_payloads: List[Any] = []
        if initial_sets:
            for i, tokens in enumerate(initial_sets):
                payload = payloads[i] if payloads is not None else None
                self._all_tokens.append(list(tokens))
                self._all_payloads.append(payload)
        self._base_size = len(self._all_tokens)
        self._base = self._build(self._all_tokens, self._all_payloads)
        self._delta: Optional[SetSimilaritySearcher] = None

    # ------------------------------------------------------------------
    @staticmethod
    def _build(token_lists, payloads) -> SetSimilaritySearcher:
        coll = SetCollection()
        for tokens, payload in zip(token_lists, payloads):
            coll.add(tokens, payload=payload)
        coll.freeze()
        return SetSimilaritySearcher(
            coll, with_id_lists=False, with_hash_index=False
        )

    @property
    def stats_epoch(self):
        """The statistics snapshot every score is computed against."""
        return self._base.collection.stats

    def __len__(self) -> int:
        return len(self._all_tokens)

    @property
    def pending(self) -> int:
        """Sets inserted since the current epoch's snapshot."""
        return len(self._all_tokens) - self._base_size

    @property
    def version(self):
        """Cache-invalidation token: changes on every insert and rebuild.

        The service layer keys its result cache on this value, so any
        mutation — an insert absorbed by the delta index or an epoch
        rebuild — invalidates stale cached answers."""
        return (self.epoch, len(self._all_tokens))

    # ------------------------------------------------------------------
    def add(self, tokens: Sequence[str], payload: Any = None) -> int:
        """Insert one set; returns its id.  Visible to the next query."""
        set_id = len(self._all_tokens)
        self._all_tokens.append(list(tokens))
        self._all_payloads.append(payload)
        self._rebuild_delta()
        if self.pending >= self.auto_rebuild_fraction * max(self._base_size, 1):
            self.rebuild()
        return set_id

    def _rebuild_delta(self) -> None:
        """Delta index over pending sets, scored with the epoch's stats.

        Ids in the delta collection are offset by the base size; queries
        translate them back.
        """
        pending_tokens = self._all_tokens[self._base_size :]
        pending_payloads = self._all_payloads[self._base_size :]
        if not pending_tokens:
            self._delta = None
            return
        coll = _EpochCollection(self._base.collection.stats)
        for tokens, payload in zip(pending_tokens, pending_payloads):
            coll.add(tokens, payload=payload)
        coll.freeze()
        self._delta = SetSimilaritySearcher(
            coll, with_id_lists=False, with_hash_index=False
        )

    def rebuild(self) -> int:
        """Start a new epoch: fold all pending sets into the base index and
        refresh the statistics snapshot.  Returns the new epoch number."""
        self._base = self._build(self._all_tokens, self._all_payloads)
        self._base_size = len(self._all_tokens)
        self._delta = None
        self.epoch += 1
        return self.epoch

    # ------------------------------------------------------------------
    def search(
        self, tokens: Sequence[str], threshold: float,
        algorithm: str = "sf", deadline: Optional[float] = None,
    ) -> AlgorithmResult:
        """Selection over base + pending sets (epoch-stats scoring); one
        ``deadline`` instant bounds both searches."""
        base_result = self._base.search(
            tokens, threshold, algorithm, deadline=deadline
        )
        if self._delta is None:
            return base_result
        delta_result = self._delta.search(
            tokens, threshold, algorithm, deadline=deadline
        )
        merged = list(base_result.results) + [
            SearchResult(r.set_id + self._base_size, r.score)
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


class _EpochCollection(SetCollection):
    """A collection whose statistics are pinned to an existing snapshot."""

    def __init__(self, pinned_stats) -> None:
        super().__init__()
        self._pinned = pinned_stats

    @property
    def stats(self):
        self._require_frozen()
        return self._pinned
