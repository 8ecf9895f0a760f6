"""Pieces the workloads share: the base class and answer comparison."""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.properties import SCORE_EPSILON

Answer = Dict[int, float]


class Workload:
    """Base for the four workloads; see ``harness.run`` for the order in
    which the harness calls these."""

    warmup_rounds = 1
    ledger_rounds = 1
    min_rounds = 1
    round_multiple = 1
    # Trace mode: each untraced round repeats the traced round before it.
    paired_trace_rounds = False

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self._ledger: Optional[Tuple[float, float]] = None
        self.persist: Dict[str, float] = {}
        # Answers found degraded or in error when checked after the
        # timed rounds: failures, not mismatches.
        self.late_failures = 0

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed work once the last set-up is done."""

    def teardown(self) -> None:
        raise NotImplementedError

    def fresh_dir(self, label: str) -> Path:
        path = self.workdir / label
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    # -- measurement ----------------------------------------------------
    def run_round(self, rec, tracer) -> None:
        raise NotImplementedError

    def ledger_now(self) -> Tuple[float, float, int]:
        """(elements read, I/O cost, queries) since set-up."""
        raise NotImplementedError

    def mark_ledger(self) -> None:
        elements, io_cost, queries = self.ledger_now()
        queries = max(queries, 1)
        self._ledger = (elements / queries, io_cost / queries)

    def ledger_per_query(self) -> Tuple[float, float]:
        if self._ledger is None:
            raise RuntimeError("run ended before the ledger prefix")
        return self._ledger

    def check(self) -> List[str]:
        raise NotImplementedError

    def stored_bytes_per_input_byte(self) -> float:
        raise NotImplementedError

    # -- tracing --------------------------------------------------------
    def layer_inputs(self, tracer) -> Tuple[Dict[str, float], float]:
        """(service counter deltas over traced rounds, cursor replay
        microseconds per element)."""
        raise NotImplementedError

    def properties(self) -> Dict:
        return {}


def input_bytes(words: Iterable[str]) -> int:
    """Bytes of the word list as a newline-separated UTF-8 file."""
    return sum(len(w.encode("utf-8")) + 1 for w in words)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def compare(
    label: str, got: Mapping[int, float], want: Mapping[int, float]
) -> Optional[str]:
    """None when ids match exactly and scores within SCORE_EPSILON."""
    if set(got) != set(want):
        extra = sorted(set(got) - set(want))[:5]
        missing = sorted(set(want) - set(got))[:5]
        return f"{label}: ids differ (extra {extra}, missing {missing})"
    for set_id, score in want.items():
        if abs(got[set_id] - score) > SCORE_EPSILON:
            return (
                f"{label}: score of {set_id} is {got[set_id]!r}, "
                f"reference {score!r}"
            )
    return None


def answer_of(results) -> Answer:
    """``{set_id: score}`` of an algorithm's result list."""
    return {r.set_id: r.score for r in results}
