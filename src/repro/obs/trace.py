"""Lightweight span tracer: structured per-query traces, JSONL, flames.

A trace is a list of **span records** — named, attributed intervals on
a monotonic clock (``time.perf_counter``; wall-clock ``time.time`` is
banned here by the ``time-source`` static check because traces must
order correctly across NTP slews).  Spans nest per thread: a span
opened while another is live on the same thread records it as parent,
so one service process can trace concurrent queries without the worker
threads' spans interleaving into nonsense.

The tracer is *globally installed* but off by default; instrumented
hot paths fetch :func:`current` once per query and skip all span
bookkeeping when it returns ``None`` — the disabled cost is one
function call per query, never per posting.

Typical use::

    from repro.obs import trace

    with trace.capture() as tracer:
        ...  # run the query
    text = tracer.to_jsonl()             # one JSON object per line
    print(trace.flame_summary(tracer.records))

``repro trace --input spans.jsonl`` renders the same flame summary
from a saved trace (see ``docs/observability.md`` for the record
schema).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

__all__ = [
    "SpanRecord",
    "Tracer",
    "capture",
    "current",
    "event",
    "flame_summary",
    "install",
    "read_jsonl",
    "span",
    "uninstall",
]


class SpanRecord:
    """One completed (or point) span.

    ``start``/``end`` are monotonic seconds from the tracer's clock;
    only differences are meaningful.  Point events have ``end ==
    start``.  ``parent_id`` is 0 for roots.
    """

    __slots__ = ("span_id", "parent_id", "thread", "name", "start", "end",
                 "attrs")

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        thread: int,
        name: str,
        start: float,
        end: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread = thread
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread": self.thread,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanRecord":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=int(data.get("parent_id", 0)),
            thread=int(data.get("thread", 0)),
            name=str(data["name"]),
            start=float(data["start"]),
            end=float(data["end"]),
            attrs=dict(data.get("attrs", {})),
        )

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f}ms, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class _LiveSpan:
    """Context manager for one open span; finalizes into a record."""

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record

    def note(self, **attrs: Any) -> None:
        """Attach attributes to the open span (e.g. counts known only
        at the end of a scan)."""
        self._record.attrs.update(attrs)

    def close(self) -> None:
        """Finish the span explicitly (for callers that cannot use a
        ``with`` block around the timed region)."""
        self._tracer._finish(self._record)

    def __enter__(self) -> "_LiveSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def note(self, **attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects span records; nesting is tracked per thread."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self.records: List[SpanRecord] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def span(self, name: str, **attrs: Any) -> _LiveSpan:
        """Open a span; use as a context manager."""
        stack = self._stack()
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else 0,
            thread=threading.get_ident(),
            name=name,
            start=self._clock(),
            end=0.0,
            attrs=dict(attrs),
        )
        stack.append(record.span_id)
        return _LiveSpan(self, record)

    def _finish(self, record: SpanRecord) -> None:
        record.end = self._clock()
        stack = self._stack()
        if record.span_id in stack:
            # Also drops children an exception left open (a query its
            # deadline stopped mid-list), so later spans nest correctly.
            del stack[stack.index(record.span_id):]
        with self._lock:
            self.records.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """A point event (zero-duration span) under the current span."""
        stack = self._stack()
        now = self._clock()
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=stack[-1] if stack else 0,
            thread=threading.get_ident(),
            name=name,
            start=now,
            end=now,
            attrs=dict(attrs),
        )
        with self._lock:
            self.records.append(record)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per record, in completion order."""
        with self._lock:
            records = list(self.records)
        return "".join(
            json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records
        )

    def write_jsonl(self, path: str) -> int:
        """Write the trace to a JSONL file; returns the record count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return text.count("\n")

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"Tracer(records={len(self.records)})"


def read_jsonl(text: str) -> List[SpanRecord]:
    """Parse a JSONL trace back into records (round-trips to_jsonl)."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(SpanRecord.from_dict(json.loads(line)))
    return records


# ----------------------------------------------------------------------
# global installation
# ----------------------------------------------------------------------
class _TracerState:
    __slots__ = ("tracer",)

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None


_STATE = _TracerState()


def current() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is off (the common
    case — callers on hot paths check this once per query)."""
    return _STATE.tracer


def install(tracer: Tracer) -> Optional[Tracer]:
    """Install a tracer globally; returns the previous one."""
    previous, _STATE.tracer = _STATE.tracer, tracer
    return previous


def uninstall() -> Optional[Tracer]:
    """Remove the installed tracer; returns it."""
    previous, _STATE.tracer = _STATE.tracer, None
    return previous


class _Capture:
    def __init__(self) -> None:
        self.tracer = Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = install(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        install(self._previous) if self._previous else uninstall()


def capture() -> _Capture:
    """Install a fresh tracer for a ``with`` block and hand it back."""
    return _Capture()


def span(name: str, **attrs: Any):
    """Module-level convenience: a span on the installed tracer, or a
    shared no-op when tracing is off."""
    tracer = _STATE.tracer
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    tracer = _STATE.tracer
    if tracer is not None:
        tracer.event(name, **attrs)


# ----------------------------------------------------------------------
# text flame summary
# ----------------------------------------------------------------------
def _paths(records: Sequence[SpanRecord]) -> Iterator[tuple]:
    by_id = {r.span_id: r for r in records}
    for record in records:
        parts = [record.name]
        seen = {record.span_id}
        parent = by_id.get(record.parent_id)
        while parent is not None and parent.span_id not in seen:
            parts.append(parent.name)
            seen.add(parent.span_id)
            parent = by_id.get(parent.parent_id)
        yield ";".join(reversed(parts)), record


def flame_summary(records: Sequence[SpanRecord]) -> str:
    """Aggregate a trace into a text flame table.

    Rows are root-to-leaf span *paths* (``query;sf.scan_list``),
    indented by depth, with call counts, total milliseconds, and self
    time (total minus the time of direct children).  Zero-duration
    events report counts only.
    """
    if not records:
        return "(empty trace)"
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    order: List[str] = []
    for path, record in _paths(records):
        if path not in totals:
            totals[path] = 0.0
            counts[path] = 0
            order.append(path)
        totals[path] += record.duration
        counts[path] += 1
    # Self time: subtract each path's total from its parent path's.
    selfs = dict(totals)
    for path in order:
        parent = path.rsplit(";", 1)[0] if ";" in path else None
        if parent in selfs:
            selfs[parent] -= totals[path]
    order.sort()
    name_width = max(len(p.split(";")[-1]) + 2 * p.count(";") for p in order)
    name_width = max(name_width, len("span"))
    header = (
        f"{'span'.ljust(name_width)}  {'count':>7}  "
        f"{'total_ms':>10}  {'self_ms':>10}"
    )
    lines = [header, "-" * len(header)]
    for path in order:
        depth = path.count(";")
        name = "  " * depth + path.split(";")[-1]
        total_ms = totals[path] * 1e3
        self_ms = max(selfs[path], 0.0) * 1e3
        lines.append(
            f"{name.ljust(name_width)}  {counts[path]:>7}  "
            f"{total_ms:>10.3f}  {self_ms:>10.3f}"
        )
    return "\n".join(lines)
