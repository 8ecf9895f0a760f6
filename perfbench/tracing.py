"""Spans around the public entry point of each layer, kept in memory.

The program under test has no tracing of its own on these paths, so the
benchmark wraps the methods it calls (and the ones those call) on their
classes for the length of a traced round, then restores them.  A span
records its layer, start and end (``time.perf_counter``), the request
it belongs to and a small layer-specific ``info`` value.

The benchmark drives one request at a time (a closed loop with one
client), so the request id is a single field the client sets before
each request; spans opened in server or worker threads pick it up.
A layer's self time is its span minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

InfoFn = Callable[[tuple, dict, Any], Any]


class Span:
    __slots__ = ("layer", "start", "end", "request", "info")

    def __init__(self, layer, start, end, request, info=None) -> None:
        self.layer = layer
        self.start = start
        self.end = end
        self.request = request
        self.info = info

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs and removes method wrappers; collects their spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.request = 0
        self._targets: List[Tuple[type, str, str, Optional[InfoFn]]] = []
        self._saved: List[Tuple[type, str, Any]] = []

    def target(
        self, owner: type, name: str, layer: str,
        info: Optional[InfoFn] = None,
    ) -> None:
        """Trace ``owner.name`` (defined on ``owner`` itself) as ``layer``."""
        if name not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {name}")
        self._targets.append((owner, name, layer, info))

    def install(self) -> None:
        for owner, name, layer, info in self._targets:
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def record(self, layer: str, start: float, end: float) -> None:
        """A span timed by the benchmark itself (the HTTP client)."""
        self.spans.append(Span(layer, start, end, self.request))

    def _wrap(self, fn, layer: str, info: Optional[InfoFn]):
        spans = self.spans
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer.request
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            spans.append(
                Span(
                    layer, start, end, request,
                    info(args, kwargs, result) if info else None,
                )
            )
            return result

        return traced

    def of(self, layer: str) -> List[Span]:
        return [s for s in self.spans if s.layer == layer]


def _covered(
    start: float, end: float, intervals: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the (sorted) intervals."""
    total = 0.0
    cursor = start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _by_request(spans: Iterable[Span]) -> Iterable[List[Span]]:
    groups: Dict[Any, List[Span]] = defaultdict(list)
    for span in spans:
        groups[span.request].append(span)
    return groups.values()


def self_times(
    spans: Iterable[Span], layer: str, child_layers: Iterable[str]
) -> List[float]:
    """Per span of ``layer``: its duration minus the time its children
    (spans of ``child_layers`` in the same request) cover."""
    children = set(child_layers)
    out: List[float] = []
    for group in _by_request(spans):
        intervals = sorted(
            (s.start, s.end) for s in group if s.layer in children
        )
        for span in group:
            if span.layer == layer:
                out.append(
                    span.seconds - _covered(span.start, span.end, intervals)
                )
    return out


def children_per_span(
    spans: Iterable[Span], layer: str, child_layer: str
) -> List[int]:
    """Per span of ``layer``: how many ``child_layer`` spans it encloses."""
    out: List[int] = []
    for group in _by_request(spans):
        kids = [s for s in group if s.layer == child_layer]
        for span in group:
            if span.layer == layer:
                out.append(
                    sum(
                        1 for k in kids
                        if span.start <= k.start and k.end <= span.end
                    )
                )
    return out
