"""Service resilience primitives: immediate retries and admission.

Two small pieces sit between :class:`SimilarityService` and its
backend, turning infrastructure failures (real, or injected by
:mod:`repro.faults`) into bounded, observable behaviour:

* :func:`call_with_retries` — up to :data:`RETRY_ATTEMPTS` immediate
  tries for :class:`~repro.faults.errors.TransientIOError`.  The backend
  is in memory, so a re-run is cheap and nothing is gained by sleeping
  between tries; every other exception, a missed deadline included,
  propagates at once.
* :class:`AdmissionController` — bounded in-flight work.  Arrivals that
  would exceed ``max_inflight`` are shed immediately with
  :class:`~repro.core.errors.ServiceOverloadError` (the HTTP layer maps
  it to 503 + ``Retry-After``) instead of queueing unboundedly; a
  draining controller sheds everything new while :meth:`drain` waits
  for in-flight queries to finish.

Metrics (through :mod:`repro.obs.metrics`, when enabled):
``retries_total``, ``queries_shed_total`` (by reason) and
``service_inflight_queries``.  Knob-to-behaviour mapping lives in
``docs/robustness.md``.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..core.errors import ServiceOverloadError
from ..faults.errors import TransientIOError
from ..obs import metrics as obs_metrics

__all__ = [
    "RETRY_ATTEMPTS",
    "call_with_retries",
    "AdmissionController",
]

#: Total tries per backend call (one first try plus two retries).
RETRY_ATTEMPTS = 3


def call_with_retries(fn: Callable, *args):
    """Invoke ``fn(*args)``, re-running it at once on a transient error.

    Only :class:`TransientIOError` is retried, at most
    ``RETRY_ATTEMPTS - 1`` times; the last one propagates when every try
    failed.  Any other exception propagates immediately.  Each retry
    bumps ``retries_total``.
    """
    for attempt in range(1, RETRY_ATTEMPTS + 1):
        try:
            return fn(*args)
        except TransientIOError:
            if attempt == RETRY_ATTEMPTS:
                raise
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "retries_total",
                "Backend calls retried after a transient failure.",
            ).inc()


class AdmissionController:
    """Bounded in-flight work with load shedding and drain support.

    ``max_inflight=None`` disables the bound but keeps in-flight
    accounting (needed for :meth:`drain`).  ``acquire(weight)`` either
    admits the work or raises :class:`ServiceOverloadError` at once —
    there is no hidden queue to build unbounded latency in.
    """

    def __init__(self, max_inflight: Optional[int] = None) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._inflight = 0
        self._draining = False
        self._cond = threading.Condition()

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    def _shed(self, weight: int, reason: str) -> None:
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "queries_shed_total",
                "Queries rejected by admission control.",
                ("reason",),
            ).labels(reason=reason).inc(weight)

    def acquire(self, weight: int = 1) -> None:
        """Admit ``weight`` queries or shed them with an overload error."""
        with self._cond:
            if self._draining:
                self._shed(weight, "draining")
                raise ServiceOverloadError(
                    "service is draining for shutdown", retry_after=5.0
                )
            if (
                self.max_inflight is not None
                and self._inflight + weight > self.max_inflight
            ):
                self._shed(weight, "overload")
                raise ServiceOverloadError(
                    f"service at capacity ({self._inflight} in flight, "
                    f"limit {self.max_inflight})",
                    retry_after=1.0,
                )
            self._inflight += weight
            self._observe_inflight()

    def release(self, weight: int = 1) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - weight)
            self._observe_inflight()
            if self._inflight == 0:
                self._cond.notify_all()

    def _observe_inflight(self) -> None:
        # Caller holds the lock.
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.gauge(
                "service_inflight_queries",
                "Queries currently admitted and executing.",
            ).set(self._inflight)

    def begin_drain(self) -> None:
        """Stop admitting; arrivals now shed with reason ``draining``."""
        with self._cond:
            self._draining = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Begin draining and wait for in-flight work to finish.

        Returns True when the service emptied, False on timeout (the
        controller stays draining either way).
        """
        with self._cond:
            self._draining = True
            return self._cond.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    def resume(self) -> None:
        """Leave draining mode (tests and planned restarts)."""
        with self._cond:
            self._draining = False

    def __repr__(self) -> str:
        return (
            f"AdmissionController(inflight={self.inflight}, "
            f"max={self.max_inflight}, draining={self.draining})"
        )
