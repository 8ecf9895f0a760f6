"""Tests for the service resilience layer (retries / admission).

The contract under test, per ``docs/robustness.md``:

* a transient backend failure is re-run at once, at most three tries in
  all, and absorbed — results under injected faults are *identical* to
  a fault-free run, with ``retries_total > 0`` proving retries did the
  absorbing, and nothing sleeps;
* a failure in one query never refuses another: there is no state
  carried from one backend call to the next;
* admission control sheds (never queues) work beyond ``max_inflight``
  and while draining, with ``Retry-After`` guidance in the error;
* drain waits for in-flight queries, then the service refuses new ones.
"""

import threading
import time

import pytest

from repro import (
    ServiceConfig,
    SetCollection,
    SetSimilaritySearcher,
    SimilarityService,
)
from repro.core.errors import (
    ConfigurationError,
    DeadlineExceeded,
    ServiceOverloadError,
)
from repro.faults import TransientIOError, use_fault_plan
from repro.obs import metrics as obs_metrics
from repro.service.resilience import (
    RETRY_ATTEMPTS,
    AdmissionController,
    call_with_retries,
)

TOKEN_SETS = [
    ["data", "cleaning", "matters"],
    ["data", "cleaning"],
    ["query", "processing"],
    ["set", "similarity", "query", "processing"],
    ["data", "quality", "matters"],
    ["similarity", "selection"],
    ["query", "planning", "matters"],
    ["set", "union", "intersection"],
]

QUERIES = [list(tokens) for tokens in TOKEN_SETS]


@pytest.fixture()
def searcher():
    return SetSimilaritySearcher(SetCollection.from_token_sets(TOKEN_SETS))


def answer_sets(results):
    return [
        {(r.set_id, round(r.score, 9)) for r in res.result.results}
        for res in results
    ]


class _Flaky:
    """Callable raising ``error`` (a TransientIOError by default) the
    first ``failures`` calls, then returning ``"done"``."""

    def __init__(self, failures, error=None):
        self.remaining = failures
        self.error = error or TransientIOError("test.site")
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return "done"


class TestRetryPolicy:
    def test_success_after_transient_failures(self):
        flaky = _Flaky(failures=RETRY_ATTEMPTS - 1)
        assert call_with_retries(flaky) == "done"
        assert flaky.calls == RETRY_ATTEMPTS

    def test_budget_exhaustion_reraises_last_error(self):
        flaky = _Flaky(failures=5)
        with pytest.raises(TransientIOError):
            call_with_retries(flaky)
        assert flaky.calls == RETRY_ATTEMPTS

    def test_non_retryable_propagates_immediately(self):
        for error in (ValueError("not transient"), DeadlineExceeded("late")):
            flaky = _Flaky(failures=1, error=error)
            with pytest.raises(type(error)):
                call_with_retries(flaky)
            assert flaky.calls == 1

    def test_retry_metrics(self):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            call_with_retries(_Flaky(failures=2))
            assert reg.total("retries_total") == 2


class TestAdmissionController:
    def test_sheds_beyond_max_inflight(self):
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            admission = AdmissionController(max_inflight=2)
            admission.acquire(2)
            with pytest.raises(ServiceOverloadError) as exc:
                admission.acquire(1)
            assert exc.value.retry_after == 1.0
            counter = reg.get("queries_shed_total")
            assert counter.labels(reason="overload").value == 1
            admission.release(2)
            admission.acquire(1)  # capacity is back

    def test_draining_sheds_everything(self):
        admission = AdmissionController()
        admission.begin_drain()
        with pytest.raises(ServiceOverloadError) as exc:
            admission.acquire(1)
        assert exc.value.retry_after == 5.0
        admission.resume()
        admission.acquire(1)

    def test_drain_waits_for_inflight(self):
        admission = AdmissionController()
        admission.acquire(1)
        released = threading.Event()

        def releaser():
            released.wait(5.0)
            admission.release(1)

        thread = threading.Thread(target=releaser)
        thread.start()
        released.set()
        assert admission.drain(timeout=5.0)
        thread.join()
        assert admission.inflight == 0 and admission.draining

    def test_drain_timeout_reports_false(self):
        admission = AdmissionController()
        admission.acquire(1)
        assert not admission.drain(timeout=0.01)
        admission.release(1)


class TestServiceResilience:
    """The service-level wiring: faults in, identical answers out."""

    @pytest.mark.parametrize(
        "site, options",
        [
            ("service.execute", {}),
            ("storage.read_page", {}),
            ("storage.hash_probe", {"algorithm": "ita"}),
            ("storage.read_page", {"strategy": "shared"}),
        ],
        ids=[
            "service.execute",
            "storage.read_page",
            "storage.hash_probe-ita",
            "storage.read_page-shared",
        ],
    )
    def test_batch_exact_under_transient_read_faults(
        self, searcher, site, options
    ):
        with SimilarityService(searcher) as plain:
            baseline = answer_sets(plain.search_batch(QUERIES, 0.4, **options))
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()) as reg:
            with SimilarityService(searcher) as service:
                # Two failures in a row: the third try must succeed.
                with use_fault_plan(
                    f"{site}:transient:count={RETRY_ATTEMPTS - 1}"
                ) as plan:
                    results = service.search_batch(QUERIES, 0.4, **options)
            assert answer_sets(results) == baseline
            assert plan.injected_total() == RETRY_ATTEMPTS - 1
            assert reg.total("retries_total") == RETRY_ATTEMPTS - 1

    def test_shared_scan_retries_are_bounded(self, searcher):
        with SimilarityService(searcher) as service:
            with use_fault_plan("storage.read_page:transient:p=1") as plan:
                with pytest.raises(TransientIOError):
                    service.search_batch(QUERIES, 0.4, strategy="shared")
        assert plan.injected_total() == RETRY_ATTEMPTS

    def test_deadline_fallback_absorbs_a_transient_fault(self, searcher):
        config = ServiceConfig(algorithm="nra")
        with SimilarityService(searcher, config=config) as service:
            # The primary's call passes, then the fallback's first two
            # tries fail: the third one answers.
            with use_fault_plan(
                "service.execute:transient:after=1:count=2"
            ) as plan:
                result = service.search(
                    ["data", "cleaning"], 0.4, deadline=1e-9
                )
        assert result.degraded and result.results
        assert plan.injected_total() == 2

    def test_failed_ita_queries_leave_sf_answering(self, searcher):
        query = ["query", "processing"]
        expected = searcher.search(query, 0.4, algorithm="sf").results
        with SimilarityService(searcher) as service:
            with use_fault_plan("storage.hash_probe:transient:p=1"):
                for _ in range(10):
                    with pytest.raises(TransientIOError):
                        service.search(query, 0.4, algorithm="ita")
                answer = service.search(query, 0.4, algorithm="sf")
        assert answer.results == expected

    def test_absorbed_fault_never_sleeps(self, searcher, monkeypatch):
        def no_sleep(_seconds):
            raise AssertionError("a retry slept")

        monkeypatch.setattr(time, "sleep", no_sleep)
        with SimilarityService(searcher) as service:
            with use_fault_plan("service.execute:transient:count=2"):
                assert service.search(["data", "cleaning"], 0.4).results

    def test_retry_budget_exhaustion_surfaces_the_error(self, searcher):
        with SimilarityService(searcher) as service:
            with use_fault_plan("service.execute:transient:p=1") as plan:
                with pytest.raises(TransientIOError):
                    service.search(["data", "cleaning"], 0.4)
            assert plan.injected_total() == RETRY_ATTEMPTS

    def test_max_inflight_sheds_concurrent_queries(self, searcher):
        config = ServiceConfig(max_inflight=1)
        with SimilarityService(searcher, config=config) as service:
            entered = threading.Event()
            unblock = threading.Event()
            original = service._execute

            def slow_execute(*args):
                entered.set()
                unblock.wait(5.0)
                return original(*args)

            service._execute = slow_execute
            worker = threading.Thread(
                target=lambda: service.search(["data", "cleaning"], 0.4)
            )
            worker.start()
            try:
                assert entered.wait(5.0)
                with pytest.raises(ServiceOverloadError):
                    service.search(["query", "processing"], 0.4)
            finally:
                unblock.set()
                worker.join()

    def test_drain_then_refuse(self, searcher):
        with SimilarityService(searcher) as service:
            service.search(["data", "cleaning"], 0.4)
            assert service.drain(timeout=5.0)
            assert service.stats()["draining"]
            with pytest.raises(ServiceOverloadError):
                service.search(["data", "cleaning"], 0.4)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_inflight=0)

    def test_stats_surface_resilience_state(self, searcher):
        with SimilarityService(searcher) as service:
            stats = service.stats()
            assert stats["inflight"] == 0
            assert stats["draining"] is False
