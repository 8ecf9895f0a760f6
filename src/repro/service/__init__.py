"""Concurrent query serving over the selection algorithms.

The ``service`` layer sits above ``algorithms`` in the package DAG and
turns the one-query-at-a-time library into a throughput-oriented
server: generation-checked LRU caches for prepared queries and results,
batch execution (distinct queries in turn, or one shared scan) with
request coalescing, per-query deadlines enforced inside the algorithm
with an explicitly flagged SF fallback, and a stdlib JSON-over-HTTP
front end (``repro serve``).  Every query runs in its caller's thread.

See ``docs/service.md`` for the architecture and guarantees.
"""

from .cache import (
    GenerationLRUCache,
    prepared_cache_key,
    result_cache_key,
)
from .httpd import ServiceHTTPServer
from .resilience import AdmissionController, call_with_retries
from .service import (
    BATCH_STRATEGIES,
    DEGRADED_ALGORITHM,
    SHARED_SCAN_OVERLAP,
    ServiceConfig,
    ServiceResult,
    SimilarityService,
)

__all__ = [
    "BATCH_STRATEGIES",
    "DEGRADED_ALGORITHM",
    "SHARED_SCAN_OVERLAP",
    "AdmissionController",
    "GenerationLRUCache",
    "ServiceConfig",
    "ServiceHTTPServer",
    "ServiceResult",
    "SimilarityService",
    "call_with_retries",
    "prepared_cache_key",
    "result_cache_key",
]
