"""LRU buffer pool simulation — re-charging repeat page reads as hits.

Section VIII-A: "we leave caching up to the operating system and the disk
drive, disabling all other software buffers.  More aggressive buffering will
certainly favor TA and iTA."  The base :class:`~repro.storage.pages.IOStats`
ledger models that cold setting: every page touch is billed.  This module
provides the aggressive-buffering counterpart so the remark can be measured
(``benchmarks/bench_ablation_buffering.py``):

:class:`BufferedIOStats` is a drop-in ``IOStats`` holding an LRU pool of
page identities.  Each page charge carries a ``key`` (``(structure identity,
page identity)``, threaded through by every storage component); a key found
in the pool is a *hit* — counted, but not billed as I/O.  Keyless charges
(e.g. synthetic charges in tests) always miss.

TA-style algorithms re-probe the same extendible-hash buckets constantly,
so even a small pool absorbs most of their random I/O — exactly the paper's
prediction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..core.errors import ConfigurationError
from ..faults import runtime as faults_runtime
from .pages import IOStats

__all__ = ["LRUBufferPool", "BufferedIOStats"]


class LRUBufferPool:
    """Fixed-capacity LRU set of page identities."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("buffer pool capacity must be >= 1")
        self.capacity = capacity
        self._pages: OrderedDict = OrderedDict()

    def access(self, key) -> bool:
        """Touch a page; returns True on a hit, False on a miss (the page
        is then admitted, evicting the least recently used if full)."""
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        self._pages[key] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, key) -> bool:
        return key in self._pages

    def clear(self) -> None:
        self._pages.clear()

    def __repr__(self) -> str:
        return f"LRUBufferPool(used={len(self)}/{self.capacity})"


class BufferedIOStats(IOStats):
    """An I/O ledger with an LRU buffer pool in front of the page charges.

    ``buffer_hits`` counts absorbed page reads.  Element, probe, skip-jump
    and candidate-scan charges are unaffected (they model CPU work, not
    I/O).  Only the miss path checks the ledger's ``deadline``.
    """

    __slots__ = ("pool", "buffer_hits")

    COUNTER_FIELDS = IOStats.COUNTER_FIELDS + ("buffer_hits",)

    def __init__(self, capacity: int, deadline: Optional[float] = None) -> None:
        super().__init__(deadline)
        self.pool = LRUBufferPool(capacity)
        self.buffer_hits = 0

    def reset(self) -> None:
        super().reset()
        # During __init__ the pool does not exist yet.
        if hasattr(self, "pool"):
            self.pool.clear()
            self.buffer_hits = 0
        else:
            self.buffer_hits = 0

    def charge_sequential_page(self, pages: int = 1, key=None) -> None:
        if key is not None and self.pool.access(key):
            self.buffer_hits += pages
            return
        # Pool hits never touch disk; only the miss path can fault.
        faults_runtime.maybe_fire("storage.buffer_miss")
        super().charge_sequential_page(pages)

    def charge_random_page(self, pages: int = 1, key=None) -> None:
        if key is not None and self.pool.access(key):
            self.buffer_hits += pages
            return
        faults_runtime.maybe_fire("storage.buffer_miss")
        super().charge_random_page(pages)

    def __repr__(self) -> str:
        return (
            f"BufferedIOStats(seq={self.sequential_pages}, "
            f"rand={self.random_pages}, hits={self.buffer_hits}, "
            f"pool={len(self.pool)}/{self.pool.capacity})"
        )
