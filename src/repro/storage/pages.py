"""Simulated page-based storage with sequential/random I/O accounting.

The paper's indexes are disk resident and its algorithms are distinguished by
*how* they touch disk: NRA-style methods perform sequential list accesses,
TA-style methods add one random probe per element per list, and skip lists
replace long sequential prefixes with a handful of jumps.  Pure-Python
wall-clock alone would hide those differences (list merging in CPython is
dominated by interpreter overhead), so every storage component in this
package charges its accesses to an :class:`IOStats` ledger, and the benchmark
harness reports those counters alongside wall-clock time.

A :class:`PagedFile` stores fixed-size records in fixed-capacity pages.  A
sequential cursor charges one *sequential page read* each time it crosses a
page boundary; :meth:`PagedFile.fetch` charges one *random page read* per
call (modelling a seek).  Sizes in bytes are tracked so Figure 5 (index
sizes) can be regenerated from the structures themselves.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, List, Optional, Sequence

from ..core.errors import DeadlineExceeded, StorageError
from ..faults import runtime as faults_runtime

DEFAULT_PAGE_CAPACITY = 128
"""Records per page. With 16-byte postings this models ~2 KB pages."""


class IOStats:
    """Mutable ledger of simulated I/O and element-access counts.

    ``elements_read`` counts inverted-list entries consumed by an algorithm
    (the paper's unit for pruning power); the page counters model disk
    behaviour; ``hash_probes`` and ``skip_jumps`` expose the auxiliary-index
    traffic that separates TA-style from NRA-style methods.

    ``deadline`` is an optional ``time.perf_counter()`` instant; the first
    page charge after it raises :class:`~repro.core.errors.DeadlineExceeded`.
    """

    #: The counters that :meth:`snapshot`/:meth:`add` cover.  Subclasses
    #: that add counters must extend this tuple — iterating
    #: ``self.__slots__`` would see only the subclass's own slots and
    #: silently drop (or double) the base counters.
    COUNTER_FIELDS = (
        "sequential_pages",
        "random_pages",
        "elements_read",
        "hash_probes",
        "skip_jumps",
        "candidate_scans",
    )

    __slots__ = COUNTER_FIELDS + ("deadline",)

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.deadline = deadline
        self.reset()

    def reset(self) -> None:
        self.sequential_pages = 0
        self.random_pages = 0
        self.elements_read = 0
        self.hash_probes = 0
        self.skip_jumps = 0
        self.candidate_scans = 0

    # ------------------------------------------------------------------
    def charge_sequential_page(self, pages: int = 1, key=None) -> None:
        """Charge sequential page reads.  ``key`` identifies the physical
        page (``(file identity, page number)``); the base ledger ignores it,
        buffer-pool-aware subclasses use it to turn repeat reads into hits."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded("query deadline passed")
        self.sequential_pages += pages

    def charge_random_page(self, pages: int = 1, key=None) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded("query deadline passed")
        self.random_pages += pages

    def charge_element(self, elements: int = 1) -> None:
        self.elements_read += elements

    def charge_hash_probe(self, probes: int = 1) -> None:
        self.hash_probes += probes

    def charge_skip_jump(self, jumps: int = 1) -> None:
        self.skip_jumps += jumps

    def charge_candidate_scan(self, scanned: int = 1) -> None:
        self.candidate_scans += scanned

    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        return self.sequential_pages + self.random_pages

    def cost(
        self, sequential_weight: float = 1.0, random_weight: float = 10.0
    ) -> float:
        """Weighted I/O cost; random pages default to 10x a sequential page,
        a conventional disk model."""
        return (
            sequential_weight * self.sequential_pages
            + random_weight * self.random_pages
        )

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    def add(self, other: "IOStats") -> None:
        """Accumulate another ledger into this one (for workload totals).

        Counters the other ledger lacks (e.g. ``buffer_hits`` when merging
        a plain ledger into a buffered one) contribute zero.
        """
        for name in self.COUNTER_FIELDS:
            setattr(
                self, name, getattr(self, name) + getattr(other, name, 0)
            )

    def __repr__(self) -> str:
        return (
            f"IOStats(seq={self.sequential_pages}, rand={self.random_pages}, "
            f"elems={self.elements_read}, probes={self.hash_probes}, "
            f"skips={self.skip_jumps})"
        )


class PagedFile:
    """An append-only file of fixed-size records grouped into pages.

    Records are arbitrary Python objects; ``record_bytes`` is the modelled
    on-disk size of one record, used for size accounting only.
    """

    def __init__(
        self,
        record_bytes: int,
        page_capacity: int = DEFAULT_PAGE_CAPACITY,
    ) -> None:
        if record_bytes <= 0:
            raise StorageError("record_bytes must be positive")
        if page_capacity <= 0:
            raise StorageError("page_capacity must be positive")
        self.record_bytes = record_bytes
        self.page_capacity = page_capacity
        self._records: List[Any] = []

    # ------------------------------------------------------------------
    def append(self, record: Any) -> int:
        """Append a record; returns its record number."""
        self._records.append(record)
        return len(self._records) - 1

    def extend(self, records: Sequence[Any]) -> None:
        self._records.extend(records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def num_pages(self) -> int:
        n = len(self._records)
        return (n + self.page_capacity - 1) // self.page_capacity

    def size_bytes(self) -> int:
        """Modelled on-disk size of the stored records.

        Byte-accurate (records x record size): many token lists are tiny,
        and charging each a whole page would overstate index sizes by an
        order of magnitude.  Page granularity matters for I/O counting, not
        for the Figure 5 size comparison; :meth:`allocated_bytes` gives the
        page-rounded figure when slack matters.
        """
        return len(self._records) * self.record_bytes

    def allocated_bytes(self) -> int:
        """Page-rounded on-disk allocation (includes page slack)."""
        return self.num_pages * self.page_capacity * self.record_bytes

    def page_of(self, position: int) -> int:
        return position // self.page_capacity

    # ------------------------------------------------------------------
    def fetch(self, position: int, stats: Optional[IOStats] = None) -> Any:
        """Random access to one record: charges one random page read."""
        if not (0 <= position < len(self._records)):
            raise StorageError(
                f"record {position} out of range [0, {len(self._records)})"
            )
        faults_runtime.maybe_fire("storage.read_page")
        if stats is not None:
            stats.charge_random_page(key=(id(self), self.page_of(position)))
        return self._records[position]

    def cursor(
        self, stats: Optional[IOStats] = None, start: int = 0
    ) -> "SequentialCursor":
        return SequentialCursor(self, stats, start)

    def records(self) -> Iterator[Any]:
        """Raw iteration without any I/O charging (for rebuilds/tests)."""
        return iter(self._records)


class SequentialCursor:
    """Forward-only cursor over a :class:`PagedFile` with page accounting.

    The first read charges a sequential page; subsequent reads charge one
    more page each time the cursor crosses a page boundary.  ``jump(pos)``
    repositions the cursor, charging one *random* page read (the seek that a
    skip-list jump or an index-guided skip would cost on disk) unless the
    target lies in the page already buffered.
    """

    __slots__ = ("_file", "_stats", "_pos", "_buffered_page")

    def __init__(
        self, file: PagedFile, stats: Optional[IOStats], start: int = 0
    ) -> None:
        if start < 0:
            raise StorageError("cursor start must be non-negative")
        self._file = file
        self._stats = stats
        self._pos = start
        self._buffered_page: Optional[int] = None

    @property
    def position(self) -> int:
        return self._pos

    def exhausted(self) -> bool:
        return self._pos >= len(self._file)

    def _charge_for(self, page: int, random: bool) -> None:
        if page == self._buffered_page:
            return
        # Fault point sits past the buffered-page early-out, so it fires
        # once per physical page read — where a real disk would fail.
        faults_runtime.maybe_fire("storage.read_page")
        if self._stats is not None:
            key = (id(self._file), page)
            if random:
                self._stats.charge_random_page(key=key)
            else:
                self._stats.charge_sequential_page(key=key)
        self._buffered_page = page

    def peek(self) -> Any:
        """Read the record under the cursor without advancing."""
        if self.exhausted():
            raise StorageError("cursor exhausted")
        self._charge_for(self._file.page_of(self._pos), random=False)
        return self._file._records[self._pos]

    def next(self) -> Any:
        """Read the record under the cursor and advance past it."""
        record = self.peek()
        if self._stats is not None:
            self._stats.charge_element()
        self._pos += 1
        return record

    def skip(self, count: int = 1) -> None:
        """Advance without reading (no element charge; pages skipped are not
        fetched — this models an index-guided skip, see ``jump``)."""
        self._pos += count

    def jump(self, position: int) -> None:
        """Reposition the cursor (random page read unless already buffered)."""
        if position < self._pos:
            raise StorageError("cursor cannot move backwards")
        self._pos = position
        if position < len(self._file):
            self._charge_for(self._file.page_of(position), random=True)


def bytes_human(n: float) -> str:
    """Format a byte count for benchmark tables (KB/MB/GB)."""
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")
