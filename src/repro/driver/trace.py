"""Trace record schema and an append-optimised buffer.

One record per physical disk request, matching the paper's driver
instrumentation: timestamp, sector number, read/write flag, and the count of
pending requests.  We additionally carry the request size (the paper's
figures plot request sizes, derived from the sector count) and the node id
(the paper aggregates per-node traces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: numpy schema shared by the driver, trace files, and the analysis layer.
TRACE_DTYPE = np.dtype([
    ("time", "f8"),      # seconds since experiment start
    ("sector", "u8"),    # first sector of the request
    ("write", "u1"),     # 1 = write, 0 = read
    ("pending", "u2"),   # requests still queued at the device
    ("size_kb", "f4"),   # request size in KB
    ("node", "u2"),      # cluster node the disk belongs to
])


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One instrumentation entry, in object form (handy for tests/streams).

    Slotted: every traced request allocates one of these on the submit
    path, so construction cost is part of the request hot path.
    """

    time: float
    sector: int
    write: bool
    pending: int
    size_kb: float
    node: int = 0

    def as_tuple(self) -> tuple:
        return (self.time, self.sector, int(self.write), self.pending,
                self.size_kb, self.node)


class TraceBuffer:
    """Growable, numpy-backed store of trace records.

    Appends are O(1) amortised (doubling array); :meth:`to_array` yields a
    structured array view of exactly the written records for vectorised
    analysis.
    """

    def __init__(self, initial_capacity: int = 1024):
        if initial_capacity < 1:
            raise ValueError("initial capacity must be >= 1")
        self._initial_capacity = initial_capacity
        self._data = np.zeros(initial_capacity, dtype=TRACE_DTYPE)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        """Records the current storage holds before it must grow."""
        return len(self._data)

    def append(self, record: TraceRecord) -> None:
        if self._len == len(self._data):
            grown = np.zeros(len(self._data) * 2, dtype=TRACE_DTYPE)
            grown[:self._len] = self._data
            self._data = grown
        self._data[self._len] = record.as_tuple()
        self._len += 1

    def append_array(self, records: np.ndarray) -> None:
        """Bulk append a structured array in one vectorised copy."""
        records = np.asarray(records)
        if records.dtype != TRACE_DTYPE:
            raise TypeError(f"expected trace dtype, got {records.dtype}")
        n = len(records)
        if n == 0:
            return
        needed = self._len + n
        if needed > len(self._data):
            capacity = len(self._data)
            while capacity < needed:
                capacity *= 2
            grown = np.zeros(capacity, dtype=TRACE_DTYPE)
            grown[:self._len] = self._data[:self._len]
            self._data = grown
        self._data[self._len:needed] = records
        self._len = needed

    def extend(self, records) -> None:
        """Append many records at once (vectorised via a staging array)."""
        if isinstance(records, np.ndarray):
            self.append_array(records)
            return
        rows = [r.as_tuple() if isinstance(r, TraceRecord) else tuple(r)
                for r in records]
        if rows:
            self.append_array(np.array(rows, dtype=TRACE_DTYPE))

    def to_array(self) -> np.ndarray:
        """Structured array of the records written so far (a copy)."""
        return self._data[:self._len].copy()

    def __iter__(self) -> Iterator[TraceRecord]:
        for row in self._data[:self._len]:
            yield TraceRecord(float(row["time"]), int(row["sector"]),
                              bool(row["write"]), int(row["pending"]),
                              float(row["size_kb"]), int(row["node"]))

    def clear(self) -> None:
        """Drop the records and shrink the storage back to its initial
        capacity."""
        self._data = np.zeros(self._initial_capacity, dtype=TRACE_DTYPE)
        self._len = 0
