"""The instrumented IDE block driver.

Wraps a :class:`~repro.disk.Disk` — or a
:class:`~repro.disk.volume.LogicalVolume` multiplexing several disks —
with read/write handlers that emit one trace record per *physical*
request — *(timestamp, sector, rw flag, pending count)* plus size and
node id — and exposes ``ioctl`` control of the instrumentation level so
tracing can be toggled without "rebooting" the simulated node, exactly
as in the paper.

When the device is a volume, a logical request that maps to several
members produces one trace record per member sub-request (addressed in
that member's local sector space, with that member's own pending
count), so striped and mirrored traffic keeps per-physical-disk trace
identity.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Optional

from repro.disk import Disk, IORequest, SECTOR_BYTES
from repro.driver.procfs import ProcTraceTransport
from repro.driver.trace import TraceRecord
from repro.sim import Event, Simulator


class TraceLevel(IntEnum):
    """Instrumentation levels selectable via ioctl."""

    OFF = 0
    #: one record per request at submission (the paper's level)
    BASIC = 1
    #: submission + completion records (completion has pending *after* it)
    VERBOSE = 2


#: ioctl command numbers (shaped like HDIO_* constants for flavour)
HDIO_SET_TRACE = 0x32A
HDIO_GET_TRACE = 0x32B


class InstrumentedIDEDriver:
    """Block driver front-end with request-level instrumentation."""

    def __init__(self, sim: Simulator, disk: Disk, node_id: int = 0,
                 transport: Optional[ProcTraceTransport] = None,
                 level: TraceLevel = TraceLevel.BASIC,
                 max_retries: int = 4):
        self.sim = sim
        self.disk = disk
        self.node_id = node_id
        # volume-vs-bare-disk dispatch resolved once: the per-request
        # path then skips a getattr per submit (the device behind a
        # driver never changes after construction)
        self._map_extents = getattr(disk, "map_extents", None)
        self.transport = transport or ProcTraceTransport(sim)
        self.level = TraceLevel(level)
        #: experiment-start offset subtracted from record timestamps
        self.time_origin = 0.0
        #: soft media errors are retried this many times before the
        #: request is failed up to the caller (classic IDE driver policy)
        self.max_retries = max_retries
        self.requests_issued = 0
        self.retries = 0
        self.hard_failures = 0

    @property
    def level(self) -> TraceLevel:
        """Instrumentation level; setting it refreshes the cached flags."""
        return self._level

    @level.setter
    def level(self, value) -> None:
        self._level = TraceLevel(value)
        # plain-bool level tests: IntEnum comparisons cost a dunder
        # dispatch each, and the submit path asks twice per request
        self._basic = self._level >= TraceLevel.BASIC
        self._verbose = self._level >= TraceLevel.VERBOSE

    # -- ioctl ---------------------------------------------------------------
    def ioctl(self, cmd: int, arg: Any = None) -> Any:
        """Driver control: set/get the instrumentation level."""
        if cmd == HDIO_SET_TRACE:
            self.level = TraceLevel(arg)
            return 0
        if cmd == HDIO_GET_TRACE:
            return int(self.level)
        raise ValueError(f"unknown ioctl command {cmd:#x}")

    def reset_clock(self) -> None:
        """Make subsequent records' timestamps relative to *now*."""
        self.time_origin = self.sim.now

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {"level": int(self._level),
                "time_origin": self.time_origin,
                "requests_issued": self.requests_issued,
                "retries": self.retries,
                "hard_failures": self.hard_failures}

    def restore_state(self, state: dict) -> None:
        self.level = TraceLevel(int(state["level"]))
        self.time_origin = float(state["time_origin"])
        self.requests_issued = int(state["requests_issued"])
        self.retries = int(state["retries"])
        self.hard_failures = int(state["hard_failures"])

    # -- request handlers ------------------------------------------------
    def read_sectors(self, sector: int, nsectors: int,
                     origin: Any = None) -> Event:
        """The driver's read handler: trace then submit."""
        return self._handle(sector, nsectors, is_write=False, origin=origin)

    def write_sectors(self, sector: int, nsectors: int,
                      origin: Any = None) -> Event:
        """The driver's write handler: trace then submit."""
        return self._handle(sector, nsectors, is_write=True, origin=origin)

    def read_bytes(self, offset: int, nbytes: int, origin: Any = None) -> Event:
        """Byte-addressed convenience wrapper (sector-aligned rounding)."""
        sector, nsectors = self._byte_span(offset, nbytes)
        return self.read_sectors(sector, nsectors, origin=origin)

    def write_bytes(self, offset: int, nbytes: int, origin: Any = None) -> Event:
        sector, nsectors = self._byte_span(offset, nbytes)
        return self.write_sectors(sector, nsectors, origin=origin)

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _byte_span(offset: int, nbytes: int) -> tuple[int, int]:
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        first = offset // SECTOR_BYTES
        last = (offset + nbytes - 1) // SECTOR_BYTES
        return first, last - first + 1

    def _handle(self, sector: int, nsectors: int, is_write: bool,
                origin: Any) -> Event:
        if self.disk.media_error_rate > 0.0:
            # retry path: each (re)submission is its own traced request
            outcome = self.sim.event()
            self.sim.process(
                self._submit_with_retries(sector, nsectors, is_write,
                                          origin, outcome),
                name="ide-retry")
            return outcome
        return self._submit_once(sector, nsectors, is_write, origin)

    def _targets(self, sector: int, nsectors: int,
                 is_write: bool) -> tuple:
        """The physical ``(disk, sector, nsectors)`` parts of one span.

        A bare :class:`Disk` is its own single target; a logical volume
        resolves the span through its policy's address math.
        """
        mapper = self._map_extents
        if mapper is None:
            return ((self.disk, sector, nsectors),)
        disks = self.disk.disks
        return tuple((disks[i], s, n)
                     for i, s, n in mapper(sector, nsectors, is_write))

    def _submit_part(self, disk, sector: int, nsectors: int,
                     is_write: bool, origin: Any):
        """Trace and submit one physical request; returns (request, event)."""
        # IORequest construction, fused: same field defaults and the same
        # validation as the dataclass __init__/__post_init__, minus their
        # call frames (one request object per trace record makes this the
        # driver's hottest allocation)
        if sector < 0:
            raise ValueError(f"negative sector {sector}")
        if nsectors < 1:
            raise ValueError(
                f"request must cover >= 1 sector, got {nsectors}")
        request = IORequest.__new__(IORequest)
        request.sector = sector
        request.nsectors = nsectors
        request.is_write = is_write
        request.submit_time = 0.0
        request.complete_time = None
        request.origin = origin
        request.done = None
        request.failed = False
        self.requests_issued += 1
        if self._basic:
            # Pending count *includes* this request, i.e. "remaining I/O
            # requests to be processed" as logged by the paper's driver.
            # Pushed as a raw schema row (TraceRecord.as_tuple layout):
            # the ring only ever feeds the structured-array drain, and a
            # frozen-dataclass construction per request is the single
            # most expensive step of the trace fast path.
            self.transport.push((
                self.sim.now - self.time_origin,
                sector,
                int(is_write),
                disk.queue_depth + 1,
                nsectors * SECTOR_BYTES / 1024.0,
                self.node_id,
            ))
        done = disk.submit(request)
        if self._verbose:
            done.callbacks.append(lambda ev: self.transport.push(TraceRecord(
                time=self.sim.now - self.time_origin,
                sector=sector,
                write=is_write,
                pending=disk.queue_depth,
                size_kb=nsectors * SECTOR_BYTES / 1024.0,
                node=self.node_id,
            )))
        return request, done

    def _submit_once(self, sector: int, nsectors: int, is_write: bool,
                     origin: Any) -> Event:
        parts = self._targets(sector, nsectors, is_write)
        if len(parts) == 1:
            disk, psector, pnsectors = parts[0]
            _, done = self._submit_part(disk, psector, pnsectors,
                                        is_write, origin)
            return done
        # A striped/mirrored span: one logical completion event that
        # fires when every member's sub-request has completed.
        logical = IORequest(sector=sector, nsectors=nsectors,
                            is_write=is_write, origin=origin)
        logical.submit_time = self.sim.now
        done = self.sim.event()
        logical.done = done
        state = {"remaining": len(parts), "failed": False}

        def finish(sub: IORequest) -> None:
            state["remaining"] -= 1
            if sub.failed:
                state["failed"] = True
            if state["remaining"] == 0:
                logical.complete_time = self.sim.now
                logical.failed = state["failed"]
                done.succeed(logical)

        for disk, psector, pnsectors in parts:
            sub, ev = self._submit_part(disk, psector, pnsectors,
                                        is_write, origin)
            ev.callbacks.append(lambda _ev, sub=sub: finish(sub))
        return done

    def _submit_with_retries(self, sector: int, nsectors: int,
                             is_write: bool, origin: Any, outcome: Event):
        for attempt in range(1 + self.max_retries):
            if attempt:
                self.retries += 1
            request = yield self._submit_once(sector, nsectors, is_write,
                                              origin)
            if not request.failed:
                outcome.succeed(request)
                return
        self.hard_failures += 1
        outcome.fail(IOError(
            f"{self.disk.name}: unrecoverable media error at sector "
            f"{sector} after {self.max_retries} retries"))
