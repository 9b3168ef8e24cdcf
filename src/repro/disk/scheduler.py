"""Request-queue disciplines for the disk device.

Linux of the study's era sorted its per-device request queue in an elevator
order; :class:`CLookScheduler` models that.  FIFO and SSTF are provided for
ablation experiments (how much does queue ordering matter for the observed
latencies?).

Every discipline registers itself in :data:`SCHEDULERS`, so scenario
files and the replay/sweep machinery select disciplines by name
(``"clook"``, ``"fifo"``, ``"sstf"``, ``"scan"``); third-party
disciplines plug in via ``SCHEDULERS.register``.  A discipline is
anything with ``add(request)``, ``next(head_sector)`` (pop the next
request to service, or ``None``) and ``__len__``; the device asks for
one request each time the actuator frees up.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.disk.request import IORequest
from repro.registry import Registry

#: plugin registry of queue disciplines; factories take no arguments
SCHEDULERS = Registry("disk scheduler")


@SCHEDULERS.register("fifo")
class FIFOScheduler:
    """Serve requests strictly in arrival order."""

    def __init__(self):
        self._queue: Deque[IORequest] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        return self._queue.popleft() if self._queue else None

    def pending(self) -> List[IORequest]:
        return list(self._queue)


@SCHEDULERS.register("sstf")
class SSTFScheduler:
    """Shortest-seek-time-first: greedy nearest-sector selection.

    Classic starvation-prone discipline; included as a baseline for the
    scheduling ablation.
    """

    def __init__(self):
        self._queue: List[IORequest] = []

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        if not self._queue:
            return None
        best = min(range(len(self._queue)),
                   key=lambda i: abs(self._queue[i].sector - head_sector))
        return self._queue.pop(best)

    def pending(self) -> List[IORequest]:
        return list(self._queue)


@SCHEDULERS.register("scan")
class ScanScheduler:
    """Bidirectional LOOK (the textbook "elevator"): sweep up, then down.

    Kept distinct from C-LOOK for scheduling ablations; SCAN trades
    C-LOOK's fairness for slightly shorter travel on some workloads.
    """

    def __init__(self):
        self._queue: List[IORequest] = []
        self._direction_up = True

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        if not self._queue:
            return None
        for _ in range(2):
            if self._direction_up:
                ahead = [i for i, r in enumerate(self._queue)
                         if r.sector >= head_sector]
                if ahead:
                    best = min(ahead, key=lambda i: self._queue[i].sector)
                    return self._queue.pop(best)
            else:
                behind = [i for i, r in enumerate(self._queue)
                          if r.sector <= head_sector]
                if behind:
                    best = max(behind, key=lambda i: self._queue[i].sector)
                    return self._queue.pop(best)
            self._direction_up = not self._direction_up
        return self._queue.pop(0)  # pragma: no cover - unreachable

    def pending(self) -> List[IORequest]:
        return list(self._queue)


@SCHEDULERS.register("clook")
class CLookScheduler:
    """Circular LOOK elevator: sweep upward, then jump to the lowest waiter.

    This is the behaviour of the Linux 1.x single-direction elevator and
    gives each request bounded waiting (no SSTF starvation).
    """

    def __init__(self):
        self._queue: List[IORequest] = []

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        if len(self._queue) <= 1:
            # depth 0 or 1 — the common case under a quiescent load: the
            # sole request is the elevator's pick wherever the head is
            return self._queue.pop() if self._queue else None
        ahead = [i for i, r in enumerate(self._queue)
                 if r.sector >= head_sector]
        if ahead:
            best = min(ahead, key=lambda i: self._queue[i].sector)
        else:
            # Wrap: start a new sweep from the lowest pending sector.
            best = min(range(len(self._queue)),
                       key=lambda i: self._queue[i].sector)
        return self._queue.pop(best)

    def pending(self) -> List[IORequest]:
        return list(self._queue)
