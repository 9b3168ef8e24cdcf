"""Pin the disk server's observable output for every scheduler.

The device completes each request by running its ``done`` callbacks
straight from the server process, at the point where a queued
completion event would have fired.  That is only safe while nothing
else is scheduled at the completion instant, which holds because
service times are continuous random draws.  The golden configs only
exercise C-LOOK, so this pin covers all four registered disciplines,
with and without media errors, against digests recorded from the
one-request-per-event reference server that direct completion replaced.
Instrumented runs take the server's observing branch and a separate run
loop, so they are pinned to the same digests.

The fixed request stream mixes same-instant bursts (deep queues, so the
disciplines really re-order), arrivals that land while a request is in
service, and gaps long enough for the device to go idle.
"""

import hashlib

import numpy as np
import pytest

from repro.disk import Disk
from repro.disk.request import IORequest
from repro.disk.scheduler import SCHEDULERS
from repro.disk.service import DiskServiceModel
from repro.obs import MetricsRegistry
from repro.sim import Simulator

MODEL = DiskServiceModel()


def _stream(n=160, seed=2024):
    """``(delay, sector, nsectors, is_write)`` tuples, deterministic."""
    rng = np.random.default_rng(seed)
    total = MODEL.geometry.total_sectors
    stream = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            delay = 0.0                                   # same instant
        elif kind == 3 and rng.random() < 0.3:
            delay = float(rng.uniform(0.2, 0.5))          # device idles
        else:
            delay = float(rng.uniform(1e-4, 0.02))        # mid-service
        stream.append((delay, int(rng.integers(0, total - 64)),
                       int(rng.integers(1, 65)), bool(rng.random() < 0.4)))
    return stream


STREAM = _stream()

#: sha256 of the completion sequence, recorded from the reference server
#: that fired every completion through a queued event
DIGESTS = {
    ("clook", 0.0):
        "bfc404a3081ebade2c9b679608ef5703009456ab1c2a5cd5c347f427ae30b321",
    ("clook", 0.2):
        "d6b8dc78f1d8ce6e1d3411f01f9cf551b3b81c954b1b8b200e54729e88a81d69",
    ("fifo", 0.0):
        "92ee3fca56875f1a9d2b1b24773d8064937f3c7460616f260c4b1f8977dbdca8",
    ("fifo", 0.2):
        "7139889fe9e3a32784852afc1be3b162f9425bfaa42a8660e56af00dee236b7c",
    ("scan", 0.0):
        "2948c7dd219a05b38b7bbcf6ae833fe82abf38738d4ab4547c4a1ddb86a3a161",
    ("scan", 0.2):
        "b04356d02aee4dea993f31a947d98a5bd9d38753a6b286ea0b050600cbad38b9",
    ("sstf", 0.0):
        "fb601836a1057b689083dc772c3023bd23b1d84582a734cfd81c9cc3fb7a5ebc",
    ("sstf", 0.2):
        "ab1779917e650df123e8bd70ffc4383b8fa2221f76ecb3c5a7de9963f0f7f1e7",
}


def completion_digest(scheduler_name, media_error_rate, obs=None):
    """Drive one disk with :data:`STREAM`; hash ``(sector, complete_time,
    failed)`` in completion order.  ``obs`` instruments both the
    simulator and the disk."""
    sim = Simulator(obs=obs)
    disk = Disk(sim, service=MODEL,
                scheduler=SCHEDULERS.create(scheduler_name),
                rng=np.random.default_rng(7),
                media_error_rate=media_error_rate, obs=obs)
    lines = []

    def submitter():
        for delay, sector, nsectors, is_write in STREAM:
            if delay:
                yield sim.timeout(delay)
            request = IORequest(sector=sector, nsectors=nsectors,
                                is_write=is_write)
            disk.submit(request).callbacks.append(
                lambda _ev, r=request: lines.append(
                    f"{r.sector} {r.complete_time.hex()} {int(r.failed)}"))

    sim.process(submitter(), name="submitter")
    sim.run()
    assert len(lines) == len(STREAM)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pin_covers_every_registered_scheduler():
    assert {name for name, _ in DIGESTS} == set(SCHEDULERS.names())


@pytest.mark.parametrize("scheduler_name,media_error_rate", sorted(DIGESTS))
def test_completion_sequence_matches_reference(scheduler_name,
                                               media_error_rate):
    assert (completion_digest(scheduler_name, media_error_rate)
            == DIGESTS[scheduler_name, media_error_rate])


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS.names()))
def test_instrumented_completion_sequence_matches_reference(scheduler_name):
    registry = MetricsRegistry()
    assert (completion_digest(scheduler_name, 0.0, obs=registry)
            == DIGESTS[scheduler_name, 0.0])
    # the instruments really were on: the disk counted every request
    discipline = type(SCHEDULERS.create(scheduler_name)).__name__
    served = registry.counter("disk.scheduled_requests").child(discipline)
    assert served.value == len(STREAM)
