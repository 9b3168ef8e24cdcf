"""Per-layer host self time from a stdlib SIGPROF sampler.

Call spans cannot separate the simulator's layers: a disk, a kernel
daemon and an application interleave inside generator resumes driven by
one event loop.  A statistical profiler can.  Every ``INTERVAL`` seconds
of process CPU time the kernel raises SIGPROF; the handler finds the
innermost frame whose module is ``repro.<pkg>`` and charges it the CPU
time spent since the previous sample.  Work done inside stdlib or numpy
calls is thereby charged to the ``repro`` layer that made the call.

Charging elapsed CPU time (not a fixed interval) keeps the sum exact
even when a long native call coalesces several timer expiries into one
signal, so the per-layer self times add up to the sampled total.
"""

from __future__ import annotations

import signal
import time

#: the ``repro`` packages reported as layers; every other frame
#: (``repro.obs``, ``repro.config``, the harness, the interpreter) is
#: charged to ``other``
LAYERS = ("sim", "apps", "kernel", "driver", "disk", "cluster", "core",
          "store", "analysis", "checkpoint")
OTHER = "other"
#: seconds of process CPU time between samples
INTERVAL = 0.005


def layer_of(frame) -> str:
    """The layer of the innermost ``repro.<pkg>`` frame on the stack."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            pkg = module.split(".", 2)[1]
            return pkg if pkg in LAYERS else OTHER
        frame = frame.f_back
    return OTHER


class LayerSampler:
    """Samples the main thread's stack on SIGPROF; use as a context."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        self.samples = 0
        self._last = 0.0
        self._previous = None

    @property
    def sampled_s(self) -> float:
        """CPU seconds charged to some layer (``other`` included)."""
        return sum(self.self_s.values())

    def _on_sample(self, signum, frame) -> None:
        now = time.process_time()
        self.self_s[layer_of(frame)] += now - self._last
        self._last = now
        self.samples += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
