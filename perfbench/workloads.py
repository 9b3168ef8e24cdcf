"""The benchmark's workloads: the paper's experiments at paper scale.

Each workload drives the public API the way a user reproducing the
paper does: ``ExperimentRunner`` runs an experiment, the trace is
characterised (in memory, or from a ``RunCatalog`` through
``AnalysisEngine``), and a checkpointed run is resumed.  Every workload
runs in this one process: no process pool (``AnalysisEngine`` gets
``workers=1``) and no threads.

Why these three:

* ``combined16`` -- the paper's production mix at its 16 nodes, the
  deepest disk queues, read-ahead and paging contention: apps, kernel
  VM, driver and disk do most of their work here.
* ``baseline64`` -- only the quiescent kernel (timers, klog, bdflush,
  update) on 64 nodes: a large pending-event population makes the
  event loop and kernel housekeeping dominate while apps, paging,
  store, analysis and checkpointing stay idle, so an optimisation of
  those should leave this row flat.
* ``wavelet16-stored`` -- the read-heavy application, streamed into a
  fresh catalog with a checkpoint every 60 simulated seconds, analysed
  cold from the store by all five pipelines, then resumed from its
  final checkpoint: the store and checkpoint paths in both directions.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import repro.analysis.engine as engine_module
import repro.core.experiments as experiments_module
from repro.analysis import PIPELINES, AnalysisEngine
from repro.config import Scenario
from repro.core import ExperimentRunner
from repro.core.claims import evaluate_claims
from repro.core.locality import spatial_locality, temporal_locality
from repro.core.metrics import compute_metrics
from repro.core.patterns import arrival_structure
from repro.core.sizes import size_histogram
from repro.obs import MetricsRegistry
from repro.store import RunCatalog

#: committed simulated statistics, for the seed named in the file
EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text())

#: float tolerance where a streamed fold may sum in another order
REL_TOL = 1e-9
#: an in-memory analysis takes a fraction of a second, so untraced
#: passes repeat it for at least this long (and at least 3 times)
MEMORY_ANALYSIS_SECONDS = 3.0
#: simulated seconds between checkpoints of a stored workload's run
CHECKPOINT_EVERY = 60.0


@dataclass(frozen=True)
class Workload:
    """One named experiment set-up and what the benchmark does with it."""

    name: str
    experiment: str
    nodes: int
    #: baseline observation window, simulated seconds
    duration: Optional[float] = None
    #: stream into a catalog with checkpoints every ``CHECKPOINT_EVERY``
    #: simulated seconds, analyse it with the engine, resume the run
    stored: bool = False
    #: reduced scale for the self-test; no committed statistics apply
    toy: bool = False

    def scenario(self, seed: int) -> Scenario:
        overrides = {"seed": seed, "cluster.nnodes": self.nodes}
        if self.duration is not None:
            overrides["experiment.baseline_duration"] = self.duration
        return Scenario().with_overrides(overrides).validate()

    def at_toy_scale(self) -> "Workload":
        return replace(self, nodes=2, toy=True,
                       duration=300.0 if self.duration else None)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("combined16", "combined", nodes=16),
    Workload("baseline64", "baseline", nodes=64, duration=2000.0),
    Workload("wavelet16-stored", "wavelet", nodes=16, stored=True),
)}

#: the unarmed twin of ``wavelet16-stored``, the checkpoint drift reference
UNARMED_REFERENCE = "wavelet16"


def golden_tuple(metrics) -> tuple:
    """The statistics ``tests/test_config_golden.py`` pins."""
    return (metrics.total_requests, metrics.read_fraction,
            metrics.requests_per_second, metrics.duration,
            metrics.mean_size_kb, metrics.mean_pending, metrics.kb_moved)


def expected_tuple(workload: Workload, seed: int,
                   name: Optional[str] = None) -> Optional[tuple]:
    """Committed statistics, when they exist for this scale and seed."""
    if workload.toy or seed != EXPECTED["seed"]:
        return None
    return tuple(EXPECTED["statistics"][name or workload.name])


# -- operations and spans -----------------------------------------------------
class Tally:
    """Attempted and failed operations; failures are kept for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    @contextmanager
    def op(self, label: str):
        """Count an operation; one that raises is failed, then re-raised."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:
            self.failures.append(f"{label}: {exc!r}")
            raise


class Spans:
    """Accumulated host seconds and call counts per span name."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - start
            self.calls[name] += 1

    @contextmanager
    def around(self, module, attr: str, name: str):
        """Time every call of ``module.attr`` as span ``name``."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, timed)
        try:
            yield
        finally:
            setattr(module, attr, original)


@contextmanager
def counting_merged_blocks(counts: Dict[str, int]):
    """Count the records and blocks ``merged_time_blocks`` yields."""
    original = engine_module.merged_time_blocks

    def counted(*args, **kwargs):
        for block in original(*args, **kwargs):
            counts["blocks"] += 1
            counts["records"] += len(block)
            yield block

    engine_module.merged_time_blocks = counted
    try:
        yield
    finally:
        engine_module.merged_time_blocks = original


# -- set-up and one pass of the workload --------------------------------------
class Bench:
    """What set-up builds: the runners and the temporary catalog."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.scenario = workload.scenario(seed)
        self.catalog = None
        self.resumer = None
        if workload.stored:
            (workdir / "runs").mkdir(parents=True, exist_ok=True)
            self.catalog = RunCatalog(workdir / "runs")
            self.resumer = ExperimentRunner(scenario=self.scenario)
        self.runner = ExperimentRunner(scenario=self.scenario,
                                       sink=self.catalog)
        self.checkpoint = workdir / "ckpt" / f"{workload.experiment}.ckpt"


@dataclass
class Iteration:
    """One pass of the timed region and what it produced."""

    result: object
    analysis: dict
    resumed: object
    run_s: float
    #: host seconds of each analysis of this pass's trace
    analyze_times: List[float]
    resume_s: float
    #: trace records the run produced
    records: int
    #: chunks decompressed by the analysis (stored workloads)
    chunks_scanned: int = 0
    #: size of the run's final checkpoint file
    checkpoint_bytes: int = 0

    @property
    def requests_per_s(self) -> float:
        return self.records / self.run_s

    @property
    def analyze_s(self) -> float:
        return statistics.median(self.analyze_times)

    @property
    def wall_s(self) -> float:
        """The timed region: the run, one analysis, the resume."""
        return self.run_s + self.analyze_s + self.resume_s


def analyze_in_memory(result, spans: Spans) -> dict:
    """The five characterizations through the in-memory entry points."""
    trace = result.trace
    out = {}
    with spans.span("analysis.metrics_s"):
        out["metrics"] = compute_metrics(trace, label=result.name,
                                         duration=result.duration,
                                         nnodes=result.nnodes)
    with spans.span("analysis.sizes_s"):
        out["sizes"] = size_histogram(trace)
    with spans.span("analysis.spatial_s"):
        out["spatial"] = spatial_locality(trace)
    with spans.span("analysis.arrival_s"):
        out["arrival"] = arrival_structure(trace)
    with spans.span("analysis.hotspots_s"):
        out["hotspots"] = temporal_locality(trace, window=result.duration)
    return out


def iterate(bench: Bench, tally: Tally,
            runner: Optional[ExperimentRunner] = None,
            spans: Optional[Spans] = None,
            traced: bool = False) -> Iteration:
    """Run the workload's timed region once: run, analyse, resume.

    An in-memory analysis takes a fraction of a second, so untraced
    passes repeat it and keep every time; a ``traced`` pass runs it
    once.  A stored run is analysed cold, once, by all five pipelines
    in one engine call, as a user would.
    """
    workload = bench.workload
    runner = runner or bench.runner
    spans = spans or Spans()
    kwargs = {}
    if workload.stored:
        kwargs = {"checkpoint_every": CHECKPOINT_EVERY,
                  "checkpoint_dir": bench.checkpoint}
    start = perf_counter()
    with tally.op(f"run {workload.experiment}"):
        result = runner.run(workload.experiment, **kwargs)
    run_s = perf_counter() - start
    checkpoint_bytes = (bench.checkpoint.stat().st_size
                        if workload.stored else 0)
    registry = MetricsRegistry()
    times = []
    with tally.op("analysis"):
        if not workload.stored:
            while True:
                begin = perf_counter()
                analysis = analyze_in_memory(result, spans)
                times.append(perf_counter() - begin)
                if traced or (len(times) >= 3
                              and sum(times) >= MEMORY_ANALYSIS_SECONDS):
                    break
        else:
            begin = perf_counter()
            engine = AnalysisEngine(bench.catalog, workers=1, obs=registry)
            analysis = engine.analyze(runner.last_run_dir.name,
                                      list(PIPELINES))
            times.append(perf_counter() - begin)
    resumed = None
    resume_s = 0.0
    if workload.stored:
        begin = perf_counter()
        with tally.op("resume"):
            resumed = bench.resumer.run(workload.experiment,
                                        resume_from=bench.checkpoint)
        resume_s = perf_counter() - begin
    scanned = registry.counter("analysis.chunks_scanned").value
    return Iteration(result=result, analysis=analysis, resumed=resumed,
                     run_s=run_s, analyze_times=times, resume_s=resume_s,
                     records=len(result.trace),
                     chunks_scanned=int(scanned),
                     checkpoint_bytes=checkpoint_bytes)


def discard_run(bench: Bench) -> None:
    """Delete the stored run so the catalog stays small and cold."""
    if bench.workload.stored:
        shutil.rmtree(bench.runner.last_run_dir, ignore_errors=True)


# -- output checks ------------------------------------------------------------
def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def engine_matches_memory(stored: dict, memory: dict, result) -> str:
    """'' when the engine's results equal the in-memory entry points'."""
    if golden_tuple(stored["metrics"]) != golden_tuple(memory["metrics"]):
        return "metrics differ"
    if stored["sizes"].histogram != memory["sizes"]:
        return "size histograms differ"
    a, b = stored["spatial"], memory["spatial"]
    if not (np.array_equal(a.band_start, b.band_start)
            and np.allclose(a.band_fraction, b.band_fraction,
                            rtol=REL_TOL, atol=0.0)
            and _close(a.gini, b.gini)
            and _close(a.top_20pct_share, b.top_20pct_share)):
        return "spatial locality differs"
    a, b = stored["arrival"], memory["arrival"]
    if not (a.total == b.total and a.window == b.window
            and _close(a.mean_gap, b.mean_gap) and _close(a.cv_gap, b.cv_gap)
            and _close(a.idc, b.idc)):
        return f"arrival structure differs: {a} vs {b}"
    hot, temporal = stored["hotspots"], memory["hotspots"]
    frequency = dict(zip(temporal.sectors.tolist(),
                         temporal.frequency.tolist()))
    top = sorted(f for _, f in temporal.hot_spots(len(hot.spots)))
    if not (hot.total == len(result.trace)
            and all(_close(rate, frequency.get(sector, -1.0))
                    and _close(count, frequency[sector] * temporal.window)
                    for sector, count, rate in hot.spots)
            and all(_close(x, y) for x, y in
                    zip(sorted(r for _, _, r in hot.spots), top))):
        return "hot sectors differ"
    return ""


def resumed_matches(resumed, armed) -> str:
    """'' when the resumed run equals the armed one it continued."""
    if not np.array_equal(resumed.trace.records, armed.trace.records):
        return "trace records differ"
    if golden_tuple(resumed.metrics) != golden_tuple(armed.metrics):
        return "metrics differ"
    if resumed.app_stats != armed.app_stats:
        return "app stats differ"
    return ""


def check_outputs(bench: Bench, it: Iteration, tally: Tally) -> None:
    """Count one output check per committed tuple, claim and equality."""
    workload = bench.workload
    result = it.result
    expected = expected_tuple(workload, bench.seed)
    if expected is not None:
        got = golden_tuple(result.metrics)
        tally.check(f"{workload.name} statistics", got == expected,
                    f"{got} != committed {expected}")
    for outcome in evaluate_claims({result.name: result}):
        if outcome.passed is not None:
            tally.check(f"claim {outcome.claim.id}", outcome.passed,
                        outcome.detail)
    if workload.stored:
        memory = analyze_in_memory(result, Spans())
        detail = engine_matches_memory(it.analysis, memory, result)
        tally.check("engine equals in-memory analysis", not detail, detail)
        detail = resumed_matches(it.resumed, result)
        tally.check("resumed run equals armed run", not detail, detail)


# -- the traced pass and its per-layer counters -------------------------------
def _total(snapshot: dict, key: str) -> float:
    entry = snapshot.get(key) or {}
    if "value" in entry:
        return entry["value"]
    return sum(entry.get("children", {}).values())


def traced_iteration(bench: Bench, tally: Tally, sampler):
    """The timed region once more, with obs, spans and the sampler on.

    Returns ``(iteration, spans, runner, merge_counts)``; ``runner``
    holds the armed run's cluster for the counters.  The timed region
    analyses a stored run in one engine call, like an untraced pass,
    so that the two differ by tracing alone; afterwards, outside the
    timed region and the sampler, each pipeline is timed alone over
    the same run with the engine's cache off.
    """
    spans = Spans()
    merge = {"blocks": 0, "records": 0}
    runner = ExperimentRunner(scenario=bench.scenario, sink=bench.catalog,
                              obs=True)
    with spans.around(experiments_module, "capture_state",
                      "checkpoint.capture_s"), \
            spans.around(experiments_module, "save_checkpoint",
                         "checkpoint.save_s"), \
            spans.around(experiments_module, "load_checkpoint",
                         "checkpoint.load_s"), \
            spans.around(experiments_module, "restore_cluster_state",
                         "checkpoint.restore_s"), \
            spans.around(experiments_module, "drain_to_quiescence",
                         "checkpoint.restore_s"), \
            counting_merged_blocks(merge), sampler:
        it = iterate(bench, tally, runner=runner, spans=spans, traced=True)
    if bench.workload.stored:
        engine = AnalysisEngine(bench.catalog, workers=1, cache=False)
        for name in PIPELINES:
            with tally.op(f"analysis {name}"), \
                    spans.span(f"analysis.{name}_s"):
                engine.analyze(runner.last_run_dir.name, [name])
    return it, spans, runner, merge


def layer_counters(it: Iteration, plain: Iteration, runner, spans: Spans,
                   merge: Dict[str, int]) -> Dict[str, float]:
    """Machine-independent counters plus the span times, per layer.

    ``it`` is the traced pass.  Checkpoint size comes from the
    ``plain`` pass: its checkpoints hold no obs registry (whose
    wall-clock gauges change the compressed size from run to run).
    ``disk.mean_queue_depth``, ``disk.busy_frac`` and
    ``disk.mean_latency_ms`` are simulated, like every counter here:
    they repeat exactly for a seed.  Only the span times are host
    time.  A layer the workload leaves idle reads 0.
    """
    snap = it.result.obs
    records = len(it.result.trace)
    cluster = runner.last_cluster
    kernels = [node.kernel for node in cluster.nodes]
    disks = [d.stats for k in kernels
             for d in getattr(k, "disks", (k.disk,))]
    queue = snap["disk.queue_depth"]["children"].values()
    cache = [k.cache.stats for k in kernels]
    vm = [k.vm.stats for k in kernels]
    hits = sum(c.hits for c in cache)
    lookups = hits + sum(c.misses for c in cache)
    stored = _total(snap, "store.compressed_bytes")
    chunks = _total(snap, "store.chunks_spilled")
    out = {
        "sim.events_per_request":
            _total(snap, "sim.events_processed") / records,
        "sim.resumes_per_request":
            _total(snap, "sim.process_resumes") / records,
        "sim.max_pending": snap["sim.heap_depth"]["value"]["max"],
        "disk.mean_queue_depth": sum(h["sum"] for h in queue)
        / sum(h["count"] for h in queue),
        "disk.busy_frac":
            sum(d.busy_time for d in disks) / (len(disks) * cluster.sim.now),
        "disk.mean_latency_ms": 1000.0 * sum(d.total_latency for d in disks)
        / sum(d.requests for d in disks),
        "kernel.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "kernel.vm_faults": sum(v.faults for v in vm),
        "kernel.swap_outs": sum(v.swap_outs for v in vm),
        "kernel.direct_reclaims": sum(v.direct_reclaims for v in vm),
        "driver.requests": _total(snap, "driver.requests_issued"),
        "driver.retries": _total(snap, "driver.retries"),
        "driver.ring_dropped": _total(snap, "trace.ring_dropped"),
        "cluster.net_messages": _total(snap, "net.messages"),
        "store.bytes": stored,
        "store.compress_ratio":
            _total(snap, "store.raw_bytes") / stored if stored else 0.0,
        "store.chunks_read_frac":
            it.chunks_scanned / chunks if chunks else 0.0,
        "analysis.records_per_block":
            merge["records"] / merge["blocks"] if merge["blocks"] else 0.0,
        "checkpoint.epochs": spans.calls.get("checkpoint.save_s", 0),
        "checkpoint.bytes": plain.checkpoint_bytes,
        "checkpoint.drift_requests": 0,
        "checkpoint.drift_sim_s": 0.0,
    }
    for name in PIPELINES:
        out[f"analysis.{name}_s"] = spans.seconds.get(f"analysis.{name}_s",
                                                      0.0)
    for name in ("capture_s", "save_s", "load_s", "restore_s"):
        out[f"checkpoint.{name}"] = spans.seconds.get(f"checkpoint.{name}",
                                                      0.0)
    return out


def checkpoint_drift(bench: Bench, armed, tally: Tally) -> Dict[str, float]:
    """How far the armed run drifted from the same run unarmed.

    Checkpointing is meant to leave a run bit-identical; application
    runs drift today, which these two numbers report.
    """
    with tally.op(f"run unarmed {bench.workload.experiment}"):
        reference = ExperimentRunner(scenario=bench.scenario).run(
            bench.workload.experiment)
    expected = expected_tuple(bench.workload, bench.seed, UNARMED_REFERENCE)
    if expected is not None:
        got = golden_tuple(reference.metrics)
        tally.check(f"{UNARMED_REFERENCE} statistics", got == expected,
                    f"{got} != committed {expected}")
    return {"checkpoint.drift_requests":
                len(armed.trace) - len(reference.trace),
            "checkpoint.drift_sim_s": armed.duration - reference.duration}
