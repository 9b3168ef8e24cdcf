"""Analysis engine performance: bounded memory, fan-out, cache hits.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_analysis_perf.py``.
The acceptance bar from the engine redesign: analysing a 1M-record
catalog must not materialise whole traces (peak allocation bounded by
the chunk size, not the run size), multi-process fan-out must beat
serial wall-clock on a multi-run catalog, re-analysis of an unchanged
run must be a pure cache hit, and the ordered fold's time merge must
emit whole-chunk blocks rather than a block per record.
"""

import os
import tracemalloc

import numpy as np
import pytest

import repro.analysis.engine as engine_module
from repro.analysis import AnalysisEngine
from repro.core.experiments import ExperimentResult
from repro.core.trace import TraceDataset
from repro.driver import TRACE_DTYPE
from repro.obs import MetricsRegistry
from repro.store import RunCatalog

#: total records across the catalog — the "1M-record" acceptance bar
N = 1_000_000
RUNS = 4
NODES = 4
CHUNK = 8_192


def synth_run(name, n, seed):
    rng = np.random.default_rng(seed)
    arr = np.empty(n, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(1e-3, n).cumsum())
    arr["sector"] = rng.integers(0, 1_024_128, n)
    arr["write"] = rng.random(n) < 0.8
    arr["pending"] = rng.integers(0, 12, n)
    arr["size_kb"] = rng.choice([0.5, 1.0, 4.0, 32.0], n)
    arr["node"] = rng.integers(0, NODES, n)
    duration = float(arr["time"][-1])
    return ExperimentResult(name=name, trace=TraceDataset(arr),
                            duration=duration, nnodes=NODES)


@pytest.fixture(scope="module")
def catalog(tmp_path_factory):
    root = tmp_path_factory.mktemp("analysis_perf")
    catalog = RunCatalog(root)
    per_run = N // RUNS
    for i in range(RUNS):
        catalog.save(synth_run(f"run{i}", per_run, seed=i),
                     chunk_records=CHUNK)
    return catalog


def test_streaming_memory_bounded(catalog):
    """Peak engine allocation must be far below one materialised run."""
    engine = AnalysisEngine(catalog, cache=False)
    tracemalloc.start()
    tracemalloc.reset_peak()
    out = engine.analyze("run0")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    run_bytes = (N // RUNS) * TRACE_DTYPE.itemsize
    print(f"\npeak {peak / 1e6:.1f} MB vs {run_bytes / 1e6:.1f} MB "
          f"materialised")
    assert out["metrics"].total_requests == N // RUNS
    # chunk-streaming keeps peak allocation to a fraction of the trace
    assert peak < run_bytes / 2


def test_merge_blocks_bounded_by_chunks(catalog, monkeypatch):
    """A deterministic guard on the merge's block size: the ordered fold
    over ``run0`` yields at most one block per chunk it decompresses."""
    counts = {"blocks": 0, "records": 0}
    original = engine_module.merged_time_blocks

    def counted(*args, **kwargs):
        for block in original(*args, **kwargs):
            counts["blocks"] += 1
            counts["records"] += len(block)
            yield block

    monkeypatch.setattr(engine_module, "merged_time_blocks", counted)
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, cache=False, obs=registry)
    out = engine.analyze("run0", ["arrival"])
    scanned = registry.counter("analysis.chunks_scanned").value
    print(f"\nmerge: {counts['blocks']} blocks over {scanned:.0f} chunks")
    assert out["arrival"].total == counts["records"] == N // RUNS
    assert 0 < counts["blocks"] <= scanned


def test_analyze_serial_wallclock(benchmark, catalog):
    engine = AnalysisEngine(catalog, workers=1, cache=False)
    out = benchmark(lambda: engine.analyze_all(pipelines=["metrics"]))
    assert sum(r["metrics"].total_requests for r in out.values()) == N


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="parallel speedup needs >= 2 CPUs")
def test_parallel_beats_serial(catalog):
    """4 workers over the catalog must beat the serial wall-clock."""
    from time import perf_counter
    serial = AnalysisEngine(catalog, workers=1, cache=False)
    parallel = AnalysisEngine(catalog, workers=4, cache=False)
    # warm the page cache so the comparison is about compute fan-out
    serial.analyze_all(pipelines=["metrics"])

    t0 = perf_counter()
    a = serial.analyze_all(pipelines=["metrics", "sizes", "spatial"])
    t_serial = perf_counter() - t0
    t0 = perf_counter()
    b = parallel.analyze_all(pipelines=["metrics", "sizes", "spatial"])
    t_parallel = perf_counter() - t0
    print(f"\nserial {t_serial:.2f}s vs 4 workers {t_parallel:.2f}s "
          f"({t_serial / t_parallel:.2f}x)")
    for run_id in a:
        assert a[run_id]["metrics"] == b[run_id]["metrics"]
        assert a[run_id]["sizes"].histogram == b[run_id]["sizes"].histogram
    assert t_parallel < t_serial


def test_cache_hit_is_cheap(benchmark, catalog, tmp_path_factory):
    """Re-analysis of an unchanged catalog must not decompress chunks."""
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, obs=registry)
    engine.analyze_all()                      # populate the caches
    before = registry.counter("analysis.chunks_scanned").value

    out = benchmark(lambda: engine.analyze_all())
    assert registry.counter("analysis.chunks_scanned").value == before
    assert registry.counter("analysis.cache_hits").value > 0
    assert sum(r["metrics"].total_requests for r in out.values()) == N


def test_pushdown_narrows_scan(catalog):
    """A narrow time window must skip the majority of chunks."""
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, cache=False, obs=registry)
    manifest = catalog.manifest("run0")
    cut = manifest["duration"] * 0.05
    engine.analyze("run0", ["sizes"], t1=cut)
    scanned = registry.counter("analysis.chunks_scanned").value
    skipped = registry.counter("analysis.chunks_skipped").value
    print(f"\npushdown: scanned {scanned:.0f}, skipped {skipped:.0f}")
    assert skipped > scanned * 3
