"""Benchmark: the paper's experiments at paper scale, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` repeats the workload's
timed region while ``--seconds`` allow (at least once) and prints the
end-to-end metrics; ``--trace 1`` runs it once plain and once traced
(obs counters, call spans and a SIGPROF layer sampler) and prints the
per-layer metrics.  Metric names and units come from ``BENCHMARK.json``.
The last line of standard output is the JSON result; diagnostics go to
standard error.  Workloads are described in ``workloads.py``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import List

from sampler import LAYERS, OTHER, LayerSampler

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: fresh interpreters that repeat the set-up, before the timed region
#: and again after it; ``setup_s`` is the median of their set-up times
#: and this process's own
SETUP_PROBES = 3


def since_process_start() -> float:
    """Host seconds from this process's creation until now."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics this mode must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def timed_runs(workloads, bench, seconds, tally):
    """Repeat the timed region within ``seconds``, at least once."""
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        try:
            it = workloads.iterate(bench, tally)
        except Exception:
            if not passes:
                raise
            traceback.print_exc()
            return passes       # the failure is counted; report the rest
        workloads.check_outputs(bench, it, tally)
        workloads.discard_run(bench)
        it.result = it.resumed = it.analysis = None   # free the traces
        passes.append(it)
        print(f"perfbench: pass {len(passes)}: run {it.run_s:.3f} s, "
              f"analysis {it.analyze_s:.3f} s "
              f"(x{len(it.analyze_times)}), resume {it.resume_s:.3f} s",
              file=sys.stderr)
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:   # the next pass won't fit
            return passes


def end_to_end(passes, setup_s: float, tally) -> dict:
    """Medians over the passes of one run."""
    def median(attr):
        return statistics.median(getattr(p, attr) for p in passes)

    return {
        "wall_s": median("wall_s"),
        "requests_per_s": median("requests_per_s"),
        "analyze_s": statistics.median(
            t for p in passes for t in p.analyze_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - tally.failed / tally.attempted,
        "setup_s": setup_s,
    }


def per_layer(workloads, bench, tally) -> dict:
    """One plain pass, then one traced pass; counters, spans, self times."""
    plain = workloads.iterate(bench, tally)
    workloads.check_outputs(bench, plain, tally)
    workloads.discard_run(bench)
    plain.result = plain.resumed = plain.analysis = None
    sampler = LayerSampler()
    traced, spans, runner, merge = workloads.traced_iteration(
        bench, tally, sampler)
    workloads.check_outputs(bench, traced, tally)
    out = workloads.layer_counters(traced, plain, runner, spans, merge)
    for layer in LAYERS + (OTHER,):
        out[f"{layer}.self_s"] = sampler.self_s[layer]
    out["trace.wall_s"] = traced.wall_s
    out["trace.sampled_s"] = sampler.sampled_s
    out["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    out["checkpoint.resume_s"] = plain.resume_s
    if bench.workload.stored:
        out.update(workloads.checkpoint_drift(bench, traced.result, tally))
    return out


def probe_setup(spec, seed: int, workdir: Path) -> List[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh interpreters in turn."""
    argv = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
            spec.name, str(seed), str(workdir / "setup")]
    if spec.toy:
        argv.append("--toy")
    return [float(subprocess.run(argv, stdout=subprocess.PIPE, check=True,
                                 text=True, timeout=60).stdout)
            for _ in range(SETUP_PROBES)]


def measure(spec, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    """Set up, run one workload, check it; the unformatted report."""
    import workloads

    bench = workloads.Bench(spec, seed, workdir)
    setup = [since_process_start()]
    tally = workloads.Tally()
    if trace:
        metrics = per_layer(workloads, bench, tally)
    else:
        # interpreter start and imports dominate set-up; their host time
        # drifts with the machine's load over seconds, so fresh
        # interpreters repeat them at both ends of the timed region
        setup += probe_setup(spec, seed, workdir)
        passes = timed_runs(workloads, bench, seconds, tally)
        setup += probe_setup(spec, seed, workdir)
        metrics = end_to_end(passes, statistics.median(setup), tally)
    for failure in tally.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def with_units(report: dict, trace: bool) -> dict:
    """Attach the declared unit to every metric; refuse any mismatch."""
    units = declared_metrics(trace)
    metrics = report["metrics"]
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: emitted {sorted(metrics)}, "
                         f"declared {sorted(units)}")
    return dict(report, metrics={
        name: {"value": float(metrics[name]), "unit": units[name]}
        for name in units})


def import_repro():
    """Put this checkout's sources first on the path and import them.

    numpy's BLAS would start a worker thread at import; the workloads
    run single-threaded, so it is told to start none.
    """
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_repro()
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        report = measure(spec, args.seed, args.seconds, bool(args.trace),
                         workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # another run still uses it
    print(json.dumps(with_units(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
