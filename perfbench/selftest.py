"""Self-test of the benchmark at toy scale.

    python3 perfbench/selftest.py

Runs every workload at 2 nodes (baseline over 300 simulated seconds) in
both modes and checks that each declared metric is emitted with its
unit and that every output check passes; then checks that the sampler
charges samples to the innermost ``repro.<pkg>`` layer.  Exits 0 and
prints ``selftest ok`` when everything holds.
"""

import math
import os
import shutil
import sys

import run
from sampler import LAYERS, OTHER, LayerSampler, layer_of

# pure bytecode, no system calls: a CPU-clock read in the loop would
# draw the timer signal onto the frame that makes it
SPIN = """
def spin(rounds, inner=None):
    for _ in range(rounds):
        if inner is not None:
            inner(1)
        sum(i * i for i in range(5000))
"""


def spinner(module: str):
    """A CPU-bound function whose frames belong to ``module``."""
    namespace = {"__name__": module}
    exec(SPIN, namespace)
    return namespace["spin"]


def check_sampler() -> None:
    for layer in LAYERS:
        spin = spinner(f"repro.{layer}.probe")
        with LayerSampler() as sampler:
            spin(1000)
        share = sampler.self_s[layer] / sampler.sampled_s
        assert sampler.samples > 20, (layer, sampler.samples)
        assert share > 0.9, (layer, sampler.self_s)
    # innermost repro frame wins; obs and non-repro frames are "other"
    outer, inner = spinner("repro.sim.probe"), spinner("repro.disk.probe")
    with LayerSampler() as sampler:
        outer(1000, inner=inner)
    shares = {k: v / sampler.sampled_s for k, v in sampler.self_s.items()}
    assert shares["disk"] > 0.2 and shares["sim"] > 0.2, shares
    assert shares["disk"] + shares["sim"] > 0.9, shares
    with LayerSampler() as sampler:
        spinner("repro.obs.probe")(500)
        spinner("not_repro.probe")(500)
    assert sampler.self_s[OTHER] / sampler.sampled_s > 0.9, sampler.self_s
    assert layer_of(None) == OTHER


def check_workloads(workloads) -> None:
    workdir = run.ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        for spec in workloads.WORKLOADS.values():
            toy = spec.at_toy_scale()
            for trace in (False, True):
                report = run.with_units(
                    run.measure(toy, seed=1, seconds=1.0, trace=trace,
                                workdir=workdir / f"{spec.name}-{trace}"),
                    trace)
                assert report["correct"], (spec.name, trace, report)
                assert report["attempted"] >= 3, report
                units = run.declared_metrics(trace)
                assert {name: m["unit"] for name, m in
                        report["metrics"].items()} == units
                for name, m in report["metrics"].items():
                    assert math.isfinite(m["value"]), (spec.name, name)
                print(f"{spec.name} trace={int(trace)}: "
                      f"{len(units)} metrics", file=sys.stderr)
                if trace:
                    check_layers(spec, report["metrics"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass    # a benchmark run still uses it


def check_layers(spec, metrics) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    layers = sum(value[f"{layer}.self_s"] for layer in LAYERS + (OTHER,))
    assert math.isclose(layers, value["trace.sampled_s"], rel_tol=1e-9)
    # the sampled CPU time covers the traced pass (it is CPU-bound)
    assert 0.5 < value["trace.sampled_s"] / value["trace.wall_s"] < 1.1, \
        value
    assert value["sim.self_s"] > 0 and value["kernel.self_s"] > 0, value
    assert value["driver.requests"] > 0
    if spec.stored:
        assert value["store.bytes"] > 0 and value["checkpoint.epochs"] > 0
        assert value["analysis.records_per_block"] >= 1.0
    else:
        assert value["store.bytes"] == 0
        assert value["checkpoint.epochs"] == 0


def main() -> int:
    workloads = run.import_repro()
    check_sampler()
    check_workloads(workloads)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
