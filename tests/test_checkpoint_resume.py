"""End-to-end checkpoint/resume correctness.

The bar is bit-identity: run to T, checkpoint, restore (same process or
a fresh one), continue to the end — the trace records, duration, and
per-app statistics must equal the uninterrupted run's exactly, for every
disk scheduler.  Scenarios and checkpoints written while two event-queue
engines existed still name one; the ``engine`` axis feeds each such input
through the one engine left.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core.experiments as experiments_module
from repro.checkpoint import (
    CheckpointError,
    capture_state,
    drain_to_quiescence,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
    verify_restored_queue,
)
from repro.config import Scenario
from repro.core.experiments import ExperimentRunner

SCHEDULERS = ("fifo", "sstf", "scan", "clook")
#: event queues a scenario or checkpoint could name before one engine was kept
RETIRED_ENGINES = ("heap", "calendar")

TINY_PPM = {
    "cluster": {"nnodes": 2},
    "workload": {"params": {"ppm": {"grids": 1, "grid_nx": 24,
                                    "grid_ny": 48, "steps": 6,
                                    "nnodes": 2}}},
}


def scenario(scheduler="clook", seed=11, extra=None, engine=None):
    data = dict(extra or {})
    data.setdefault("cluster", {"nnodes": 2})
    data["seed"] = seed
    if engine is not None:
        data["engine"] = {"event_queue": engine}
    sc = Scenario.from_dict(data)
    return sc.with_override("node.disks[*].scheduler.kind", scheduler)


def written_under(tree, engine):
    """A deep copy of ``tree`` as it looked when written under ``engine``:
    the clock names its queue, every disk carries a drain epoch and the
    scenario keeps its ``engine`` table.  Restores ignore all three."""
    old = copy.deepcopy(tree)
    old["clock"]["queue_kind"] = engine
    old["meta"]["scenario"]["engine"] = {"event_queue": engine}
    disks = [disk for node in old["cluster"]["nodes"]
             for disk in node["disks"]]
    assert disks
    for disk in disks:
        disk["epoch"] = 7
    return old


def resave_under(ckpt, engine, tmp_path):
    """Rewrite the checkpoint at ``ckpt`` as :func:`written_under` does."""
    old = tmp_path / f"{engine}-{ckpt.name}"
    save_checkpoint(written_under(load_checkpoint(ckpt), engine), old)
    return old


def assert_identical(a, b):
    assert np.array_equal(a.trace.records, b.trace.records)
    assert a.duration == b.duration
    assert a.metrics.to_dict() == b.metrics.to_dict()
    for app, stats in a.app_stats.items():
        assert stats == b.app_stats.get(app)


@pytest.mark.parametrize("engine", RETIRED_ENGINES)
@pytest.mark.parametrize("scheduler,seed",
                         [(s, 11) for s in SCHEDULERS] + [("clook", 23)])
def test_baseline_resume_is_bit_identical(tmp_path, scheduler, engine, seed):
    sc = scenario(engine=engine, scheduler=scheduler, seed=seed)
    ck = tmp_path / "ck"
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    ckpt = ck / "baseline.ckpt"
    assert ckpt.exists()
    old = resave_under(ckpt, engine, tmp_path)
    for source in (ckpt, old):
        resumed = ExperimentRunner(scenario=sc).run("baseline",
                                                    resume_from=source)
        assert_identical(armed, resumed)


@pytest.mark.parametrize("engine", RETIRED_ENGINES)
def test_app_resume_is_bit_identical(tmp_path, engine):
    sc = scenario(engine=engine, extra=TINY_PPM)
    ck = tmp_path / "ck"
    armed = ExperimentRunner(scenario=sc).run(
        "ppm", checkpoint_every=0.05, checkpoint_dir=ck)
    ckpt = ck / "ppm.ckpt"
    assert ckpt.exists()
    old = resave_under(ckpt, engine, tmp_path)
    for source in (ckpt, old):
        resumed = ExperimentRunner(scenario=sc).run("ppm", resume_from=source)
        assert_identical(armed, resumed)


def test_armed_run_equals_unarmed_run(tmp_path):
    """Checkpointing must not perturb the simulation it observes."""
    sc = scenario()
    plain = ExperimentRunner(scenario=sc).run("baseline", duration=12.0)
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0,
        checkpoint_dir=tmp_path / "ck")
    assert_identical(plain, armed)


@pytest.mark.parametrize("engine", RETIRED_ENGINES)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_restore_is_idempotent(tmp_path, scheduler, engine):
    """Property: load tree -> rebuild stack -> capture again == same tree.

    Holds for every scheduler, also from the tree as written under a
    retired engine: a restore must reconstruct exactly the state that
    was captured, nothing drifted, and the retired keys are dropped.
    """
    sc = scenario(engine=engine, scheduler=scheduler)
    ck = tmp_path / "ck"
    runner = ExperimentRunner(scenario=sc)
    runner.run("baseline", duration=12.0, checkpoint_every=5.0,
               checkpoint_dir=ck)
    tree = load_checkpoint(ck / "baseline.ckpt")

    for source in (tree, written_under(tree, engine)):
        fresh = ExperimentRunner(scenario=sc)
        sim, cluster = fresh._resume_build(source)
        drain_to_quiescence(sim)
        verify_restored_queue(sim, source)
        fresh._restore_obs(source)
        again = capture_state(sim, cluster, obs=fresh._registry(),
                              meta=tree["meta"])
        assert tree_equal(tree, again)


@pytest.mark.parametrize("experiment,kwargs", [
    ("baseline", {"duration": 12.0, "checkpoint_every": 5.0}),
    ("ppm", {"checkpoint_every": 0.05}),
    ("wavelet", {"checkpoint_every": 30.0}),
])
def test_captured_tree_does_not_alias_live_state(tmp_path, monkeypatch,
                                                 experiment, kwargs):
    """capture_state checks its tree in place instead of copying it, so
    no layer may hand out live containers or arrays: the 2-node stack
    runs on after every capture, and each captured tree must still
    equal the deep copy taken when it was captured."""
    captured = []
    real_save = experiments_module.save_checkpoint

    def keep(tree, path):
        captured.append((tree, copy.deepcopy(tree)))
        return real_save(tree, path)

    monkeypatch.setattr(experiments_module, "save_checkpoint", keep)
    sc = scenario(extra=TINY_PPM if experiment == "ppm" else None)
    ExperimentRunner(scenario=sc, obs=True).run(
        experiment, checkpoint_dir=tmp_path / "ck", **kwargs)
    assert len(captured) >= 2
    for tree, at_capture in captured:
        assert tree_equal(tree, at_capture)


def test_resume_in_fresh_process_is_bit_identical(tmp_path):
    """The real crash-recovery story: restore in a brand new interpreter."""
    sc = scenario()
    ck = tmp_path / "ck"
    armed = ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    script = (
        "import json, sys, hashlib\n"
        "from pathlib import Path\n"
        "from repro.config import Scenario\n"
        "from repro.core.experiments import ExperimentRunner\n"
        "sc_dict, ckpt = json.loads(sys.argv[1]), sys.argv[2]\n"
        "sc = Scenario.from_dict(sc_dict)\n"
        "r = ExperimentRunner(scenario=sc).run('baseline',"
        " resume_from=ckpt)\n"
        "print(json.dumps({'sha':"
        " hashlib.sha256(r.trace.records.tobytes()).hexdigest(),"
        " 'n': len(r.trace.records), 'duration': r.duration}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(sc.to_dict()),
         str(ck / "baseline.ckpt")],
        capture_output=True, text=True, timeout=300,
        cwd=str(Path(__file__).resolve().parent.parent))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    import hashlib
    assert got["n"] == len(armed.trace.records)
    assert got["sha"] == hashlib.sha256(
        armed.trace.records.tobytes()).hexdigest()
    assert got["duration"] == armed.duration


def test_resume_rejects_mismatched_scenario(tmp_path):
    sc = scenario(seed=11)
    ck = tmp_path / "ck"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    other = scenario(seed=99)
    with pytest.raises(CheckpointError, match="scenario"):
        ExperimentRunner(scenario=other).run(
            "baseline", resume_from=ck / "baseline.ckpt")


def test_resume_rejects_wrong_experiment(tmp_path):
    sc = scenario()
    ck = tmp_path / "ck"
    ExperimentRunner(scenario=sc).run(
        "baseline", duration=12.0, checkpoint_every=5.0, checkpoint_dir=ck)
    with pytest.raises(CheckpointError):
        ExperimentRunner(scenario=sc).run(
            "ppm", resume_from=ck / "baseline.ckpt")
