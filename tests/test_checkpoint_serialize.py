"""Unit tests for the ``.ckpt`` envelope and plain-tree validation."""

import pickle
import tracemalloc

import numpy as np
import pytest

import repro.core.experiments as experiments_module
from repro.checkpoint import (
    CheckpointError,
    check_tree,
    load_checkpoint,
    save_checkpoint,
    tree_equal,
    validate_tree,
)
from repro.checkpoint.serialize import MAGIC, dumps, loads
from repro.core.experiments import ExperimentRunner


SAMPLE = {
    "format": "repro-checkpoint-v1",
    "nested": {"a": 1, "b": [1.5, "x", None, True]},
    "tuples": (1, (2, 3), "end"),
    "blob": b"\x00\xff",
    "array": np.arange(12, dtype=np.int64).reshape(3, 4),
}


def test_roundtrip_preserves_types(tmp_path):
    path = tmp_path / "t.ckpt"
    size = save_checkpoint(SAMPLE, path)
    assert size == path.stat().st_size
    tree = load_checkpoint(path)
    assert tree_equal(tree, SAMPLE)
    # tuples must come back as tuples, not lists
    assert isinstance(tree["tuples"], tuple)
    assert isinstance(tree["tuples"][1], tuple)
    assert tree["array"].dtype == np.int64


def test_validate_tree_normalises_numpy_scalars():
    tree = validate_tree({"i": np.int64(7), "f": np.float64(0.5),
                          "b": np.bool_(True)})
    assert type(tree["i"]) is int
    assert type(tree["f"]) is float
    assert type(tree["b"]) is bool


def test_validate_tree_rejects_non_plain_values():
    with pytest.raises(CheckpointError):
        validate_tree({"bad": object()})
    with pytest.raises(CheckpointError):
        validate_tree({"bad": {1: "non-string key"}})
    with pytest.raises(CheckpointError):
        validate_tree({"bad": lambda: None})


def test_validate_tree_copies_containers():
    arr = np.zeros(4)
    src = {"xs": [1, 2], "arr": arr}
    out = validate_tree(src)
    src["xs"].append(3)
    arr[0] = 9.0
    assert out["xs"] == [1, 2]
    assert out["arr"][0] == 0.0


def test_tampered_payload_fails_checksum(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(SAMPLE, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    with pytest.raises(CheckpointError, match="checksum"):
        loads(bytes(blob))


def test_truncated_and_wrong_magic_are_clean_errors(tmp_path):
    blob = dumps({"format": "x"})
    with pytest.raises(CheckpointError, match="truncated"):
        loads(blob[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        loads(blob[:-5])
    bad = b"NOTACKPT" + blob[len(MAGIC):]
    with pytest.raises(CheckpointError, match="magic"):
        loads(bad)


def test_newer_format_version_is_rejected():
    blob = bytearray(dumps({"format": "x"}))
    blob[8] = 0xFF  # bump the little-endian u16 version field
    with pytest.raises(CheckpointError, match="newer"):
        loads(bytes(blob))


def test_missing_file_is_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_save_is_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(SAMPLE, path)
    save_checkpoint(SAMPLE, path)  # overwrite goes through the same dance
    assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]


def test_tree_equal_distinguishes_shapes():
    assert tree_equal({"a": (1, 2)}, {"a": (1, 2)})
    assert not tree_equal({"a": (1, 2)}, {"a": [1, 2]})
    assert not tree_equal({"a": np.zeros(3)}, {"a": np.zeros(4)})
    assert tree_equal(np.zeros(3), np.zeros(3))
    assert not tree_equal(1, 1.0)


def test_save_checkpoint_streams_exactly_dumps(tmp_path):
    path = tmp_path / "t.ckpt"
    save_checkpoint(SAMPLE, path)
    assert path.read_bytes() == dumps(SAMPLE)


def _unnormalised_tree() -> dict:
    readonly = np.arange(3)
    readonly.flags.writeable = False
    return {"i": np.int64(7),
            "pair": (1, np.float64(0.5)),
            "rows": [{"b": np.bool_(True)}],
            "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "readonly": readonly}


def test_save_checkpoint_leaves_the_callers_tree_untouched(tmp_path):
    tree = _unnormalised_tree()
    rows, fortran = tree["rows"], tree["fortran"]
    expected = dumps(tree)          # dumps copies; tree is untouched
    path = tmp_path / "t.ckpt"
    save_checkpoint(tree, path)
    assert path.read_bytes() == expected
    assert type(tree["i"]) is np.int64
    assert type(tree["rows"][0]["b"]) is np.bool_
    assert tree["rows"] is rows and tree["fortran"] is fortran


def test_check_tree_normalises_in_place_and_pickles_like_a_copy(tmp_path):
    tree = _unnormalised_tree()
    expected = dumps(tree)
    checked = check_tree(tree)
    assert checked is tree
    path = tmp_path / "t.ckpt"
    save_checkpoint(tree, path)
    assert path.read_bytes() == expected
    assert type(tree["i"]) is int
    assert type(tree["rows"][0]["b"]) is bool
    assert tree["pair"] == (1, 0.5) and type(tree["pair"][1]) is float
    assert tree["fortran"].flags.c_contiguous


def test_check_tree_names_the_offending_path():
    with pytest.raises(CheckpointError, match=r"\$\.outer\[1\]\.bad"):
        check_tree({"outer": [1, {"bad": object()}]})
    with pytest.raises(CheckpointError, match="non-string key"):
        check_tree({"outer": {1: "x"}})


@pytest.fixture(scope="module")
def captured_tree(tmp_path_factory):
    """The last tree an armed 4-node combined run captures."""
    trees = []
    real_save = experiments_module.save_checkpoint

    def keep(tree, path):
        trees[:] = [tree]
        return real_save(tree, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments_module, "save_checkpoint", keep)
        ExperimentRunner(nnodes=4, seed=1).run(
            "combined", checkpoint_every=60.0,
            checkpoint_dir=tmp_path_factory.mktemp("ck"))
    return trees[0]


class _NullSink:
    def write(self, data):
        pass


def _traced_peak(action) -> int:
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_save_holds_no_whole_pickle(captured_tree, tmp_path):
    """Beyond what pickling the tree costs anyway (the pickler's memo of
    every container and string it writes), the streamed save allocates
    less than a quarter of the pickle: no copy of the tree and no
    pickle, payload or envelope ``bytes`` of it."""
    protocol = pickle.HIGHEST_PROTOCOL
    pickled = len(pickle.dumps(captured_tree, protocol=protocol))
    pickling = _traced_peak(
        lambda: pickle.Pickler(_NullSink(), protocol=protocol)
        .dump(captured_tree))
    path = tmp_path / "t.ckpt"
    saving = _traced_peak(lambda: save_checkpoint(captured_tree, path))
    assert saving - pickling < pickled / 4, (saving, pickling, pickled)
    assert tree_equal(load_checkpoint(path), captured_tree)


def test_streamed_load_holds_no_raw_pickle(captured_tree, tmp_path):
    """Loading holds the compressed file and the tree it builds, plus
    bounded buffers; the inflated pickle never exists whole."""
    path = tmp_path / "t.ckpt"
    save_checkpoint(captured_tree, path)
    pickled = len(pickle.dumps(captured_tree,
                               protocol=pickle.HIGHEST_PROTOCOL))
    tracemalloc.start()
    try:
        tree = load_checkpoint(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < path.stat().st_size + pickled / 4, \
        (peak, kept, pickled)
    assert tree_equal(tree, captured_tree)
