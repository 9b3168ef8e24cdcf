"""The ``.ckpt`` on-disk format: a validated plain tree, checksummed.

A checkpoint is a *plain tree*: nested ``dict``s with string keys whose
leaves are scalars, strings, bytes, ``None``, lists/tuples of plain
values, or numpy arrays.  :func:`check_tree` (in place) and
:func:`validate_tree` (copying) enforce that shape at capture time, so
anything a layer's ``snapshot_state()`` sneaks in that is not data (a
bound method, a generator, an event object) fails loudly at the
``snapshot()`` call, not as an unpicklable surprise at restore time in
another process.

The envelope is deliberately boring::

    8 bytes   magic  b"RPROCKP1"
    2 bytes   format version (little-endian u16)
    32 bytes  sha256 of the compressed payload
    8 bytes   payload length (little-endian u64)
    N bytes   zlib-compressed pickle of the validated tree

The checksum makes a torn write (crash mid-checkpoint) detectable: the
loader raises :class:`CheckpointError` instead of unpickling garbage.
Writes go through a temp file + ``os.replace`` so a ``.ckpt`` path is
always either the previous complete checkpoint or the new one.

Both directions stream.  :func:`save_checkpoint` pickles straight into
a compressor whose output is hashed and written as it comes, then seeks
back to fill in the header, so neither the pickle nor the payload ever
exists as one ``bytes``.  :func:`load_checkpoint` verifies the
compressed payload's checksum first and only then unpickles from a
decompressing reader, so the raw pickle never sits in memory either.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, BinaryIO, Union

import numpy as np

MAGIC = b"RPROCKP1"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<8sH32sQ")
_LEVEL = 6
#: bytes fed to the compressor, or the decompressor, per step
_STEP = 1 << 16


class CheckpointError(RuntimeError):
    """Raised for malformed trees, damaged files, or version skew."""


_SCALARS = (str, int, float, bool, bytes, type(None))


def validate_tree(value: Any, path: str = "$") -> Any:
    """Check that ``value`` is a plain tree; return a normalised copy.

    Numpy scalar types are coerced to their Python equivalents so the
    tree compares cleanly with ``==`` after a round-trip; containers are
    copied (a snapshot must not alias live simulator state).
    """
    if isinstance(value, bool) or value is None or isinstance(value, str) \
            or isinstance(value, bytes):
        return value
    # numpy scalars first: np.float64 subclasses float and would
    # otherwise slip through unnormalised
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"non-string key {key!r} at {path}")
            out[key] = validate_tree(sub, f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        items = [validate_tree(sub, f"{path}[{i}]")
                 for i, sub in enumerate(value)]
        return items if isinstance(value, list) else tuple(items)
    raise _not_plain(value, path)


def _not_plain(value: Any, path: str) -> CheckpointError:
    return CheckpointError(
        f"{type(value).__name__} at {path} is not checkpointable "
        f"(plain trees only: dict/list/tuple/scalars/bytes/ndarray)")


def check_tree(tree: Any) -> Any:
    """Check that ``tree`` is a plain tree without copying it.

    The in-place counterpart of :func:`validate_tree` for a tree nobody
    else holds (a fresh capture); it modifies the tree.  Numpy scalars
    are normalised where they sit, and the few values that would pickle
    differently from ``validate_tree``'s copy (a tuple holding a numpy
    scalar, a container subclass, a non-C-ordered or read-only array)
    are replaced by that copy.  So unless one container or array
    appears twice in it (pickle writes the repeat as a reference, the
    copy holds it twice), the tree pickles to exactly the bytes of
    ``validate_tree(tree)``.  Arrays are not copied: the tree must not
    alias live state.
    """
    return _checked(tree, inplace=True)


def _checked(tree: Any, inplace: bool) -> Any:
    """``check_tree``; with ``inplace=False`` the tree is left untouched
    and, if anything in it would be normalised, copied whole instead."""
    try:
        return _check(tree, inplace)
    except _NeedsCopy:
        return validate_tree(tree)
    except CheckpointError:
        validate_tree(tree)     # raises again, naming the offending path
        raise


class _NeedsCopy(Exception):
    """A read-only check met a value that ``validate_tree`` would change."""


_ATOMS = frozenset({str, int, float, bool, bytes, type(None)})
_NUMPY_SCALARS = (np.bool_, np.integer, np.floating)


def _check(value: Any, inplace: bool) -> Any:
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        for key, sub in value.items():
            if not isinstance(key, str):
                raise CheckpointError(f"non-string key {key!r}")
            checked = _check(sub, inplace)
            if checked is not sub:
                if not inplace:
                    raise _NeedsCopy
                value[key] = checked
        return value
    if kind is list:
        for i, sub in enumerate(value):
            checked = _check(sub, inplace)
            if checked is not sub:
                if not inplace:
                    raise _NeedsCopy
                value[i] = checked
        return value
    if kind is tuple:
        for sub in value:
            if _check(sub, inplace) is not sub:
                return validate_tree(value)
        return value
    if kind is np.ndarray:
        flags = value.flags
        return value if flags.c_contiguous and flags.writeable \
            else value.copy()
    if isinstance(value, (*_NUMPY_SCALARS, dict, list, tuple, np.ndarray)):
        return validate_tree(value)     # normalised or rebuilt as plain
    if isinstance(value, (str, int, float, bytes)):
        return value
    raise _not_plain(value, "$")


def tree_equal(a: Any, b: Any) -> bool:
    """Deep equality over plain trees (ndarray-aware)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and bool(np.array_equal(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and \
            all(tree_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and \
            all(tree_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class _PayloadSink:
    """File-like sink for the pickler: compresses what it is given,
    hashes the compressed bytes, and writes them to ``fh``."""

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._zip = zlib.compressobj(_LEVEL)
        self.sha = hashlib.sha256()
        self.length = 0

    def write(self, data) -> None:
        # a large array arrives whole, as a pickle.PickleBuffer over its
        # memory; feed it in steps so no output chunk grows with it
        view = data.raw() if isinstance(data, pickle.PickleBuffer) \
            else memoryview(data)
        for start in range(0, len(view), _STEP):
            self._emit(self._zip.compress(view[start:start + _STEP]))

    def close(self) -> None:
        self._emit(self._zip.flush())

    def _emit(self, chunk: bytes) -> None:
        if chunk:
            self.sha.update(chunk)
            self._fh.write(chunk)
            self.length += len(chunk)


def _write_envelope(tree: dict, fh: BinaryIO) -> int:
    """Stream the envelope of a checked tree into the seekable ``fh``;
    returns the byte size."""
    start = fh.tell()
    fh.write(bytes(_HEAD.size))       # placeholder until the digest is known
    sink = _PayloadSink(fh)
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(tree)
    sink.close()
    end = fh.tell()
    fh.seek(start)
    fh.write(_HEAD.pack(MAGIC, FORMAT_VERSION, sink.sha.digest(),
                        sink.length))
    fh.seek(end)
    return end - start


class _Inflater(io.RawIOBase):
    """Raw reader over a zlib payload, inflated a bounded step at a time."""

    def __init__(self, payload: memoryview):
        self._payload = payload
        self._pos = 0
        self._zip = zlib.decompressobj()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        want = len(buffer)
        if not want:            # max_length=0 would mean "no limit"
            return 0
        while True:
            data = self._zip.unconsumed_tail
            if not data:
                if self._pos >= len(self._payload):
                    return 0
                data = self._payload[self._pos:self._pos + _STEP]
                self._pos += len(data)
            try:
                out = self._zip.decompress(data, want)
            except zlib.error as exc:
                raise CheckpointError(
                    f"checkpoint payload does not inflate: {exc}") from exc
            if out:
                buffer[:len(out)] = out
                return len(out)


def dumps(tree: dict) -> bytes:
    """Serialize a (validated) plain tree into the envelope bytes."""
    buffer = io.BytesIO()
    _write_envelope(validate_tree(tree), buffer)
    return buffer.getvalue()


def loads(blob: bytes) -> dict:
    """Parse envelope bytes back into the tree (checksum-verified)."""
    if len(blob) < _HEAD.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(blob)} bytes is shorter than "
            f"the {_HEAD.size}-byte header")
    magic, version, digest, length = _HEAD.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if version > FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} is newer than this "
            f"reader (v{FORMAT_VERSION})")
    payload = memoryview(blob)[_HEAD.size:_HEAD.size + length]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint truncated: payload is {len(payload)} of "
            f"{length} bytes")
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("checkpoint checksum mismatch (torn write?)")
    return pickle.Unpickler(io.BufferedReader(_Inflater(payload))).load()


def save_checkpoint(tree: dict, path: Union[str, Path]) -> int:
    """Write ``tree`` to ``path`` atomically, leaving ``tree`` itself
    unmodified; returns the byte size.

    A tree that is plain as it stands (a capture, which
    :func:`check_tree` already normalised) is streamed to disk without
    a copy; any other is first copied by :func:`validate_tree`.  Unless
    one container or array appears twice in the tree, the file holds
    exactly ``dumps(tree)``.
    """
    path = Path(path)
    tree = _checked(tree, inplace=False)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        size = _write_envelope(tree, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return size


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read and verify a ``.ckpt`` file written by :func:`save_checkpoint`.

    Only the compressed file is read into memory; its checksum is
    verified before anything is unpickled.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    return loads(blob)
