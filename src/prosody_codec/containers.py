"""Self-describing binary container: JSON header + named float arrays.

Used for model/train checkpoints and the mel feature cache. Writes are
atomic (temp file + rename) and canonical (sorted array names, compact
sorted-key JSON), so identical state produces identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import DataError

_MAGIC = b"PRCT"
_VERSION = 1

_DTYPES = ("<f8", "<f4", "<i8")


def _canonical_dtype(arr: np.ndarray) -> str:
    kind = arr.dtype.kind
    if kind == "f":
        return "<f8" if arr.dtype.itemsize == 8 else "<f4"
    if kind == "i":
        return "<i8"
    raise DataError(f"container: unsupported dtype {arr.dtype}")


def write_container(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dtype = _canonical_dtype(arr)
        arr = arr.astype(dtype, copy=False)
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"meta": meta, "arrays": entries}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-container-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", _VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read container {path}: {exc}") from exc
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise DataError(f"{path}: not a container file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _VERSION:
        raise DataError(f"{path}: container version mismatch: expected {_VERSION}, found {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    if 16 + header_len > len(raw):
        raise DataError(f"{path}: truncated header ({len(raw)} bytes total)")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an over-long integer
        raise DataError(f"{path}: corrupt container header: {exc}") from exc
    entries = header.get("arrays", []) if isinstance(header, dict) else None
    if not (
        isinstance(entries, list)
        and isinstance(header.get("meta", {}), dict)
        and all(isinstance(e, dict) and e.keys() == {"name", "dtype", "shape"} for e in entries)
    ):
        raise DataError(f"{path}: corrupt container header: not {{meta, arrays: [{{name, dtype, shape}}]}}")
    offset = 16 + header_len
    arrays: dict[str, np.ndarray] = {}
    for entry in entries:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if not isinstance(name, str) or dtype not in _DTYPES:
            raise DataError(f"{path}: array {name!r} has unsupported dtype {dtype!r}")
        if name in arrays:
            raise DataError(f"{path}: array {name!r} is named twice")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"{path}: array {name!r} has a bad shape {shape!r}")
        count = math.prod(shape)
        nbytes = count * np.dtype(dtype).itemsize
        if offset + nbytes > len(raw):
            raise DataError(
                f"{path}: truncated array {name!r}: need {nbytes} bytes at "
                f"offset {offset}, file has {len(raw)}"
            )
        arrays[name] = np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} bytes after the last array")
    return header.get("meta", {}), arrays
