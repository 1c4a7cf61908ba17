"""Artifact persistence: JSON headers, raw float64 array files, content hashes.

All array files are little-endian float64, row-major, no header; shapes live
in the accompanying JSON. JSON floats are written with Python's repr, which
round-trips float64 bit-exactly.
"""
from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path

import numpy as np


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stage_key(stage: str, config_slice, input_hashes) -> str:
    """Content key for resume-by-hash: stage name + config slice + inputs."""
    payload = canonical_json(
        {"stage": stage, "config": config_slice, "inputs": input_hashes}
    )
    return sha256_bytes(payload.encode("utf-8"))


def _write_atomic(path, data) -> None:
    """Write `data` to a temp file beside `path`, then rename it over
    `path`: readers see the old file or the new one, never a torn write.
    A failed write removes its temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_array_f64(path, arr: np.ndarray) -> str:
    """Write a float64 array as raw little-endian bytes; returns its sha256.

    Memory: the bytes are hashed and written from a view of the array, so
    a C-contiguous `<f8` array (such as a Gram) is never copied.
    """
    data = memoryview(np.ascontiguousarray(arr, dtype="<f8").reshape(-1).view(np.uint8))
    _write_atomic(path, data)
    return sha256_bytes(data)


def load_verified_f64(path, shape, sha256: str, mismatch: str) -> np.ndarray:
    """The array of a file whose bytes must have this sha256, else
    ValueError(mismatch). The file is read once into one writable buffer,
    and the bytes hashed are the bytes parsed in place."""
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        f.readinto(data)
    if sha256_bytes(data) != sha256:
        raise ValueError(mismatch)
    arr = np.frombuffer(data, dtype="<f8").astype(np.float64, copy=False)
    expected = int(np.prod(shape)) if shape else arr.size
    if arr.size != expected:
        raise ValueError(
            f"{path}: expected {expected} float64 values, found {arr.size}"
        )
    return arr.reshape(shape)


def save_json(path, obj) -> str:
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write_atomic(path, data)
    return sha256_bytes(data)


def load_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def relative_file_map(root, names):
    """sha256 of each named file under root, keyed by name."""
    root = Path(root)
    return {name: sha256_file(root / name) for name in names if os.path.exists(root / name)}
