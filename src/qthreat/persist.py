"""Artifact persistence: JSON headers, raw float64 array files, content hashes.

All array files are little-endian float64, row-major, no header; shapes live
in the accompanying JSON. JSON floats are written with Python's repr, which
round-trips float64 bit-exactly.

Readers take an optional `unverified` map (path -> sha256) of bundle files
whose manifest hashes are still unchecked. A read of a file in that map
hashes the bytes it parses against the entry and takes the entry out, so a
caller that opens a bundle hashes each file once: on its loader's read, or
in `check_files` for what no loader read.
"""
from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, Optional

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


def _read_file(path, unverified: Optional[Dict[Path, str]] = None,
               sha256: Optional[str] = None) -> np.ndarray:
    """The bytes of a file as uint8, read once into one writable buffer (not
    zero-filled first) and hashed at most once. When `unverified` holds
    `path`, its entry is taken out and the bytes must hash to it, else
    ValueError; when `sha256` is given (the hash a header recorded), they
    must hash to it too, else ValueError naming the file."""
    with open(path, "rb") as f:
        data = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        if f.readinto(data) != data.size:
            raise ValueError(f"{path} changed size while it was read")
    entry = unverified.pop(Path(path), None) if unverified is not None else None
    if entry is None and sha256 is None:
        return data
    actual = sha256_bytes(data)
    if entry is not None and actual != entry:
        raise ValueError(f"bundle file {path} fails its hash check")
    if sha256 is not None and actual != sha256:
        raise ValueError(f"{Path(path).name} does not match its recorded sha256")
    return data


def check_files(unverified: Dict[Path, str]) -> None:
    """Stream each file of `unverified` through sha256 against its entry,
    emptying the map; ValueError on the first mismatch."""
    for path in list(unverified):
        if sha256_file(path) != unverified.pop(path):
            raise ValueError(f"bundle file {path} fails its hash check")


def load_verified_f64(path, shape, sha256: str,
                      unverified: Optional[Dict[Path, str]] = None) -> np.ndarray:
    """The array of a file whose bytes must have this sha256, else
    ValueError("<name> does not match its recorded sha256"), and its
    `unverified` entry if it has one (_read_file). The bytes hashed are the
    bytes parsed in place."""
    data = _read_file(path, unverified, sha256)
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


def load_json(path, unverified: Optional[Dict[Path, str]] = None):
    """A JSON file, hash-checked on this read when `unverified` holds it."""
    return json.loads(_read_file(path, unverified).tobytes())


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def relative_file_map(root, names):
    """sha256 of each named file under root, keyed by name."""
    root = Path(root)
    return {name: sha256_file(root / name) for name in names if os.path.exists(root / name)}
