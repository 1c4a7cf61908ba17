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
import re
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


# the name of _write_atomic's temp file: "." + target name + "." + 32 hex + ".tmp"
_TEMP_NAME = re.compile(r"\..+\.[0-9a-f]{32}\.tmp")


def _write_atomic(path, blocks) -> None:
    """Write the bytes-like `blocks`, in order, to a temp file beside
    `path`, then rename it over `path`: readers see the old file or the new
    one, never a torn write. A failed write removes its temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            for block in blocks:
                f.write(block)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_temp_files(directory) -> None:
    """Remove the files in `directory` (not below it) named as _write_atomic
    names its temp files, which a process killed mid-write leaves behind."""
    for p in Path(directory).iterdir():
        if _TEMP_NAME.fullmatch(p.name) and p.is_file():
            p.unlink()


def save_array_f64(path, arr: np.ndarray) -> str:
    """Write an array as row-major little-endian float64 bytes; returns their
    sha256 (save_arrays_f64 of the one array)."""
    return save_arrays_f64(path, (arr,))


def save_arrays_f64(path, arrays) -> str:
    """Write the arrays, each flattened row-major, one after another as
    little-endian float64 bytes; returns the sha256 of the file.

    Memory: a C-contiguous `<f8` array is hashed and written from a view. Any
    other (a float32 feature matrix, say) is cast into one reused 1 MiB float64
    buffer, the chunk sha256_file reads, and hashed and written a block at a time."""
    flats = [np.ascontiguousarray(a).reshape(-1) for a in arrays]
    cast = max((f.size for f in flats if f.dtype != np.dtype("<f8")), default=0)
    cast = np.empty(min(cast, 1 << 17), "<f8")
    h = hashlib.sha256()

    def blocks():
        for flat in flats:
            buf = flat if flat.dtype == np.dtype("<f8") else cast
            for i in range(0, flat.size, max(buf.size, 1)):
                part = buf[:flat.size - i]
                if buf is not flat:
                    part[...] = flat[i:i + buf.size]
                data = memoryview(part.view(np.uint8))
                h.update(data)
                yield data

    _write_atomic(path, blocks())
    return h.hexdigest()


def _check_hash(path, digest: str, entry: Optional[str], sha256: Optional[str]) -> None:
    """ValueError unless `digest` matches the bundle manifest's `entry` and the
    `sha256` a header recorded, each when given; the manifest's is checked first."""
    if entry is not None and digest != entry:
        raise ValueError(f"bundle file {path} fails its hash check")
    if sha256 is not None and digest != sha256:
        raise ValueError(f"{Path(path).name} does not match its recorded sha256")


def _pop(unverified: Optional[Dict[Path, str]], path) -> Optional[str]:
    return unverified.pop(Path(path), None) if unverified is not None else None


def _read_file(path, unverified: Optional[Dict[Path, str]] = None) -> np.ndarray:
    """The bytes of a file as uint8, read once into one buffer (not
    zero-filled first) and hashed at most once. When `unverified` holds
    `path`, its entry is taken out and the bytes must hash to it, else
    ValueError."""
    with open(path, "rb") as f:
        data = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        if f.readinto(data) != data.size:
            raise ValueError(f"{path} changed size while it was read")
    entry = _pop(unverified, path)
    if entry is not None:
        _check_hash(path, sha256_bytes(data), entry, None)
    return data


def check_files(unverified: Dict[Path, str]) -> None:
    """Stream each file of `unverified` through sha256 against its entry,
    emptying the map; ValueError on the first mismatch."""
    for path in list(unverified):
        if sha256_file(path) != unverified.pop(path):
            raise ValueError(f"bundle file {path} fails its hash check")


def load_verified_f64(path, shape, sha256: str,
                      unverified: Optional[Dict[Path, str]] = None, dtype=np.float64) -> np.ndarray:
    """The array of a float64 file whose bytes must have this sha256, else
    ValueError("<name> does not match its recorded sha256"); when
    `unverified` holds the file, its entry is taken out and the bytes must
    hash to it first, else ValueError. The file is read and hashed once.

    A float64 result is read into in place. A float32 one (a float32
    matrix's file read back) takes its values cast from one reused 1 MiB
    float64 buffer, the block that is read and hashed, so no float64 copy of
    the file is held. A file written from float32 values casts back bit for
    bit; values of a damaged file may overflow the cast, and its hash check
    fails after the read."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        out = np.empty(size // 8, dtype)
        buf = out if out.dtype == np.dtype("<f8") else np.empty(min(out.size, 1 << 17), "<f8")
        for i in range(0, out.size, max(buf.size, 1)):
            part = buf[:out.size - i]
            if f.readinto(part.view(np.uint8)) != part.nbytes:
                raise ValueError(f"{path} changed size while it was read")
            h.update(part.view(np.uint8))
            if buf is not out:
                with np.errstate(over="ignore"):
                    out[i:i + part.size] = part
        tail = f.read(size % 8)
        h.update(tail)
    _check_hash(path, h.hexdigest(), _pop(unverified, path), sha256)
    expected = int(np.prod(shape)) if shape else out.size
    if tail or out.size != expected:
        raise ValueError(f"{path}: expected {expected} float64 values, found {size / 8:g}")
    return out.reshape(shape)


def save_json(path, obj) -> str:
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write_atomic(path, (data,))
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
