"""Artifact persistence: JSON headers, raw array files, text, content hashes.

Every file the package writes is renamed into place by _write_atomic: a killed
process leaves the old file or the new one, plus at most a .<name>.<32 hex>.tmp
file that the next write of the same name removes. Nothing is fsynced: a write
is not promised to survive a power loss.

An array file holds its arrays' own little-endian bytes, each row-major, one
after another, with no header: save_arrays writes them as they are and
load_arrays returns typed views of the bytes read, so no value is cast on
either side. Dtypes and shapes live in the accompanying JSON or in the
caller (a .f64 file is float64). JSON floats are written with Python's repr,
which round-trips float64 bit-exactly.

No file carries its own digest: the stage markers and the manifest record
every file's sha256 (harness). Readers take an optional `unverified` map
(path -> sha256) of files whose recorded hashes are still unchecked. A read
of a file in that map hashes the bytes it parses against the entry and takes
the entry out, so a caller that resumes a stage or opens a bundle hashes each
file once: on its loader's read, or in `check_files` for what no loader read.
A read of a file outside the map checks nothing.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import uuid
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_bytes(data) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    """sha256 of a file, read into one reused buffer of at most 1 MiB."""
    h = hashlib.sha256()
    with open(path, "rb", buffering=0) as f:
        buf = memoryview(bytearray(min(max(os.fstat(f.fileno()).st_size, 1), 1 << 20)))
        while n := f.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


def stage_key(stage: str, config_slice, input_hashes) -> str:
    """Content key for resume-by-hash: stage name + config slice + inputs."""
    payload = canonical_json(
        {"stage": stage, "config": config_slice, "inputs": input_hashes}
    )
    return sha256_bytes(payload.encode("utf-8"))


def _write_atomic(path, blocks) -> None:
    """Write the bytes-like `blocks`, in order, to a temp file beside
    `path`, .<name>.<32 hex>.tmp (creating missing parent directories
    first), then rename it over `path`: readers see the old file or the new
    one, never a torn write. A failed write removes its temp file; one
    killed mid-write leaves it, and the next write of `path` removes it
    first (no other file's temp file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stale = re.compile(re.escape(f".{path.name}.") + r"[0-9a-f]{32}\.tmp")
    for p in path.parent.iterdir():
        if stale.fullmatch(p.name) and p.is_file():
            p.unlink(missing_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as f:
            for block in blocks:
                f.write(block)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(path, arrays) -> None:
    """Write each array's own bytes, row-major and little-endian, one array
    after another. A C-contiguous little-endian array is written from a
    view; any other is first copied into that layout, in its own dtype."""
    views = []
    for a in arrays:
        a = np.asarray(a)
        a = np.ascontiguousarray(a, a.dtype.newbyteorder("<"))
        views.append(memoryview(a.reshape(-1).view(np.uint8)))
    _write_atomic(path, views)


def _read_file(path, unverified: Optional[Dict[Path, str]] = None) -> np.ndarray:
    """The bytes of a file as uint8, read once into one buffer (not
    zero-filled first). When `unverified` holds `path`, its entry is taken
    out and the bytes must hash to it, else ValueError."""
    with open(path, "rb") as f:
        data = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        if f.readinto(data) != data.size:
            raise ValueError(f"{path} changed size while it was read")
    entry = unverified.pop(Path(path), None) if unverified is not None else None
    if entry is not None and sha256_bytes(data) != entry:
        raise ValueError(f"bundle file {path} fails its hash check")
    return data


def check_files(unverified: Dict[Path, str]) -> None:
    """Stream each file of `unverified` through sha256 against its entry,
    emptying the map; ValueError on the first mismatch."""
    for path in list(unverified):
        if sha256_file(path) != unverified.pop(path):
            raise ValueError(f"bundle file {path} fails its hash check")


def load_arrays(path, layout, unverified: Optional[Dict[Path, str]] = None) -> List[np.ndarray]:
    """The arrays save_arrays wrote to `path`, as writable typed views of the
    one buffer the file is read into; `layout` gives each array's (dtype,
    shape) in file order, with little-endian dtypes. The bytes must match
    the entry `unverified` holds for the file, when it holds one, and the
    layout's size, else ValueError."""
    data = _read_file(path, unverified)
    layout = [(np.dtype(dtype), tuple(shape)) for dtype, shape in layout]
    sizes = [int(np.prod(shape)) * dtype.itemsize for dtype, shape in layout]
    if data.size != sum(sizes):
        raise ValueError(f"{path}: expected {sum(sizes)} bytes, found {data.size}")
    parts = np.split(data, np.cumsum(sizes)[:-1])
    return [part.view(dtype).reshape(shape) for part, (dtype, shape) in zip(parts, layout)]


def save_text(path, text: str) -> None:
    """Write `text` as UTF-8."""
    _write_atomic(path, (text.encode("utf-8"),))


def save_json(path, obj) -> None:
    data = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")
    _write_atomic(path, (data,))


def load_json(path, unverified: Optional[Dict[Path, str]] = None):
    """A JSON file, hash-checked on this read when `unverified` holds it."""
    return json.loads(_read_file(path, unverified).tobytes())

