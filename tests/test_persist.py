import ast
import builtins
import dataclasses
import hashlib
import re
import tempfile
import uuid
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qthreat import datapipe, encoder, featuremap, harness, metrics, persist, qsvm, vqc


class _TornFile:
    """A binary file whose write stores half of the bytes, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()
        return False


@pytest.mark.parametrize(
    "save, first, second",
    [
        (persist.save_json, {"status": "complete"}, {"status": "incomplete", "pad": "x" * 4096}),
        (persist.save_arrays, [np.arange(6.0)], [np.linspace(0.0, 1.0, 5000)]),
        (persist.save_text, "0, 1, 1, 1, 0, 0, 0\n", "x" * 4096),
    ],
)
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, save, first, second):
    path = tmp_path / "artifact"
    save(path, first)
    before = path.read_bytes()

    def torn_open(file, mode="r", *args, **kwargs):
        return _TornFile(builtins.open(file, mode, *args, **kwargs))

    monkeypatch.setattr(persist, "open", torn_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save(path, second)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


_RECORDS = {
    "FeatureMapSpec": (featuremap.FeatureMapSpec, {"num_qubits": 4}),
    "VqcSpec": (vqc.VqcSpec, {"num_qubits": 4}),
    "EncoderConfig": (encoder.EncoderConfig, {"input_dim": 8}),
    "Seeds": (harness.Seeds, {}),
    "MetricsReport": (metrics.MetricsReport, dict(
        accuracy=0.5, macro_f1=0.5, f_beta=0.5, auroc=0.5, auprc=0.5,
        confusion=metrics.ConfusionCounts(1, 1, 1, 1), threshold=0.0)),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_a_records_every_field_reaches_its_dict(name):
    # each record is written from its dataclass's fields, so a field added to
    # the class is recorded without a second list to update
    cls, args = _RECORDS[name]
    extended = dataclasses.make_dataclass(
        "Extended", [("added", int, dataclasses.field(default=7))], bases=(cls,), frozen=True)
    assert extended(**args).as_dict()["added"] == 7


def test_saves_round_trip_through_their_loaders(tmp_path):
    assert persist.save_json(tmp_path / "a.json", {"b": [1, 2.5]}) is None
    assert persist.load_json(tmp_path / "a.json") == {"b": [1, 2.5]}
    arr = np.arange(12.0).reshape(3, 4)
    persist.save_arrays(tmp_path / "sub" / "x.f64", (arr,))
    [loaded] = persist.load_arrays(tmp_path / "sub" / "x.f64", [("<f8", (3, 4))])
    assert np.array_equal(loaded, arr)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.json", "sub", "x.f64"]


def test_save_text_writes_utf8_through_a_rename_and_creates_missing_parents(
    tmp_path, monkeypatch
):
    path = tmp_path / "new" / "dir" / "audit.csv"
    renames = []
    real = persist.os.replace
    monkeypatch.setattr(persist.os, "replace", lambda a, b: renames.append(b) or real(a, b))
    persist.save_text(path, "0, 1, 1\nµ\n")
    assert path.read_bytes() == "0, 1, 1\nµ\n".encode("utf-8") and renames == [path]
    assert [p.name for p in path.parent.iterdir()] == ["audit.csv"]


def test_a_write_removes_only_its_own_paths_stale_temp_files(tmp_path):
    # a process killed inside _write_atomic leaves .<name>.<32 hex>.tmp beside
    # its target; the next write of that path removes it, and keeps another
    # path's temp files and names that only look like one of its own
    h = uuid.uuid4().hex
    stale = [f".audit.csv.{h}.tmp", f".audit.csv.{uuid.uuid4().hex}.tmp"]
    kept = [
        f".other.csv.{h}.tmp", f".x.audit.csv.{h}.tmp", f".audit.csv.{h[:31]}.tmp",
        f".audit.csv.{h.upper()}.tmp", f"audit.csv.{h}.tmp", f".audit.csv.{h}.tmp.bak",
    ]
    for name in stale + kept:
        (tmp_path / name).write_text("partial")
    persist.save_text(tmp_path / "audit.csv", "0, 1, 1\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["audit.csv"])


@pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (5 << 19) + 3])
def test_sha256_file_hashes_every_block(tmp_path, size):
    # files shorter than, equal to and longer than the 1 MiB read buffer
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    (tmp_path / "f").write_bytes(data)
    assert persist.sha256_file(tmp_path / "f") == hashlib.sha256(data).hexdigest()


_WRITE_CALLS = {"write_text", "write_bytes", "tofile"}
_NUMPY_SAVES = {"save", "savez", "savez_compressed", "savetxt"}


def _writes_outside_persist(source: str):
    """(line, call) of each write in `source`: an open whose mode may write
    (w, a, x or +, or a mode that is not a string literal, as os.open's
    flags are not), a Path.write_text or write_bytes, an ndarray.tofile or
    a numpy save."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(getattr(func, "value", None), "id", None)  # the x of x.name(...)
        if name == "open":
            # open(file, mode), io.open and os.open; a method such as Path.open(mode)
            pos = 1 if isinstance(func, ast.Name) or owner in ("io", "os") else 0
            mode = node.args[pos] if len(node.args) > pos else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r")
            )
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or set(mode.value) & set("wax+"):
                found.append((node.lineno, ast.unparse(node)))
        elif name in _WRITE_CALLS or (name in _NUMPY_SAVES and owner in ("np", "numpy")):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_only_persist_writes_files():
    # every file the package writes goes through persist._write_atomic's
    # temp-and-rename, so no other module opens a file to write it
    src = Path(persist.__file__).parent
    writes = {
        p.name: _writes_outside_persist(p.read_text(encoding="utf-8"))
        for p in sorted(src.glob("*.py")) if p.name != "persist.py"
    }
    assert {name: w for name, w in writes.items() if w} == {}
    # the scan sees each kind of write it forbids
    probe = (
        'open(p, "w"); open(p, mode="ab"); open(p, "r+"); open(p, m); Path(p).open("x")\n'
        'p.write_text(t); p.write_bytes(b); a.tofile(p); np.save(p, a); numpy.savetxt(p, a)\n'
        'io.open(p, "w"); os.open(p, flags)\n'
        'open(p); open(p, "rb"); open(p, mode="r"); Path(p).open(); io.open(p, "rb")\n'
        'p.read_text(); p.read_bytes(); np.load(p); np.fromfile(p)\n'
    )
    assert sorted(line for line, _ in _writes_outside_persist(probe)) == [1] * 5 + [2] * 5 + [3] * 2


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.asfortranarray(np.linspace(-1.0, 1.0, 12).reshape(3, 4)),
        np.linspace(0.0, 2.0, 7).astype(">f8"),
        np.arange(20.0)[::3],
        np.zeros((0, 3)),
    ],
    ids=["float32", "fortran", "big-endian", "strided", "empty"],
)
def test_save_array_f64_writes_contiguous_little_endian_bytes(tmp_path, arr):
    persist.save_arrays(tmp_path / "a.f64", (arr,))
    want = np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).tobytes()
    assert (tmp_path / "a.f64").read_bytes() == want


# the unsigned type of each dtype the pipeline writes, drawn for every bit pattern
_BITS = {"<f8": "<u8", "<f4": "<u4", "<i8": "<u8", "<i4": "<u4"}


@st.composite
def _array_files(draw):
    """The arrays of one file, each of any bits: a float64, float32 or int64
    array of up to two dimensions, or a CSR triple (int64 indptr, int32
    column indices, float32 values); empty arrays included."""
    n, nnz = draw(st.integers(0, 5)), draw(st.integers(0, 8))
    layout = draw(st.one_of(
        st.tuples(st.sampled_from(["<f8", "<f4", "<i8"]),
                  array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5)).map(lambda ts: [ts]),
        st.just([("<i8", (n + 1,)), ("<i4", (nnz,)), ("<f4", (nnz,))]),
    ))
    return [draw(arrays(_BITS[dtype], shape)).view(dtype) for dtype, shape in layout]


@settings(max_examples=80, deadline=None)
@given(_array_files())
@example([np.array([0.0, -0.0, np.nan, -np.inf], "<f8"),
          np.array([0x7FF0000000000001, 0xFFF8000000000ABC], "<u8").view("<f8")])
@example([np.array([-0.0, np.nan], "<f4"), np.array([0x7F800001, 0xFFC00ABC], "<u4").view("<f4")])
@example([np.zeros(1, "<i8"), np.zeros(0, "<i4"), np.zeros(0, "<f4")])
@example([np.zeros((0, 3), "<f8")])
def test_every_array_dtype_reads_back_bit_for_bit(arrays_):
    # each array comes back in its own dtype and shape with its own bits
    # (-0.0 and NaN payloads too); a file one byte short or long fails its
    # size check even under its own hash, and its hash check under the saved one
    layout = [(a.dtype.str, a.shape) for a in arrays_]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a"
        persist.save_arrays(path, arrays_)
        sha = persist.sha256_file(path)
        for got, want in zip(persist.load_arrays(path, layout, {path: sha}), arrays_):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        blob = path.read_bytes()
        for damaged in ([blob[:-1]] if blob else []) + [blob + b"\0"]:
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match="expected"):
                persist.load_arrays(path, layout, {path: persist.sha256_bytes(damaged)})
            with pytest.raises(ValueError, match="fails its hash check"):
                persist.load_arrays(path, layout, {path: sha})


def test_verified_load_checks_the_bytes_it_parses(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    path = tmp_path / "a.f64"
    persist.save_arrays(path, (arr,))
    sha = persist.sha256_file(path)
    unverified = {path: sha}
    [loaded] = persist.load_arrays(path, [("<f8", (2, 3))], unverified)
    assert np.array_equal(loaded, arr) and loaded.dtype == np.float64
    assert loaded.flags.writeable and unverified == {}
    raw = bytearray(path.read_bytes())
    raw[0] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="a.f64 fails its hash check"):
        persist.load_arrays(path, [("<f8", (2, 3))], {path: sha})


def test_a_file_shorter_than_its_stat_is_rejected(tmp_path, monkeypatch):
    persist.save_arrays(tmp_path / "a.f64", (np.arange(4.0),))
    real_fstat = persist.os.fstat

    class _Grown:
        def __init__(self, st):
            self.st_size = st.st_size + 8

    monkeypatch.setattr(persist.os, "fstat", lambda fd: _Grown(real_fstat(fd)))
    with pytest.raises(ValueError, match="changed size while it was read"):
        persist.load_arrays(tmp_path / "a.f64", [("<f8", (4,))])


def test_loaded_encoder_params_are_writable_views_of_one_buffer(tmp_path):
    config = encoder.EncoderConfig(input_dim=4, hidden_sizes=(3,), embed_dim=2, seed=0)
    saved = encoder.init_encoder(config)
    encoder.save_encoder(saved, tmp_path)
    model, _ = encoder.load_encoder(tmp_path)
    bases = {id(p.base) for p in model.params.values()}
    assert len(bases) == 1
    for name, p in model.params.items():
        assert p.flags.writeable and p.flags.c_contiguous
        np.testing.assert_array_equal(p, saved.params[name])


@pytest.mark.parametrize(
    "name", ["encoder.f64", "idf.f64", "doc_freq.f64", "vqc.f64"]
)
def test_loaders_reject_a_flipped_byte(tmp_path, lingspam_dir, name):
    # each loader checks a file against the entry of the unverified map it is
    # given (a stage marker's or a manifest's), on the read that parses it
    if name == "encoder.f64":
        config = encoder.EncoderConfig(input_dim=4, hidden_sizes=(3,), embed_dim=2, seed=0)
        encoder.save_encoder(encoder.init_encoder(config), tmp_path)
        load = encoder.load_encoder
    elif name == "vqc.f64":
        vqc.save_vqc(vqc.init_vqc(vqc.VqcSpec(2, 1), seed=0), tmp_path)
        load = vqc.load_checkpoint
    else:
        datapipe.save_split(datapipe.load_lingspam(datapipe.lingspam_files(lingspam_dir), seed=0), tmp_path)
        load = datapipe.load_split
    hashes = {p: persist.sha256_file(p) for p in tmp_path.iterdir()}
    unverified = dict(hashes)
    load(tmp_path, unverified)
    assert unverified == {}
    raw = bytearray((tmp_path / name).read_bytes())
    raw[0] ^= 1
    (tmp_path / name).write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^bundle file {re.escape(str(tmp_path / name))} fails its hash check$"):
        load(tmp_path, dict(hashes))


@pytest.mark.parametrize(
    "load",
    [datapipe.load_split, encoder.load_encoder, vqc.load_vqc, qsvm.load_svm],
)
def test_loaders_do_not_create_missing_directories(tmp_path, load):
    missing = tmp_path / "bundle" / "stage"
    with pytest.raises(FileNotFoundError):
        load(missing)
    assert list(tmp_path.iterdir()) == []
