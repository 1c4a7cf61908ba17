import builtins

import numpy as np
import pytest

from qthreat import datapipe, encoder, featuremap, persist, vqc


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
        (persist.save_array_f64, np.arange(6.0), np.linspace(0.0, 1.0, 5000)),
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


def test_saves_return_hash_of_written_bytes(tmp_path):
    sha = persist.save_json(tmp_path / "a.json", {"b": [1, 2.5]})
    assert sha == persist.sha256_file(tmp_path / "a.json")
    assert persist.load_json(tmp_path / "a.json") == {"b": [1, 2.5]}
    arr = np.arange(12.0).reshape(3, 4)
    sha = persist.save_array_f64(tmp_path / "sub" / "x.f64", arr)
    assert sha == persist.sha256_file(tmp_path / "sub" / "x.f64")
    assert np.array_equal(persist.load_array_f64(tmp_path / "sub" / "x.f64", (3, 4)), arr)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.json", "sub", "x.f64"]


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
    sha = persist.save_array_f64(tmp_path / "a.f64", arr)
    assert (tmp_path / "a.f64").read_bytes() == np.ascontiguousarray(arr, "<f8").tobytes()
    assert sha == persist.sha256_file(tmp_path / "a.f64")


def test_verified_load_checks_the_bytes_it_parses(tmp_path):
    arr = np.arange(6.0).reshape(2, 3)
    sha = persist.save_array_f64(tmp_path / "a.f64", arr)
    loaded = persist.load_verified_f64(tmp_path / "a.f64", (2, 3), sha, "a.f64 tampered")
    assert np.array_equal(loaded, arr) and loaded.dtype == np.float64
    assert loaded.flags.writeable
    raw = bytearray((tmp_path / "a.f64").read_bytes())
    raw[0] ^= 1
    (tmp_path / "a.f64").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="a.f64 tampered"):
        persist.load_verified_f64(tmp_path / "a.f64", (2, 3), sha, "a.f64 tampered")


@pytest.mark.parametrize(
    "load",
    [datapipe.load_split, encoder.load_encoder, vqc.load_vqc,
     featuremap.load_gram_bundle, featuremap.load_centering_means],
)
def test_loaders_do_not_create_missing_directories(tmp_path, load):
    missing = tmp_path / "bundle" / "stage"
    with pytest.raises(FileNotFoundError):
        load(missing)
    assert list(tmp_path.iterdir()) == []
