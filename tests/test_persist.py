import builtins

import numpy as np
import pytest

from qthreat import datapipe, encoder, persist, qsvm, vqc


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
    loaded = persist.load_verified_f64(tmp_path / "sub" / "x.f64", (3, 4), sha)
    assert np.array_equal(loaded, arr)
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
    loaded = persist.load_verified_f64(tmp_path / "a.f64", (2, 3), sha)
    assert np.array_equal(loaded, arr) and loaded.dtype == np.float64
    assert loaded.flags.writeable
    raw = bytearray((tmp_path / "a.f64").read_bytes())
    raw[0] ^= 1
    (tmp_path / "a.f64").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="a.f64 does not match its recorded sha256"):
        persist.load_verified_f64(tmp_path / "a.f64", (2, 3), sha)


def test_a_file_shorter_than_its_stat_is_rejected(tmp_path, monkeypatch):
    sha = persist.save_array_f64(tmp_path / "a.f64", np.arange(4.0))
    real_fstat = persist.os.fstat

    class _Grown:
        def __init__(self, st):
            self.st_size = st.st_size + 8

    monkeypatch.setattr(persist.os, "fstat", lambda fd: _Grown(real_fstat(fd)))
    with pytest.raises(ValueError, match="changed size while it was read"):
        persist.load_verified_f64(tmp_path / "a.f64", (4,), sha)


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
    if name == "encoder.f64":
        config = encoder.EncoderConfig(input_dim=4, hidden_sizes=(3,), embed_dim=2, seed=0)
        encoder.save_encoder(encoder.init_encoder(config), tmp_path)
        load = encoder.load_encoder
    elif name == "vqc.f64":
        vqc.save_vqc(vqc.init_vqc(vqc.VqcSpec(2, 1), seed=0), tmp_path)
        load = vqc.load_vqc
    else:
        datapipe.save_split(datapipe.load_lingspam(lingspam_dir, seed=0), tmp_path)
        load = datapipe.load_split
    load(tmp_path)
    raw = bytearray((tmp_path / name).read_bytes())
    raw[0] ^= 1
    (tmp_path / name).write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"^{name} does not match its recorded sha256$"):
        load(tmp_path)


@pytest.mark.parametrize(
    "load",
    [datapipe.load_split, encoder.load_encoder, vqc.load_vqc, qsvm.load_svm],
)
def test_loaders_do_not_create_missing_directories(tmp_path, load):
    missing = tmp_path / "bundle" / "stage"
    with pytest.raises(FileNotFoundError):
        load(missing)
    assert list(tmp_path.iterdir()) == []
