"""End-to-end pipeline, bundle, streaming, matrix, and CLI tests on the
synthetic corpora from conftest."""
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qthreat import datapipe, featuremap, harness, metrics, persist, qsvm, vqc
from qthreat import cli
from qthreat.cli import main
from qthreat.encoder import load_encoder
from qthreat.harness import ExperimentConfig, PipelineError, Seeds
from qthreat.qsim import NoiseSpec

from conftest import write_nslkdd_pair
from oracles import block_scores, fidelity_kernel_shots, whole_centering, whole_gram


def _cdict(c):
    return {"tp": c.tp, "tn": c.tn, "fp": c.fp, "fn": c.fn}


@pytest.fixture(scope="module")
def make_config(nslkdd_dir):
    def build(**over):
        base = dict(
            experiment_id="t-qsvm",
            dataset="nslkdd",
            model="qsvm",
            train_path=str(nslkdd_dir / "KDDTrain+.txt"),
            test_path=str(nslkdd_dir / "KDDTest+.txt"),
            qubits=3,
            reps=1,
            reupload=2,
            hidden_sizes=(32, 16),
            embed_dim=8,
            dropout=0.1,
            epochs=4,
            batch_size=64,
            learning_rate=3e-3,
            patience=3,
            c_grid=(1.0, 10.0),
            cv_folds=2,
            max_train=240,
        )
        base.update(over)
        base["patience"] = min(base["patience"], base["epochs"])
        return ExperimentConfig(**base)

    return build


@pytest.fixture(scope="module")
def qsvm_bundle(make_config, tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle-qsvm")
    config = make_config()
    manifest = harness.run_experiment(config, d)
    return config, d, manifest


@pytest.fixture(scope="module")
def vqc_bundle(make_config, tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle-vqc")
    config = make_config(experiment_id="t-vqc", model="vqc", epochs=3)
    manifest = harness.run_experiment(config, d)
    return config, d, manifest


@pytest.fixture(scope="module")
def spam_vqc_bundle(make_config, lingspam_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle-spam-vqc")
    config = make_config(
        experiment_id="t-spam-vqc", dataset="lingspam", corpus_path=str(lingspam_dir),
        model="vqc", epochs=2,
    )
    manifest = harness.run_experiment(config, d)
    return config, d, manifest


class _CountingSha256:
    """hashlib.sha256 that adds every byte it is given to counter[0]."""

    def __init__(self, counter, data=b""):
        self._counter, self._h = counter, hashlib.sha256()
        self.update(data)

    def update(self, data):
        self._counter[0] += memoryview(data).nbytes
        self._h.update(data)

    def hexdigest(self):
        return self._h.hexdigest()


def _count_hashed_bytes(monkeypatch):
    """A one-item list that counts the bytes persist hashes from now on."""
    counter = [0]
    monkeypatch.setattr(persist, "hashlib", types.SimpleNamespace(
        sha256=lambda data=b"": _CountingSha256(counter, data)
    ))
    return counter


def _manifest_bytes(d, manifest):
    return sum((d / name).stat().st_size for name in manifest["files"])


def _two_class_subset(d):
    """The first two test rows of each class, for streams that report AUROC."""
    y = datapipe.load_split(d / "preprocess").y_test
    return np.sort(np.concatenate([np.flatnonzero(y == c)[:2] for c in (0, 1)]))


# ----------------------------------------------------------------- config


def test_config_roundtrip_and_unknown_keys(make_config):
    config = make_config(seeds=Seeds(1, 2, 3))
    again = ExperimentConfig.from_dict(config.as_dict())
    assert again == config
    assert again.config_sha() == config.config_sha()
    bad = config.as_dict()
    bad["surprise"] = 1
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(bad)
    bad_seed = config.as_dict()
    bad_seed["seeds"]["extra"] = 0
    with pytest.raises(ValueError, match="unknown seed keys"):
        ExperimentConfig.from_dict(bad_seed)


def test_config_validation(make_config):
    with pytest.raises(ValueError, match="embed_dim"):
        make_config(qubits=6, embed_dim=4)
    with pytest.raises(ValueError, match="dataset"):
        make_config(dataset="imagenet")
    with pytest.raises(ValueError, match="model"):
        make_config(model="transformer")
    with pytest.raises(ValueError, match="backend"):
        make_config(backend="hardware")
    with pytest.raises(ValueError, match="corpus_path"):
        make_config(dataset="lingspam")
    with pytest.raises(ValueError, match="reupload"):
        make_config(reupload=9)
    with pytest.raises(ValueError, match="seed"):
        make_config(seeds=Seeds(data=-1))
    # dict seeds are accepted and normalized
    assert make_config(seeds={"data": 5}).seeds == Seeds(5, 0, 0)


def test_config_sha_tracks_content(make_config):
    a = make_config()
    b = make_config(seeds=Seeds(1, 0, 0))
    assert a.config_sha() != b.config_sha()


# --------------------------------------------------------------- pipelines


def test_qsvm_pipeline_completes(qsvm_bundle):
    config, d, manifest = qsvm_bundle
    assert manifest["status"] == "complete"
    assert set(manifest["stages"]) == {"preprocess", "encoder", "svm"}
    m = manifest["metrics"]
    for key in ("accuracy", "macro_f1", "f_beta", "auroc", "auprc", "confusion"):
        assert key in m
    assert 0.0 <= m["accuracy"] <= 1.0
    assert manifest["versions"]["rng"] == "numpy-pcg64"
    assert manifest["conventions"]["second_order_coeff"] == "pi_minus"
    # every recorded file hash verifies
    bundle = harness.load_bundle(d)
    assert bundle.complete and bundle.config == config
    # no Gram is stored: val and test rows go through the observable
    assert not (d / "gram").exists()
    assert sorted(p.name for p in (d / "svm").iterdir()) == ["stage.json", "svm.json"]


def test_threshold_comes_from_validation(qsvm_bundle):
    config, d, manifest = qsvm_bundle
    split = datapipe.load_split(d / "preprocess")
    svm, support_angles, support_means = qsvm.load_svm(d / "svm" / "svm.json")
    enc_model, scaler = load_encoder(d / "encoder")

    def angles(x):
        return vqc.angles_from_features(x, enc_model, scaler, config.qubits)

    spec = config.feature_spec()
    # svm.json holds the support vectors' angle rows the fit was made on, and
    # their centring means in the train Gram
    np.testing.assert_array_equal(support_angles, angles(split.x_train)[svm.support])
    _, means, grand = whole_centering(whole_gram(angles(split.x_train), spec))
    np.testing.assert_allclose(support_means, means[svm.support], rtol=0.0, atol=1e-12)
    score = qsvm.observable_scorer(svm, support_angles, support_means, spec)
    val_scores = score(angles(split.x_val))
    assert qsvm.tune_threshold(val_scores, split.y_val, 2.0) == manifest["threshold"]
    assert svm.threshold == manifest["threshold"]
    # the observable reproduces scoring through centred Gram rows
    oracle = block_scores(svm, angles(split.x_train), angles(split.x_val), spec, means, grand)
    np.testing.assert_allclose(val_scores, oracle, rtol=0.0, atol=1e-9)


def test_rerun_is_memoized_and_stages_resume(qsvm_bundle, make_config, tmp_path):
    config, d, manifest = qsvm_bundle
    svm_file = d / "svm" / "svm.json"
    stamp = svm_file.stat().st_mtime_ns
    again = harness.run_experiment(config, d)
    assert again == manifest
    assert svm_file.stat().st_mtime_ns == stamp

    # a CV or feature-map change keeps the upstream stages on disk and
    # rebuilds the svm stage
    for field, value in (("c_grid", (0.5, 5.0)), ("reps", 2)):
        copy = tmp_path / field
        shutil.copytree(d, copy)
        copy_stamp = (copy / "encoder" / "encoder.f64").stat().st_mtime_ns
        redo = harness.run_experiment(make_config(**{field: value}), copy)
        assert (copy / "encoder" / "encoder.f64").stat().st_mtime_ns == copy_stamp
        assert redo["stages"]["encoder"] == manifest["stages"]["encoder"]
        assert redo["stages"]["svm"] != manifest["stages"]["svm"]


# Each config field and seed, and the stages whose key slice it enters: a
# missing entry would resume a stale stage, an extra one rebuild a stage for
# nothing (the encoder is most of a run). `model` picks the stage a run
# walks and keys none.
_STAGE_DEPENDENCIES = {
    "preprocess": {"dataset", "train_path", "test_path", "corpus_path", "val_fraction",
                   "test_fraction", "ngram_max", "max_train", "seeds.data"},
    "encoder": {"hidden_sizes", "embed_dim", "dropout", "epochs", "batch_size",
                "learning_rate", "weight_decay", "patience", "seeds.encoder"},
    "svm": {"qubits", "reps", "entanglement", "second_order_coeff", "c_grid", "cv_folds",
            "beta", "seeds.data"},
    "vqc": {"qubits", "reupload", "second_order_coeff", "epochs", "batch_size",
            "learning_rate", "weight_decay", "patience", "fine_tune", "beta", "seeds.encoder"},
    "baseline": {"beta"},
}
# another valid value of each field of the test's base config
_OTHER_VALUES = {
    "experiment_id": "t-other", "dataset": "lingspam", "model": "vqc",
    "train_path": "other-train.txt", "test_path": "other-test.txt", "corpus_path": "other-corpus",
    "qubits": 3, "reps": 1, "reupload": 1, "entanglement": "linear",
    "second_order_coeff": "product", "backend": "shots", "shots": 512, "depol_1q": 0.01,
    "depol_2q": 0.02, "readout_01": 0.01, "readout_10": 0.02, "mitigate": True,
    "fine_tune": True, "max_train": 100, "val_fraction": 0.3, "test_fraction": 0.3,
    "ngram_max": 2, "hidden_sizes": (32,), "embed_dim": 8, "dropout": 0.1, "epochs": 10,
    "batch_size": 64, "learning_rate": 1e-2, "weight_decay": 0.0, "patience": 3,
    "c_grid": (1.0,), "cv_folds": 3, "beta": 1.0,
}


def test_each_config_field_keys_exactly_the_stages_that_read_it(tmp_path, monkeypatch):
    slices = {}

    def spy(root, stages, name, slice_, inputs, build, load):  # builds nothing
        slices[name] = persist.canonical_json(slice_)
        stages[name] = name

    monkeypatch.setattr(harness, "_stage", spy)
    monkeypatch.setattr(harness, "_source_hashes", lambda config: ([], {}, None))
    split = types.SimpleNamespace(x_train=np.zeros((4, 7)), class_weights=(1.0, 3.0))

    def stage_slices(config):
        stages = {}
        harness._stage_preprocess(config, tmp_path, stages)
        harness._stage_encoder(config, tmp_path, stages, split)
        for stage in (harness._stage_svm, harness._stage_vqc, harness._stage_baseline):
            stage(config, tmp_path, stages, split, None)
        return dict(slices)

    base = ExperimentConfig(experiment_id="t-keys", dataset="nslkdd", model="qsvm",
                            train_path="train.txt", test_path="test.txt", corpus_path="corpus")
    assert set(_OTHER_VALUES) == {f.name for f in dataclasses.fields(ExperimentConfig)} - {"seeds"}
    changed = {name: replace(base, **{name: v}) for name, v in _OTHER_VALUES.items()}
    for f in dataclasses.fields(Seeds):
        changed[f"seeds.{f.name}"] = replace(base, seeds=replace(base.seeds, **{f.name: 7}))
    before = stage_slices(base)
    assert set(before) == set(_STAGE_DEPENDENCIES)
    wrong = {}
    for name, config in changed.items():
        after = stage_slices(config)
        got = {stage for stage in before if after[stage] != before[stage]}
        want = {stage for stage, fields in _STAGE_DEPENDENCIES.items() if name in fields}
        if got != want:
            wrong[name] = {"changed": sorted(got), "expected": sorted(want)}
    assert not wrong, wrong


def test_complete_bundle_of_an_older_svm_layout_is_rebuilt_and_rescored(qsvm_bundle, tmp_path):
    # a complete manifest over an svm.json of the layout before support
    # angles (n row means, no support rows) and that layout's stage key: the
    # run rebuilds the svm stage instead of returning the manifest, and the
    # bundle then rescores
    config, d, manifest = qsvm_bundle
    old = tmp_path / "old"
    shutil.copytree(d, old)
    header = json.loads((old / "svm" / "svm.json").read_text())
    del header["support_angles"], header["support_means"]
    header["row_means"] = [0.0] * datapipe.load_split(old / "preprocess").y_train.size
    persist.save_json(old / "svm" / "svm.json", header)
    older_key = "0" * 64
    persist.save_json(old / "svm" / "stage.json", {"key": older_key})
    persist.save_json(old / "manifest.json", {
        **manifest, "stages": {**manifest["stages"], "svm": older_key},
        "files": {name: persist.sha256_file(old / name) for name in manifest["files"]},
    })
    with pytest.raises(ValueError, match="support vector"):
        qsvm.load_svm(old / "svm" / "svm.json")

    assert harness.run_experiment(config, old) == manifest
    assert (old / "svm" / "svm.json").read_bytes() == (d / "svm" / "svm.json").read_bytes()
    assert harness.evaluate_bundle(old)["metrics"] == manifest["metrics"]


def test_a_workdir_of_the_float64_split_layout_rebuilds_only_its_preprocess_stage(
    qsvm_bundle, tmp_path, capsys
):
    # the split layout before each array file took its array's own dtype:
    # every split array as float64 bytes in name.f64. A complete bundle of it
    # does not rescore and says to rerun its config; the rerun rebuilds
    # preprocess under the same key and resumes the encoder and svm stages,
    # whose files it leaves untouched
    config, d, manifest = qsvm_bundle
    old = tmp_path / "old"
    shutil.copytree(d, old)
    pre = old / "preprocess"
    header = json.loads((pre / "split.json").read_text())
    split = datapipe.load_split(pre)
    for name, meta in header["arrays"].items():
        data = np.ascontiguousarray(getattr(split, name), "<f8").tobytes()
        (pre / f"{name}.f64").write_bytes(data)
        (pre / f"{name}.{'f32' if name.startswith('x_') else 'i64'}").unlink()
        meta["sha256"] = hashlib.sha256(data).hexdigest()
    (pre / "split.json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    files = {name: sha for name, sha in manifest["files"].items() if not name.startswith("preprocess/")}
    files.update({f"preprocess/{p.name}": persist.sha256_file(p) for p in pre.iterdir()})
    (old / "manifest.json").write_text(json.dumps({**manifest, "files": files}))
    assert sorted(p.name for p in pre.glob("*.f64")) == sorted(f"{n}.f64" for n in header["arrays"])
    stamps = {name: (old / name).stat().st_mtime_ns for name in ("encoder/encoder.f64", "svm/svm.json")}

    assert main(["evaluate", "--workdir", str(old)]) == 2
    assert "rerun the bundle's config to rebuild it" in capsys.readouterr().err
    assert harness.run_experiment(config, old) == manifest
    assert {name: (old / name).stat().st_mtime_ns for name in stamps} == stamps
    assert not list(pre.glob("*.f64"))
    assert harness.evaluate_bundle(old)["metrics"] == manifest["metrics"]


def test_failed_rebuild_leaves_no_stale_marker(make_config, tmp_path, monkeypatch):
    # a rebuild that dies before its marker is written must not leave the
    # previous key's marker over its own files
    first = make_config(epochs=2, max_train=160)
    harness.run_experiment(first, tmp_path, through="encoder")
    enc = tmp_path / "encoder"
    want = {name: (enc / name).read_bytes() for name in ("encoder.f64", "encoder.json")}
    real = persist.save_json

    def no_markers(path, obj):
        if str(path).endswith("stage.json"):
            raise OSError("marker write failed")
        return real(path, obj)

    with monkeypatch.context() as m:
        m.setattr(persist, "save_json", no_markers)
        with pytest.raises(PipelineError) as err:
            harness.run_experiment(
                make_config(epochs=2, max_train=160, seeds=Seeds(encoder=1)), tmp_path,
                through="encoder",
            )
    assert err.value.stage == "encoder"
    assert (enc / "encoder.f64").read_bytes() != want["encoder.f64"]
    harness.run_experiment(first, tmp_path, through="encoder")
    assert {name: (enc / name).read_bytes() for name in want} == want


@pytest.mark.parametrize(
    "model,fine_tune",
    [("qsvm", False), ("vqc", False), ("vqc", True), ("classical-baseline", False)],
)
def test_resumed_model_stage_gives_the_fresh_manifest(make_config, tmp_path, model, fine_tune):
    config = make_config(
        experiment_id="t-resume", model=model, fine_tune=fine_tune, epochs=2, max_train=160
    )
    harness.run_experiment(config, tmp_path)
    fresh = (tmp_path / "manifest.json").read_bytes()
    markers = {p: p.stat().st_mtime_ns for p in tmp_path.rglob("stage.json")}
    (tmp_path / "manifest.json").unlink()
    harness.run_experiment(config, tmp_path)
    assert {p: p.stat().st_mtime_ns for p in tmp_path.rglob("stage.json")} == markers
    assert (tmp_path / "manifest.json").read_bytes() == fresh


@pytest.mark.parametrize(
    "earlier", [{"fine_tune": True}, {"model": "classical-baseline"}], ids=["fine-tuned", "baseline"]
)
def test_rerun_as_another_model_lists_the_files_of_a_fresh_run(make_config, tmp_path, earlier):
    config = make_config(experiment_id="t-rerun", model="vqc", epochs=2, max_train=160)
    harness.run_experiment(replace(config, **earlier), tmp_path / "rerun")
    rerun = harness.run_experiment(config, tmp_path / "rerun")
    fresh = harness.run_experiment(config, tmp_path / "fresh")
    assert sorted(rerun["files"]) == sorted(fresh["files"])
    assert rerun == fresh
    assert not (tmp_path / "rerun" / "vqc" / "encoder").exists()


def _count_gram_builds(monkeypatch):
    """A list that gets each qsvm.FidelityRows (the train kernel's row
    source) constructed from now on."""
    calls = []

    class Counted(qsvm.FidelityRows):
        def __init__(self, states):
            calls.append(self)
            super().__init__(states)

    monkeypatch.setattr(qsvm, "FidelityRows", Counted)
    return calls


def test_resumed_qsvm_does_not_read_the_train_gram(qsvm_bundle, tmp_path, monkeypatch):
    config, d, manifest = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    builds = _count_gram_builds(monkeypatch)
    # backend lies outside every stage slice: every stage resumes
    rerun = harness.run_experiment(replace(config, backend="shots"), copy)
    assert rerun["stages"] == manifest["stages"]
    assert rerun["metrics"] == manifest["metrics"]
    assert builds == []


def test_qsvm_bundle_stores_no_train_gram(qsvm_bundle, monkeypatch):
    config, d, manifest = qsvm_bundle
    n = qsvm.load_svm(d / "svm" / "svm.json")[0].n_train
    assert not any(name.startswith("gram/") for name in manifest["files"])
    # every per-row list in svm.json has one entry per support vector
    header = json.loads((d / "svm" / "svm.json").read_text())
    s = len(header["support"])
    lists = {k: len(v) for k, v in header.items() if isinstance(v, list) and k != "class_weights"}
    del lists["cv_table"]
    assert lists == {"support": s, "coef": s, "support_angles": s, "support_means": s}
    assert s < n
    # an exact rescore hashes the whole bundle in fewer bytes than an n x n Gram
    hashed = _count_hashed_bytes(monkeypatch)
    harness.evaluate_bundle(d)
    assert hashed[0] == _manifest_bytes(d, manifest) < n * n * 8


def test_c_grid_change_builds_the_gram_once_and_matches_a_fresh_run(
    qsvm_bundle, tmp_path, monkeypatch
):
    config, d, manifest = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    stamp = (copy / "encoder" / "encoder.f64").stat().st_mtime_ns
    builds = _count_gram_builds(monkeypatch)
    tweaked = replace(config, c_grid=(0.5, 5.0))
    rerun = harness.run_experiment(tweaked, copy)
    # the encoder resumed and the svm stage built the Gram from its angles
    assert rerun["stages"]["encoder"] == manifest["stages"]["encoder"]
    assert rerun["stages"]["svm"] != manifest["stages"]["svm"]
    assert len(builds) == 1
    assert (copy / "encoder" / "encoder.f64").stat().st_mtime_ns == stamp
    fresh = harness.run_experiment(tweaked, tmp_path / "fresh")
    assert len(builds) == 2
    svm_json = [(w / "svm" / "svm.json").read_bytes() for w in (copy, tmp_path / "fresh")]
    assert svm_json[0] == svm_json[1]
    assert rerun["metrics"] == fresh["metrics"]
    assert rerun == fresh


def test_a_workdir_with_a_gram_stage_completes_without_it(qsvm_bundle, tmp_path, monkeypatch):
    # a workdir from before the QSVM had one train stage: a gram/ stage
    # holding the train angles, and an svm/ stage under another key whose
    # svm.json has no centring means or support angles
    config, d, manifest = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    (copy / "gram").mkdir()
    for name in ("gram.json", "stage.json", "train.f64"):
        (copy / "gram" / name).write_bytes(b"{}")
    persist.save_json(copy / "svm" / "stage.json", {"key": "0" * 64})
    header = json.loads((copy / "svm" / "svm.json").read_text())
    del header["support_angles"], header["support_means"]
    persist.save_json(copy / "svm" / "svm.json", header)
    (copy / "manifest.json").unlink()
    builds = _count_gram_builds(monkeypatch)
    rerun = harness.run_experiment(config, copy)
    assert len(builds) == 1
    assert not any(name.startswith("gram/") for name in rerun["files"])
    # gram is no stage's name, so the run leaves that directory as it is
    assert (copy / "gram" / "train.f64").read_bytes() == b"{}"
    assert rerun == manifest
    assert harness.evaluate_bundle(copy)["metrics"] == manifest["metrics"]


def test_an_svm_stage_in_the_layout_before_support_angles_is_rebuilt(qsvm_bundle, tmp_path):
    # svm.json used to hold the n train centring means and no angle rows,
    # under a stage key whose slice had no "svm_json" entry: that stage is
    # rebuilt, not loaded
    config, d, manifest = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    split = datapipe.load_split(d / "preprocess", features=())
    old_slice = {
        "feature_map": config.feature_spec().as_dict(), "c_grid": list(config.c_grid),
        "cv_folds": config.cv_folds, "beta": config.beta, "seed": config.seeds.data,
        "class_weights": list(split.class_weights),
    }
    inputs = [manifest["stages"]["encoder"]]
    new_slice = {
        "svm_json": "support_angles", "feature_map": config.feature_spec().as_dict(),
        "cv_plan": dataclasses.asdict(config.cv_plan()), "class_weights": list(split.class_weights),
    }
    assert persist.stage_key("svm", new_slice, inputs) == manifest["stages"]["svm"]
    header = json.loads((copy / "svm" / "svm.json").read_text())
    del header["support_angles"], header["support_means"]
    header["row_means"] = [0.5] * header["n_train"]
    persist.save_json(copy / "svm" / "svm.json", header)
    persist.save_json(copy / "svm" / "stage.json", {"key": persist.stage_key("svm", old_slice, inputs)})
    (copy / "manifest.json").unlink()
    assert harness.run_experiment(config, copy) == manifest
    assert (copy / "svm" / "svm.json").read_bytes() == (d / "svm" / "svm.json").read_bytes()
    assert harness.evaluate_bundle(copy)["metrics"] == manifest["metrics"]


def test_svm_json_records_the_solver(qsvm_bundle):
    config, d, _ = qsvm_bundle
    header = json.loads((d / "svm" / "svm.json").read_text())
    solver = header["extra"]["solver"]
    assert sorted(solver) == ["converged", "gap", "iterations", "max_iter"]
    assert solver["converged"] is True and 0.0 <= solver["gap"] <= qsvm.DUAL_TOL
    assert 0 < solver["iterations"] < solver["max_iter"]
    assert [row["c"] for row in header["cv_table"]] == list(config.c_grid)
    for row in header["cv_table"]:
        assert row["fold_converged"] == [True] * config.cv_folds


def _stage_dir(root, name, marked=True, file="x.json"):
    d = root / name
    d.mkdir()
    (d / file).write_text("{}")
    if marked:
        (d / "stage.json").write_text('{"key": "old"}')
    return d


def test_a_complete_run_removes_only_marked_stage_directories_it_did_not_record(
    qsvm_bundle, tmp_path
):
    config, d, manifest = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    (copy / "manifest.json").unlink()
    legacy = _stage_dir(copy, "gram", file="train.f64")  # no stage's name any longer
    other_model = _stage_dir(copy, "vqc")
    user = _stage_dir(copy, "notes")           # not a stage name, marker or not
    unmarked = _stage_dir(copy, "baseline", marked=False)
    loose = copy / "svm.bak"
    loose.write_text("{}")
    assert harness.run_experiment(config, copy) == manifest
    assert not other_model.exists()
    assert (legacy / "stage.json").exists() and (legacy / "train.f64").exists()
    assert (user / "stage.json").exists() and (unmarked / "x.json").exists()
    assert loose.exists() and (copy / "svm" / "svm.json").exists()


def test_an_early_stop_removes_no_stage_directory(qsvm_bundle, tmp_path):
    config, d, _ = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    other_model = _stage_dir(copy, "vqc")
    before = sorted(p.relative_to(copy) for p in copy.rglob("*"))
    harness.run_experiment(config, copy, through="encoder")
    assert other_model.exists() and (copy / "svm" / "stage.json").exists()
    assert sorted(p.relative_to(copy) for p in copy.rglob("*")) == before


def _tree(root):
    """Every file under root: relative path -> bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_a_rerun_removes_the_temp_files_a_killed_write_left(make_config, tmp_path):
    # a process killed inside persist._write_atomic leaves .<name>.<32 hex>.tmp
    # beside its target; at the workdir root nothing else cleans it up. A
    # rerun removes exactly those names, so the tree is a fresh run's, and
    # keeps files that only look like them
    config = make_config(epochs=2, max_train=160)
    fresh = harness.run_experiment(config, tmp_path / "fresh")
    work = tmp_path / "work"
    shutil.copytree(tmp_path / "fresh", work)
    for name in ("config.json", "manifest.json"):
        (work / f".{name}.{uuid.uuid4().hex}.tmp").write_text('{"partial')
    lookalikes = {
        ".manifest.json.tmp": "no hex part",
        f".manifest.json.{uuid.uuid4().hex[:31]}.tmp": "31 hex digits",
        f".manifest.json.{uuid.uuid4().hex.upper()}.tmp": "upper-case hex",
        f"manifest.json.{uuid.uuid4().hex}.tmp": "no leading dot",
        f".manifest.json.{uuid.uuid4().hex}.tmp.bak": "another suffix",
    }
    for name, text in lookalikes.items():
        (work / name).write_text(text)
    assert harness.run_experiment(config, work) == fresh
    tree = _tree(work)
    assert {name: tree.pop(name).decode() for name in lookalikes} == lookalikes
    assert tree == _tree(tmp_path / "fresh")


# a JSON stage file's damage that leaves it valid JSON: the key path of one
# number, which is shifted by 0.3
_SHIFTED = {
    "svm/svm.json": ("bias",), "encoder/encoder.json": ("scaler", "low", 0),
    "vqc/vqc.json": ("extra", "threshold"), "baseline/baseline.json": ("threshold",),
    "preprocess/split.json": ("class_weights", 0),
}


@pytest.mark.parametrize("name,damage", [
    ("encoder/encoder.f64", "truncate"), ("encoder/encoder.f64", "flip"),
    ("preprocess/x_train.f32", "flip"),
    *((name, "shift") for name in _SHIFTED),
])
def test_a_damaged_stage_file_under_a_valid_marker_is_rebuilt(make_config, tmp_path, name, damage):
    # the stage's load fails its hash check against the marker's entry, so
    # the run rebuilds the stage as if its key had changed; rescoring the
    # damaged bundle still fails
    model = {"vqc": "vqc", "baseline": "classical-baseline"}.get(name.split("/")[0], "qsvm")
    config = make_config(model=model, epochs=2, max_train=160)
    fresh = harness.run_experiment(config, tmp_path / "fresh")
    work = tmp_path / "work"
    shutil.copytree(tmp_path / "fresh", work)
    blob = bytearray((work / name).read_bytes())
    if damage == "truncate":
        del blob[-8:]
    elif damage == "flip":
        blob[len(blob) // 2] ^= 1
    else:
        header = node = json.loads(blob)
        *path, last = _SHIFTED[name]
        for key in path:
            node = node[key]
        node[last] += 0.3
        blob = (json.dumps(header, indent=2, sort_keys=True) + "\n").encode()
    (work / name).write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="fails its hash check"):
        harness.evaluate_bundle(work)
    assert harness.run_experiment(config, work) == fresh
    assert _tree(work) == _tree(tmp_path / "fresh")


@pytest.mark.parametrize("marker", ["[]", "null", '"stage"', "key only", "files list"])
def test_a_marker_that_is_no_key_and_files_object_is_stale(make_config, tmp_path, marker):
    # a marker of another shape, a marker without a files map (the layout
    # before markers listed their files) included, is stale: the stage is
    # rebuilt, not failed or resumed unchecked
    config = make_config(model="classical-baseline", epochs=2, max_train=160)
    fresh = harness.run_experiment(config, tmp_path / "fresh")
    work = tmp_path / "work"
    shutil.copytree(tmp_path / "fresh", work)
    key = fresh["stages"]["baseline"]
    text = {"key only": {"key": key}, "files list": {"key": key, "files": []}}
    (work / "baseline" / "stage.json").write_text(json.dumps(text[marker]) if marker in text else marker)
    assert harness.run_experiment(config, work) == fresh
    assert _tree(work) == _tree(tmp_path / "fresh")


@pytest.mark.parametrize("model,fine_tune", [("qsvm", False), ("vqc", True)])
def test_manifest_files_are_the_hashes_of_every_recorded_stage_file(
    make_config, tmp_path, model, fine_tune
):
    # the manifest is built from the markers, and still lists config.json and
    # every file under the recorded stage directories with its own hash, on a
    # fresh run and on one that resumes every stage
    config = make_config(model=model, fine_tune=fine_tune, epochs=2, max_train=160)
    for _ in ("fresh", "resumed"):
        manifest = harness.run_experiment(config, tmp_path)
        want = {"config.json": persist.sha256_file(tmp_path / "config.json")}
        for stage in manifest["stages"]:
            want.update({p.relative_to(tmp_path).as_posix(): persist.sha256_file(p)
                         for p in (tmp_path / stage).rglob("*") if p.is_file()})
        assert manifest["files"] == want


def test_svm_stage_allocates_no_n_by_n_array(make_config, tmp_path, monkeypatch):
    # the stage's own work at n = 1000 from given angles (two clusters, so
    # the fit has few support vectors, as on NSL-KDD): statevectors, the row
    # source, C selection, the final fit, the threshold and svm.json. A
    # dense Gram alone would be n^2 * 8 bytes; the row cache holds the rows
    # the SMO read
    n, q = 1000, 3
    rng = np.random.default_rng(19)
    y = (rng.random(n + 200) < 0.3).astype(int)
    x = np.where(y[:, None] == 1, 0.6, -0.6) + 0.2 * rng.normal(size=(n + 200, q))
    split = types.SimpleNamespace(
        x_train=x[:n], y_train=y[:n], x_val=x[n:], y_val=y[n:],
        class_weights=datapipe.class_weights(y[:n]),
    )
    monkeypatch.setattr(vqc, "angles_from_features", lambda rows, enc, scaler, q: rows)
    sources = _count_gram_builds(monkeypatch)
    config = make_config(qubits=q, c_grid=(1.0,), cv_folds=2)
    tracemalloc.start()
    try:
        model = harness._stage_svm(config, tmp_path, {"encoder": "0" * 64}, split, (None, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.svm.n_train == n and (tmp_path / "svm" / "svm.json").exists()
    assert len(sources) == 1 and len(sources[0]._rows) < n / 4
    assert peak <= 0.5 * n * n * 8, peak / (n * n * 8)


def test_identical_configs_give_bit_identical_manifests(make_config, tmp_path):
    config = make_config(epochs=2, max_train=160)
    harness.run_experiment(config, tmp_path / "a")
    harness.run_experiment(config, tmp_path / "b")
    one = (tmp_path / "a" / "manifest.json").read_bytes()
    two = (tmp_path / "b" / "manifest.json").read_bytes()
    assert one == two


def test_replacing_test_rows_keeps_fitted_artifacts(make_config, tmp_path):
    alt_src = tmp_path / "alt-src"
    alt_src.mkdir()
    write_nslkdd_pair(alt_src, seed=9)
    data = tmp_path / "data"
    data.mkdir()
    shutil.copy(make_config().train_path, data / "KDDTrain+.txt")
    shutil.copy(alt_src / "KDDTest+.txt", data / "KDDTest+.txt")

    base = make_config(epochs=2, max_train=160)
    swapped = make_config(
        epochs=2,
        max_train=160,
        train_path=str(data / "KDDTrain+.txt"),
        test_path=str(data / "KDDTest+.txt"),
    )
    m1 = harness.run_experiment(base, tmp_path / "orig")
    m2 = harness.run_experiment(swapped, tmp_path / "swap")

    fitted = [
        "encoder/encoder.f64",
        "encoder/encoder.json",
        "svm/svm.json",
        "preprocess/x_train.f32",
    ]
    for name in fitted:
        assert m1["files"][name] == m2["files"][name], name
    assert m1["threshold"] == m2["threshold"]
    assert m1["files"]["preprocess/x_test.f32"] != m2["files"]["preprocess/x_test.f32"]


@pytest.mark.parametrize("dataset", ["nslkdd", "lingspam"])
def test_preprocess_build_hashes_each_source_file_once(make_config, lingspam_dir, tmp_path, monkeypatch, dataset):
    # the stage key and the split's source_sha256 record come from one
    # digest per source file; the loaders hash nothing
    if dataset == "nslkdd":
        config = make_config()
        base, files = None, [Path(config.train_path), Path(config.test_path)]
    else:
        config = make_config(dataset="lingspam", corpus_path=str(lingspam_dir), model="vqc")
        base, files = datapipe.lingspam_files(lingspam_dir)
    hashed, real = [], persist.sha256_file
    monkeypatch.setattr(persist, "sha256_file", lambda p: hashed.append(Path(p)) or real(p))
    harness.run_experiment(config, tmp_path, through="preprocess")
    assert sorted(p for p in hashed if p in files) == sorted(files)
    names = [str(p) if base is None else str(p.relative_to(base)) for p in files]
    recorded = datapipe.load_split(tmp_path / "preprocess", features=()).meta["source_sha256"]
    assert recorded == {name: real(p) for name, p in zip(names, files)}


def test_lingspam_preprocess_lists_the_corpus_tree_once(make_config, lingspam_dir, tmp_path, monkeypatch):
    # the listing the stage key and source_sha256 are hashed from is the one
    # load_lingspam reads, so no file can come or go between the two
    listings, real = [], datapipe.lingspam_files
    monkeypatch.setattr(datapipe, "lingspam_files", lambda root: listings.append(root) or real(root))
    config = make_config(dataset="lingspam", corpus_path=str(lingspam_dir), model="vqc")
    harness.run_experiment(config, tmp_path / "work", through="preprocess")
    assert len(listings) == 1
    missing = replace(config, corpus_path=str(tmp_path / "no-corpus"))
    with pytest.raises(PipelineError, match="preprocess") as err:
        harness.run_experiment(missing, tmp_path / "missing", through="preprocess")
    assert isinstance(err.value.__cause__, FileNotFoundError)


def test_lingspam_preprocess_is_keyed_by_the_files_it_reads(make_config, lingspam_dir, tmp_path):
    # a corpus with a bare/ tree is read from bare/ alone, as the public
    # archive's bare, lemm, lemm_stop and stop variants are: a file added or
    # changed outside bare/ leaves preprocess fresh, one changed inside it
    # rebuilds preprocess
    corpus = tmp_path / "corpus"
    shutil.copytree(lingspam_dir, corpus)
    config = make_config(dataset="lingspam", corpus_path=str(corpus), model="vqc")
    # a corpus whose files all sit under bare/ keeps the key of every file
    # under the root, keyed relative to it
    every_file = [
        [p.relative_to(corpus).as_posix(), persist.sha256_file(p)]
        for p in sorted(corpus.rglob("*")) if p.is_file()
    ]
    assert harness._source_hashes(config)[0] == [
        persist.sha256_bytes(persist.canonical_json(every_file).encode())
    ]
    stop = corpus / "stop" / "part1"
    stop.mkdir(parents=True)
    (stop / "spmsg100.txt").write_text("free offer", encoding="utf-8")
    work = tmp_path / "work"
    key = harness.run_experiment(config, work, through="preprocess")["stages"]["preprocess"]
    split_json = (work / "preprocess" / "split.json").read_bytes()

    (stop / "spmsg100.txt").write_text("free offer now", encoding="utf-8")
    (corpus / "lemm").mkdir()
    (corpus / "lemm" / "3-001msg.txt").write_text("meeting", encoding="utf-8")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(datapipe, "load_lingspam", lambda *a, **k: pytest.fail("preprocess rebuilt"))
        again = harness.run_experiment(config, work, through="preprocess")
    assert again["stages"]["preprocess"] == key
    assert (work / "preprocess" / "split.json").read_bytes() == split_json

    message = sorted((corpus / "bare").rglob("*.txt"))[0]
    message.write_text(message.read_text(encoding="utf-8") + " extra", encoding="utf-8")
    rebuilt = harness.run_experiment(config, work, through="preprocess")
    assert rebuilt["stages"]["preprocess"] != key


def test_vqc_pipeline_completes(vqc_bundle):
    config, d, manifest = vqc_bundle
    assert manifest["status"] == "complete"
    assert "vqc" in manifest["stages"]
    assert manifest["consistency"]["exact_vs_analytic_max_abs"] <= 1e-9
    assert (d / "vqc" / "vqc.f64").exists()
    assert not (d / "vqc" / "encoder").exists()  # frozen encoder lives at top level


def test_vqc_fine_tune_pipeline(make_config, tmp_path):
    config = make_config(experiment_id="t-vqc-ft", model="vqc", epochs=2, fine_tune=True)
    manifest = harness.run_experiment(config, tmp_path)
    assert manifest["status"] == "complete"
    assert (tmp_path / "vqc" / "encoder" / "encoder.f64").exists()
    # re-evaluation routes through the tuned encoder copy
    result = harness.evaluate_bundle(tmp_path)
    assert result["metrics"] == manifest["metrics"]


def test_vqc_shot_eval_reports_raw_and_mitigated(make_config, tmp_path):
    config = make_config(
        experiment_id="t-vqc-shots",
        model="vqc",
        epochs=2,
        backend="shots",
        shots=64,
        readout_01=0.02,
        readout_10=0.01,
        mitigate=True,
    )
    manifest = harness.run_experiment(config, tmp_path)
    assert manifest["status"] == "complete"
    shot = manifest["shot_eval"]
    assert set(shot) == {"raw", "mitigated"}
    for arm in shot.values():
        assert 0.0 <= arm["accuracy"] <= 1.0
    # the stored headline metrics stay the exact-mode ones
    assert manifest["metrics"]["accuracy"] != shot["raw"].get("marker", -1)


def test_vqc_shot_run_with_a_singular_readout_reports_only_raw_shots(make_config, tmp_path):
    # p01 + p10 = 1 cannot be mitigated, but unmitigated scoring is valid:
    # the run completes with the raw report and no mitigated one
    config = make_config(
        experiment_id="t-vqc-singular", model="vqc", epochs=2, backend="shots", shots=64,
        readout_01=0.5, readout_10=0.5,
    )
    manifest = harness.run_experiment(config, tmp_path)
    assert manifest["status"] == "complete"
    assert set(manifest["shot_eval"]) == {"raw"}
    raw = harness.evaluate_bundle(tmp_path, config.execution())
    assert raw["metrics"] == manifest["shot_eval"]["raw"]


def test_classical_baseline_pipeline(make_config, tmp_path):
    config = make_config(experiment_id="t-base", model="classical-baseline", epochs=3)
    manifest = harness.run_experiment(config, tmp_path)
    assert manifest["status"] == "complete"
    assert set(manifest["stages"]) == {"preprocess", "encoder", "baseline"}
    assert (tmp_path / "baseline" / "baseline.json").exists()


def test_stage_failure_carries_stage_name(make_config, tmp_path):
    config = make_config(train_path=str(tmp_path / "missing.txt"))
    with pytest.raises(PipelineError) as err:
        harness.run_experiment(config, tmp_path / "w")
    assert err.value.stage == "preprocess"
    manifest = persist.load_json(tmp_path / "w" / "manifest.json")
    assert manifest["status"] == "incomplete"
    assert manifest["error"]["stage"] == "preprocess"


def test_qubits_over_embed_dim_rejected_before_compute():
    with pytest.raises(ValueError, match="embed_dim"):
        ExperimentConfig(
            experiment_id="x",
            dataset="nslkdd",
            model="qsvm",
            train_path="t",
            test_path="t",
            qubits=6,
            embed_dim=4,
        )


@pytest.mark.parametrize("model", harness.MODELS)
@pytest.mark.parametrize(
    "setting,message",
    [
        ({"entanglement": "ring"}, "entanglement"),
        ({"second_order_coeff": "bogus"}, "second_order_coeff"),
        ({"qubits": 7}, "num_qubits"),
        ({"reps": 0}, "reps"),
        ({"reupload": vqc.MAX_LAYERS + 1}, "reupload_layers"),
        ({"depol_2q": 1.5}, "depol_2q"),
        ({"readout_10": float("nan")}, "readout_flip_10"),
        ({"c_grid": ()}, "C grid must be nonempty"),
        ({"c_grid": (0.0,)}, "C must be finite and > 0, got 0.0"),
        ({"c_grid": (-1.0,)}, r"C must be finite and > 0, got -1\.0"),
        ({"c_grid": (float("nan"),)}, "C must be finite and > 0, got nan"),
        ({"beta": 0}, "beta must be positive"),
        ({"epochs": 0}, "epochs and batch_size must be >= 1"),
        ({"batch_size": 0}, "epochs and batch_size must be >= 1"),
        ({"learning_rate": -1.0}, "learning_rate must be > 0"),
        ({"weight_decay": -1.0}, "weight_decay >= 0"),
        ({"patience": 99}, "patience must lie in"),
        ({"dropout": 1.5}, "dropout must lie in"),
        ({"hidden_sizes": (0,)}, "hidden_sizes must be nonempty"),
        ({"hidden_sizes": ()}, "hidden_sizes must be nonempty"),
        # p01 + p10 = 1 makes the readout confusion singular; a VQC shot run
        # used to train the encoder and the VQC before mitigation raised
        ({"backend": "shots", "mitigate": True, "readout_01": 0.5, "readout_10": 0.5},
         "qubit 0 confusion matrix singular"),
    ],
    ids=[
        "ring", "bogus-convention", "qubits-7", "reps-0", "reupload-max+1", "depol2-1.5",
        "readout10-nan", "c-grid-empty", "c-0", "c-minus-1", "c-nan", "beta-0",
        "epochs-0", "batch-size-0", "lr-minus-1", "weight-decay-minus-1", "patience-99",
        "dropout-1.5", "hidden-0", "hidden-empty", "singular-mitigation",
    ],
)
def test_spec_settings_are_rejected_at_config_time_for_every_model(model, setting, message):
    # the feature-map, VQC, noise, CV and execution specs, the encoder config
    # and the training schedule own these ranges; the config builds all seven,
    # so a setting no stage of this model reads, or one only a later stage
    # reads, fails before any stage runs
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(
            experiment_id="x", dataset="nslkdd", model=model, train_path="t", test_path="t",
            **setting,
        )


def test_cli_mitigating_an_uninvertible_readout_fails_before_scoring(
    make_config, tmp_path, monkeypatch, capsys
):
    config = make_config(experiment_id="t-singular", model="classical-baseline", epochs=2,
                         readout_01=0.5, readout_10=0.5)
    harness.run_experiment(config, tmp_path)

    def scored(*args, **kwargs):
        raise AssertionError("evaluate scored the bundle")

    monkeypatch.setattr(harness, "evaluate_bundle", scored)
    capsys.readouterr()
    evaluate = ["evaluate", "--workdir", str(tmp_path), "--backend", "shots", "--mitigate"]
    assert main(evaluate) == 2
    assert "confusion matrix singular" in capsys.readouterr().err


# ----------------------------------------------------------------- bundles


def test_evaluate_bundle_reproduces_metrics_bit_exactly(qsvm_bundle, vqc_bundle):
    for _, d, manifest in (qsvm_bundle, vqc_bundle):
        result = harness.evaluate_bundle(d)
        assert result["metrics"] == manifest["metrics"]
        assert result["threshold"] == manifest["threshold"]


def test_bundle_hash_check_rejects_tampering(qsvm_bundle, tmp_path):
    _, d, _ = qsvm_bundle
    copy = tmp_path / "copy"
    shutil.copytree(d, copy)
    with open(copy / "svm" / "svm.json", "ab") as f:
        f.write(b"\x00")
    with pytest.raises(ValueError, match="hash"):
        harness.load_bundle(copy)
    assert harness.load_bundle(copy, verify=False).manifest["status"] == "complete"


def test_incomplete_bundle_rejected_for_evaluation(make_config, tmp_path):
    config = make_config(epochs=2, max_train=160)
    manifest = harness.run_experiment(config, tmp_path, through="encoder")
    assert manifest["status"] == "incomplete"
    assert set(manifest["stages"]) == {"preprocess", "encoder"}
    with pytest.raises(ValueError, match="incomplete"):
        harness.evaluate_bundle(tmp_path)


@pytest.mark.parametrize("through", ["model", "evaluate", "gram", "svm", "vqc"])
def test_run_experiment_stops_only_after_an_early_stage(make_config, tmp_path, through):
    with pytest.raises(ValueError, match="through must be"):
        harness.run_experiment(make_config(), tmp_path, through=through)
    assert not any(tmp_path.iterdir())


# --------------------------------------------------------------- streaming


def test_streaming_full_test_matches_batch(qsvm_bundle):
    _, d, manifest = qsvm_bundle
    split = datapipe.load_split(d / "preprocess")
    n = split.y_test.size
    out = harness.evaluate_streaming(d, subset=np.arange(n))
    rep = out["report"]
    batch = manifest["metrics"]
    assert _cdict(rep.confusion) == batch["confusion"]
    assert rep.accuracy == batch["accuracy"]
    assert rep.macro_f1 == batch["macro_f1"]
    assert abs(rep.auroc - batch["auroc"]) < 1e-12
    assert abs(rep.auprc - batch["auprc"]) < 1e-12
    assert len(out["lines"]) == n
    # subset_size=None streams the same rows, every test row in order
    np.testing.assert_array_equal(harness.evaluate_streaming(d, subset_size=None)["scores"], out["scores"])


def test_streaming_subset_audit_and_reference_cap(qsvm_bundle):
    _, d, _ = qsvm_bundle
    out = harness.evaluate_streaming(d, subset_size=50)
    assert len(out["lines"]) == 50
    # exact streaming folds every support vector into the observable
    assert out["reference_size"] == qsvm.load_svm(d / "svm" / "svm.json")[0].support.size
    split = datapipe.load_split(d / "preprocess")
    cats = {split.test_categories[i] for i in out["indices"]}
    assert cats == set(split.test_categories)
    # final audit line tallies equal the confusion of the returned report
    tp, tn, fp, fn = (int(v) for v in out["lines"][-1].split(", ")[3:])
    c = out["report"].confusion
    assert (tp, tn, fp, fn) == (c.tp, c.tn, c.fp, c.fn)
    with open(out["audit_path"], "r", encoding="utf-8") as f:
        assert sum(1 for _ in f) == 50


def test_streaming_is_deterministic(qsvm_bundle, tmp_path):
    _, d, _ = qsvm_bundle
    a = harness.evaluate_streaming(d, subset_size=40, audit_path=tmp_path / "a.csv")
    b = harness.evaluate_streaming(d, subset_size=40, audit_path=tmp_path / "b.csv")
    assert a["lines"] == b["lines"]
    assert np.array_equal(a["scores"], b["scores"])


def _renames(monkeypatch):
    """The targets persist renames files onto from now on."""
    targets, real = [], persist.os.replace
    monkeypatch.setattr(persist.os, "replace", lambda a, b: targets.append(Path(b)) or real(a, b))
    return targets


def test_streaming_renames_its_audit_into_place_in_missing_directories(
    qsvm_bundle, tmp_path, monkeypatch
):
    _, d, _ = qsvm_bundle
    audit = tmp_path / "new" / "dir" / "audit.csv"
    renames = _renames(monkeypatch)
    out = harness.evaluate_streaming(d, subset_size=20, audit_path=audit)
    assert renames == [audit]
    assert audit.read_text(encoding="utf-8") == "".join(line + "\n" for line in out["lines"])


def test_streaming_shot_mode_tracks_exact(qsvm_bundle):
    _, d, _ = qsvm_bundle
    exact = harness.evaluate_streaming(d, subset_size=100)
    noisy = harness.evaluate_streaming(
        d,
        subset_size=100,
        execution=vqc.Execution("shots", 512, noise=NoiseSpec(1e-3, 1e-2), seed=5),
    )
    assert np.array_equal(exact["indices"], noisy["indices"])
    assert abs(exact["report"].accuracy - noisy["report"].accuracy) <= 0.10
    assert noisy["reference_size"] == min(exact["reference_size"], harness.REFERENCE_LIMIT)


def test_streaming_shot_scores_match_per_pair_kernels(qsvm_bundle):
    # one stacked call per row equals the one-pair estimator, pair by pair
    config, d, _ = qsvm_bundle
    ex = vqc.Execution("shots", 256, noise=NoiseSpec(1e-3, 1e-2, 0.02, 0.04), mitigate=True, seed=3)
    split = datapipe.load_split(d / "preprocess")
    subset = np.concatenate([np.flatnonzero(split.y_test == c)[:2] for c in (1, 0)])
    out = harness.evaluate_streaming(d, subset=subset, execution=ex)
    enc, scaler = load_encoder(d / "encoder")
    svm, _, support_means = qsvm.load_svm(d / "svm" / "svm.json")
    picked = datapipe.stratified_indices(
        split.y_train[svm.support], harness.REFERENCE_LIMIT, config.seeds.sampling
    )
    refs, coef = svm.support[picked], svm.coef[picked]
    mu = support_means[picked]
    train = vqc.angles_from_features(split.x_train, enc, scaler, config.qubits)
    test = vqc.angles_from_features(split.x_test[subset], enc, scaler, config.qubits)
    for i, row in enumerate(test):
        k = np.array([
            fidelity_kernel_shots(
                featuremap.AngleVector(row), featuremap.AngleVector(train[t]),
                config.feature_spec(), ex.shots, ex.noise, ex.mitigate,
                seed=harness._pair_seed(ex.seed, i, j),
            )
            for j, t in enumerate(refs)
        ])
        want = svm.sign * ((k - mu) @ coef + svm.bias)
        assert out["scores"][i] == pytest.approx(want, abs=1e-12)


def test_vqc_consistency_compares_two_simulators(vqc_bundle, monkeypatch):
    # the check reads the stacked density engine, not the statevector path twice
    _, d, _ = vqc_bundle
    model = vqc.load_vqc(d / "vqc")
    rows = np.random.default_rng(0).uniform(-np.pi, np.pi, (5, model.spec.num_qubits))
    assert harness._vqc_consistency(rows, model) <= 1e-9
    real = harness.qsim.outcome_probabilities
    monkeypatch.setattr(
        harness.qsim, "outcome_probabilities", lambda prog, noise: np.roll(real(prog, noise), 1, axis=1)
    )
    with pytest.raises(ValueError, match="disagree"):
        harness._vqc_consistency(rows, model)


def test_streaming_rejects_a_subset_that_is_not_integer(qsvm_bundle, tmp_path):
    # a float subset used to be truncated to indices, and a boolean mask
    # read as the indices 0 and 1
    _, d, _ = qsvm_bundle
    audit = tmp_path / "a.csv"
    for subset in ([0.9, 2.7], [True, False, True], np.array([1.0])):
        with pytest.raises(ValueError, match="subset must hold integer test indices"):
            harness.evaluate_streaming(d, subset=subset, audit_path=audit)
    for empty in ([], np.array([], dtype=int)):
        with pytest.raises(ValueError, match="subset is empty"):
            harness.evaluate_streaming(d, subset=empty, audit_path=audit)
    subset = _two_class_subset(d)
    out = harness.evaluate_streaming(d, subset=subset.astype(np.uint16), audit_path=audit)
    assert out["indices"].tolist() == subset.tolist() and len(out["lines"]) == subset.size


def test_streaming_rejects_a_one_class_subset_before_scoring(qsvm_bundle, tmp_path):
    # the report needs both classes; the subset is checked before any row is
    # scored, so an existing audit file is left as it was
    _, d, _ = qsvm_bundle
    y = datapipe.load_split(d / "preprocess").y_test
    audit = tmp_path / "a.csv"
    audit.write_text("kept\n")
    for cls in (0, 1):
        with pytest.raises(ValueError, match=f"no test row of class {1 - cls}"):
            harness.evaluate_streaming(d, subset=np.flatnonzero(y == cls)[:5], audit_path=audit)
    assert audit.read_text() == "kept\n"


def test_streaming_reference_limit_errors(qsvm_bundle):
    _, d, _ = qsvm_bundle
    shots = vqc.Execution("shots", 32)
    with pytest.raises(ValueError, match=r"reference_limit must lie in \[1, n_train\]"):
        harness.evaluate_streaming(d, subset_size=10, execution=shots, reference_limit=0)
    with pytest.raises(ValueError, match=r"reference_limit must lie in \[1, n_train\]"):
        harness.evaluate_streaming(d, subset_size=10, execution=shots, reference_limit=10**6)
    with pytest.raises(ValueError, match="out of range"):
        harness.evaluate_streaming(d, subset=np.array([10**9]))


def test_shot_rescore_names_the_reference_limit_bound(qsvm_bundle):
    # the shot scorer reads no Gram; the bound is the SVM's train row count
    _, d, _ = qsvm_bundle
    n_train = qsvm.load_svm(d / "svm" / "svm.json")[0].n_train
    bound = rf"reference_limit must lie in \[1, n_train\] = \[1, {n_train}\]"
    for limit in (0, n_train + 1):
        with pytest.raises(ValueError, match=bound):
            harness.evaluate_bundle(d, vqc.Execution("shots", 32), reference_limit=limit)


def test_exact_stream_of_a_qsvm_with_fewer_train_rows_than_the_reference_limit(
    make_config, tmp_path
):
    # the reference limit bounds shot-mode reference sets only
    harness.run_experiment(make_config(epochs=2, max_train=40), tmp_path)
    assert qsvm.load_svm(tmp_path / "svm" / "svm.json")[0].n_train < harness.REFERENCE_LIMIT
    out = harness.evaluate_streaming(tmp_path, subset_size=20)
    assert len(out["lines"]) == 20


def test_streaming_vqc_matches_batch_logits(vqc_bundle):
    _, d, manifest = vqc_bundle
    split = datapipe.load_split(d / "preprocess")
    out = harness.evaluate_streaming(d, subset=np.arange(split.y_test.size))
    assert _cdict(out["report"].confusion) == manifest["metrics"]["confusion"]
    assert out["report"].accuracy == manifest["metrics"]["accuracy"]


def test_exact_qsvm_stream_maps_its_rows_in_one_call(qsvm_bundle, monkeypatch, tmp_path):
    # one feature-map stack for the support vectors, one for every streamed row
    _, d, _ = qsvm_bundle
    n = datapipe.load_split(d / "preprocess").y_test.size
    n_support = qsvm.load_svm(d / "svm" / "svm.json")[0].support.size
    assert n > 32
    stacks = []
    real = featuremap.feature_statevectors

    def counted(angles, spec):
        stacks.append(len(np.atleast_2d(angles)))
        return real(angles, spec)

    monkeypatch.setattr(featuremap, "feature_statevectors", counted)
    monkeypatch.setattr(qsvm, "feature_statevectors", counted)
    harness.evaluate_streaming(d, subset=np.arange(n), audit_path=tmp_path / "a.csv")
    assert stacks == [n_support, n]


def test_exact_vqc_stream_scores_its_rows_in_one_call(vqc_bundle, monkeypatch, tmp_path):
    _, d, _ = vqc_bundle
    n = datapipe.load_split(d / "preprocess").y_test.size
    assert n > 32
    stacks = []
    real = vqc.decision_logits

    def counted(rows, model):
        stacks.append(len(rows))
        return real(rows, model)

    monkeypatch.setattr(vqc, "decision_logits", counted)
    out = harness.evaluate_streaming(d, subset=np.arange(n), audit_path=tmp_path / "a.csv")
    assert stacks == [n]
    assert len(out["lines"]) == n


SHOT_OVERRIDES = dict(
    backend="shots", shots=64, depol_1q=1e-3, depol_2q=1e-2, readout_01=0.02, readout_10=0.04,
    mitigate=True, seeds=Seeds(sampling=3),
)


@pytest.mark.parametrize("backend", ["exact", "shots"])
@pytest.mark.parametrize("fixture", ["qsvm_bundle", "vqc_bundle"])
def test_full_stream_equals_rescore(request, fixture, backend, tmp_path):
    config, d, _ = request.getfixturevalue(fixture)
    over = SHOT_OVERRIDES if backend == "shots" else {"backend": backend}
    execution = replace(config, **over).execution()
    batch = harness.evaluate_bundle(d, execution)
    n = datapipe.load_split(d / "preprocess").y_test.size
    streamed = harness.evaluate_streaming(
        d, subset=np.arange(n), execution=execution, audit_path=tmp_path / "audit.csv"
    )
    assert streamed["report"].as_dict() == batch["metrics"]


def test_vqc_shot_stream_seeds_rows_by_position(vqc_bundle, tmp_path):
    # the k-th streamed row takes seed k of one shot_logits call on every row
    config, d, _ = vqc_bundle
    ex = vqc.Execution("shots", 64, NoiseSpec(1e-3, 1e-2), seed=5)
    split = datapipe.load_split(d / "preprocess")
    out = harness.evaluate_streaming(
        d, subset=np.arange(split.y_test.size), execution=ex, audit_path=tmp_path / "a.csv"
    )
    enc, scaler = load_encoder(d / "encoder")
    angles = vqc.angles_from_features(split.x_test, enc, scaler, config.qubits)
    seeds = np.random.SeedSequence(ex.seed).generate_state(split.y_test.size)
    assert np.array_equal(out["scores"], vqc.shot_logits(angles, vqc.load_vqc(d / "vqc"), ex, seeds))


def test_qsvm_shot_rescore_matches_the_chunked_stream_oracle(qsvm_bundle):
    # the former route of a shot rescore: every train row encoded, then
    # 32 rows per stacked product with the reference coefficients
    config, d, manifest = qsvm_bundle
    ex = replace(config, **SHOT_OVERRIDES).execution()
    split = datapipe.load_split(d / "preprocess")
    enc, scaler = load_encoder(d / "encoder")
    svm, _, support_means = qsvm.load_svm(d / "svm" / "svm.json")
    picked = datapipe.stratified_indices(
        split.y_train[svm.support], harness.REFERENCE_LIMIT, config.seeds.sampling
    )
    refs, coef = svm.support[picked], svm.coef[picked]
    mu = support_means[picked]
    train = vqc.angles_from_features(split.x_train, enc, scaler, config.qubits)[refs]
    test = vqc.angles_from_features(split.x_test, enc, scaler, config.qubits)
    scores, chunk = [], 32
    for start in range(0, len(test), chunk):
        kernels = np.stack([
            featuremap.kernel_shot_estimates(
                row, train, config.feature_spec(), ex.shots, ex.noise, ex.mitigate,
                [harness._pair_seed(ex.seed, start + i, j) for j in range(refs.size)],
            )
            for i, row in enumerate(test[start:start + chunk])
        ])
        scores.extend(svm.sign * ((kernels - mu[None, :]) @ coef + svm.bias))
    want = metrics.report(split.y_test, np.array(scores), manifest["threshold"], config.beta)
    got = harness.evaluate_bundle(d, ex)
    assert got["metrics"] == want.as_dict()


def test_shot_rescore_hashes_each_file_once_and_writes_nothing(qsvm_bundle, monkeypatch):
    config, d, manifest = qsvm_bundle
    before = {p: p.stat().st_mtime_ns for p in d.rglob("*")}
    hashed = _count_hashed_bytes(monkeypatch)
    harness.evaluate_bundle(d, replace(config, backend="shots", shots=32).execution())
    assert hashed[0] == _manifest_bytes(d, manifest)
    assert {p: p.stat().st_mtime_ns for p in d.rglob("*")} == before


@pytest.mark.parametrize("backend", ["exact", "shots"])
def test_qsvm_scoring_parses_no_train_features_and_encodes_no_train_row(
    qsvm_bundle, backend, monkeypatch, tmp_path
):
    # a QSVM scores from its support vectors' stored angle rows: no x_train
    # (or x_val) file is parsed, only the scored test rows are encoded, and
    # every manifest file is still hashed once per call
    config, d, manifest = qsvm_bundle
    n_test = datapipe.load_split(d / "preprocess", features=()).y_test.size
    subset = _two_class_subset(d)
    execution = replace(config, backend=backend, shots=32).execution()
    parsed, encoded = [], []
    real_load, real_angles = persist.load_arrays, vqc.angles_from_features

    def load(path, *args, **kwargs):
        parsed.append(Path(path).name)
        return real_load(path, *args, **kwargs)

    def angles(x, *args, **kwargs):
        encoded.append(len(x))
        return real_angles(x, *args, **kwargs)

    monkeypatch.setattr(persist, "load_arrays", load)
    monkeypatch.setattr(vqc, "angles_from_features", angles)
    hashed = _count_hashed_bytes(monkeypatch)
    harness.evaluate_bundle(d, execution)
    harness.evaluate_streaming(d, subset=subset, execution=execution, audit_path=tmp_path / "a.csv")
    assert [name.split(".")[0] for name in parsed if name.startswith("x_")] == ["x_test"] * 2
    assert encoded == [n_test, subset.size]
    assert hashed[0] == 2 * _manifest_bytes(d, manifest)


@pytest.mark.parametrize("fixture", ["qsvm_bundle", "spam_vqc_bundle"])
def test_rescore_and_stream_hash_each_manifest_byte_once(request, fixture, monkeypatch, tmp_path):
    _, d, manifest = request.getfixturevalue(fixture)
    size, subset = _manifest_bytes(d, manifest), _two_class_subset(d)
    hashed = _count_hashed_bytes(monkeypatch)
    harness.evaluate_bundle(d)
    assert hashed[0] == size
    hashed[0] = 0
    harness.evaluate_streaming(d, subset=subset, audit_path=tmp_path / "audit.csv")
    assert hashed[0] == size
    # opened on its own, a bundle still streams every file through sha256
    hashed[0] = 0
    harness.load_bundle(d)
    assert hashed[0] == size


@pytest.mark.parametrize("fixture", ["qsvm_bundle", "spam_vqc_bundle"])
def test_cli_full_test_stream_hashes_each_manifest_byte_once(request, fixture, monkeypatch, capsys, tmp_path):
    _, d, manifest = request.getfixturevalue(fixture)
    hashed = _count_hashed_bytes(monkeypatch)
    audit = str(tmp_path / "audit.csv")
    assert main(["stream-eval", "--workdir", str(d), "--full-test", "--audit", audit]) == 0
    assert hashed[0] == _manifest_bytes(d, manifest)
    n_test = datapipe.load_split(d / "preprocess", features=()).y_test.size
    assert f"audit lines: {n_test}" in capsys.readouterr().out


@pytest.mark.parametrize("fixture", ["qsvm_bundle", "spam_vqc_bundle"])
def test_cli_full_test_stream_parses_every_workdir_file_under_its_hash_check(
    request, fixture, monkeypatch, tmp_path
):
    # but for manifest.json, which holds the hashes, each workdir file the
    # stream parses is read with the map of unverified entries, so its
    # bytes are checked on that read; none is parsed a second time unchecked
    _, d, _ = request.getfixturevalue(fixture)
    real, root = persist._read_file, Path(d).resolve()

    def read(path, unverified=None):
        path = Path(path).resolve()
        if unverified is None and path.is_relative_to(root) and path != root / "manifest.json":
            pytest.fail(f"{path} read with no unverified map")
        return real(path, unverified)

    monkeypatch.setattr(persist, "_read_file", read)
    assert main(["stream-eval", "--workdir", str(d), "--full-test", "--audit", str(tmp_path / "a.csv")]) == 0


@pytest.mark.parametrize("fixture", ["qsvm_bundle", "spam_vqc_bundle"])
def test_rescore_and_stream_reject_a_flipped_byte_in_any_bundle_file(request, fixture, tmp_path):
    _, d, manifest = request.getfixturevalue(fixture)
    copy, subset = tmp_path / "copy", _two_class_subset(d)
    shutil.copytree(d, copy)
    for name in manifest["files"]:
        path = copy / name
        blob = path.read_bytes()
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 1
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match="fails its hash check"):
            harness.evaluate_bundle(copy)
        with pytest.raises(ValueError, match="fails its hash check"):
            harness.evaluate_streaming(copy, subset=subset, audit_path=tmp_path / "a.csv")
        path.write_bytes(blob)
    assert harness.evaluate_bundle(copy)["metrics"] == manifest["metrics"]


def test_shot_rescore_takes_noise_from_the_bundle(make_config, tmp_path):
    config = make_config(
        experiment_id="t-vqc-noisy", model="vqc", epochs=2, backend="shots", shots=64,
        readout_01=0.2, readout_10=0.1, mitigate=True,
    )
    manifest = harness.run_experiment(config, tmp_path)
    assert config.execution() == vqc.Execution(
        "shots", 64, config.noise(), True, config.seeds.sampling
    )
    # no overrides: the train-time shot evaluation, noise and mitigation included
    rescored = harness.evaluate_bundle(tmp_path, config.execution())
    assert rescored["metrics"] == manifest["shot_eval"]["mitigated"]
    raw = harness.evaluate_bundle(tmp_path, replace(config, mitigate=False).execution())
    assert raw["metrics"] == manifest["shot_eval"]["raw"]
    noiseless = harness.evaluate_bundle(
        tmp_path, replace(config, readout_01=0.0, readout_10=0.0).execution()
    )
    assert noiseless["metrics"] != rescored["metrics"]


# ------------------------------------------------------------------ matrix


def test_run_matrix_bookkeeping_and_resume(make_config, tmp_path):
    configs = [
        make_config(experiment_id="m-qsvm", epochs=2, max_train=160),
        make_config(experiment_id="m-base", model="classical-baseline", epochs=2, max_train=160),
        make_config(experiment_id="m-vqc", model="vqc", epochs=2, max_train=160),
    ]
    result = harness.run_matrix(configs, tmp_path, repeats=2)
    assert len(result["rows"]) == 6
    assert len(result["means"]) == 3
    for row in result["rows"]:
        assert "error" not in row
        assert set(("accuracy", "macro_f1", "auroc", "auprc")) <= set(row)
    # repeat seeds shift all three streams
    cell = persist.load_json(tmp_path / "m-qsvm" / "seed1" / "config.json")
    assert cell["seeds"] == {"data": 1, "encoder": 1, "sampling": 1}
    table = result["table"]
    assert "m-qsvm" in table and "mean" in table
    assert (tmp_path / "matrix.json").exists() and (tmp_path / "matrix.txt").exists()

    before = (tmp_path / "matrix.json").read_bytes()
    again = harness.run_matrix(configs, tmp_path, repeats=2)
    assert again["rows"] == result["rows"]
    assert (tmp_path / "matrix.json").read_bytes() == before


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_matrix_cell_equals_a_standalone_run(make_config, tmp_path):
    # a cell is run_experiment's bundle for its seed-shifted config: every
    # file, manifest.json included, byte for byte
    configs = [
        make_config(experiment_id="c-qsvm", epochs=2, max_train=160),
        make_config(experiment_id="c-base", model="classical-baseline", epochs=2, max_train=160),
    ]
    harness.run_matrix(configs, tmp_path / "matrix", repeats=2)
    for config in configs:
        for r in range(2):
            alone = tmp_path / "alone" / config.experiment_id / f"seed{r}"
            harness.run_experiment(replace(config, seeds=config.seeds.shifted(r)), alone)
            cell = _tree_bytes(tmp_path / "matrix" / config.experiment_id / f"seed{r}")
            assert Path("manifest.json") in cell
            assert cell == _tree_bytes(alone)


def test_run_matrix_collects_errors(make_config, tmp_path):
    configs = [
        make_config(experiment_id="ok", epochs=2, max_train=160),
        make_config(experiment_id="broken", train_path=str(tmp_path / "nope.txt")),
    ]
    result = harness.run_matrix(configs, tmp_path, repeats=1)
    by_id = {r["id"]: r for r in result["rows"]}
    assert "error" not in by_id["ok"]
    assert by_id["broken"]["error"]["stage"] == "preprocess"
    assert [m["id"] for m in result["means"]] == ["ok"]
    assert "error in stage preprocess" in result["table"]


@pytest.mark.parametrize("step", ["workdir", "manifest"])
def test_a_cell_that_fails_outside_its_stages_is_a_failed_row(make_config, tmp_path, monkeypatch, step):
    # cell b fails in no stage: its directory cannot be created, as
    # <workdir>/b is a regular file, or its manifest's hash of config.json
    # cannot be taken. It is a failed row naming that step, and the matrix
    # keeps cell a's result and still writes matrix.json
    configs = [make_config(experiment_id=i, model="classical-baseline", epochs=2, max_train=160)
               for i in ("a", "b")]
    if step == "workdir":
        (tmp_path / "b").write_text("not a directory")
    else:
        real = persist.sha256_file

        def sha256_file(path):
            if Path(path).name == "config.json" and Path(path).parent.parent.name == "b":
                raise OSError("hash read failed")
            return real(path)

        monkeypatch.setattr(persist, "sha256_file", sha256_file)
    result = harness.run_matrix(configs, tmp_path)
    by_id = {r["id"]: r for r in result["rows"]}
    assert "error" not in by_id["a"] and "accuracy" in by_id["a"]
    assert by_id["b"]["error"]["stage"] == step
    assert [m["id"] for m in result["means"]] == ["a"]
    assert persist.load_json(tmp_path / "matrix.json")["rows"] == result["rows"]
    assert f"error in stage {step}" in result["table"]


def test_matrix_duplicate_ids_rejected(make_config, tmp_path):
    with pytest.raises(ValueError, match="unique"):
        harness.run_matrix([make_config(), make_config()], tmp_path)


def test_matrix_csv_layout(make_config, tmp_path):
    result = harness.run_matrix(
        [make_config(experiment_id="csv-cell", model="classical-baseline", epochs=2)],
        tmp_path,
    )
    text = harness.matrix_csv(result)
    lines = text.strip().split("\n")
    assert lines[0].startswith("id,repeat,dataset,model,qubits")
    assert len(lines) == 2
    assert lines[1].startswith("csv-cell,0,nslkdd,classical-baseline")


# --------------------------------------------------------------------- cli


def _cli_common(nslkdd_dir):
    return [
        "--dataset",
        "nslkdd",
        "--train-path",
        str(nslkdd_dir / "KDDTrain+.txt"),
        "--test-path",
        str(nslkdd_dir / "KDDTest+.txt"),
        "--qubits",
        "3",
        "--reps",
        "1",
        "--hidden",
        "32,16",
        "--embed-dim",
        "8",
        "--epochs",
        "2",
        "--patience",
        "2",
        "--batch-size",
        "64",
        "--c-grid",
        "1.0,10.0",
        "--folds",
        "2",
        "--max-train",
        "160",
    ]


_CLI_REQUIRED = ["--workdir", "w", "--dataset", "nslkdd", "--train-path", "a", "--test-path", "b"]

# (flags, field, value): each pipeline flag with a value other than its default
_CLI_FLAGS = [
    (["--id", "run-1"], "experiment_id", "run-1"),
    (["--train-path", "other"], "train_path", "other"),
    (["--test-path", "other"], "test_path", "other"),
    (["--corpus-path", "corpus"], "corpus_path", "corpus"),
    (["--val-fraction", "0.3"], "val_fraction", 0.3),
    (["--test-fraction", "0.1"], "test_fraction", 0.1),
    (["--ngram-max", "2"], "ngram_max", 2),
    (["--max-train", "500"], "max_train", 500),
    (["--hidden", "8,4"], "hidden_sizes", (8, 4)),
    (["--embed-dim", "6"], "embed_dim", 6),
    (["--dropout", "0.3"], "dropout", 0.3),
    (["--epochs", "30"], "epochs", 30),
    (["--batch-size", "32"], "batch_size", 32),
    (["--lr", "0.01"], "learning_rate", 0.01),
    (["--weight-decay", "0.001"], "weight_decay", 0.001),
    (["--patience", "2"], "patience", 2),
    (["--qubits", "3"], "qubits", 3),
    (["--reps", "3"], "reps", 3),
    (["--vqc-reps", "3"], "reupload", 3),
    (["--entanglement", "linear"], "entanglement", "linear"),
    (["--convention", "product"], "second_order_coeff", "product"),
    (["--backend", "shots"], "backend", "shots"),
    (["--shots", "64"], "shots", 64),
    (["--depol1", "0.01"], "depol_1q", 0.01),
    (["--depol2", "0.02"], "depol_2q", 0.02),
    (["--readout01", "0.03"], "readout_01", 0.03),
    (["--readout10", "0.04"], "readout_10", 0.04),
    (["--mitigate"], "mitigate", True),
    (["--fine-tune"], "fine_tune", True),
    (["--c-grid", "0.5,5"], "c_grid", (0.5, 5.0)),
    (["--folds", "3"], "cv_folds", 3),
    (["--beta", "1.0"], "beta", 1.0),
    (["--seed", "3"], "seeds", Seeds(3, 3, 3)),
    (["--data-seed", "4"], "seeds", Seeds(data=4)),
    (["--encoder-seed", "5"], "seeds", Seeds(encoder=5)),
    (["--sampling-seed", "6"], "seeds", Seeds(sampling=6)),
    (["--seed", "3", "--data-seed", "4"], "seeds", Seeds(4, 3, 3)),
]


def _cli_config(command, *flags):
    model = cli._STAGE_COMMANDS[command][0]
    return cli._config_from(cli.build_parser().parse_args([command, *_CLI_REQUIRED, *flags]), model)


@pytest.mark.parametrize("flags,field,value", _CLI_FLAGS, ids=[" ".join(f[0]) for f in _CLI_FLAGS])
def test_each_pipeline_flag_sets_its_field_alone(flags, field, value):
    config, defaults = _cli_config("train-qsvm", *flags), _cli_config("train-qsvm")
    assert getattr(config, field) == value
    assert replace(config, **{field: getattr(defaults, field)}) == defaults


def test_every_config_field_has_a_pipeline_flag():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"dataset", "model"}
    assert {field for _, field, _ in _CLI_FLAGS} == fields


@pytest.mark.parametrize("command", sorted(cli._STAGE_COMMANDS))
def test_a_command_with_only_its_required_flags_builds_the_config_defaults(command):
    # the CLI holds no default of its own, so none can drift from the config's
    model = cli._STAGE_COMMANDS[command][0]
    assert _cli_config(command) == ExperimentConfig(
        experiment_id=f"nslkdd-{model}", dataset="nslkdd", model=model, train_path="a", test_path="b"
    )


def test_cli_full_qsvm_run_then_evaluate_and_stream(nslkdd_dir, tmp_path, capsys):
    work = str(tmp_path / "cli-qsvm")
    assert main(["train-qsvm", "--workdir", work, *_cli_common(nslkdd_dir)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert 0.0 <= printed["accuracy"] <= 1.0

    assert main(["evaluate", "--workdir", work]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert evaluated == printed

    assert main(["stream-eval", "--workdir", work, "--subset-size", "20"]) == 0
    out = capsys.readouterr().out
    assert "audit lines: 20" in out


def test_cli_shot_stream_uses_the_bundle_sampling_seed(nslkdd_dir, tmp_path, capsys):
    work = str(tmp_path / "cli-seed")
    train = ["train-vqc", "--workdir", work, *_cli_common(nslkdd_dir), "--sampling-seed", "7"]
    assert main(train) == 0
    capsys.readouterr()
    shots = ["--backend", "shots", "--shots", "32"]

    def stream(*extra):
        audit = str(tmp_path / "audit.csv")
        assert main(["stream-eval", "--workdir", work, "--full-test", "--audit", audit, *shots, *extra]) == 0
        out = capsys.readouterr().out
        return json.loads(out[: out.rindex("}") + 1])

    assert main(["evaluate", "--workdir", work, *shots]) == 0
    evaluated = json.loads(capsys.readouterr().out)
    assert stream() == evaluated == stream("--sampling-seed", "7")
    assert stream("--sampling-seed", "0") != evaluated


@pytest.fixture(scope="module")
def cli_readout_vqc_bundle(nslkdd_dir, tmp_path_factory):
    """A VQC bundle trained through the CLI with shots, readout error and mitigation."""
    work = tmp_path_factory.mktemp("cli-readout-vqc")
    shots = [
        "--backend", "shots", "--shots", "64", "--readout01", "0.2", "--readout10", "0.1", "--mitigate"
    ]
    train = ["train-vqc", "--workdir", str(work), *_cli_common(nslkdd_dir), "--vqc-reps", "1", *shots]
    assert main(train) == 0
    return work


def test_cli_shot_evaluate_keeps_the_bundle_shots(cli_readout_vqc_bundle, capsys):
    work = cli_readout_vqc_bundle
    capsys.readouterr()
    manifest = persist.load_json(work / "manifest.json")
    assert main(["evaluate", "--workdir", str(work), "--backend", "shots"]) == 0
    assert json.loads(capsys.readouterr().out) == manifest["shot_eval"]["mitigated"]


@pytest.mark.parametrize(
    "flags,fields,noise",
    [
        (["--depol1", "0.01"], {"depol_1q": 0.01}, NoiseSpec(0.01, 0.0, 0.2, 0.1)),
        (
            ["--readout01", "0", "--readout10", "0"],
            {"readout_01": 0.0, "readout_10": 0.0},
            NoiseSpec(),
        ),
    ],
    ids=["depol1 keeps the readout error", "zero readout flags give noiseless shots"],
)
def test_cli_noise_flags_replace_only_their_own_fields(
    cli_readout_vqc_bundle, capsys, flags, fields, noise
):
    work = cli_readout_vqc_bundle
    evaluate = ["evaluate", "--workdir", str(work), "--backend", "shots", *flags]
    config = harness.load_bundle(work).config
    execution = cli._bundle_execution(cli.build_parser().parse_args(evaluate))
    assert execution.noise == noise
    assert execution == replace(config, backend="shots", **fields).execution()
    capsys.readouterr()
    assert main(evaluate) == 0
    assert json.loads(capsys.readouterr().out) == harness.evaluate_bundle(work, execution)["metrics"]


def test_stream_eval_passes_only_the_flags_given(qsvm_bundle, monkeypatch, capsys, tmp_path):
    # evaluate_streaming owns the defaults of --subset-size and --reference-limit
    _, d, _ = qsvm_bundle
    calls, real = [], harness.evaluate_streaming

    def spy(workdir, **kwargs):
        calls.append(set(kwargs))
        return real(workdir, **kwargs)

    monkeypatch.setattr(harness, "evaluate_streaming", spy)
    stream = ["stream-eval", "--workdir", str(d), "--audit", str(tmp_path / "audit.csv")]
    assert main(stream) == 0
    assert main([*stream, "--subset-size", "20", "--reference-limit", "8"]) == 0
    assert main([*stream, "--full-test"]) == 0
    assert calls == [
        {"execution", "audit_path"},
        {"execution", "audit_path", "subset_size", "reference_limit"},
        {"execution", "audit_path", "subset_size"},  # subset_size=None: every test row
    ]
    out = capsys.readouterr().out
    assert "audit lines: 100" in out and "audit lines: 20" in out


def test_cli_stage_commands_share_a_workdir(nslkdd_dir, tmp_path, capsys):
    work = str(tmp_path / "cli-stages")
    common = _cli_common(nslkdd_dir)
    assert main(["preprocess", "--workdir", work, *common]) == 0
    assert "preprocess" in capsys.readouterr().out
    assert main(["train-encoder", "--workdir", work, *common]) == 0
    assert "encoder" in capsys.readouterr().out
    split_stamp = (tmp_path / "cli-stages" / "preprocess" / "stage.json").stat().st_mtime_ns
    assert main(["train-qsvm", "--workdir", work, *common]) == 0
    json.loads(capsys.readouterr().out)
    after = (tmp_path / "cli-stages" / "preprocess" / "stage.json").stat().st_mtime_ns
    assert after == split_stamp  # stages were reused, not redone


def test_cli_train_vqc(nslkdd_dir, tmp_path, capsys):
    work = str(tmp_path / "cli-vqc")
    args = ["train-vqc", "--workdir", work, *_cli_common(nslkdd_dir), "--vqc-reps", "1"]
    assert main(args) == 0
    printed = json.loads(capsys.readouterr().out)
    assert "macro_f1" in printed


def test_cli_report_renames_its_csv_into_place_in_missing_directories(
    tmp_path, capsys, monkeypatch
):
    row = {"id": "a", "repeat": 0, "error": {"stage": "svm", "message": "x"}}
    persist.save_json(tmp_path / "matrix.json", {"rows": [row], "means": []})
    csv_path = tmp_path / "new" / "dir" / "cells.csv"
    renames = _renames(monkeypatch)
    assert main(["report", "--workdir", str(tmp_path), "--csv", str(csv_path)]) == 0
    assert "error in stage svm" in capsys.readouterr().out
    assert renames == [csv_path]
    assert csv_path.read_text(encoding="utf-8") == harness.matrix_csv({"rows": [row]})


def test_cli_matrix_and_report(nslkdd_dir, tmp_path, capsys, make_config):
    spec = {
        "experiments": [
            make_config(experiment_id="cli-a", model="classical-baseline", epochs=2).as_dict(),
            make_config(experiment_id="cli-b", model="classical-baseline", epochs=2).as_dict(),
        ]
    }
    cfg_path = tmp_path / "matrix.json.in"
    persist.save_json(cfg_path, spec)
    work = str(tmp_path / "cli-matrix")
    assert main(["matrix", "--config", str(cfg_path), "--workdir", work]) == 0
    assert "cli-a" in capsys.readouterr().out

    csv_path = tmp_path / "cells.csv"
    assert main(["report", "--workdir", work, "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "cli-b" in out
    lines = csv_path.read_text().strip().split("\n")
    assert len(lines) == 3  # header + two cells


@pytest.mark.parametrize(
    "spec", [{"foo": 1}, {"experiments": 5}, [5]], ids=["no-experiments", "experiments-int", "int-entry"]
)
def test_cli_matrix_rejects_a_malformed_config_file(spec, tmp_path, capsys):
    path = tmp_path / "matrix.json.in"
    persist.save_json(path, spec)
    assert main(["matrix", "--config", str(path), "--workdir", str(tmp_path / "w")]) == 2
    assert "list of config objects" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, value", [
        ("seeds", [1, 2, 3]), ("qubits", "4"), ("hidden_sizes", 5), ("mitigate", "no"),
        ("hidden_sizes", [2.7, 64]), ("hidden_sizes", [True, 64]), ("c_grid", ["1", 10]),
    ],
    ids=["seeds-list", "qubits-str", "hidden-sizes-int", "mitigate-str",
         "hidden-sizes-float-element", "hidden-sizes-bool-element", "c-grid-str-element"],
)
def test_cli_matrix_rejects_a_mistyped_config_field(make_config, tmp_path, capsys, name, value):
    # a field of the wrong type is a config error, reported before any cell runs
    path = tmp_path / "matrix.json.in"
    persist.save_json(path, [{**make_config().as_dict(), name: value}])
    work = tmp_path / "w"
    assert main(["matrix", "--config", str(path), "--workdir", str(work)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not work.exists()


def test_importing_the_cli_loads_no_heavy_scipy_subpackage():
    # scipy.stats alone once took most of the bench's setup_s; the package
    # needs only scipy.special (the encoder's GELU)
    code = "import json, sys, qthreat.cli; print(json.dumps([m for m in sys.modules if m.startswith('scipy.')]))"
    src = str(Path(harness.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = {m.split(".")[1] for m in json.loads(out)}
    assert not loaded & {"stats", "sparse", "optimize"}, loaded


def test_cli_errors_exit_nonzero(tmp_path, capsys, nslkdd_dir):
    assert main(["evaluate", "--workdir", str(tmp_path / "nothing")]) == 2
    assert "error" in capsys.readouterr().err
    bad = [
        "train-qsvm",
        "--workdir",
        str(tmp_path / "w"),
        "--dataset",
        "nslkdd",
        "--train-path",
        str(tmp_path / "missing.txt"),
        "--test-path",
        str(tmp_path / "missing.txt"),
    ]
    assert main(bad) == 2
    assert "preprocess" in capsys.readouterr().err
    # a schedule that can never run fails at config time, before preprocess
    work = tmp_path / "epochs-0"
    assert main(["train-qsvm", "--workdir", str(work), *_cli_common(nslkdd_dir), "--epochs", "0"]) == 2
    assert "epochs" in capsys.readouterr().err
    assert not (work / "preprocess").exists()
