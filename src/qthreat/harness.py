"""Experiment configuration, staged pipelines, one scoring function
(_score) shared by train-time evaluation, rescoring and streaming, and the
run matrix. Every caller scores its whole row stack in one _score call, and
row i of a stack takes position i of the shot seed rules.

A bundle directory is the unit of persistence. Each stage writes its
artifacts plus a ``stage.json`` marker carrying a content key (hash of stage
name, the config slice it depends on, and the upstream stage keys) and the
sha256 of each of its files, so reruns skip finished work, any upstream
change invalidates everything downstream, and a resumed stage's every file
is checked against the marker. The markers are the one record of a stage
file's hash; no file header carries a digest. One function (_stage) runs
this protocol for every stage: the marker is removed and the stage
directory emptied before a stage writes anything, and the marker is saved
after its files are written, so an interrupted stage is rebuilt, never
resumed, and a rebuilt stage holds only its own files. A resumed model
stage is read back by _load_model. The manifest embeds the full config, the
hashes of config.json, of each recorded stage's marker and of the files the
markers list, and the test metrics; it is written with status "incomplete"
first and flipped to "complete" only after evaluation succeeds, when the
run also removes the marked stage directories it did not record (_finish).
Opening a complete bundle (_open_complete) hashes each of those files once:
on the read that parses it, or in one streaming pass over the files nothing
parses.
"""
from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import RNG_KIND, __version__, datapipe, featuremap, metrics, persist, qsim, qsvm, vqc
from .encoder import (
    EncoderConfig,
    EncoderModel,
    TrainSchedule,
    forward,
    fit_scaler,
    load_encoder,
    save_encoder,
    train_encoder,
)
from .featuremap import FeatureMapSpec
from .qsim import NoiseSpec
from .stopwords import STOPWORDS_VERSION

DATASETS = ("nslkdd", "lingspam")
MODELS = ("qsvm", "vqc", "classical-baseline")
BACKENDS = ("exact", "shots")
REFERENCE_LIMIT = 64

# the stages run_experiment(through=...) can stop after, in dependency order
EARLY_STOPS = ("preprocess", "encoder")
STAGE_DIRS = ("preprocess", "encoder", "svm", "vqc", "baseline")


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage {stage!r}: {message}")


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class Seeds:
    """Every random decision in a run draws from one of these."""

    data: int = 0
    encoder: int = 0
    sampling: int = 0

    def __post_init__(self):
        for name in ("data", "encoder", "sampling"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"seed {name!r} must be a nonnegative integer")

    def as_dict(self) -> dict:
        return {"data": self.data, "encoder": self.encoder, "sampling": self.sampling}

    @classmethod
    def from_dict(cls, d: dict) -> "Seeds":
        extra = set(d) - {"data", "encoder", "sampling"}
        if extra:
            raise ValueError(f"unknown seed keys: {sorted(extra)}")
        return cls(**d)

    def shifted(self, offset: int) -> "Seeds":
        return Seeds(self.data + offset, self.encoder + offset, self.sampling + offset)


_ID_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the experiment matrix, fully self-contained.

    The config is embedded verbatim into the manifest; everything the run
    needs (paths, seeds, hyperparameters, noise settings) lives here so a
    bundle can be reproduced from its manifest alone.
    """

    experiment_id: str
    dataset: str
    model: str
    train_path: str = ""
    test_path: str = ""
    corpus_path: str = ""
    qubits: int = 4
    reps: int = 2
    reupload: int = 2
    entanglement: str = "full"
    second_order_coeff: str = "pi_minus"
    backend: str = "exact"
    shots: int = 1024
    depol_1q: float = 0.0
    depol_2q: float = 0.0
    readout_01: float = 0.0
    readout_10: float = 0.0
    mitigate: bool = False
    fine_tune: bool = False
    max_train: int = 4000
    val_fraction: float = 0.2
    test_fraction: float = 0.2
    ngram_max: int = 1
    hidden_sizes: Tuple[int, ...] = (256, 64)
    embed_dim: int = 12
    dropout: float = 0.15
    epochs: int = 25
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    patience: int = 8
    c_grid: Tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    cv_folds: int = 5
    beta: float = 2.0
    seeds: Seeds = field(default_factory=Seeds)

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        if isinstance(self.seeds, dict):
            object.__setattr__(self, "seeds", Seeds.from_dict(self.seeds))
        if not self.experiment_id or set(self.experiment_id) - _ID_OK:
            raise ValueError("experiment_id must be nonempty [A-Za-z0-9._-]")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.dataset == "nslkdd" and not (self.train_path and self.test_path):
            raise ValueError("nslkdd needs train_path and test_path")
        if self.dataset == "lingspam" and not self.corpus_path:
            raise ValueError("lingspam needs corpus_path")
        # the specs own the ranges of qubits, reps, reupload, entanglement,
        # convention, noise, folds, C and beta, and the encoder config and
        # schedule those of the encoder and training settings, for every model
        self.feature_spec(), self.vqc_spec(), self.noise(), self.cv_plan()
        self.encoder_config(1), self.schedule((1.0, 1.0))
        if self.qubits > self.embed_dim:
            raise ValueError(
                f"qubits {self.qubits} exceeds embed_dim {self.embed_dim}"
            )
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        self.execution()  # a mitigated shot run needs an invertible readout confusion
        for name in ("val_fraction", "test_fraction"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.max_train < 1:
            raise ValueError("max_train must be >= 1")

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["hidden_sizes"] = list(self.hidden_sizes)
        d["c_grid"] = list(self.c_grid)
        d["seeds"] = self.seeds.as_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - names
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**d)

    def config_sha(self) -> str:
        return persist.sha256_bytes(persist.canonical_json(self.as_dict()).encode())

    def noise(self) -> NoiseSpec:
        return NoiseSpec(self.depol_1q, self.depol_2q, self.readout_01, self.readout_10)

    def feature_spec(self) -> FeatureMapSpec:
        return FeatureMapSpec(
            self.qubits, self.reps, self.entanglement, self.second_order_coeff
        )

    def vqc_spec(self) -> vqc.VqcSpec:
        return vqc.VqcSpec(self.qubits, self.reupload, self.second_order_coeff)

    def cv_plan(self) -> qsvm.CvPlan:
        return qsvm.CvPlan(self.cv_folds, self.c_grid, self.beta, self.seeds.data)

    def encoder_config(self, input_dim: int) -> EncoderConfig:
        return EncoderConfig(
            input_dim=input_dim,
            hidden_sizes=self.hidden_sizes,
            embed_dim=self.embed_dim,
            dropout=self.dropout,
            seed=self.seeds.encoder,
        )

    def schedule(self, class_weights: Tuple[float, float]) -> TrainSchedule:
        return TrainSchedule(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            patience=self.patience,
            class_weights=class_weights,
        )

    def execution(self) -> vqc.Execution:
        """How this config's test rows are scored. A rescore under other
        settings scores with replace(config, backend=..., ...).execution()."""
        if self.backend == "exact":
            return vqc.Execution()
        return vqc.Execution(
            "shots", self.shots, self.noise(), self.mitigate, self.seeds.sampling
        )


# ---------------------------------------------------------------- stages


def _stage(root: Path, stages: Dict[str, str], name: str, slice_, inputs, build, load):
    """The resume-by-hash protocol every stage shares; returns the stage's result.

    The key hashes `name`, the config slice and `inputs` (upstream stage keys,
    or source file hashes). The marker root/name/stage.json is the one record
    of the stage's files: {"key": key, "files": {name relative to the stage
    directory: sha256}}. When it holds this key, load(d, unverified) reads
    the stage back, each file of the map hash-checked on its read, and
    persist.check_files hashes the listed files it did not read. A marker
    that is not such an object, or holds another key, or a read that fails
    a hash or structure check (ValueError) or cannot open a file (OSError),
    makes the stage stale: the directory is removed (_remove_stage_dir)
    before build(d) writes anything, and the marker, with the hash of every
    file build wrote, is saved only after it returns, so a stage that fails
    mid-build leaves no marker over its files, and a rebuilt stage keeps no
    file of an earlier key. The key is recorded in `stages` once the stage
    has its result.
    """
    key = persist.stage_key(name, slice_, inputs)
    d = root / name
    marker = d / "stage.json"
    try:
        record = persist.load_json(marker)
        fresh = (isinstance(record, dict) and record.get("key") == key
                 and isinstance(record.get("files"), dict))
        if fresh:
            unverified = {d / rel: sha for rel, sha in record["files"].items()}
            result = load(d, unverified)
            persist.check_files(unverified)
    except (OSError, ValueError):
        fresh = False
    if not fresh:
        if d.exists():
            _remove_stage_dir(d)
        result = build(d)
        files = {p.relative_to(d).as_posix(): persist.sha256_file(p)
                 for p in sorted(d.rglob("*")) if p.is_file()}
        persist.save_json(marker, {"key": key, "files": files})
    stages[name] = key
    return result


def _remove_stage_dir(d: Path) -> None:
    """Remove a stage directory, its stage.json marker last: a process killed
    part-way leaves the marker over what is left, so the next run removes it
    again (a stale or damaged stage, or another model's)."""
    if d.is_symlink():
        raise OSError(f"stage directory {d} is a symbolic link")
    marker = d / "stage.json"
    for p in d.iterdir():
        if p.is_dir() and not p.is_symlink():
            shutil.rmtree(p)
        elif p != marker:
            p.unlink()
    marker.unlink(missing_ok=True)
    d.rmdir()


def _source_hashes(config: ExperimentConfig) -> List[str]:
    """Content hashes of the raw inputs, so a changed source file invalidates
    the preprocess stage even at an unchanged path: the two NSL-KDD files, or
    the Ling-Spam files load_lingspam reads, keyed relative to the corpus root."""
    if config.dataset == "nslkdd":
        return [persist.sha256_file(config.train_path), persist.sha256_file(config.test_path)]
    root = Path(config.corpus_path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root {root} is not a directory")
    files = datapipe.lingspam_files(root)[1]
    entries = [[p.relative_to(root).as_posix(), persist.sha256_file(p)] for p in files]
    return [persist.sha256_bytes(persist.canonical_json(entries).encode())]


def _stage_preprocess(config: ExperimentConfig, root: Path, stages: Dict[str, str]):
    slice_ = {
        "dataset": config.dataset,
        "train_path": config.train_path,
        "test_path": config.test_path,
        "corpus_path": config.corpus_path,
        "val_fraction": config.val_fraction,
        "test_fraction": config.test_fraction,
        "ngram_max": config.ngram_max,
        "max_train": config.max_train,
        "seed": config.seeds.data,
    }

    def build(d):
        if config.dataset == "nslkdd":
            split = datapipe.load_nslkdd(
                config.train_path,
                config.test_path,
                val_fraction=config.val_fraction,
                seed=config.seeds.data,
            )
        else:
            split = datapipe.load_lingspam(
                config.corpus_path,
                test_fraction=config.test_fraction,
                val_fraction=config.val_fraction,
                seed=config.seeds.data,
                ngram_max=config.ngram_max,
            )
        n = split.x_train.shape[0]
        if n > config.max_train:
            # transformer statistics stay fitted on the full pre-carve train set;
            # only the rows the models see are capped
            idx = datapipe.stratified_indices(split.y_train, config.max_train, config.seeds.data)
            split = dataclasses.replace(
                split,
                x_train=split.x_train[idx],
                y_train=split.y_train[idx],
                class_weights=datapipe.class_weights(split.y_train[idx]),
                meta={**split.meta, "max_train": config.max_train, "train_rows_full": n},
            )
        datapipe.save_split(split, d)
        return split

    return _stage(
        root, stages, "preprocess", slice_, _source_hashes(config), build, datapipe.load_split
    )


def _stage_encoder(config: ExperimentConfig, root: Path, stages: Dict[str, str], split):
    slice_ = {
        "hidden_sizes": list(config.hidden_sizes),
        "embed_dim": config.embed_dim,
        "dropout": config.dropout,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "weight_decay": config.weight_decay,
        "patience": config.patience,
        "seed": config.seeds.encoder,
    }

    def build(d):
        enc_cfg = config.encoder_config(split.x_train.shape[1])
        sched = config.schedule(split.class_weights)
        model, history = train_encoder(
            enc_cfg, sched, (split.x_train, split.y_train), (split.x_val, split.y_val)
        )
        _, train_embed = forward(model, split.x_train)
        scaler = fit_scaler(train_embed)
        save_encoder(model, d, scaler, extra={"history": history})
        return model, scaler

    return _stage(root, stages, "encoder", slice_, [stages["preprocess"]], build, load_encoder)


# --------------------------------------------------------------- scoring


@dataclass(frozen=True)
class _Model:
    """A trained model as scoring reads it: the encoder it reads through
    (the fine-tuned copy for a fine-tuned VQC) and the scaler, plus the SVM
    and its support angles and means (qsvm) or the circuit (vqc), and the
    validation threshold its stage tuned (_with_threshold)."""

    config: ExperimentConfig
    encoder: EncoderModel
    scaler: object
    svm: Optional[qsvm.SvmModel] = None
    support_angles: Optional[np.ndarray] = None
    support_means: Optional[np.ndarray] = None
    circuit: Optional[vqc.VqcModel] = None
    threshold: Optional[float] = None

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Feature rows as _score reads them: angles, or the features (baseline)."""
        if self.config.model == "classical-baseline":
            return x
        return vqc.angles_from_features(x, self.encoder, self.scaler, self.config.qubits)


def _load_model(config: ExperimentConfig, root: Path, unverified=None) -> _Model:
    """A bundle's model files, each read once and, when `unverified` holds it,
    hash-checked on that read: encoder/ (vqc/encoder, saved with the same
    scaler, for a fine-tuned VQC), then svm/svm.json (with the support
    angles and means), vqc/, or baseline/baseline.json. The threshold is
    the one the model stage saved. A model stage resumes with its marker's
    map, which lists no encoder/ file: the encoder stage checked those."""
    if config.model == "vqc":
        enc_dir = root / "vqc" / "encoder" if config.fine_tune else root / "encoder"
        circuit, extra = vqc.load_checkpoint(root / "vqc", unverified)
        return _Model(
            config, *load_encoder(enc_dir, unverified), circuit=circuit,
            threshold=float(extra["threshold"]),
        )
    enc_model, scaler = load_encoder(root / "encoder", unverified)
    if config.model == "qsvm":
        svm, angles, means = qsvm.load_svm(root / "svm" / "svm.json", unverified)
        return _Model(
            config, enc_model, scaler, svm=svm, support_angles=angles, support_means=means,
            threshold=svm.threshold,
        )
    threshold = persist.load_json(root / "baseline" / "baseline.json", unverified)["threshold"]
    return _Model(config, enc_model, scaler, threshold=float(threshold))


def _with_threshold(model: _Model, split) -> _Model:
    """`model` with the F_beta-best threshold of its exact validation scores
    (_score). A QSVM first takes the sign under which positive rows score
    higher; its SvmModel carries that sign and the threshold."""
    val, _ = _score(model, vqc.Execution(), model.rows(split.x_val))
    sign = qsvm.align_sign(val, split.y_val) if model.svm is not None else 1
    threshold = qsvm.tune_threshold(sign * val, split.y_val, model.config.beta)
    svm = replace(model.svm, sign=sign, threshold=threshold) if model.svm is not None else None
    return replace(model, svm=svm, threshold=threshold)


def _score(
    model: _Model, execution: vqc.Execution, rows: np.ndarray,
    reference_limit: int = REFERENCE_LIMIT,
) -> Tuple[np.ndarray, np.ndarray]:
    """(scores, refs): the decision values of `rows` (model.rows of
    validation or test features) and the train rows a QSVM compares them with.

    A QSVM reads its stored support angles and means, no train row. Exact
    QSVM rows go through the observable (qsvm.observable_scorer) over every
    support vector. Shot QSVM rows estimate their kernels against at most
    `reference_limit` support vectors, stratified by label (coef > 0),
    pair (i, j) seeded with _pair_seed(seed, i, j), and combine them as
    sum_j coef_j (k(x, j) - mu_j) + b, the batch decision because the dual
    coefficients sum to zero. Shot VQC row i takes the seed
    SeedSequence(seed).generate_state(n)[i]. This is the only owner of both
    seed rules: row i of `rows` takes position i, so a caller that scores
    some rows in an order scores them as that order's positions.
    """
    config = model.config
    shots = execution.mode == "shots"
    no_refs = np.array([], dtype=int)
    if config.model == "classical-baseline":
        if shots:
            raise ValueError("the classical baseline has no shot backend")
        logits, _ = forward(model.encoder, rows)
        return logits[:, 1] - logits[:, 0], no_refs
    if config.model == "vqc":
        if not shots:
            return vqc.decision_logits(rows, model.circuit), no_refs
        seeds = np.random.SeedSequence(execution.seed).generate_state(len(rows))
        return vqc.shot_logits(rows, model.circuit, execution, seeds), no_refs
    svm, fspec = model.svm, config.feature_spec()
    if not shots:
        observable = qsvm.observable_scorer(svm, model.support_angles, model.support_means, fspec)
        return observable(rows), svm.support
    if not 1 <= reference_limit <= svm.n_train:
        raise ValueError(
            f"reference_limit must lie in [1, n_train] = [1, {svm.n_train}], got {reference_limit}"
        )
    picked = datapipe.stratified_indices(
        (svm.coef > 0).astype(int), reference_limit, config.seeds.sampling
    )
    refs, coef = svm.support[picked], svm.coef[picked]
    ref_angles, mu = model.support_angles[picked], model.support_means[picked]
    kernels = np.stack([
        featuremap.kernel_shot_estimates(
            row, ref_angles, fspec, execution.shots, execution.noise, execution.mitigate,
            [_pair_seed(execution.seed, i, j) for j in range(refs.size)],
        )
        for i, row in enumerate(rows)
    ])
    return svm.sign * ((kernels - mu[None, :]) @ coef + svm.bias), refs


def _stage_svm(config: ExperimentConfig, root: Path, stages: Dict[str, str], split, encoded):
    """The QSVM train stage: the train statevectors and their centred kernel
    as a row source (qsvm.FidelityRows, which computes a row when the SMO
    reads it and keeps at most qsvm.ROW_CACHE_BYTES of rows, so no n x n
    Gram is built), C by cross-validation over that source, the final dual
    fit through the same row cache, and its threshold. svm.json stores the
    fit, the support rows' angles (those the SMO fitted) and centring means,
    and the final fit's solver record; the "svm_json" slice entry names that
    layout, so an older one is rebuilt."""
    fspec = config.feature_spec()
    slice_ = {
        "svm_json": "support_angles",
        "feature_map": fspec.as_dict(),
        "c_grid": list(config.c_grid),
        "cv_folds": config.cv_folds,
        "beta": config.beta,
        "seed": config.seeds.data,
        "class_weights": list(split.class_weights),
    }

    def build(d):
        angles = vqc.angles_from_features(split.x_train, *encoded, config.qubits)
        rows = qsvm.FidelityRows(featuremap.feature_statevectors(angles, fspec))
        best_c, cv_table = qsvm.select_c(rows, split.y_train, config.cv_plan())
        svm, record = qsvm.fit_rows(rows, split.y_train, best_c, split.class_weights)
        model = _with_threshold(_Model(
            config, *encoded, svm=svm, support_angles=angles[svm.support],
            support_means=rows.means[svm.support],
        ), split)
        qsvm.save_svm(
            model.svm, d / "svm.json", model.support_angles, model.support_means,
            cv_table=cv_table, extra={"best_c": best_c, "solver": record},
        )
        return model

    return _stage(
        root, stages, "svm", slice_, [stages["encoder"]], build,
        lambda d, unverified: _load_model(config, root, unverified),
    )


def _stage_vqc(config: ExperimentConfig, root: Path, stages: Dict[str, str], split, encoded):
    slice_ = {
        "qubits": config.qubits,
        "reupload": config.reupload,
        "second_order_coeff": config.second_order_coeff,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "learning_rate": config.learning_rate,
        "weight_decay": config.weight_decay,
        "patience": config.patience,
        "fine_tune": config.fine_tune,
        "beta": config.beta,
        "seed": config.seeds.encoder,
    }

    def build(d):
        enc_model, scaler = encoded
        result = vqc.train_vqc(
            config.vqc_spec(),
            config.schedule(split.class_weights),
            (split.x_train, split.y_train),
            (split.x_val, split.y_val),
            seed=config.seeds.encoder,
            encoder_model=enc_model,
            scaler=scaler,
            fine_tune=config.fine_tune,
        )
        model = _with_threshold(_Model(config, result.encoder, scaler, circuit=result.model), split)
        vqc.save_vqc(
            result.model,
            d,
            extra={
                "threshold": model.threshold,
                "fine_tune": config.fine_tune,
                "best_epoch": result.history["best_epoch"],
                "best_val_loss": result.history["best_val_loss"],
            },
        )
        if config.fine_tune:
            save_encoder(result.encoder, d / "encoder", scaler)
        return model

    return _stage(
        root, stages, "vqc", slice_, [stages["encoder"]], build,
        lambda d, unverified: _load_model(config, root, unverified),
    )


def _stage_baseline(config: ExperimentConfig, root: Path, stages: Dict[str, str], split, encoded):
    def build(d):
        model = _with_threshold(_Model(config, *encoded), split)
        persist.save_json(d / "baseline.json", {
            "threshold": model.threshold, "beta": config.beta, "score": "classifier_logit_margin"
        })
        return model

    return _stage(
        root, stages, "baseline", {"beta": config.beta}, [stages["encoder"]], build,
        lambda d, unverified: _load_model(config, root, unverified),
    )


# ------------------------------------------------------------ run pipeline


def _conventions(config: ExperimentConfig) -> dict:
    return {
        "second_order_coeff": config.second_order_coeff,
        "entanglement": config.entanglement,
        "angle_scale": "pi_times_scaled_embedding",
        "positive_class": 1,
        "qubit_order": "lsb_first",
    }


def run_experiment(config: ExperimentConfig, workdir, through: Optional[str] = None) -> dict:
    """Run the pipeline for one config, resuming finished stages.

    `through` stops after an early stage (one of EARLY_STOPS) leaving the
    manifest incomplete; the default runs to test evaluation and writes a
    complete manifest. Every run walks its stages through _stage, which
    loads a stage whose recorded key matches and rebuilds any other. A
    failed step raises PipelineError naming it: "workdir" (config.json and
    the first manifest write), a stage, "evaluate" or "manifest".
    """
    if through is not None and through not in EARLY_STOPS:
        raise ValueError(f"through must be None or one of {EARLY_STOPS}, not {through!r}")
    root = Path(workdir)
    mpath = root / "manifest.json"
    manifest: dict = {
        "config": config.as_dict(),
        "config_sha256": config.config_sha(),
        "status": "incomplete",
        "stages": {},
    }
    stages: Dict[str, str] = {}

    def step(name, fn, *args, **kwargs):
        """fn(...), with any failure but a PipelineError raised as PipelineError(name)."""
        try:
            return fn(*args, **kwargs)
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc

    # save_json creates the workdir and its missing parents
    step("workdir", persist.save_json, root / "config.json", config.as_dict())
    step("workdir", persist.save_json, mpath, manifest)
    try:
        split = step("preprocess", _stage_preprocess, config, root, stages)
        if through == "preprocess":
            return step("manifest", _finish, manifest, mpath, root, stages, complete=False)

        encoded = step("encoder", _stage_encoder, config, root, stages, split)
        if through == "encoder":
            return step("manifest", _finish, manifest, mpath, root, stages, complete=False)

        if config.model == "qsvm":
            model = step("svm", _stage_svm, config, root, stages, split, encoded)
        elif config.model == "vqc":
            model = step("vqc", _stage_vqc, config, root, stages, split, encoded)
        else:
            model = step("baseline", _stage_baseline, config, root, stages, split, encoded)

        extras: dict = {}
        try:
            rows = model.rows(split.x_test)
            scores, _ = _score(model, vqc.Execution(), rows)
            rep = metrics.report(split.y_test, scores, model.threshold, config.beta)
            if config.model == "vqc":
                extras["consistency"] = {
                    "exact_vs_analytic_max_abs": _vqc_consistency(rows, model.circuit)
                }
            if config.model == "vqc" and config.backend == "shots":
                arms = {"raw": False}
                try:
                    config.noise().check_invertible()
                    arms["mitigated"] = True
                except ValueError:
                    pass  # a singular readout confusion has no mitigated report
                extras["shot_eval"] = {}
                for tag, mitigate in arms.items():
                    execution = replace(config.execution(), mitigate=mitigate)
                    extras["shot_eval"][tag] = metrics.report(
                        split.y_test, _score(model, execution, rows)[0],
                        model.threshold, config.beta,
                    ).as_dict()
        except Exception as exc:
            raise PipelineError("evaluate", str(exc)) from exc
    except PipelineError as err:
        manifest["stages"] = stages
        manifest["error"] = {"stage": err.stage, "message": str(err)}
        step("manifest", persist.save_json, mpath, manifest)
        raise

    manifest.update(
        {
            "versions": {
                "package": __version__,
                "rng": RNG_KIND,
                "stopwords": STOPWORDS_VERSION,
            },
            "conventions": _conventions(config),
            "threshold": float(model.threshold),
            "metrics": rep.as_dict(),
            **extras,
        }
    )
    return step("manifest", _finish, manifest, mpath, root, stages, complete=True)


def _finish(manifest, mpath, root, stages, complete: bool) -> dict:
    """Write the manifest, whose `files` are the hashes of config.json and of
    each recorded stage's marker, and the file hashes each marker lists: no
    other stage file is read. A complete run first removes each stage
    directory it did not record (another model's): a top-level STAGE_DIRS
    directory holding a stage.json, or an empty one (what a removal killed
    before its rmdir leaves). No other path is touched."""
    if complete:
        for name in STAGE_DIRS:
            d = root / name
            if (name not in stages and d.is_dir() and not d.is_symlink()
                    and ((d / "stage.json").is_file() or not any(d.iterdir()))):
                _remove_stage_dir(d)
    manifest["stages"] = stages
    manifest["status"] = "complete" if complete else "incomplete"
    files = {"config.json": persist.sha256_file(root / "config.json")}
    for name in stages:
        marker = root / name / "stage.json"
        files[f"{name}/stage.json"] = persist.sha256_file(marker)
        listed = persist.load_json(marker)["files"]
        files.update((f"{name}/{rel}", sha) for rel, sha in listed.items())
    manifest["files"] = files
    persist.save_json(mpath, manifest)
    return manifest


def _vqc_consistency(angle_rows: np.ndarray, model: vqc.VqcModel, cap: int = 16) -> float:
    """Max gap, on a prefix of rows, between the closed-form exact logits
    (batched) and the parity of the gate-level program's noiseless outcome
    distributions (the shot engine's stacked density evolution); the two
    must agree to 1e-9."""
    rows = angle_rows[:cap]
    if not rows.shape[0]:
        return 0.0
    exact = vqc.decision_logits(rows, model)
    probs = qsim.outcome_probabilities(vqc.build_vqc_circuit(rows, model), NoiseSpec())
    engine = model.scale * (probs @ qsim.z_signs(model.spec.num_qubits)) + model.bias
    gap = float(np.max(np.abs(exact - engine)))
    if gap > 1e-9:
        raise ValueError(f"exact evaluators disagree by {gap:.3e}")
    return gap


# ---------------------------------------------------------------- bundles


@dataclass(frozen=True)
class ArtifactBundle:
    root: Path
    manifest: dict

    @property
    def config(self) -> ExperimentConfig:
        return ExperimentConfig.from_dict(self.manifest["config"])

    @property
    def complete(self) -> bool:
        return self.manifest.get("status") == "complete"

    def unverified(self) -> Dict[Path, str]:
        """path -> manifest sha256 of every bundle file, for persist's readers."""
        return {self.root / name: sha for name, sha in self.manifest.get("files", {}).items()}


def load_bundle(workdir, verify: bool = True) -> ArtifactBundle:
    """Open a bundle, checking every recorded file hash by default."""
    root = Path(workdir)
    mpath = root / "manifest.json"
    if not mpath.exists():
        raise FileNotFoundError(f"no manifest under {root}")
    bundle = ArtifactBundle(root=root, manifest=persist.load_json(mpath))
    if verify:
        persist.check_files(bundle.unverified())
    return bundle


def _open_complete(workdir):
    """(bundle, split, model) of a complete bundle, each manifest file
    hashed once: the split's and the model's files on the reads that parse
    them, where each hash must match the manifest's entry, and every other
    file in one streaming pass. Of the
    split's feature matrices only x_test is parsed: scoring reads no other."""
    bundle = load_bundle(workdir, verify=False)
    if not bundle.complete:
        raise ValueError("bundle is incomplete; rerun the pipeline first")
    unverified = bundle.unverified()
    try:
        split = datapipe.load_split(bundle.root / "preprocess", unverified, ("x_test",))
    except FileNotFoundError as exc:
        # a bundle written before its split's file layout, or one that lost a file
        raise ValueError(f"{exc}; rerun the bundle's config to rebuild it") from exc
    model = _load_model(bundle.config, bundle.root, unverified)
    persist.check_files(unverified)
    return bundle, split, model


def evaluate_bundle(
    workdir, execution: vqc.Execution = vqc.Execution(), reference_limit: int = REFERENCE_LIMIT
) -> dict:
    """Re-evaluate a complete bundle's test split in one scoring call (_score).

    With no execution (exact mode) this reproduces the manifest metrics
    bit-exactly; replace(config, backend="shots", ...).execution() gives
    the bundle's own shot settings, each keyword replacing one. Test row i
    takes position i of the seed rules, so the result equals
    evaluate_streaming over every test row with the same Execution. The
    threshold is the one the model stage saved (model.threshold, which the
    manifest records), applied unchanged; nothing is written to the bundle.
    """
    bundle, split, model = _open_complete(workdir)
    scores, _ = _score(model, execution, model.rows(split.x_test), reference_limit)
    threshold = float(model.threshold)
    rep = metrics.report(split.y_test, scores, threshold, bundle.config.beta)
    return {"metrics": rep.as_dict(), "threshold": threshold, "backend": execution.mode}


# -------------------------------------------------------------- streaming


def _pair_seed(base: int, sample: int, ref: int) -> int:
    return int(np.random.SeedSequence([base, sample, ref]).generate_state(1)[0])


def evaluate_streaming(
    workdir,
    subset: Optional[np.ndarray] = None,
    subset_size: int = 100,
    execution: vqc.Execution = vqc.Execution(),
    audit_path=None,
    reference_limit: int = REFERENCE_LIMIT,
) -> dict:
    """Score the subset's test rows in one scoring call (_score), then emit
    one audit line per row in subset order.

    The k-th row of `subset` takes position k of the seed rules, so
    streaming every test row in order gives the scores of evaluate_bundle,
    in exact and in shot mode. QSVM rows are scored through every support
    vector in exact mode and through a reference set of at most
    `reference_limit` support vectors in shot mode. Decisions use the
    threshold the model stage saved (model.threshold).
    """
    bundle, split, model = _open_complete(workdir)
    config = bundle.config
    n_test = split.y_test.size
    if subset is None:
        subset = datapipe.select_eval_subset(split, subset_size, seed=config.seeds.sampling)
    subset = np.asarray(subset).reshape(-1)
    if subset.size == 0:
        raise ValueError("subset is empty")
    if subset.dtype.kind not in "iu":
        raise ValueError(f"subset must hold integer test indices, not {subset.dtype}")
    if subset.min() < 0 or subset.max() >= n_test:
        raise ValueError("subset index out of range for the test split")
    labels = split.y_test[subset]
    for cls in (0, 1):
        if not np.any(labels == cls):
            raise ValueError(f"subset holds no test row of class {cls}; the report needs both classes")
    if config.model not in ("qsvm", "vqc"):
        raise ValueError("streaming evaluation needs a quantum model bundle")
    threshold = float(model.threshold)

    scores, refs = _score(model, execution, model.rows(split.x_test[subset]), reference_limit)
    path = Path(audit_path) if audit_path is not None else bundle.root / "stream_audit.csv"
    stream = metrics.StreamingConfusion()
    stream.extend(labels, (scores >= threshold).astype(int))
    persist.save_text(path, "".join(line + "\n" for line in stream.lines))
    rep = metrics.report(labels, scores, threshold, config.beta)
    return {
        "report": rep,
        "lines": stream.lines,
        "confusion": stream.counts,
        "indices": subset,
        "scores": scores,
        "reference_size": int(refs.size),
        "audit_path": str(path),
        "threshold": threshold,
    }


# ------------------------------------------------------------------ matrix


_ROW_CONFIG_FIELDS = (
    "dataset",
    "model",
    "qubits",
    "reps",
    "reupload",
    "backend",
    "shots",
    "depol_1q",
    "depol_2q",
    "mitigate",
)
_METRIC_FIELDS = ("accuracy", "macro_f1", "auroc", "auprc")


def run_matrix(configs: Sequence[ExperimentConfig], workdir, repeats: int = 1) -> dict:
    """Run every (config, repeat) cell in order, in the calling thread, collecting
    failures instead of aborting. Repeat r shifts all three seeds by r; its cell is
    run_experiment's bundle in workdir/<id>/seed<r>. Emits matrix.json and matrix.txt."""
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    ids = [c.experiment_id for c in configs]
    if len(set(ids)) != len(ids):
        raise ValueError("experiment ids must be unique")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    root = Path(workdir)

    def run_cell(config, r):
        cell_config = replace(config, seeds=config.seeds.shifted(r))
        cell_dir = root / config.experiment_id / f"seed{r}"
        row = {"id": config.experiment_id, "repeat": r}
        row.update({k: getattr(config, k) for k in _ROW_CONFIG_FIELDS})
        try:
            manifest = run_experiment(cell_config, cell_dir)
        except PipelineError as err:
            row["error"] = {"stage": err.stage, "message": str(err)}
            return row
        m = manifest["metrics"]
        row.update({k: m[k] for k in _METRIC_FIELDS})
        row["threshold"] = manifest["threshold"]
        return row

    rows = [run_cell(c, r) for c in configs for r in range(repeats)]

    means = []
    for config in configs:
        ok = [r for r in rows if r["id"] == config.experiment_id and "error" not in r]
        if not ok:
            continue
        mean_row = {"id": config.experiment_id, "repeat": "mean", "n": len(ok)}
        mean_row.update({k: getattr(config, k) for k in _ROW_CONFIG_FIELDS})
        for k in _METRIC_FIELDS:
            mean_row[k] = float(np.mean([r[k] for r in ok]))
        means.append(mean_row)

    table = format_matrix(rows, means)
    persist.save_json(root / "matrix.json", {"rows": rows, "means": means})
    persist.save_text(root / "matrix.txt", table + "\n")
    return {"rows": rows, "means": means, "table": table}


def format_matrix(rows: List[dict], means: List[dict]) -> str:
    """Aligned text table: per-seed rows, then mean rows."""
    idw = max([len("ID")] + [len(str(r["id"])) for r in rows + means])
    header = f"{'ID':<{idw}}  {'SEED':>4}  {'ACC':>8}  {'F1_MACRO':>8}  {'AUROC':>8}  {'AUPRC':>8}"
    lines = [header, "-" * len(header)]

    def fmt(row):
        seed = str(row["repeat"])
        if "error" in row:
            return f"{row['id']:<{idw}}  {seed:>4}  error in stage {row['error']['stage']}"
        return (
            f"{row['id']:<{idw}}  {seed:>4}  {row['accuracy']:>8.4f}  "
            f"{row['macro_f1']:>8.4f}  {row['auroc']:>8.4f}  {row['auprc']:>8.4f}"
        )

    lines.extend(fmt(r) for r in rows)
    if means:
        lines.append("-" * len(header))
        lines.extend(fmt(r) for r in means)
    return "\n".join(lines)


def matrix_csv(matrix: dict) -> str:
    """Plot-ready CSV of per-seed rows: one line per cell with the config
    knobs (shots, noise, mitigation) alongside the four metrics."""
    cols = ["id", "repeat", *_ROW_CONFIG_FIELDS, *_METRIC_FIELDS]
    lines = [",".join(cols)]
    for row in matrix["rows"]:
        if "error" in row:
            continue
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
