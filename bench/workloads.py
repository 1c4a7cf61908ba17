"""The benchmark's workloads and the three operations each one runs.

Every workload runs the same operations through qthreat's public API:

  train    harness.run_experiment from an empty workdir to a complete
           manifest, backend exact
  rescore  harness.evaluate_bundle with no overrides (hash-verify, load,
           re-score)
  stream   harness.evaluate_streaming on a stratified test subset, exact

A shot workload then streams the same rows once more in shot mode, with
noise, and checks the shot logits against the exact ones; that stream's
rate is printed but not one of the end-to-end metrics.

The workload seed only shapes the generated corpus; the program's own
seeds stay at their defaults, so two runs with one seed do identical work.
"""
from __future__ import annotations

import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import corpora
from qthreat import harness, qsim, vqc
from qthreat.featuremap import AngleVector
from qthreat.qsim import NoiseSpec

# Shot-mode execution of the shot stream: depolarizing noise, readout error
# and tensor-product mitigation, as in the paper's noisy runs.
SHOT_NOISE = NoiseSpec(depol_1q=1e-3, depol_2q=1e-2, readout_flip_01=0.02, readout_flip_10=0.04)
SHOTS = 1024
# Per row, a shot-mode logit may differ from the exact one by at most the
# depolarizing shrink bound plus this many standard errors of the mitigated
# parity estimate (see `shot_tolerance`).
SHOT_SIGMAS = 5.0
# Early stopping off (patience = epochs): every corpus trains the same number
# of epochs, so train_s does not depend on when validation loss stalls.
FIXED_EPOCHS = {"epochs": 25, "patience": 25}
# Rescore and stream only read the bundle, so within one cycle they are
# called in turn, rescore then stream, round after round until this many
# seconds have passed (at most READ_MAX_ROUNDS rounds). Alternating spreads
# each operation's calls over the whole read phase, so a few seconds of a
# slower host do not weigh on one of them alone. The run reports the median
# rescore call and the stream throughput over every call of every cycle.
READ_MIN_S = 10.0
READ_MAX_ROUNDS = 60


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json records why each was chosen."""

    name: str
    corpus: dict                 # keyword arguments of the corpus writer
    config: dict                 # ExperimentConfig fields besides paths
    stream_rows: int
    shot_stream: bool            # also stream the rows in shot mode with SHOT_NOISE
    # warm-up overrides: "corpus", "config", "stream_rows"
    mini: dict = field(default_factory=dict)

    @property
    def dataset(self):
        return self.config["dataset"]

    def write_corpus(self, root: Path, seed: int, mini: bool = False) -> dict:
        """Write the corpus of `seed` under root; returns the config's path fields."""
        kwargs = {**self.corpus, **(self.mini.get("corpus", {}) if mini else {})}
        if self.dataset == "nslkdd":
            train, test = corpora.write_nslkdd(root, seed, **kwargs)
            return {"train_path": str(train), "test_path": str(test)}
        corpora.write_lingspam(root, seed, **kwargs)
        return {"corpus_path": str(root)}

    def experiment(self, paths: dict, mini: bool = False) -> harness.ExperimentConfig:
        fields = {**self.config, **(self.mini.get("config", {}) if mini else {})}
        return harness.ExperimentConfig(experiment_id=self.name, **fields, **paths)

    def execution(self) -> Optional[vqc.Execution]:
        if not self.shot_stream:
            return None
        return vqc.Execution("shots", SHOTS, SHOT_NOISE, mitigate=True, seed=0)

    def scale(self) -> dict:
        """Synthetic size next to the real corpus size it stands in for."""
        if self.dataset == "nslkdd":
            return {"train_rows": self.corpus["train_rows"], "test_rows": self.corpus["test_rows"],
                    "real_train_rows": corpora.NSLKDD_TRAIN_ROWS,
                    "real_test_rows": corpora.NSLKDD_TEST_ROWS}
        return {"messages": self.corpus["messages"], "real_messages": corpora.LINGSPAM_MESSAGES,
                "real_test_rows": round(corpora.LINGSPAM_MESSAGES * 0.2)}


WORKLOADS = {w.name: w for w in (
    Workload(
        "kdd-wide",
        corpus={"train_rows": 10000, "test_rows": 2000},
        config={"dataset": "nslkdd", "model": "qsvm", "max_train": 4000,
                "c_grid": (0.1,), "cv_folds": 2, **FIXED_EPOCHS},
        stream_rows=1000, shot_stream=False,
        mini={"corpus": {"train_rows": 300, "test_rows": 30},
              "config": {"max_train": 200, "epochs": 2, "patience": 1}, "stream_rows": 12},
    ),
    Workload(
        "spam-vqc",
        corpus={"messages": 600},
        config={"dataset": "lingspam", "model": "vqc", **FIXED_EPOCHS},
        stream_rows=100, shot_stream=True,
        mini={"corpus": {"messages": 60, "vocab": 2000},
              "config": {"epochs": 1, "patience": 1}, "stream_rows": 4},
    ),
)}


# ------------------------------------------------------------- operations


def _finite(metrics: dict) -> bool:
    return all(math.isfinite(v) for v in metrics.values() if isinstance(v, float))


def shot_tolerance(model: vqc.VqcModel, exact_logits: np.ndarray) -> np.ndarray:
    """Largest |shot - exact| logit difference per row that SHOT_NOISE and
    SHOTS explain.

    Each depolarizing channel is (1 - p) rho + (p / 3) sum_P P rho P, so the
    noisy state is P_clean * (ideal state) + (1 - P_clean) * (some state),
    with P_clean the product of (1 - p) over every channel of the circuit;
    the parity <Z...Z> then moves by at most (1 - P_clean) (1 + |z_exact|).
    After mitigation a single shot adds a parity term of magnitude at most
    c = prod_j max|(1, -1) M_j^-1| (M_j the qubit's readout confusion
    matrix), so the standard error of the estimate is at most c / sqrt(SHOTS).
    """
    q = model.spec.num_qubits
    clean = 1.0
    for op in vqc.build_vqc_circuit(AngleVector(np.zeros(q)), model).ops:
        p = SHOT_NOISE.depol_1q if len(op.targets) == 1 else SHOT_NOISE.depol_2q
        clean *= (1.0 - p) ** len(op.targets)
    c = 1.0
    for p01, p10 in zip(*SHOT_NOISE.flips_for(q)):
        c *= np.abs(np.array([1.0, -1.0]) @ np.linalg.inv(qsim.confusion_matrix_1q(p01, p10))).max()
    z = (exact_logits - model.bias) / model.scale
    return abs(model.scale) * ((1.0 - clean) * (1.0 + np.abs(z)) + SHOT_SIGMAS * c / math.sqrt(SHOTS))


def _read_phase(calls, min_s, mark):
    """Call each `(op, call)` of `calls` in turn, round after round, until
    `min_s` seconds have passed (at least one round, at most READ_MAX_ROUNDS);
    returns each op's last result and every one of its call times."""
    results, times = {}, {op: [] for op, _ in calls}
    start = time.perf_counter()
    rounds = 0
    while not rounds or (time.perf_counter() - start < min_s and rounds < READ_MAX_ROUNDS):
        for op, call in calls:
            mark(op)
            t = time.perf_counter()
            results[op] = call()
            times[op].append(time.perf_counter() - t)
        rounds += 1
    return results, times


def run_repeat(wl: Workload, paths: dict, workdir: Path, mini: bool = False,
               mark=None, read_min_s: float = READ_MIN_S) -> dict:
    """One train -> rescore -> stream cycle in a fresh workdir.

    `mark(op)` is called as each operation call starts ("train", "rescore",
    "stream", and "shot" for the shot stream of a shot workload). Rescore
    and stream alternate until `read_min_s` has passed
    (see READ_MIN_S); a traced run passes 0 so its layer totals cover
    exactly one call of each. Returns timings, the test
    AUROC and the outcome of each check as {name: (passed, detail)}.
    """
    mark = mark or (lambda op: None)
    shutil.rmtree(workdir, ignore_errors=True)
    config = wl.experiment(paths, mini)
    out = {"checks": {}}
    checks = out["checks"]

    mark("train")
    t = time.perf_counter()
    manifest = harness.run_experiment(config, workdir)
    out["train_s"] = time.perf_counter() - t
    out["test_auroc"] = manifest["metrics"]["auroc"]
    checks["manifest_complete"] = (
        manifest["status"] == "complete" and _finite(manifest["metrics"]),
        f"status={manifest['status']}")

    rows = wl.mini["stream_rows"] if mini else wl.stream_rows
    results, times = _read_phase((
        ("rescore", lambda: harness.evaluate_bundle(workdir)),
        ("stream", lambda: harness.evaluate_streaming(
            workdir, subset_size=rows, audit_path=workdir / "stream_audit.csv")),
    ), read_min_s, mark)
    rescored, streamed = results["rescore"], results["stream"]
    out["rescore_calls_s"], out["stream_calls_s"] = times["rescore"], times["stream"]
    out["rescore_s"] = statistics.median(out["rescore_calls_s"])
    checks["rescore_reproduces_manifest"] = (
        rescored["metrics"] == manifest["metrics"],
        f"auroc {rescored['metrics']['auroc']!r} vs {manifest['metrics']['auroc']!r}")

    out["stream_rows"] = streamed["indices"].size
    out["stream_rows_per_s"] = out["stream_rows"] / statistics.median(out["stream_calls_s"])
    ok = (len(streamed["lines"]) == streamed["indices"].size
          and bool(np.all(np.isfinite(streamed["scores"]))))
    checks["stream_complete"] = (ok, f"{len(streamed['lines'])} audit lines")

    execution = wl.execution()
    if execution is not None:
        mark("shot")
        t = time.perf_counter()
        shot = harness.evaluate_streaming(
            workdir, subset=streamed["indices"], execution=execution,
            audit_path=workdir / "shot_audit.csv")
        out["shot_rows_per_s"] = shot["indices"].size / (time.perf_counter() - t)
        # Within the bound, a row's decision can flip only if its exact logit
        # lies within its tolerance of the threshold; how many rows do so
        # depends on the corpus drawn, so the flips are reported, not gated.
        tol = shot_tolerance(vqc.load_vqc(workdir / "vqc"), streamed["scores"])
        excess = np.abs(shot["scores"] - streamed["scores"]) - tol
        thr = shot["threshold"]
        flips = (shot["scores"] >= thr) != (streamed["scores"] >= thr)
        near = np.abs(streamed["scores"][flips] - thr) / tol[flips]
        checks["shot_scores_within_noise_bound"] = (
            bool(np.all(excess <= 0.0)),
            f"{int(np.sum(excess > 0.0))} rows beyond the bound, worst by {excess.max():.4g}; "
            f"{int(flips.sum())} decisions flipped, each within "
            f"{near.max() if near.size else 0.0:.3g} of its tolerance of the threshold")
    return out
