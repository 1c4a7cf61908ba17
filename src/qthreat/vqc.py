"""Data re-uploading variational classifier.

The circuit interleaves L copies of a single-rep, linearly entangled
feature layer with trainable RY/RZ rotations and a CZ chain, so the input
angles enter the state L times. Readout is the full-register parity
expectation <Z...Z>, mapped to a logit by a trainable affine pair
(scale, bias). Exact mode runs the circuit in closed form (batched): its
statevectors, and for training its exact gradients from one forward and
one adjoint sweep per step (_adjoint); no GateOp is built on either path,
and there is no shot-mode training. Training runs the encoder's epoch loop
(encoder._fit_epochs) with one encoder.AdamState, which also holds the
encoder copy that fine-tuning updates. A frozen encoder maps each split to
angles once, through angles_from_features, the function scoring uses;
fine-tuning steps the copy through one training workspace, as
encoder.train_encoder does (encoder._Workspace, _gather_rows, _forward and
_backward). Shot-mode evaluation runs the gate list `build_vqc_circuit`
builds through the shot engine the kernel estimator uses: the rows'
circuits run SHOT_BLOCK at a time as one stacked density evolution with
depolarizing noise (qsim.evolve_density), then each row's outcome
distribution is sampled with readout error folded in and optionally
mitigated (qsim.shot_estimates) and read out as its parity. The gate-level
engine and the parameter-shift gradient the closed form is tested against
are in tests/oracles.py. vqc.json carries no digest of vqc.f64: the stage
marker records both files' hashes (harness._stage).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from . import batched, persist
from .datapipe import feature_rows
from .encoder import (
    AdamState,
    EmbeddingScaler,
    EncoderModel,
    TrainSchedule,
    _backward,
    _fit_epochs,
    _forward,
    _gather_rows,
    _rows,
    _Workspace,
    forward,
    scale_with_grad,
)
from .featuremap import FeatureMapSpec, build_feature_map
from .qsim import CircuitProgram, GateOp, NoiseSpec, outcome_probabilities, shot_estimates, z_signs

MAX_LAYERS = 4
# Rows per stacked density evolution in shot mode: at q = 6 a block of
# 64 x 64 x 64 complex densities is 4 MiB, so memory stays bounded.
SHOT_BLOCK = 64


@dataclass(frozen=True)
class VqcSpec:
    num_qubits: int
    reupload_layers: int = 2
    second_order_coeff: str = "pi_minus"

    def __post_init__(self):
        self.feature_spec()  # the feature map's spec owns the qubit range and conventions
        if not 1 <= self.reupload_layers <= MAX_LAYERS:
            raise ValueError(f"reupload_layers must lie in [1, {MAX_LAYERS}]")

    @property
    def num_params(self) -> int:
        return self.reupload_layers * 2 * self.num_qubits

    def feature_spec(self) -> FeatureMapSpec:
        return FeatureMapSpec(
            self.num_qubits,
            reps=1,
            entanglement="linear",
            second_order_coeff=self.second_order_coeff,
        )

    def as_dict(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "reupload_layers": self.reupload_layers,
            "second_order_coeff": self.second_order_coeff,
        }


@dataclass(frozen=True)
class VqcModel:
    """theta is flat, length L * 2 * q; block l holds q RY angles followed
    by q RZ angles."""

    spec: VqcSpec
    theta: np.ndarray
    scale: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float).reshape(-1).copy()
        if t.size != self.spec.num_params:
            raise ValueError(
                f"theta length {t.size} != {self.spec.num_params} for {self.spec}"
            )
        if not np.all(np.isfinite(t)):
            raise ValueError("theta must be finite")
        if not (np.isfinite(self.scale) and np.isfinite(self.bias)):
            raise ValueError("scale and bias must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "bias", float(self.bias))

    def theta_blocks(self) -> np.ndarray:
        """(L, 2, q) view: [l, 0] RY angles, [l, 1] RZ angles."""
        s = self.spec
        return self.theta.reshape(s.reupload_layers, 2, s.num_qubits)


def init_vqc(spec: VqcSpec, seed: int = 0) -> VqcModel:
    """theta ~ U(-0.1, 0.1), scale = 1, bias = 0."""
    rng = np.random.default_rng(seed)
    return VqcModel(spec, rng.uniform(-0.1, 0.1, size=spec.num_params))


@dataclass(frozen=True)
class Execution:
    """How to evaluate the circuit: exact expectation or sampled shots. A
    mitigated shot execution needs an invertible readout confusion."""

    mode: str = "exact"
    shots: int = 1024
    noise: NoiseSpec = NoiseSpec()
    mitigate: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "shots"):
            raise ValueError(f"unknown execution mode {self.mode!r}")
        if self.mode == "shots" and self.shots < 1:
            raise ValueError("shots must be >= 1 in shot mode")
        if self.mode == "shots" and self.mitigate:
            self.noise.check_invertible()


# ----------------------------------------------------------- circuit build


def build_vqc_circuit(angles, model: VqcModel) -> CircuitProgram:
    """The gate list of one AngleVector, or of a stack of angle rows (m, q)
    whose data gates then carry (m,) angle arrays, for the shot engine."""
    spec = model.spec
    q = spec.num_qubits
    fm_ops = build_feature_map(angles, spec.feature_spec()).ops
    blocks = model.theta_blocks()
    ops = []
    for l in range(spec.reupload_layers):
        ops += fm_ops
        ops += [GateOp("RY", (t,), float(blocks[l, 0, t])) for t in range(q)]
        ops += [GateOp("RZ", (t,), float(blocks[l, 1, t])) for t in range(q)]
        ops += [GateOp("CZ", (i, i + 1)) for i in range(q - 1)]
    return CircuitProgram(q, ops)


def _batch_expectations(angle_rows: np.ndarray, model: VqcModel) -> np.ndarray:
    """<Z...Z> per row, from the rows' closed-form statevectors."""
    spec = model.spec
    psi = batched.evolve(batched.circuit(angle_rows, model.theta_blocks(), spec.feature_spec()))
    return (np.abs(psi) ** 2) @ z_signs(spec.num_qubits)


def _shot_parities(
    angle_rows: np.ndarray, model: VqcModel, execution: Execution, seeds
) -> np.ndarray:
    """Shot estimates of <Z...Z> per row, one seed per row, simulated
    SHOT_BLOCK rows at a time; a row's estimate depends only on its angles
    and its seed."""
    parity = z_signs(model.spec.num_qubits)
    seeds = np.asarray(seeds).reshape(-1)
    out = np.empty(angle_rows.shape[0])
    for start in range(0, angle_rows.shape[0], SHOT_BLOCK):
        block = slice(start, start + SHOT_BLOCK)
        probs = outcome_probabilities(build_vqc_circuit(angle_rows[block], model), execution.noise)
        out[block] = shot_estimates(
            probs, parity, execution.shots, seeds[block], execution.noise, execution.mitigate
        )
    return out


def decision_logits(angle_rows: np.ndarray, model: VqcModel) -> np.ndarray:
    """Exact logits for a stack of angle rows, from one vectorized
    statevector pass."""
    return model.scale * _batch_expectations(angle_rows, model) + model.bias


def shot_logits(
    angle_rows: np.ndarray, model: VqcModel, execution: Execution, seeds
) -> np.ndarray:
    """Shot-mode logits for a stack of angle rows, row i sampled with
    seeds[i]; execution.seed is not read, the caller picks the seeds."""
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    return model.scale * _shot_parities(rows, model, execution, seeds) + model.bias


# --------------------------------------------------------------- gradients


def _adjoint(angle_rows: np.ndarray, model: VqcModel):
    """Exact <Z...Z> per row, and the backward sweep of the adjoint method
    (Jones & Gacon, arXiv:2009.02823) that differentiates it.

    Returns (zhat, backward). zhat comes from the forward pass
    _batch_expectations makes, so it has the same bits. backward(upstream)
    returns the gradient of sum_i upstream_i * logit_i as a dict: "theta"
    (flat, as VqcModel.theta), "scale", "bias" and "angles", the (m, q)
    data-angle gradient. upstream is taken after the forward pass
    because it depends on the logits.

    batched.adjoint sweeps the circuit back from |lambda_i> = upstream_i
    Z...Z|psi_i>; its derivatives by the data gates' angles, RZ(2 alpha_t)
    and RZZ(2 phi_ij), chain to the data angles through the pair phases
    phi_ij(alpha).
    """
    spec = model.spec
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    c = batched.circuit(rows, model.theta_blocks(), spec.feature_spec())
    psi = batched.evolve(c)
    parity = z_signs(spec.num_qubits)
    zhat = (np.abs(psi) ** 2) @ parity

    def backward(upstream) -> Dict[str, object]:
        up = np.broadcast_to(np.asarray(upstream, dtype=float).reshape(-1), (rows.shape[0],))
        dtheta, dgates = batched.adjoint(c, psi, (up[:, None] * parity) * psi)
        # d phi_ij / d alpha_i: -(pi - alpha_j) for pi_minus, alpha_j for product
        slope = rows - math.pi if spec.second_order_coeff == "pi_minus" else rows
        q = spec.num_qubits
        dangles = 2.0 * dgates[:, :q]  # RZ(2 alpha_t)
        for p, (i, j) in enumerate(c.spec.pairs):  # RZZ(2 phi_ij)
            dangles[:, i] += 2.0 * dgates[:, q + p] * slope[:, j]
            dangles[:, j] += 2.0 * dgates[:, q + p] * slope[:, i]
        return {
            "theta": model.scale * dtheta.reshape(-1),
            "scale": float(np.dot(up, zhat)),
            "bias": float(up.sum()),
            "angles": model.scale * dangles,
        }

    return zhat, backward


# ---------------------------------------------------------------- training


def bce_with_logits(logits: np.ndarray, y: np.ndarray, weights: np.ndarray) -> float:
    """Mean over the batch of w_i * [softplus(z_i) - y_i z_i]."""
    z = np.asarray(logits, dtype=float)
    terms = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return float(np.mean(weights * terms))


def angles_from_features(
    x: np.ndarray,
    encoder_model: EncoderModel,
    scaler: EmbeddingScaler,
    num_qubits: int,
) -> np.ndarray:
    """Feature rows -> embedding -> robust scaling -> first q dims as angles."""
    _, e = forward(encoder_model, x)
    scaled, _ = scale_with_grad(e, scaler)
    return math.pi * scaled[:, :num_qubits]


@dataclass
class VqcTrainResult:
    model: VqcModel
    history: dict
    encoder: Optional[EncoderModel] = None


def train_vqc(
    spec: VqcSpec,
    schedule: TrainSchedule,
    train: Tuple[np.ndarray, np.ndarray],
    val: Tuple[np.ndarray, np.ndarray],
    seed: int = 0,
    encoder_model: Optional[EncoderModel] = None,
    scaler: Optional[EmbeddingScaler] = None,
    fine_tune: bool = False,
) -> VqcTrainResult:
    """Minimize weighted BCE-with-logits by Adam over (theta, scale, bias).

    Inputs are angle rows when no encoder is given, otherwise raw feature
    rows pushed through the encoder + scaler; a frozen encoder maps each
    split to angles once, before the first epoch (angles_from_features).
    Each step takes its logits and exact gradients from one forward and one
    adjoint sweep (_adjoint). With fine_tune=True a copy of the encoder
    receives gradients through the data angles of the same sweep, so each
    batch is embedded afresh: its rows are gathered into one encoder
    workspace, allocated once, whose eval-mode forward and backward every
    step reuses; the classifier head and dropout stay off during
    fine-tuning. One AdamState holds theta, scale and bias as one flat array
    under "vqc", plus the tuned copy's arrays under their own names, and
    steps once per batch; weight decay reaches only the encoder's `.W`
    matrices. Validation loss picks the best checkpoint (_fit_epochs),
    restored at the end. The result's encoder is the one its model scores
    with: the given encoder, or its fine-tuned copy.
    """
    x_tr, y_tr = feature_rows(train[0]), np.asarray(train[1], dtype=int)
    x_va, y_va = feature_rows(val[0]), np.asarray(val[1], dtype=int)
    if x_tr.shape[0] == 0 or x_va.shape[0] == 0:
        raise ValueError("empty split")
    if set(np.unique(np.concatenate([y_tr, y_va]))) - {0, 1}:
        raise ValueError("labels must be 0/1")
    if fine_tune and (encoder_model is None or scaler is None):
        raise ValueError("fine_tune requires an encoder and a scaler")
    if encoder_model is not None and scaler is None:
        raise ValueError("an encoder requires a scaler")
    q = spec.num_qubits
    if encoder_model is None:
        x_tr, x_va = (np.asarray(x, dtype=float) for x in (x_tr, x_va))
        for arr in (x_tr, x_va):
            if arr.shape[1] < q:
                raise ValueError("angle rows narrower than num_qubits")
            if np.abs(arr[:, :q]).max() > math.pi + 1e-9:
                raise ValueError("angles must lie in [-pi, pi]")

    init_seed, shuffle_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    init = init_vqc(spec, init_seed)
    params = {"vqc": np.concatenate([init.theta, [init.scale, init.bias]])}
    w = np.asarray(schedule.class_weights, dtype=float)

    # only fine-tuning writes to the encoder, so only it works on a copy
    tuned = encoder_model
    if fine_tune:
        tuned = EncoderModel(encoder_model.config, encoder_model.copy_params())
        params.update(tuned.params)
        ws = _Workspace(tuned, min(schedule.batch_size, x_tr.shape[0]), cache=True)
        gather = _gather_rows(x_tr, ws)
    elif encoder_model is not None:  # fixed angles: each split once, rows indexed per batch
        ang_tr, ang_va = (angles_from_features(x, tuned, scaler, q) for x in (x_tr, x_va))
    else:
        ang_tr, ang_va = x_tr[:, :q], x_va[:, :q]
    adam = AdamState(params)

    def current() -> VqcModel:
        flat = params["vqc"]
        return VqcModel(spec, flat[:-2], float(flat[-2]), float(flat[-1]))

    def step(idx):
        yb, m = y_tr[idx], idx.size
        if fine_tune:
            gather(idx)
            scaled, live = scale_with_grad(_forward(tuned, ws, m, None)[1], scaler)
            ang = math.pi * scaled[:, :q]
        else:
            ang = ang_tr[idx]
        model = current()
        zhat, backward = _adjoint(ang, model)
        logits = model.scale * zhat + model.bias
        wb = w[yb]
        dlogit = wb * (1.0 / (1.0 + np.exp(-logits)) - yb) / m
        g = backward(dlogit)
        grads = {"vqc": np.concatenate([g["theta"], [g["scale"], g["bias"]]])}
        if fine_tune:
            de = _rows(ws.de, m, tuned.config.embed_dim)
            de.fill(0.0)
            de[:, :q] = g["angles"] * math.pi * live[:, :q]
            _backward(tuned, ws)
            grads.update(ws.grads)
        adam.step(grads, schedule.learning_rate, schedule.weight_decay)
        return bce_with_logits(logits, yb, wb)

    def validate():
        model = current()
        ang = angles_from_features(x_va, tuned, scaler, q) if fine_tune else ang_va
        logits = decision_logits(ang, model)
        val_loss = bce_with_logits(logits, y_va, w[y_va])
        val_acc = float(np.mean((logits > 0).astype(int) == y_va))
        return -val_loss, {"val_loss": val_loss, "val_accuracy": val_acc}

    epochs, best_epoch, best_value, best = _fit_epochs(
        schedule, x_tr.shape[0], np.random.default_rng(shuffle_seed), step, validate,
        lambda: {k: v.copy() for k, v in params.items()},
    )
    for k, v in best.items():
        np.copyto(params[k], v)
    history = {"epochs": epochs, "monitor": "val_loss",
               "best_epoch": best_epoch, "best_val_loss": -best_value}
    return VqcTrainResult(current(), history, tuned)


# ------------------------------------------------------------- persistence


def save_vqc(model: VqcModel, directory, extra: Optional[dict] = None) -> dict:
    d = Path(directory)
    packed = np.concatenate([model.theta, [model.scale, model.bias]])
    persist.save_arrays(d / "vqc.f64", (packed,))
    header = {
        "spec": model.spec.as_dict(),
        "num_params": model.spec.num_params,
        "packed_length": int(packed.size),
    }
    if extra:
        header["extra"] = extra
    persist.save_json(d / "vqc.json", header)
    return header


def load_checkpoint(directory, unverified=None) -> Tuple[VqcModel, dict]:
    """The model save_vqc wrote and the `extra` its header carries; vqc.json
    and vqc.f64 are each hash-checked on their read when `unverified` holds
    them (persist.load_json, persist.load_arrays)."""
    d = Path(directory)
    header = persist.load_json(d / "vqc.json", unverified)
    spec = VqcSpec(**header["spec"])
    [packed] = persist.load_arrays(
        d / "vqc.f64", [("<f8", (header["packed_length"],))], unverified
    )
    return VqcModel(spec, packed[:-2], float(packed[-2]), float(packed[-1])), header.get("extra", {})


def load_vqc(directory) -> VqcModel:
    """The model save_vqc wrote (load_checkpoint without the extra)."""
    return load_checkpoint(directory)[0]
