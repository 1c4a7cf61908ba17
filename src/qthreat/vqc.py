"""Data re-uploading variational classifier.

The circuit interleaves L copies of a single-rep, linearly entangled
feature layer with trainable RY/RZ rotations and a CZ chain, so the input
angles enter the state L times. Readout is the full-register parity
expectation <Z...Z>, mapped to a logit by a trainable affine pair
(scale, bias). Training is exact statevector simulation. Shot-mode
evaluation goes through the shot engine the kernel estimator uses: the
rows' circuits run SHOT_BLOCK at a time as one stacked density evolution
with depolarizing noise (qsim.evolve_density), then each row's outcome
distribution is sampled with readout error folded in and optionally
mitigated (qsim.shot_estimates) and read out as its parity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from . import batched, persist
from .encoder import (
    AdamState,
    EmbeddingScaler,
    EncoderModel,
    TrainSchedule,
    backward_from_embedding,
    forward,
    forward_with_cache,
    scale_with_grad,
)
from .featuremap import AngleVector, FeatureMapSpec, build_feature_map, pair_phases
from .qsim import CircuitProgram, GateOp, NoiseSpec, outcome_probabilities, shot_estimates, z_signs

MAX_QUBITS = 6
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
        if not 2 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must lie in [2, {MAX_QUBITS}]")
        if not 1 <= self.reupload_layers <= MAX_LAYERS:
            raise ValueError(f"reupload_layers must lie in [1, {MAX_LAYERS}]")
        if self.second_order_coeff not in ("pi_minus", "product"):
            raise ValueError(f"unknown second_order_coeff {self.second_order_coeff!r}")

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
    """How to evaluate the circuit: exact expectation or sampled shots."""

    mode: str = "exact"
    shots: int = 1024
    noise: Optional[NoiseSpec] = None
    mitigate: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "shots"):
            raise ValueError(f"unknown execution mode {self.mode!r}")
        if self.mode == "shots" and self.shots < 1:
            raise ValueError("shots must be >= 1 in shot mode")


# ----------------------------------------------------------- circuit build


def build_vqc_circuit(angles, model: VqcModel) -> CircuitProgram:
    """The circuit of one AngleVector, or of a stack of angle rows (m, q)
    whose data gates then carry (m,) angle arrays."""
    spec = model.spec
    q = spec.num_qubits
    fm_ops = build_feature_map(angles, spec.feature_spec()).ops
    blocks = model.theta_blocks()
    ops = []
    for l in range(spec.reupload_layers):
        ops.extend(fm_ops)
        for t in range(q):
            ops.append(GateOp("RY", (t,), float(blocks[l, 0, t])))
        for t in range(q):
            ops.append(GateOp("RZ", (t,), float(blocks[l, 1, t])))
        for i in range(q - 1):
            ops.append(GateOp("CZ", (i, i + 1)))
    return CircuitProgram(q, ops)


def _batch_expectations(
    angle_rows: np.ndarray,
    model: VqcModel,
    theta: Optional[np.ndarray] = None,
    block_extra: Optional[Mapping[int, np.ndarray]] = None,
) -> np.ndarray:
    """<Z...Z> per row, vectorized over samples.

    theta overrides the model parameters (for shift evaluations);
    block_extra maps a block index to an extra diagonal multiplied into
    that block's feature layer (for data-angle shift evaluations).
    """
    spec = model.spec
    q = spec.num_qubits
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    if rows.shape[1] != q:
        raise ValueError("angle rows must have num_qubits columns")
    fspec = spec.feature_spec()
    s1 = batched.sign_table(q)
    s2 = batched.pair_sign_table(q, fspec.pairs)
    phis = np.atleast_2d(pair_phases(rows, fspec))
    diag = batched.diag_phase_per_sample(rows, phis, s1, s2)
    czd = batched.cz_chain_diag(q)
    th = (model.theta if theta is None else np.asarray(theta, dtype=float)).reshape(
        spec.reupload_layers, 2, q
    )
    psi = batched.zero_batch(rows.shape[0], q)
    for l in range(spec.reupload_layers):
        psi = batched.h_layer(psi, q)
        psi = psi * diag
        if block_extra is not None and l in block_extra:
            psi = psi * block_extra[l][None, :]
        psi = batched.ry_layer(psi, th[l, 0], q)
        psi = batched.rz_layer_shared(psi, th[l, 1], s1)
        psi = psi * czd[None, :]
    return batched.z_all_expectation(psi, q)


def _shot_parities(
    angle_rows: np.ndarray, model: VqcModel, execution: Execution, seeds
) -> np.ndarray:
    """Shot estimates of <Z...Z> per row, one seed per row, simulated
    SHOT_BLOCK rows at a time; a row's estimate depends only on its angles
    and its seed."""
    noise = execution.noise or NoiseSpec()
    parity = z_signs(model.spec.num_qubits)
    seeds = np.asarray(seeds).reshape(-1)
    out = np.empty(angle_rows.shape[0])
    for start in range(0, angle_rows.shape[0], SHOT_BLOCK):
        block = slice(start, start + SHOT_BLOCK)
        probs = outcome_probabilities(build_vqc_circuit(angle_rows[block], model), noise)
        out[block] = shot_estimates(
            probs, parity, execution.shots, seeds[block], noise, execution.mitigate
        )
    return out


def forward_logit(
    angles: AngleVector, model: VqcModel, execution: Execution = Execution()
) -> float:
    """scale * <Z...Z> + bias for one angle-encoded sample; in shot mode the
    row is sampled with execution.seed."""
    row = angles.angles[None, :]
    if execution.mode == "exact":
        zhat = _batch_expectations(row, model)[0]
    else:
        zhat = _shot_parities(row, model, execution, [execution.seed])[0]
    return model.scale * float(zhat) + model.bias


def decision_logits(
    angle_rows: np.ndarray, model: VqcModel, execution: Execution = Execution()
) -> np.ndarray:
    """Logits for a stack of angle rows. Exact mode is one vectorized
    statevector pass; shot mode gives row i the seed
    SeedSequence(execution.seed).generate_state(n)[i]."""
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    if execution.mode == "exact":
        return model.scale * _batch_expectations(rows, model) + model.bias
    seeds = np.random.SeedSequence(execution.seed).generate_state(rows.shape[0])
    return shot_logits(rows, model, execution, seeds)


def shot_logits(
    angle_rows: np.ndarray, model: VqcModel, execution: Execution, seeds
) -> np.ndarray:
    """Shot-mode logits for a stack of angle rows, row i sampled with
    seeds[i] (execution.seed is not read)."""
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    return model.scale * _shot_parities(rows, model, execution, seeds) + model.bias


# --------------------------------------------------------------- gradients


def parameter_shift_grad(
    angle_rows: np.ndarray,
    model: VqcModel,
    upstream,
    execution: Execution = Execution(),
) -> Dict[str, object]:
    """Gradient of sum_i upstream_i * logit_i over (theta, scale, bias).

    Each rotation angle gets the two-point rule (f(+pi/2) - f(-pi/2)) / 2;
    scale and bias are analytic. Shot-mode evaluation is permitted but the
    result is a stochastic estimate, flagged in the output.
    """
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    up = np.broadcast_to(np.asarray(upstream, dtype=float).reshape(-1), (rows.shape[0],))
    stochastic = execution.mode == "shots"
    out: Dict[str, object] = {
        "theta": np.zeros(model.spec.num_params),
        "scale": 0.0,
        "bias": 0.0,
        "stochastic": stochastic,
    }
    if not np.any(up):
        return out

    def evaluate(theta: np.ndarray) -> np.ndarray:
        if not stochastic:
            return _batch_expectations(rows, model, theta=theta)
        shifted = VqcModel(model.spec, theta, model.scale, model.bias)
        seeds = np.full(rows.shape[0], execution.seed)
        return _shot_parities(rows, shifted, execution, seeds)

    zhat = evaluate(model.theta)
    grad_theta = np.empty(model.spec.num_params)
    for j in range(model.spec.num_params):
        plus = model.theta.copy()
        minus = model.theta.copy()
        plus[j] += 0.5 * math.pi
        minus[j] -= 0.5 * math.pi
        dz = 0.5 * (evaluate(plus) - evaluate(minus))
        grad_theta[j] = float(np.dot(up, dz)) * model.scale
    out["theta"] = grad_theta
    out["scale"] = float(np.dot(up, zhat))
    out["bias"] = float(up.sum())
    return out


def _angle_gradients(angle_rows: np.ndarray, model: VqcModel, upstream) -> np.ndarray:
    """d(sum_i upstream_i * logit_i) / d(angle_rows), exact mode.

    Every occurrence of a data angle (one RZ per block, plus the two chain
    RZZ phases it feeds) is shifted separately and combined by the chain
    rule with the phase's sensitivity to the angle.
    """
    spec = model.spec
    q = spec.num_qubits
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    up = np.broadcast_to(np.asarray(upstream, dtype=float).reshape(-1), (rows.shape[0],))
    fspec = spec.feature_spec()
    s1 = batched.sign_table(q)
    s2 = batched.pair_sign_table(q, fspec.pairs)
    grads = np.zeros_like(rows)

    def shifted_pair(extra_col: np.ndarray, block: int) -> np.ndarray:
        plus = np.exp(-0.25j * math.pi * extra_col)
        zp = _batch_expectations(rows, model, block_extra={block: plus})
        zm = _batch_expectations(rows, model, block_extra={block: np.conj(plus)})
        return 0.5 * (zp - zm)

    for l in range(spec.reupload_layers):
        for t in range(q):
            # RZ(2 alpha_t): d(gate angle)/d(alpha) = 2
            dz = shifted_pair(s1[:, t], l)
            grads[:, t] += 2.0 * up * model.scale * dz
        for p, (i, j) in enumerate(fspec.pairs):
            # RZZ(2 phi_ij): d(gate angle)/d(alpha) = 2 dphi/dalpha
            dz = shifted_pair(s2[:, p], l)
            if spec.second_order_coeff == "pi_minus":
                di = -(math.pi - rows[:, j])
                dj = -(math.pi - rows[:, i])
            else:
                di = rows[:, j]
                dj = rows[:, i]
            grads[:, i] += 2.0 * di * up * model.scale * dz
            grads[:, j] += 2.0 * dj * up * model.scale * dz
    return grads


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
    _, e = forward(encoder_model, np.atleast_2d(np.asarray(x, dtype=float)))
    scaled, _ = scale_with_grad(e, scaler)
    return math.pi * scaled[:, :num_qubits]


@dataclass
class VqcTrainResult:
    model: VqcModel
    history: dict
    encoder: Optional[EncoderModel] = None


class _FlatAdam:
    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1.0 - 0.9**self.t)
        vhat = self.v / (1.0 - 0.999**self.t)
        return params - lr * mhat / (np.sqrt(vhat) + 1e-8)


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
    rows pushed through the frozen encoder + scaler. With fine_tune=True
    the encoder weights receive gradients through the data angles and are
    updated alongside the circuit parameters; the classifier head and
    dropout stay off during fine-tuning. Validation loss picks the best
    checkpoint, restored at the end; patience counts consecutive epochs
    without improvement.
    """
    x_tr, y_tr = np.atleast_2d(np.asarray(train[0], dtype=float)), np.asarray(train[1], dtype=int)
    x_va, y_va = np.atleast_2d(np.asarray(val[0], dtype=float)), np.asarray(val[1], dtype=int)
    if x_tr.shape[0] == 0 or x_va.shape[0] == 0:
        raise ValueError("empty split")
    if set(np.unique(np.concatenate([y_tr, y_va]))) - {0, 1}:
        raise ValueError("labels must be 0/1")
    if fine_tune and (encoder_model is None or scaler is None):
        raise ValueError("fine_tune requires an encoder and a scaler")
    use_encoder = encoder_model is not None
    if use_encoder and scaler is None:
        raise ValueError("an encoder requires a scaler")
    if not use_encoder:
        for arr in (x_tr, x_va):
            if arr.shape[1] < spec.num_qubits:
                raise ValueError("angle rows narrower than num_qubits")
            if np.abs(arr[:, : spec.num_qubits]).max() > math.pi + 1e-9:
                raise ValueError("angles must lie in [-pi, pi]")

    init_seed, shuffle_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    model = init_vqc(spec, init_seed)
    rng = np.random.default_rng(shuffle_seed)
    w = np.asarray(schedule.class_weights, dtype=float)

    tuned: Optional[EncoderModel] = None
    enc_adam: Optional[AdamState] = None
    if use_encoder:
        tuned = EncoderModel(encoder_model.config, encoder_model.copy_params())
        if fine_tune:
            enc_adam = AdamState(tuned)

    def embed_angles(x: np.ndarray, with_cache: bool):
        if not use_encoder:
            return x[:, : spec.num_qubits], None, None
        _, e, cache = forward_with_cache(tuned, x, training=False)
        scaled, live = scale_with_grad(e, scaler)
        return math.pi * scaled[:, : spec.num_qubits], (cache if with_cache else None), live

    adam = _FlatAdam(spec.num_params + 2)
    best = {"loss": math.inf, "epoch": -1, "theta": model.theta.copy(),
            "scale": model.scale, "bias": model.bias,
            "encoder": tuned.copy_params() if (fine_tune and tuned) else None}
    history = {"epochs": [], "monitor": "val_loss"}
    bad_epochs = 0
    n = x_tr.shape[0]

    for epoch in range(schedule.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, schedule.batch_size):
            idx = perm[start : start + schedule.batch_size]
            xb, yb = x_tr[idx], y_tr[idx]
            ang, cache, live = embed_angles(xb, with_cache=fine_tune)
            zhat = _batch_expectations(ang, model)
            logits = model.scale * zhat + model.bias
            wb = w[yb]
            loss = bce_with_logits(logits, yb, wb)
            epoch_loss += loss * idx.size
            dlogit = wb * (1.0 / (1.0 + np.exp(-logits)) - yb) / idx.size

            g = parameter_shift_grad(ang, model, dlogit)
            flat = np.concatenate([model.theta, [model.scale, model.bias]])
            gflat = np.concatenate([g["theta"], [g["scale"], g["bias"]]])
            flat = adam.step(flat, gflat, schedule.learning_rate)
            if fine_tune and cache is not None:
                dang = _angle_gradients(ang, model, dlogit)
                de = np.zeros((idx.size, tuned.config.embed_dim))
                de[:, : spec.num_qubits] = dang * math.pi * live[:, : spec.num_qubits]
                enc_grads = backward_from_embedding(tuned, cache, de)
                enc_adam.step(tuned, enc_grads, schedule.learning_rate, schedule.weight_decay)
            model = VqcModel(spec, flat[:-2], float(flat[-2]), float(flat[-1]))

        ang_va, _, _ = embed_angles(x_va, with_cache=False)
        z_va = _batch_expectations(ang_va, model)
        logits_va = model.scale * z_va + model.bias
        val_loss = bce_with_logits(logits_va, y_va, w[y_va])
        val_acc = float(np.mean((logits_va > 0).astype(int) == y_va))
        history["epochs"].append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / n,
                "val_loss": val_loss,
                "val_accuracy": val_acc,
            }
        )
        if val_loss < best["loss"]:
            best.update(
                loss=val_loss, epoch=epoch, theta=model.theta.copy(),
                scale=model.scale, bias=model.bias,
                encoder=tuned.copy_params() if (fine_tune and tuned) else None,
            )
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(schedule.patience, 1):
                break

    model = VqcModel(spec, best["theta"], best["scale"], best["bias"])
    if fine_tune and tuned is not None and best["encoder"] is not None:
        tuned.load_params(best["encoder"])
    history["best_epoch"] = best["epoch"]
    history["best_val_loss"] = best["loss"]
    return VqcTrainResult(model, history, tuned)


# ------------------------------------------------------------- persistence


def save_vqc(model: VqcModel, directory, extra: Optional[dict] = None) -> dict:
    d = persist.ensure_dir(directory)
    packed = np.concatenate([model.theta, [model.scale, model.bias]])
    sha = persist.save_array_f64(d / "vqc.f64", packed)
    header = {
        "spec": model.spec.as_dict(),
        "num_params": model.spec.num_params,
        "packed_length": int(packed.size),
        "params_sha256": sha,
    }
    if extra:
        header["extra"] = extra
    persist.save_json(d / "vqc.json", header)
    return header


def load_vqc(directory) -> VqcModel:
    d = Path(directory)
    header = persist.load_json(d / "vqc.json")
    spec = VqcSpec(**header["spec"])
    packed = persist.load_verified_f64(
        d / "vqc.f64", (header["packed_length"],), header["params_sha256"],
        "vqc.f64 does not match its recorded sha256",
    )
    return VqcModel(spec, packed[:-2], float(packed[-2]), float(packed[-1]))
