"""Classical MLP front end and the embedding-to-angle scaler.

Blocks are Linear -> LayerNorm -> GELU -> Dropout; a projection head emits a
unit-norm embedding and a 2-way linear classifier rides on it. Training is
class-weighted softmax cross-entropy under Adam with decoupled weight decay
and early stopping on a validation metric. Everything is float64 numpy; all
randomness flows through explicit seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import ndtr

from . import persist
from .metrics import accuracy as _accuracy_metric
from .metrics import confusion, f_beta, macro_f1

LN_EPS = 1e-12  # keeps the pre-scale output variance 1 within 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_sizes: Tuple[int, ...] = (256, 64)
    embed_dim: int = 12
    dropout: float = 0.15
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.embed_dim < 2:
            raise ValueError("embed_dim must be >= 2")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")

    def as_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_sizes": list(self.hidden_sizes),
            "embed_dim": self.embed_dim,
            "dropout": self.dropout,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class TrainSchedule:
    epochs: int = 25
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    patience: int = 8
    class_weights: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning_rate must be > 0, weight_decay >= 0")
        if not 0 <= self.patience <= self.epochs:
            raise ValueError("patience must lie in [0, epochs]")
        if min(self.class_weights) <= 0:
            raise ValueError("class weights must be positive")

    def as_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "weight_decay": self.weight_decay,
            "patience": self.patience,
            "class_weights": list(self.class_weights),
        }


def gelu(t: np.ndarray) -> np.ndarray:
    """Exact GELU, t * Phi(t)."""
    return t * ndtr(t)


def gelu_grad(t: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return ndtr(t) + t * pdf


def gelu_tanh(t: np.ndarray) -> np.ndarray:
    """Published tanh approximation; agrees with the exact form within 1e-3."""
    return 0.5 * t * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (t + 0.044715 * t**3)))


def layer_norm(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-scale normalized activations with cached (mean, inv_std)."""
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    return (z - mu) * inv_std, mu, inv_std


class EncoderModel:
    """Parameter container; treat as immutable once training finishes."""

    def __init__(self, config: EncoderConfig, params: Dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @property
    def num_blocks(self) -> int:
        return len(self.config.hidden_sizes)

    def parameter_names(self) -> List[str]:
        names = []
        for i in range(self.num_blocks):
            names += [f"block{i}.W", f"block{i}.b", f"block{i}.gamma", f"block{i}.beta"]
        names += ["embed.W", "embed.b", "clf.W", "clf.b"]
        return names

    def copy_params(self) -> Dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: Dict[str, np.ndarray]):
        for k in self.params:
            self.params[k] = params[k].copy()


def init_encoder(config: EncoderConfig) -> EncoderModel:
    """Fan-in-scaled uniform init for linear layers; gamma=1, beta=0."""
    rng = np.random.default_rng(config.seed)
    params: Dict[str, np.ndarray] = {}
    sizes = (config.input_dim,) + config.hidden_sizes

    def linear(fan_out, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        return w, b

    for i, (fi, fo) in enumerate(zip(sizes[:-1], sizes[1:])):
        params[f"block{i}.W"], params[f"block{i}.b"] = linear(fo, fi)
        params[f"block{i}.gamma"] = np.ones(fo)
        params[f"block{i}.beta"] = np.zeros(fo)
    params["embed.W"], params["embed.b"] = linear(config.embed_dim, sizes[-1])
    params["clf.W"], params["clf.b"] = linear(2, config.embed_dim)
    return EncoderModel(config, params)


def _forward_batch(model: EncoderModel, x: np.ndarray, training: bool, rng) -> Tuple[np.ndarray, np.ndarray, dict]:
    cfg = model.config
    p = model.params
    a = np.asarray(x, dtype=float)
    cache = {"inputs": [], "xhat": [], "inv_std": [], "pre_gelu": [], "masks": []}
    drop = cfg.dropout
    for i in range(model.num_blocks):
        cache["inputs"].append(a)
        z = a @ p[f"block{i}.W"].T + p[f"block{i}.b"]
        xhat, _, inv_std = layer_norm(z)
        cache["xhat"].append(xhat)
        cache["inv_std"].append(inv_std)
        h = p[f"block{i}.gamma"] * xhat + p[f"block{i}.beta"]
        cache["pre_gelu"].append(h)
        a = gelu(h)
        if training and drop > 0.0:
            mask = (rng.random(a.shape) >= drop).astype(float)
            a = a * mask / (1.0 - drop)
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
    cache["embed_in"] = a
    v = a @ p["embed.W"].T + p["embed.b"]
    norms = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-12)
    e = v / norms
    cache["v"] = v
    cache["e"] = e
    cache["norms"] = norms
    logits = e @ p["clf.W"].T + p["clf.b"]
    return logits, e, cache


def forward_with_cache(
    model: EncoderModel,
    x: np.ndarray,
    training: bool = False,
    dropout_seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Batched forward that also returns the backprop cache."""
    batch = np.atleast_2d(np.asarray(x, dtype=float))
    if batch.shape[-1] != model.config.input_dim:
        raise ValueError(
            f"expected {model.config.input_dim} features, got {batch.shape[-1]}"
        )
    rng = np.random.default_rng(dropout_seed) if training else None
    return _forward_batch(model, batch, training, rng)


def forward(
    model: EncoderModel,
    x: np.ndarray,
    training: bool = False,
    dropout_seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(logits, unit-norm embedding) for one sample or a batch."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    logits, e, _ = forward_with_cache(model, arr, training, dropout_seed)
    if single:
        return logits[0], e[0]
    return logits, e


def embeddings(model: EncoderModel, x: np.ndarray) -> np.ndarray:
    _, e = forward(model, x, training=False)
    return e


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def loss_and_gradients(
    model: EncoderModel,
    x: np.ndarray,
    y: np.ndarray,
    class_weights: Sequence[float] = (1.0, 1.0),
    dropout_seed: Optional[int] = None,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Weighted softmax cross-entropy and full backpropagation.

    The loss is sum(w_i * ce_i) / sum(w_i), so duplicating a sample is
    exactly equivalent to doubling its weight. Weight decay is applied in
    the optimizer step, never here.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int).reshape(-1)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if set(np.unique(y)) - {0, 1}:
        raise ValueError("labels must be 0/1")
    training = dropout_seed is not None
    rng = np.random.default_rng(dropout_seed) if training else None
    p = model.params
    logits, e, cache = _forward_batch(model, x, training, rng)

    w = np.asarray(class_weights, dtype=float)[y]
    wsum = w.sum()
    probs = _softmax(logits)
    ce = -np.log(np.maximum(probs[np.arange(y.size), y], 1e-300))
    loss = float((w * ce).sum() / wsum)

    dlogits = probs.copy()
    dlogits[np.arange(y.size), y] -= 1.0
    dlogits *= (w / wsum)[:, None]

    de = dlogits @ p["clf.W"]
    grads = backward_from_embedding(model, cache, de)
    grads["clf.W"] = dlogits.T @ cache["e"]
    grads["clf.b"] = dlogits.sum(axis=0)
    return loss, grads


def backward_from_embedding(model: EncoderModel, cache: dict, de: np.ndarray) -> Dict[str, np.ndarray]:
    """Backprop an upstream gradient on the unit-norm embedding.

    Returns gradients for every parameter; classifier entries stay zero so
    callers that bypass the logit head (kernel or variational pipelines) can
    feed the result straight into the optimizer.
    """
    p = model.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    # through the normalization e = v / ||v||
    dv = (de - (de * cache["e"]).sum(axis=-1, keepdims=True) * cache["e"]) / cache["norms"]
    grads["embed.W"] = dv.T @ cache["embed_in"]
    grads["embed.b"] = dv.sum(axis=0)
    da = dv @ p["embed.W"]

    drop = model.config.dropout
    for i in reversed(range(model.num_blocks)):
        mask = cache["masks"][i]
        if mask is not None:
            da = da * mask / (1.0 - drop)
        dh = da * gelu_grad(cache["pre_gelu"][i])
        xhat = cache["xhat"][i]
        grads[f"block{i}.gamma"] = (dh * xhat).sum(axis=0)
        grads[f"block{i}.beta"] = dh.sum(axis=0)
        dxhat = dh * p[f"block{i}.gamma"]
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dz = (dxhat - m1 - xhat * m2) * cache["inv_std"][i]
        grads[f"block{i}.W"] = dz.T @ cache["inputs"][i]
        grads[f"block{i}.b"] = dz.sum(axis=0)
        da = dz @ p[f"block{i}.W"]
    return grads


_DECAYED_SUFFIX = ".W"


class AdamState:
    def __init__(self, model: EncoderModel):
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.t = 0

    def step(self, model: EncoderModel, grads, lr: float, weight_decay: float):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)
            if weight_decay and k.endswith(_DECAYED_SUFFIX):
                update = update + weight_decay * model.params[k]
            model.params[k] = model.params[k] - lr * update


def _selection_value(metric: str, beta: float, y_true, y_pred) -> float:
    counts = confusion(y_true, y_pred)
    if metric == "macro_f1":
        return macro_f1(counts)
    if metric == "f_beta":
        return f_beta(counts, beta)
    if metric == "accuracy":
        return _accuracy_metric(counts)
    raise ValueError(f"unknown selection metric {metric!r}")


def train_encoder(
    config: EncoderConfig,
    schedule: TrainSchedule,
    train: Tuple[np.ndarray, np.ndarray],
    val: Tuple[np.ndarray, np.ndarray],
    selection_metric: str = "macro_f1",
    selection_beta: float = 1.0,
) -> Tuple[EncoderModel, dict]:
    """Adam training with early stopping on the validation metric.

    Stops once `patience` consecutive epochs fail to improve the best value
    (patience=0 stops at the first non-improving epoch) and restores the
    best checkpoint. Fixed seed gives a bit-identical history.
    """
    x_train, y_train = np.asarray(train[0], dtype=float), np.asarray(train[1], dtype=int)
    x_val, y_val = np.asarray(val[0], dtype=float), np.asarray(val[1], dtype=int)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("train and val splits must be nonempty")

    model = init_encoder(config)
    opt = AdamState(model)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).generate_state(1)[0])
    best_value = -1.0
    best_params = model.copy_params()
    best_epoch = -1
    bad_epochs = 0
    history = {"epochs": [], "selection_metric": selection_metric}

    for epoch in range(schedule.epochs):
        order = rng.permutation(x_train.shape[0])
        epoch_loss = 0.0
        batches = 0
        for start in range(0, order.size, schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            seed = int(rng.integers(0, 2**31 - 1)) if config.dropout > 0 else None
            loss, grads = loss_and_gradients(
                model, x_train[idx], y_train[idx], schedule.class_weights, seed
            )
            opt.step(model, grads, schedule.learning_rate, schedule.weight_decay)
            epoch_loss += loss
            batches += 1
        logits, _ = forward(model, x_val, training=False)
        preds = np.argmax(logits, axis=-1)
        value = _selection_value(selection_metric, selection_beta, y_val, preds)
        history["epochs"].append(
            {"epoch": epoch, "train_loss": epoch_loss / batches, "val_metric": value}
        )
        if value > best_value:
            best_value = value
            best_params = model.copy_params()
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(schedule.patience, 1):
                break

    model.load_params(best_params)
    history["best_epoch"] = best_epoch
    history["best_value"] = best_value
    return model, history


# ------------------------------------------------------------------ scaler


@dataclass(frozen=True)
class EmbeddingScaler:
    low: np.ndarray
    high: np.ndarray
    q_low: float = 0.05
    q_high: float = 0.95

    def __post_init__(self):
        lo = np.asarray(self.low, dtype=float).reshape(-1).copy()
        hi = np.asarray(self.high, dtype=float).reshape(-1).copy()
        if lo.size != hi.size:
            raise ValueError("quantile vectors differ in length")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)

    @property
    def degenerate(self) -> np.ndarray:
        return ~(self.low < self.high)


def fit_scaler(train_embeddings: np.ndarray, q_low: float = 0.05, q_high: float = 0.95) -> EmbeddingScaler:
    e = np.atleast_2d(np.asarray(train_embeddings, dtype=float))
    lo = np.quantile(e, q_low, axis=0)
    hi = np.quantile(e, q_high, axis=0)
    return EmbeddingScaler(lo, hi, q_low, q_high)


def scale(embedding: np.ndarray, scaler: EmbeddingScaler) -> np.ndarray:
    """Map [q_low, q_high] -> [-1, 1] per dimension, clip, zero the
    degenerate dimensions."""
    return scale_with_grad(embedding, scaler)[0]


def scale_with_grad(embedding: np.ndarray, scaler: EmbeddingScaler):
    """Scaled values plus d(scaled)/d(embedding) diagonal factors.

    The derivative is zero wherever the value was clipped or the dimension
    is degenerate, which is what a subgradient of clip gives.
    """
    e = np.asarray(embedding, dtype=float)
    span = scaler.high - scaler.low
    safe = np.where(scaler.degenerate, 1.0, span)
    raw = 2.0 * (e - scaler.low) / safe - 1.0
    x = np.where(scaler.degenerate, 0.0, np.clip(raw, -1.0, 1.0))
    live = (np.abs(raw) < 1.0) & ~scaler.degenerate
    grad = np.where(live, 2.0 / safe, 0.0)
    return x, grad


# ------------------------------------------------------------- persistence


def save_encoder(
    model: EncoderModel,
    directory,
    scaler: Optional[EmbeddingScaler] = None,
    extra: Optional[dict] = None,
) -> dict:
    d = persist.ensure_dir(directory)
    names = model.parameter_names()
    flat = np.concatenate([model.params[k].reshape(-1) for k in names])
    sha = persist.save_array_f64(d / "encoder.f64", flat)
    header = {
        "config": model.config.as_dict(),
        "param_order": names,
        "param_shapes": {k: list(model.params[k].shape) for k in names},
        "params_sha256": sha,
        "init": "fan_in_uniform",
        "rng": "numpy-pcg64",
        "extra": extra or {},
    }
    if scaler is not None:
        header["scaler"] = {
            "low": [float(v) for v in scaler.low],
            "high": [float(v) for v in scaler.high],
            "q_low": scaler.q_low,
            "q_high": scaler.q_high,
        }
    persist.save_json(d / "encoder.json", header)
    return header


def load_encoder(directory) -> Tuple[EncoderModel, Optional[EmbeddingScaler]]:
    d = Path(directory)
    header = persist.load_json(d / "encoder.json")
    config = EncoderConfig(
        input_dim=header["config"]["input_dim"],
        hidden_sizes=tuple(header["config"]["hidden_sizes"]),
        embed_dim=header["config"]["embed_dim"],
        dropout=header["config"]["dropout"],
        seed=header["config"]["seed"],
    )
    total = sum(int(np.prod(s)) for s in header["param_shapes"].values())
    flat = persist.load_verified_f64(
        d / "encoder.f64", (total,), header["params_sha256"],
        "encoder.f64 does not match its recorded sha256",
    )
    params = {}
    pos = 0
    for name in header["param_order"]:
        shape = tuple(header["param_shapes"][name])
        size = int(np.prod(shape))
        params[name] = flat[pos : pos + size].reshape(shape).copy()
        pos += size
    model = EncoderModel(config, params)
    scaler = None
    if "scaler" in header:
        s = header["scaler"]
        scaler = EmbeddingScaler(
            np.array(s["low"]), np.array(s["high"]), s["q_low"], s["q_high"]
        )
    return model, scaler
