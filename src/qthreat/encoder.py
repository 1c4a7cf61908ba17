"""Classical MLP front end and the embedding-to-angle scaler.

Blocks are Linear -> LayerNorm -> GELU -> Dropout; a projection head emits a
unit-norm embedding and a 2-way linear classifier rides on it. Training is
class-weighted softmax cross-entropy under Adam with decoupled weight decay
and early stopping on validation macro-F1. Everything is float64 numpy; all
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
from .metrics import confusion, macro_f1

LN_EPS = 1e-12  # keeps the pre-scale output variance 1 within 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per pass of the in-place Adam step: each float64 operand of a pass
# is 128 KiB, so the moments, parameter, gradient and both scratch buffers
# stay in L2 through the dozen element-wise passes of one chunk.
ADAM_CHUNK = 16384
# the scaler maps these quantiles of the train embeddings to -1 and +1
SCALER_QUANTILES = (0.05, 0.95)
SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def layer_norm(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-scale normalized activations with cached (mean, inv_std)."""
    mu = z.mean(axis=-1, keepdims=True)
    centred = z - mu
    var = (centred**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    return centred * inv_std, mu, inv_std


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


def _forward_batch(model: EncoderModel, x: np.ndarray, rng) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Forward with backprop cache; dropout masks are drawn from `rng`, and
    rng None is eval mode."""
    cfg = model.config
    p = model.params
    a = np.asarray(x, dtype=float)
    cache = {"inputs": [], "xhat": [], "inv_std": [], "phi": [], "masks": []}
    drop = cfg.dropout
    for i in range(model.num_blocks):
        cache["inputs"].append(a)
        z = a @ p[f"block{i}.W"].T + p[f"block{i}.b"]
        xhat, _, inv_std = layer_norm(z)
        cache["xhat"].append(xhat)
        cache["inv_std"].append(inv_std)
        a = p[f"block{i}.gamma"] * xhat + p[f"block{i}.beta"]  # h, the GELU input
        phi = ndtr(a)
        cache["phi"].append(phi)
        a *= phi  # exact GELU, h * Phi(h); backward reuses Phi and recomputes h
        if rng is not None and drop > 0.0:
            mask = (rng.random(a.shape) >= drop).astype(float)
            a = a * mask / (1.0 - drop)
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
    cache["embed_in"] = a
    v = a @ p["embed.W"].T + p["embed.b"]
    norms = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-12)
    e = v / norms
    cache["e"] = e
    cache["norms"] = norms
    logits = e @ p["clf.W"].T + p["clf.b"]
    return logits, e, cache


def forward_with_cache(model: EncoderModel, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Batched eval-mode forward (no dropout) that also returns the backprop
    cache; dropout runs only in loss_and_gradients."""
    batch = np.atleast_2d(np.asarray(x, dtype=float))
    if batch.shape[-1] != model.config.input_dim:
        raise ValueError(
            f"expected {model.config.input_dim} features, got {batch.shape[-1]}"
        )
    return _forward_batch(model, batch, None)


def forward(model: EncoderModel, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eval-mode (logits, unit-norm embedding) for one sample or a batch."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    logits, e, _ = forward_with_cache(model, arr)
    if single:
        return logits[0], e[0]
    return logits, e


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
    rng = np.random.default_rng(dropout_seed) if dropout_seed is not None else None
    p = model.params
    logits, e, cache = _forward_batch(model, x, rng)

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

    Returns gradients for every parameter; classifier entries are zero so
    callers that bypass the logit head (kernel or variational pipelines) can
    feed the result straight into the optimizer. `cache` must come from a
    forward pass with the current parameters: GELU's derivative reuses the
    Phi(h) it cached and recomputes h from the cached xhat. The gradient with
    respect to the input rows is not formed, since no caller reads it.
    """
    p = model.params
    grads = {"clf.W": np.zeros_like(p["clf.W"]), "clf.b": np.zeros_like(p["clf.b"])}
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
        xhat = cache["xhat"][i]
        h = p[f"block{i}.gamma"] * xhat + p[f"block{i}.beta"]  # forward's h, bit for bit
        dh = da * (cache["phi"][i] + h * (np.exp(-0.5 * h * h) / SQRT_2PI))
        grads[f"block{i}.gamma"] = (dh * xhat).sum(axis=0)
        grads[f"block{i}.beta"] = dh.sum(axis=0)
        dxhat = dh * p[f"block{i}.gamma"]
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dz = (dxhat - m1 - xhat * m2) * cache["inv_std"][i]
        grads[f"block{i}.W"] = dz.T @ cache["inputs"][i]
        grads[f"block{i}.b"] = dz.sum(axis=0)
        if i:  # block 0's input gradient would be d loss / d x, which nothing reads
            da = dz @ p[f"block{i}.W"]
    return grads


_DECAYED_SUFFIX = ".W"


def _flat_inplace(a: np.ndarray, name: str) -> np.ndarray:
    """A flat view of `a`; refuses arrays that reshape would copy or that
    cannot be written, since an in-place update of either would be lost."""
    if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a C-contiguous, writable float64 array for the in-place Adam step")
    return a.reshape(-1)


class AdamState:
    """Adam with decoupled weight decay on the `.W` matrices.

    `step` updates the moments m, v and the model's parameters in place,
    through flat views, ADAM_CHUNK elements at a time, with two scratch
    buffers allocated once here. Every value is computed by the same
    operations in the same order as the textbook update, so steps are
    bit-identical to it. Parameters, m and v must therefore be C-contiguous
    and writable float64 arrays; `step` raises ValueError otherwise.
    """

    def __init__(self, model: EncoderModel):
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.t = 0
        width = min(ADAM_CHUNK, max(v.size for v in model.params.values()))
        self._scratch = np.empty((2, width))

    def step(self, model: EncoderModel, grads, lr: float, weight_decay: float):
        views = []  # every array is checked before any is written
        for k, g in grads.items():
            p = _flat_inplace(model.params[k], f"parameter {k}")
            g = np.ravel(g)
            if g.size != p.size:
                raise ValueError(f"gradient {k} has {g.size} elements, parameter has {p.size}")
            decay = weight_decay if weight_decay and k.endswith(_DECAYED_SUFFIX) else 0.0
            views.append((p, _flat_inplace(self.m[k], f"Adam m[{k}]"),
                          _flat_inplace(self.v[k], f"Adam v[{k}]"), g, decay))
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, m, v, g, decay in views:
            for lo in range(0, p.size, ADAM_CHUNK):
                hi = lo + ADAM_CHUNK
                self._chunk(p[lo:hi], m[lo:hi], v[lo:hi], g[lo:hi], bc1, bc2, lr, decay)

    def _chunk(self, p, m, v, g, bc1, bc2, lr, decay):
        a, b = self._scratch[0, : p.size], self._scratch[1, : p.size]
        m *= ADAM_BETA1  # m = beta1 * m + (1 - beta1) * g
        np.multiply(g, 1 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2  # v = beta2 * v + ((1 - beta2) * g) * g
        np.multiply(g, 1 - ADAM_BETA2, out=a)
        a *= g
        v += a
        np.divide(m, bc1, out=a)  # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        if decay:  # update + decay * p
            np.multiply(p, decay, out=b)
            a += b
        a *= lr
        p -= a


def train_encoder(
    config: EncoderConfig,
    schedule: TrainSchedule,
    train: Tuple[np.ndarray, np.ndarray],
    val: Tuple[np.ndarray, np.ndarray],
) -> Tuple[EncoderModel, dict]:
    """Adam training with early stopping on validation macro-F1.

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
    history = {"epochs": [], "selection_metric": "macro_f1"}

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
        logits, _ = forward(model, x_val)
        preds = np.argmax(logits, axis=-1)
        value = macro_f1(confusion(y_val, preds))
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


def fit_scaler(train_embeddings: np.ndarray) -> EmbeddingScaler:
    e = np.atleast_2d(np.asarray(train_embeddings, dtype=float))
    q_low, q_high = SCALER_QUANTILES
    return EmbeddingScaler(np.quantile(e, q_low, axis=0), np.quantile(e, q_high, axis=0))


def scale(embedding: np.ndarray, scaler: EmbeddingScaler) -> np.ndarray:
    """Map [low, high] -> [-1, 1] per dimension, clip, zero the
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
            "q_low": SCALER_QUANTILES[0],
            "q_high": SCALER_QUANTILES[1],
        }
    persist.save_json(d / "encoder.json", header)
    return header


def load_encoder(directory, unverified=None) -> Tuple[EncoderModel, Optional[EmbeddingScaler]]:
    """The model and scaler save_encoder wrote; encoder.json and encoder.f64
    are each hash-checked on their read when `unverified` holds them
    (persist.load_json, persist.load_verified_f64). The parameters are
    views of the one buffer encoder.f64 was read into."""
    d = Path(directory)
    header = persist.load_json(d / "encoder.json", unverified)
    config = EncoderConfig(
        input_dim=header["config"]["input_dim"],
        hidden_sizes=tuple(header["config"]["hidden_sizes"]),
        embed_dim=header["config"]["embed_dim"],
        dropout=header["config"]["dropout"],
        seed=header["config"]["seed"],
    )
    total = sum(int(np.prod(s)) for s in header["param_shapes"].values())
    flat = persist.load_verified_f64(
        d / "encoder.f64", (total,), header["params_sha256"], unverified
    )
    params = {}
    pos = 0
    for name in header["param_order"]:
        shape = tuple(header["param_shapes"][name])
        size = int(np.prod(shape))
        params[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    model = EncoderModel(config, params)
    scaler = None
    if "scaler" in header:
        s = header["scaler"]
        scaler = EmbeddingScaler(np.array(s["low"]), np.array(s["high"]))
    return model, scaler
