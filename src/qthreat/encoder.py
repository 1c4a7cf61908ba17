"""Classical MLP front end and the embedding-to-angle scaler.

Blocks are Linear -> LayerNorm -> GELU -> Dropout; a projection head emits a
unit-norm embedding and a 2-way linear classifier rides on it. Training is
class-weighted softmax cross-entropy under Adam with decoupled weight decay
and early stopping on validation macro-F1. The Adam (AdamState, over a dict
of named arrays) and the epoch loop with early stopping (_fit_epochs) are
the ones the VQC trains with too. One forward and one backward write every
array into a workspace (_Workspace), whose input rows only _gather_rows
writes. A trainer allocates one for a batch, with the backprop cache, and
every step gathers its rows into it and reuses it: train_encoder does so,
and so does the VQC when it fine-tunes the encoder. The eval forward keeps
no cache and gathers evenly split row blocks into one. Input rows may be
dense of any float dtype or a datapipe.CsrMatrix; each is cast or
densified only into a workspace. Everything is float64 numpy; all
randomness flows through explicit seeds. encoder.json carries no digest of
encoder.f64: the stage marker records both files' hashes (harness._stage).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr

from . import persist
from .datapipe import CsrMatrix, feature_rows
from .metrics import confusion, macro_f1

LN_EPS = 1e-12  # keeps the pre-scale output variance 1 within 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Elements per pass of the in-place Adam step: each float64 operand of a pass
# is 128 KiB, so the moments, parameter, gradient and both scratch buffers
# stay in L2 through the dozen element-wise passes of one chunk.
ADAM_CHUNK = 16384
# Most rows per block of the eval forward, which holds one block's working
# set at a time. A block of M rows through an N-wide layer has the bits of
# the whole-array product only when M * N is past OpenBLAS's small-product
# path (on its Haswell kernel M * N <= 1200 gives other bits), so a block
# also holds at least FORWARD_BLOCK_OUTPUTS outputs of the narrowest hidden
# layer, even where that takes more rows.
FORWARD_BLOCK = 256
FORWARD_BLOCK_OUTPUTS = 2048
# Most bytes of float64 input rows in a block of the eval forward, unless
# the rule above needs more rows.
FORWARD_INPUT_BYTES = 4 << 20
# bytes of input rows a gather by index takes per pass, in their own dtype
GATHER_BYTES = 1 << 20
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
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must be nonempty, each >= 1")
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


def layer_norm(z: np.ndarray, mu=None, inv_std=None, scratch=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize the rows of z in place to pre-scale activations; returns
    (z, mu, inv_std). mu and inv_std take one column, scratch z's shape (it
    holds the squared deviations); each is allocated when not given."""
    mu = np.empty(z.shape[:-1] + (1,)) if mu is None else mu
    inv_std = np.empty(z.shape[:-1] + (1,)) if inv_std is None else inv_std
    scratch = np.empty_like(z) if scratch is None else scratch
    np.mean(z, axis=-1, keepdims=True, out=mu)
    z -= mu
    np.square(z, out=scratch)
    np.mean(scratch, axis=-1, keepdims=True, out=inv_std)
    inv_std += LN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    z *= inv_std
    return z, mu, inv_std


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


def _rows(store: np.ndarray, m: int, width: int) -> np.ndarray:
    """The (m, width) C-contiguous view of the first m * width elements of a
    flat buffer."""
    return store[: m * width].reshape(m, width)


class _Workspace:
    """The arrays one forward, and after it one backward, write into, for up
    to `rows` rows; a pass over m <= rows rows uses their m-row prefixes.

    Every workspace holds the float64 input rows `x`, which _gather_rows
    fills. With `cache` (training) every block keeps its own LayerNorm
    output, 1/std, Phi(h) and output, plus its dropout mask when `masks`,
    and the backward reads them; its buffers, `grads` (one array per
    parameter) and the labels `y` the caller fills are allocated here too.
    Without `cache` (the eval forward) the blocks share one set of arrays,
    alternate two output buffers and write the last block's output where
    the caller says.
    """

    def __init__(self, model: EncoderModel, rows: int, cache: bool, masks: bool = False):
        cfg = model.config
        widths, blocks = cfg.hidden_sizes, model.num_blocks
        self.model, self.rows, self.m, self.masked = model, rows, 0, False

        def buf(width=1):
            return np.empty(rows * width)

        self.x = np.empty((rows, cfg.input_dim))
        self.scratch, self.mu, self.sq = buf(max(widths)), buf(), buf(cfg.embed_dim)
        if cache:
            self.y = np.empty(rows, dtype=int)
            self.xhat = [buf(w) for w in widths]
            self.inv_std = [buf() for _ in widths]
            self.phi = [buf(w) for w in widths]
            self.act = [buf(w) for w in widths]
            self.masks = [buf(w) for w in widths] if masks else None
            self.e, self.norms, self.logits = buf(cfg.embed_dim), buf(), buf(2)
            self.de, self.da = buf(cfg.embed_dim), (buf(max(widths)), buf(max(widths)))
            self.scratch2, self.col, self.w, self.ce = buf(max(widths)), buf(), buf(), buf()
            self.pick, self.base = np.empty(rows, dtype=np.intp), np.arange(0, 2 * rows, 2)
            self.grads = {k: np.empty_like(v) for k, v in model.params.items()}
        else:
            pair = [buf(max(widths)) for _ in range(min(2, blocks - 1))]
            self.xhat, self.inv_std = [buf(max(widths))] * blocks, [buf()] * blocks
            self.phi = [self.scratch] * blocks  # Phi(h) is written after the squares die
            self.act = [pair[i % 2] for i in range(blocks - 1)] + [None]
            self.masks = None


def _block(model: EncoderModel, i: int, a: np.ndarray, ws: _Workspace, out: np.ndarray, rng):
    """Block i over the rows of `a` into `out`: Linear, LayerNorm, exact GELU
    and, when `rng` is given, dropout with a mask drawn from it."""
    p = model.params
    m, width = out.shape
    z = _rows(ws.xhat[i], m, width)
    np.matmul(a, p[f"block{i}.W"].T, out=z)
    z += p[f"block{i}.b"]
    layer_norm(z, _rows(ws.mu, m, 1), _rows(ws.inv_std[i], m, 1), _rows(ws.scratch, m, width))
    np.multiply(p[f"block{i}.gamma"], z, out=out)
    out += p[f"block{i}.beta"]  # h, the GELU input
    phi = _rows(ws.phi[i], m, width)
    ndtr(out, out=phi)
    out *= phi  # exact GELU, h * Phi(h); backward reuses Phi and recomputes h
    if rng is not None:
        mask = _rows(ws.masks[i], m, width)
        rng.random(out=mask)
        np.greater_equal(mask, model.config.dropout, out=mask)
        out *= mask
        out /= 1.0 - model.config.dropout
    return out


def _hidden(model: EncoderModel, ws: _Workspace, a: np.ndarray, rng, last=None) -> np.ndarray:
    """The hidden blocks over the rows of `a`; block i writes ws.act[i], or
    `last` for the last block when given."""
    m = a.shape[0]
    for i, width in enumerate(model.config.hidden_sizes):
        out = last if last is not None and i == model.num_blocks - 1 else _rows(ws.act[i], m, width)
        a = _block(model, i, a, ws, out, rng)
    return a


def _embed(model: EncoderModel, a: np.ndarray, e: np.ndarray, norms: np.ndarray, sq: np.ndarray):
    """The unit-norm embedding of the rows of `a` into `e`, their norms
    (floored at 1e-12) into `norms`; the squares go through `sq`, its rows
    at a time. These are np.linalg.norm's operations, row by row."""
    p = model.params
    np.matmul(a, p["embed.W"].T, out=e)
    e += p["embed.b"]
    step = max(sq.shape[0], 1)
    for lo in range(0, e.shape[0], step):
        v = e[lo : lo + step]
        s = sq[: v.shape[0]]
        np.multiply(v, v, out=s)
        np.add.reduce(s, axis=-1, keepdims=True, out=norms[lo : lo + step])
    np.sqrt(norms, out=norms)
    np.maximum(norms, 1e-12, out=norms)
    e /= norms


def _classify(model: EncoderModel, e: np.ndarray, logits: np.ndarray):
    np.matmul(e, model.params["clf.W"].T, out=logits)
    logits += model.params["clf.b"]


def _forward(model: EncoderModel, ws: _Workspace, m: int, rng) -> Tuple[np.ndarray, np.ndarray]:
    """Forward over the first m rows of ws.x, keeping the backprop cache in
    `ws`; dropout masks are drawn from `rng`, and rng None is eval mode.
    Returns views of ws: (logits, unit-norm embedding)."""
    cfg = model.config
    ws.m, ws.masked = m, rng is not None and cfg.dropout > 0.0
    a = _hidden(model, ws, ws.x[:m], rng if ws.masked else None)
    e, norms = _rows(ws.e, m, cfg.embed_dim), _rows(ws.norms, m, 1)
    _embed(model, a, e, norms, _rows(ws.sq, m, cfg.embed_dim))
    logits = _rows(ws.logits, m, 2)
    _classify(model, e, logits)
    return logits, e


def forward(model: EncoderModel, x) -> Tuple[np.ndarray, np.ndarray]:
    """Eval-mode (logits, unit-norm embedding) for one sample or a batch.

    The rows are split evenly into blocks of at most FORWARD_BLOCK rows and
    FORWARD_INPUT_BYTES of float64 input each. Each block is gathered into
    one workspace with no backprop cache (_gather_rows) and runs through
    the hidden layers there. The heads then run once over the stacked
    last-hidden rows. Beyond one block's workspace, memory grows by the
    last hidden, embedding and logit rows only.
    """
    a = feature_rows(x)
    cfg = model.config
    n = a.shape[0]
    cap = min(FORWARD_BLOCK, FORWARD_INPUT_BYTES // (8 * cfg.input_dim))
    # an even split leaves each block more than cap / 2 rows, so a cap of twice
    # the floor keeps FORWARD_BLOCK_OUTPUTS outputs in each
    cap = max(cap, 2 * -(-FORWARD_BLOCK_OUTPUTS // min(cfg.hidden_sizes)))
    blocks = max(-(-n // cap), 1)
    edges = [n * j // blocks for j in range(blocks + 1)]
    ws = _Workspace(model, -(-n // blocks), cache=False)
    gather = _gather_rows(a, ws)
    stacked = np.empty((n, cfg.hidden_sizes[-1]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        gather(slice(lo, hi))
        _hidden(model, ws, ws.x[: hi - lo], None, stacked[lo:hi])
    e, norms = np.empty((n, cfg.embed_dim)), np.empty((n, 1))
    _embed(model, stacked, e, norms, _rows(ws.sq, ws.rows, cfg.embed_dim))
    del stacked, norms
    logits = np.empty((n, 2))
    _classify(model, e, logits)
    if np.ndim(x) == 1:
        return logits[0], e[0]
    return logits, e


def _check_labels(y: np.ndarray):
    if set(np.unique(y)) - {0, 1}:
        raise ValueError("labels must be 0/1")


def _loss(model: EncoderModel, ws: _Workspace, m: int, class_weights: np.ndarray, rng):
    """Loss and gradients over the first m rows of ws.x and ws.y, every
    array written into ws; the gradients are ws.grads. Labels are 0/1."""
    p, g = model.params, ws.grads
    logits, e = _forward(model, ws, m, rng)
    y, w, ce, pick = ws.y[:m], ws.w[:m], ws.ce[:m], ws.pick[:m]
    np.take(class_weights, y, out=w, mode="clip")
    wsum = w.sum()
    col = _rows(ws.col, m, 1)
    np.max(logits, axis=-1, keepdims=True, out=col)  # softmax in place: logits become probs
    logits -= col
    np.exp(logits, out=logits)
    np.sum(logits, axis=-1, keepdims=True, out=col)
    logits /= col
    flat = logits.reshape(-1)
    np.add(ws.base[:m], y, out=pick)  # flat index of each row's label probability
    np.take(flat, pick, out=ce, mode="clip")
    np.maximum(ce, 1e-300, out=ce)
    np.log(ce, out=ce)
    np.negative(ce, out=ce)
    ce *= w
    loss = float(ce.sum() / wsum)

    np.take(flat, pick, out=ce, mode="clip")  # probs become dlogits
    ce -= 1.0
    np.put(flat, pick, ce, mode="clip")
    w /= wsum
    logits *= w[:, None]

    np.matmul(logits, p["clf.W"], out=_rows(ws.de, m, model.config.embed_dim))
    _backward(model, ws)
    np.matmul(logits.T, e, out=g["clf.W"])
    np.sum(logits, axis=0, out=g["clf.b"])
    return loss, g


def _backward(model: EncoderModel, ws: _Workspace):
    """Gradients of every parameter into ws.grads from the upstream gradient
    on the embedding in ws.de, over the rows of ws's last forward, which ran
    with the current parameters; the classifier's are zero, so a caller that
    bypasses the logit head can hand ws.grads to the optimizer. GELU's
    derivative reuses the Phi(h) the forward kept and recomputes h from its
    xhat. The gradient with respect to the input rows is not formed, since
    nothing reads it."""
    p, g, m = model.params, ws.grads, ws.m
    widths, drop = model.config.hidden_sizes, model.config.dropout
    g["clf.W"].fill(0.0)
    g["clf.b"].fill(0.0)
    e, norms = _rows(ws.e, m, model.config.embed_dim), _rows(ws.norms, m, 1)
    dv, s, col = _rows(ws.de, m, e.shape[1]), _rows(ws.sq, m, e.shape[1]), _rows(ws.col, m, 1)
    # through the normalization e = v / ||v||
    np.multiply(dv, e, out=s)
    np.sum(s, axis=-1, keepdims=True, out=col)
    np.multiply(col, e, out=s)
    dv -= s
    dv /= norms
    np.matmul(dv.T, _rows(ws.act[-1], m, widths[-1]), out=g["embed.W"])
    np.sum(dv, axis=0, out=g["embed.b"])
    cur = 0
    da = _rows(ws.da[cur], m, widths[-1])
    np.matmul(dv, p["embed.W"], out=da)

    for i in reversed(range(model.num_blocks)):
        width = widths[i]
        if ws.masked:
            da *= _rows(ws.masks[i], m, width)
            da /= 1.0 - drop
        xhat, t = _rows(ws.xhat[i], m, width), _rows(ws.scratch2, m, width)
        h = _rows(ws.scratch, m, width)
        np.multiply(p[f"block{i}.gamma"], xhat, out=h)
        h += p[f"block{i}.beta"]  # forward's h, bit for bit
        np.multiply(h, -0.5, out=t)  # GELU's derivative Phi(h) + h * pdf(h)
        t *= h
        np.exp(t, out=t)
        t /= SQRT_2PI
        t *= h
        t += _rows(ws.phi[i], m, width)
        da *= t  # dh
        np.multiply(da, xhat, out=h)
        np.sum(h, axis=0, out=g[f"block{i}.gamma"])
        np.sum(da, axis=0, out=g[f"block{i}.beta"])
        da *= p[f"block{i}.gamma"]  # dxhat
        m1 = _rows(ws.mu, m, 1)
        np.mean(da, axis=-1, keepdims=True, out=m1)
        np.multiply(da, xhat, out=h)
        np.mean(h, axis=-1, keepdims=True, out=col)
        da -= m1
        np.multiply(xhat, col, out=h)
        da -= h
        da *= _rows(ws.inv_std[i], m, 1)  # dz
        block_in = _rows(ws.act[i - 1], m, widths[i - 1]) if i else ws.x[:m]
        np.matmul(da.T, block_in, out=g[f"block{i}.W"])
        np.sum(da, axis=0, out=g[f"block{i}.b"])
        if i:  # block 0's input gradient would be d loss / d x, which nothing reads
            cur = 1 - cur
            nxt = _rows(ws.da[cur], m, widths[i - 1])
            np.matmul(da, p[f"block{i}.W"], out=nxt)
            da = nxt


_DECAYED_SUFFIX = ".W"


def _flat_inplace(a: np.ndarray, name: str) -> np.ndarray:
    """A flat view of `a`; refuses arrays that reshape would copy or that
    cannot be written, since an in-place update of either would be lost."""
    if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a C-contiguous, writable float64 array for the in-place Adam step")
    return a.reshape(-1)


class AdamState:
    """Adam over a dict of named parameter arrays, with decoupled weight
    decay on the arrays whose name ends in `.W`.

    `params` is kept, not copied: `step` updates the moments m, v and the
    arrays `params` holds at the time in place, through flat views,
    ADAM_CHUNK elements at a time, with two scratch buffers allocated once
    here. A step updates the names its gradient dict holds. Every value is
    computed by the same operations in the same order as the textbook
    update, so steps are bit-identical to it. Parameters, m and v must
    therefore be C-contiguous and writable float64 arrays; `step` raises
    ValueError otherwise.
    """

    def __init__(self, params: Dict[str, np.ndarray]):
        self.params = params
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0
        width = min(ADAM_CHUNK, max(v.size for v in params.values()))
        self._scratch = np.empty((2, width))

    def step(self, grads: Dict[str, np.ndarray], lr: float, weight_decay: float):
        views = []  # every array is checked before any is written
        for k, g in grads.items():
            p = _flat_inplace(self.params[k], f"parameter {k}")
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


def _fit_epochs(schedule: TrainSchedule, n: int, rng, step, validate, snapshot):
    """The epoch loop both trainers run, with early stopping.

    Each epoch draws one permutation of range(n) from `rng` and calls
    step(idx) on its consecutive schedule.batch_size slices in order; step
    updates the parameters and returns the batch loss. Then validate()
    returns (value, record), larger values better. snapshot() is taken once
    before the first epoch and again after each epoch whose value is
    strictly greater than every earlier one (a tie or NaN is not). The loop
    stops after schedule.epochs epochs, or once max(schedule.patience, 1)
    consecutive epochs have not improved.

    Returns (epochs, best_epoch, best_value, best): one
    {"epoch", "train_loss", **record} dict per epoch run, train_loss the
    mean of its batch losses; the last improving epoch and its value (-1
    and -inf when none improved); and the snapshot taken after that epoch,
    or before the first when none improved. The caller restores `best`.
    """
    epochs = []
    best_value, best_epoch, best = -math.inf, -1, snapshot()
    bad_epochs = 0
    for epoch in range(schedule.epochs):
        order = rng.permutation(n)
        losses = [step(order[lo : lo + schedule.batch_size]) for lo in range(0, n, schedule.batch_size)]
        value, record = validate()
        epochs.append({"epoch": epoch, "train_loss": sum(losses) / len(losses), **record})
        if value > best_value:
            best_value, best_epoch, best = value, epoch, snapshot()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= max(schedule.patience, 1):
                break
    return epochs, best_epoch, best_value, best


def _gather_rows(x, ws: _Workspace):
    """gather(idx), which writes the rows x[idx] into the first rows of ws.x,
    for a slice or a 1-D index array `idx`, after a width check. This is
    the only way feature rows enter a workspace. Dense rows of a slice are
    a view of x, cast straight into ws.x. Dense rows of an index array are
    taken through a staging buffer of x's dtype, allocated at the first
    such gather, GATHER_BYTES at a time, with mode="clip" since "raise"
    first gathers into a temporary of the output's size. A CsrMatrix's rows are taken with their stored entries
    only and scattered into ws.x, zeroed once here: each gather first
    clears the cells the one before it wrote."""
    x = feature_rows(x)
    if x.shape[-1] != ws.model.config.input_dim:
        raise ValueError(f"expected {ws.model.config.input_dim} features, got {x.shape[-1]}")
    if isinstance(x, CsrMatrix):
        flat = ws.x.reshape(-1)
        flat.fill(0.0)
        written = np.zeros(0, dtype=np.int64)

        def scatter(idx):
            nonlocal written
            flat[written] = 0.0
            rows = x[idx]
            written = rows.cells()
            flat[written] = rows.data

        return scatter
    chunk = min(ws.rows, max(1, GATHER_BYTES // max(x[:1].nbytes, 1)))
    stage = None

    def gather(idx):
        nonlocal stage
        if isinstance(idx, slice):
            rows = x[idx]
            ws.x[: rows.shape[0]] = rows
            return
        if stage is None:
            stage = np.empty((chunk, x.shape[1]), x.dtype)
        for lo in range(0, idx.size, chunk):
            part = stage[: min(chunk, idx.size - lo)]
            np.take(x, idx[lo : lo + chunk], axis=0, out=part, mode="clip")
            ws.x[lo : lo + part.shape[0]] = part

    return gather


def train_encoder(
    config: EncoderConfig,
    schedule: TrainSchedule,
    train: Tuple[np.ndarray, np.ndarray],
    val: Tuple[np.ndarray, np.ndarray],
) -> Tuple[EncoderModel, dict]:
    """Adam training with early stopping on validation macro-F1 (_fit_epochs).

    Stops once `patience` consecutive epochs fail to improve the best value
    (patience=0 stops at the first non-improving epoch), and returns the
    model of the best checkpoint. Fixed seed gives a bit-identical history.
    """
    x_train, y_train = feature_rows(train[0]), np.asarray(train[1], dtype=int)
    x_val, y_val = feature_rows(val[0]), np.asarray(val[1], dtype=int)
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("train and val splits must be nonempty")
    _check_labels(y_train)

    model = init_encoder(config)
    opt = AdamState(model.params)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).generate_state(1)[0])
    weights = np.asarray(schedule.class_weights, dtype=float)
    # one workspace for every batch
    ws = _Workspace(model, min(schedule.batch_size, x_train.shape[0]), cache=True,
                    masks=config.dropout > 0.0)
    gather = _gather_rows(x_train, ws)
    best = {k: np.empty_like(v) for k, v in model.params.items()}

    def snapshot():  # one copy, overwritten by each improving epoch
        for k, v in model.params.items():
            np.copyto(best[k], v)
        return best

    def step(idx):
        seed = int(rng.integers(0, 2**31 - 1)) if config.dropout > 0 else None
        m = idx.size
        gather(idx)
        np.take(y_train, idx, out=ws.y[:m], mode="clip")
        dropout_rng = np.random.default_rng(seed) if seed is not None else None
        loss, grads = _loss(model, ws, m, weights, dropout_rng)
        opt.step(grads, schedule.learning_rate, schedule.weight_decay)
        return loss

    def validate():
        logits, _ = forward(model, x_val)
        value = macro_f1(confusion(y_val, np.argmax(logits, axis=-1)))
        return value, {"val_metric": value}

    epochs, best_epoch, best_value, best = _fit_epochs(
        schedule, x_train.shape[0], rng, step, validate, snapshot
    )
    history = {"epochs": epochs, "selection_metric": "macro_f1",
               "best_epoch": best_epoch, "best_value": best_value}
    return EncoderModel(config, best), history


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


def scale_with_grad(embedding: np.ndarray, scaler: EmbeddingScaler):
    """Scaled values, [low, high] -> [-1, 1] per dimension, clipped, with
    the degenerate dimensions zeroed, plus d(scaled)/d(embedding) diagonal
    factors.

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
    d = Path(directory)
    names = model.parameter_names()
    flat = np.concatenate([model.params[k].reshape(-1) for k in names])
    persist.save_arrays(d / "encoder.f64", (flat,))
    header = {
        "config": model.config.as_dict(),
        "param_order": names,
        "param_shapes": {k: list(model.params[k].shape) for k in names},
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
    (persist.load_json, persist.load_arrays). The parameters are
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
    [flat] = persist.load_arrays(d / "encoder.f64", [("<f8", (total,))], unverified)
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
