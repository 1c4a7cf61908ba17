"""Binary SVM on the centred fidelity kernel of the train statevectors.

SMO-style dual solver with maximal-violating-pair working-set selection,
per-class cost weighting, stratified k-fold selection of C by F_beta, sign
alignment, and validation threshold tuning. Labels are 0/1 at the API
boundary and -1/+1 inside the dual. The QSVM trains from its n train
statevectors through `FidelityRows`, which computes each centred kernel row
when the solver first reads it, so no n x n Gram is built. `fit_rows` and
`select_c` read the kernel only by row, entry and block, which a dense
array answers too. A fitted model scores new rows through one observable
(`observable_scorer`), never through out-of-sample Gram rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import datapipe, persist
from .featuremap import FeatureMapSpec, feature_statevectors
from .metrics import confusion, f_beta

DUAL_TOL = 1e-3
SUPPORT_EPS = 1e-10


@dataclass(frozen=True)
class SvmModel:
    support: np.ndarray          # indices into the training set
    coef: np.ndarray             # alpha_i * y_i per support vector
    bias: float
    c: float
    class_weights: Tuple[float, float]
    n_train: int
    sign: int = 1
    threshold: float = 0.0

    def __post_init__(self):
        sup = np.asarray(self.support, dtype=int).reshape(-1).copy()
        co = np.asarray(self.coef, dtype=float).reshape(-1).copy()
        if sup.size != co.size:
            raise ValueError("support and coef lengths differ")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if abs(co.sum()) > 1e-8:
            raise ValueError("sum(alpha_i y_i) must vanish within 1e-8")
        box = np.where(co > 0, self.c * self.class_weights[1], self.c * self.class_weights[0])
        if np.any(np.abs(co) > box + 1e-8):
            raise ValueError("dual coefficient exceeds its box constraint")
        sup.setflags(write=False)
        co.setflags(write=False)
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "coef", co)


@dataclass(frozen=True)
class CvPlan:
    folds: int = 5
    c_grid: Tuple[float, ...] = (0.1, 1.0, 10.0, 100.0)
    beta: float = 2.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not self.c_grid:
            raise ValueError("C grid must be nonempty")
        for c in self.c_grid:
            _check_c(c)
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def _check_c(c: float):
    """A C of zero or less, inf or NaN boxes no dual coefficient usefully:
    the fit ends with no support vectors and every row scores the same."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"C must be finite and > 0, got {c!r}")


class FidelityRows:
    """The double-centred fidelity Gram of n train statevectors, read by row.

    Row i of the uncentred Gram is k_i = |S psi_i^*|^2 for the n x 2^q
    stack S, and its column means are m_i = <psi_i|rho|psi_i> with
    rho = mean_j |psi_j><psi_j|, an O(n 4^q) computation. So the centred
    entry is k_ij - (m_i + m_j) + grand, grand = mean(m), and no n x n array
    is needed. A row is computed from S when it is first read and kept in
    a dict keyed by train index, LIBSVM's kernel cache (Chang & Lin, ACM
    TIST 2:27, 2011). The SMO reads a few hundred distinct rows on the
    bench corpora, and at most all n.

    Reads: len(k) (n), k[i] (row i), k[i, cols] (entries cols of row i)
    and k[np.ix_(a, b)] (a block, computed from S and not kept).
    """

    def __init__(self, states: np.ndarray):
        s = np.asarray(states)
        if s.ndim != 2 or s.shape[0] == 0:
            raise ValueError("need a nonempty (n, 2^q) stack of statevectors")
        rho = s.T @ s.conj() / s.shape[0]
        self.states = s
        self.means = ((s.conj() @ rho) * s).sum(axis=1).real
        self.grand = float(self.means.mean())
        if not math.isfinite(self.grand):
            raise ValueError("statevectors must be finite")
        self._rows: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.states.shape[0]

    def _block(self, a, b) -> np.ndarray:
        """The centred entries of rows a by columns b, a fresh array."""
        k = np.abs(self.states[a].conj() @ self.states[b].T) ** 2
        k -= self.means[a][:, None] + self.means[b][None, :]
        k += self.grand
        return k

    def __getitem__(self, key):
        if isinstance(key, tuple) and np.ndim(key[0]) > 0:
            return self._block(np.ravel(key[0]), np.ravel(key[1]))
        i, cols = key if isinstance(key, tuple) else (key, None)
        i = int(i)
        row = self._rows.get(i)
        if row is None:
            row = self._rows[i] = self._block([i], slice(None))[0]
            row.setflags(write=False)
        return row if cols is None else row[cols]


def fit_rows(
    rows,
    labels: np.ndarray,
    c: float,
    class_weights: Tuple[float, float] = (1.0, 1.0),
    tol: float = DUAL_TOL,
    max_iter: Optional[int] = None,
) -> Tuple[SvmModel, dict]:
    """(model, record): maximal-violating-pair SMO on
    max_a sum(a) - 0.5 a'YKYa over the symmetric kernel `rows`, read only
    as len(rows) and rows[i]: a FidelityRows, or any array.

    Box is per-sample: 0 <= a_i <= C * w_{y_i}. Deterministic: ties in pair
    selection resolve to the lowest index, and there is no randomness. The
    record holds the SMO's pair updates ("iterations", at most
    "max_iter"), its final m_up - m_low "gap" and "converged"
    (gap <= tol); a fit that stops at max_iter short of tol records
    converged false."""
    _check_c(c)
    y01 = np.asarray(labels, dtype=int).reshape(-1)
    _check_len(rows, y01.size)
    return _smo(rows, None, y01, c, class_weights, tol, max_iter)


def _check_len(k, n: int):
    if len(k) != n:
        raise ValueError(f"kernel has {len(k)} rows, {n} labels")


def _sets(y: np.ndarray, alpha: np.ndarray, box: np.ndarray):
    """The SMO's (lower, upper) index masks, I_low and I_up."""
    lower = ((y > 0) & (alpha < box - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
    upper = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < box - SUPPORT_EPS))
    return lower, upper


def _smo(
    k,
    rows: Optional[np.ndarray],
    y01: np.ndarray,
    c: float,
    class_weights: Tuple[float, float],
    tol: float = DUAL_TOL,
    max_iter: Optional[int] = None,
) -> Tuple[SvmModel, dict]:
    """(model, record) of the SMO on the principal submatrix
    k[rows][:, rows] (all of k when rows is None), never copied: each step
    reads two kernel rows, k[i] or k[rows[i], rows]; a row stands in for
    the column the update needs, since k is symmetric. The record is
    `fit_rows`'s.
    """
    n = y01.size
    if set(np.unique(y01)) != {0, 1}:
        raise ValueError("labels must contain both classes (0 and 1)")

    def row(i):
        return k[i] if rows is None else k[rows[i], rows]

    y = np.where(y01 == 1, 1.0, -1.0)
    box = np.where(y01 == 1, c * class_weights[1], c * class_weights[0])
    if max_iter is None:
        max_iter = max(200_000, 50 * n)

    alpha = np.zeros(n)
    f = np.zeros(n)  # F_i = sum_j alpha_j y_j K_ij
    iterations = 0
    while iterations < max_iter:
        v = y - f
        lower, upper = _sets(y, alpha, box)
        if not lower.any() or not upper.any():
            break
        vi = np.where(lower, v, -np.inf)
        vj = np.where(upper, v, np.inf)
        i = int(np.argmax(vi))
        j = int(np.argmin(vj))
        m_up, m_low = v[i], v[j]
        if m_up - m_low <= tol:
            break
        k_i, k_j = row(i), row(j)
        eta = max(k_i[i] + k_j[j] - 2.0 * k_i[j], 1e-12)
        t = (m_up - m_low) / eta
        # alpha_i += y_i t, alpha_j -= y_j t, clipped to both boxes
        t_hi = min(
            box[i] - alpha[i] if y[i] > 0 else alpha[i],
            alpha[j] if y[j] > 0 else box[j] - alpha[j],
        )
        t = min(t, t_hi)
        if t <= 0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        # delta(alpha_i y_i) = +t and delta(alpha_j y_j) = -t
        f += t * (k_i - k_j)
        iterations += 1

    v = y - f
    lower, upper = _sets(y, alpha, box)
    lo = v[lower].max() if lower.any() else 0.0
    hi = v[upper].min() if upper.any() else 0.0
    gap = float(lo - hi) if lower.any() and upper.any() else 0.0
    free = (alpha > SUPPORT_EPS) & (alpha < box - SUPPORT_EPS)
    bias = float(v[free].mean()) if free.any() else float((lo + hi) / 2.0)

    support = np.where(alpha > SUPPORT_EPS)[0]
    coef = alpha[support] * y[support]
    model = SvmModel(
        support=support,
        coef=coef,
        bias=bias,
        c=float(c),
        class_weights=(float(class_weights[0]), float(class_weights[1])),
        n_train=n,
    )
    record = {"iterations": iterations, "max_iter": max_iter, "gap": gap, "converged": gap <= tol}
    return model, record


def observable_scorer(
    model: SvmModel,
    support_angles: np.ndarray,
    row_means: np.ndarray,
    spec: FeatureMapSpec,
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact decision function of a fidelity-kernel QSVM over angle rows.

    With k(x, x_i) = |<phi(x)|phi_i>|^2 and out-of-sample rows centred by
    the train Gram's column means mu, the centred decision value
    sum_i coef_i (k(x, x_i) - mu_i - mean_j k(x, x_j) + mean K) + b loses its
    row-mean terms because sum_i coef_i = 0, leaving
    <phi(x)|W|phi(x)> - sum_i coef_i mu_i + b with
    W = sum_i coef_i |phi_i><phi_i| over the support vectors: one
    2^q x 2^q Hermitian matrix, so each row costs O(4^q) whatever n is
    (Havlicek et al., Nature 567:209, 2019; Schuld, arXiv:2101.11020).

    `support_angles` are the angle rows of model.support in order and
    `row_means` the train kernel's centring means (FidelityRows.means). The
    returned function maps (m, q) angle rows to model.sign times the value.
    """
    if len(support_angles) != model.support.size:
        raise ValueError("need one angle row per support vector")
    states = feature_statevectors(support_angles, spec)
    w = (states.T * model.coef) @ states.conj()
    offset = model.bias - float(model.coef @ np.asarray(row_means)[model.support])

    def score(angles: np.ndarray) -> np.ndarray:
        psi = feature_statevectors(angles, spec)
        return model.sign * (np.einsum("ma,ab,mb->m", psi.conj(), w, psi).real + offset)

    return score


def align_sign(scores: np.ndarray, labels: np.ndarray) -> int:
    """+1 when positive-class scores already average higher, else -1."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if 0 not in y or 1 not in y:
        raise ValueError("sign alignment needs both classes")
    return 1 if s[y == 1].mean() >= s[y == 0].mean() else -1


def tune_threshold(scores: np.ndarray, labels: np.ndarray, beta: float = 2.0) -> float:
    """F_beta-maximizing threshold over midpoints of consecutive sorted
    scores; ties resolve to the smallest candidate.

    One sort plus binary searches give every candidate's TP and predicted
    positive counts, so the cost is O(n log n); the F_beta arithmetic is
    metrics.f_beta's, element for element.
    """
    s = np.asarray(scores, dtype=float).reshape(-1)
    y = np.asarray(labels, dtype=int).reshape(-1)
    if 0 not in y or 1 not in y:
        raise ValueError("threshold tuning needs both classes")
    uniq = np.unique(s)
    if uniq.size < 2:
        return float(uniq[0])
    candidates = (uniq[:-1] + uniq[1:]) / 2.0
    # counts of s >= t per candidate, searched rather than assumed, since a
    # midpoint of adjacent floats rounds onto one of them
    positives = np.sort(s[y == 1])
    predicted = s.size - np.searchsorted(np.sort(s), candidates, side="left")
    tp = positives.size - np.searchsorted(positives, candidates, side="left")
    bb = beta * beta
    precision = np.zeros(candidates.size)
    np.divide(tp, predicted, out=precision, where=predicted > 0)
    recall = tp / positives.size
    denom = bb * precision + recall
    values = np.zeros(candidates.size)
    np.divide((1 + bb) * precision * recall, denom, out=values, where=denom != 0.0)
    # a running-best scan, not argmax, to keep the 1e-15 tie margin exact
    best_t, best_v = float(candidates[0]), -1.0
    for t, v in zip(candidates.tolist(), values.tolist()):
        if v > best_v + 1e-15:
            best_t, best_v = t, v
    return best_t


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> List[np.ndarray]:
    """Round-robin dealing of shuffled per-class indices into k folds."""
    y = np.asarray(labels, dtype=int).reshape(-1)
    counts = [int((y == c).sum()) for c in (0, 1)]
    if min(counts) < k:
        raise ValueError(f"smallest class has {min(counts)} samples, needs >= {k}")
    rng = np.random.default_rng(seed)
    folds: List[List[int]] = [[] for _ in range(k)]
    for cls in (0, 1):
        idx = np.where(y == cls)[0]
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[pos % k].append(int(i))
    return [np.sort(np.array(f, dtype=int)) for f in folds]


def select_c(k, labels: np.ndarray, plan: CvPlan) -> Tuple[float, List[dict]]:
    """Stratified k-fold CV over the C grid, scoring F_beta at threshold 0.

    `k` is the train kernel, read only as len(k), k[i, cols] and blocks
    k[np.ix_(a, b)]: a FidelityRows, or any array. Fold models train on the
    train rows' principal submatrix and score held-out rows against their
    support columns only. Ties break toward the smaller C. Each table row
    records its folds' F_beta and whether each fold fit converged (see
    `fit_rows`).

    Memory: no submatrix is copied. Fold fits read kernel rows through the
    fold's index array (`_smo`), and scoring reads one held-out x support
    block, so the scratch is O(n) vectors plus that block, not the fold's
    n_train^2 submatrix. A FidelityRows shares its row cache across folds
    and C values.
    """
    y = np.asarray(labels, dtype=int).reshape(-1)
    _check_len(k, y.size)
    folds = stratified_folds(y, plan.folds, plan.seed)
    all_idx = np.arange(y.size)
    table = []
    best_c, best_v = None, -1.0
    for c in plan.c_grid:
        fold_scores, converged = [], []
        for held in folds:
            train_idx = np.setdiff1d(all_idx, held)
            weights = datapipe.class_weights(y[train_idx])
            model, record = _smo(k, train_idx, y[train_idx], c, weights)
            scores = k[np.ix_(held, train_idx[model.support])] @ model.coef + model.bias
            preds = (scores >= 0.0).astype(int)
            fold_scores.append(f_beta(confusion(y[held], preds), plan.beta))
            converged.append(record["converged"])
        mean_v = float(np.mean(fold_scores))
        table.append({"c": c, "mean_f_beta": mean_v, "fold_f_beta": fold_scores,
                      "fold_converged": converged})
        if mean_v > best_v + 1e-12:
            best_c, best_v = c, mean_v
    return best_c, table


# ------------------------------------------------------------- persistence


def save_svm(
    model: SvmModel,
    path,
    row_means: np.ndarray,
    cv_table: Optional[list] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Write the model and the n centring column means of the train kernel
    it was fitted on (FidelityRows.means), which `observable_scorer` and
    shot-mode scoring read."""
    header = {
        "support": [int(i) for i in model.support],
        "coef": [float(v) for v in model.coef],
        "bias": model.bias,
        "c": model.c,
        "class_weights": list(model.class_weights),
        "n_train": model.n_train,
        "sign": model.sign,
        "threshold": model.threshold,
        "row_means": [float(x) for x in row_means],
        "cv_table": cv_table,
        "extra": extra or {},
    }
    persist.save_json(path, header)
    return header


def load_svm(path, unverified=None) -> Tuple[SvmModel, np.ndarray]:
    """(model, row_means) from one read of the file save_svm wrote."""
    h = persist.load_json(path, unverified)
    return SvmModel(
        support=np.array(h["support"], dtype=int),
        coef=np.array(h["coef"], dtype=float),
        bias=h["bias"],
        c=h["c"],
        class_weights=(h["class_weights"][0], h["class_weights"][1]),
        n_train=h["n_train"],
        sign=h["sign"],
        threshold=h["threshold"],
    ), np.array(h["row_means"])
