"""Binary SVM on precomputed (centered) kernel matrices.

SMO-style dual solver with maximal-violating-pair working-set selection,
per-class cost weighting, stratified k-fold selection of C by F_beta, sign
alignment, and validation threshold tuning. Labels are 0/1 at the API
boundary and -1/+1 inside the dual. A model fitted on the fidelity kernel
scores new rows through one observable (`observable_scorer`), never
through out-of-sample Gram rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import datapipe, persist
from .featuremap import FeatureMapSpec, feature_statevectors, max_asymmetry
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
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def solve_dual(
    gram: np.ndarray,
    labels: np.ndarray,
    c: float,
    class_weights: Tuple[float, float] = (1.0, 1.0),
    tol: float = DUAL_TOL,
    max_iter: Optional[int] = None,
) -> SvmModel:
    """Maximal-violating-pair SMO on max_a sum(a) - 0.5 a'YKYa.

    Box is per-sample: 0 <= a_i <= C * w_{y_i}. Deterministic: ties in pair
    selection resolve to the lowest index, and there is no randomness.
    """
    k = np.asarray(gram, dtype=float)
    y01 = np.asarray(labels, dtype=int).reshape(-1)
    n = y01.size
    if k.shape != (n, n):
        raise ValueError(f"gram shape {k.shape} does not match {n} labels")
    if not max_asymmetry(k) <= 1e-8:  # NaN, or inf - inf, fails too
        raise ValueError("gram matrix must be finite and symmetric")
    if set(np.unique(y01)) != {0, 1}:
        raise ValueError("labels must contain both classes (0 and 1)")
    y = np.where(y01 == 1, 1.0, -1.0)
    box = np.where(y01 == 1, c * class_weights[1], c * class_weights[0])
    if max_iter is None:
        max_iter = max(200_000, 50 * n)

    alpha = np.zeros(n)
    f = np.zeros(n)  # F_i = sum_j alpha_j y_j K_ij
    for _ in range(max_iter):
        v = y - f
        lower = ((y > 0) & (alpha < box - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
        upper = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < box - SUPPORT_EPS))
        if not lower.any() or not upper.any():
            break
        vi = np.where(lower, v, -np.inf)
        vj = np.where(upper, v, np.inf)
        i = int(np.argmax(vi))
        j = int(np.argmin(vj))
        m_up, m_low = v[i], v[j]
        if m_up - m_low <= tol:
            break
        eta = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
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
        f += t * (k[:, i] - k[:, j])

    v = y - f
    free = (alpha > SUPPORT_EPS) & (alpha < box - SUPPORT_EPS)
    if free.any():
        bias = float(v[free].mean())
    else:
        lower = ((y > 0) & (alpha < box - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
        upper = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < box - SUPPORT_EPS))
        lo = v[lower].max() if lower.any() else 0.0
        hi = v[upper].min() if upper.any() else 0.0
        bias = float((lo + hi) / 2.0)

    support = np.where(alpha > SUPPORT_EPS)[0]
    coef = alpha[support] * y[support]
    return SvmModel(
        support=support,
        coef=coef,
        bias=bias,
        c=float(c),
        class_weights=(float(class_weights[0]), float(class_weights[1])),
        n_train=n,
    )


def raw_decision_scores(model: SvmModel, kernel_rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(kernel_rows, dtype=float))
    if rows.shape[1] != model.n_train:
        raise ValueError(
            f"kernel rows have width {rows.shape[1]}, expected {model.n_train}"
        )
    return rows[:, model.support] @ model.coef + model.bias


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
    `row_means` the stored centring means of the whole train Gram. The
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


def select_c(gram: np.ndarray, labels: np.ndarray, plan: CvPlan) -> Tuple[float, List[dict]]:
    """Stratified k-fold CV over the C grid, scoring F_beta at threshold 0.

    Fold models train on the row/column submatrix and score held-out rows
    against training columns only. Ties break toward the smaller C.
    """
    k = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=int).reshape(-1)
    folds = stratified_folds(y, plan.folds, plan.seed)
    all_idx = np.arange(y.size)
    table = []
    best_c, best_v = None, -1.0
    for c in plan.c_grid:
        fold_scores = []
        for held in folds:
            train_idx = np.setdiff1d(all_idx, held)
            sub = k[np.ix_(train_idx, train_idx)]
            weights = datapipe.class_weights(y[train_idx])
            model = solve_dual(sub, y[train_idx], c, weights)
            rows = k[np.ix_(held, train_idx)]
            preds = (raw_decision_scores(model, rows) >= 0.0).astype(int)
            fold_scores.append(f_beta(confusion(y[held], preds), plan.beta))
        mean_v = float(np.mean(fold_scores))
        table.append({"c": c, "mean_f_beta": mean_v, "fold_f_beta": fold_scores})
        if mean_v > best_v + 1e-12:
            best_c, best_v = c, mean_v
    return best_c, table


# ------------------------------------------------------------- persistence


def save_svm(model: SvmModel, path, cv_table: Optional[list] = None, extra: Optional[dict] = None) -> dict:
    header = {
        "support": [int(i) for i in model.support],
        "coef": [float(v) for v in model.coef],
        "bias": model.bias,
        "c": model.c,
        "class_weights": list(model.class_weights),
        "n_train": model.n_train,
        "sign": model.sign,
        "threshold": model.threshold,
        "cv_table": cv_table,
        "extra": extra or {},
    }
    persist.save_json(path, header)
    return header


def load_svm(path) -> SvmModel:
    h = persist.load_json(path)
    return SvmModel(
        support=np.array(h["support"], dtype=int),
        coef=np.array(h["coef"], dtype=float),
        bias=h["bias"],
        c=h["c"],
        class_weights=(h["class_weights"][0], h["class_weights"][1]),
        n_train=h["n_train"],
        sign=h["sign"],
        threshold=h["threshold"],
    )
