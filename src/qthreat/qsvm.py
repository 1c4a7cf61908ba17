"""Binary SVM on the centred fidelity kernel of the train statevectors.

SMO-style dual solver with maximal-violating-pair working-set selection,
per-class cost weighting, stratified k-fold selection of C by F_beta, sign
alignment, and validation threshold tuning. Labels are 0/1 at the API
boundary and -1/+1 inside the dual. The QSVM trains from its n train
statevectors through `FidelityRows`, which computes each centred kernel row
when the solver reads it and keeps a byte-budgeted cache of them, so no
n x n Gram is built. `fit_rows` and `select_c` read the kernel only by row
and row entries, as a dense array answers too. Scores read support vectors
alone: CV sums the support rows, and a fitted model scores new rows through
one observable (`observable_scorer`) over their angle rows and centring
means.
"""
from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import datapipe, persist
from .featuremap import FeatureMapSpec, feature_statevectors
from .metrics import confusion, f_beta, f_beta_counts

DUAL_TOL = 1e-3
SUPPORT_EPS = 1e-10
# bytes of centred kernel rows a FidelityRows keeps (n * 8 bytes a row)
ROW_CACHE_BYTES = 256 << 20


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
        object.__setattr__(self, "class_weights", tuple(float(w) for w in self.class_weights))


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
    is needed. A row is computed from S when it is read and not cached,
    and kept in least-recently-used order under a budget of
    ROW_CACHE_BYTES, LIBSVM's kernel cache (Chang & Lin, ACM TIST 2:27,
    2011, §5): after each insert the oldest rows are evicted until the
    cache fits, though it always keeps the row just read. A row read again
    after its eviction is recomputed with the same bits, so a fit does not
    depend on the budget. The SMO reads a few hundred distinct rows on the
    bench corpora, and at most all n.

    Reads: len(k) (n), k[i] (row i) and k[i, cols] (entries cols of row i),
    which a dense array answers too.
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
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return self.states.shape[0]

    def __getitem__(self, key):
        i, cols = key if isinstance(key, tuple) else (key, None)
        i = operator.index(i)  # one row: an index array (a block read) is a TypeError
        row = self._rows.get(i)
        if row is not None:
            self._rows.move_to_end(i)
        else:
            s = self.states
            row = self._rows[i] = np.abs(s[[i]].conj() @ s.T)[0] ** 2
            row -= self.means[i] + self.means
            row += self.grand
            row.setflags(write=False)
            while len(self._rows) > 1 and len(self._rows) * row.nbytes > ROW_CACHE_BYTES:
                self._rows.popitem(last=False)
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
        class_weights=class_weights,
        n_train=n,
    )
    record = {"iterations": iterations, "max_iter": max_iter, "gap": gap, "converged": gap <= tol}
    return model, record


def observable_scorer(
    model: SvmModel,
    support_angles: np.ndarray,
    support_means: np.ndarray,
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
    `support_means` their centring means mu_i (FidelityRows.means at
    model.support), the support-vector data svm.json stores. The returned
    function maps (m, q) angle rows to model.sign times the value, taking
    <phi|W|phi> of all m rows as one (m, 2^q) x (2^q, 2^q) product. A row's
    score does not depend on the other rows of a batch of two or more; a
    one-row batch takes BLAS's vector path, so its last bits can differ.
    """
    if len(support_angles) != model.support.size:
        raise ValueError("need one angle row per support vector")
    states = feature_statevectors(support_angles, spec)
    w = (states.T * model.coef) @ states.conj()
    offset = model.bias - float(model.coef @ support_means)

    def score(angles: np.ndarray) -> np.ndarray:
        psi = feature_statevectors(angles, spec)
        return model.sign * (((psi.conj() @ w) * psi).sum(axis=1).real + offset)

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
    positive counts, so the cost is O(n log n); F_beta is
    metrics.f_beta_counts of those counts, the function metrics.f_beta calls.
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
    values = f_beta_counts(tp, predicted, positives.size, beta)
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

    `k` is the train kernel, read only as len(k) and k[i, cols]: a
    FidelityRows, or any array. Fold models train on the train rows'
    principal submatrix, and score the held-out rows as
    bias + sum_s coef_s k[s, held] over their support rows s, each a row
    the fold's SMO read (every support vector was once a working-set
    index), so a FidelityRows has it cached or may recompute it, with the
    same bits. Ties break toward the smaller C. Each table row records its
    folds' F_beta and whether each fold fit converged (see `fit_rows`).

    Memory: no submatrix or held-out x support block is built. Fold fits
    read kernel rows through the fold's index array (`_smo`), and scoring
    adds one |held| vector per support row, so the scratch is O(n) vectors.
    A FidelityRows shares its row cache across folds and C values; that
    cache holds at most n rows and at most ROW_CACHE_BYTES of them (one row
    when a row alone is larger).
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
            scores = np.full(held.size, model.bias)
            for s, coef in zip(train_idx[model.support], model.coef):
                scores += coef * k[s, held]
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


# svm.json stores every SvmModel field under its own name, beside the scoring data
_SVM_FIELDS = tuple(f.name for f in fields(SvmModel))


def save_svm(
    model: SvmModel,
    path,
    support_angles: np.ndarray,
    support_means: np.ndarray,
    cv_table: Optional[list] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Write the model's fields (_SVM_FIELDS) with its support vectors' angle
    rows and centring means (`observable_scorer`), all the train data scoring reads."""
    header = {name: np.asarray(getattr(model, name)).tolist() for name in _SVM_FIELDS}
    header.update(
        support_angles=np.asarray(support_angles, dtype=float).tolist(),
        support_means=np.asarray(support_means, dtype=float).tolist(),
        cv_table=cv_table,
        extra=extra or {},
    )
    persist.save_json(path, header)
    return header


def load_svm(path, unverified=None) -> Tuple[SvmModel, np.ndarray, np.ndarray]:
    """(SvmModel(**its fields' entries), support_angles, support_means) from
    one read of save_svm's file; each array must have one row per support vector."""
    h = persist.load_json(path, unverified)
    model = SvmModel(**{name: h[name] for name in _SVM_FIELDS})
    angles = np.array(h.get("support_angles", ()), dtype=float)
    means = np.array(h.get("support_means", ()), dtype=float)
    if angles.ndim != 2 or len(angles) != model.support.size or means.shape != model.support.shape:
        raise ValueError(f"{path}: need one angle row and one centring mean per support vector")
    return model, angles, means
