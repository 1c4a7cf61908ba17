"""Slow reference implementations that the fast paths in qthreat are
checked against. Each one is the straightforward form of a computation the
package now does another way; none of them is used by the package itself.
"""
import numpy as np

from qthreat import datapipe
from qthreat.featuremap import feature_statevectors, gram_from_states
from qthreat.metrics import confusion, f_beta
from qthreat.qsvm import raw_decision_scores


def center_test_row(row: np.ndarray, row_means: np.ndarray, grand_mean: float) -> np.ndarray:
    """Centre one out-of-sample kernel row consistently with HKH:
    r - colmeans(K) - mean(r) + grandmean(K)."""
    r = np.asarray(row, dtype=float).reshape(-1)
    if r.size != row_means.size:
        raise ValueError(f"row length {r.size} != n {row_means.size}")
    return r - row_means - r.mean() + grand_mean


def block_scores(model, train_angles, angles, spec, row_means, grand_mean):
    """QSVM scores through full out-of-sample Gram rows: kernel rows against
    every training point, centred row by row, then the dual expansion."""
    train_states = feature_statevectors(train_angles, spec)
    rows = np.clip(gram_from_states(feature_statevectors(angles, spec), train_states), 0.0, 1.0)
    centred = np.stack([center_test_row(r, row_means, grand_mean) for r in rows])
    return model.sign * raw_decision_scores(model, centred)


def tune_threshold_loop(scores, labels, beta=2.0):
    """F_beta over every midpoint candidate, one confusion per candidate."""
    s = np.asarray(scores, dtype=float).reshape(-1)
    y = np.asarray(labels, dtype=int).reshape(-1)
    uniq = np.unique(s)
    if uniq.size < 2:
        return float(uniq[0])
    candidates = (uniq[:-1] + uniq[1:]) / 2.0
    best_t, best_v = float(candidates[0]), -1.0
    for t in candidates:
        v = f_beta(confusion(y, (s >= t).astype(int)), beta)
        if v > best_v + 1e-15:
            best_t, best_v = float(t), v
    return best_t


def stratified_limit(y, limit, seed):
    """The preprocess carve of the training rows down to `limit`."""
    y = np.asarray(y, dtype=int)
    if y.size <= limit:
        return np.arange(y.size)
    counts = {str(c): int((y == c).sum()) for c in np.unique(y)}
    alloc = datapipe.apportion(counts, limit)
    picked = []
    for name, take in sorted(alloc.items()):
        pos = np.flatnonzero(y == int(name))
        rng = np.random.default_rng(np.random.SeedSequence([seed, int(name)]))
        picked.append(np.sort(rng.permutation(pos)[:take]))
    return np.sort(np.concatenate(picked))


def reference_indices(support, y_train, limit, seed):
    """The shot-mode reference sample of support vectors."""
    support = np.asarray(support, dtype=int)
    if support.size <= limit:
        return support
    labels = np.asarray(y_train, dtype=int)[support]
    counts = {str(c): int((labels == c).sum()) for c in np.unique(labels)}
    alloc = datapipe.apportion(counts, limit)
    picked = []
    for name, take in sorted(alloc.items()):
        pos = np.flatnonzero(labels == int(name))
        rng = np.random.default_rng(np.random.SeedSequence([seed, int(name)]))
        picked.append(pos[np.sort(rng.permutation(pos.size)[:take])])
    return support[np.sort(np.concatenate(picked))]
