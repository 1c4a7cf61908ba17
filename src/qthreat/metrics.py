"""Binary classification metrics.

Positive class is 1 (attack / spam) throughout. Ranking metrics take raw
real-valued scores: SVM decision values or classifier logits. AUROC uses the
rank-sum (Mann-Whitney) estimator with midranks for ties; AUPRC uses step
integration (the average-precision form) over descending unique thresholds,
with no interpolation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _as_binary(values, name) -> np.ndarray:
    arr = np.asarray(values).astype(int).reshape(-1)
    if arr.size and set(np.unique(arr)) - {0, 1}:
        raise ValueError(f"{name} must be binary 0/1")
    return arr


def confusion(labels, predictions) -> ConfusionCounts:
    y = _as_binary(labels, "labels")
    p = _as_binary(predictions, "predictions")
    if y.size != p.size:
        raise ValueError("labels and predictions differ in length")
    return ConfusionCounts(
        tp=int(np.sum((y == 1) & (p == 1))),
        tn=int(np.sum((y == 0) & (p == 0))),
        fp=int(np.sum((y == 0) & (p == 1))),
        fn=int(np.sum((y == 1) & (p == 0))),
    )


def accuracy(counts: ConfusionCounts) -> float:
    if counts.total == 0:
        raise ValueError("no samples")
    return (counts.tp + counts.tn) / counts.total


def precision_recall(counts: ConfusionCounts) -> Tuple[float, float]:
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return p, r


def f_beta(counts: ConfusionCounts, beta: float = 2.0) -> float:
    """(1 + beta^2) P R / (beta^2 P + R); 0 when the denominator vanishes."""
    p, r = precision_recall(counts)
    denom = beta * beta * p + r
    if denom == 0.0:
        return 0.0
    return (1 + beta * beta) * p * r / denom


def _f1_per_class(counts: ConfusionCounts) -> Tuple[float, float]:
    # class 1 uses (tp, fp, fn); class 0 sees tn as its true positives
    pos = f_beta(counts, beta=1.0)
    swapped = ConfusionCounts(tp=counts.tn, tn=counts.tp, fp=counts.fn, fn=counts.fp)
    neg = f_beta(swapped, beta=1.0)
    return neg, pos


def macro_f1(counts: ConfusionCounts) -> float:
    neg, pos = _f1_per_class(counts)
    return (neg + pos) / 2.0


def midranks(values) -> np.ndarray:
    """1-based ranks with each group of ties given its mean rank (exact
    half-integers); all NaN when any value is NaN."""
    v = np.asarray(values, dtype=float).reshape(-1)
    if np.isnan(v).any():
        return np.full(v.size, np.nan)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    ends = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auroc(labels, scores) -> float:
    """Mann-Whitney AUROC: P(score+ > score-) + 0.5 P(tie), via midranks."""
    y = _as_binary(labels, "labels")
    s = np.asarray(scores, dtype=float).reshape(-1)
    if y.size != s.size:
        raise ValueError("labels and scores differ in length")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes present")
    ranks = midranks(s)
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(labels, scores) -> float:
    """Average precision: sum over descending unique thresholds of
    (recall step) * precision, ties grouped at one threshold."""
    y = _as_binary(labels, "labels")
    s = np.asarray(scores, dtype=float).reshape(-1)
    if y.size != s.size:
        raise ValueError("labels and scores differ in length")
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("AUPRC needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # one term per group of tied scores that gains a positive: its recall step
    # times its precision, from integer counts; cumsum adds the terms left to
    # right (np.sum would add them pairwise, with other bits)
    seen = np.r_[np.flatnonzero(s_sorted[1:] != s_sorted[:-1]) + 1, s.size]
    tp = np.cumsum(y[order])[seen - 1]
    gained = np.diff(tp, prepend=0)
    keep = gained > 0
    area = float(np.cumsum((gained[keep] / n_pos) * (tp[keep] / seen[keep]))[-1])
    # the exact value is <= 1; summation drift can land a hair above
    return min(1.0, area)


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_f1: float
    f_beta: float
    auroc: float
    auprc: float
    confusion: ConfusionCounts
    threshold: float
    beta: float = 2.0

    def __post_init__(self):
        for name in ("accuracy", "macro_f1", "f_beta", "auroc", "auprc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "f_beta": self.f_beta,
            "beta": self.beta,
            "auroc": self.auroc,
            "auprc": self.auprc,
            "threshold": self.threshold,
            "confusion": {
                "tp": self.confusion.tp,
                "tn": self.confusion.tn,
                "fp": self.confusion.fp,
                "fn": self.confusion.fn,
            },
        }


def report(labels, scores, threshold: float, beta: float = 2.0) -> MetricsReport:
    """Full metric set with predictions = (score >= threshold)."""
    s = np.asarray(scores, dtype=float).reshape(-1)
    preds = (s >= threshold).astype(int)
    counts = confusion(labels, preds)
    return MetricsReport(
        accuracy=accuracy(counts),
        macro_f1=macro_f1(counts),
        f_beta=f_beta(counts, beta),
        auroc=auroc(labels, s),
        auprc=auprc(labels, s),
        confusion=counts,
        threshold=float(threshold),
        beta=float(beta),
    )


class StreamingConfusion:
    """Single-writer running tally that emits one audit line per sample.

    Line format: "idx, true_label, pred_label, TP, TN, FP, FN".
    """

    def __init__(self):
        self.counts = ConfusionCounts()
        self.index = 0
        self.lines: List[str] = []

    def update(self, true_label: int, predicted_label: int) -> str:
        return self.extend([true_label], [predicted_label])[0]

    def extend(self, true_labels, predicted_labels) -> List[str]:
        """Tally samples in order, one audit line each, kept in `lines`;
        returns the new lines. The counts on each line are the running
        totals through that sample."""
        t = np.asarray(true_labels).reshape(-1)
        p = np.asarray(predicted_labels).reshape(-1)
        if t.shape != p.shape:
            raise ValueError(f"{t.size} true labels for {p.size} predictions")
        if not (np.isin(t, (0, 1)).all() and np.isin(p, (0, 1)).all()):
            raise ValueError("labels must be 0 or 1")
        t, p = t.astype(int), p.astype(int)
        c = self.counts
        tp = c.tp + np.cumsum(t & p)
        tn = c.tn + np.cumsum((1 - t) & (1 - p))
        fp = c.fp + np.cumsum((1 - t) & p)
        fn = c.fn + np.cumsum(t & (1 - p))
        table = np.column_stack([np.arange(self.index, self.index + t.size), t, p, tp, tn, fp, fn])
        lines = [f"{i}, {a}, {b}, {n_tp}, {n_tn}, {n_fp}, {n_fn}"
                 for i, a, b, n_tp, n_tn, n_fp, n_fn in table.tolist()]
        if lines:
            self.counts = ConfusionCounts(*table[-1, 3:].tolist())
            self.index += len(lines)
            self.lines.extend(lines)
        return lines
