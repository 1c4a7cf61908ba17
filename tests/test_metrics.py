
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat.metrics import (
    ConfusionCounts,
    MetricsReport,
    StreamingConfusion,
    accuracy,
    auprc,
    auroc,
    confusion,
    f_beta,
    macro_f1,
    midranks,
    report,
)

from oracles import auprc_loop


def pair_oracle_auroc(labels, scores):
    """O(n^2) enumeration over (positive, negative) pairs."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def sweep_oracle_auprc(labels, scores):
    """Exhaustive threshold sweep, step summation, ties grouped."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=float)
    n_pos = int(y.sum())
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(s.tolist()), reverse=True):
        pred = (s >= t).astype(int)
        tp = int(np.sum((y == 1) & (pred == 1)))
        fp = int(np.sum((y == 0) & (pred == 1)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


# --------------------------------------------------------------- confusion


def test_perfect_predictions():
    y = [0, 1, 1, 0, 1]
    c = confusion(y, y)
    assert accuracy(c) == 1.0
    assert macro_f1(c) == 1.0


def test_all_positive_on_balanced_data():
    y = [0, 0, 1, 1]
    c = confusion(y, [1, 1, 1, 1])
    assert accuracy(c) == 0.5
    # class 1: P=0.5, R=1 -> 2/3; class 0: no predictions -> 0
    assert macro_f1(c) == pytest.approx(1 / 3)


def test_accuracy_identity():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, size=200)
    p = rng.integers(0, 2, size=200)
    c = confusion(y, p)
    assert c.total == 200
    assert accuracy(c) == (c.tp + c.tn) / 200


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([0, 1], [0])
    with pytest.raises(ValueError):
        confusion([0, 2], [0, 1])
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1)


def test_f_beta_reduces_to_f1():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = ConfusionCounts(*[int(x) for x in rng.integers(0, 30, size=4)])
        p = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
        r = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
        want = 2 * p * r / (p + r) if p + r else 0.0
        assert f_beta(c, beta=1.0) == pytest.approx(want)


def test_f_beta_degenerate_is_zero():
    assert f_beta(ConfusionCounts(tp=0, tn=5, fp=0, fn=0), beta=2.0) == 0.0


def test_f_beta_weighs_recall():
    # beta=2 favors recall: recall-heavy beats precision-heavy
    recall_heavy = ConfusionCounts(tp=9, tn=1, fp=9, fn=1)
    precision_heavy = ConfusionCounts(tp=5, tn=9, fp=1, fn=5)
    assert f_beta(recall_heavy, 2.0) > f_beta(precision_heavy, 2.0)


# ------------------------------------------------------------------ AUROC


def test_auroc_perfect_separation():
    assert auroc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auroc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0


def test_auroc_null_ranking():
    rng = np.random.default_rng(2)
    y = rng.integers(0, 2, size=4000)
    s = rng.normal(size=4000)
    assert abs(auroc(y, s) - 0.5) < 0.03


def test_auroc_matches_pair_oracle():
    rng = np.random.default_rng(3)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # quantized scores force ties regularly
        s = np.round(rng.normal(size=n), 1)
        assert auroc(y, s) == pytest.approx(pair_oracle_auroc(y, s), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    scores=st.one_of(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=60),
        # heavy ties: a few distinct values repeated
        st.lists(st.sampled_from([-2.0, 0.0, 0.5, 3.0]), min_size=2, max_size=60),
        # constant scores
        st.integers(2, 40).map(lambda n: [1.25] * n),
    ),
    data=st.data(),
)
def test_midranks_match_scipy_rankdata(scores, data):
    from scipy.stats import rankdata

    s = np.array(scores)
    np.testing.assert_array_equal(midranks(s), rankdata(s, method="average"))
    # labels with both classes, including a single positive
    n = s.size
    positives = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    if data.draw(st.booleans()):
        positives = {min(positives)}
    y = np.zeros(n, dtype=int)
    y[sorted(positives)] = 1
    ranks = rankdata(s, method="average")
    n_pos = int(y.sum())
    want = (float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos))
    assert auroc(y, s) == want  # bit-identical to the rankdata form


def test_midranks_nan_propagates_like_rankdata():
    assert np.isnan(midranks([1.0, np.nan, 2.0])).all()


def test_auroc_requires_both_classes():
    with pytest.raises(ValueError):
        auroc([1, 1], [0.1, 0.2])


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, size=50)
    y[:2] = [0, 1]
    s = rng.normal(size=50)
    base = auroc(y, s)
    assert auroc(y, np.exp(s)) == pytest.approx(base, abs=1e-12)
    assert auroc(y, 3 * s - 7) == pytest.approx(base, abs=1e-12)


def test_auroc_complement_without_ties():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=60)
    y[:2] = [0, 1]
    s = rng.permutation(60).astype(float)  # distinct scores
    assert auroc(y, s) + auroc(y, -s) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ AUPRC


def test_auprc_perfect_ranking():
    assert auprc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)


def test_auprc_baseline_prevalence():
    rng = np.random.default_rng(6)
    y = (rng.random(20000) < 0.3).astype(int)
    s = rng.normal(size=20000)
    assert abs(auprc(y, s) - 0.3) < 0.03


def test_auprc_matches_sweep_oracle():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        y = rng.integers(0, 2, size=n)
        if y.sum() == 0:
            y[0] = 1
        s = np.round(rng.normal(size=n), 1)
        assert auprc(y, s) == pytest.approx(sweep_oracle_auprc(y, s), abs=1e-12)


def test_auprc_requires_positive():
    with pytest.raises(ValueError):
        auprc([0, 0], [0.1, 0.2])


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 300),
    distinct=st.sampled_from([1, 2, 5, 1000]),
    positives=st.sampled_from(["one", "random", "all"]),
)
def test_auprc_equals_the_group_loop_bit_for_bit(data, n, distinct, positives):
    # heavy ties come from few distinct scores; distinct == 1 is all scores equal
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    s = rng.integers(0, distinct, size=n) * data.draw(st.floats(1e-3, 1e3)) - 0.5
    if positives == "one":
        y = np.zeros(n, dtype=int)
        y[rng.integers(n)] = 1
    elif positives == "all":
        y = np.ones(n, dtype=int)
    else:
        y = rng.integers(0, 2, size=n)
        y[rng.integers(n)] = 1
    assert auprc(y, s) == auprc_loop(y, s)


def test_report_of_a_nan_score_raises():
    # midranks make AUROC NaN, which the report rejects; AUPRC must return first
    with pytest.raises(ValueError, match="auroc"):
        report([1, 0, 1], [np.nan, 0.5, 0.2], threshold=0.0)


def test_auprc_monotone_invariance():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, size=40)
    y[0] = 1
    s = rng.normal(size=40)
    assert auprc(y, np.tanh(s)) == pytest.approx(auprc(y, s), abs=1e-12)


# --------------------------------------------------------------- streaming


def test_streaming_single_update():
    sc = StreamingConfusion()
    line = sc.update(1, 1)
    assert sc.counts == ConfusionCounts(tp=1)
    assert line == "0, 1, 1, 1, 0, 0, 0"


def test_streaming_counts_sum():
    rng = np.random.default_rng(9)
    sc = StreamingConfusion()
    for _ in range(100):
        sc.update(int(rng.integers(2)), int(rng.integers(2)))
    assert sc.counts.total == 100


def test_streaming_matches_batch():
    rng = np.random.default_rng(10)
    y = rng.integers(0, 2, size=250)
    p = rng.integers(0, 2, size=250)
    sc = StreamingConfusion()
    for yi, pi in zip(y, p):
        sc.update(int(yi), int(pi))
    assert sc.counts == confusion(y, p)


def test_streaming_sink_and_validation():
    sc = StreamingConfusion()
    assert sc.update(0, 1) == "0, 0, 1, 0, 0, 1, 0"
    sc.update(1, 0)
    assert sc.lines == ["0, 0, 1, 0, 0, 1, 0", "1, 1, 0, 0, 0, 1, 1"]
    with pytest.raises(ValueError):
        sc.update(2, 0)


@settings(max_examples=50, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40),
       cuts=st.lists(st.integers(0, 40), max_size=4))
def test_streaming_extend_writes_the_bytes_of_row_by_row_tallies(pairs, cuts):
    # the audit lines of a row-by-row running tally, whatever runs the
    # samples are passed in
    expected, tp, tn, fp, fn = [], 0, 0, 0, 0
    for i, (t, p) in enumerate(pairs):
        tp, tn, fp, fn = tp + (t & p), tn + (1 - t & 1 - p), fp + (1 - t & p), fn + (t & 1 - p)
        expected.append(f"{i}, {t}, {p}, {tp}, {tn}, {fp}, {fn}")
    sc = StreamingConfusion()
    bounds = [0, *sorted(min(c, len(pairs)) for c in cuts), len(pairs)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        run = pairs[lo:hi]
        new = sc.extend(np.array([t for t, _ in run], dtype=int), np.array([p for _, p in run], dtype=int))
        assert new == expected[lo:hi]
    assert sc.lines == expected
    assert sc.counts == ConfusionCounts(tp, tn, fp, fn)
    with pytest.raises(ValueError):
        sc.extend([0, 1], [1])


# ----------------------------------------------------------------- report


def test_report_fields_and_threshold():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=120)
    y[:2] = [0, 1]
    s = rng.normal(size=120) + y  # informative scores
    rep = report(y, s, threshold=0.5, beta=2.0)
    for v in (rep.accuracy, rep.macro_f1, rep.f_beta, rep.auroc, rep.auprc):
        assert 0.0 <= v <= 1.0
    preds = (s >= 0.5).astype(int)
    assert rep.confusion == confusion(y, preds)
    assert rep.auroc > 0.5
    d = rep.as_dict()
    assert d["confusion"]["tp"] == rep.confusion.tp


def test_report_validation():
    with pytest.raises(ValueError):
        MetricsReport(1.2, 0.5, 0.5, 0.5, 0.5, ConfusionCounts(tp=1), 0.0)
