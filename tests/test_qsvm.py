import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qthreat.datapipe import class_weights
from qthreat.featuremap import AngleVector, FeatureMapSpec, feature_statevectors
from qthreat import persist, qsvm
from qthreat.metrics import confusion, f_beta
from qthreat.qsvm import (
    DUAL_TOL,
    CvPlan,
    FidelityRows,
    SvmModel,
    align_sign,
    fit_rows,
    load_svm,
    observable_scorer,
    save_svm,
    select_c,
    stratified_folds,
    tune_threshold,
)

from oracles import (
    block_scores,
    gram_from_states,
    raw_decision_scores,
    select_c_copying,
    solve_dual_columns,
    tune_threshold_loop,
    whole_centering,
    whole_gram,
)

SPEC2 = FeatureMapSpec(num_qubits=2, reps=1)


def linear_gram(x):
    return x @ x.T


def fidelity_rows(angles, spec):
    return FidelityRows(feature_statevectors(angles, spec))


def dense(rows):
    return np.stack([rows[i] for i in range(len(rows))])


def separable_points(n, seed, margin=2.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(scale=0.4, size=(n, 2))
    x[:, 0] += np.where(y == 1, margin, -margin)
    return x, y


def reconstruct_alpha_box(model):
    alpha = np.abs(model.coef)
    w = np.where(model.coef > 0, model.class_weights[1], model.class_weights[0])
    return alpha, model.c * w


def assert_kkt(model, gram, labels, tol=2e-3):
    y = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    scores = raw_decision_scores(model, gram)
    margins = y * scores
    alpha = np.zeros(len(labels))
    alpha[model.support] = np.abs(model.coef)
    box = model.c * np.where(np.asarray(labels) == 1, model.class_weights[1], model.class_weights[0])
    for i in range(len(labels)):
        if alpha[i] <= 1e-8:
            assert margins[i] >= 1.0 - tol, f"point {i}: zero-alpha margin {margins[i]}"
        elif alpha[i] >= box[i] - 1e-8:
            assert margins[i] <= 1.0 + tol, f"point {i}: bound-alpha margin {margins[i]}"
        else:
            assert abs(margins[i] - 1.0) <= tol, f"point {i}: free margin {margins[i]}"


# ------------------------------------------------------------------ solver


def test_two_point_closed_form():
    gram = np.eye(2)
    model = fit_rows(gram, [1, 0], c=10.0)[0]
    assert set(model.support.tolist()) == {0, 1}
    alpha, _ = reconstruct_alpha_box(model)
    assert alpha[0] == pytest.approx(alpha[1], abs=1e-12)
    assert alpha[0] == pytest.approx(1.0, abs=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)
    scores = raw_decision_scores(model, gram)
    np.testing.assert_allclose(np.abs(scores), 1.0, atol=2e-3)


def test_separable_linear_kernel():
    x, y = separable_points(40, seed=0)
    model = fit_rows(linear_gram(x), y, c=10.0)[0]
    preds = (raw_decision_scores(model, linear_gram(x)) >= 0).astype(int)
    assert np.array_equal(preds, y)
    assert_kkt(model, linear_gram(x), y)


def test_dual_feasibility():
    x, y = separable_points(60, seed=1, margin=0.6)  # some overlap pressure
    weights = class_weights(y)
    model = fit_rows(linear_gram(x), y, c=1.0, class_weights=weights)[0]
    alpha, box = reconstruct_alpha_box(model)
    assert np.all(alpha >= 0)
    assert np.all(alpha <= box + 1e-8)
    assert abs(model.coef.sum()) <= 1e-8


def test_duplicate_point_keeps_decisions():
    x, y = separable_points(24, seed=2)
    gram = linear_gram(x)
    model = fit_rows(gram, y, c=100.0)[0]
    x_dup = np.vstack([x, x[:1]])
    y_dup = np.concatenate([y, y[:1]])
    model_dup = fit_rows(linear_gram(x_dup), y_dup, c=100.0)[0]
    probe = np.random.default_rng(3).normal(size=(10, 2))
    s1 = raw_decision_scores(model, probe @ x.T)
    s2 = raw_decision_scores(model_dup, probe @ x_dup.T)
    np.testing.assert_allclose(s1, s2, atol=1e-6)


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    angles = rng.uniform(-math.pi, math.pi, size=(20, 2))
    points = [AngleVector(a) for a in angles]
    labels = (angles[:, 0] > 0).astype(int)
    others = [AngleVector(a) for a in rng.uniform(-math.pi, math.pi, size=(5, 2))]
    # tight tolerance: the converged dual optimum is unique, so scores are
    # order-independent; the default 1e-3 stop leaves visible solver slack
    def fit_and_score(order):
        rows = fidelity_rows(angles[order], SPEC2)
        model, _ = fit_rows(rows, labels[order], c=1.0, tol=1e-10)
        support = angles[order][model.support]
        score = observable_scorer(model, support, rows.means[model.support], SPEC2)
        return score(np.stack([p.angles for p in others]))

    scores = fit_and_score(np.arange(20))
    scores_p = fit_and_score(rng.permutation(20))
    np.testing.assert_allclose(scores, scores_p, atol=1e-8)


def test_kkt_on_centered_quantum_kernel():
    rng = np.random.default_rng(5)
    angles = rng.uniform(-math.pi, math.pi, size=(30, 2))
    labels = (np.sin(angles[:, 0]) + 0.3 * rng.normal(size=30) > 0).astype(int)
    rows = fidelity_rows(angles, SPEC2)
    weights = class_weights(labels)
    for c in (0.1, 1.0, 10.0):
        model, record = fit_rows(rows, labels, c=c, class_weights=weights)
        assert record["converged"] and record["gap"] <= DUAL_TOL
        assert_kkt(model, dense(rows), labels)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        fit_rows(np.eye(2), [1, 1], 1.0)  # single class
    with pytest.raises(ValueError, match="kernel has 3 rows, 2 labels"):
        fit_rows(np.eye(3), [0, 1], 1.0)


@pytest.mark.parametrize("c", [-1.0, 0.0, math.nan, math.inf], ids=["minus-1", "0", "nan", "inf"])
def test_solver_rejects_a_c_that_is_not_finite_and_positive(c):
    # such a C fits no support vectors, so every row would score the same
    with pytest.raises(ValueError, match=f"C must be finite and > 0, got {c!r}"):
        fit_rows(np.eye(2), [0, 1], c)


def test_solve_dual_allocates_no_matrix_sized_scratch():
    # a fit on a dense Gram reads it row by row, so its scratch is O(n)
    # vectors, not an n x n temporary
    n = 1500
    x = np.random.default_rng(16).normal(size=(n, 6))
    gram = linear_gram(x)
    gram = (gram + gram.T) / 2.0
    labels = (x[:, 0] > 0).astype(int)
    tracemalloc.start()
    try:
        fit_rows(gram, labels, 1.0, max_iter=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * n * n * 8, peak / (n * n * 8)


def test_select_c_allocates_no_fold_sized_copies():
    # fold fits read Gram rows through index arrays and held-out rows are
    # scored from the support rows' held-out entries; np.ix_ copies of a
    # fold's train block and held-out rows put this near 0.5 n^2 * 8 bytes
    # for 2 folds
    n = 1500
    x, labels = separable_points(n, seed=17)
    gram = linear_gram(x)
    gram = (gram + gram.T) / 2.0
    tracemalloc.start()
    try:
        select_c(gram, labels, CvPlan(folds=2, c_grid=(1.0,), seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * n * n * 8, peak / (n * n * 8)


def _quantum_cv_case(n, folds, positive_share, seed):
    """A centred fidelity Gram of random angles (q = 2) with noisy,
    imbalanced labels: the top positive_share of a smooth score, at least
    `folds` rows of each class."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    score = np.sin(angles[:, 0]) + 0.5 * np.cos(angles[:, 1]) + 0.3 * rng.normal(size=n)
    positives = min(max(folds, int(positive_share * n)), n - folds)
    labels = np.zeros(n, dtype=int)
    labels[np.argsort(score)[n - positives:]] = 1
    gram = whole_centering(whole_gram(angles, SPEC2))[0]
    return gram, labels


def _same_model(a, b):
    return (a.support.tobytes() == b.support.tobytes() and a.coef.tobytes() == b.coef.tobytes()
            and a.bias == b.bias and a.n_train == b.n_train)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(12, 200),
    folds=st.integers(2, 5),
    grid=st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0]), min_size=1, max_size=4, unique=True),
    positive_share=st.floats(0.1, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_select_c_equals_copying_oracle(n, folds, grid, positive_share, seed):
    gram, labels = _quantum_cv_case(n, folds, positive_share, seed)
    plan = CvPlan(folds=folds, c_grid=tuple(grid), seed=seed % 97)
    best, table = select_c(gram, labels, plan)
    want_best, want_table = select_c_copying(gram, labels, plan)
    assert best == want_best
    assert table == want_table  # floats compared with ==


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 150),
    c=st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]),
    positive_share=st.floats(0.05, 0.5),
    quantum=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_dual_rows_equal_column_oracle(n, c, positive_share, quantum, seed):
    # the stored Gram is exactly symmetric, so a row read has a column's bits
    if quantum:
        gram, labels = _quantum_cv_case(max(n, 4), 1, positive_share, seed)
    else:
        x = np.random.default_rng(seed).normal(size=(n, 3))
        gram = linear_gram(x)
        gram = (gram + gram.T) / 2.0
        labels = np.zeros(n, dtype=int)
        labels[: max(1, int(positive_share * n))] = 1
    weights = class_weights(labels)
    # C = 100 on a rank-3 linear Gram takes 65 000 - 162 000 SMO steps to
    # converge; one cap on both solvers keeps the draw short, and a capped
    # draw checks that both stop at the same step with converged false
    fitted, record = fit_rows(gram, labels, c, weights, max_iter=20_000)
    want, want_record = solve_dual_columns(gram, labels, c, weights, max_iter=20_000)
    assert _same_model(fitted, want)
    assert record == want_record


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(2, 6),
    reps=st.sampled_from([1, 2]),
    entanglement=st.sampled_from(["full", "linear"]),
    convention=st.sampled_from(["pi_minus", "product"]),
    n=st.integers(1, 40),
    duplicates=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fidelity_rows_match_whole_matrix_oracle(
    q, reps, entanglement, convention, n, duplicates, seed
):
    spec = FeatureMapSpec(q, reps, entanglement, convention)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-math.pi, math.pi, size=(n, q))
    if duplicates:
        angles[n // 2:] = angles[: n - n // 2]
    want, means, grand = whole_centering(whole_gram(angles, spec))
    rows = fidelity_rows(angles, spec)
    np.testing.assert_allclose(rows.means, means, rtol=0.0, atol=1e-12)
    assert rows.grand == pytest.approx(grand, rel=0.0, abs=1e-12)
    cols = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
    held = np.setdiff1d(np.arange(n), cols)
    with pytest.raises(TypeError):
        rows[np.ix_(held, cols)]  # the source answers rows and row entries, no blocks
    assert not rows._rows
    for i in range(n):
        np.testing.assert_allclose(rows[i], want[i], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(rows[i, cols], want[i, cols], rtol=0.0, atol=1e-12)
    # each row is computed once and kept
    assert rows[0] is rows[0] and len(rows._rows) == n


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(12, 120),
    folds=st.integers(2, 4),
    c=st.sampled_from([0.1, 1.0, 10.0]),
    positive_share=st.floats(0.1, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_row_source_fits_as_its_stacked_rows(n, folds, c, positive_share, seed):
    # the SMO and CV scoring read the same row bits from the source as from
    # the matrix its rows stack into, so the fits and the CV tables agree
    # bit for bit
    _, labels = _quantum_cv_case(n, folds, positive_share, seed)
    # the angles _quantum_cv_case draws first from the same seed
    angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, 2))
    rows = fidelity_rows(angles, SPEC2)
    k = dense(rows)
    weights = class_weights(labels)
    model, record = fit_rows(rows, labels, c, weights)
    again, again_record = fit_rows(k, labels, c, weights)
    assert _same_model(model, again) and record == again_record
    plan = CvPlan(folds=folds, c_grid=(0.1, 1.0, 10.0), seed=seed % 97)
    assert select_c(rows, labels, plan) == select_c(k, labels, plan)


class _CheckedRows(FidelityRows):
    """A FidelityRows that checks, after every read, that its cache holds at
    most `cap` rows and that the row read has the bits of its first read;
    `recomputed` counts the rows read again after their eviction."""

    def __init__(self, states, cap):
        super().__init__(states)
        self.cap, self.first, self.recomputed = cap, {}, 0

    def __getitem__(self, key):
        i = key[0] if isinstance(key, tuple) else key
        cached = i in self._rows
        value = super().__getitem__(key)
        assert len(self._rows) <= self.cap
        row = self._rows[i]
        if i in self.first:
            np.testing.assert_array_equal(row.view(np.uint64), self.first[i].view(np.uint64))
            self.recomputed += not cached
        else:
            self.first[i] = row.copy()
        return value


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(12, 80),
    budget_share=st.floats(0.0, 1.0),
    folds=st.integers(2, 4),
    c=st.sampled_from([0.1, 1.0, 10.0]),
    positive_share=st.floats(0.1, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, budget_share=0.0, folds=3, c=1.0, positive_share=0.3, seed=5)
def test_a_budgeted_row_cache_fits_the_same_model(n, budget_share, folds, c, positive_share, seed):
    # a budget of one row's bytes up to n rows': the cache evicts its least
    # recently read rows and recomputes them with the same bits, so the fit,
    # its record and the CV table are those of the unbounded cache
    _, labels = _quantum_cv_case(n, folds, positive_share, seed)
    angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, 2))
    states = feature_statevectors(angles, SPEC2)
    weights = class_weights(labels)
    plan = CvPlan(folds=folds, c_grid=(0.1, 1.0, 10.0), seed=seed % 97)
    free = FidelityRows(states)
    want_model, want_record = fit_rows(free, labels, c, weights)
    want_cv = select_c(free, labels, plan)
    budget = n * 8 + int(budget_share * (n - 1)) * n * 8
    cap = budget // (n * 8)
    with mock.patch.object(qsvm, "ROW_CACHE_BYTES", budget):
        rows = _CheckedRows(states, cap)
        model, record = fit_rows(rows, labels, c, weights)
        assert select_c(rows, labels, plan) == want_cv
    assert _same_model(model, want_model) and record == want_record
    assert cap > 1 or rows.recomputed > 0


def test_a_fit_stopped_at_max_iter_records_it():
    rng = np.random.default_rng(18)
    angles = rng.uniform(-math.pi, math.pi, size=(40, 2))
    labels = (np.sin(angles[:, 0]) + 0.3 * rng.normal(size=40) > 0).astype(int)
    rows = fidelity_rows(angles, SPEC2)
    _, stopped = fit_rows(rows, labels, 1.0, max_iter=1)
    assert stopped["iterations"] == stopped["max_iter"] == 1
    assert stopped["converged"] is False and stopped["gap"] > DUAL_TOL
    _, done = fit_rows(rows, labels, 1.0)
    assert done["converged"] is True and done["gap"] <= DUAL_TOL
    assert 1 < done["iterations"] < done["max_iter"]
    _, table = select_c(rows, labels, CvPlan(folds=2, c_grid=(1.0,)))
    assert table[0]["fold_converged"] == [True, True]


def test_solve_dual_takes_only_a_dense_gram():
    # the dense-Gram entry is gone: fit_rows is the one SMO entry, and it
    # checks a row source's length against the labels as it does a Gram's
    assert not hasattr(qsvm, "solve_dual")
    rows = fidelity_rows(np.zeros((2, 2)), SPEC2)
    with pytest.raises(ValueError, match="kernel has 2 rows, 3 labels"):
        fit_rows(rows, [0, 1, 1], 1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        SvmModel(
            support=np.array([0, 1]),
            coef=np.array([1.0, -0.5]),  # sum != 0
            bias=0.0,
            c=1.0,
            class_weights=(1.0, 1.0),
            n_train=2,
        )
    with pytest.raises(ValueError):
        SvmModel(
            support=np.array([0, 1]),
            coef=np.array([5.0, -5.0]),  # beyond box C*w = 1
            bias=0.0,
            c=1.0,
            class_weights=(1.0, 1.0),
            n_train=2,
        )


# --------------------------------------------------------------- decisions


def test_free_support_vectors_on_margin():
    x, y = separable_points(30, seed=6)
    gram = linear_gram(x)
    model = fit_rows(gram, y, c=10.0)[0]
    alpha, box = reconstruct_alpha_box(model)
    scores = raw_decision_scores(model, gram[model.support])
    free = (alpha > 1e-8) & (alpha < box - 1e-8)
    assert free.any()
    np.testing.assert_allclose(np.abs(scores[free]), 1.0, atol=2e-3)


def test_zero_row_scores_bias():
    model = fit_rows(np.eye(2), [1, 0], c=10.0)[0]
    row = np.zeros((1, 2))
    assert raw_decision_scores(model, row)[0] == pytest.approx(model.bias)
    sign = align_sign(raw_decision_scores(model, np.eye(2)), np.array([0, 1]))
    assert sign == -1
    assert sign * raw_decision_scores(model, row)[0] == pytest.approx(-model.bias)


def test_score_row_width_check():
    model = fit_rows(np.eye(2), [1, 0], c=1.0)[0]
    with pytest.raises(ValueError):
        raw_decision_scores(model, np.zeros((1, 3)))


def test_sign_alignment():
    scores = np.array([0.9, 0.7, -0.8, -0.6])
    labels = np.array([1, 1, 0, 0])
    assert align_sign(scores, labels) == 1
    assert align_sign(-scores, labels) == -1
    with pytest.raises(ValueError):
        align_sign(scores, np.ones(4))


def test_aligned_scores_order_validation_means():
    x, y = separable_points(40, seed=7)
    gram = linear_gram(x)
    model = fit_rows(gram, y, c=10.0)[0]
    raw = raw_decision_scores(model, gram)
    s = align_sign(raw, y) * raw
    assert s[y == 1].mean() >= s[y == 0].mean()


@settings(max_examples=30, deadline=None)
@given(
    q=st.integers(2, 4),
    reps=st.sampled_from([1, 2]),
    entanglement=st.sampled_from(["full", "linear"]),
    convention=st.sampled_from(["pi_minus", "product"]),
    n=st.integers(6, 30),
    m=st.integers(1, 8),
    c=st.sampled_from([0.1, 1.0, 10.0]),
    sign=st.sampled_from([-1, 1]),
    seed=st.integers(0, 2**32 - 1),
)
def test_observable_scorer_matches_centred_block_oracle(
    q, reps, entanglement, convention, n, m, c, sign, seed
):
    spec = FeatureMapSpec(q, reps, entanglement, convention)
    rng = np.random.default_rng(seed)
    train = rng.uniform(-math.pi, math.pi, size=(n, q))
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    probe = rng.uniform(-math.pi, math.pi, size=(m, q))
    rows = fidelity_rows(train, spec)
    model, _ = fit_rows(rows, labels, c, class_weights(labels))
    model = replace(model, sign=sign)
    score = observable_scorer(model, train[model.support], rows.means[model.support], spec)
    want = block_scores(model, train, probe, spec, rows.means, rows.grand)
    np.testing.assert_allclose(score(probe), want, rtol=0.0, atol=1e-9)


def test_observable_scorer_is_row_independent():
    # streaming scores rows in chunks; each row's score must not depend on
    # which other rows share its batch of two or more
    rng = np.random.default_rng(15)
    for q in (3, 4):
        spec = FeatureMapSpec(q, 2)
        train = rng.uniform(-math.pi, math.pi, size=(24, q))
        labels = (train[:, 0] > 0).astype(int)
        rows = fidelity_rows(train, spec)
        model, _ = fit_rows(rows, labels, 1.0)
        score = observable_scorer(model, train[model.support], rows.means[model.support], spec)
        probe = rng.uniform(-math.pi, math.pi, size=(70, q))
        whole = score(probe)
        for chunk in (2, 32):
            chunked = np.concatenate([score(probe[i : i + chunk]) for i in range(0, 70, chunk)])
            assert np.array_equal(whole, chunked), (q, chunk)
    with pytest.raises(ValueError, match="support vector"):
        observable_scorer(model, train[:1], rows.means[model.support], spec)


# --------------------------------------------------------------- threshold


def test_threshold_separates_clean_gap():
    scores = np.array([-2.0, -1.5, 1.0, 2.0])
    labels = np.array([0, 0, 1, 1])
    t = tune_threshold(scores, labels, beta=2.0)
    assert -1.5 < t < 1.0
    preds = (scores >= t).astype(int)
    assert f_beta(confusion(labels, preds), 2.0) == 1.0


def test_large_beta_pushes_toward_recall():
    rng = np.random.default_rng(8)
    scores = rng.normal(size=60)
    labels = (scores + rng.normal(scale=1.2, size=60) > 0).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    t_recall = tune_threshold(scores, labels, beta=100.0)
    t_balanced = tune_threshold(scores, labels, beta=1.0)
    assert t_recall <= t_balanced
    # beta -> inf makes every positive's score exceed the threshold
    preds = (scores >= t_recall).astype(int)
    c = confusion(labels, preds)
    assert c.fn <= 1  # at most the lowest-scored sample stays negative


def test_threshold_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(5, 25))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        t = tune_threshold(scores, labels, beta)
        uniq = np.unique(scores)
        if uniq.size < 2:
            assert t == uniq[0]
            continue
        cands = (uniq[:-1] + uniq[1:]) / 2
        best_v, best_t = -1.0, None
        for cand in cands:
            v = f_beta(confusion(labels, (scores >= cand).astype(int)), beta)
            if v > best_v + 1e-15:
                best_v, best_t = v, cand
        assert t == pytest.approx(best_t)
        got = f_beta(confusion(labels, (scores >= t).astype(int)), beta)
        assert got == pytest.approx(best_v)


_SCORE_KINDS = {
    "float": st.floats(-1e6, 1e6, allow_nan=False),
    "integer": st.integers(-4, 4).map(float),
    "tied": st.sampled_from([-1.0, 0.0, 0.0, 2.5]),
    # neighbouring doubles: their midpoint rounds onto one of them
    "adjacent": st.integers(0, 3).map(lambda k: 1.0 + k * 2.0**-52),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_threshold_equals_loop_oracle(data):
    kind = data.draw(st.sampled_from(sorted(_SCORE_KINDS)))
    n = data.draw(st.integers(2, 40))
    scores = np.array(data.draw(st.lists(_SCORE_KINDS[kind], min_size=n, max_size=n)))
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    labels[:2] = [0, 1]
    beta = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))
    assert tune_threshold(scores, labels, beta) == tune_threshold_loop(scores, labels, beta)


def test_threshold_needs_both_classes():
    with pytest.raises(ValueError):
        tune_threshold(np.array([0.1, 0.2]), np.array([1, 1]))


# ------------------------------------------------------------------- CV


def test_stratified_fold_ratios():
    rng = np.random.default_rng(10)
    y = (rng.random(103) < 0.3).astype(int)
    folds = stratified_folds(y, 5, seed=0)
    assert sorted(np.concatenate(folds).tolist()) == list(range(103))
    global_pos = y.sum()
    for f in folds:
        expected = global_pos * len(f) / 103
        assert abs(y[f].sum() - expected) <= 1.0


def test_stratified_folds_reject_tiny_class():
    y = np.array([0] * 20 + [1] * 3)
    with pytest.raises(ValueError):
        stratified_folds(y, 5, seed=0)


def test_single_value_grid():
    x, y = separable_points(30, seed=11)
    plan = CvPlan(folds=3, c_grid=(7.5,), seed=1)
    best, table = select_c(linear_gram(x), y, plan)
    assert best == 7.5
    assert len(table) == 1


def test_fold_submatrix_bookkeeping():
    # a fold's row reads, and the held-out entries of its train rows that CV
    # scoring reads, equal the centred whole-matrix Gram's submatrices
    rng = np.random.default_rng(12)
    angles = rng.uniform(-math.pi, math.pi, size=(15, 2))
    rows = fidelity_rows(angles, SPEC2)
    full = whole_centering(whole_gram(angles, SPEC2))[0]
    y = (angles[:, 1] > 0).astype(int)
    folds = stratified_folds(y, 3, seed=2)
    all_idx = np.arange(15)
    for held in folds:
        tr = np.setdiff1d(all_idx, held)
        for i in tr:
            np.testing.assert_allclose(rows[i, tr], full[i, tr], atol=1e-12)
            np.testing.assert_allclose(rows[i, held], full[i, held], atol=1e-12)
        cross = gram_from_states(
            feature_statevectors(angles[tr], SPEC2), feature_statevectors(angles[held], SPEC2)
        )
        np.testing.assert_allclose(
            np.stack([rows[i, held] for i in tr]),
            cross - (rows.means[tr][:, None] + rows.means[held][None, :]) + rows.grand,
            atol=1e-12,
        )


def test_select_c_prefers_smaller_on_tie():
    x, y = separable_points(40, seed=13, margin=3.0)  # easy: every C perfect
    plan = CvPlan(folds=4, c_grid=(0.1, 1.0, 10.0), seed=3)
    best, table = select_c(linear_gram(x), y, plan)
    values = [row["mean_f_beta"] for row in table]
    assert max(values) == values[0]
    assert best == 0.1


def test_cv_plan_validation():
    with pytest.raises(ValueError):
        CvPlan(folds=1)
    with pytest.raises(ValueError):
        CvPlan(c_grid=())
    with pytest.raises(ValueError):
        CvPlan(beta=0.0)
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="C must be finite and > 0"):
            CvPlan(c_grid=(1.0, c))


# ------------------------------------------------------------- persistence


def test_svm_roundtrip(tmp_path):
    x, y = separable_points(26, seed=14)
    gram = linear_gram(x)
    model = fit_rows(gram, y, c=10.0, class_weights=class_weights(y))[0]
    model = replace(model, sign=align_sign(raw_decision_scores(model, gram), y), threshold=0.25)
    path = tmp_path / "svm.json"
    angles, means = x[model.support], gram.mean(axis=0)[model.support]
    save_svm(model, path, angles, means, cv_table=[{"c": 10.0, "mean_f_beta": 1.0}])
    loaded, loaded_angles, loaded_means = load_svm(path)
    np.testing.assert_array_equal(loaded_angles, angles)
    np.testing.assert_array_equal(loaded_means, means)
    np.testing.assert_array_equal(loaded.support, model.support)
    np.testing.assert_array_equal(loaded.coef, model.coef)
    assert (loaded.bias, loaded.c, loaded.sign, loaded.threshold) == (
        model.bias,
        model.c,
        model.sign,
        model.threshold,
    )
    assert loaded.class_weights == model.class_weights
    np.testing.assert_array_equal(
        raw_decision_scores(loaded, gram), raw_decision_scores(model, gram)
    )


def test_load_svm_needs_one_angle_row_and_mean_per_support_vector(tmp_path):
    x, y = separable_points(26, seed=14)
    gram = linear_gram(x)
    model = fit_rows(gram, y, c=10.0, class_weights=class_weights(y))[0]
    angles, means = x[model.support], gram.mean(axis=0)[model.support]
    path = tmp_path / "svm.json"
    for bad_angles, bad_means in (
        (angles[:-1], means), (angles, means[:-1]), (np.vstack([angles, angles[:1]]), means),
        (angles, np.append(means, 0.0)), (angles[:, 0], means),
    ):
        save_svm(model, path, bad_angles, bad_means)
        with pytest.raises(ValueError, match="one angle row and one centring mean per support"):
            load_svm(path)
    # the layout before support angles: n centring means, no angle rows
    header = save_svm(model, path, angles, means)
    del header["support_angles"], header["support_means"]
    header["row_means"] = gram.mean(axis=0).tolist()
    persist.save_json(path, header)
    with pytest.raises(ValueError, match="one angle row and one centring mean per support"):
        load_svm(path)


@pytest.mark.parametrize("n", [400, 600])
def test_select_c_peak_is_the_row_cache(n):
    # random angles and labels: most rows become support vectors, so the row
    # cache fills to almost n rows (n^2 * 8 bytes). Scoring a fold adds
    # O(n) vectors; a |held| x |support| kernel block would add ~n^2 * 8 more
    rng = np.random.default_rng(n)
    angles = rng.uniform(-math.pi, math.pi, size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    rows, plan = fidelity_rows(angles, SPEC2), CvPlan(folds=2, c_grid=(1.0,), seed=0)
    select_c(fidelity_rows(angles[:40], SPEC2), labels[:40], plan)  # one-time imports
    tracemalloc.start()
    try:
        select_c(rows, labels, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * n * 8, peak / (n * n * 8)
