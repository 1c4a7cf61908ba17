import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat.datapipe import class_weights
from qthreat.featuremap import (
    AngleVector,
    FeatureMapSpec,
    build_gram,
    center_gram,
    feature_statevectors,
    gram_from_states,
)
from qthreat.metrics import confusion, f_beta
from qthreat.qsvm import (
    CvPlan,
    SvmModel,
    align_sign,
    load_svm,
    observable_scorer,
    raw_decision_scores,
    save_svm,
    select_c,
    solve_dual,
    stratified_folds,
    tune_threshold,
)

from oracles import block_scores, tune_threshold_loop

SPEC2 = FeatureMapSpec(num_qubits=2, reps=1)


def linear_gram(x):
    return x @ x.T


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
    model = solve_dual(gram, [1, 0], c=10.0)
    assert set(model.support.tolist()) == {0, 1}
    alpha, _ = reconstruct_alpha_box(model)
    assert alpha[0] == pytest.approx(alpha[1], abs=1e-12)
    assert alpha[0] == pytest.approx(1.0, abs=1e-6)
    assert model.bias == pytest.approx(0.0, abs=1e-6)
    scores = raw_decision_scores(model, gram)
    np.testing.assert_allclose(np.abs(scores), 1.0, atol=2e-3)


def test_separable_linear_kernel():
    x, y = separable_points(40, seed=0)
    model = solve_dual(linear_gram(x), y, c=10.0)
    preds = (raw_decision_scores(model, linear_gram(x)) >= 0).astype(int)
    assert np.array_equal(preds, y)
    assert_kkt(model, linear_gram(x), y)


def test_dual_feasibility():
    x, y = separable_points(60, seed=1, margin=0.6)  # some overlap pressure
    weights = class_weights(y)
    model = solve_dual(linear_gram(x), y, c=1.0, class_weights=weights)
    alpha, box = reconstruct_alpha_box(model)
    assert np.all(alpha >= 0)
    assert np.all(alpha <= box + 1e-8)
    assert abs(model.coef.sum()) <= 1e-8


def test_duplicate_point_keeps_decisions():
    x, y = separable_points(24, seed=2)
    gram = linear_gram(x)
    model = solve_dual(gram, y, c=100.0)
    x_dup = np.vstack([x, x[:1]])
    y_dup = np.concatenate([y, y[:1]])
    model_dup = solve_dual(linear_gram(x_dup), y_dup, c=100.0)
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
        bundle = center_gram(build_gram([points[i] for i in order], SPEC2))
        model = solve_dual(bundle.train_gram, labels[order], c=1.0, tol=1e-10)
        support = angles[order][model.support]
        score = observable_scorer(model, support, bundle.centering_row_means, SPEC2)
        return score(np.stack([p.angles for p in others]))

    scores = fit_and_score(np.arange(20))
    scores_p = fit_and_score(rng.permutation(20))
    np.testing.assert_allclose(scores, scores_p, atol=1e-8)


def test_kkt_on_centered_quantum_kernel():
    rng = np.random.default_rng(5)
    angles = rng.uniform(-math.pi, math.pi, size=(30, 2))
    labels = (np.sin(angles[:, 0]) + 0.3 * rng.normal(size=30) > 0).astype(int)
    bundle = center_gram(build_gram([AngleVector(a) for a in angles], SPEC2))
    weights = class_weights(labels)
    for c in (0.1, 1.0, 10.0):
        model = solve_dual(bundle.train_gram, labels, c=c, class_weights=weights)
        assert_kkt(model, bundle.train_gram, labels)


@pytest.mark.parametrize(
    "bad",
    [[[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
     [[1.0, np.inf], [np.inf, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]]],
    ids=["nan", "nan-diagonal", "inf", "minus-inf"],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_solver_rejects_non_finite_gram(bad):
    with pytest.raises(ValueError, match="symmetric"):
        solve_dual(np.array(bad), [0, 1], 1.0)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_dual(np.array([[1.0, 0.5], [0.4, 1.0]]), [0, 1], 1.0)  # asymmetric
    with pytest.raises(ValueError):
        solve_dual(np.eye(2), [1, 1], 1.0)  # single class
    with pytest.raises(ValueError):
        solve_dual(np.eye(3), [0, 1], 1.0)  # shape mismatch


def test_solve_dual_allocates_no_matrix_sized_scratch():
    # the symmetry check runs block by block, so a fit's scratch is O(n)
    # vectors and one block, not the two n x n temporaries of |K - K^T|
    n = 1500
    x = np.random.default_rng(16).normal(size=(n, 6))
    gram = linear_gram(x)
    gram = (gram + gram.T) / 2.0
    labels = (x[:, 0] > 0).astype(int)
    tracemalloc.start()
    try:
        solve_dual(gram, labels, 1.0, max_iter=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * n * n * 8, peak / (n * n * 8)


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
    model = solve_dual(gram, y, c=10.0)
    alpha, box = reconstruct_alpha_box(model)
    scores = raw_decision_scores(model, gram[model.support])
    free = (alpha > 1e-8) & (alpha < box - 1e-8)
    assert free.any()
    np.testing.assert_allclose(np.abs(scores[free]), 1.0, atol=2e-3)


def test_zero_row_scores_bias():
    model = solve_dual(np.eye(2), [1, 0], c=10.0)
    row = np.zeros((1, 2))
    assert raw_decision_scores(model, row)[0] == pytest.approx(model.bias)
    sign = align_sign(raw_decision_scores(model, np.eye(2)), np.array([0, 1]))
    assert sign == -1
    assert sign * raw_decision_scores(model, row)[0] == pytest.approx(-model.bias)


def test_score_row_width_check():
    model = solve_dual(np.eye(2), [1, 0], c=1.0)
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
    model = solve_dual(gram, y, c=10.0)
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
    bundle = center_gram(build_gram([AngleVector(a) for a in train], spec))
    model = solve_dual(bundle.train_gram, labels, c, class_weights(labels))
    model = replace(model, sign=sign)
    score = observable_scorer(model, train[model.support], bundle.centering_row_means, spec)
    want = block_scores(
        model, train, probe, spec, bundle.centering_row_means, bundle.centering_grand_mean
    )
    np.testing.assert_allclose(score(probe), want, rtol=0.0, atol=1e-9)


def test_observable_scorer_is_row_independent():
    # streaming scores rows in chunks; each row's score must not depend on
    # which other rows share its batch
    rng = np.random.default_rng(15)
    spec = FeatureMapSpec(3, 2)
    train = rng.uniform(-math.pi, math.pi, size=(24, 3))
    labels = (train[:, 0] > 0).astype(int)
    bundle = center_gram(build_gram([AngleVector(a) for a in train], spec))
    model = solve_dual(bundle.train_gram, labels, 1.0)
    score = observable_scorer(model, train[model.support], bundle.centering_row_means, spec)
    probe = rng.uniform(-math.pi, math.pi, size=(70, 3))
    whole = score(probe)
    chunked = np.concatenate([score(probe[i : i + 32]) for i in range(0, 70, 32)])
    assert np.array_equal(whole, chunked)
    with pytest.raises(ValueError, match="support vector"):
        observable_scorer(model, train[:1], bundle.centering_row_means, spec)


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
    # submatrices of a cached-statevector Gram equal freshly built fold Grams
    rng = np.random.default_rng(12)
    angles = rng.uniform(-math.pi, math.pi, size=(15, 2))
    points = [AngleVector(a) for a in angles]
    full = build_gram(points, SPEC2).train_gram
    y = (angles[:, 1] > 0).astype(int)
    folds = stratified_folds(y, 3, seed=2)
    all_idx = np.arange(15)
    for held in folds:
        tr = np.setdiff1d(all_idx, held)
        rebuilt = build_gram([points[i] for i in tr], SPEC2)
        np.testing.assert_allclose(
            full[np.ix_(tr, tr)], rebuilt.train_gram, atol=1e-12
        )
        cross = gram_from_states(
            feature_statevectors(angles[held], SPEC2), feature_statevectors(angles[tr], SPEC2)
        )
        np.testing.assert_allclose(full[np.ix_(held, tr)], cross, atol=1e-12)


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


# ------------------------------------------------------------- persistence


def test_svm_roundtrip(tmp_path):
    x, y = separable_points(26, seed=14)
    gram = linear_gram(x)
    model = solve_dual(gram, y, c=10.0, class_weights=class_weights(y))
    model = replace(model, sign=align_sign(raw_decision_scores(model, gram), y), threshold=0.25)
    path = tmp_path / "svm.json"
    save_svm(model, path, cv_table=[{"c": 10.0, "mean_f_beta": 1.0}])
    loaded = load_svm(path)
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
