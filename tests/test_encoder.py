import math

import numpy as np
import pytest

from qthreat.datapipe import class_weights
from qthreat.encoder import (
    EncoderConfig,
    EncoderModel,
    EmbeddingScaler,
    TrainSchedule,
    embeddings,
    fit_scaler,
    forward,
    gelu,
    gelu_tanh,
    init_encoder,
    layer_norm,
    load_encoder,
    loss_and_gradients,
    save_encoder,
    scale,
    train_encoder,
)

TINY = EncoderConfig(input_dim=5, hidden_sizes=(4,), embed_dim=3, dropout=0.0, seed=3)


def toy_separable(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(scale=0.3, size=(n, 2))
    x[:, 0] += np.where(y == 1, 2.0, -2.0)  # wide margin on feature 0
    return x, y


# ----------------------------------------------------------- activations


def test_gelu_fixed_points():
    assert gelu(np.array(0.0)) == 0.0
    assert gelu(np.array(10.0)) == pytest.approx(10.0, abs=1e-6)
    assert gelu(np.array(-10.0)) == pytest.approx(0.0, abs=1e-6)


def test_gelu_tanh_agreement():
    t = np.linspace(-6, 6, 2001)
    assert np.max(np.abs(gelu(t) - gelu_tanh(t))) < 1e-3


def test_layer_norm_statistics():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(32, 17)) * 3.0 + 1.5
    xhat, _, _ = layer_norm(z)
    assert np.max(np.abs(xhat.mean(axis=-1))) < 1e-6
    assert np.max(np.abs(xhat.var(axis=-1) - 1.0)) < 1e-6


def test_layer_norm_constant_vector_gives_beta():
    cfg = EncoderConfig(input_dim=3, hidden_sizes=(4,), embed_dim=2, dropout=0.0, seed=1)
    model = init_encoder(cfg)
    model.params["block0.W"][:] = 0.0  # constant pre-norm activations
    model.params["block0.b"][:] = 2.5
    model.params["block0.beta"][:] = np.array([0.1, -0.2, 0.3, 0.4])
    xhat, _, _ = layer_norm(np.full((1, 4), 2.5))
    np.testing.assert_allclose(xhat, 0.0, atol=1e-12)
    logits, _ = forward(model, np.array([1.0, 2.0, 3.0]))
    logits2, _ = forward(model, np.array([-9.0, 0.0, 4.0]))
    np.testing.assert_allclose(logits, logits2, atol=1e-12)  # input washed out


# ---------------------------------------------------------------- forward


def test_embedding_unit_norm():
    cfg = EncoderConfig(input_dim=7, hidden_sizes=(6, 5), embed_dim=4, seed=2)
    model = init_encoder(cfg)
    rng = np.random.default_rng(1)
    _, e = forward(model, rng.normal(size=(20, 7)))
    np.testing.assert_allclose(np.linalg.norm(e, axis=-1), 1.0, atol=1e-6)


def test_eval_forward_is_deterministic():
    model = init_encoder(TINY)
    x = np.arange(5.0)
    a = forward(model, x, training=False)
    b = forward(model, x, training=False)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_dropout_only_in_training():
    cfg = EncoderConfig(input_dim=5, hidden_sizes=(64,), embed_dim=3, dropout=0.5, seed=4)
    model = init_encoder(cfg)
    x = np.ones(5)
    eval_logits, _ = forward(model, x, training=False)
    train_logits, _ = forward(model, x, training=True, dropout_seed=11)
    assert not np.allclose(eval_logits, train_logits)
    again, _ = forward(model, x, training=True, dropout_seed=11)
    np.testing.assert_array_equal(train_logits, again)  # seed fixes the mask


def test_forward_rejects_bad_width():
    model = init_encoder(TINY)
    with pytest.raises(ValueError):
        forward(model, np.zeros(6))


def test_embedding_scale_invariance():
    model = init_encoder(TINY)
    x = np.random.default_rng(5).normal(size=(8, 5))
    _, e1 = forward(model, x)
    model.params["embed.W"] *= 37.0  # normalization removes the scale
    model.params["embed.b"] *= 37.0
    logits2, e2 = forward(model, x)
    np.testing.assert_allclose(e1, e2, atol=1e-6)


# ------------------------------------------------------------------- loss


def test_uniform_logits_loss():
    model = init_encoder(TINY)
    model.params["clf.W"][:] = 0.0
    model.params["clf.b"][:] = 0.0
    x = np.random.default_rng(6).normal(size=(4, 5))
    for weights in [(1.0, 1.0), (0.3, 2.7)]:
        loss, _ = loss_and_gradients(model, x, [0, 1, 1, 0], weights)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_gradients_match_finite_differences():
    model = init_encoder(TINY)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 5))
    y = np.array([0, 1, 1, 0, 1, 0])
    weights = (0.8, 1.3)
    _, grads = loss_and_gradients(model, x, y, weights)
    step = 1e-5
    for name, g in grads.items():
        flat = model.params[name].reshape(-1)
        gf = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp, _ = loss_and_gradients(model, x, y, weights)
            flat[idx] = orig - step
            lm, _ = loss_and_gradients(model, x, y, weights)
            flat[idx] = orig
            fd = (lp - lm) / (2 * step)
            denom = max(1e-8, abs(fd) + abs(gf[idx]))
            assert abs(fd - gf[idx]) / denom < 1e-4, f"{name}[{idx}]"


def test_gradients_with_dropout_mask_fixed():
    cfg = EncoderConfig(input_dim=4, hidden_sizes=(5,), embed_dim=3, dropout=0.3, seed=8)
    model = init_encoder(cfg)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 4))
    y = np.array([1, 0, 1, 0, 1])
    _, grads = loss_and_gradients(model, x, y, dropout_seed=21)
    step = 1e-5
    for name in ("block0.W", "embed.W", "clf.W", "block0.gamma"):
        flat = model.params[name].reshape(-1)
        gf = grads[name].reshape(-1)
        for idx in range(0, flat.size, 3):
            orig = flat[idx]
            flat[idx] = orig + step
            lp, _ = loss_and_gradients(model, x, y, dropout_seed=21)
            flat[idx] = orig - step
            lm, _ = loss_and_gradients(model, x, y, dropout_seed=21)
            flat[idx] = orig
            fd = (lp - lm) / (2 * step)
            denom = max(1e-8, abs(fd) + abs(gf[idx]))
            assert abs(fd - gf[idx]) / denom < 1e-4, f"{name}[{idx}]"


def test_duplicate_equals_double_weight():
    model = init_encoder(TINY)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(6, 5))
    y = np.array([0, 0, 1, 1, 0, 1])
    dup_x = np.vstack([x, x[y == 0]])
    dup_y = np.concatenate([y, y[y == 0]])
    l_dup, _ = loss_and_gradients(model, dup_x, dup_y, (1.0, 1.0))
    l_weighted, _ = loss_and_gradients(model, x, y, (2.0, 1.0))
    assert l_dup == pytest.approx(l_weighted, abs=1e-10)


def test_loss_rejects_bad_batches():
    model = init_encoder(TINY)
    with pytest.raises(ValueError):
        loss_and_gradients(model, np.zeros((0, 5)), np.zeros(0))
    with pytest.raises(ValueError):
        loss_and_gradients(model, np.zeros((2, 5)), np.array([0, 2]))


def test_balanced_weights():
    # the balanced weights the encoder's TrainSchedule is given
    w0, w1 = class_weights(np.array([0, 0, 0, 1]))
    assert (w0, w1) == pytest.approx((4 / 6, 4 / 2))
    with pytest.raises(ValueError):
        class_weights(np.array([1, 1]))


# --------------------------------------------------------------- training


def test_training_solves_separable_toy():
    x, y = toy_separable(240, seed=11)
    xv, yv = toy_separable(80, seed=12)
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(8,), embed_dim=4, dropout=0.0, seed=13)
    sched = TrainSchedule(epochs=25, batch_size=32, patience=25)
    model, history = train_encoder(cfg, sched, (x, y), (xv, yv), "accuracy")
    assert history["best_value"] == 1.0
    logits, _ = forward(model, xv)
    assert np.mean(np.argmax(logits, axis=-1) == yv) == 1.0


def test_training_is_seed_deterministic():
    x, y = toy_separable(120, seed=14)
    xv, yv = toy_separable(40, seed=15)
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(6,), embed_dim=3, dropout=0.15, seed=16)
    sched = TrainSchedule(epochs=5, batch_size=32, patience=5)
    m1, h1 = train_encoder(cfg, sched, (x, y), (xv, yv), "macro_f1")
    m2, h2 = train_encoder(cfg, sched, (x, y), (xv, yv), "macro_f1")
    assert h1 == h2
    for k in m1.params:
        np.testing.assert_array_equal(m1.params[k], m2.params[k])


def test_patience_zero_stops_at_first_plateau():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(80, 3))
    y = rng.integers(0, 2, size=80)  # unlearnable noise
    xv = rng.normal(size=(30, 3))
    yv = rng.integers(0, 2, size=30)
    cfg = EncoderConfig(input_dim=3, hidden_sizes=(4,), embed_dim=2, dropout=0.0, seed=18)
    sched = TrainSchedule(epochs=25, batch_size=16, patience=0)
    _, history = train_encoder(cfg, sched, (x, y), (xv, yv), "accuracy")
    epochs = history["epochs"]
    # every epoch before the stop strictly improved the running best
    best = -1.0
    for rec in epochs[:-1]:
        assert rec["val_metric"] > best
        best = rec["val_metric"]
    if len(epochs) < sched.epochs:
        assert epochs[-1]["val_metric"] <= best


def test_restored_model_matches_best_epoch():
    x, y = toy_separable(150, seed=19)
    xv, yv = toy_separable(60, seed=20)
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(6,), embed_dim=3, dropout=0.1, seed=21)
    sched = TrainSchedule(epochs=8, batch_size=32, patience=3)
    model, history = train_encoder(cfg, sched, (x, y), (xv, yv), "f_beta", selection_beta=1.0)
    from qthreat.metrics import confusion, f_beta

    logits, _ = forward(model, xv)
    value = f_beta(confusion(yv, np.argmax(logits, axis=-1)), 1.0)
    assert value == pytest.approx(history["best_value"], abs=1e-12)
    assert all(rec["val_metric"] <= history["best_value"] for rec in history["epochs"])


def test_training_rejects_empty_split():
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(4,), embed_dim=2, seed=0)
    with pytest.raises(ValueError):
        train_encoder(
            cfg,
            TrainSchedule(),
            (np.zeros((0, 2)), np.zeros(0)),
            (np.zeros((3, 2)), np.zeros(3)),
        )


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(input_dim=4, embed_dim=1)
    with pytest.raises(ValueError):
        EncoderConfig(input_dim=4, dropout=1.0)
    with pytest.raises(ValueError):
        EncoderConfig(input_dim=0)
    with pytest.raises(ValueError):
        TrainSchedule(patience=30, epochs=25)
    with pytest.raises(ValueError):
        TrainSchedule(class_weights=(0.0, 1.0))


# ------------------------------------------------------------------ scaler


def test_scaler_quantile_endpoints():
    col = np.linspace(0.0, 1.0, 101)
    emb = np.stack([col, 2 * col], axis=1)
    scaler = fit_scaler(emb)
    np.testing.assert_allclose(scaler.low, [0.05, 0.10], atol=1e-12)
    np.testing.assert_allclose(scaler.high, [0.95, 1.90], atol=1e-12)
    out = scale(np.array([0.05, 0.10]), scaler)
    np.testing.assert_allclose(out, [-1.0, -1.0], atol=1e-12)
    out = scale(np.array([0.95, 1.90]), scaler)
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)
    out = scale(np.array([0.5, 1.0]), scaler)
    np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-12)


def test_scaler_clips_outliers():
    scaler = fit_scaler(np.linspace(0, 1, 101)[:, None])
    assert scale(np.array([9.9]), scaler)[0] == 1.0
    assert scale(np.array([-9.9]), scaler)[0] == -1.0


def test_scaler_degenerate_dimension():
    emb = np.stack([np.linspace(0, 1, 50), np.full(50, 0.7)], axis=1)
    scaler = fit_scaler(emb)
    assert scaler.degenerate.tolist() == [False, True]
    out = scale(emb, scaler)
    np.testing.assert_array_equal(out[:, 1], np.zeros(50))
    assert np.all(np.abs(out[:, 0]) <= 1.0)


# -------------------------------------------------------------- persistence


def test_encoder_roundtrip(tmp_path):
    x, y = toy_separable(100, seed=22)
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(5,), embed_dim=3, dropout=0.1, seed=23)
    sched = TrainSchedule(epochs=3, batch_size=32, patience=3)
    model, _ = train_encoder(cfg, sched, (x, y), (x, y), "accuracy")
    scaler = fit_scaler(embeddings(model, x))
    save_encoder(model, tmp_path, scaler=scaler, extra={"note": "test"})
    loaded, loaded_scaler = load_encoder(tmp_path)
    assert loaded.config == model.config
    for k in model.params:
        np.testing.assert_array_equal(loaded.params[k], model.params[k])
    np.testing.assert_array_equal(loaded_scaler.low, scaler.low)
    np.testing.assert_array_equal(loaded_scaler.high, scaler.high)
    a, _ = forward(model, x)
    b, _ = forward(loaded, x)
    np.testing.assert_array_equal(a, b)


def test_init_is_deterministic():
    a = init_encoder(TINY)
    b = init_encoder(TINY)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
