import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    AllocatingAdam, encoder_backward, encoder_forward, encoder_loss_and_gradients, gelu, scale,
)
from qthreat import encoder
from qthreat.datapipe import class_weights
from qthreat.encoder import (
    ADAM_CHUNK,
    AdamState,
    EncoderConfig,
    EncoderModel,
    EmbeddingScaler,
    TrainSchedule,
    _backward,
    _fit_epochs,
    _forward,
    _rows,
    _Workspace,
    fit_scaler,
    forward,
    init_encoder,
    layer_norm,
    load_encoder,
    loss_and_gradients,
    save_encoder,
    train_encoder,
)

TINY = EncoderConfig(input_dim=5, hidden_sizes=(4,), embed_dim=3, dropout=0.0, seed=3)


def toy_separable(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(scale=0.3, size=(n, 2))
    x[:, 0] += np.where(y == 1, 2.0, -2.0)  # wide margin on feature 0
    return x, y


def gelu_tanh(t):
    """Published tanh approximation of GELU."""
    return 0.5 * t * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (t + 0.044715 * t**3)))


def embeddings(model, x):
    return forward(model, x)[1]


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
    a = forward(model, x)
    b = forward(model, x)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_dropout_only_in_training():
    cfg = EncoderConfig(input_dim=5, hidden_sizes=(64,), embed_dim=3, dropout=0.5, seed=4)
    model = init_encoder(cfg)
    x, y = np.ones((1, 5)), np.array([1])
    # no dropout seed is eval mode: the loss of forward's logits
    eval_loss, _ = loss_and_gradients(model, x, y)
    logits, _ = forward(model, x)
    probs = np.exp(logits - logits.max()) / np.exp(logits - logits.max()).sum()
    assert eval_loss == pytest.approx(-math.log(probs[0, 1]), rel=1e-12)
    train_loss, train_grads = loss_and_gradients(model, x, y, dropout_seed=11)
    assert not np.isclose(eval_loss, train_loss)
    again, again_grads = loss_and_gradients(model, x, y, dropout_seed=11)
    assert again == train_loss  # seed fixes the mask
    np.testing.assert_array_equal(train_grads["block0.W"], again_grads["block0.W"])


def test_forward_rejects_bad_width():
    model = init_encoder(TINY)
    with pytest.raises(ValueError):
        forward(model, np.zeros(6))


@pytest.mark.parametrize("input_dim, hidden", [(64, (64,) * 8), (70, (256, 64))])
def test_eval_forward_keeps_no_backprop_cache(input_dim, hidden):
    # the eval forward holds one block's working set at a time: the block's
    # input (the rows themselves for block 0, allocated before tracing) and
    # three arrays of its width (layer_norm's input, the centred values and
    # their squares), plus half a widest array of slack for the per-row
    # vectors and the outputs. A backprop cache would hold each block's
    # input, xhat and Phi(h) until the forward returns
    n = 2000
    model = init_encoder(EncoderConfig(input_dim=input_dim, hidden_sizes=hidden, embed_dim=4, seed=5))
    x = np.random.default_rng(6).normal(size=(n, input_dim))
    widths = (input_dim,) + hidden
    working_set = max((widths[i] if i else 0) + 3 * widths[i + 1] for i in range(len(hidden)))
    tracemalloc.start()
    try:
        logits, e = forward(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected_logits, expected_cache = encoder_forward(model, x, False, None)
    np.testing.assert_array_equal(logits.view(np.uint64), expected_logits.view(np.uint64))
    np.testing.assert_array_equal(e.view(np.uint64), expected_cache["e"].view(np.uint64))
    widest = n * max(hidden) * 8
    assert peak <= working_set * n * 8 + 0.5 * widest, peak / widest


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("input_dim, hidden, embed_dim",
                         [(70, (256, 64), 12), (6740, (256, 64), 12), (64, (64,) * 8, 4), (7, (4,), 3)])
def test_blocked_forward_matches_whole_array_oracle_bit_for_bit(input_dim, hidden, embed_dim, dtype):
    # 511-513 rows straddle the first split into two row blocks; 5 * 256 + 80
    # rows end in a block longer than the others
    model = init_encoder(EncoderConfig(input_dim=input_dim, hidden_sizes=hidden, embed_dim=embed_dim, seed=8))
    rng = np.random.default_rng(9)
    for n in (511, 512, 513, 5 * 256 + 80):
        x = rng.normal(size=(n, input_dim)).astype(dtype)
        logits, e = forward(model, x)
        expected_logits, expected_cache = encoder_forward(model, x, False, None)
        np.testing.assert_array_equal(logits.view(np.uint64), expected_logits.view(np.uint64))
        np.testing.assert_array_equal(e.view(np.uint64), expected_cache["e"].view(np.uint64))


@pytest.mark.parametrize("input_dim, hidden, embed_dim", [(70, (256, 64), 12), (64, (64,) * 8, 4)])
def test_eval_forward_memory_grows_by_its_output_rows(input_dim, hidden, embed_dim):
    # beyond one row block's working set, the forward holds the stacked last
    # hidden rows, the embedding and the logits: per extra row, at most
    # (last hidden + embed_dim + 2) float64 values
    model = init_encoder(EncoderConfig(input_dim=input_dim, hidden_sizes=hidden, embed_dim=embed_dim, seed=5))
    peaks = {}
    for n in (2000, 8000):
        x = np.random.default_rng(6).normal(size=(n, input_dim))
        tracemalloc.start()
        try:
            forward(model, x)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8000] - peaks[2000] <= 6000 * (hidden[-1] + embed_dim + 2) * 8, peaks


def test_wide_eval_forward_converts_its_input_within_the_byte_cap():
    # 511 float32 rows of tf-idf width are one row block; its first-layer
    # input is converted to float64 a sub-block at a time, so the forward
    # holds at most FORWARD_INPUT_BYTES of input, the block's hidden working
    # set (four arrays of the widest layer, counted generously) and the
    # stacked outputs, not a float64 copy of all 511 rows (27 MB)
    n, input_dim, hidden, embed_dim = 511, 6740, (256, 64), 12
    model = init_encoder(EncoderConfig(input_dim=input_dim, hidden_sizes=hidden, embed_dim=embed_dim, seed=5))
    x = np.random.default_rng(6).normal(size=(n, input_dim)).astype(np.float32)
    forward(model, x[:300])  # one-time imports
    tracemalloc.start()
    try:
        forward(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    working_set = n * (4 * max(hidden) + embed_dim + 2) * 8
    outputs = n * (hidden[-1] + embed_dim + 1 + 2) * 8
    assert peak <= encoder.FORWARD_INPUT_BYTES + working_set + outputs, peak


def _captured_step(monkeypatch, config, schedule, x, y):
    """The step closure train_encoder hands to the epoch loop, after training."""
    captured = {}
    fit_epochs = encoder._fit_epochs

    def spy(schedule, n, rng, step, validate, snapshot):
        captured["step"] = step
        return fit_epochs(schedule, n, rng, step, validate, snapshot)

    monkeypatch.setattr(encoder, "_fit_epochs", spy)
    train_encoder(config, schedule, (x, y), (x[:50], y[:50]))
    return captured["step"]


@pytest.mark.parametrize("rows", [256, 88])
def test_training_step_allocates_no_batch_sized_arrays(monkeypatch, rows):
    # 600 rows in batches of 256 end in a partial batch of 88; after the
    # first step, a step (gather, loss, gradients and Adam) writes into the
    # workspace train_encoder allocated and adds no array of a batch's size
    config = EncoderConfig(input_dim=70, hidden_sizes=(256, 64), embed_dim=12, dropout=0.15, seed=1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(600, 70)).astype(np.float32)
    y = rng.integers(0, 2, 600)
    step = _captured_step(monkeypatch, config, TrainSchedule(epochs=1, patience=1), x, y)
    idx = rng.permutation(600)[:rows]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 256 * max(config.hidden_sizes) * 8, peak - before


def test_training_rejects_labels_other_than_0_and_1():
    x, y = toy_separable(40, seed=1)
    with pytest.raises(ValueError, match="0/1"):
        train_encoder(TINY, TrainSchedule(epochs=1, patience=1), (np.zeros((40, 5)), y + 1), (x, y))


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


# ---------------------------------------------- fast paths against oracles


def _model(hidden, embed_dim, dropout, seed):
    cfg = EncoderConfig(input_dim=7, hidden_sizes=hidden, embed_dim=embed_dim, dropout=dropout, seed=seed)
    return init_encoder(cfg)


def _assert_same_arrays(got, expected):
    assert got.keys() == expected.keys()
    for k in expected:
        np.testing.assert_array_equal(got[k], expected[k], err_msg=k)


@settings(max_examples=30, deadline=None)
@given(
    hidden=st.sampled_from([(6,), (9, 5)]),
    embed_dim=st.integers(3, 6),
    dropout=st.sampled_from([0.0, 0.3]),
    dropout_seed=st.one_of(st.none(), st.integers(0, 2**31 - 2)),
    rows=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_loss_and_gradients_match_oracle_bit_for_bit(hidden, embed_dim, dropout, dropout_seed, rows, seed):
    model = _model(hidden, embed_dim, dropout, seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 7))
    y = rng.integers(0, 2, rows)
    loss, grads = loss_and_gradients(model, x, y, (0.7, 1.6), dropout_seed)
    expected_loss, expected = encoder_loss_and_gradients(model, x, y, (0.7, 1.6), dropout_seed)
    assert loss == expected_loss
    _assert_same_arrays(grads, expected)


@settings(max_examples=30, deadline=None)
@given(
    hidden=st.sampled_from([(6,), (9, 5)]),
    embed_dim=st.integers(3, 6),
    rows=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_backward_from_embedding_matches_oracle_bit_for_bit(hidden, embed_dim, rows, seed):
    # the VQC fine-tuning path: an eval-mode forward over the first rows of a
    # 12-row cache workspace, then a backward from an upstream gradient on
    # the embedding written into ws.de. A pass over other rows runs first,
    # so the checked one reuses every buffer
    model = _model(hidden, embed_dim, 0.0, seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 7))
    de = rng.normal(size=(rows, embed_dim))
    ws = _Workspace(model, 12, cache=True)
    for batch, upstream in ((rng.normal(size=(12, 7)), rng.normal(size=(12, embed_dim))), (x, de)):
        ws.x[:rows] = batch[:rows]
        logits, e = _forward(model, ws, rows, None)
        _rows(ws.de, rows, embed_dim)[:] = upstream[:rows]
        _backward(model, ws)
    expected_logits, expected_cache = encoder_forward(model, x, False, None)
    np.testing.assert_array_equal(logits, expected_logits)
    np.testing.assert_array_equal(e, expected_cache["e"])
    expected, _ = encoder_backward(model, expected_cache, de)
    _assert_same_arrays(ws.grads, expected)
    assert not ws.grads["clf.W"].any() and not ws.grads["clf.b"].any()


_ADAM_SIZES = st.sampled_from([1, 7, ADAM_CHUNK - 1, ADAM_CHUNK, ADAM_CHUNK + 1, 2 * ADAM_CHUNK + 37])


@settings(max_examples=25, deadline=None)
@given(
    w_size=_ADAM_SIZES,
    b_size=_ADAM_SIZES,
    weight_decay=st.sampled_from([0.0, 1e-4, 0.05]),
    lr=st.sampled_from([1e-3, 0.1]),
    steps=st.integers(3, 5),
    seed=st.integers(0, 2**16),
)
def test_adam_step_matches_allocating_oracle_bit_for_bit(w_size, b_size, weight_decay, lr, steps, seed):
    rng = np.random.default_rng(seed)
    params = {"layer.W": rng.normal(size=(w_size, 1)), "layer.b": rng.normal(size=b_size),
              "head.W": rng.normal(size=(2, 3))}
    model = EncoderModel(TINY, {k: v.copy() for k, v in params.items()})
    adam = AdamState(model.params)
    oracle = AllocatingAdam(params)
    for _ in range(steps):
        # gradients over eight decades, some exactly zero; head.W gets none
        grads = {k: rng.normal(size=v.shape) * 10.0 ** rng.uniform(-6, 2, v.shape)
                 * (rng.random(v.shape) > 0.1) for k, v in params.items()}
        grads["head.W"] = np.zeros((2, 3))
        adam.step(grads, lr, weight_decay)
        oracle.step(params, grads, lr, weight_decay)
        _assert_same_arrays(model.params, params)
        _assert_same_arrays(adam.m, oracle.m)
        _assert_same_arrays(adam.v, oracle.v)


def test_training_steps_match_oracles_bit_for_bit():
    model = _model((9, 5), 4, 0.2, 31)
    params = model.copy_params()
    oracle_model = EncoderModel(model.config, params)
    adam, oracle = AdamState(model.params), AllocatingAdam(params)
    rng = np.random.default_rng(32)
    for step in range(6):
        x = rng.normal(size=(10, 7))
        y = rng.integers(0, 2, 10)
        _, grads = loss_and_gradients(model, x, y, (0.8, 1.3), dropout_seed=step)
        _, expected = encoder_loss_and_gradients(oracle_model, x, y, (0.8, 1.3), dropout_seed=step)
        adam.step(grads, 1e-2, 1e-3)
        oracle.step(params, expected, 1e-2, 1e-3)
    _assert_same_arrays(model.params, params)


@pytest.mark.parametrize("spoil", ["fortran", "strided", "read_only", "moment"])
def test_adam_step_rejects_arrays_it_cannot_update_in_place(spoil):
    model = init_encoder(EncoderConfig(input_dim=5, hidden_sizes=(4,), embed_dim=3, seed=3))
    adam = AdamState(model.params)
    before = model.copy_params()
    w = model.params["block0.W"]
    if spoil == "fortran":
        model.params["block0.W"] = np.asfortranarray(w)
    elif spoil == "strided":
        model.params["block0.W"] = np.repeat(w, 2, axis=1)[:, ::2]
    elif spoil == "read_only":
        w.setflags(write=False)
    else:
        adam.m["block0.W"] = np.zeros((5, 4)).T
    grads = {k: np.ones_like(v) for k, v in before.items()}
    with pytest.raises(ValueError, match="C-contiguous"):
        adam.step(grads, 1e-3, 1e-4)
    # the refused step changed nothing
    assert adam.t == 0
    _assert_same_arrays(model.copy_params(), before)


def test_loaded_parameters_can_be_updated_in_place(tmp_path):
    model = init_encoder(TINY)
    # a copy of a Fortran-ordered array is C-ordered
    model.params.update({k: np.asfortranarray(v).copy() for k, v in model.params.items()})
    save_encoder(model, tmp_path)
    loaded, _ = load_encoder(tmp_path)
    for m in (model, loaded):
        assert all(v.flags.c_contiguous and v.flags.writeable for v in m.params.values())
        AdamState(m.params).step({k: np.ones_like(v) for k, v in m.params.items()}, 1e-3, 1e-4)


# --------------------------------------------------------------- training


def test_training_solves_separable_toy():
    x, y = toy_separable(240, seed=11)
    xv, yv = toy_separable(80, seed=12)
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(8,), embed_dim=4, dropout=0.0, seed=13)
    sched = TrainSchedule(epochs=25, batch_size=32, patience=25)
    model, history = train_encoder(cfg, sched, (x, y), (xv, yv))
    assert history["best_value"] == 1.0
    logits, _ = forward(model, xv)
    assert np.mean(np.argmax(logits, axis=-1) == yv) == 1.0


def test_training_is_seed_deterministic():
    x, y = toy_separable(120, seed=14)
    xv, yv = toy_separable(40, seed=15)
    cfg = EncoderConfig(input_dim=2, hidden_sizes=(6,), embed_dim=3, dropout=0.15, seed=16)
    sched = TrainSchedule(epochs=5, batch_size=32, patience=5)
    m1, h1 = train_encoder(cfg, sched, (x, y), (xv, yv))
    m2, h2 = train_encoder(cfg, sched, (x, y), (xv, yv))
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
    _, history = train_encoder(cfg, sched, (x, y), (xv, yv))
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
    model, history = train_encoder(cfg, sched, (x, y), (xv, yv))
    from qthreat.metrics import confusion, macro_f1

    logits, _ = forward(model, xv)
    value = macro_f1(confusion(yv, np.argmax(logits, axis=-1)))
    assert value == pytest.approx(history["best_value"], abs=1e-12)
    assert all(rec["val_metric"] <= history["best_value"] for rec in history["epochs"])


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.sampled_from([0.0, 0.5, 1.0, -math.inf, math.nan]), min_size=1, max_size=8),
    patience_share=st.floats(0.0, 1.0),
    n=st.integers(1, 9),
    batch_size=st.integers(1, 4),
)
def test_fit_epochs_follows_its_stopping_rule(values, patience_share, n, batch_size):
    # validate() returns the scripted values in turn; ties, NaN and -inf
    # never improve on the running best
    epochs = len(values)
    patience = int(round(patience_share * epochs))
    schedule = TrainSchedule(epochs=epochs, batch_size=batch_size, patience=patience)
    batches, snapshots, validated = [], [], []

    def step(idx):
        batches.append(idx)
        return float(len(batches))

    def validate():
        validated.append(values[len(validated)])
        return validated[-1], {"value": validated[-1]}

    def snapshot():
        snapshots.append(len(validated))
        return len(validated)

    records, best_epoch, best_value, best = _fit_epochs(
        schedule, n, np.random.default_rng(7), step, validate, snapshot
    )

    # the rule, stated per epoch: an epoch improves when its value exceeds
    # every earlier non-NaN value; the loop stops at the first epoch that
    # ends max(patience, 1) epochs without an improvement
    def running_best(e):
        return max([v for v in values[:e] if not math.isnan(v)], default=-math.inf)

    improved = [values[e] > running_best(e) for e in range(epochs)]
    last_gain = [max([j for j in range(e + 1) if improved[j]], default=-1) for e in range(epochs)]
    stops = [e for e in range(epochs) if e - last_gain[e] >= max(patience, 1)]
    run = stops[0] + 1 if stops else epochs
    assert len(records) == len(validated) == run
    ran = [v for v in values[:run] if not math.isnan(v)]
    want_best = values.index(max(ran)) if ran and max(ran) > -math.inf else -1
    assert best_epoch == want_best
    assert best_value == (values[want_best] if want_best >= 0 else -math.inf)
    # one snapshot before the first epoch and one after each improving epoch;
    # the best is the one taken after the best epoch's validation
    assert snapshots == [0] + [e + 1 for e in range(run) if improved[e]]
    assert best == want_best + 1
    # each epoch steps through one permutation of range(n) drawn from rng,
    # in batch_size slices, and records the mean of its batch losses
    rng = np.random.default_rng(7)
    per_epoch = -(-n // batch_size)
    assert len(batches) == run * per_epoch
    for e, rec in enumerate(records):
        mine = batches[e * per_epoch : (e + 1) * per_epoch]
        np.testing.assert_array_equal(np.concatenate(mine), rng.permutation(n))
        assert [len(b) for b in mine[:-1]] == [batch_size] * (per_epoch - 1)
        losses = range(e * per_epoch + 1, (e + 1) * per_epoch + 1)
        assert rec["epoch"] == e and rec["train_loss"] == sum(losses) / per_epoch
        assert rec["value"] is values[e] or rec["value"] == values[e]


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
    model, _ = train_encoder(cfg, sched, (x, y), (x, y))
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
