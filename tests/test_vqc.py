import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat import persist, qsim, vqc
from conftest import random_csr
from oracles import dense_from_csr

from qthreat.encoder import (
    EmbeddingScaler,
    EncoderConfig,
    TrainSchedule,
    _backward,
    _forward,
    _rows,
    _Workspace,
    forward,
    init_encoder,
    scale_with_grad,
)
from qthreat.featuremap import MAX_QUBITS, AngleVector, build_feature_map
from qthreat.qsim import CircuitProgram, GateOp, NoiseSpec
from qthreat.vqc import (
    MAX_LAYERS,
    Execution,
    VqcModel,
    VqcSpec,
    _adjoint,
    _batch_expectations,
    _shot_parities,
    angles_from_features,
    bce_with_logits,
    build_vqc_circuit,
    decision_logits,
    init_vqc,
    load_vqc,
    save_vqc,
    shot_logits,
    train_vqc,
)

from oracles import (
    angle_gradients,
    apply_circuit,
    apply_circuit_noisy,
    circuit_depth,
    density_from_pure,
    expectation_pauli_z,
    expectation_pauli_z_density,
    gate_counts,
    parameter_shift_grad,
    zero_state,
)


def forward_logit(angles, model, execution=Execution()):
    """scale * <Z...Z> + bias for one AngleVector; in shot mode the row is
    sampled with execution.seed."""
    row = angles.angles[None, :]
    if execution.mode == "exact":
        zhat = _batch_expectations(row, model)[0]
    else:
        zhat = _shot_parities(row, model, execution, [execution.seed])[0]
    return model.scale * float(zhat) + model.bias


def random_model(q, layers, seed, scale=1.0, bias=0.0, width=1.0):
    spec = VqcSpec(q, layers)
    rng = np.random.default_rng(seed)
    return VqcModel(spec, rng.uniform(-width, width, spec.num_params), scale, bias)


# ------------------------------------------------------------- structure


def test_parameter_count_formula():
    assert VqcSpec(4, 2).num_params == 16
    for q in range(2, 7):
        for layers in range(1, 5):
            assert VqcSpec(q, layers).num_params == layers * 2 * q


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_qubits": 1},
        {"num_qubits": 7},
        {"num_qubits": 3, "reupload_layers": 0},
        {"num_qubits": 3, "reupload_layers": 5},
        {"num_qubits": 3, "second_order_coeff": "cosine"},
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        VqcSpec(**kwargs)


def test_theta_length_enforced():
    with pytest.raises(ValueError):
        VqcModel(VqcSpec(3, 2), np.zeros(11))
    with pytest.raises(ValueError):
        VqcModel(VqcSpec(3, 2), np.full(12, np.nan))


def test_single_block_prefix_is_feature_map():
    # dropping the ansatz tail of an L=1 circuit leaves exactly the
    # single-rep linear feature map
    q = 4
    model = random_model(q, 1, seed=0)
    ang = AngleVector(np.linspace(-2.0, 2.0, q))
    prog = build_vqc_circuit(ang, model)
    fm = build_feature_map(ang, model.spec.feature_spec())
    assert prog.ops[: len(fm.ops)] == fm.ops
    tail = prog.ops[len(fm.ops) :]
    kinds = [op.kind for op in tail]
    assert kinds == ["RY"] * q + ["RZ"] * q + ["CZ"] * (q - 1)


def test_ansatz_two_qubit_gate_count():
    for q, layers in [(2, 1), (4, 2), (5, 3)]:
        model = random_model(q, layers, seed=1)
        counts = gate_counts(build_vqc_circuit(AngleVector(np.zeros(q)), model))
        assert counts.get("CZ", 0) == layers * (q - 1)
        assert counts.get("RZZ", 0) == layers * (q - 1)
        assert counts.get("RY", 0) == layers * q


def test_depth_grows_affinely_in_layers():
    for q in (2, 3, 4):
        depths = []
        for layers in (1, 2, 3):
            model = random_model(q, layers, seed=2)
            depths.append(circuit_depth(build_vqc_circuit(AngleVector(np.full(q, 0.4)), model)))
        assert depths[2] - depths[1] == depths[1] - depths[0]
        if q <= 3:
            # final chain gate touches every qubit, so blocks cannot overlap
            assert depths == [depths[0] * k for k in (1, 2, 3)]


# -------------------------------------------------------------- forward


def test_batch_matches_program_simulation():
    rng = np.random.default_rng(7)
    for q, layers in [(2, 1), (3, 2), (4, 3), (6, 1)]:
        model = random_model(q, layers, seed=q + layers, scale=1.3, bias=-0.2)
        ang = rng.uniform(-np.pi, np.pi, q)
        zb = _batch_expectations(ang[None, :], model)[0]
        state = apply_circuit(zero_state(q), build_vqc_circuit(AngleVector(ang), model))
        assert abs(zb - expectation_pauli_z(state, range(q))) < 1e-12


def test_zero_parameters_zero_angles_single_block():
    # one H layer makes every basis magnitude uniform and the remaining
    # gates are diagonal or identity, so the parity expectation vanishes;
    # deeper circuits interfere (q=2, L=3 reaches +1) so only L=1 is pinned
    for q in (2, 3, 4, 5, 6):
        for conv in ("pi_minus", "product"):
            spec = VqcSpec(q, 1, conv)
            model = VqcModel(spec, np.zeros(spec.num_params))
            assert abs(forward_logit(AngleVector(np.zeros(q)), model)) < 1e-12


def test_logit_affine_in_scale_and_bias():
    q = 3
    base = random_model(q, 2, seed=4)
    ang = AngleVector(np.linspace(-1.5, 1.5, q))
    z = forward_logit(ang, base)
    shifted = VqcModel(base.spec, base.theta, 2.5, -0.7)
    assert abs(forward_logit(ang, shifted) - (2.5 * z - 0.7)) < 1e-12


def test_decision_logits_match_forward():
    model = random_model(3, 2, seed=5, scale=0.8, bias=0.1)
    rows = np.random.default_rng(6).uniform(-np.pi, np.pi, (5, 3))
    batch = decision_logits(rows, model)
    singles = [forward_logit(AngleVector(r), model) for r in rows]
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_execution_validation():
    with pytest.raises(ValueError):
        Execution(mode="analytic")
    with pytest.raises(ValueError):
        Execution(mode="shots", shots=0)
    # mitigation inverts the readout confusion, which p01 + p10 = 1 makes singular
    singular = NoiseSpec(readout_flip_01=0.5, readout_flip_10=0.5)
    with pytest.raises(ValueError, match="confusion matrix singular"):
        Execution("shots", noise=singular, mitigate=True)
    Execution("shots", noise=singular)
    Execution(noise=singular, mitigate=True)  # exact mode reads no readout error
    # exact mode ignores the shot count entirely
    model = random_model(2, 1, seed=8)
    ang = AngleVector(np.array([0.3, -0.9]))
    assert forward_logit(ang, model, Execution(shots=0)) == forward_logit(ang, model)


def test_shot_estimate_converges():
    model = random_model(3, 2, seed=5)
    ang = AngleVector(np.random.default_rng(105).uniform(-np.pi, np.pi, 3))
    exact = forward_logit(ang, model)
    assert abs(exact) > 0.5  # fixture chosen to have signal
    misses = 0
    for s in range(10):
        est = forward_logit(ang, model, Execution("shots", shots=20000, seed=s))
        if abs(est - exact) > 4.0 / math.sqrt(20000):
            misses += 1
    assert misses <= 1


def test_readout_error_contracts_parity_and_mitigation_recovers():
    # independent flips at rate p scale <Z x ... x Z> by (1-2p)^q
    model = random_model(3, 2, seed=5)
    ang = AngleVector(np.random.default_rng(105).uniform(-np.pi, np.pi, 3))
    exact = forward_logit(ang, model)
    noise = NoiseSpec(readout_flip_01=0.1, readout_flip_10=0.1)
    raw = forward_logit(ang, model, Execution("shots", 60000, noise, seed=3))
    mit = forward_logit(ang, model, Execution("shots", 60000, noise, mitigate=True, seed=3))
    assert abs(raw - (1 - 0.2) ** 3 * exact) < 0.02
    assert abs(mit - exact) < 0.02
    assert abs(mit - exact) < abs(raw - exact)


def test_shot_logits_do_not_depend_on_block_or_stack(monkeypatch):
    model = random_model(3, 2, seed=5, scale=1.3, bias=-0.2)
    rows = np.random.default_rng(31).uniform(-np.pi, np.pi, (7, 3))
    noise = NoiseSpec(depol_1q=1e-3, depol_2q=1e-2, readout_flip_01=0.02, readout_flip_10=0.04)
    ex = Execution("shots", 256, noise, mitigate=True, seed=11)
    seeds = np.random.SeedSequence(11).generate_state(7)
    whole = shot_logits(rows, model, ex, seeds)
    for block in (1, 3, 64):
        monkeypatch.setattr(qsim, "SHOT_BLOCK", block)
        np.testing.assert_array_equal(shot_logits(rows, model, ex, seeds), whole)
    # a prefix keeps its rows' seeds, so it keeps their logits
    prefix = np.random.SeedSequence(11).generate_state(4)
    np.testing.assert_array_equal(shot_logits(rows[:4], model, ex, prefix), whole[:4])
    # one row scored alone with the seed it had in the stack
    seed = int(seeds[5])
    assert forward_logit(AngleVector(rows[5]), model, replace(ex, seed=seed)) == whole[5]


def test_depolarizing_noise_contracts_logit():
    model = random_model(3, 2, seed=5)
    ang = AngleVector(np.random.default_rng(105).uniform(-np.pi, np.pi, 3))
    exact = forward_logit(ang, model)
    noise = NoiseSpec(depol_1q=0.01, depol_2q=0.02)
    prog = build_vqc_circuit(ang, model)
    rho = apply_circuit_noisy(density_from_pure(zero_state(3)), prog, noise)
    dens = expectation_pauli_z_density(rho, range(3))
    assert abs(dens) < abs(exact)
    est = forward_logit(ang, model, Execution("shots", 60000, noise, seed=4))
    assert abs(est - dens) < 0.02


# ------------------------------------------------------------- gradients


def test_parameter_shift_rule_on_plain_ry():
    # <Z> after RY(t)|0> is cos(t); the two-point rule gives the derivative
    def f(t):
        prog = CircuitProgram(1, [GateOp("RY", (0,), t)])
        return expectation_pauli_z(apply_circuit(zero_state(1), prog), [0])

    for t in (0.0, 0.4, -1.1, 2.9):
        shift = 0.5 * (f(t + math.pi / 2) - f(t - math.pi / 2))
        assert abs(shift + math.sin(t)) < 1e-12


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("layers", [1, 2, 3])
def test_parameter_shift_matches_finite_difference(q, layers):
    rng = np.random.default_rng(10 * q + layers)
    model = random_model(q, layers, seed=q + 7 * layers, scale=1.2, bias=0.1, width=0.5)
    ang = rng.uniform(-np.pi, np.pi, (1, q))
    grads = parameter_shift_grad(ang, model, 1.0)
    assert grads["stochastic"] is False
    h = 1e-5
    for j in range(model.spec.num_params):
        tp, tm = model.theta.copy(), model.theta.copy()
        tp[j] += h
        tm[j] -= h
        fd = model.scale * (
            _batch_expectations(ang, replace(model, theta=tp))[0]
            - _batch_expectations(ang, replace(model, theta=tm))[0]
        ) / (2 * h)
        assert abs(fd - grads["theta"][j]) < 1e-6


def test_scale_and_bias_gradients_analytic():
    model = random_model(3, 2, seed=11, scale=1.4, bias=-0.3)
    rows = np.random.default_rng(12).uniform(-np.pi, np.pi, (4, 3))
    up = np.array([0.2, -1.0, 0.5, 0.9])
    grads = parameter_shift_grad(rows, model, up)
    zhat = _batch_expectations(rows, model)
    assert abs(grads["scale"] - float(up @ zhat)) < 1e-12
    assert abs(grads["bias"] - float(up.sum())) < 1e-12


def test_zero_upstream_short_circuits():
    model = random_model(2, 2, seed=13)
    rows = np.zeros((3, 2))
    grads = parameter_shift_grad(rows, model, np.zeros(3))
    assert not grads["theta"].any()
    assert grads["scale"] == 0.0 and grads["bias"] == 0.0


def test_shot_mode_gradients_flagged_stochastic():
    model = random_model(2, 1, seed=14)
    rows = np.array([[0.5, -0.5]])
    grads = parameter_shift_grad(rows, model, 1.0, Execution("shots", shots=4000, seed=0))
    assert grads["stochastic"] is True
    exact = parameter_shift_grad(rows, model, 1.0)
    assert np.max(np.abs(grads["theta"] - exact["theta"])) < 0.2


def test_data_angle_gradients_match_finite_difference():
    rng = np.random.default_rng(15)
    for conv in ("pi_minus", "product"):
        spec = VqcSpec(3, 2, conv)
        model = VqcModel(spec, rng.uniform(-0.8, 0.8, spec.num_params), 0.9, -0.3)
        rows = rng.uniform(-2.5, 2.5, (2, 3))
        up = np.array([0.7, -1.3])
        shifted = angle_gradients(rows, model, up)
        adjoint = _adjoint(rows, model)[1](up)["angles"]
        h = 1e-5
        for i in range(2):
            for t in range(3):
                rp, rm = rows.copy(), rows.copy()
                rp[i, t] += h
                rm[i, t] -= h
                fd = up[i] * model.scale * (
                    _batch_expectations(rp, model)[i] - _batch_expectations(rm, model)[i]
                ) / (2 * h)
                assert abs(fd - shifted[i, t]) < 1e-6
                assert abs(fd - adjoint[i, t]) < 1e-6


def test_fine_tune_chain_matches_finite_difference():
    # full joint path: encoder -> scaler -> angles -> circuit -> BCE
    q = 2
    spec = VqcSpec(q, 1)
    vm = VqcModel(spec, np.random.default_rng(0).uniform(-0.8, 0.8, spec.num_params), 1.1, 0.05)
    cfg = EncoderConfig(input_dim=4, hidden_sizes=(5,), embed_dim=3, dropout=0.0, seed=9)
    enc = init_encoder(cfg)
    # wide bounds keep every unit-norm coordinate strictly inside the clip
    scaler = EmbeddingScaler(np.full(3, -2.0), np.full(3, 2.0))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 2, 6)
    w = np.ones(6)

    def total_loss():
        _, e = forward(enc, x)
        sc, _ = scale_with_grad(e, scaler)
        z = _batch_expectations(math.pi * sc[:, :q], vm)
        return bce_with_logits(vm.scale * z + vm.bias, y, w)

    # the fine-tuning step's chain: a cache workspace's eval-mode forward,
    # the adjoint sweep, the embedding gradient in ws.de and a backward
    ws = _Workspace(enc, 6, cache=True)
    ws.x[:] = x
    _, e = _forward(enc, ws, 6, None)
    sc, live = scale_with_grad(e, scaler)
    ang = math.pi * sc[:, :q]
    zhat, backward = _adjoint(ang, vm)
    logits = vm.scale * zhat + vm.bias
    dlogit = w * (1.0 / (1.0 + np.exp(-logits)) - y) / 6
    dang = backward(dlogit)["angles"]
    de = _rows(ws.de, 6, 3)
    de.fill(0.0)
    de[:, :q] = dang * math.pi * live[:, :q]
    _backward(enc, ws)
    grads = {k: v.copy() for k, v in ws.grads.items()}

    h = 1e-6
    for key in ("block0.W", "block0.gamma", "embed.W", "embed.b"):
        flat = enc.params[key].reshape(-1)
        for fi in (0, flat.size - 1):
            orig = flat[fi]
            flat[fi] = orig + h
            lp = total_loss()
            flat[fi] = orig - h
            lm = total_loss()
            flat[fi] = orig
            assert abs((lp - lm) / (2 * h) - grads[key].reshape(-1)[fi]) < 1e-7


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(2, MAX_QUBITS),
    layers=st.integers(1, MAX_LAYERS),
    conv=st.sampled_from(["pi_minus", "product"]),
    m=st.integers(1, 9),
    upstream=st.sampled_from(["dense", "zero", "single"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_matches_shift_oracles(q, layers, conv, m, upstream, seed):
    rng = np.random.default_rng(seed)
    spec = VqcSpec(q, layers, conv)
    model = VqcModel(spec, rng.uniform(-math.pi, math.pi, spec.num_params),
                     rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
    rows = rng.uniform(-math.pi, math.pi, (m, q))
    up = np.zeros(m)
    if upstream == "dense":
        up = rng.normal(size=m)
    elif upstream == "single":
        up[rng.integers(m)] = rng.normal()
    zhat, backward = _adjoint(rows, model)
    np.testing.assert_array_equal(
        zhat.view(np.uint64), _batch_expectations(rows, model).view(np.uint64)
    )
    grads = backward(up)
    shift = parameter_shift_grad(rows, model, up)
    np.testing.assert_allclose(grads["theta"], shift["theta"], rtol=0, atol=1e-10)
    assert abs(grads["scale"] - shift["scale"]) <= 1e-10
    assert abs(grads["bias"] - shift["bias"]) <= 1e-10
    np.testing.assert_allclose(grads["angles"], angle_gradients(rows, model, up),
                               rtol=0, atol=1e-10)


# -------------------------------------------------------------- training


def teacher_dataset(seed, n=96):
    spec = VqcSpec(2, 2)
    teacher = VqcModel(spec, np.random.default_rng(11).uniform(-1.5, 1.5, spec.num_params))
    pool = np.random.default_rng(seed).uniform(-np.pi, np.pi, (400, 2))
    zt = _batch_expectations(pool, teacher)
    keep = np.abs(zt) > 0.25  # margin so the concept is realizably separable
    return pool[keep][:n], (zt[keep][:n] > 0).astype(int)


def test_initial_loss_near_log_two():
    spec = VqcSpec(3, 2)
    rng = np.random.default_rng(20)
    ang = rng.uniform(-np.pi, np.pi, (64, 3))
    y = np.tile([0, 1], 32)
    for seed in range(5):
        model = init_vqc(spec, seed)
        assert np.abs(model.theta).max() <= 0.1
        assert model.scale == 1.0 and model.bias == 0.0
        z = _batch_expectations(ang, model)
        loss = bce_with_logits(model.scale * z + model.bias, y, np.ones(64))
        assert abs(loss - math.log(2)) < 0.2


def test_training_toy_reaches_high_accuracy():
    x, y = teacher_dataset(12)
    sched = TrainSchedule(epochs=60, batch_size=32, learning_rate=0.1,
                          weight_decay=0.0, patience=60)
    res = train_vqc(VqcSpec(2, 2), sched, (x[:72], y[:72]), (x[72:], y[72:]), seed=4)
    acc = np.mean((decision_logits(x[:72], res.model) > 0).astype(int) == y[:72])
    assert acc >= 0.95
    assert res.encoder is None


def test_same_seed_identical_runs():
    x, y = teacher_dataset(13, n=48)
    sched = TrainSchedule(epochs=8, batch_size=16, learning_rate=0.05,
                          weight_decay=0.0, patience=8)
    a = train_vqc(VqcSpec(2, 1), sched, (x[:32], y[:32]), (x[32:], y[32:]), seed=9)
    b = train_vqc(VqcSpec(2, 1), sched, (x[:32], y[:32]), (x[32:], y[32:]), seed=9)
    assert a.history == b.history
    np.testing.assert_array_equal(a.model.theta, b.model.theta)
    assert (a.model.scale, a.model.bias) == (b.model.scale, b.model.bias)


def test_best_checkpoint_restored():
    x, y = teacher_dataset(14, n=48)
    sched = TrainSchedule(epochs=12, batch_size=16, learning_rate=0.2,
                          weight_decay=0.0, patience=12)
    res = train_vqc(VqcSpec(2, 1), sched, (x[:32], y[:32]), (x[32:], y[32:]), seed=3)
    best = res.history["best_epoch"]
    logged = res.history["epochs"][best]["val_loss"]
    z = decision_logits(x[32:], res.model)
    recomputed = bce_with_logits(z, y[32:], np.ones(y[32:].size))
    assert abs(recomputed - logged) < 1e-12
    assert logged == min(e["val_loss"] for e in res.history["epochs"])


def test_empty_split_raises():
    sched = TrainSchedule(epochs=2, batch_size=4, patience=2)
    with pytest.raises(ValueError):
        train_vqc(VqcSpec(2, 1), sched, (np.zeros((0, 2)), np.zeros(0)),
                  (np.zeros((2, 2)), np.array([0, 1])))


def test_out_of_range_angles_rejected():
    sched = TrainSchedule(epochs=2, batch_size=4, patience=2)
    bad = np.full((4, 2), 4.0)
    with pytest.raises(ValueError):
        train_vqc(VqcSpec(2, 1), sched, (bad, np.array([0, 1, 0, 1])),
                  (bad, np.array([0, 1, 0, 1])))


def test_training_through_frozen_encoder():
    # raw features route through encoder + scaler; angles stay in range
    cfg = EncoderConfig(input_dim=6, hidden_sizes=(8,), embed_dim=4, dropout=0.0, seed=2)
    enc = init_encoder(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    from qthreat.encoder import fit_scaler

    _, e = forward(enc, x)
    scaler = fit_scaler(e)
    ang = angles_from_features(x, enc, scaler, 2)
    assert ang.shape == (40, 2)
    assert np.abs(ang).max() <= math.pi + 1e-12
    y = (ang[:, 0] > 0).astype(int)
    sched = TrainSchedule(epochs=4, batch_size=16, learning_rate=0.1,
                          weight_decay=0.0, patience=4)
    res = train_vqc(VqcSpec(2, 1), sched, (x[:32], y[:32]), (x[32:], y[32:]),
                    seed=1, encoder_model=enc, scaler=scaler)
    # frozen path must not touch the encoder weights
    for k, v in enc.params.items():
        np.testing.assert_array_equal(res.encoder.params[k], v)


def test_frozen_encoder_embeds_each_split_once(monkeypatch):
    cfg = EncoderConfig(input_dim=6, hidden_sizes=(8,), embed_dim=4, dropout=0.0, seed=2)
    enc = init_encoder(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 6))
    y = rng.integers(0, 2, 40)
    scaler = EmbeddingScaler(np.full(4, -0.6), np.full(4, 0.6))
    sched = TrainSchedule(epochs=3, batch_size=12, learning_rate=0.1,
                          weight_decay=0.0, patience=3)

    def angles(rows):
        return angles_from_features(rows, enc, scaler, 2)

    def run(fine_tune):
        # rows through the eval forward (angles_from_features) and through
        # the fine-tuning step's forward, in call order
        forwards, batches = [], []
        adjoint, step_forward = vqc._adjoint, vqc._forward

        def counting_angles(rows, *args, **kwargs):
            forwards.append(rows.shape[0])
            return angles_from_features(rows, *args, **kwargs)

        def counting_step_forward(model, ws, m, rng):
            forwards.append(m)
            return step_forward(model, ws, m, rng)

        def recording_adjoint(rows, model):
            batches.append(np.array(rows))
            return adjoint(rows, model)

        monkeypatch.setattr(vqc, "angles_from_features", counting_angles)
        monkeypatch.setattr(vqc, "_forward", counting_step_forward)
        monkeypatch.setattr(vqc, "_adjoint", recording_adjoint)
        train_vqc(VqcSpec(2, 1), sched, (x[:30], y[:30]), (x[30:], y[30:]),
                  seed=1, encoder_model=enc, scaler=scaler, fine_tune=fine_tune)
        monkeypatch.undo()
        return forwards, batches

    forwards, batches = run(fine_tune=False)
    assert forwards == [30, 10]  # train split, val split
    assert [b.shape[0] for b in batches] == [12, 12, 6] * 3
    # each batch's indexed angles are the bits a forward of that batch gives
    full = angles(x[:30])
    for rows in batches:
        idx = [int(np.flatnonzero((full == r).all(axis=1))[0]) for r in rows]
        np.testing.assert_array_equal(rows.view(np.uint64), angles(x[idx]).view(np.uint64))
    forwards, _ = run(fine_tune=True)
    assert forwards == [12, 12, 6, 10] * 3  # every batch, then val, each epoch


@pytest.mark.parametrize("fine_tune", [False, True])
def test_csr_features_train_the_vqc_their_dense_form_trains(fine_tune):
    # a tf-idf split's CsrMatrix rows go through the frozen encoder's
    # forward, or the fine-tuning gather, and give the bits of their float32
    # form: circuit, tuned encoder and angles
    x = random_csr(60, 300, 900, 5)
    dense = dense_from_csr(x)
    y = np.arange(60) % 2
    enc = init_encoder(EncoderConfig(input_dim=300, hidden_sizes=(16,), embed_dim=4, dropout=0.0, seed=6))
    scaler = EmbeddingScaler(np.full(4, -0.6), np.full(4, 0.6))
    sched = TrainSchedule(epochs=2, batch_size=16, learning_rate=0.05, weight_decay=1e-3, patience=2)
    idx = np.arange(40, 60)
    results = [
        train_vqc(VqcSpec(2, 1), sched, (rows[:40], y[:40]), (rows[idx], y[40:]), seed=3,
                  encoder_model=enc, scaler=scaler, fine_tune=fine_tune)
        for rows in (x, dense)
    ]
    got, want = results
    np.testing.assert_array_equal(got.model.theta.view(np.uint64), want.model.theta.view(np.uint64))
    for k, v in want.encoder.params.items():
        np.testing.assert_array_equal(got.encoder.params[k].view(np.uint64), v.view(np.uint64))
    np.testing.assert_array_equal(
        angles_from_features(x, got.encoder, scaler, 2).view(np.uint64),
        angles_from_features(dense, want.encoder, scaler, 2).view(np.uint64),
    )


def test_angles_from_csr_features_grow_with_the_rows_not_their_width():
    # 1 000 and then 4 000 CSR rows of 10 000 columns: as dense float32 the
    # extra rows alone would be 120 MB, as float64 240 MB. The forward
    # densifies one row block at a time into its workspace, so the peak
    # grows only by the per-row outputs (last hidden layer, embedding,
    # logits, scaled angles and their temporaries), well under 256 float64
    # values per row
    enc = init_encoder(EncoderConfig(input_dim=10_000, hidden_sizes=(64, 32), embed_dim=12, seed=2))
    scaler = EmbeddingScaler(np.full(12, -0.6), np.full(12, 0.6))
    peaks = {}
    for n in (1000, 4000):
        x = random_csr(n, 10_000, 40 * n, 9)
        angles_from_features(x[:300], enc, scaler, 4)  # one-time imports
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ang = angles_from_features(x, enc, scaler, 4)
            peaks[n] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert ang.shape == (n, 4)
    assert peaks[4000] - peaks[1000] <= 3000 * 256 * 8, peaks


def test_fine_tune_updates_encoder_and_helps():
    cfg = EncoderConfig(input_dim=5, hidden_sizes=(6,), embed_dim=3, dropout=0.0, seed=4)
    enc = init_encoder(cfg)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(48, 5))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    from qthreat.encoder import fit_scaler

    _, e = forward(enc, x)
    scaler = fit_scaler(e)
    sched = TrainSchedule(epochs=10, batch_size=16, learning_rate=0.05,
                          weight_decay=0.0, patience=10)
    before = enc.copy_params()
    frozen = train_vqc(VqcSpec(2, 1), sched, (x[:32], y[:32]), (x[32:], y[32:]),
                       seed=2, encoder_model=enc, scaler=scaler)
    tuned = train_vqc(VqcSpec(2, 1), sched, (x[:32], y[:32]), (x[32:], y[32:]),
                      seed=2, encoder_model=enc, scaler=scaler, fine_tune=True)
    changed = any(
        not np.array_equal(tuned.encoder.params[k], enc.params[k]) for k in enc.params
    )
    assert changed
    assert tuned.history["best_val_loss"] <= frozen.history["best_val_loss"] + 1e-9
    # a frozen encoder is used as given; fine-tuning works on a copy
    assert frozen.encoder is enc and tuned.encoder is not enc
    for k, v in before.items():
        np.testing.assert_array_equal(enc.params[k], v)


@pytest.mark.parametrize("rows", [64, 24])
def test_fine_tune_step_allocates_no_encoder_sized_arrays(monkeypatch, rows):
    # 280 rows in batches of 64 end in a partial batch of 24; after the
    # first step, a fine-tuning step (gather, encoder forward, adjoint,
    # encoder backward and Adam) writes into the workspace train_vqc
    # allocated and adds no array of the first layer's weight size
    cfg = EncoderConfig(input_dim=200, hidden_sizes=(256, 64), embed_dim=12, dropout=0.0, seed=1)
    enc = init_encoder(cfg)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(280, 200)).astype(np.float32)
    y = rng.integers(0, 2, 280)
    scaler = EmbeddingScaler(np.full(12, -0.6), np.full(12, 0.6))
    captured = {}
    fit_epochs = vqc._fit_epochs

    def spy(schedule, n, shuffle, step, validate, snapshot):
        captured["step"] = step
        return fit_epochs(schedule, n, shuffle, step, validate, snapshot)

    monkeypatch.setattr(vqc, "_fit_epochs", spy)
    sched = TrainSchedule(epochs=1, batch_size=64, patience=1)
    train_vqc(VqcSpec(2, 1), sched, (x, y), (x[:20], y[:20]), seed=1,
              encoder_model=enc, scaler=scaler, fine_tune=True)
    idx = rng.permutation(280)[:rows]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        captured["step"](idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < enc.params["block0.W"].nbytes, peak - before


# ----------------------------------------------------------- persistence


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = random_model(4, 2, seed=21, scale=1.7, bias=-0.45, width=2.0)
    save_vqc(model, tmp_path, extra={"note": "fixture"})
    loaded = load_vqc(tmp_path)
    assert loaded.spec == model.spec
    np.testing.assert_array_equal(loaded.theta, model.theta)
    assert loaded.scale == model.scale
    assert loaded.bias == model.bias


def test_checkpoint_rejects_tampering(tmp_path):
    model = random_model(2, 1, seed=22)
    save_vqc(model, tmp_path)
    unverified = {p: persist.sha256_file(p) for p in tmp_path.iterdir()}
    blob = (tmp_path / "vqc.f64").read_bytes()
    (tmp_path / "vqc.f64").write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    with pytest.raises(ValueError, match="fails its hash check"):
        vqc.load_checkpoint(tmp_path, unverified)
