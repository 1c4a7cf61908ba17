import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat import qsim
from qthreat.featuremap import (
    AngleVector,
    FeatureMapSpec,
    MAX_QUBITS,
    build_feature_map,
    compute_uncompute_program,
    feature_statevectors,
    kernel_shot_estimates,
)
from qthreat.qsim import CircuitProgram, GateOp, NoiseSpec
from qthreat.qsvm import CvPlan, FidelityRows, select_c
from qthreat.vqc import VqcSpec, _adjoint, decision_logits, init_vqc

from oracles import (
    apply_circuit,
    apply_circuit_noisy,
    center_test_row,
    density_from_pure,
    evolve,
    feature_state,
    fidelity_kernel,
    fidelity_kernel_shots,
    gram_from_states,
    whole_gram,
    zero_state,
)

SPEC2 = FeatureMapSpec(num_qubits=2, reps=1)


def random_angles(rng, q):
    return AngleVector(rng.uniform(-math.pi, math.pi, size=q))


# ----------------------------------------------------------- angle encoding


def encode_angles(embedding, q):
    """First q coordinates of a unit-norm embedding, clipped to [-1, 1],
    scaled by pi."""
    e = np.asarray(embedding, dtype=float).reshape(-1)
    if q > e.size:
        raise ValueError(f"need {q} coordinates, embedding has {e.size}")
    norm = float(np.linalg.norm(e))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"embedding norm {norm} is not 1 within 1e-6")
    return AngleVector(np.pi * np.clip(e[:q], -1.0, 1.0))


def test_encode_unit_coordinate():
    e = np.zeros(8)
    e[0] = 1.0
    theta = encode_angles(e, 2)
    np.testing.assert_allclose(theta.angles, [math.pi, 0.0], atol=0)


def test_encode_range():
    rng = np.random.default_rng(0)
    for _ in range(25):
        v = rng.normal(size=12)
        v /= np.linalg.norm(v)
        theta = encode_angles(v, 4)
        assert np.all(np.abs(theta.angles) <= math.pi + 1e-12)


def test_encode_clips_overshoot():
    e = np.array([1.0000003, 0.0, 0.0])  # norm within 1e-6 of 1
    theta = encode_angles(e, 2)
    assert theta.angles[0] == math.pi


def test_encode_rejects_bad_inputs():
    with pytest.raises(ValueError):
        encode_angles(np.array([0.5, 0.5]), 2)  # not unit norm
    with pytest.raises(ValueError):
        encode_angles(np.array([1.0, 0.0]), 3)  # q exceeds dimension


def test_angle_vector_bounds():
    with pytest.raises(ValueError):
        AngleVector(np.array([3.2, 0.0]))


# ------------------------------------------------------------- feature map


def test_feature_map_gate_sequence_q2():
    theta = AngleVector(np.array([0.3, -0.4]))
    prog = build_feature_map(theta, SPEC2)
    kinds = [op.kind for op in prog.ops]
    assert kinds == ["H", "H", "RZ", "RZ", "RZZ"]
    assert prog.ops[2].angle == pytest.approx(0.6)
    phi = (math.pi - 0.3) * (math.pi - (-0.4))
    assert prog.ops[4].angle == pytest.approx(2 * phi)


def test_feature_map_pair_count_q4():
    theta = AngleVector(np.zeros(4))
    prog = build_feature_map(theta, FeatureMapSpec(4, reps=1))
    assert sum(1 for op in prog.ops if op.kind == "RZZ") == 6


def test_feature_map_reps_double_counts():
    theta = AngleVector(np.full(4, 0.2))
    c1 = build_feature_map(theta, FeatureMapSpec(4, reps=1))
    c2 = build_feature_map(theta, FeatureMapSpec(4, reps=2))
    assert len(c2.ops) == 2 * len(c1.ops)


def test_feature_map_linear_entanglement():
    theta = AngleVector(np.zeros(4))
    prog = build_feature_map(theta, FeatureMapSpec(4, reps=1, entanglement="linear"))
    pairs = [op.targets for op in prog.ops if op.kind == "RZZ"]
    assert pairs == [(0, 1), (1, 2), (2, 3)]


def test_product_convention():
    theta = AngleVector(np.array([0.5, 0.7]))
    prog = build_feature_map(
        theta, FeatureMapSpec(2, reps=1, second_order_coeff="product")
    )
    assert prog.ops[4].angle == pytest.approx(2 * 0.5 * 0.7)


def test_spec_validation():
    with pytest.raises(ValueError):
        FeatureMapSpec(1)
    with pytest.raises(ValueError):
        FeatureMapSpec(2, reps=0)
    with pytest.raises(ValueError):
        FeatureMapSpec(2, entanglement="ring")
    with pytest.raises(ValueError):
        FeatureMapSpec(2, second_order_coeff="sin")
    with pytest.raises(ValueError):
        build_feature_map(AngleVector(np.zeros(3)), SPEC2)


# --------------------------------------------------------------- kernels


def dense_oracle_unitary(theta, spec):
    """Explicit 4x4 gate-matrix product for q=2, r=1; independent of qsim."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    eye = np.eye(2)

    def rz(a):
        return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])

    t0, t1 = theta
    if spec.second_order_coeff == "pi_minus":
        phi = (math.pi - t0) * (math.pi - t1)
    else:
        phi = t0 * t1
    rzz = np.diag(
        [np.exp(-1j * phi), np.exp(1j * phi), np.exp(1j * phi), np.exp(-1j * phi)]
    )
    u = np.kron(eye, h)  # H on qubit 0 (low bit)
    u = np.kron(h, eye) @ u
    u = np.kron(eye, rz(2 * t0)) @ u
    u = np.kron(rz(2 * t1), eye) @ u
    return rzz @ u


def test_kernel_self_is_one():
    rng = np.random.default_rng(1)
    for _ in range(5):
        theta = random_angles(rng, 2)
        assert fidelity_kernel(theta, theta, SPEC2) == pytest.approx(1.0, abs=1e-12)


def test_kernel_symmetry_and_bounds():
    rng = np.random.default_rng(2)
    spec = FeatureMapSpec(3, reps=2)
    for _ in range(20):
        a, b = random_angles(rng, 3), random_angles(rng, 3)
        kab = fidelity_kernel(a, b, spec)
        kba = fidelity_kernel(b, a, spec)
        assert kab == pytest.approx(kba, abs=1e-12)
        assert 0.0 <= kab <= 1.0


def test_kernel_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for conv in ("pi_minus", "product"):
        spec = FeatureMapSpec(2, reps=1, second_order_coeff=conv)
        for _ in range(100):
            a, b = random_angles(rng, 2), random_angles(rng, 2)
            ua = dense_oracle_unitary(a.angles, spec)
            ub = dense_oracle_unitary(b.angles, spec)
            want = abs(np.vdot(ua[:, 0], ub[:, 0])) ** 2
            assert fidelity_kernel(a, b, spec) == pytest.approx(want, abs=1e-10)


def test_global_phase_invariance():
    # RZ(2*pi) = -I exactly: a legal gate realizing a pure global phase
    rng = np.random.default_rng(4)
    a, b = random_angles(rng, 2), random_angles(rng, 2)
    base = fidelity_kernel(a, b, SPEC2)
    phase_op = GateOp("RZ", (0,), 2 * math.pi)
    va = apply_circuit(
        zero_state(2),
        CircuitProgram(2, (phase_op,) + build_feature_map(a, SPEC2).ops),
    ).amplitudes
    vb = apply_circuit(
        zero_state(2),
        CircuitProgram(2, (phase_op,) + build_feature_map(b, SPEC2).ops),
    ).amplitudes
    assert abs(np.vdot(va, vb)) ** 2 == pytest.approx(base, abs=1e-12)


def test_batched_states_match_sequential():
    rng = np.random.default_rng(5)
    for conv in ("pi_minus", "product"):
        for ent in ("full", "linear"):
            spec = FeatureMapSpec(3, reps=2, entanglement=ent, second_order_coeff=conv)
            rows = rng.uniform(-math.pi, math.pi, size=(6, 3))
            batch = feature_statevectors(rows, spec)
            for i in range(6):
                single = feature_state(AngleVector(rows[i]), spec).amplitudes
                np.testing.assert_allclose(batch[i], single, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(2, MAX_QUBITS),
    reps=st.integers(1, 3),
    entanglement=st.sampled_from(["full", "linear"]),
    convention=st.sampled_from(["pi_minus", "product"]),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_states_match_the_gate_program(q, reps, entanglement, convention, m, seed):
    # (D(x) H^q)^reps |0> against the same circuit run gate by gate
    spec = FeatureMapSpec(q, reps, entanglement, convention)
    rows = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(m, q))
    got = feature_statevectors(rows, spec)
    want = evolve(build_feature_map(rows, spec))
    assert got.shape == want.shape == (m, 1 << q)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0.0, atol=1e-13)


def test_feature_states_are_row_independent_and_apply_no_gate(monkeypatch):
    # streaming maps rows in chunks: in any batch of two or more rows, a
    # row's state must not depend on the others (a one-row batch takes
    # BLAS's vector path, so it may differ in the last bits). No exact path
    # builds a GateOp: the feature states, the VQC's logits and its adjoint
    # sweep are all closed forms
    built = []
    post_init = GateOp.__post_init__
    monkeypatch.setattr(GateOp, "__post_init__", lambda op: built.append(op) or post_init(op))
    rng = np.random.default_rng(16)
    for q in range(2, MAX_QUBITS + 1):
        for reps in (1, 2, 3):
            spec = FeatureMapSpec(q, reps)
            rows = rng.uniform(-math.pi, math.pi, size=(150, q))
            whole = feature_statevectors(rows, spec)
            for chunk in (2, 3, 5, 16, 75):
                parts = [feature_statevectors(rows[i : i + chunk], spec)
                         for i in range(0, 150 - chunk + 1, chunk)]
                stacked = np.concatenate(parts)
                assert np.array_equal(stacked, whole[: len(stacked)]), (q, reps, chunk)
        model = init_vqc(VqcSpec(q, 2), seed=q)
        decision_logits(rows, model)
        _adjoint(rows, model)[1](np.ones(len(rows)))
    assert not built
    GateOp("H", (0,))
    assert len(built) == 1  # the count sees a construction


# ------------------------------------------------------------ shot kernels


def test_shot_kernel_identical_points():
    theta = AngleVector(np.array([0.4, -1.2]))
    est = fidelity_kernel_shots(theta, theta, SPEC2, shots=64, seed=0)
    assert est == 1.0


def test_shot_kernel_concentration():
    rng = np.random.default_rng(6)
    a, b = random_angles(rng, 2), random_angles(rng, 2)
    exact = fidelity_kernel(a, b, SPEC2)
    shots = 1024
    bound = 4 * math.sqrt(exact * (1 - exact) / shots)
    bad = sum(
        1
        for seed in range(200)
        if abs(fidelity_kernel_shots(a, b, SPEC2, shots, seed=seed) - exact) > bound
    )
    assert bad <= 2  # >= 99% of seeds inside a 4-sigma band


def test_stacked_kernel_estimates_match_one_pair_calls():
    rng = np.random.default_rng(12)
    spec = FeatureMapSpec(3, reps=2)
    a = random_angles(rng, 3)
    refs = rng.uniform(-math.pi, math.pi, size=(5, 3))
    seeds = [101, 7, 7, 55, 3]
    for noise, mitigate in [
        (NoiseSpec(), False),
        (NoiseSpec(depol_1q=1e-3, depol_2q=1e-2), False),
        (NoiseSpec(depol_1q=1e-3, depol_2q=1e-2, readout_flip_01=0.03, readout_flip_10=0.05), True),
    ]:
        stacked = kernel_shot_estimates(a, refs, spec, 512, noise, mitigate, seeds)
        singles = [
            fidelity_kernel_shots(a, AngleVector(r), spec, 512, noise, mitigate, seed=s)
            for r, s in zip(refs, seeds)
        ]
        np.testing.assert_array_equal(stacked, singles)



def test_kernel_shot_estimates_do_not_depend_on_the_block(monkeypatch):
    rng = np.random.default_rng(13)
    spec = FeatureMapSpec(3, reps=2)
    a = random_angles(rng, 3)
    refs = rng.uniform(-math.pi, math.pi, size=(7, 3))
    noise = NoiseSpec(depol_1q=1e-3, depol_2q=1e-2, readout_flip_01=0.03, readout_flip_10=0.05)
    seeds = list(range(40, 47))
    whole = kernel_shot_estimates(a, refs, spec, 512, noise, True, seeds)
    for block in (1, 3, 64):
        monkeypatch.setattr(qsim, "SHOT_BLOCK", block)
        np.testing.assert_array_equal(kernel_shot_estimates(a, refs, spec, 512, noise, True, seeds), whole)


def test_kernel_shot_memory_is_bounded_by_the_block_not_the_references():
    # one row's reference pairs evolve qsim.SHOT_BLOCK densities at a time:
    # at q = 6, 1 024 pairs at once held 257 MiB against 16 MiB for 64
    rng = np.random.default_rng(14)
    spec = FeatureMapSpec(6, reps=1, entanglement="linear")
    row = rng.uniform(-math.pi, math.pi, 6)
    kernel_shot_estimates(row, rng.uniform(-1, 1, (2, 6)), spec, 64, NoiseSpec(), False, [0, 1])
    peaks = {}
    for n in (64, 1024):
        refs = rng.uniform(-math.pi, math.pi, (n, 6))
        tracemalloc.start()
        try:
            kernel_shot_estimates(row, refs, spec, 64, NoiseSpec(), False, list(range(n)))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1024] <= 2 * peaks[64], peaks

def test_compute_uncompute_structure():
    a = AngleVector(np.array([0.3, 0.9]))
    b = AngleVector(np.array([-0.5, 0.1]))
    prog = compute_uncompute_program(a, b, SPEC2)
    assert len(prog.ops) == 10
    # reversing b's map negates its angles, in reverse order
    assert prog.ops[5].kind == "RZZ" and prog.ops[9].kind == "H"


def test_depolarizing_biases_kernel_low():
    # depolarizing mixes p(0^q) toward 1/2^q, so high-fidelity pairs read low
    a = AngleVector(np.array([0.8, -0.3]))
    b = AngleVector(np.array([0.7, -0.2]))
    exact = fidelity_kernel(a, b, SPEC2)
    assert exact > 0.9
    noise = NoiseSpec(depol_1q=1e-3, depol_2q=1e-2)
    rho = apply_circuit_noisy(
        density_from_pure(zero_state(2)),
        compute_uncompute_program(a, b, SPEC2),
        noise,
    )
    assert rho.matrix[0, 0].real < exact - 0.01  # infinite-shot bias
    ests = [
        fidelity_kernel_shots(a, b, SPEC2, shots=2048, noise=noise, seed=s)
        for s in range(40)
    ]
    assert np.mean(ests) < exact - 0.01


def test_shot_kernel_rejects_zero_shots():
    theta = AngleVector(np.zeros(2))
    with pytest.raises(ValueError):
        fidelity_kernel_shots(theta, theta, SPEC2, shots=0)


def test_mitigated_shot_kernel_tracks_exact():
    rng = np.random.default_rng(7)
    a, b = random_angles(rng, 2), random_angles(rng, 2)
    exact = fidelity_kernel(a, b, SPEC2)
    noise = NoiseSpec(readout_flip_01=0.04, readout_flip_10=0.03)
    raw_err, fix_err = 0.0, 0.0
    for seed in range(60):
        raw = fidelity_kernel_shots(a, b, SPEC2, 4096, noise=noise, seed=seed)
        fix = fidelity_kernel_shots(
            a, b, SPEC2, 4096, noise=noise, mitigate=True, seed=seed
        )
        raw_err += abs(raw - exact)
        fix_err += abs(fix - exact)
    assert fix_err < raw_err


# ---------------------------------------------------------------- Gram
# The train kernel is qsvm.FidelityRows: the centred fidelity Gram, one row
# at a time from the statevectors. `dense` stacks its rows for whole-matrix
# checks.


def fidelity_rows(points, spec):
    return FidelityRows(feature_statevectors(np.stack([p.angles for p in points]), spec))


def dense(rows):
    return np.stack([rows[i] for i in range(len(rows))])


def uncentred(rows):
    """k_ij from the centred rows: k_ij - (m_i + m_j) + grand, undone."""
    return dense(rows) + (rows.means[:, None] + rows.means[None, :]) - rows.grand


def test_gram_single_point():
    rows = fidelity_rows([AngleVector(np.array([0.2, 0.4]))], SPEC2)
    np.testing.assert_allclose(rows.means, [1.0], atol=1e-12)
    np.testing.assert_allclose(rows[0], [0.0], atol=1e-12)


def test_gram_matches_pairwise_kernel():
    rng = np.random.default_rng(8)
    spec = FeatureMapSpec(3, reps=2)
    points = [random_angles(rng, 3) for _ in range(3)]
    others = [random_angles(rng, 3) for _ in range(2)]
    k = uncentred(fidelity_rows(points, spec))
    cross = gram_from_states(
        feature_statevectors(np.stack([p.angles for p in others]), spec),
        feature_statevectors(np.stack([p.angles for p in points]), spec),
    )
    for i in range(3):
        for j in range(3):
            want = fidelity_kernel(points[i], points[j], spec)
            assert k[i, j] == pytest.approx(want, abs=1e-10)
    for i in range(2):
        for j in range(3):
            want = fidelity_kernel(others[i], points[j], spec)
            assert cross[i, j] == pytest.approx(want, abs=1e-10)


def test_gram_psd_after_clamp():
    rng = np.random.default_rng(9)
    points = [random_angles(rng, 2) for _ in range(8)]
    angles = np.stack([p.angles for p in points])
    states = feature_statevectors(angles, SPEC2)
    raw = np.abs(states.conj() @ states.T) ** 2
    assert np.linalg.eigvalsh((raw + raw.T) / 2).min() >= -1e-8
    assert np.linalg.eigvalsh(whole_gram(angles, SPEC2)).min() >= -1e-10
    # the centred rows are HKH of a PSD Gram
    assert np.linalg.eigvalsh(dense(FidelityRows(states))).min() >= -1e-10


@settings(max_examples=25, deadline=None)
@given(
    q=st.integers(2, 4),
    reps=st.sampled_from([1, 2]),
    entanglement=st.sampled_from(["full", "linear"]),
    convention=st.sampled_from(["pi_minus", "product"]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.booleans(),
)
def test_gram_psd_by_construction(q, reps, entanglement, convention, n, seed, duplicates):
    # k(a, b) = Tr(rho_a rho_b) makes K = Phi Phi^T: after symmetrising and
    # clipping to [0, 1], as the whole-matrix oracle does, it stays PSD
    # within rounding
    spec = FeatureMapSpec(q, reps, entanglement, convention)
    angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, q))
    if duplicates:
        angles[n // 2:] = angles[: n - n // 2]
    assert np.linalg.eigvalsh(whole_gram(angles, spec)).min() >= -1e-10


def test_in_place_centring_allocates_no_matrix():
    # the centring means cost O(n 4^q), and each row is centred in its own
    # buffer: the scratch is the rows read plus O(n) vectors, no n x n array
    n = 1500
    angles = np.random.default_rng(15).uniform(-math.pi, math.pi, size=(n, 4))
    states = feature_statevectors(angles, FeatureMapSpec(4, reps=2))
    tracemalloc.start()
    try:
        rows = FidelityRows(states)
        read = [rows[i] for i in range(0, n, 100)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(read) == 15 and rows.means.shape == (n,)
    assert peak <= 0.1 * n * n * 8, peak / (n * n * 8)


def test_gram_permutation_equivariance():
    rng = np.random.default_rng(10)
    points = [random_angles(rng, 2) for _ in range(6)]
    perm = rng.permutation(6)
    k1 = dense(fidelity_rows(points, SPEC2))
    k2 = dense(fidelity_rows([points[i] for i in perm], SPEC2))
    np.testing.assert_allclose(k2, k1[np.ix_(perm, perm)], atol=1e-12)


def test_fidelity_rows_reject_empty_and_non_finite_states():
    for bad in (np.zeros((0, 4), dtype=complex), np.ones(4, dtype=complex)):
        with pytest.raises(ValueError, match="nonempty"):
            FidelityRows(bad)
    states = feature_statevectors(np.zeros((3, 2)), SPEC2)
    states[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        FidelityRows(states)


def test_bundle_validation():
    plan = CvPlan(folds=2, c_grid=(1.0,))
    with pytest.raises(ValueError, match="kernel has 3 rows, 2 labels"):
        select_c(np.eye(3), [0, 1], plan)
    with pytest.raises(ValueError, match="kernel has 3 rows, 2 labels"):
        select_c(FidelityRows(np.eye(3, dtype=complex)), [0, 1], plan)


# -------------------------------------------------------------- centering


def test_centering_2x2_oracle():
    # two states with overlap 1/2: K = [[1, .5], [.5, 1]]
    states = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]], dtype=complex)
    states[1] /= math.sqrt(2.0)
    np.testing.assert_allclose(
        dense(FidelityRows(states)), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12
    )


def test_centered_row_sums_vanish():
    rng = np.random.default_rng(11)
    points = [random_angles(rng, 2) for _ in range(7)]
    k = dense(fidelity_rows(points, SPEC2))
    assert np.max(np.abs(k.sum(axis=1))) < 1e-9
    assert np.max(np.abs(k.mean(axis=0))) < 1e-9


def test_out_of_sample_formula_matches_hkh():
    rng = np.random.default_rng(12)
    points = [random_angles(rng, 2) for _ in range(6)]
    rows = fidelity_rows(points, SPEC2)
    raw = gram_from_states(rows.states)
    for i in range(6):
        row = center_test_row(raw[i], rows.means, rows.grand)
        np.testing.assert_allclose(row, rows[i], atol=1e-10)


def test_center_constant_row_identity_gram():
    rows = FidelityRows(np.eye(4, dtype=complex))  # K = I
    out = center_test_row(np.full(4, 0.3), rows.means, rows.grand)
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)


def test_center_single_point_collapses():
    rows = fidelity_rows([AngleVector(np.array([0.1, 0.2]))], SPEC2)
    out = center_test_row(np.array([0.9]), rows.means, rows.grand)
    assert out[0] == pytest.approx(0.0, abs=1e-12)


def test_center_row_rejects_bad_length():
    rows = FidelityRows(np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        center_test_row(np.zeros(5), rows.means, rows.grand)
