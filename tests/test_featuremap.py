import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat import featuremap
from qthreat.featuremap import (
    AngleVector,
    FeatureMapSpec,
    GramBundle,
    build_feature_map,
    build_gram,
    center_gram,
    compute_uncompute_program,
    encode_angles,
    feature_state,
    feature_statevectors,
    fidelity_kernel,
    fidelity_kernel_shots,
    gram_from_states,
    kernel_shot_estimates,
    load_centering_means,
    load_gram_bundle,
    max_asymmetry,
    save_gram_bundle,
)
from qthreat.qsim import CircuitProgram, GateOp, NoiseSpec, apply_circuit, zero_state

from oracles import center_test_row, whole_asymmetry, whole_centering, whole_gram

SPEC2 = FeatureMapSpec(num_qubits=2, reps=1)


def random_angles(rng, q):
    return AngleVector(rng.uniform(-math.pi, math.pi, size=q))


# ----------------------------------------------------------- angle encoding


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
        (None, False),
        (NoiseSpec(depol_1q=1e-3, depol_2q=1e-2), False),
        (NoiseSpec(depol_1q=1e-3, depol_2q=1e-2, readout_flip_01=0.03, readout_flip_10=0.05), True),
    ]:
        stacked = kernel_shot_estimates(a, refs, spec, 512, noise, mitigate, seeds)
        singles = [
            fidelity_kernel_shots(a, AngleVector(r), spec, 512, noise, mitigate, seed=s)
            for r, s in zip(refs, seeds)
        ]
        np.testing.assert_array_equal(stacked, singles)


def test_compute_uncompute_structure():
    a = AngleVector(np.array([0.3, 0.9]))
    b = AngleVector(np.array([-0.5, 0.1]))
    prog = compute_uncompute_program(a, b, SPEC2)
    assert len(prog.ops) == 10
    # reversing b's map negates its angles, in reverse order
    assert prog.ops[5].kind == "RZZ" and prog.ops[9].kind == "H"


def test_depolarizing_biases_kernel_low():
    # depolarizing mixes p(0^q) toward 1/2^q, so high-fidelity pairs read low
    from qthreat.qsim import apply_circuit_noisy, density_from_pure

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


def test_gram_single_point():
    bundle = build_gram([AngleVector(np.array([0.2, 0.4]))], SPEC2)
    np.testing.assert_allclose(bundle.train_gram, [[1.0]], atol=1e-12)


def test_gram_matches_pairwise_kernel():
    rng = np.random.default_rng(8)
    spec = FeatureMapSpec(3, reps=2)
    points = [random_angles(rng, 3) for _ in range(3)]
    others = [random_angles(rng, 3) for _ in range(2)]
    bundle = build_gram(points, spec)
    cross = gram_from_states(
        feature_statevectors(np.stack([p.angles for p in others]), spec),
        feature_statevectors(np.stack([p.angles for p in points]), spec),
    )
    for i in range(3):
        for j in range(3):
            want = fidelity_kernel(points[i], points[j], spec)
            assert bundle.train_gram[i, j] == pytest.approx(want, abs=1e-10)
    for i in range(2):
        for j in range(3):
            want = fidelity_kernel(others[i], points[j], spec)
            assert cross[i, j] == pytest.approx(want, abs=1e-10)


def test_gram_psd_after_clamp():
    rng = np.random.default_rng(9)
    points = [random_angles(rng, 2) for _ in range(8)]
    states = feature_statevectors(np.stack([p.angles for p in points]), SPEC2)
    raw = np.abs(states.conj() @ states.T) ** 2
    assert np.linalg.eigvalsh((raw + raw.T) / 2).min() >= -1e-8
    bundle = build_gram(points, SPEC2)
    assert np.linalg.eigvalsh(bundle.train_gram).min() >= -1e-10


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
    # clipping to [0, 1], as build_gram does, it stays PSD within rounding
    spec = FeatureMapSpec(q, reps, entanglement, convention)
    angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, q))
    if duplicates:
        angles[n // 2:] = angles[: n - n // 2]
    assert np.linalg.eigvalsh(whole_gram(angles, spec)).min() >= -1e-10


def same_bits(a, b):
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


BLOCK = 4


@settings(max_examples=40, deadline=None)
@given(
    # one point, under a block, one block, one block plus one row, and
    # sizes that are not a multiple of the block
    n=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK - 1])
    | st.integers(1, 30),
    q=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_blockwise_gram_is_bit_identical_to_whole_matrix_oracle(n, q, seed):
    spec = FeatureMapSpec(q, reps=2)
    angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(n, q))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(featuremap, "GRAM_BLOCK", BLOCK)
        bundle = build_gram([AngleVector(a) for a in angles], spec)
        before = bundle.train_gram.copy()
        centred = center_gram(bundle)
    k = whole_gram(angles, spec)
    assert same_bits(bundle.train_gram, k)
    want, means, grand = whole_centering(k)
    assert same_bits(centred.train_gram, want)
    assert same_bits(centred.centering_row_means, means)
    assert same_bits(centred.centering_grand_mean, grand)
    # centring builds a new bundle and leaves its input untouched
    assert same_bits(bundle.train_gram, before)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 11])
def test_max_asymmetry_matches_whole_matrix_oracle(monkeypatch, n):
    monkeypatch.setattr(featuremap, "GRAM_BLOCK", 4)
    k = np.random.default_rng(n).normal(size=(n, n))
    assert max_asymmetry(k) == whole_asymmetry(k)
    assert max_asymmetry((k + k.T) / 2.0) == 0.0
    if n > 1:
        k[n - 1, 0] = np.nan
        assert math.isnan(max_asymmetry(k)) and math.isnan(whole_asymmetry(k))


def test_gram_and_centring_hold_two_matrices_plus_blocks():
    # the uncentred and the centred Gram, plus O(GRAM_BLOCK * n) scratch;
    # whole-matrix temporaries put this near 5 n^2 * 8 bytes
    n = 1500
    angles = np.random.default_rng(15).uniform(-math.pi, math.pi, size=(n, 4))
    points = [AngleVector(a) for a in angles]
    spec = FeatureMapSpec(4, reps=2)
    tracemalloc.start()
    try:
        centred = center_gram(build_gram(points, spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert centred.n_train == n
    assert peak <= 2.5 * n * n * 8, peak / (n * n * 8)


def test_gram_permutation_equivariance():
    rng = np.random.default_rng(10)
    points = [random_angles(rng, 2) for _ in range(6)]
    perm = rng.permutation(6)
    k1 = build_gram(points, SPEC2).train_gram
    k2 = build_gram([points[i] for i in perm], SPEC2).train_gram
    np.testing.assert_allclose(k2, k1[np.ix_(perm, perm)], atol=1e-12)


def test_gram_rejects_empty_and_oversize():
    with pytest.raises(ValueError):
        build_gram([], SPEC2)
    pts = [AngleVector(np.zeros(2))] * 3
    with pytest.raises(ValueError):
        build_gram(pts, SPEC2, max_train=2)


def test_bundle_validation():
    with pytest.raises(ValueError):
        GramBundle(np.array([[1.0, 0.2], [0.3, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        GramBundle(np.array([[0.5, 0.0], [0.0, 1.0]]))  # bad diagonal


@pytest.mark.parametrize(
    "bad",
    [[[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
     [[1.0, np.inf], [np.inf, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]]],
    ids=["nan", "nan-diagonal", "inf", "minus-inf"],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_bundle_rejects_non_finite_gram(bad):
    for centered in (False, True):
        with pytest.raises(ValueError, match="symmetric"):
            GramBundle(
                np.array(bad), centering_row_means=np.zeros(2), centering_grand_mean=0.0,
                centered=centered,
            )


# -------------------------------------------------------------- centering


def test_centering_2x2_oracle():
    bundle = GramBundle(np.array([[1.0, 0.5], [0.5, 1.0]]))
    centered = center_gram(bundle)
    np.testing.assert_allclose(
        centered.train_gram, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12
    )


def test_centered_row_sums_vanish():
    rng = np.random.default_rng(11)
    points = [random_angles(rng, 2) for _ in range(7)]
    centered = center_gram(build_gram(points, SPEC2))
    assert np.max(np.abs(centered.train_gram.sum(axis=1))) < 1e-9
    assert np.max(np.abs(centered.train_gram.mean(axis=0))) < 1e-9


def test_out_of_sample_formula_matches_hkh():
    rng = np.random.default_rng(12)
    points = [random_angles(rng, 2) for _ in range(6)]
    bundle = build_gram(points, SPEC2)
    centered = center_gram(bundle)
    for i in range(6):
        row = center_test_row(
            bundle.train_gram[i],
            centered.centering_row_means,
            centered.centering_grand_mean,
        )
        np.testing.assert_allclose(row, centered.train_gram[i], atol=1e-10)


def test_center_constant_row_identity_gram():
    bundle = GramBundle(np.eye(4))
    centered = center_gram(bundle)
    out = center_test_row(
        np.full(4, 0.3),
        centered.centering_row_means,
        centered.centering_grand_mean,
    )
    np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)


def test_center_single_point_collapses():
    bundle = build_gram([AngleVector(np.array([0.1, 0.2]))], SPEC2)
    centered = center_gram(bundle)
    out = center_test_row(
        np.array([0.9]),
        centered.centering_row_means,
        centered.centering_grand_mean,
    )
    assert out[0] == pytest.approx(0.0, abs=1e-12)


def test_center_rejects_double_centering():
    bundle = center_gram(GramBundle(np.eye(3)))
    with pytest.raises(ValueError):
        center_gram(bundle)


def test_center_row_rejects_bad_length():
    centered = center_gram(GramBundle(np.eye(3)))
    with pytest.raises(ValueError):
        center_test_row(
            np.zeros(5), centered.centering_row_means, centered.centering_grand_mean
        )


# ------------------------------------------------------------- persistence


def test_gram_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(14)
    points = [random_angles(rng, 2) for _ in range(5)]
    bundle = center_gram(build_gram(points, SPEC2))
    save_gram_bundle(bundle, tmp_path, spec=SPEC2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gram.json", "train.f64"]
    loaded = load_gram_bundle(tmp_path)
    assert np.array_equal(loaded.train_gram, bundle.train_gram)
    assert loaded.val_block is None and loaded.test_block is None
    assert np.array_equal(loaded.centering_row_means, bundle.centering_row_means)
    assert np.array_equal(load_centering_means(tmp_path), bundle.centering_row_means)
    assert loaded.centering_grand_mean == bundle.centering_grand_mean
    assert loaded.centered
