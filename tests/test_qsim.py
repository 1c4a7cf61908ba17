import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat.featuremap import AngleVector, FeatureMapSpec, compute_uncompute_program
from qthreat.qsim import (
    CircuitProgram,
    GateOp,
    NoiseSpec,
    confusion_matrix_1q,
    evolve_density,
    fold_readout,
    gate_matrix,
    mitigate,
    outcome_probabilities,
    shot_estimates,
    z_signs,
)
from qthreat.vqc import VqcModel, VqcSpec, build_vqc_circuit

from oracles import (
    DensityState,
    PureState,
    apply_circuit,
    apply_circuit_noisy,
    apply_readout_error,
    circuit_depth,
    density_from_pure,
    evolve,
    expectation_pauli_z,
    expectation_pauli_z_density,
    gate_counts,
    noisy_density,
    required_shots,
    zero_state,
)

SQ2 = 1.0 / math.sqrt(2.0)


def bell_state():
    prog = CircuitProgram(2, [GateOp("H", (0,)), GateOp("CX", (0, 1))])
    return apply_circuit(zero_state(2), prog)


def sampled(probs, shots, seed, noise=NoiseSpec(), mitigated=False):
    """Frequencies of every outcome of one distribution, from the one sampler."""
    p = np.asarray(probs, dtype=float)
    return shot_estimates(p[None], np.eye(p.size), shots, [seed], noise, mitigated)[0]


# ---------------------------------------------------------------- circuits


def test_hadamard_on_zero():
    out = apply_circuit(zero_state(1), CircuitProgram(1, [GateOp("H", (0,))]))
    np.testing.assert_allclose(out.amplitudes, [SQ2, SQ2], atol=1e-12)


def test_bell_preparation():
    out = bell_state()
    np.testing.assert_allclose(out.amplitudes, [SQ2, 0, 0, SQ2], atol=1e-12)


def test_empty_program_is_identity():
    prog = CircuitProgram(3, [GateOp("H", (0,)), GateOp("RY", (2,), 0.7)])
    state = apply_circuit(zero_state(3), prog)
    again = apply_circuit(state, CircuitProgram(3, []))
    np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=0)


def test_cx_permutes_basis_states():
    # control = qubit 2, target = qubit 0, on computational basis states
    prog = CircuitProgram(3, [GateOp("CX", (2, 0))])
    expected = {0: 0, 1: 1, 2: 2, 3: 3, 4: 5, 5: 4, 6: 7, 7: 6}
    for src, dst in expected.items():
        amps = np.zeros(8, dtype=complex)
        amps[src] = 1.0
        out = apply_circuit(PureState(3, amps), prog)
        assert abs(out.amplitudes[dst] - 1.0) < 1e-12


def test_cz_phases_only_11():
    prog = CircuitProgram(2, [GateOp("CZ", (0, 1))])
    for src, phase in [(0, 1), (1, 1), (2, 1), (3, -1)]:
        amps = np.zeros(4, dtype=complex)
        amps[src] = 1.0
        out = apply_circuit(PureState(2, amps), prog)
        assert abs(out.amplitudes[src] - phase) < 1e-12


def test_rzz_parity_phases():
    theta = 0.83
    prog = CircuitProgram(2, [GateOp("RZZ", (0, 1), theta)])
    lo, hi = np.exp(-0.5j * theta), np.exp(0.5j * theta)
    for src, phase in [(0, lo), (1, hi), (2, hi), (3, lo)]:
        amps = np.zeros(4, dtype=complex)
        amps[src] = 1.0
        out = apply_circuit(PureState(2, amps), prog)
        assert abs(out.amplitudes[src] - phase) < 1e-12


def test_rz_diagonal_convention():
    theta = 1.1
    out = apply_circuit(zero_state(1), CircuitProgram(1, [GateOp("RZ", (0,), theta)]))
    assert abs(out.amplitudes[0] - np.exp(-0.5j * theta)) < 1e-12


def test_ry_rotation():
    theta = 0.6
    out = apply_circuit(zero_state(1), CircuitProgram(1, [GateOp("RY", (0,), theta)]))
    np.testing.assert_allclose(
        out.amplitudes, [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-12
    )


def test_unitarity_all_kinds():
    rng = np.random.default_rng(7)
    for kind in ("H", "X", "Z", "CX", "CZ"):
        targets = (0, 1) if kind in ("CX", "CZ") else (0,)
        u = gate_matrix(GateOp(kind, targets))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-12)
    for kind in ("RY", "RZ", "RZZ"):
        targets = (0, 1) if kind == "RZZ" else (0,)
        for _ in range(20):
            u = gate_matrix(GateOp(kind, targets, float(rng.uniform(-7, 7))))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-12)


def random_program(rng, q, depth):
    ops = []
    for _ in range(depth):
        kind = rng.choice(["H", "X", "Z", "RY", "RZ", "RZZ", "CX", "CZ"])
        if kind in ("RZZ", "CX", "CZ"):
            a, b = rng.choice(q, size=2, replace=False)
            targets = (int(a), int(b))
        else:
            targets = (int(rng.integers(q)),)
        angle = float(rng.uniform(-math.pi, math.pi)) if kind in ("RY", "RZ", "RZZ") else None
        ops.append(GateOp(kind, targets, angle))
    return CircuitProgram(q, ops)


def test_norm_preserved_random_circuits():
    rng = np.random.default_rng(11)
    for q in (2, 4, 6):
        prog = random_program(rng, q, 100)
        out = apply_circuit(zero_state(q), prog)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-10


def test_gate_validation_errors():
    with pytest.raises(ValueError):
        GateOp("SWAP", (0, 1))
    with pytest.raises(ValueError):
        GateOp("RY", (0,))  # missing angle
    with pytest.raises(ValueError):
        GateOp("H", (0,), 0.5)  # unexpected angle
    with pytest.raises(ValueError):
        GateOp("CX", (1, 1))
    with pytest.raises(ValueError):
        CircuitProgram(2, [GateOp("H", (5,))])
    with pytest.raises(ValueError):
        apply_circuit(zero_state(2), CircuitProgram(3, []))


def test_program_checks_its_stack_size():
    assert CircuitProgram(2, [GateOp("H", (0,)), GateOp("RY", (1,), 0.3)]).m == 1
    prog = CircuitProgram(2, [GateOp("RY", (0,), [0.1, 0.2, 0.3]), GateOp("RZ", (1,), 0.4)])
    assert prog.m == 3
    with pytest.raises(ValueError, match=r"RZ on \(1,\) has 5 angles where earlier gates have 3"):
        CircuitProgram(2, [GateOp("RY", (0,), [0.1, 0.2, 0.3]), GateOp("RZ", (1,), np.zeros(5))])
    with pytest.raises(ValueError, match=r"RZZ on \(0, 1\) has an empty angle stack"):
        CircuitProgram(2, [GateOp("H", (0,)), GateOp("RZZ", (0, 1), [])])
    # both engines take the stack size from the program
    start = density_from_pure(zero_state(2)).matrix[None]
    assert evolve_density(start, prog, NoiseSpec()).shape == (3, 4, 4)
    assert evolve(prog).shape == (3, 4)


# ------------------------------------------------------------ expectations


def test_z_on_basis_state():
    assert expectation_pauli_z(zero_state(1), [0]) == pytest.approx(1.0)


def test_zz_on_bell():
    assert expectation_pauli_z(bell_state(), [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_single_z_on_bell_is_zero():
    assert expectation_pauli_z(bell_state(), [0]) == pytest.approx(0.0, abs=1e-12)


def test_z_after_ry_half_pi():
    out = apply_circuit(
        zero_state(1), CircuitProgram(1, [GateOp("RY", (0,), math.pi / 2)])
    )
    assert abs(expectation_pauli_z(out, [0])) < 1e-12


def test_expectation_rejects_empty_or_invalid():
    with pytest.raises(ValueError):
        expectation_pauli_z(zero_state(2), [])
    with pytest.raises(ValueError):
        expectation_pauli_z(zero_state(2), [2])


# ----------------------------------------------------------------- shots


def test_deterministic_state_sampling():
    freq = sampled(zero_state(1).probabilities(), 100, seed=0)
    np.testing.assert_array_equal(freq * 100, [100, 0])


def test_sampling_concentration():
    plus = apply_circuit(zero_state(1), CircuitProgram(1, [GateOp("H", (0,))]))
    shots = 10000
    bound = 5.0 / math.sqrt(shots)
    bad = 0
    for seed in range(50):
        if abs(sampled(plus.probabilities(), shots, seed)[0] - 0.5) > bound:
            bad += 1
    assert bad == 0


def test_bell_sampling_support():
    freq = sampled(bell_state().probabilities(), 5000, seed=3)
    assert set(np.flatnonzero(freq)) <= {0, 3}


def test_sampling_is_seed_deterministic():
    state = apply_circuit(
        zero_state(3), CircuitProgram(3, [GateOp("H", (0,)), GateOp("RY", (2,), 1.0)])
    )
    a = sampled(state.probabilities(), 512, seed=42)
    b = sampled(state.probabilities(), 512, seed=42)
    np.testing.assert_array_equal(a, b)


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sampled(zero_state(1).probabilities(), 0, seed=0)


def test_shot_result_validation():
    probs = np.stack([zero_state(1).probabilities()] * 2)
    with pytest.raises(ValueError, match="seeds"):
        shot_estimates(probs, z_signs(1), 10, [0])
    np.testing.assert_array_equal(shot_estimates(probs, z_signs(1), 10, [0, 1]), [1.0, 1.0])


def test_required_shots_values():
    assert required_shots(0.01, 0.05) == 18445
    assert required_shots(0.1, 0.05) == 185
    assert required_shots(0.5, 1 - 1e-9) >= 1
    with pytest.raises(ValueError):
        required_shots(0.0, 0.05)
    with pytest.raises(ValueError):
        required_shots(0.1, 1.5)


def test_born_consistency_hoeffding():
    # required_shots is the range-1 Hoeffding budget, i.e. it bounds the
    # even-parity probability estimate; the +-1 mean is 2p - 1, so its
    # deviation is bounded by 2*eps at the same confidence.
    state = apply_circuit(
        zero_state(2),
        CircuitProgram(2, [GateOp("RY", (0,), 0.9), GateOp("RY", (1,), 2.2)]),
    )
    exact = expectation_pauli_z(state, [0, 1])
    p_even = (1.0 + exact) / 2.0
    shots = 100000
    delta = 0.05
    eps = math.sqrt(math.log(2.0 / delta) / (2.0 * shots))
    assert required_shots(eps, delta) <= shots
    hits_p = 0
    hits_mean = 0
    trials = 40
    for seed in range(trials):
        est = shot_estimates(state.probabilities()[None], z_signs(2), shots, [seed])[0]
        if abs((1.0 + est) / 2.0 - p_even) <= eps:
            hits_p += 1
        if abs(est - exact) <= 2 * eps:
            hits_mean += 1
    assert hits_p >= math.ceil(0.95 * trials)
    assert hits_mean >= math.ceil(0.95 * trials)


# ----------------------------------------------------------------- noise


def test_zero_noise_matches_pure_evolution():
    rng = np.random.default_rng(5)
    prog = random_program(rng, 3, 30)
    pure = apply_circuit(zero_state(3), prog)
    noisy = apply_circuit_noisy(
        density_from_pure(zero_state(3)), prog, NoiseSpec()
    )
    np.testing.assert_allclose(
        noisy.matrix,
        np.outer(pure.amplitudes, pure.amplitudes.conj()),
        atol=1e-10,
    )


def test_full_depolarizing_gives_maximally_mixed():
    out = apply_circuit_noisy(
        density_from_pure(zero_state(1)),
        CircuitProgram(1, [GateOp("X", (0,))]),
        NoiseSpec(depol_1q=0.75),
    )
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_contracts_z():
    p = 1e-3
    prog = CircuitProgram(1, [GateOp("RY", (0,), 0.3)])
    noisy = apply_circuit_noisy(density_from_pure(zero_state(1)), prog, NoiseSpec(depol_1q=p))
    clean = math.cos(0.3)
    got = expectation_pauli_z_density(noisy, [0])
    # single-qubit depolarizing shrinks Bloch vector by (1 - 4p/3)
    assert got == pytest.approx((1 - 4 * p / 3) * clean, abs=1e-12)
    assert abs(got) < abs(clean)


def test_two_qubit_noise_hits_both_targets():
    p = 0.02
    prog = CircuitProgram(2, [GateOp("CZ", (0, 1))])
    start = density_from_pure(
        apply_circuit(
            zero_state(2),
            CircuitProgram(2, [GateOp("RY", (0,), 0.4), GateOp("RY", (1,), 1.1)]),
        )
    )
    out = apply_circuit_noisy(start, prog, NoiseSpec(depol_2q=p))
    shrink = 1 - 4 * p / 3
    for qubit, angle in [(0, 0.4), (1, 1.1)]:
        assert expectation_pauli_z_density(out, [qubit]) == pytest.approx(
            shrink * math.cos(angle), abs=1e-12
        )


def test_channel_output_is_valid_density():
    rng = np.random.default_rng(9)
    prog = random_program(rng, 2, 15)
    for p in (0.0, 0.1, 0.5, 1.0):
        out = apply_circuit_noisy(
            density_from_pure(zero_state(2)), prog, NoiseSpec(depol_1q=p, depol_2q=p)
        )
        rho = out.matrix
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


def test_density_sampling_seeded():
    probs = outcome_probabilities(
        CircuitProgram(2, [GateOp("H", (0,)), GateOp("CX", (0, 1))]),
        NoiseSpec(depol_1q=0.05, depol_2q=0.05),
    )
    a = sampled(probs[0], 2048, seed=1)
    b = sampled(probs[0], 2048, seed=1)
    np.testing.assert_array_equal(a, b)
    assert (a * 2048).sum() == 2048


def random_angle_rows(data, q, m):
    return np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(-math.pi, math.pi), min_size=q, max_size=q),
                min_size=m,
                max_size=m,
            )
        )
    )


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    q=st.integers(2, 4),
    reps=st.integers(1, 2),
    entanglement=st.sampled_from(["full", "linear"]),
    convention=st.sampled_from(["pi_minus", "product"]),
    depol_1q=st.floats(0.0, 0.1),
    depol_2q=st.floats(0.0, 0.1),
    circuit=st.sampled_from(["compute_uncompute", "vqc"]),
    m=st.integers(1, 3),
)
def test_stacked_evolution_matches_pauli_oracle(
    data, q, reps, entanglement, convention, depol_1q, depol_2q, circuit, m
):
    noise = NoiseSpec(depol_1q=depol_1q, depol_2q=depol_2q)
    rows_a = random_angle_rows(data, q, m)
    if circuit == "compute_uncompute":
        spec = FeatureMapSpec(q, reps, entanglement, convention)
        rows_b = random_angle_rows(data, q, m)

        def program(i):
            if i is None:
                return compute_uncompute_program(rows_a, rows_b, spec)
            return compute_uncompute_program(AngleVector(rows_a[i]), AngleVector(rows_b[i]), spec)

    else:
        vspec = VqcSpec(q, reps, convention)
        theta = np.random.default_rng(q * 10 + reps).uniform(-math.pi, math.pi, vspec.num_params)
        model = VqcModel(vspec, theta)

        def program(i):
            if i is None:
                return build_vqc_circuit(rows_a, model)
            return build_vqc_circuit(AngleVector(rows_a[i]), model)

    start = density_from_pure(zero_state(q)).matrix
    stacked = evolve_density(start[None], program(None), noise)
    assert stacked.shape == (m, 1 << q, 1 << q)
    for i in range(m):
        one_row = evolve_density(start[None], program(i), noise)
        np.testing.assert_array_equal(stacked[i], one_row[0])
        oracle = noisy_density(start, program(i), noise)
        assert np.max(np.abs(stacked[i] - oracle)) <= 1e-12


def test_apply_circuit_noisy_is_the_one_row_evolution():
    rng = np.random.default_rng(10)
    prog = random_program(rng, 3, 40)
    noise = NoiseSpec(depol_1q=0.03, depol_2q=0.07)
    start = density_from_pure(zero_state(3))
    out = apply_circuit_noisy(start, prog, noise)
    np.testing.assert_array_equal(out.matrix, evolve_density(start.matrix[None], prog, noise)[0])
    assert np.max(np.abs(out.matrix - noisy_density(start.matrix, prog, noise))) <= 1e-12


# ----------------------------------------------------------- partial trace


def partial_trace(state, keep):
    """Reduced state over `keep`. Kept qubits preserve their relative order:
    the highest kept index stays the most-significant bit."""
    keep = sorted(set(int(t) for t in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    q = state.num_qubits
    if keep[0] < 0 or keep[-1] >= q:
        raise ValueError(f"keep set {keep} out of range")
    arr = state.matrix.reshape([2] * (2 * q))
    # axis i is row bit of qubit q-1-i; axis q+i the matching column bit
    letters = "abcdefghijklmnop"
    row = list(letters[:q])
    col = list(letters[q : 2 * q])
    for t in range(q):
        if t not in keep:
            col[q - 1 - t] = row[q - 1 - t]
    out_axes = [row[q - 1 - t] for t in reversed(keep)] + [
        col[q - 1 - t] for t in reversed(keep)
    ]
    sub = "".join(row) + "".join(col) + "->" + "".join(out_axes)
    k = len(keep)
    reduced = np.einsum(sub, arr).reshape(1 << k, 1 << k)
    return DensityState(k, reduced)


def test_bell_reduced_state_is_mixed():
    reduced = partial_trace(density_from_pure(bell_state()), [0])
    np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_product_state_reduction():
    # |q1 q0> = |0>|1>, basis index 1
    amps = np.zeros(4, dtype=complex)
    amps[1] = 1.0
    rho = density_from_pure(PureState(2, amps))
    np.testing.assert_allclose(
        partial_trace(rho, [1]).matrix, [[1, 0], [0, 0]], atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(rho, [0]).matrix, [[0, 0], [0, 1]], atol=1e-12
    )


def test_keep_all_is_identity():
    rho = density_from_pure(bell_state())
    np.testing.assert_allclose(partial_trace(rho, [0, 1]).matrix, rho.matrix, atol=0)


def test_partial_trace_rejects_empty():
    with pytest.raises(ValueError):
        partial_trace(density_from_pure(bell_state()), [])


# ------------------------------------------------------------ separability


def is_separable_two_qubit(state):
    """Product-state test on 2 qubits via |a00*a11 - a01*a10|."""
    if state.num_qubits != 2:
        raise ValueError("separability test defined for exactly 2 qubits")
    a = state.amplitudes
    det = abs(a[0] * a[3] - a[1] * a[2])
    return det <= 1e-10, float(det)


def test_separability_cases():
    sep, det = is_separable_two_qubit(zero_state(2))
    assert sep and det == pytest.approx(0.0)
    sep, det = is_separable_two_qubit(bell_state())
    assert not sep and det == pytest.approx(0.5, abs=1e-12)
    hh = apply_circuit(
        zero_state(2), CircuitProgram(2, [GateOp("H", (0,)), GateOp("H", (1,))])
    )
    sep, _ = is_separable_two_qubit(hh)
    assert sep
    with pytest.raises(ValueError):
        is_separable_two_qubit(zero_state(3))


# ---------------------------------------------------------------- readout


def test_zero_flip_readout_is_identity():
    probs = bell_state().probabilities()
    np.testing.assert_array_equal(fold_readout(probs, NoiseSpec()), probs)
    counts = np.rint(sampled(probs, 1000, seed=2) * 1000).astype(int)
    np.testing.assert_array_equal(apply_readout_error(counts, NoiseSpec(), seed=0), counts)


def test_fold_readout_is_tensor_confusion():
    p01, p10 = np.array([0.02, 0.1, 0.05]), np.array([0.07, 0.01, 0.2])
    noise = NoiseSpec(readout_flip_01=p01, readout_flip_10=p10)
    probs = np.random.default_rng(3).dirichlet(np.ones(8))
    # qubit 2 is the high bit of the basis index, so its factor comes first
    full = np.kron(
        confusion_matrix_1q(p01[2], p10[2]),
        np.kron(confusion_matrix_1q(p01[1], p10[1]), confusion_matrix_1q(p01[0], p10[0])),
    )
    np.testing.assert_allclose(fold_readout(probs, noise), full @ probs, atol=1e-15)
    np.testing.assert_allclose(fold_readout(full @ probs, noise, invert=True), probs, atol=1e-14)


def test_folded_readout_matches_per_shot_flips_in_law():
    # Sampling the folded distribution and flipping each sampled shot's bits
    # are the same law: a multinomial of `shots` over C p. Fixed seeds.
    probs = np.array([0.5, 0.1, 0.15, 0.25])
    noise = NoiseSpec(readout_flip_01=[0.08, 0.03], readout_flip_10=[0.12, 0.2])
    shots, trials = 2000, 300
    folded = np.array([sampled(probs, shots, seed, noise) * shots for seed in range(trials)])
    rng = np.random.default_rng(77)
    flipped = np.array([
        apply_readout_error(rng.multinomial(shots, probs), noise, seed=1000 + t)
        for t in range(trials)
    ])
    law = fold_readout(probs, noise)
    for counts in (folded, flipped):
        assert np.all(counts.sum(axis=1) == shots)
        se = np.sqrt(shots * law * (1 - law) / trials)
        assert np.all(np.abs(counts.mean(axis=0) - shots * law) <= 5 * se)
        var_ratio = counts.var(axis=0) / (shots * law * (1 - law))
        assert np.all(np.abs(var_ratio - 1.0) <= 0.3)
    # two-sample chi-square homogeneity test on the pooled counts, df = 3
    table = np.stack([folded.sum(axis=0), flipped.sum(axis=0)])
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    assert float(((table - expected) ** 2 / expected).sum()) < 16.27  # p = 0.001


def test_readout_flip_rate():
    shots = 100000
    freq = sampled([1.0, 0.0], shots, 12, NoiseSpec(readout_flip_01=0.1, readout_flip_10=0.0))
    assert freq.sum() == pytest.approx(1.0, abs=1e-12)
    assert abs(freq[1] - 0.1) <= 3.0 / math.sqrt(shots)


def test_fully_random_readout():
    shots = 200000
    freq = sampled([1.0, 0.0], shots, 9, NoiseSpec(readout_flip_01=0.5, readout_flip_10=0.5))
    assert abs(freq[0] - 0.5) <= 3.0 / math.sqrt(shots)


def test_mitigation_identity_without_error():
    probs = bell_state().probabilities()
    raw = sampled(probs, 4096, seed=4)
    quasi = sampled(probs, 4096, seed=4, noise=NoiseSpec(), mitigated=True)
    np.testing.assert_allclose(quasi, raw, atol=1e-12)


def test_mitigation_inverts_exact_corruption():
    # analytically corrupted two-qubit distribution at "infinite shots"
    p01, p10 = 0.2, 0.1
    a1 = np.array([[1 - p01, p10], [p01, 1 - p10]])
    true = np.array([0.4, 0.3, 0.2, 0.1])
    corrupted = np.kron(a1, a1) @ true  # index bit1=qubit1, bit0=qubit0
    shots = 10000
    raw = np.rint(corrupted * shots).astype(int)
    assert raw.sum() == shots  # exact decimal products by construction
    quasi = mitigate(raw / shots, NoiseSpec(readout_flip_01=p01, readout_flip_10=p10))
    np.testing.assert_allclose(quasi, true, atol=1e-12)


def test_mitigation_reduces_error_on_average():
    state = apply_circuit(
        zero_state(2),
        CircuitProgram(2, [GateOp("RY", (0,), 0.7), GateOp("RY", (1,), 1.9)]),
    )
    truth = state.probabilities()[0]
    noise = NoiseSpec(readout_flip_01=0.03, readout_flip_10=0.02)
    raw_err = 0.0
    fix_err = 0.0
    trials = 120
    for seed in range(trials):
        raw_err += abs(sampled(state.probabilities(), 4096, seed, noise)[0] - truth)
        fix_err += abs(sampled(state.probabilities(), 4096, seed, noise, True)[0] - truth)
    assert fix_err / trials < raw_err / trials


def test_mitigation_rejects_singular_confusion():
    noise = NoiseSpec(readout_flip_01=0.4, readout_flip_10=0.6)
    with pytest.raises(ValueError, match="singular"):
        mitigate(np.array([1.0, 0.0]), noise)
    with pytest.raises(ValueError, match="singular"):
        sampled([1.0, 0.0], 10, 0, noise, mitigated=True)
    per_qubit = NoiseSpec(readout_flip_01=[0.1, 0.5, 0.5], readout_flip_10=[0.2, 0.5, 0.5])
    with pytest.raises(ValueError, match="qubit 1 confusion matrix singular"):
        per_qubit.check_invertible()
    with pytest.raises(ValueError, match="qubit 1 confusion matrix singular"):
        fold_readout(np.full(8, 0.125), per_qubit, invert=True)
    NoiseSpec(readout_flip_01=0.5, readout_flip_10=0.4).check_invertible()
    # the forward fold is fine: a singular confusion is legal readout noise
    assert fold_readout(np.full(8, 0.125), per_qubit).sum() == pytest.approx(1.0)


def test_mitigated_output_is_distribution():
    noise = NoiseSpec(readout_flip_01=0.08, readout_flip_10=0.05)
    quasi = sampled(bell_state().probabilities(), 64, 8, noise, mitigated=True)
    assert np.all(quasi >= 0) and np.all(quasi <= 1)
    assert quasi.sum() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ introspection


def test_depth_and_counts():
    prog = CircuitProgram(
        3,
        [
            GateOp("H", (0,)),
            GateOp("H", (1,)),
            GateOp("CX", (0, 1)),
            GateOp("RY", (2,), 0.1),
            GateOp("RZZ", (1, 2), 0.2),
        ],
    )
    assert circuit_depth(prog) == 3  # H layer, CX, RZZ (RY fits layer 1)
    assert gate_counts(prog) == {"H": 2, "CX": 1, "RY": 1, "RZZ": 1}
    assert circuit_depth(CircuitProgram(2, [])) == 0
