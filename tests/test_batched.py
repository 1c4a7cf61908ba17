"""The closed-form VQC engine (qthreat.batched) pinned to the gate-level
statevector engine of tests/oracles.py, and that engine pinned to the
per-state reference (oracles.apply_circuit), to the shot engine's noiseless
distributions, and its adjoint sweep to central differences."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qthreat import batched
from qthreat.featuremap import MAX_QUBITS
from qthreat.qsim import GATE_KINDS, CircuitProgram, GateOp, NoiseSpec, outcome_probabilities
from qthreat.vqc import MAX_LAYERS, VqcModel, VqcSpec, _adjoint, decision_logits

from oracles import adjoint, apply_circuit, evolve, vqc_gate_adjoint, zero_state

TWO_QUBIT = ("RZZ", "CX", "CZ")
PARAMETRIC = ("RY", "RZ", "RZZ")
ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


@st.composite
def programs(draw, max_gates=24):
    """A random program on 1-6 qubits over every gate kind, each parametric
    gate with a float angle or an (m,) angle array, m in 1-5."""
    q = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    kinds = [k for k in GATE_KINDS if q > 1 or k not in TWO_QUBIT]
    ops = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        n = 2 if kind in TWO_QUBIT else 1
        targets = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n, unique=True))
        angle = None
        if kind in PARAMETRIC:
            angle = draw(st.one_of(ANGLES, st.lists(ANGLES, min_size=m, max_size=m)))
        ops.append(GateOp(kind, targets, angle))
    return CircuitProgram(q, ops)


def row_program(program, i):
    """The program of row i: each (m,) angle array replaced by its i-th angle."""
    return CircuitProgram(program.num_qubits, [
        GateOp(op.kind, op.targets, op.angle[i]) if isinstance(op.angle, np.ndarray) else op
        for op in program.ops
    ])


@settings(max_examples=80, deadline=None)
@given(program=programs())
def test_evolve_matches_per_state_reference(program):
    q, m = program.num_qubits, program.m
    psi = evolve(program)
    assert psi.shape == (m, 1 << q)
    probs = outcome_probabilities(program, NoiseSpec())
    np.testing.assert_allclose(np.abs(psi) ** 2, probs, rtol=0, atol=1e-12)
    for i in range(m):
        one = row_program(program, i)
        np.testing.assert_allclose(psi[i], apply_circuit(zero_state(q), one).amplitudes,
                                   rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(program=programs(max_gates=16), seed=st.integers(0, 2**32 - 1))
def test_adjoint_matches_central_differences(program, seed):
    # objective sum_i u_i <psi_i|O|psi_i> with a random Hermitian O
    rng = np.random.default_rng(seed)
    q, m = program.num_qubits, program.m
    a = rng.normal(size=(1 << q, 1 << q)) + 1j * rng.normal(size=(1 << q, 1 << q))
    obs = (a + a.conj().T) / 2
    up = rng.normal(size=m)

    def values(prog):
        psi = evolve(prog)
        return up * np.einsum("ma,ab,mb->m", psi.conj(), obs, psi).real

    psi = evolve(program)
    grads = adjoint(program, psi, up[:, None] * (psi @ obs.T))
    gates = [k for k, op in enumerate(program.ops) if op.angle is not None]
    assert grads.shape == (len(gates), m)
    h = 1e-5
    for j, k in enumerate(gates):
        op = program.ops[k]

        def shifted(step):
            ops = list(program.ops)
            ops[k] = GateOp(op.kind, op.targets, op.angle + step)
            return values(CircuitProgram(q, ops))

        fd = (shifted(h) - shifted(-h)) / (2 * h)
        np.testing.assert_allclose(grads[j], fd, rtol=0, atol=1e-6 * (1 + np.abs(obs).max()))


def test_repeated_diagonal_runs_match_fresh_ones():
    # a program that repeats its GateOp objects reuses their diagonal; the
    # states equal those of the same gates built afresh
    rng = np.random.default_rng(3)
    rep = [GateOp("H", (0,)), GateOp("H", (1,)), GateOp("RZ", (0,), rng.normal(size=4)),
           GateOp("RZZ", (0, 1), rng.normal(size=4)), GateOp("CZ", (0, 1))]
    fresh = [GateOp(op.kind, op.targets, op.angle) for op in rep]
    np.testing.assert_array_equal(evolve(CircuitProgram(2, rep * 2)),
                                  evolve(CircuitProgram(2, rep + fresh)))


@settings(max_examples=80, deadline=None)
@given(
    q=st.integers(2, MAX_QUBITS),
    layers=st.integers(1, MAX_LAYERS),
    conv=st.sampled_from(["pi_minus", "product"]),
    m=st.sampled_from([1, 2, 17]),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_vqc_matches_the_gate_level_oracle(q, layers, conv, m, seed):
    # states and logits to 1e-12, theta and data-angle gradients to 1e-10
    rng = np.random.default_rng(seed)
    spec = VqcSpec(q, layers, conv)
    model = VqcModel(spec, rng.uniform(-math.pi, math.pi, spec.num_params),
                     rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
    rows = rng.uniform(-math.pi, math.pi, (m, q))
    psi, zhat, backward = vqc_gate_adjoint(rows, model)
    states = batched.evolve(batched.circuit(rows, model.theta_blocks(), spec.feature_spec()))
    np.testing.assert_allclose(states, psi, rtol=0, atol=1e-12)
    np.testing.assert_allclose(decision_logits(rows, model), model.scale * zhat + model.bias,
                               rtol=0, atol=1e-12)
    up = rng.normal(size=m)
    got, want = _adjoint(rows, model)[1](up), backward(up)
    np.testing.assert_allclose(got["theta"], want["theta"], rtol=0, atol=1e-10)
    np.testing.assert_allclose(got["angles"], want["angles"], rtol=0, atol=1e-10)
