"""Angle encoding, ZZ feature maps, and shot estimates of the fidelity kernel.

The feature map repeats [H on all qubits; RZ(2 theta_i); RZZ(2 phi_ij) on
entangled pairs] `reps` times. The pair phase phi_ij follows a configurable
convention because published variants differ:

  pi_minus  phi_ij = (pi - theta_i)(pi - theta_j)   (default)
  product   phi_ij = theta_i * theta_j

The convention tag travels with every persisted artifact. The circuit is
built once, by `build_feature_map`, for the shot engine. Exact statevectors
are its closed form, (D(x) H^(x)q)^reps |0...0> (Havlicek et al., Nature
567:209, 2019), with D(x) the diagonal of one repetition's RZ/RZZ gates
computed from the pair phases and the phase-sign table (`_data_diagonal`);
no GateOp is built for them, and the tests run the same circuit gate by
gate as their oracle.
Shot-mode kernels come from compute-uncompute circuits U(b)^dagger U(a):
a stack of pairs runs through the shot engine (qsim.evolve_density, then
qsim.shot_estimates with readout error folded in), and k(a, b) is the
sampled frequency of |0...0>.
No Gram is built here: the QSVM reads its centred train kernel row by row
from the train statevectors (qsvm.FidelityRows), and scores other rows
through one observable (qsvm.observable_scorer). The one-pair kernels the
tests check these against, exact and shot, are in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .qsim import (_PHASE_SIGNS, CircuitProgram, GateOp, NoiseSpec, _target_value,
                   outcome_probabilities, shot_estimates)

CONVENTIONS = ("pi_minus", "product")
ENTANGLEMENTS = ("full", "linear")
MAX_QUBITS = 6


@dataclass(frozen=True)
class FeatureMapSpec:
    num_qubits: int
    reps: int = 2
    entanglement: str = "full"
    second_order_coeff: str = "pi_minus"

    def __post_init__(self):
        if not 2 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"num_qubits must be in [2, {MAX_QUBITS}]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.entanglement not in ENTANGLEMENTS:
            raise ValueError(f"entanglement must be one of {ENTANGLEMENTS}")
        if self.second_order_coeff not in CONVENTIONS:
            raise ValueError(f"second_order_coeff must be one of {CONVENTIONS}")

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        """The entangled pairs (i, j), i < j: every pair, or neighbours."""
        q = self.num_qubits
        if self.entanglement == "full":
            return [(i, j) for i in range(q) for j in range(i + 1, q)]
        return [(i, i + 1) for i in range(q - 1)]

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AngleVector:
    angles: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.angles, dtype=float).reshape(-1).copy()
        if np.any(np.abs(arr) > np.pi + 1e-12):
            raise ValueError("angles must lie in [-pi, pi]")
        arr.setflags(write=False)
        object.__setattr__(self, "angles", arr)

    def __len__(self):
        return self.angles.size


def pair_phases(theta: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """phi_ij for each entangled pair; theta may be (q,) or (m, q)."""
    t = np.asarray(theta, dtype=float)
    squeeze = t.ndim == 1
    t = np.atleast_2d(t)
    if spec.second_order_coeff == "pi_minus":
        base = np.pi - t
    else:
        base = t
    cols = [base[:, i] * base[:, j] for i, j in spec.pairs]
    out = np.stack(cols, axis=1) if cols else np.zeros((t.shape[0], 0))
    return out[0] if squeeze else out


def build_feature_map(theta, spec: FeatureMapSpec) -> CircuitProgram:
    """The feature-map circuit of one AngleVector (float angles), or of a
    stack of m angle rows (m, q), whose parametric gates then carry (m,)
    angle arrays. Every rep is the same GateOp objects."""
    t = theta.angles if isinstance(theta, AngleVector) else np.asarray(theta, dtype=float)
    if t.shape[-1] != spec.num_qubits:
        raise ValueError(
            f"angle vector length {t.shape[-1]} != num_qubits {spec.num_qubits}"
        )
    phis = pair_phases(t, spec)
    rep = [GateOp("H", (q,)) for q in range(spec.num_qubits)]
    rep += [GateOp("RZ", (q,), 2.0 * t[..., q]) for q in range(spec.num_qubits)]
    rep += [GateOp("RZZ", (i, j), 2.0 * phis[..., p]) for p, (i, j) in enumerate(spec.pairs)]
    return CircuitProgram(spec.num_qubits, rep * spec.reps)


@lru_cache(maxsize=None)
def _hadamard(num_qubits: int) -> np.ndarray:
    """H^(x)q as one read-only (2^q, 2^q) matrix: the Sylvester-Hadamard
    matrix, entries (-1)^popcount(a & b), times 2^(-q/2)."""
    h = np.ones((1, 1))
    for _ in range(num_qubits):
        h = np.block([[h, h], [h, -h]])
    h *= 2.0 ** (-0.5 * num_qubits)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=None)
def _phase_signs(spec: FeatureMapSpec) -> np.ndarray:
    """(q + #pairs, 2^q), read-only: per basis index, the phase sign
    (qsim._PHASE_SIGNS) of each of one repetition's diagonal gates, RZ on
    every qubit, then RZZ on every entangled pair."""
    q = spec.num_qubits
    gates = [("RZ", (t,)) for t in range(q)] + [("RZZ", pair) for pair in spec.pairs]
    signs = np.stack([_PHASE_SIGNS[kind][_target_value(targets, q)] for kind, targets in gates])
    signs.setflags(write=False)
    return signs


def _data_diagonal(t: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """D(x), the (m, 2^q) diagonal of one repetition's RZ(2 theta) and
    RZZ(2 phi) gates for angle rows t (m, q): one exp of the summed phases."""
    if t.shape[-1] != spec.num_qubits:
        raise ValueError(f"angle vector length {t.shape[-1]} != num_qubits {spec.num_qubits}")
    gate_angles = np.concatenate([2.0 * t, 2.0 * pair_phases(t, spec)], axis=1)
    dim = 1 << spec.num_qubits
    # "zeros +" and "ones *" keep the gate-level run's bits, signed zeros too
    return np.ones(dim) * np.exp(-1j * (np.zeros(dim) + 0.5 * (gate_angles @ _phase_signs(spec))))


def feature_statevectors(angles: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """Statevectors for a stack of angle rows, shape (m, q) -> (m, 2^q).

    The map is (D(x) H^(x)q)^reps |0...0>, with D(x) the diagonal of one
    repetition's RZ/RZZ gates (`_data_diagonal`). H^(x)q|0...0> is the
    uniform vector, so the first repetition is D 2^(-q/2) and each further
    one is one product with the Hadamard matrix and one multiply by D; no
    gate is built or applied.
    """
    t = np.atleast_2d(np.asarray(angles, dtype=float))
    d = _data_diagonal(t, spec)
    psi = d * 2.0 ** (-0.5 * spec.num_qubits)
    for _ in range(spec.reps - 1):
        psi = (psi @ _hadamard(spec.num_qubits)) * d
    return psi


def compute_uncompute_program(theta_a, theta_b, spec: FeatureMapSpec) -> CircuitProgram:
    """U(theta_b)^dagger U(theta_a); P(all zeros) estimates the kernel.
    Either side may be a stack of angle rows (see `build_feature_map`)."""
    fwd = build_feature_map(theta_a, spec)
    bwd = build_feature_map(theta_b, spec)
    inv = []
    for op in reversed(bwd.ops):
        if op.angle is None:
            inv.append(op)  # H is self-inverse
        else:
            inv.append(GateOp(op.kind, op.targets, -op.angle))
    return CircuitProgram(spec.num_qubits, fwd.ops + tuple(inv))


def kernel_shot_estimates(
    theta_a, theta_b, spec: FeatureMapSpec, shots: int, noise: NoiseSpec, mitigate: bool, seeds
) -> np.ndarray:
    """Shot estimates of k(a, b) for a stack of pairs, one seed per pair.

    The compute-uncompute circuits of the pairs (either side a single
    AngleVector or a stack of rows) run qsim.SHOT_BLOCK at a time as stacked
    density evolutions, with depolarizing noise when `noise` has it; each
    pair's estimate is its sampled, readout-folded and optionally mitigated
    frequency of |0...0>. Estimator variance is k(1-k)/shots in the
    noiseless case.
    """
    probs = outcome_probabilities(compute_uncompute_program(theta_a, theta_b, spec), noise)
    zeros = np.zeros(probs.shape[1])
    zeros[0] = 1.0
    return shot_estimates(probs, zeros, shots, seeds, noise, mitigate)
