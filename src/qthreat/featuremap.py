"""Angle encoding, ZZ feature maps, and fidelity-kernel Gram machinery.

The feature map repeats [H on all qubits; RZ(2 theta_i); RZZ(2 phi_ij) on
entangled pairs] `reps` times. The pair phase phi_ij follows a configurable
convention because published variants differ:

  pi_minus  phi_ij = (pi - theta_i)(pi - theta_j)   (default)
  product   phi_ij = theta_i * theta_j

The convention tag travels with every persisted artifact.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import batched, persist
from .qsim import (
    CircuitProgram,
    DensityState,
    GateOp,
    NoiseSpec,
    PureState,
    apply_circuit,
    apply_circuit_noisy,
    apply_readout_error,
    density_from_pure,
    mitigate_readout,
    sample_shots,
    sample_shots_density,
    zero_state,
)

CONVENTIONS = ("pi_minus", "product")
ENTANGLEMENTS = ("full", "linear")


@dataclass(frozen=True)
class FeatureMapSpec:
    num_qubits: int
    reps: int = 2
    entanglement: str = "full"
    second_order_coeff: str = "pi_minus"

    def __post_init__(self):
        if not 2 <= self.num_qubits <= 6:
            raise ValueError("num_qubits must be in [2, 6]")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.entanglement not in ENTANGLEMENTS:
            raise ValueError(f"entanglement must be one of {ENTANGLEMENTS}")
        if self.second_order_coeff not in CONVENTIONS:
            raise ValueError(f"second_order_coeff must be one of {CONVENTIONS}")

    @property
    def pairs(self) -> List[Tuple[int, int]]:
        return batched.pair_list(self.num_qubits, self.entanglement)

    def as_dict(self) -> dict:
        return {
            "num_qubits": self.num_qubits,
            "reps": self.reps,
            "entanglement": self.entanglement,
            "second_order_coeff": self.second_order_coeff,
        }


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


def encode_angles(embedding: np.ndarray, q: int) -> AngleVector:
    """First q coordinates of a unit-norm embedding, clipped to [-1, 1],
    scaled by pi."""
    e = np.asarray(embedding, dtype=float).reshape(-1)
    if q > e.size:
        raise ValueError(f"need {q} coordinates, embedding has {e.size}")
    norm = float(np.linalg.norm(e))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"embedding norm {norm} is not 1 within 1e-6")
    return AngleVector(np.pi * np.clip(e[:q], -1.0, 1.0))


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


def build_feature_map(theta: AngleVector, spec: FeatureMapSpec) -> CircuitProgram:
    if len(theta) != spec.num_qubits:
        raise ValueError(
            f"angle vector length {len(theta)} != num_qubits {spec.num_qubits}"
        )
    phis = pair_phases(theta.angles, spec)
    ops = []
    for _ in range(spec.reps):
        for t in range(spec.num_qubits):
            ops.append(GateOp("H", (t,)))
        for t in range(spec.num_qubits):
            ops.append(GateOp("RZ", (t,), 2.0 * float(theta.angles[t])))
        for p, (i, j) in enumerate(spec.pairs):
            ops.append(GateOp("RZZ", (i, j), 2.0 * float(phis[p])))
    return CircuitProgram(spec.num_qubits, ops)


def feature_state(theta: AngleVector, spec: FeatureMapSpec) -> PureState:
    return apply_circuit(zero_state(spec.num_qubits), build_feature_map(theta, spec))


def feature_statevectors(angles: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """Statevectors for a stack of angle rows, shape (m, q) -> (m, 2^q).

    Vectorized over rows; one H layer plus one diagonal multiply per rep.
    """
    t = np.atleast_2d(np.asarray(angles, dtype=float))
    if t.shape[1] != spec.num_qubits:
        raise ValueError("angle rows must have num_qubits columns")
    q = spec.num_qubits
    s1 = batched.sign_table(q)
    s2 = batched.pair_sign_table(q, spec.pairs)
    phis = np.atleast_2d(pair_phases(t, spec))
    diag = batched.diag_phase_per_sample(t, phis, s1, s2)
    psi = batched.zero_batch(t.shape[0], q)
    for _ in range(spec.reps):
        psi = batched.h_layer(psi, q)
        psi = psi * diag
    return psi


def fidelity_kernel(theta_a: AngleVector, theta_b: AngleVector, spec: FeatureMapSpec) -> float:
    """k(a, b) = |<phi(a)|phi(b)>|^2, clipped to [0, 1]."""
    va = feature_state(theta_a, spec).amplitudes
    vb = feature_state(theta_b, spec).amplitudes
    k = abs(np.vdot(va, vb)) ** 2
    return float(min(1.0, max(0.0, k)))


def compute_uncompute_program(
    theta_a: AngleVector, theta_b: AngleVector, spec: FeatureMapSpec
) -> CircuitProgram:
    """U(theta_b)^dagger U(theta_a); P(all zeros) estimates the kernel."""
    fwd = build_feature_map(theta_a, spec)
    bwd = build_feature_map(theta_b, spec)
    inv = []
    for op in reversed(bwd.ops):
        if op.angle is None:
            inv.append(op)  # H is self-inverse
        else:
            inv.append(GateOp(op.kind, op.targets, -op.angle))
    return CircuitProgram(spec.num_qubits, fwd.ops + tuple(inv))


def fidelity_kernel_shots(
    theta_a: AngleVector,
    theta_b: AngleVector,
    spec: FeatureMapSpec,
    shots: int,
    noise: Optional[NoiseSpec] = None,
    mitigate: bool = False,
    seed: int = 0,
) -> float:
    """Shot-based kernel estimate via the compute-uncompute circuit.

    Depolarizing noise routes through the density-matrix simulator; readout
    error corrupts sampled counts and is optionally inverted. Estimator
    variance is k(1-k)/shots in the noiseless case.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    noise = noise or NoiseSpec()
    prog = compute_uncompute_program(theta_a, theta_b, spec)
    seeds = np.random.SeedSequence(seed).generate_state(2)
    if noise.depol_1q > 0 or noise.depol_2q > 0:
        rho = apply_circuit_noisy(
            density_from_pure(zero_state(spec.num_qubits)), prog, noise
        )
        result = sample_shots_density(rho, shots, int(seeds[0]))
    else:
        state = apply_circuit(zero_state(spec.num_qubits), prog)
        result = sample_shots(state, shots, int(seeds[0]))
    if noise.any_readout:
        result = apply_readout_error(result, noise, int(seeds[1]))
    zeros = "0" * spec.num_qubits
    if mitigate:
        est = mitigate_readout(result, noise)[zeros]
    else:
        est = result.frequency(zeros)
    return float(min(1.0, max(0.0, est)))


# ----------------------------------------------------------------- Gram


@dataclass(frozen=True)
class GramBundle:
    train_gram: np.ndarray
    # Out-of-sample rows are scored through the QSVM observable
    # (qsvm.observable_scorer), never as Gram blocks; these stay None.
    val_block: Optional[np.ndarray] = None
    test_block: Optional[np.ndarray] = None
    centering_row_means: Optional[np.ndarray] = None
    centering_grand_mean: Optional[float] = None
    centered: bool = False

    def __post_init__(self):
        k = np.asarray(self.train_gram, dtype=float)
        n = k.shape[0]
        if k.shape != (n, n) or n == 0:
            raise ValueError("train_gram must be square and nonempty")
        if np.max(np.abs(k - k.T)) > 1e-10:
            raise ValueError("train_gram not symmetric within 1e-10")
        if not self.centered:
            if np.max(np.abs(np.diag(k) - 1.0)) > 1e-9:
                raise ValueError("uncentered Gram diagonal must be 1 within 1e-9")
            if k.min() < -1e-12 or k.max() > 1.0 + 1e-12:
                raise ValueError("uncentered Gram entries must lie in [0, 1]")
        else:
            if self.centering_row_means is None or self.centering_grand_mean is None:
                raise ValueError("centered bundle must carry centering stats")
            means = np.abs(k.mean(axis=0))
            if means.max() > 1e-9:
                raise ValueError("centered Gram column means exceed 1e-9")

    @property
    def n_train(self) -> int:
        return self.train_gram.shape[0]


def gram_from_states(states_a: np.ndarray, states_b: Optional[np.ndarray] = None) -> np.ndarray:
    """|<a_i|b_j>|^2 for stacks of statevectors."""
    if states_b is None:
        states_b = states_a
    overlaps = states_a.conj() @ states_b.T
    return np.abs(overlaps) ** 2


def build_gram(
    train_angles: Sequence[AngleVector],
    spec: FeatureMapSpec,
    max_train: int = 4000,
) -> GramBundle:
    """Uncentered kernel Gram over cached statevectors.

    Caching every train statevector once replaces the n(n+1)/2 pairwise
    circuit evaluations with a single conjugate inner-product product;
    the results are identical entrywise. The Gram is PSD by construction:
    k(a, b) = Tr(rho_a rho_b), so K = Phi Phi^T with Phi of width 4^q
    (equivalently, K is the entrywise product of G and conj(G), with G the
    PSD overlap matrix, and the Schur product theorem applies).
    """
    if not len(train_angles):
        raise ValueError("train set must be nonempty")
    if len(train_angles) > max_train:
        raise ValueError(f"train set exceeds the n={max_train} memory cap")
    states = feature_statevectors(np.stack([v.angles for v in train_angles]), spec)
    k = gram_from_states(states)
    k = (k + k.T) / 2.0
    np.clip(k, 0.0, 1.0, out=k)
    return GramBundle(k)


def center_gram(bundle: GramBundle) -> GramBundle:
    """Double-center the train Gram (HKH).

    The column means and grand mean are stored so out-of-sample rows can
    be centred consistently: a row r becomes
    r - colmeans(K) - rowmean(r) + grandmean(K).
    """
    if bundle.centered:
        raise ValueError("bundle already centered")
    k = bundle.train_gram
    col_means = k.mean(axis=0)
    grand = float(k.mean())
    centered_k = k - col_means[None, :] - col_means[:, None] + grand
    return GramBundle(
        train_gram=(centered_k + centered_k.T) / 2.0,
        centering_row_means=col_means.copy(),
        centering_grand_mean=grand,
        centered=True,
    )


# ------------------------------------------------------------- persistence


def save_gram_bundle(bundle: GramBundle, directory, spec: Optional[FeatureMapSpec] = None) -> dict:
    d = persist.ensure_dir(directory)
    sha = persist.save_array_f64(d / "train.f64", bundle.train_gram)
    header = {
        "n_train": bundle.n_train,
        "centered": bundle.centered,
        "train": {"shape": list(bundle.train_gram.shape), "sha256": sha},
        "spec": spec.as_dict() if spec else None,
    }
    if bundle.centered:
        header["centering"] = {
            "row_means": [float(x) for x in bundle.centering_row_means],
            "grand_mean": bundle.centering_grand_mean,
        }
    persist.save_json(d / "gram.json", header)
    return header


def load_centering_means(directory) -> np.ndarray:
    """The centred train Gram's column means from gram.json, without
    reading the Gram itself."""
    header = persist.load_json(persist.ensure_dir(directory) / "gram.json")
    return np.array(header["centering"]["row_means"])


def load_gram_bundle(directory) -> GramBundle:
    d = persist.ensure_dir(directory)
    header = persist.load_json(d / "gram.json")
    meta = header["train"]
    train = persist.load_array_f64(d / "train.f64", tuple(meta["shape"]))
    if persist.sha256_file(d / "train.f64") != meta["sha256"]:
        raise ValueError("train.f64 hash mismatch")
    stats = header.get("centering")
    return GramBundle(
        train_gram=train,
        centering_row_means=np.array(stats["row_means"]) if stats else None,
        centering_grand_mean=stats["grand_mean"] if stats else None,
        centered=header["centered"],
    )
