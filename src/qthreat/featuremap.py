"""Angle encoding, ZZ feature maps, and fidelity-kernel Gram machinery.

The feature map repeats [H on all qubits; RZ(2 theta_i); RZZ(2 phi_ij) on
entangled pairs] `reps` times. The pair phase phi_ij follows a configurable
convention because published variants differ:

  pi_minus  phi_ij = (pi - theta_i)(pi - theta_j)   (default)
  product   phi_ij = theta_i * theta_j

The convention tag travels with every persisted artifact. The circuit is
built once, by `build_feature_map`, and run by either engine: exact
statevectors come from batched.evolve, and shot-mode kernels from
compute-uncompute circuits U(b)^dagger U(a): a stack of pairs runs through
the shot engine (qsim.evolve_density, then qsim.shot_estimates with
readout error folded in), and k(a, b) is the sampled frequency of |0...0>.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import batched
from .qsim import (
    CircuitProgram,
    GateOp,
    NoiseSpec,
    PureState,
    apply_circuit,
    outcome_probabilities,
    shot_estimates,
    zero_state,
)

CONVENTIONS = ("pi_minus", "product")
ENTANGLEMENTS = ("full", "linear")
MAX_QUBITS = 6
# rows per block (at least 2) of the blockwise Gram passes
GRAM_BLOCK = 256


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
    angle arrays. Every rep is the same GateOp objects, so batched.evolve
    computes their diagonal once."""
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


def feature_state(theta: AngleVector, spec: FeatureMapSpec) -> PureState:
    return apply_circuit(zero_state(spec.num_qubits), build_feature_map(theta, spec))


def feature_statevectors(angles: np.ndarray, spec: FeatureMapSpec) -> np.ndarray:
    """Statevectors for a stack of angle rows, shape (m, q) -> (m, 2^q): the
    feature map of the stack run by batched.evolve."""
    return batched.evolve(build_feature_map(np.atleast_2d(np.asarray(angles, dtype=float)), spec))


def fidelity_kernel(theta_a: AngleVector, theta_b: AngleVector, spec: FeatureMapSpec) -> float:
    """k(a, b) = |<phi(a)|phi(b)>|^2, clipped to [0, 1]."""
    va = feature_state(theta_a, spec).amplitudes
    vb = feature_state(theta_b, spec).amplitudes
    k = abs(np.vdot(va, vb)) ** 2
    return float(min(1.0, max(0.0, k)))


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

    The compute-uncompute circuits of every pair (either side a single
    AngleVector or a stack of rows) run as one stacked density evolution,
    with depolarizing noise when `noise` has it; each pair's estimate is
    its sampled, readout-folded and optionally mitigated frequency of
    |0...0>. Estimator variance is k(1-k)/shots in the noiseless case.
    """
    probs = outcome_probabilities(compute_uncompute_program(theta_a, theta_b, spec), noise)
    zeros = np.zeros(probs.shape[1])
    zeros[0] = 1.0
    return shot_estimates(probs, zeros, shots, seeds, noise, mitigate)


def fidelity_kernel_shots(
    theta_a: AngleVector,
    theta_b: AngleVector,
    spec: FeatureMapSpec,
    shots: int,
    noise: NoiseSpec = NoiseSpec(),
    mitigate: bool = False,
    seed: int = 0,
) -> float:
    """Shot-based kernel estimate of one pair via the compute-uncompute
    circuit (`kernel_shot_estimates` on one pair)."""
    return float(kernel_shot_estimates(theta_a, theta_b, spec, shots, noise, mitigate, [seed])[0])


# ----------------------------------------------------------------- Gram


@dataclass(frozen=True)
class GramBundle:
    """A train Gram, uncentred or centred with its centring stats."""

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
        if not max_asymmetry(k) <= 1e-10:  # NaN, or inf - inf, fails too
            raise ValueError("train_gram not finite and symmetric within 1e-10")
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


def _block_pairs(k: np.ndarray):
    """Views (k[I, J], k[J, I]) of each GRAM_BLOCK-square block pair I <= J."""
    n, b = k.shape[0], GRAM_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            yield k[i:i + b, j:j + b], k[j:j + b, i:i + b]


def max_asymmetry(k: np.ndarray) -> float:
    """max |k - k.T| of a square matrix, one block pair at a time; NaN
    propagates as in np.max."""
    worst = 0.0
    for upper, lower in _block_pairs(k):
        worst = np.maximum(worst, np.abs(upper - lower.T).max())
    return float(worst)


def _symmetrize(k: np.ndarray) -> np.ndarray:
    """k <- (k + k.T) / 2 in place, one block pair at a time: each entry is
    (k_ij + k_ji) / 2 and IEEE addition commutes, so the bits equal the
    whole-matrix expression's."""
    for upper, lower in _block_pairs(k):
        s = (upper + lower.T) / 2.0
        upper[...] = s
        lower[...] = s.T
    return k


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

    Memory: one n x n float64 array, filled GRAM_BLOCK rows at a time and
    symmetrised and clipped in place (O(GRAM_BLOCK * n) scratch).
    """
    if not len(train_angles):
        raise ValueError("train set must be nonempty")
    if len(train_angles) > max_train:
        raise ValueError(f"train set exceeds the n={max_train} memory cap")
    angles = np.stack([v.angles for v in train_angles])
    states = feature_statevectors(angles, spec)
    n = states.shape[0]
    k = np.empty((n, n))
    # blocks start below n - 1, so none is one row: numpy sends a one-row
    # product to gemv, whose bits differ from the whole matrix's gemm
    cuts = list(range(0, max(n - 1, 1), GRAM_BLOCK)) + [n]
    for start, stop in zip(cuts, cuts[1:]):
        k[start:stop] = gram_from_states(states[start:stop], states)
    np.clip(_symmetrize(k), 0.0, 1.0, out=k)
    return GramBundle(k)


def center_gram(bundle: GramBundle, out: Optional[np.ndarray] = None) -> GramBundle:
    """Double-center the train Gram (HKH) into a new bundle.

    The column means and grand mean are stored so out-of-sample rows can
    be centred consistently: a row r becomes
    r - colmeans(K) - rowmean(r) + grandmean(K).

    Memory: by default one new n x n float64 array, and the input bundle's
    Gram is left untouched. With `out` (numpy's idiom: an n x n float64
    array, which may be bundle.train_gram itself) the centred Gram is
    written there and no n x n array is allocated; centring into the
    input's own Gram overwrites it, so that bundle must not be used
    afterwards. Either way the centring and symmetrising run in place by
    the whole-matrix expression's operations in order (same bits).
    """
    if bundle.centered:
        raise ValueError("bundle already centered")
    k = bundle.train_gram
    if out is not None and (out.shape != k.shape or out.dtype != np.float64):
        raise ValueError(f"out must be a {k.shape} float64 array")
    col_means = k.mean(axis=0)
    grand = float(k.mean())
    centered_k = np.subtract(k, col_means[None, :], out=out, dtype=float)
    centered_k -= col_means[:, None]
    centered_k += grand
    return GramBundle(
        train_gram=_symmetrize(centered_k),
        centering_row_means=col_means,
        centering_grand_mean=grand,
        centered=True,
    )
