"""Exact simulation of small qubit registers.

Each circuit of the shot engine is one `CircuitProgram`, a gate list built
once: `evolve_density` takes a stack of m densities (m, 2^q, 2^q) through
it with the depolarizing channel
rho -> (1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_t rho) after every gate (skipped
when p = 0), for shots and noise. Exact statevectors take no program: they
are computed in closed form (featuremap.feature_statevectors, batched). A
program's gate angles are floats or (m,) arrays, one angle per circuit of
a stack of m, which `outcome_probabilities` evolves SHOT_BLOCK circuits
at a time. `shot_estimates` samples the outcome distributions (sample
-> readout -> mitigate). Readout error is folded into each distribution
with the tensor-product confusion matrix, the same law as flipping each
shot's bits, so one multinomial per row draws the measured counts. The
references the engines are tested against (a single pure state or
density, or stacked statevectors, taken gate by gate) are in
tests/oracles.py.

Conventions, used everywhere downstream:
  * qubit 0 is the least-significant bit of the basis index;
  * all operations are pure functions; programs are immutable after
    construction, so parallel callers only need to partition seeds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

GATE_KINDS = ("H", "X", "Z", "RY", "RZ", "RZZ", "CX", "CZ")
_PARAMETRIC = ("RY", "RZ", "RZZ")
_TWO_QUBIT = ("RZZ", "CX", "CZ")
_DIAGONAL = ("Z", "RZ", "RZZ", "CZ")

# Circuits per stacked density evolution (outcome_probabilities): at q = 6 a
# block of 64 x 64 x 64 complex densities is 4 MiB, so memory stays bounded.
SHOT_BLOCK = 64

_SQ2 = 1.0 / math.sqrt(2.0)
_FIXED = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "CX": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
# diagonal gates: fixed diagonals, and the signs s of the phases exp(-i angle s / 2)
_FIXED_DIAGONAL = {"Z": np.array([1, -1], dtype=complex), "CZ": np.array([1, 1, 1, -1], dtype=complex)}
_PHASE_SIGNS = {"RZ": np.array([1.0, -1.0]), "RZZ": np.array([1.0, -1.0, -1.0, 1.0])}


@dataclass(frozen=True)
class GateOp:
    """One gate. A parametric gate's angle is a float, or an (m,) array
    giving one angle per circuit of a stack of m (see `CircuitProgram`)."""

    kind: str
    targets: Tuple[int, ...]
    angle: Optional[object] = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.targets) != want:
            raise ValueError(f"{self.kind} takes {want} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"negative qubit index in {self.targets}")
        if self.kind in _PARAMETRIC:
            if self.angle is None:
                raise ValueError(f"{self.kind} requires an angle")
            if not isinstance(self.angle, float):
                a = np.array(self.angle, dtype=float)
                if a.ndim > 1:
                    raise ValueError(f"{self.kind} angle must be a float or a 1-D array")
                a.setflags(write=False)
                object.__setattr__(self, "angle", float(a) if a.ndim == 0 else a)
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


@dataclass(frozen=True)
class CircuitProgram:
    """A gate list on num_qubits qubits. `m` is the number of circuits it
    stands for: the common length of its (m,) angle arrays, 1 if it has none."""

    num_qubits: int
    ops: Tuple[GateOp, ...] = ()
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not (1 <= self.num_qubits <= 8):
            raise ValueError("num_qubits must be in [1, 8]")
        m = None
        for op in self.ops:
            if max(op.targets) >= self.num_qubits:
                raise ValueError(f"gate {op.kind} targets {op.targets} out of range")
            if isinstance(op.angle, np.ndarray):
                if not op.angle.size:
                    raise ValueError(f"gate {op.kind} on {op.targets} has an empty angle stack")
                if m is not None and op.angle.size != m:
                    raise ValueError(f"gate {op.kind} on {op.targets} has {op.angle.size} "
                                     f"angles where earlier gates have {m}")
                m = op.angle.size
        object.__setattr__(self, "m", m or 1)


def _diagonal(op: GateOp) -> np.ndarray:
    """Diagonal of a diagonal gate, (k,) or (m, k) for an (m,) angle array."""
    if op.kind in _FIXED_DIAGONAL:
        return _FIXED_DIAGONAL[op.kind]
    # RZZ: phase exp(-i*angle/2 * (-1)^(za xor zb))
    return np.exp(-0.5j * np.multiply.outer(op.angle, _PHASE_SIGNS[op.kind]))


def gate_matrix(op: GateOp) -> np.ndarray:
    """Dense unitary for one gate: 2x2, or 4x4 in the (targets[0], targets[1])
    basis with targets[0] as the high bit; (m, 2, 2) or (m, 4, 4) for an
    (m,) angle array."""
    if op.kind in _FIXED:
        return _FIXED[op.kind].copy()
    if op.kind in _DIAGONAL:
        diag = _diagonal(op)
        return diag[..., None] * np.eye(diag.shape[-1])
    half = 0.5 * np.asarray(op.angle)
    c, s = np.cos(half), np.sin(half)
    u = np.array([[c, -s], [s, c]], dtype=complex)
    return u if u.ndim == 2 else np.moveaxis(u, (0, 1), (-2, -1))


@dataclass(frozen=True)
class NoiseSpec:
    depol_1q: float = 0.0
    depol_2q: float = 0.0
    readout_flip_01: object = 0.0  # scalar or per-qubit sequence, P(read 1 | true 0)
    readout_flip_10: object = 0.0  # scalar or per-qubit sequence, P(read 0 | true 1)

    def __post_init__(self):
        for name in ("depol_1q", "depol_2q", "readout_flip_01", "readout_flip_10"):
            v = getattr(self, name)
            arr = np.asarray(v, dtype=float)
            if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails too
                raise ValueError(f"{name} = {v} outside [0, 1]")

    def check_invertible(self):
        """Raise unless each qubit's readout confusion matrix can be
        inverted, as mitigation needs: p01 + p10 = 1 (within 1e-12) makes
        it singular. Scalar flips stand for every qubit."""
        p01, p10 = np.broadcast_arrays(np.atleast_1d(self.readout_flip_01),
                                       np.atleast_1d(self.readout_flip_10))
        singular = np.flatnonzero(np.abs(1.0 - p01 - p10) < 1e-12)
        if singular.size:
            raise ValueError(f"qubit {singular[0]} confusion matrix singular (p01 + p10 = 1)")

    def flips_for(self, num_qubits: int) -> Tuple[np.ndarray, np.ndarray]:
        p01 = np.broadcast_to(
            np.atleast_1d(np.asarray(self.readout_flip_01, dtype=float)), (num_qubits,)
        ).copy()
        p10 = np.broadcast_to(
            np.atleast_1d(np.asarray(self.readout_flip_10, dtype=float)), (num_qubits,)
        ).copy()
        return p01, p10


def z_signs(num_qubits: int, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
    """Diagonal of the Z string on `qubits` (every qubit when None): the
    sign (-1)^(parity of those bits) per basis index."""
    qubits = range(num_qubits) if qubits is None else sorted(set(int(t) for t in qubits))
    if not qubits:
        raise ValueError("empty qubit set")
    if qubits[-1] >= num_qubits or qubits[0] < 0:
        raise ValueError(f"qubit set {list(qubits)} out of range")
    idx = np.arange(1 << num_qubits)
    parity = np.zeros(idx.size, dtype=np.int64)
    for t in qubits:
        parity ^= (idx >> t) & 1
    return 1.0 - 2.0 * parity


# ------------------------------------------------------ stacked densities


@lru_cache(maxsize=None)
def _target_value(targets: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """For each basis index, the value of its target bits (targets[0] high)."""
    idx = np.arange(1 << num_qubits)
    return sum(((idx >> t) & 1) << (len(targets) - 1 - i) for i, t in enumerate(targets))


@lru_cache(maxsize=None)
def _target_rows(targets: Tuple[int, ...], num_qubits: int) -> np.ndarray:
    """(2^k, 2^(q-k)) basis indices: row v holds, ascending, the indices
    whose target bits read v."""
    value = _target_value(targets, num_qubits)
    return np.argsort(value, kind="stable").reshape(1 << len(targets), -1)


def _left(u: np.ndarray, arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """U (k x k, or one per row) on the target bits of axis 1 of an (m, d, n)
    stack of registers or densities; `rows` from `_target_rows`. A stack of
    one (m = 1) under m matrices gives m rows."""
    k, d = rows.shape[0], arr.shape[1]
    prod = np.matmul(u, arr[:, rows].reshape(arr.shape[0], k, -1))
    out = np.empty(prod.shape[:1] + arr.shape[1:], dtype=complex)
    out[:, rows] = prod.reshape(prod.shape[0], k, d // k, -1)
    return out


def _depolarize(rho: np.ndarray, target: int, p: float) -> np.ndarray:
    """(1 - 4p/3) rho + (4p/3) (I/2 (x) Tr_target rho) on an (m, d, d) stack."""
    m, d = rho.shape[:2]
    hi, lo = d >> (target + 1), 1 << target
    r = rho.reshape(m, hi, 2, lo, hi, 2, lo)
    mixed = (2.0 * p / 3.0) * (r[:, :, 0, :, :, 0] + r[:, :, 1, :, :, 1])
    out = (1.0 - 4.0 * p / 3.0) * r
    out[:, :, 0, :, :, 0] += mixed
    out[:, :, 1, :, :, 1] += mixed
    return out.reshape(m, d, d)


def evolve_density(rho: np.ndarray, program: CircuitProgram, noise: NoiseSpec) -> np.ndarray:
    """Take a stack of density matrices (m, 2^q, 2^q) through `program`.

    Each gate acts as rho -> U rho U^dagger, with U one matrix or one per row
    when the gate's angle is an (m,) array; a single starting state (m = 1)
    is broadcast over the program's rows at the first such gate, so the
    gates before it run once for all rows. After each gate every target gets
    the depolarizing channel at rate depol_1q (one-qubit gates) or depol_2q
    (two-qubit gates, independently on each target); a zero rate skips it.
    """
    q = program.num_qubits
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (1 << q, 1 << q):
        raise ValueError(f"expected an (m, {1 << q}, {1 << q}) stack, got {rho.shape}")
    for op in program.ops:
        if op.kind in _DIAGONAL:
            phase = _diagonal(op)[..., _target_value(op.targets, q)]
            rho = rho * (phase[..., :, None] * phase.conj()[..., None, :])
        else:
            u = gate_matrix(op)
            rows = _target_rows(op.targets, q)
            # U rho U^dagger = (conj(U) (U rho)^T)^T
            rho = _left(u.conj(), _left(u, rho, rows).swapaxes(1, 2), rows).swapaxes(1, 2)
        p = noise.depol_1q if len(op.targets) == 1 else noise.depol_2q
        if p:
            for t in op.targets:
                rho = _depolarize(rho, t, p)
    return rho


def _diagonal_probabilities(rho: np.ndarray) -> np.ndarray:
    p = np.clip(np.real(np.diagonal(rho, axis1=-2, axis2=-1)), 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def outcome_probabilities(program: CircuitProgram, noise: NoiseSpec) -> np.ndarray:
    """Exact outcome distributions (m, 2^q) of the program's m circuits run
    from |0...0> through `evolve_density`, SHOT_BLOCK circuits at a time; a
    circuit's distribution depends only on its own angles."""
    dim = 1 << program.num_qubits
    rho = np.zeros((1, dim, dim), dtype=complex)
    rho[0, 0, 0] = 1.0
    out = np.empty((program.m, dim))
    for start in range(0, program.m, SHOT_BLOCK):
        block = slice(start, start + SHOT_BLOCK)
        part = CircuitProgram(program.num_qubits, [
            GateOp(op.kind, op.targets, op.angle[block]) if isinstance(op.angle, np.ndarray) else op
            for op in program.ops
        ])
        out[block] = _diagonal_probabilities(evolve_density(rho, part, noise))
    return out


# ---------------------------------------------------------------- readout


def confusion_matrix_1q(p01: float, p10: float) -> np.ndarray:
    """Column = true bit, row = measured bit."""
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


def fold_readout(probs: np.ndarray, noise: NoiseSpec, invert: bool = False) -> np.ndarray:
    """Apply the tensor-product readout confusion matrix, or its inverse, to
    outcome distributions over the last axis, shape (..., 2^q).

    Raises on inverting a singular per-qubit confusion matrix
    (NoiseSpec.check_invertible).
    """
    p = np.asarray(probs, dtype=float)
    shape, dim = p.shape, p.shape[-1]
    q = dim.bit_length() - 1
    p01, p10 = noise.flips_for(q)
    if invert:
        noise.check_invertible()
    for j in range(q):
        c = confusion_matrix_1q(p01[j], p10[j])
        if invert:
            c = np.linalg.inv(c)
        p = np.matmul(c, p.reshape(-1, dim >> (j + 1), 2, 1 << j))
    return p.reshape(shape)


def mitigate(frequencies: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Invert the readout confusion on frequencies (..., 2^q), then clip to
    [0, 1] and renormalize."""
    freq = np.clip(fold_readout(frequencies, noise, invert=True), 0.0, 1.0)
    return freq / freq.sum(axis=-1, keepdims=True)


def shot_estimates(
    probs: np.ndarray,
    observable: np.ndarray,
    shots: int,
    seeds: Sequence[int],
    noise: NoiseSpec = NoiseSpec(),
    mitigated: bool = False,
) -> np.ndarray:
    """Sample -> readout -> mitigate for each row of exact outcome
    distributions (m, 2^q): fold the readout error in, draw one multinomial
    of `shots` from the generator seeded with
    SeedSequence(seeds[i]).generate_state(1)[0], optionally `mitigate`, and
    return the estimate of a diagonal observable (2^q,), or of several
    given as columns (2^q, k)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    folded = fold_readout(np.atleast_2d(probs), noise)
    seeds = np.asarray(seeds).reshape(-1)
    if seeds.size != folded.shape[0]:
        raise ValueError(f"{seeds.size} seeds for {folded.shape[0]} distributions")
    counts = np.stack([
        np.random.default_rng(np.random.SeedSequence(int(s)).generate_state(1)[0])
        .multinomial(shots, row)
        for s, row in zip(seeds, folded)
    ])
    freq = counts / shots
    if mitigated:
        freq = mitigate(freq, noise)
    # einsum, not a BLAS product, so a row's estimate is the same in any stack
    return np.einsum("md,d...->m...", freq, observable)
