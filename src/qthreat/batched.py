"""Vectorized statevector evolution for many samples at once.

Arrays hold one register per row: shape (m, 2^q), qubit 0 the least
significant bit of the column index. Used by the Gram builder and the
variational classifier, where thousands of small circuits share a layout
and differ only in their angles. Semantics are pinned to qsim's per-state
kernels by tests.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .qsim import z_signs


def zero_batch(m: int, num_qubits: int) -> np.ndarray:
    psi = np.zeros((m, 1 << num_qubits), dtype=complex)
    psi[:, 0] = 1.0
    return psi


def apply_1q_batch(u: np.ndarray, psi: np.ndarray, target: int, num_qubits: int) -> np.ndarray:
    """Same 2x2 matrix on one qubit of every row."""
    m = psi.shape[0]
    a = psi.reshape(m, 1 << (num_qubits - 1 - target), 2, -1)
    out = np.empty_like(a)
    out[:, :, 0] = u[0, 0] * a[:, :, 0] + u[0, 1] * a[:, :, 1]
    out[:, :, 1] = u[1, 0] * a[:, :, 0] + u[1, 1] * a[:, :, 1]
    return out.reshape(m, 1 << num_qubits)


def h_layer(psi: np.ndarray, num_qubits: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    for t in range(num_qubits):
        psi = apply_1q_batch(h, psi, t, num_qubits)
    return psi


def ry_layer(psi: np.ndarray, angles: Sequence[float], num_qubits: int) -> np.ndarray:
    """RY(angles[t]) on each qubit t; angles shared across rows."""
    for t in range(num_qubits):
        half = 0.5 * float(angles[t])
        c, s = np.cos(half), np.sin(half)
        u = np.array([[c, -s], [s, c]], dtype=complex)
        psi = apply_1q_batch(u, psi, t, num_qubits)
    return psi


def sign_table(num_qubits: int) -> np.ndarray:
    """(dim, q) matrix of (-1)^{z_t} for each basis index."""
    dim = 1 << num_qubits
    idx = np.arange(dim)
    bits = (idx[:, None] >> np.arange(num_qubits)[None, :]) & 1
    return 1.0 - 2.0 * bits


def pair_list(num_qubits: int, entanglement: str) -> List[Tuple[int, int]]:
    if entanglement == "full":
        return [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]
    if entanglement == "linear":
        return [(i, i + 1) for i in range(num_qubits - 1)]
    raise ValueError(f"unknown entanglement {entanglement!r}")


def pair_sign_table(num_qubits: int, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """(dim, #pairs) matrix of (-1)^{z_i xor z_j}."""
    s1 = sign_table(num_qubits)
    return np.stack([s1[:, i] * s1[:, j] for i, j in pairs], axis=1)


def rz_layer_shared(psi: np.ndarray, angles: Sequence[float], s1: np.ndarray) -> np.ndarray:
    """RZ(angles[t]) on each qubit, angles shared across rows."""
    phase = np.exp(-0.5j * (s1 @ np.asarray(angles, dtype=float)))
    return psi * phase[None, :]


def diag_phase_per_sample(
    theta: np.ndarray, phi: np.ndarray, s1: np.ndarray, s2: np.ndarray
) -> np.ndarray:
    """Per-row diagonal for [RZ(2 theta_t) each qubit; RZZ(2 phi_p) each pair].

    theta: (m, q) single-qubit phases, phi: (m, #pairs) pair phases.
    RZ(2a) multiplies basis z by exp(-i a (-1)^{z_t}); RZZ likewise on parity.
    """
    arg = theta @ s1.T
    if phi.shape[1]:
        arg = arg + phi @ s2.T
    return np.exp(-1j * arg)


def cz_chain_diag(num_qubits: int) -> np.ndarray:
    """Diagonal of CZ on (0,1),(1,2),...,(q-2,q-1); -1 where both bits set."""
    dim = 1 << num_qubits
    idx = np.arange(dim)
    sign = np.ones(dim)
    for i in range(num_qubits - 1):
        both = ((idx >> i) & 1) & ((idx >> (i + 1)) & 1)
        sign *= 1.0 - 2.0 * both
    return sign.astype(complex)


def z_all_expectation(psi: np.ndarray, num_qubits: int) -> np.ndarray:
    """<Z tensor ... tensor Z> per row."""
    return (np.abs(psi) ** 2) @ z_signs(num_qubits)
