"""The exact engine: the data re-uploading VQC's statevectors and adjoint
sweep in closed form, with no GateOp built.

Rows are registers (m, 2^q), qubit 0 the least significant bit of the
column index. Re-upload layer l is four factors,
psi <- ((psi H^(x)q) * D(x)) K_l^T * E_l: the Hadamard matrix, the rows'
data diagonal (featuremap._data_diagonal), the real kron K_l of the
layer's RY gates, and the diagonal E_l of its RZ gates and CZ chain; the
first layer starts from H^(x)q|0...0>, the uniform vector. `adjoint` is the
reverse sweep of the adjoint method (Jones & Gacon, arXiv:2009.02823)
through the same factors. The tests pin both to vqc.build_vqc_circuit's
gate list run gate by gate.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Tuple

import numpy as np

from .featuremap import FeatureMapSpec, _data_diagonal, _hadamard, _phase_signs
from .qsim import _FIXED_DIAGONAL, _target_value


class Circuit(NamedTuple):
    """The factors of the re-uploading circuit of m angle rows."""

    spec: FeatureMapSpec           # the one-repetition feature layer
    data: np.ndarray               # D(x), (m, 2^q)
    ry: Tuple[np.ndarray, ...]     # K_l, (2^q, 2^q), one per layer
    phase: Tuple[np.ndarray, ...]  # E_l, (2^q,), one per layer


@lru_cache(maxsize=None)
def _ry_generators(num_qubits: int) -> np.ndarray:
    """(q, 2^q, 2^q): Y on qubit t, the generator of RY(a) = exp(-i a Y / 2)."""
    y = np.array([[0, -1j], [1j, 0]])
    return np.stack([np.kron(np.kron(np.eye(1 << (num_qubits - 1 - t)), y), np.eye(1 << t))
                     for t in range(num_qubits)])


def circuit(angles, blocks: np.ndarray, spec: FeatureMapSpec) -> Circuit:
    """The factors for angle rows (m, q) and trainable blocks (L, 2, q),
    [l, 0] the layer's RY angles and [l, 1] its RZ angles, uploaded through
    the one-repetition feature layer `spec`."""
    q = spec.num_qubits
    cz = np.prod([_FIXED_DIAGONAL["CZ"].real[_target_value((i, i + 1), q)]
                  for i in range(q - 1)], axis=0)
    ry = []
    for b in blocks:
        k = np.ones((1, 1))
        for a in b[0]:  # qubit 0 is the last kron factor
            c, s = math.cos(0.5 * a), math.sin(0.5 * a)
            k = np.kron(np.array([[c, -s], [s, c]]), k)
        ry.append(k)
    phase = tuple(cz * np.exp(-0.5j * (b[1] @ _phase_signs(spec)[:q])) for b in blocks)
    rows = np.atleast_2d(np.asarray(angles, dtype=float))
    return Circuit(spec, _data_diagonal(rows, spec), tuple(ry), phase)


def evolve(c: Circuit) -> np.ndarray:
    """The rows' statevectors (m, 2^q)."""
    q = c.spec.num_qubits
    psi = c.data * 2.0 ** (-0.5 * q)
    for l, (k, e) in enumerate(zip(c.ry, c.phase)):
        if l:
            psi = (psi @ _hadamard(q)) * c.data
        psi = (psi @ k.T) * e
    return psi


def adjoint(c: Circuit, psi: np.ndarray, lam: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The reverse sweep of the adjoint method through the circuit's factors.

    psi is `evolve(c)` and lam the adjoint states: for an objective
    sum_i <psi_i|O_i|psi_i> weighted by upstream u_i, the rows
    lam_i = u_i O_i psi_i. The sweep un-applies each factor to the stacked
    pair (phi, lam) and returns the objective's derivatives by
      * the trainable angles, (L, 2, q) as the blocks, summed over rows:
        after un-applying E_l and K_l, the one (2^q, 2^q) matrix
        G = sum_i |phi_i><lam_i| gives Im tr(Y_t G) for RY on qubit t and
        Im tr(Z_t K_l G K_l^T) for RZ on qubit t, which acts after K_l;
      * the data gates' angles, (m, q + #pairs) in `_phase_signs` order,
        per row and summed over layers: the signs times Im(conj(lam) phi)
        just after each D(x).
    """
    q = c.spec.num_qubits
    signs = _phase_signs(c.spec)
    pair = np.array([psi, lam], dtype=complex)  # (2, m, 2^q)
    dtheta = np.empty((len(c.ry), 2, q))
    ddata = np.zeros(psi.shape)
    for l in reversed(range(len(c.ry))):
        k = c.ry[l]
        pair = (pair * c.phase[l].conj()) @ k  # K_l is real orthogonal: K_l^-1 = K_l^T
        g = pair[0].T @ pair[1].conj()
        dtheta[l, 0] = np.einsum("tab,ba->t", _ry_generators(q), g).imag
        dtheta[l, 1] = signs[:q] @ ((k @ g) * k).sum(axis=1).imag
        ddata += np.imag(pair[1].conj() * pair[0])
        if l:
            pair = (pair * c.data.conj()) @ _hadamard(q)
    return dtheta, ddata @ signs.T
