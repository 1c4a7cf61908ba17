"""The exact engine: stacked statevectors through one `qsim.CircuitProgram`.

Each circuit is built once, by featuremap.build_feature_map or
vqc.build_vqc_circuit, and run by either engine: `evolve` here for exact
states, or qsim.evolve_density for shots and noise. The ZZ feature map's
exact states skip `evolve`: featuremap.feature_statevectors reads one
repetition's diagonal from `_steps` and applies the Hadamard layers as
matrix products, with `evolve` on the same circuit as its test oracle.
Arrays hold one register per row, shape (m, 2^q), qubit 0 the least
significant bit of the column index; a gate angle is a float shared by
every row or an (m,) array, one angle per row. `adjoint` is the reverse sweep of the adjoint
method (Jones & Gacon, arXiv:2009.02823) over the same program. Tests pin
`evolve` to the per-state reference, tests/oracles.apply_circuit, and
`adjoint` to central differences.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .qsim import (_DIAGONAL, _FIXED_DIAGONAL, _GENERATORS, _PHASE_SIGNS, CircuitProgram, GateOp,
                   _left, _target_rows, _target_value, gate_matrix)


def _run_phase(run: Sequence[GateOp], num_qubits: int):
    """The diagonal of a run of diagonal gates, (2^q,) or (m, 2^q): the fixed
    gates' signs times one exp of the summed phase arguments; and the
    (k, 2^q) generator diagonals of its k parametric gates."""
    sign = np.ones(1 << num_qubits)
    arg = np.zeros(1 << num_qubits)
    signs, stacked, stacked_signs = [], [], []
    for op in run:
        value = _target_value(op.targets, num_qubits)
        if op.kind in _FIXED_DIAGONAL:
            sign = sign * _FIXED_DIAGONAL[op.kind].real[value]
            continue
        s = _PHASE_SIGNS[op.kind][value]
        signs.append(s)
        if isinstance(op.angle, float):
            arg = arg + (0.5 * op.angle) * s
        else:
            stacked.append(op.angle)
            stacked_signs.append(s)
    if stacked:
        arg = arg + 0.5 * (np.stack(stacked, axis=1) @ np.stack(stacked_signs))
    return sign * np.exp(-1j * arg), np.array(signs).reshape(-1, 1 << num_qubits)


def _steps(program: CircuitProgram) -> List[tuple]:
    """The program as steps (op, matrix, signs): (None, diagonal, signs) from
    `_run_phase` for each run of consecutive diagonal gates, (op,
    gate_matrix(op), None) for every other gate. A run made of the same
    GateOp objects as an earlier one reuses its diagonal. Compiled once per
    program and kept in program.steps, so `evolve` and `adjoint` of one
    program compile it once between them."""
    if program.steps is None:
        object.__setattr__(program, "steps", _compile(program))
    return program.steps


def _compile(program: CircuitProgram) -> List[tuple]:
    steps, run, phases = [], [], {}
    for op in program.ops + (None,):
        if op is not None and op.kind in _DIAGONAL:
            run.append(op)
            continue
        if run:
            key = tuple(map(id, run))
            if key not in phases:
                phases[key] = _run_phase(run, program.num_qubits)
            steps.append((None,) + phases[key])
            run = []
        if op is not None:
            steps.append((op, gate_matrix(op), None))
    return steps


def _apply(op: GateOp, u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The non-diagonal gate matrix u on op's targets of stacked registers
    (..., m, 2^q); a one-qubit u may be one matrix per row, (m, 2, 2)."""
    shape = psi.shape
    if len(op.targets) == 2:
        rows = _target_rows(op.targets, shape[-1].bit_length() - 1)
        return _left(u, psi.reshape(-1, shape[-1], 1), rows).reshape(shape)
    t = op.targets[0]
    a = psi.reshape(shape[:-1] + (shape[-1] >> (t + 1), 2, 1 << t))
    if u.ndim == 3:
        u = u[:, None, None]  # u[..., i, j] is then (m, 1, 1), one entry per row
    out = np.empty_like(a)
    out[..., 0, :] = u[..., 0, 0] * a[..., 0, :] + u[..., 0, 1] * a[..., 1, :]
    out[..., 1, :] = u[..., 1, 0] * a[..., 0, :] + u[..., 1, 1] * a[..., 1, :]
    return out.reshape(shape)


def evolve(program: CircuitProgram) -> np.ndarray:
    """Statevectors (m, 2^q) of the program's m circuits run from |0...0>:
    row i sees the i-th angle of each (m,) angle array. Each run of
    consecutive diagonal gates is one multiply by one exp."""
    psi = np.zeros((program.m, 1 << program.num_qubits), dtype=complex)
    psi[:, 0] = 1.0
    for op, u, _ in _steps(program):
        psi = psi * u if op is None else _apply(op, u, psi)
    return psi


def adjoint(program: CircuitProgram, psi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The reverse sweep of the adjoint method over `program`.

    psi is `evolve(program)` (m, 2^q) and lam the adjoint states, for an
    objective sum_i <psi_i|O_i|psi_i> weighted by upstream u_i the rows
    lam_i = u_i O_i psi_i. The sweep un-applies each gate to the stacked
    pair (phi, lam), starting from (psi, lam), and returns a (p, m) array:
    row j holds, per register, Im<lam|G_j|phi> just after the j-th
    parametric gate (program order) with generator G_j, the derivative of
    the objective by that gate's angle on that row. Diagonal gates commute,
    so each run of them is read once, before it is un-applied; the sweep
    stops at the first parametric gate.
    """
    pair = np.array([psi, lam], dtype=complex)  # (2, m, 2^q)
    j = sum(op.angle is not None for op in program.ops)
    out = np.empty((j, pair.shape[1]))
    for op, u, signs in reversed(_steps(program)):
        if not j:
            break
        if op is None:
            if signs.shape[0]:
                out[j - signs.shape[0]:j] = signs @ np.imag(pair[1].conj() * pair[0]).T
                j -= signs.shape[0]
            pair *= u.conj()
            continue
        if op.angle is not None:
            j -= 1
            out[j] = np.einsum("md,md->m", pair[1].conj(),
                               _apply(op, _GENERATORS[op.kind], pair[0])).imag
        pair = _apply(op, np.conj(np.swapaxes(u, -1, -2)), pair)
    return out
