"""Slow reference implementations that the fast paths in qthreat are
checked against. Each one is the straightforward form of a computation the
package now does another way; none of them is used by the package itself.
"""
import numpy as np

from qthreat import datapipe
from qthreat.featuremap import feature_statevectors, gram_from_states
from qthreat.metrics import confusion, f_beta
from qthreat.qsim import gate_matrix
from qthreat.qsvm import raw_decision_scores

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def center_test_row(row: np.ndarray, row_means: np.ndarray, grand_mean: float) -> np.ndarray:
    """Centre one out-of-sample kernel row consistently with HKH:
    r - colmeans(K) - mean(r) + grandmean(K)."""
    r = np.asarray(row, dtype=float).reshape(-1)
    if r.size != row_means.size:
        raise ValueError(f"row length {r.size} != n {row_means.size}")
    return r - row_means - r.mean() + grand_mean


def block_scores(model, train_angles, angles, spec, row_means, grand_mean):
    """QSVM scores through full out-of-sample Gram rows: kernel rows against
    every training point, centred row by row, then the dual expansion."""
    train_states = feature_statevectors(train_angles, spec)
    rows = np.clip(gram_from_states(feature_statevectors(angles, spec), train_states), 0.0, 1.0)
    centred = np.stack([center_test_row(r, row_means, grand_mean) for r in rows])
    return model.sign * raw_decision_scores(model, centred)


def tune_threshold_loop(scores, labels, beta=2.0):
    """F_beta over every midpoint candidate, one confusion per candidate."""
    s = np.asarray(scores, dtype=float).reshape(-1)
    y = np.asarray(labels, dtype=int).reshape(-1)
    uniq = np.unique(s)
    if uniq.size < 2:
        return float(uniq[0])
    candidates = (uniq[:-1] + uniq[1:]) / 2.0
    best_t, best_v = float(candidates[0]), -1.0
    for t in candidates:
        v = f_beta(confusion(y, (s >= t).astype(int)), beta)
        if v > best_v + 1e-15:
            best_t, best_v = float(t), v
    return best_t


def stratified_limit(y, limit, seed):
    """The preprocess carve of the training rows down to `limit`."""
    y = np.asarray(y, dtype=int)
    if y.size <= limit:
        return np.arange(y.size)
    counts = {str(c): int((y == c).sum()) for c in np.unique(y)}
    alloc = datapipe.apportion(counts, limit)
    picked = []
    for name, take in sorted(alloc.items()):
        pos = np.flatnonzero(y == int(name))
        rng = np.random.default_rng(np.random.SeedSequence([seed, int(name)]))
        picked.append(np.sort(rng.permutation(pos)[:take]))
    return np.sort(np.concatenate(picked))


def reference_indices(support, y_train, limit, seed):
    """The shot-mode reference sample of support vectors."""
    support = np.asarray(support, dtype=int)
    if support.size <= limit:
        return support
    labels = np.asarray(y_train, dtype=int)[support]
    counts = {str(c): int((labels == c).sum()) for c in np.unique(labels)}
    alloc = datapipe.apportion(counts, limit)
    picked = []
    for name, take in sorted(alloc.items()):
        pos = np.flatnonzero(labels == int(name))
        rng = np.random.default_rng(np.random.SeedSequence([seed, int(name)]))
        picked.append(pos[np.sort(rng.permutation(pos.size)[:take])])
    return support[np.sort(np.concatenate(picked))]


def _apply_1q(u, arr, target, num_qubits):
    """Apply a 2x2 matrix on `target` along axis 0 of arr (dim 2^q first)."""
    tail = arr.shape[1:]
    a = arr.reshape(1 << (num_qubits - 1 - target), 2, -1)
    out = np.empty_like(a)
    out[:, 0] = u[0, 0] * a[:, 0] + u[0, 1] * a[:, 1]
    out[:, 1] = u[1, 0] * a[:, 0] + u[1, 1] * a[:, 1]
    return out.reshape((1 << num_qubits,) + tail)


def _apply_2q(u, arr, ta, tb, num_qubits):
    """Apply a 4x4 matrix on qubits (ta, tb), ta the high bit of its basis."""
    idx = np.arange(1 << num_qubits)
    pair_mask = (1 << ta) | (1 << tb)
    base = idx[(idx & pair_mask) == 0]
    rows = np.stack([base, base + (1 << tb), base + (1 << ta), base + pair_mask])
    out = np.empty_like(arr)
    out[rows] = np.tensordot(u, arr[rows], axes=(1, 0))
    return out


def _apply_op(arr, op, num_qubits):
    """One gate on axis 0 of arr, gate by gate, independent of qsim's kernels."""
    u = gate_matrix(op)
    if len(op.targets) == 1:
        return _apply_1q(u, arr, op.targets[0], num_qubits)
    return _apply_2q(u, arr, op.targets[0], op.targets[1], num_qubits)


def conjugate(rho, op, num_qubits):
    """rho -> U rho U_dagger using the statevector kernels on columns."""
    a = _apply_op(rho, op, num_qubits)  # U rho
    b = _apply_op(a.conj().T.copy(), op, num_qubits)  # U (U rho)^dagger
    return b.conj().T


def depolarize(rho, target, p, num_qubits):
    """(1 - p) rho + (p / 3) sum over X, Y, Z on `target` of P rho P."""
    if p == 0.0:
        return rho
    mix = np.zeros_like(rho)
    for pauli in _PAULIS:
        a = _apply_1q(pauli, rho, target, num_qubits)
        b = _apply_1q(pauli, a.conj().T.copy(), target, num_qubits)
        mix += b.conj().T
    return (1.0 - p) * rho + (p / 3.0) * mix


def noisy_density(rho, program, noise):
    """One density matrix gate by gate: conjugation by the gate, then the
    three-Pauli depolarizing channel on each target."""
    q = program.num_qubits
    for op in program.ops:
        rho = conjugate(rho, op, q)
        p = noise.depol_1q if len(op.targets) == 1 else noise.depol_2q
        for t in op.targets:
            rho = depolarize(rho, t, p, q)
    return rho


def apply_readout_error(counts, noise, seed):
    """Flip each measured bit of each shot independently with its asymmetric
    probability; `counts` is indexed by basis state."""
    counts = np.asarray(counts, dtype=np.int64)
    q = counts.size.bit_length() - 1
    p01, p10 = noise.flips_for(q)
    rng = np.random.default_rng(seed)
    out = np.zeros_like(counts)
    for value in np.flatnonzero(counts):
        # bit j of `value` is qubit j; flip with p01 when 0, p10 when 1
        bitmat = (value >> np.arange(q)) & 1
        flips = rng.random((counts[value], q)) < np.where(bitmat == 1, p10, p01)
        flipped = np.bitwise_xor(bitmat, flips.astype(np.int64)) @ (1 << np.arange(q))
        out += np.bincount(flipped, minlength=counts.size)
    return out
