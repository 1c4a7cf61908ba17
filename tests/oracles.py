"""Slow reference implementations that the fast paths in qthreat are
checked against, and small helpers that only the tests call. Each
reference is the straightforward form of a computation the package now
does another way; none of them is used by the package itself.
"""
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from qthreat import datapipe
from qthreat.encoder import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LN_EPS, _check_labels, _gather_rows, _loss, _Workspace,
    scale_with_grad,
)
from qthreat.featuremap import (
    AngleVector,
    FeatureMapSpec,
    build_feature_map,
    feature_statevectors,
    kernel_shot_estimates,
    pair_phases,
)
from qthreat.metrics import confusion, f_beta
from qthreat.qsim import (
    _DIAGONAL,
    _FIXED_DIAGONAL,
    _PHASE_SIGNS,
    CircuitProgram,
    NoiseSpec,
    _diagonal_probabilities,
    _left,
    _target_rows,
    _target_value,
    evolve_density,
    fold_readout,
    gate_matrix,
    mitigate,
    z_signs,
)
from qthreat.qsvm import DUAL_TOL, SUPPORT_EPS, SvmModel, stratified_folds
from qthreat.vqc import Execution, VqcModel, _batch_expectations, _shot_parities, build_vqc_circuit

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


def gram_from_states(states_a: np.ndarray, states_b: Optional[np.ndarray] = None) -> np.ndarray:
    """|<a_i|b_j>|^2 for stacks of statevectors."""
    if states_b is None:
        states_b = states_a
    overlaps = states_a.conj() @ states_b.T
    return np.abs(overlaps) ** 2


@dataclass(frozen=True)
class WholeGram:
    """A dense train Gram from the whole-matrix references below, with its
    centring stats once centred."""

    train_gram: np.ndarray
    centering_row_means: Optional[np.ndarray] = None
    centering_grand_mean: Optional[float] = None


def build_gram(train_angles, spec):
    """The uncentred train Gram of a list of AngleVectors (whole_gram)."""
    return WholeGram(whole_gram(np.stack([v.angles for v in train_angles]), spec))


def center_gram(gram):
    """The double-centred Gram with its column means and grand mean
    (whole_centering)."""
    return WholeGram(*whole_centering(gram.train_gram))


def whole_gram(angles, spec):
    """The train Gram as whole-matrix expressions: the n x n overlaps,
    |.|^2, (K + K^T) / 2, then clipping to [0, 1]."""
    k = gram_from_states(feature_statevectors(angles, spec))
    k = (k + k.T) / 2.0
    np.clip(k, 0.0, 1.0, out=k)
    return k


def whole_centering(k):
    """HKH as whole-matrix expressions: (centred Gram, column means, grand mean)."""
    col_means = k.mean(axis=0)
    grand = float(k.mean())
    centered = k - col_means[None, :] - col_means[:, None] + grand
    return (centered + centered.T) / 2.0, col_means, grand


def whole_asymmetry(k):
    """max |K - K^T| through two n x n temporaries."""
    return float(np.max(np.abs(k - k.T)))


def raw_decision_scores(model, kernel_rows):
    """SVM decision values of full kernel rows, each as wide as the train set."""
    rows = np.atleast_2d(np.asarray(kernel_rows, dtype=float))
    if rows.shape[1] != model.n_train:
        raise ValueError(f"kernel rows have width {rows.shape[1]}, expected {model.n_train}")
    return rows[:, model.support] @ model.coef + model.bias


def solve_dual_columns(gram, labels, c, class_weights=(1.0, 1.0), tol=DUAL_TOL, max_iter=None):
    """qsvm.fit_rows with the update read from Gram columns k[:, i], as it
    was before the solver read rows: (model, solver record)."""
    k = np.asarray(gram, dtype=float)
    y01 = np.asarray(labels, dtype=int).reshape(-1)
    n = y01.size
    if k.shape != (n, n):
        raise ValueError(f"gram shape {k.shape} does not match {n} labels")
    if not whole_asymmetry(k) <= 1e-8:
        raise ValueError("gram matrix must be finite and symmetric")
    if set(np.unique(y01)) != {0, 1}:
        raise ValueError("labels must contain both classes (0 and 1)")
    y = np.where(y01 == 1, 1.0, -1.0)
    box = np.where(y01 == 1, c * class_weights[1], c * class_weights[0])
    if max_iter is None:
        max_iter = max(200_000, 50 * n)

    def bounds(alpha):
        lower = ((y > 0) & (alpha < box - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
        upper = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < box - SUPPORT_EPS))
        return lower, upper

    alpha = np.zeros(n)
    f = np.zeros(n)
    iterations = 0
    for _ in range(max_iter):
        v = y - f
        lower, upper = bounds(alpha)
        if not lower.any() or not upper.any():
            break
        i = int(np.argmax(np.where(lower, v, -np.inf)))
        j = int(np.argmin(np.where(upper, v, np.inf)))
        m_up, m_low = v[i], v[j]
        if m_up - m_low <= tol:
            break
        eta = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
        t_hi = min(
            box[i] - alpha[i] if y[i] > 0 else alpha[i],
            alpha[j] if y[j] > 0 else box[j] - alpha[j],
        )
        t = min((m_up - m_low) / eta, t_hi)
        if t <= 0:
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        f += t * (k[:, i] - k[:, j])
        iterations += 1

    v = y - f
    lower, upper = bounds(alpha)
    gap = float(v[lower].max() - v[upper].min()) if lower.any() and upper.any() else 0.0
    free = (alpha > SUPPORT_EPS) & (alpha < box - SUPPORT_EPS)
    if free.any():
        bias = float(v[free].mean())
    else:
        lo = v[lower].max() if lower.any() else 0.0
        hi = v[upper].min() if upper.any() else 0.0
        bias = float((lo + hi) / 2.0)
    support = np.where(alpha > SUPPORT_EPS)[0]
    model = SvmModel(support=support, coef=alpha[support] * y[support], bias=bias, c=float(c),
                     class_weights=(float(class_weights[0]), float(class_weights[1])), n_train=n)
    record = {"iterations": iterations, "max_iter": max_iter, "gap": gap, "converged": gap <= tol}
    return model, record


def select_c_copying(gram, labels, plan):
    """qsvm.select_c through np.ix_ copies: each fold fits on a copy of its
    train submatrix (solve_dual_columns) and scores a copy of its held-out
    rows against every train column."""
    k = np.asarray(gram, dtype=float)
    y = np.asarray(labels, dtype=int).reshape(-1)
    folds = stratified_folds(y, plan.folds, plan.seed)
    all_idx = np.arange(y.size)
    table = []
    best_c, best_v = None, -1.0
    for c in plan.c_grid:
        fold_scores, converged = [], []
        for held in folds:
            train_idx = np.setdiff1d(all_idx, held)
            sub = k[np.ix_(train_idx, train_idx)]
            weights = datapipe.class_weights(y[train_idx])
            model, record = solve_dual_columns(sub, y[train_idx], c, weights)
            rows = k[np.ix_(held, train_idx)]
            preds = (raw_decision_scores(model, rows) >= 0.0).astype(int)
            fold_scores.append(f_beta(confusion(y[held], preds), plan.beta))
            converged.append(record["converged"])
        mean_v = float(np.mean(fold_scores))
        table.append({"c": c, "mean_f_beta": mean_v, "fold_f_beta": fold_scores,
                      "fold_converged": converged})
        if mean_v > best_v + 1e-12:
            best_c, best_v = c, mean_v
    return best_c, table


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


def auprc_loop(labels, scores):
    """Average precision walking the descending scores one tie group at a
    time, adding (recall step) * precision per group that gains a positive."""
    y = np.asarray(labels, dtype=int).reshape(-1)
    s = np.asarray(scores, dtype=float).reshape(-1)
    n_pos = int(y.sum())
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = y[order]
    area = 0.0
    tp = 0
    i = 0
    n = y.size
    while i < n:
        j = i
        while j < n and s_sorted[j] == s_sorted[i]:
            j += 1
        gained = int(y_sorted[i:j].sum())
        tp += gained
        if gained:
            area += (gained / n_pos) * (tp / j)
        i = j
    return min(1.0, area)


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


def select_eval_subset_loop(split, size=100, seed=0):
    """The stratified test-set sample by category, scanning the category
    list once per category."""
    cats = list(split.test_categories)
    if len(cats) < size:
        raise ValueError(f"test set has {len(cats)} rows, need {size}")
    counts = {}
    for c in cats:
        counts[c] = counts.get(c, 0) + 1
    alloc = datapipe.apportion(counts, size)
    rng = np.random.default_rng(seed)
    chosen = []
    for name in sorted(alloc):
        idx = np.flatnonzero(np.asarray([c == name for c in cats]))
        chosen.append(rng.permutation(idx)[: alloc[name]])
    return np.sort(np.concatenate(chosen))


def select_eval_subset_unique(split, size=100, seed=0):
    """The stratified test-set sample by category through np.unique over an
    object array, then one scan of its inverse per category."""
    cats = np.asarray(split.test_categories, dtype=object).reshape(-1)
    if cats.size < size:
        raise ValueError(f"test set has {cats.size} rows, need {size}")
    names, inverse, counts = np.unique(cats, return_inverse=True, return_counts=True)
    alloc = datapipe.apportion(dict(zip(names, counts.tolist())), size)
    rng = np.random.default_rng(seed)
    chosen = [
        rng.permutation(np.flatnonzero(inverse == k))[: alloc[name]]
        for k, name in enumerate(names)
    ]
    return np.sort(np.concatenate(chosen))


def parse_nslkdd_lists(path):
    """NSL-KDD rows parsed into one list per row, stacked at the end:
    (numeric (n, 38), categorical columns, labels)."""
    numeric_idx = [i for i, n in enumerate(datapipe.FEATURE_NAMES) if n not in datapipe.CATEGORICAL_COLUMNS]
    cat_idx = {c: datapipe.FEATURE_NAMES.index(c) for c in datapipe.CATEGORICAL_COLUMNS}
    rows, labels = [], []
    cats = {c: [] for c in datapipe.CATEGORICAL_COLUMNS}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 43:
                raise ValueError(f"{path}: line {lineno}: expected 43 fields, found {len(parts)}")
            try:
                values = [float(parts[i]) for i in numeric_idx]
            except ValueError:
                values = [math.nan]
            if not all(map(math.isfinite, values)):
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric or non-finite value in a numeric field"
                )
            rows.append(values)
            for c, i in cat_idx.items():
                cats[c].append(parts[i])
            labels.append(parts[41])
    return np.asarray(rows, dtype=float), cats, labels


def transform_tabular_concat(tr, numeric, cats):
    """transform_tabular as float64 blocks, one per column group, joined and
    then cast to float32."""
    x = np.asarray(numeric, dtype=float)
    safe = np.where(tr.stds > 0, tr.stds, 1.0)
    z = (x - tr.means) / safe
    z[:, tr.stds == 0] = 0.0
    blocks = [z]
    for col in datapipe.CATEGORICAL_COLUMNS:
        hot = np.zeros((x.shape[0], len(tr.levels[col])))
        for r, v in enumerate(cats[col]):
            idx = tr.mapping[col].get(v)
            if idx is not None:
                hot[r, idx] = 1.0
        blocks.append(hot)
    return np.concatenate(blocks, axis=1).astype(np.float32)


def transform_tfidf_dense(model, docs):
    """transform_tfidf as one dense float64 matrix, normalized row by row
    and cast to dense float32."""
    out = np.zeros((len(docs), len(model.vocabulary)))
    for r, doc in enumerate(docs):
        for term in datapipe.tokenize(doc, model.ngram_max):
            i = model.vocabulary.get(term)
            if i is not None:
                out[r, i] += 1.0
    out *= model.idf[None, :]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    out /= np.where(norms > 0, norms, 1.0)
    return out.astype(np.float32)


def csr_from_dense(x):
    """The CsrMatrix of a dense matrix: every entry but +0.0, row by row."""
    x = np.asarray(x, dtype=np.float32)
    stored = (x != 0) | np.signbit(x)
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))]).astype(np.int64)
    return datapipe.CsrMatrix(indptr, cols.astype(np.int32), x[rows, cols], x.shape)


def csr_file_bytes(x):
    """The bytes a CSR split file holds for a dense matrix: the int64 indptr
    (n+1), int32 column indices (nnz) and float32 values (nnz) of
    csr_from_dense, each little-endian, one after another."""
    c = csr_from_dense(x)
    parts = zip((c.indptr, c.indices, c.data), ("<i8", "<i4", "<f4"))
    return b"".join(np.asarray(a, t).tobytes() for a, t in parts)


def dense_from_csr(x):
    """A CsrMatrix as a dense float32 matrix, entry by entry."""
    out = np.zeros(x.shape, dtype=np.float32)
    for r in range(x.shape[0]):
        for k in range(x.indptr[r], x.indptr[r + 1]):
            out[r, x.indices[k]] = x.data[k]
    return out


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


# ------------------------------------------------------- per-state circuits


def bitstring(index: int, num_qubits: int) -> str:
    """The key of a basis index: z_{q-1} ... z_0, format(index, "0{q}b")."""
    return format(index, f"0{num_qubits}b")


@dataclass(frozen=True)
class PureState:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, got {amps.size}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm^2 = {norm}, not 1 within 1e-10")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def zero_state(num_qubits: int) -> PureState:
    amps = np.zeros(1 << num_qubits, dtype=complex)
    amps[0] = 1.0
    return PureState(num_qubits, amps)


@dataclass(frozen=True)
class DensityState:
    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 1 << self.num_qubits
        rho = np.asarray(self.matrix, dtype=complex).copy()
        if rho.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian within 1e-10")
        tr = complex(np.trace(rho)).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"trace = {tr}, not 1 within 1e-10")
        if float(np.min(np.linalg.eigvalsh(rho))) < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)

    def diagonal_probabilities(self) -> np.ndarray:
        return _diagonal_probabilities(self.matrix[None])[0]


def density_from_pure(state: PureState) -> DensityState:
    v = state.amplitudes
    return DensityState(state.num_qubits, np.outer(v, v.conj()))


def apply_circuit(state: PureState, program: CircuitProgram) -> PureState:
    """One pure state taken through the program gate by gate."""
    if state.num_qubits != program.num_qubits:
        raise ValueError("state/program qubit counts differ")
    amps = state.amplitudes[None, :, None]
    for op in program.ops:
        amps = _left(gate_matrix(op), amps, _target_rows(op.targets, program.num_qubits))
    return PureState(program.num_qubits, amps[0, :, 0])


def apply_circuit_noisy(
    state: DensityState, program: CircuitProgram, noise: NoiseSpec
) -> DensityState:
    """`qsim.evolve_density` on one state: unitary evolution with a
    depolarizing channel after every gate."""
    if state.num_qubits != program.num_qubits:
        raise ValueError("state/program qubit counts differ")
    return DensityState(state.num_qubits, evolve_density(state.matrix[None], program, noise)[0])


def required_shots(epsilon: float, delta: float) -> int:
    """Hoeffding shot budget: ceil(ln(2/delta) / (2 eps^2)) for +-1 outcomes."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))


def _vector(frequencies, num_qubits):
    freq = np.zeros(1 << num_qubits)
    for bits, c in frequencies.items():
        freq[int(bits, 2)] = c
    return freq


def _as_dict(freq, num_qubits):
    return {bitstring(i, num_qubits): float(v) for i, v in enumerate(freq)}


def mitigate_frequencies(frequencies, noise, num_qubits):
    """`qsim.mitigate` on a bitstring-keyed distribution.

    Applied to an analytically corrupted exact distribution this recovers
    the original to numerical precision.
    """
    return _as_dict(mitigate(_vector(frequencies, num_qubits), noise), num_qubits)


def corrupt_frequencies(frequencies, noise, num_qubits):
    """Forward application of the tensor-product readout confusion model."""
    return _as_dict(fold_readout(_vector(frequencies, num_qubits), noise), num_qubits)


def feature_state(theta: AngleVector, spec: FeatureMapSpec) -> PureState:
    """The feature map of one AngleVector, run by `apply_circuit`."""
    return apply_circuit(zero_state(spec.num_qubits), build_feature_map(theta, spec))


def fidelity_kernel(theta_a: AngleVector, theta_b: AngleVector, spec: FeatureMapSpec) -> float:
    """k(a, b) = |<phi(a)|phi(b)>|^2, clipped to [0, 1]."""
    va = feature_state(theta_a, spec).amplitudes
    vb = feature_state(theta_b, spec).amplitudes
    k = abs(np.vdot(va, vb)) ** 2
    return float(min(1.0, max(0.0, k)))


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
    circuit (`featuremap.kernel_shot_estimates` on one pair)."""
    return float(kernel_shot_estimates(theta_a, theta_b, spec, shots, noise, mitigate, [seed])[0])


def parameter_shift_grad(angle_rows, model, upstream, execution=Execution()):
    """Gradient of sum_i upstream_i * logit_i over (theta, scale, bias).

    Each rotation angle gets the two-point rule (f(+pi/2) - f(-pi/2)) / 2;
    scale and bias are analytic. Shot-mode evaluation is permitted but the
    result is a stochastic estimate, flagged in the output.
    """
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    up = np.broadcast_to(np.asarray(upstream, dtype=float).reshape(-1), (rows.shape[0],))
    stochastic = execution.mode == "shots"
    out = {
        "theta": np.zeros(model.spec.num_params),
        "scale": 0.0,
        "bias": 0.0,
        "stochastic": stochastic,
    }
    if not np.any(up):
        return out

    def evaluate(theta):
        shifted = VqcModel(model.spec, theta, model.scale, model.bias)
        if not stochastic:
            return _batch_expectations(rows, shifted)
        seeds = np.full(rows.shape[0], execution.seed)
        return _shot_parities(rows, shifted, execution, seeds)

    zhat = evaluate(model.theta)
    grad_theta = np.empty(model.spec.num_params)
    for j in range(model.spec.num_params):
        plus = model.theta.copy()
        minus = model.theta.copy()
        plus[j] += 0.5 * math.pi
        minus[j] -= 0.5 * math.pi
        dz = 0.5 * (evaluate(plus) - evaluate(minus))
        grad_theta[j] = float(np.dot(up, dz)) * model.scale
    out["theta"] = grad_theta
    out["scale"] = float(np.dot(up, zhat))
    out["bias"] = float(up.sum())
    return out


# ------------------------------------------------ gate-level statevectors

# the generator G of each non-diagonal parametric gate, exp(-i angle G / 2);
# a diagonal gate's generator is the diagonal _PHASE_SIGNS gives
_GENERATORS = {"RY": np.array([[0, -1j], [1j, 0]])}


def _run_phase(run, num_qubits):
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


def _compile(program):
    """The program as steps (op, matrix, signs): (None, diagonal, signs) from
    `_run_phase` for each run of consecutive diagonal gates, (op,
    gate_matrix(op), None) for every other gate. A run made of the same
    GateOp objects as an earlier one reuses its diagonal."""
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


def _apply(op, u, psi):
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


def evolve(program):
    """Statevectors (m, 2^q) of the program's m circuits run from |0...0>,
    gate by gate: row i sees the i-th angle of each (m,) angle array. Each
    run of consecutive diagonal gates is one multiply by one exp."""
    psi = np.zeros((program.m, 1 << program.num_qubits), dtype=complex)
    psi[:, 0] = 1.0
    for op, u, _ in _compile(program):
        psi = psi * u if op is None else _apply(op, u, psi)
    return psi


def adjoint(program, psi, lam):
    """The reverse sweep of the adjoint method (Jones & Gacon,
    arXiv:2009.02823) over `program`, gate by gate.

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
    for op, u, signs in reversed(_compile(program)):
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


def vqc_gate_adjoint(angle_rows, model):
    """vqc._adjoint on the gate list `build_vqc_circuit` builds: the states
    and <Z...Z> per row from `evolve`, and backward(upstream), the gradient
    dict of sum_i upstream_i * logit_i from `adjoint`. The float-angle
    gates are theta in program order, summed over rows; the (m,) data gates
    RZ(2 alpha_t) and RZZ(2 phi_ij) chain to the data angles through the
    pair phases phi_ij(alpha). Returns (psi, zhat, backward)."""
    spec = model.spec
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    program = build_vqc_circuit(rows, model)
    psi = evolve(program)
    parity = z_signs(spec.num_qubits)
    zhat = (np.abs(psi) ** 2) @ parity

    def backward(upstream):
        up = np.broadcast_to(np.asarray(upstream, dtype=float).reshape(-1), (rows.shape[0],))
        grads = adjoint(program, psi, (up[:, None] * parity) * psi)
        gates = [op for op in program.ops if op.angle is not None]
        shared = np.array([isinstance(op.angle, float) for op in gates])
        data = {}  # data gate targets -> derivative by its angle, summed over layers
        for op, g, is_shared in zip(gates, grads, shared):
            if not is_shared:
                data[op.targets] = data.get(op.targets, 0.0) + g
        slope = rows - math.pi if spec.second_order_coeff == "pi_minus" else rows
        dangles = np.zeros_like(rows)
        for targets, g in data.items():
            if len(targets) == 1:  # RZ(2 alpha_t)
                dangles[:, targets[0]] += 2.0 * g
            else:  # RZZ(2 phi_ij)
                i, j = targets
                dangles[:, i] += 2.0 * g * slope[:, j]
                dangles[:, j] += 2.0 * g * slope[:, i]
        return {
            "theta": model.scale * grads[shared].sum(axis=1),
            "scale": float(np.dot(up, zhat)),
            "bias": float(up.sum()),
            "angles": model.scale * dangles,
        }

    return psi, zhat, backward


# ---------------------------------------------------------------- circuits


def expectation_pauli_z(state, qubits):
    """<Z...Z> on `qubits` of a PureState."""
    return float(np.dot(z_signs(state.num_qubits, qubits), state.probabilities()))


def expectation_pauli_z_density(state, qubits):
    """<Z...Z> on `qubits` of a DensityState."""
    return float(np.dot(z_signs(state.num_qubits, qubits), np.real(np.diag(state.matrix))))


def circuit_depth(program):
    """Greedy ASAP layering depth."""
    level = [0] * program.num_qubits
    depth = 0
    for op in program.ops:
        layer = 1 + max(level[t] for t in op.targets)
        for t in op.targets:
            level[t] = layer
        depth = max(depth, layer)
    return depth


def gate_counts(program):
    """Number of gates of each kind."""
    out = {}
    for op in program.ops:
        out[op.kind] = out.get(op.kind, 0) + 1
    return out


# --------------------------------------------------------------------- vqc


def _sign_tables(num_qubits, pairs):
    """(2^q, q) signs (-1)^{z_t} and (2^q, #pairs) signs (-1)^{z_i xor z_j}."""
    idx = np.arange(1 << num_qubits)
    s1 = 1.0 - 2.0 * ((idx[:, None] >> np.arange(num_qubits)[None, :]) & 1)
    return s1, np.stack([s1[:, i] * s1[:, j] for i, j in pairs], axis=1)


def _expectations_with_extra(rows, model, block, extra):
    """<Z...Z> per row of the re-uploading circuit, simulated layer by layer
    with basis states on axis 0 (H layer, data diagonal, RY layer, RZ layer,
    CZ chain per block), with one more diagonal, `extra`, multiplied into the
    feature layer of re-upload block `block`."""
    spec = model.spec
    q = spec.num_qubits
    fspec = spec.feature_spec()
    s1, s2 = _sign_tables(q, fspec.pairs)
    data = np.exp(-1j * (rows @ s1.T + np.atleast_2d(pair_phases(rows, fspec)) @ s2.T)).T
    cz = np.ones(1 << q)
    for i in range(q - 1):
        cz[(s1[:, i] < 0) & (s1[:, i + 1] < 0)] *= -1.0
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    th = model.theta_blocks()
    psi = np.zeros((1 << q, rows.shape[0]), dtype=complex)
    psi[0] = 1.0
    for l in range(spec.reupload_layers):
        for t in range(q):
            psi = _apply_1q(h, psi, t, q)
        psi = psi * data
        if l == block:
            psi = psi * extra[:, None]
        for t in range(q):
            c, s = math.cos(0.5 * th[l, 0, t]), math.sin(0.5 * th[l, 0, t])
            psi = _apply_1q(np.array([[c, -s], [s, c]]), psi, t, q)
        psi = psi * np.exp(-0.5j * (s1 @ th[l, 1]))[:, None] * cz[:, None]
    return (np.abs(psi) ** 2).T @ z_signs(q)


def angle_gradients(angle_rows, model, upstream):
    """d(sum_i upstream_i * logit_i) / d(angle_rows) by the shift rule.

    Every occurrence of a data angle (one RZ per block, plus the two chain
    RZZ phases it feeds) is shifted separately and combined by the chain
    rule with the phase's sensitivity to the angle.
    """
    spec = model.spec
    q = spec.num_qubits
    rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
    up = np.broadcast_to(np.asarray(upstream, dtype=float).reshape(-1), (rows.shape[0],))
    fspec = spec.feature_spec()
    s1, s2 = _sign_tables(q, fspec.pairs)
    grads = np.zeros_like(rows)

    def shifted_pair(extra_col, block):
        plus = np.exp(-0.25j * math.pi * extra_col)
        zp = _expectations_with_extra(rows, model, block, plus)
        zm = _expectations_with_extra(rows, model, block, np.conj(plus))
        return 0.5 * (zp - zm)

    for l in range(spec.reupload_layers):
        for t in range(q):
            # RZ(2 alpha_t): d(gate angle)/d(alpha) = 2
            dz = shifted_pair(s1[:, t], l)
            grads[:, t] += 2.0 * up * model.scale * dz
        for p, (i, j) in enumerate(fspec.pairs):
            # RZZ(2 phi_ij): d(gate angle)/d(alpha) = 2 dphi/dalpha
            dz = shifted_pair(s2[:, p], l)
            if spec.second_order_coeff == "pi_minus":
                di = -(math.pi - rows[:, j])
                dj = -(math.pi - rows[:, i])
            else:
                di = rows[:, j]
                dj = rows[:, i]
            grads[:, i] += 2.0 * di * up * model.scale * dz
            grads[:, j] += 2.0 * dj * up * model.scale * dz
    return grads


# ------------------------------------------------------------------ encoder


def gelu(t):
    """Exact GELU, t * Phi(t)."""
    return t * ndtr(t)


def gelu_grad(t):
    """d/dt of t * Phi(t), with Phi evaluated afresh."""
    pdf = np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return ndtr(t) + t * pdf


def scale(embedding, scaler):
    """The scaler's values alone (encoder.scale_with_grad without the
    derivative factors)."""
    return scale_with_grad(embedding, scaler)[0]


def encoder_forward(model, x, training, rng):
    """The encoder forward pass as whole-array expressions, caching each
    block's pre-GELU h: (logits, cache) with the keys the backward oracle
    reads."""
    p = model.params
    a = np.asarray(x, dtype=float)
    cache = {"inputs": [], "xhat": [], "inv_std": [], "pre_gelu": [], "masks": []}
    drop = model.config.dropout
    for i in range(model.num_blocks):
        cache["inputs"].append(a)
        z = a @ p[f"block{i}.W"].T + p[f"block{i}.b"]
        mu = z.mean(axis=-1, keepdims=True)
        var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (z - mu) * inv_std
        cache["xhat"].append(xhat)
        cache["inv_std"].append(inv_std)
        h = p[f"block{i}.gamma"] * xhat + p[f"block{i}.beta"]
        cache["pre_gelu"].append(h)
        a = gelu(h)
        if training and drop > 0.0:
            mask = (rng.random(a.shape) >= drop).astype(float)
            a = a * mask / (1.0 - drop)
            cache["masks"].append(mask)
        else:
            cache["masks"].append(None)
    cache["embed_in"] = a
    v = a @ p["embed.W"].T + p["embed.b"]
    norms = np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-12)
    cache["e"] = v / norms
    cache["norms"] = norms
    return cache["e"] @ p["clf.W"].T + p["clf.b"], cache


def encoder_backward(model, cache, de):
    """Backprop from the embedding with every gradient zero-filled first,
    Phi(h) recomputed, and the input gradient of every block formed:
    (gradients, d loss / d input rows)."""
    p = model.params
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dv = (de - (de * cache["e"]).sum(axis=-1, keepdims=True) * cache["e"]) / cache["norms"]
    grads["embed.W"] = dv.T @ cache["embed_in"]
    grads["embed.b"] = dv.sum(axis=0)
    da = dv @ p["embed.W"]
    drop = model.config.dropout
    for i in reversed(range(model.num_blocks)):
        mask = cache["masks"][i]
        if mask is not None:
            da = da * mask / (1.0 - drop)
        dh = da * gelu_grad(cache["pre_gelu"][i])
        xhat = cache["xhat"][i]
        grads[f"block{i}.gamma"] = (dh * xhat).sum(axis=0)
        grads[f"block{i}.beta"] = dh.sum(axis=0)
        dxhat = dh * p[f"block{i}.gamma"]
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dz = (dxhat - m1 - xhat * m2) * cache["inv_std"][i]
        grads[f"block{i}.W"] = dz.T @ cache["inputs"][i]
        grads[f"block{i}.b"] = dz.sum(axis=0)
        da = dz @ p[f"block{i}.W"]
    return grads, da


def encoder_loss_and_gradients(model, x, y, class_weights=(1.0, 1.0), dropout_seed=None):
    """Weighted cross-entropy and its gradients through the two oracles above."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int).reshape(-1)
    training = dropout_seed is not None
    rng = np.random.default_rng(dropout_seed) if training else None
    logits, cache = encoder_forward(model, x, training, rng)
    w = np.asarray(class_weights, dtype=float)[y]
    wsum = w.sum()
    ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = ex / ex.sum(axis=-1, keepdims=True)
    ce = -np.log(np.maximum(probs[np.arange(y.size), y], 1e-300))
    loss = float((w * ce).sum() / wsum)
    dlogits = probs.copy()
    dlogits[np.arange(y.size), y] -= 1.0
    dlogits *= (w / wsum)[:, None]
    grads, _ = encoder_backward(model, cache, dlogits @ model.params["clf.W"])
    grads["clf.W"] = dlogits.T @ cache["e"]
    grads["clf.b"] = dlogits.sum(axis=0)
    return loss, grads


def loss_and_gradients(model, x, y, class_weights=(1.0, 1.0), dropout_seed=None):
    """Weighted softmax cross-entropy and full backpropagation through the
    package's training step (encoder._loss) over one workspace of x's rows.

    The loss is sum(w_i * ce_i) / sum(w_i), so duplicating a sample is
    exactly equivalent to doubling its weight. Weight decay is applied in
    the optimizer step, never here.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int).reshape(-1)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if y.size != x.shape[0]:
        raise ValueError(f"{y.size} labels for {x.shape[0]} rows")
    _check_labels(y)
    rng = np.random.default_rng(dropout_seed) if dropout_seed is not None else None
    ws = _Workspace(model, x.shape[0], cache=True, masks=rng is not None and model.config.dropout > 0.0)
    _gather_rows(x, ws)(slice(0, x.shape[0]))
    return _loss(model, ws, x.shape[0], y, np.asarray(class_weights, dtype=float), rng)


class AllocatingAdam:
    """Adam with decoupled weight decay on `.W` keys, one whole-array
    expression per quantity; rebinds m, v and every parameter each step."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads, lr, weight_decay):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for k, g in grads.items():
            self.m[k] = ADAM_BETA1 * self.m[k] + (1 - ADAM_BETA1) * g
            self.v[k] = ADAM_BETA2 * self.v[k] + (1 - ADAM_BETA2) * g * g
            update = (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + ADAM_EPS)
            if weight_decay and k.endswith(".W"):
                update = update + weight_decay * params[k]
            params[k] = params[k] - lr * update
