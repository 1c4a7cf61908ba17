"""Leakage-safe ingestion for the two benchmark corpora.

Tabular connection records (41 features, three categorical columns) and a
spam/ham message tree share the same contract: every transformer is fitted
on training rows only, splits are stratified and seeded, and the resulting
bundles carry source-file hashes for audit. A tabular split's feature
matrices are dense float32. A tf-idf split's are CSR (CsrMatrix, float32
values), in memory and on disk, since under 1% of their entries are
nonzero; the encoder scatters their rows only into its own float64
workspaces. Numerical kernels promote to float64 where it matters.

A saved split stores each array in its own dtype, so nothing is cast on
save or load: x_*.f32 and y_*.i64 files, or one x_*.csr file of a CSR
matrix's int64 indptr, int32 column indices and float32 values. split.json
holds no digest of them: the stage marker records every file's hash
(harness._stage).
"""
from __future__ import annotations

import math
import operator
import re
import sys
import warnings
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from . import persist
from .stopwords import ENGLISH_STOPWORDS, STOPWORDS_VERSION

FEATURE_NAMES = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate",
    "srv_diff_host_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate",
    "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
)
CATEGORICAL_COLUMNS = ("protocol_type", "service", "flag")
NUMERIC_COLUMNS = tuple(n for n in FEATURE_NAMES if n not in CATEGORICAL_COLUMNS)
RARE_TOKEN = "__RARE__"
RARE_MIN_COUNT = 50
NORMAL_LABEL = "normal"

assert len(FEATURE_NAMES) == 41
_NUMERIC_FIELDS = operator.itemgetter(*(FEATURE_NAMES.index(n) for n in NUMERIC_COLUMNS))
_CATEGORICAL_FIELDS = tuple((c, FEATURE_NAMES.index(c)) for c in CATEGORICAL_COLUMNS)
# rows of float64 standardized values transform_tabular holds at a time
TRANSFORM_ROWS = 4096
# bytes of dense float64 tf-idf rows transform_tfidf holds at a time
TFIDF_BLOCK_BYTES = 1 << 20


# ---------------------------------------------------------------- tabular


@dataclass
class TabularTransformer:
    """Train-fitted standardization plus rare-bucketed one-hot encoding.
    split.json records its fields; the constructor makes means and stds float arrays."""

    means: np.ndarray
    stds: np.ndarray
    levels: Dict[str, List[str]]          # one-hot order per column
    mapping: Dict[str, Dict[str, int]]    # raw level -> hot index
    rare_threshold: int = RARE_MIN_COUNT

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.stds = np.asarray(self.stds, dtype=float)

    @property
    def width(self) -> int:
        return len(NUMERIC_COLUMNS) + sum(len(v) for v in self.levels.values())


def fit_tabular(
    numeric: np.ndarray, cats: Mapping[str, Sequence[str]], rare_threshold: int = RARE_MIN_COUNT
) -> TabularTransformer:
    x = np.asarray(numeric, dtype=float)
    means = x.mean(axis=0)
    stds = x.std(axis=0)
    levels: Dict[str, List[str]] = {}
    mapping: Dict[str, Dict[str, int]] = {}
    for col in CATEGORICAL_COLUMNS:
        counts: Dict[str, int] = {}
        for v in cats[col]:
            counts[v] = counts.get(v, 0) + 1
        kept = sorted(v for v, c in counts.items() if c >= rare_threshold)
        rare = sorted(v for v, c in counts.items() if c < rare_threshold)
        order = kept + ([RARE_TOKEN] if rare else [])
        m = {v: i for i, v in enumerate(kept)}
        for v in rare:
            m[v] = len(kept)
        levels[col] = order
        mapping[col] = m
    return TabularTransformer(means, stds, levels, mapping, rare_threshold)


def transform_tabular(
    tr: TabularTransformer, numeric: np.ndarray, cats: Mapping[str, Sequence[str]]
) -> np.ndarray:
    """The rows as one float32 (n, tr.width) matrix: the numeric columns
    standardized by the train means and stds (a constant column is 0), then
    each categorical column one-hot in tr.levels order (an unseen level stays
    all zeros). The matrix is allocated once. The standardized values are
    computed in float64 blocks of TRANSFORM_ROWS rows and cast on assignment,
    which rounds as .astype(np.float32) does, and the hot entries are set in
    place."""
    x = np.asarray(numeric, dtype=float)
    n, start = x.shape
    out = np.zeros((n, tr.width), dtype=np.float32)
    safe = np.where(tr.stds > 0, tr.stds, 1.0)
    for lo in range(0, n, TRANSFORM_ROWS):
        z = (x[lo : lo + TRANSFORM_ROWS] - tr.means) / safe
        z[:, tr.stds == 0] = 0.0  # constant columns carry no signal
        out[lo : lo + TRANSFORM_ROWS, :start] = z
    for col in CATEGORICAL_COLUMNS:
        m = tr.mapping[col]
        hot = np.fromiter((m.get(v, -1) for v in cats[col]), dtype=np.intp, count=n)
        rows = np.flatnonzero(hot >= 0)  # an unseen level (-1) stays all zeros
        out[rows, start + hot[rows]] = 1.0
        start += len(tr.levels[col])
    return out


def _parse_nslkdd(path) -> Tuple[np.ndarray, Dict[str, List[str]], List[str]]:
    """(numeric, categorical columns, labels) of the nonblank lines of an
    NSL-KDD file: numeric is float64 (rows, 38), the rest are lists of
    strings. A first pass counts the lines; the second writes each row into
    one preallocated array, which is then sliced to the rows kept. The
    categorical and label strings are interned, so a level is one object
    however many rows carry it. A line without 43 fields, or with a numeric
    field that float() rejects or reads as non-finite, raises ValueError
    naming its line."""
    cats: Dict[str, List[str]] = {c: [] for c in CATEGORICAL_COLUMNS}
    labels: List[str] = []
    with open(path, "r", encoding="utf-8") as f:
        numeric = np.empty((sum(1 for _ in f), len(NUMERIC_COLUMNS)))
        f.seek(0)
        rows = 0
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 43:
                raise ValueError(
                    f"{path}: line {lineno}: expected 43 fields, found {len(parts)}"
                )
            try:
                values = list(map(float, _NUMERIC_FIELDS(parts)))
            except ValueError:
                values = [math.nan]
            # float() parses nan, inf and 1e400 too; each would NaN a column
            if not all(map(math.isfinite, values)):
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric or non-finite value in a numeric field"
                )
            numeric[rows] = values
            rows += 1
            for c, i in _CATEGORICAL_FIELDS:
                cats[c].append(sys.intern(parts[i]))
            labels.append(sys.intern(parts[41]))  # parts[42] is the difficulty score, dropped
    return numeric[:rows], cats, labels


# ------------------------------------------------------------------ text

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str, ngram_max: int = 1) -> List[str]:
    """Lowercase, split on non-alphanumeric runs, drop pure digits and
    stopwords; n-grams are built from the surviving token stream."""
    toks = [
        t
        for t in _TOKEN_RE.findall(text.lower())
        if not t.isdigit() and t not in ENGLISH_STOPWORDS
    ]
    terms = list(toks)
    for n in range(2, ngram_max + 1):
        terms.extend(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))
    return terms


@dataclass
class TfidfModel:
    vocabulary: Dict[str, int]  # term -> column, lexicographic order
    idf: np.ndarray
    doc_freq: np.ndarray
    num_train_docs: int
    min_df: int = 2
    max_df: float = 0.95
    ngram_max: int = 1

    def terms(self) -> List[str]:
        out = [""] * len(self.vocabulary)
        for t, i in self.vocabulary.items():
            out[i] = t
        return out


def fit_tfidf(
    terms: Sequence[List[str]], min_df: int = 2, max_df: float = 0.95, ngram_max: int = 1
) -> TfidfModel:
    """The tf-idf model of the documents whose term lists (tokenize, at
    ngram_max) are given: the terms found in at least min_df and at most
    max_df of them, in lexicographic order, with smoothed idf."""
    n = len(terms)
    if not n:
        raise ValueError("empty corpus")
    df: Dict[str, int] = {}
    for doc_terms in terms:
        for term in set(doc_terms):
            df[term] = df.get(term, 0) + 1
    kept = sorted(t for t, c in df.items() if c >= min_df and c <= max_df * n)
    vocab = {t: i for i, t in enumerate(kept)}
    freq = np.array([df[t] for t in kept], dtype=float)
    idf = np.log((1.0 + n) / (1.0 + freq)) + 1.0
    return TfidfModel(vocab, idf, freq, n, min_df, max_df, ngram_max)


def transform_tfidf(model: TfidfModel, terms: Iterable[List[str]]) -> CsrMatrix:
    """The l2-normalized tf-idf rows of the documents whose term lists
    (tokenize) are given, as a float32 CsrMatrix; the lists are read one row
    block at a time, so a generator of them is never held whole. Rows are
    computed in dense float64 blocks of at most TFIDF_BLOCK_BYTES by the
    whole-matrix recipe's operations (counts, times idf, divided by the
    row's np.linalg.norm, cast to float32), so every value has that recipe's
    bits; a block keeps only its nonzero entries."""
    terms = iter(terms)
    d = len(model.vocabulary)
    step = max(1, TFIDF_BLOCK_BYTES // (8 * max(d, 1)))
    block = np.zeros((step, d))
    counts, indices, data = [np.zeros(0, np.int64)], [np.zeros(0, np.int32)], [np.zeros(0, np.float32)]
    while True:
        m = 0
        for doc_terms in islice(terms, step):
            for term in doc_terms:
                i = model.vocabulary.get(term)
                if i is not None:
                    block[m, i] += 1.0
            m += 1
        if not m:
            break
        rows = block[:m]
        rows *= model.idf[None, :]
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        rows /= np.where(norms > 0, norms, 1.0)
        values = rows.astype(np.float32)
        r, c = np.nonzero(values)  # tf-idf values are >= 0, so no -0.0 is dropped
        counts.append(np.bincount(r, minlength=m))
        indices.append(c.astype(np.int32))
        data.append(values[r, c])
        rows.fill(0.0)
    row_counts = np.concatenate(counts)
    indptr = np.zeros(row_counts.size + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    return CsrMatrix(indptr, np.concatenate(indices), np.concatenate(data), (row_counts.size, d))


# ----------------------------------------------------------------- splits


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A float32 matrix in compressed sparse row form (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., section 3.4): row r stores
    data[indptr[r]:indptr[r + 1]] in the columns indices[indptr[r]:indptr[r
    + 1]], increasing. Every entry but +0.0 is stored. A tf-idf split holds
    its feature matrices this way; the encoder scatters their rows into its
    own float64 workspaces (row take, then cells)."""

    indptr: np.ndarray   # int64, n + 1 offsets from 0 to nnz
    indices: np.ndarray  # int32, nnz
    data: np.ndarray     # float32, nnz
    shape: Tuple[int, int]

    def __getitem__(self, rows) -> "CsrMatrix":
        """Row take: the rows a slice or a 1-D index array picks, in its order."""
        idx = np.arange(self.shape[0])[rows]
        if idx.ndim != 1:
            raise IndexError("a CsrMatrix takes rows by a slice or a 1-D index array")
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        src = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return CsrMatrix(indptr, self.indices[src], self.data[src], (idx.size, self.shape[1]))

    def cells(self) -> np.ndarray:
        """The flat index of each stored entry in the row-major dense matrix."""
        n, d = self.shape
        return np.repeat(np.arange(n, dtype=np.int64) * d, np.diff(self.indptr)) + self.indices


def feature_rows(x):
    """x as a stack of feature rows: a CsrMatrix as it is, anything else as
    an array of at least two dimensions."""
    return x if isinstance(x, CsrMatrix) else np.atleast_2d(np.asarray(x))


@dataclass
class DatasetSplit:
    # x_* are dense float32 arrays, or CsrMatrix for a tf-idf split; load_split
    # leaves a feature matrix it was not asked for as None
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    class_weights: Tuple[float, float]
    seed: int
    transformer: object
    test_categories: List[str]
    meta: dict = field(default_factory=dict)


def class_weights(labels) -> Tuple[float, float]:
    """w_c = n / (2 n_c); requires both classes."""
    y = np.asarray(labels, dtype=int).reshape(-1)
    n0, n1 = int(np.sum(y == 0)), int(np.sum(y == 1))
    if n0 == 0 or n1 == 0:
        raise ValueError("both classes must be present")
    n = n0 + n1
    return (n / (2.0 * n0), n / (2.0 * n1))


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    base = np.floor(quotas).astype(int)
    short = total - int(base.sum())
    if short > 0:
        order = np.argsort(-(quotas - base), kind="stable")
        base[order[:short]] += 1
    return base


def stratified_take(y: np.ndarray, fraction: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """(kept, taken) index arrays; per-class counts off by at most one."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must lie in [0, 1)")
    y = np.asarray(y, dtype=int).reshape(-1)
    rng = np.random.default_rng(seed)
    classes = np.unique(y)
    target = int(round(fraction * y.size))
    quotas = np.array([fraction * np.sum(y == c) for c in classes])
    alloc = _largest_remainder(quotas, target)
    taken: List[np.ndarray] = []
    for c, k in zip(classes, alloc):
        idx = np.flatnonzero(y == c)
        k = min(int(k), idx.size)
        taken.append(rng.permutation(idx)[:k])
    take = np.sort(np.concatenate(taken)) if taken else np.empty(0, dtype=int)
    keep = np.setdiff1d(np.arange(y.size), take)
    return keep, take


def load_nslkdd(train_path, test_path, val_fraction: float = 0.2, seed: int = 0) -> DatasetSplit:
    """Tabular connection records: difficulty dropped, labels binarized
    (anything but "normal" is an attack), numerics standardized and
    categoricals one-hot encoded with train-only statistics."""
    tr_num, tr_cat, tr_raw = _parse_nslkdd(train_path)
    te_num, te_cat, te_raw = _parse_nslkdd(test_path)
    y_all = np.array([0 if lab == NORMAL_LABEL else 1 for lab in tr_raw], dtype=int)
    keep, take = stratified_take(y_all, val_fraction, seed)
    fit_num, val_num = tr_num[keep], tr_num[take]
    del tr_num

    fit_cats = {c: [tr_cat[c][i] for i in keep] for c in CATEGORICAL_COLUMNS}
    tr = fit_tabular(fit_num, fit_cats)
    val_cats = {c: [tr_cat[c][i] for i in take] for c in CATEGORICAL_COLUMNS}

    x_train = transform_tabular(tr, fit_num, fit_cats)
    x_val = transform_tabular(tr, val_num, val_cats)
    x_test = transform_tabular(tr, te_num, te_cat)
    y_train, y_val = y_all[keep], y_all[take]
    y_test = np.array([0 if lab == NORMAL_LABEL else 1 for lab in te_raw], dtype=int)
    return DatasetSplit(
        x_train, y_train, x_val, y_val, x_test, y_test,
        class_weights(y_train), seed, tr, list(te_raw),
        meta={
            "dataset": "nslkdd",
            "val_fraction": val_fraction,
        },
    )


def lingspam_files(root_path) -> Tuple[Path, List[Path]]:
    """(base, files): a Ling-Spam corpus's message tree (its bare/
    subdirectory when present, else the root) and every file under it, sorted."""
    base = Path(root_path)
    if not base.is_dir():
        raise FileNotFoundError(f"corpus root {base} is not a directory")
    if (base / "bare").is_dir():
        base = base / "bare"
    return base, sorted(p for p in base.rglob("*") if p.is_file())


def load_lingspam(
    listing: Tuple[Path, List[Path]],
    test_fraction: float = 0.2,
    val_fraction: float = 0.2,
    seed: int = 0,
    ngram_max: int = 1,
) -> DatasetSplit:
    """The files of one lingspam_files listing, the very files a caller hashed:
    filenames starting with "spmsg" are spam. TF-IDF is fitted on the training
    documents only; val_fraction applies to what remains after the test carve."""
    base, files = listing
    docs: List[str] = []
    labels: List[int] = []
    skipped = 0
    for p in files:
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            warnings.warn(f"skipping unreadable file {p}")
            skipped += 1
            continue
        docs.append(text)
        labels.append(1 if p.name.startswith("spmsg") else 0)
    if not docs:
        raise ValueError(f"no readable documents under {base}")
    y = np.asarray(labels, dtype=int)

    s_test, s_val = np.random.SeedSequence(seed).generate_state(2)
    rest, test_idx = stratified_take(y, test_fraction, int(s_test))
    keep_rel, take_rel = stratified_take(y[rest], val_fraction, int(s_val))
    train_idx, val_idx = rest[keep_rel], rest[take_rel]

    # each train message is tokenized once, for the fit and for its rows;
    # the held term lists share one string per distinct term, so they cost
    # about a pointer per token
    shared: Dict[str, str] = {}
    train_terms = [[shared.setdefault(t, t) for t in tokenize(docs[i], ngram_max)]
                   for i in train_idx]
    model = fit_tfidf(train_terms, min_df=2, max_df=0.95, ngram_max=ngram_max)
    x_train = transform_tfidf(model, train_terms)
    x_val = transform_tfidf(model, (tokenize(docs[i], ngram_max) for i in val_idx))
    x_test = transform_tfidf(model, (tokenize(docs[i], ngram_max) for i in test_idx))
    y_train, y_val, y_test = y[train_idx], y[val_idx], y[test_idx]
    return DatasetSplit(
        x_train, y_train, x_val, y_val, x_test, y_test,
        class_weights(y_train), seed, model,
        ["spam" if v else "ham" for v in y_test],
        meta={
            "dataset": "lingspam",
            "variant": "bare",
            "test_fraction": test_fraction,
            "val_fraction": val_fraction,
            "ngram_max": ngram_max,
            "skipped_files": skipped,
            "stopwords_version": STOPWORDS_VERSION,
            "tfidf": "tf=count, idf=ln((1+N)/(1+df))+1, l2 rows",
        },
    )


# ------------------------------------------------------- evaluation subset


def apportion(counts: Mapping[str, int], size: int) -> Dict[str, int]:
    """Largest-remainder seats with an at-least-one floor per category.

    When rounding leaves a category empty, it takes one slot from the
    largest allocation (ties: larger count, then earlier name).
    """
    names = sorted(counts)
    if len(names) > size:
        raise ValueError(
            f"{len(names)} categories exceed {size} slots: {', '.join(names)}"
        )
    n = np.array([counts[c] for c in names], dtype=float)
    total = n.sum()
    alloc = _largest_remainder(size * n / total, size)
    while (alloc == 0).any():
        zero = int(np.flatnonzero(alloc == 0)[0])
        donors = np.lexsort((np.arange(len(names)), -n, -alloc))
        alloc[int(donors[0])] -= 1
        alloc[zero] = 1
    return {c: int(a) for c, a in zip(names, alloc)}


def stratified_indices(labels, size: int, seed: int) -> np.ndarray:
    """Sorted indices of a label-stratified sample of `size` rows (every
    row when there are no more). Each label's rows are shuffled by their
    own generator, seeded by (seed, label), and the first apportioned
    slots are kept."""
    y = np.asarray(labels, dtype=int).reshape(-1)
    if y.size <= size:
        return np.arange(y.size)
    alloc = apportion({str(c): int((y == c).sum()) for c in np.unique(y)}, size)
    picked = []
    for name, take in sorted(alloc.items()):
        rng = np.random.default_rng(np.random.SeedSequence([seed, int(name)]))
        picked.append(rng.permutation(np.flatnonzero(y == int(name)))[:take])
    return np.sort(np.concatenate(picked))


def select_eval_subset(split: DatasetSplit, size: int = 100, seed: int = 0) -> np.ndarray:
    """Stratified test-set sample by original category; sorted indices.

    Uses the raw attack names for tabular records (pre-binarization) and
    spam/ham for messages, so every attack family present in the test set
    lands in the subset.
    """
    # grouped as Python str compares, never through a fixed-width "U"
    # array, which drops trailing NULs and would merge "a\x00" with "a"
    cats = list(split.test_categories)
    if len(cats) < size:
        raise ValueError(f"test set has {len(cats)} rows, need {size}")
    names = sorted(set(cats))
    index = {name: k for k, name in enumerate(names)}
    codes = np.fromiter(map(index.__getitem__, cats), dtype=np.intp, count=len(cats))
    counts = np.bincount(codes, minlength=len(names))
    alloc = apportion(dict(zip(names, counts.tolist())), size)
    rng = np.random.default_rng(seed)
    # a stable sort keeps each category's rows in ascending order
    groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(counts)[:-1])
    chosen = [rng.permutation(rows)[: alloc[name]] for name, rows in zip(names, groups)]
    return np.sort(np.concatenate(chosen))


# ------------------------------------------------------------ persistence


def _array_file(name: str, meta: dict):
    """(file name, [(dtype, shape)] of its arrays) of a save_split array: a
    CSR matrix's int64 indptr, int32 column indices and float32 values, one
    after another in name.csr; else a dense float32 x_* (name.f32) or an
    int64 label vector (name.i64)."""
    shape = tuple(meta["shape"])
    if meta.get("layout") == "csr":
        nnz = meta["nnz"]
        return f"{name}.csr", [("<i8", (shape[0] + 1,)), ("<i4", (nnz,)), ("<f4", (nnz,))]
    if name.startswith("x_"):
        return f"{name}.f32", [("<f4", shape)]
    return f"{name}.i64", [("<i8", shape)]


def _checked_csr(indptr, indices, data, shape, name: str) -> CsrMatrix:
    """The CsrMatrix of a save_split CSR file's arrays; ValueError unless
    indptr starts at 0, never decreases and ends at nnz, and the column
    indices lie in [0, d), strictly increasing in each row."""
    n, d = shape
    if not (indptr[0] == 0 and indptr[-1] == indices.size and np.all(np.diff(indptr) >= 0)):
        raise ValueError(f"{name}: indptr must be integers from 0 to nnz that never decrease")
    if not np.all((indices >= 0) & (indices < d)):
        raise ValueError(f"{name}: column indices must be integers in [0, {d})")
    x = CsrMatrix(indptr, indices, data, (n, d))
    if np.any(np.diff(x.cells()) <= 0):
        raise ValueError(f"{name}: column indices must increase strictly within each row")
    return x


def save_split(split: DatasetSplit, directory) -> dict:
    """Write the split under `directory`: split.json plus one file per array
    in its own dtype (_array_file). A CsrMatrix (a tf-idf split's x_*) is
    written as name.csr; every other array is dense. A TabularTransformer is
    recorded by its fields, a TfidfModel by its terms, counts and .f64 arrays."""
    d = Path(directory)
    arrays = {
        "x_train": split.x_train, "y_train": split.y_train,
        "x_val": split.x_val, "y_val": split.y_val,
        "x_test": split.x_test, "y_test": split.y_test,
    }
    manifest = {}
    for name, arr in arrays.items():
        if isinstance(arr, CsrMatrix):
            meta = {"shape": list(arr.shape), "nnz": int(arr.data.size), "layout": "csr"}
            parts = (arr.indptr, arr.indices, arr.data)
        else:
            arr = np.asarray(arr)
            meta, parts = {"shape": list(arr.shape)}, (arr,)
        fname, layout = _array_file(name, meta)
        persist.save_arrays(
            d / fname, [np.asarray(a, dtype) for a, (dtype, _) in zip(parts, layout)]
        )
        manifest[name] = meta
    tr = split.transformer
    if isinstance(tr, TabularTransformer):
        transformer = {f.name: np.asarray(getattr(tr, f.name)).tolist() for f in fields(tr)}
        transformer["kind"] = "tabular"
    elif isinstance(tr, TfidfModel):
        persist.save_arrays(d / "idf.f64", (tr.idf,))
        persist.save_arrays(d / "doc_freq.f64", (tr.doc_freq,))
        transformer = {
            "kind": "tfidf",
            "terms": tr.terms(),
            "num_train_docs": tr.num_train_docs,
            "min_df": tr.min_df,
            "max_df": tr.max_df,
            "ngram_max": tr.ngram_max,
        }
    else:
        raise TypeError(f"unknown transformer {type(tr).__name__}")
    header = {
        "seed": split.seed,
        "class_weights": list(split.class_weights),
        "test_categories": split.test_categories,
        "arrays": manifest,
        "transformer": transformer,
        "meta": split.meta,
    }
    persist.save_json(d / "split.json", header)
    return header


def load_split(directory, unverified=None, features=("x_train", "x_val", "x_test")) -> DatasetSplit:
    """The split save_split wrote; each file `unverified` holds is
    hash-checked on its read (persist.load_json, persist.load_arrays) and
    its arrays come back in their own dtypes, as views of the bytes read. A
    CSR entry is checked for structure (_checked_csr) and comes back as a
    CsrMatrix; a tabular transformer is TabularTransformer(**its record).
    Only the feature matrices named in `features` are read; the others are
    None, and their files stay in `unverified` for the caller's
    persist.check_files."""
    d = Path(directory)
    header = persist.load_json(d / "split.json", unverified)
    arrays = {}
    for name, meta in header["arrays"].items():
        if name.startswith("x_") and name not in features:
            continue
        fname, layout = _array_file(name, meta)
        parts = persist.load_arrays(d / fname, layout, unverified)
        if meta.get("layout") == "csr":
            arrays[name] = _checked_csr(*parts, tuple(meta["shape"]), fname)
        else:
            arrays[name] = parts[0]
    t = dict(header["transformer"])
    if t.pop("kind") == "tabular":
        transformer: object = TabularTransformer(**t)
    else:
        terms = t["terms"]
        [idf] = persist.load_arrays(d / "idf.f64", [("<f8", (len(terms),))], unverified)
        [doc_freq] = persist.load_arrays(d / "doc_freq.f64", [("<f8", (len(terms),))], unverified)
        transformer = TfidfModel(
            {term: i for i, term in enumerate(terms)},
            idf,
            doc_freq,
            int(t["num_train_docs"]),
            int(t["min_df"]),
            float(t["max_df"]),
            int(t["ngram_max"]),
        )
    return DatasetSplit(
        arrays.get("x_train"), arrays["y_train"],
        arrays.get("x_val"), arrays["y_val"],
        arrays.get("x_test"), arrays["y_test"],
        tuple(header["class_weights"]), int(header["seed"]),
        transformer, list(header["test_categories"]), dict(header["meta"]),
    )
