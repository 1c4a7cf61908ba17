"""Leakage-safe ingestion for the two benchmark corpora.

Tabular connection records (41 features, three categorical columns) and a
spam/ham message tree share the same contract: every transformer is fitted
on training rows only, splits are stratified and seeded, and the resulting
bundles carry source-file hashes for audit. Feature matrices are dense
float32; numerical kernels promote to float64 where it matters. On disk a
tf-idf split's feature matrices are CSR (about 2% of their entries are
nonzero), and load_split expands them back to the same dense float32.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

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


# ---------------------------------------------------------------- tabular


@dataclass
class TabularTransformer:
    """Train-fitted standardization plus rare-bucketed one-hot encoding."""

    means: np.ndarray
    stds: np.ndarray
    levels: Dict[str, List[str]]          # one-hot order per column
    mapping: Dict[str, Dict[str, int]]    # raw level -> hot index
    rare_threshold: int = RARE_MIN_COUNT

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
    x = np.asarray(numeric, dtype=float)
    safe = np.where(tr.stds > 0, tr.stds, 1.0)
    z = (x - tr.means) / safe
    z[:, tr.stds == 0] = 0.0  # constant columns carry no signal
    blocks = [z]
    for col in CATEGORICAL_COLUMNS:
        hot = np.zeros((x.shape[0], len(tr.levels[col])))
        m = tr.mapping[col]
        for r, v in enumerate(cats[col]):
            idx = m.get(v)
            if idx is not None:  # unseen level stays all-zeros
                hot[r, idx] = 1.0
        blocks.append(hot)
    return np.concatenate(blocks, axis=1).astype(np.float32)


def _parse_nslkdd(path) -> Tuple[np.ndarray, Dict[str, List[str]], List[str]]:
    numeric_idx = [i for i, n in enumerate(FEATURE_NAMES) if n not in CATEGORICAL_COLUMNS]
    cat_idx = {c: FEATURE_NAMES.index(c) for c in CATEGORICAL_COLUMNS}
    rows: List[List[float]] = []
    cats: Dict[str, List[str]] = {c: [] for c in CATEGORICAL_COLUMNS}
    labels: List[str] = []
    with open(path, "r", encoding="utf-8") as f:
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
                rows.append([float(parts[i]) for i in numeric_idx])
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: non-numeric value in a numeric field"
                ) from None
            for c, i in cat_idx.items():
                cats[c].append(parts[i])
            labels.append(parts[41])  # parts[42] is the difficulty score, dropped
    return np.asarray(rows, dtype=float), cats, labels


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
    docs: Sequence[str], min_df: int = 2, max_df: float = 0.95, ngram_max: int = 1
) -> TfidfModel:
    if not docs:
        raise ValueError("empty corpus")
    df: Dict[str, int] = {}
    for doc in docs:
        for term in set(tokenize(doc, ngram_max)):
            df[term] = df.get(term, 0) + 1
    n = len(docs)
    kept = sorted(t for t, c in df.items() if c >= min_df and c <= max_df * n)
    vocab = {t: i for i, t in enumerate(kept)}
    freq = np.array([df[t] for t in kept], dtype=float)
    idf = np.log((1.0 + n) / (1.0 + freq)) + 1.0
    return TfidfModel(vocab, idf, freq, n, min_df, max_df, ngram_max)


def transform_tfidf(model: TfidfModel, docs: Sequence[str]) -> np.ndarray:
    out = np.zeros((len(docs), len(model.vocabulary)))
    for r, doc in enumerate(docs):
        for term in tokenize(doc, model.ngram_max):
            i = model.vocabulary.get(term)
            if i is not None:
                out[r, i] += 1.0
    out *= model.idf[None, :]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    out /= np.where(norms > 0, norms, 1.0)
    return out.astype(np.float32)


# ----------------------------------------------------------------- splits


@dataclass
class DatasetSplit:
    # load_split leaves a feature matrix it was not asked for as None
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

    fit_cats = {c: [tr_cat[c][i] for i in keep] for c in CATEGORICAL_COLUMNS}
    tr = fit_tabular(tr_num[keep], fit_cats)
    val_cats = {c: [tr_cat[c][i] for i in take] for c in CATEGORICAL_COLUMNS}

    x_train = transform_tabular(tr, tr_num[keep], fit_cats)
    x_val = transform_tabular(tr, tr_num[take], val_cats)
    x_test = transform_tabular(tr, te_num, te_cat)
    y_train, y_val = y_all[keep], y_all[take]
    y_test = np.array([0 if lab == NORMAL_LABEL else 1 for lab in te_raw], dtype=int)
    return DatasetSplit(
        x_train, y_train, x_val, y_val, x_test, y_test,
        class_weights(y_train), seed, tr, list(te_raw),
        meta={
            "dataset": "nslkdd",
            "val_fraction": val_fraction,
            "source_sha256": {
                str(train_path): persist.sha256_file(train_path),
                str(test_path): persist.sha256_file(test_path),
            },
        },
    )


def load_lingspam(
    root_path,
    test_fraction: float = 0.2,
    val_fraction: float = 0.2,
    seed: int = 0,
    ngram_max: int = 1,
) -> DatasetSplit:
    """Message tree (its bare/ subdirectory when present): filenames
    starting with "spmsg" are spam. TF-IDF is fitted on the training
    documents only; val_fraction applies to what remains after the test
    carve."""
    base = Path(root_path)
    if (base / "bare").is_dir():
        base = base / "bare"
    files = sorted(p for p in base.rglob("*") if p.is_file())
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

    model = fit_tfidf(
        [docs[i] for i in train_idx], min_df=2, max_df=0.95, ngram_max=ngram_max
    )
    x_train = transform_tfidf(model, [docs[i] for i in train_idx])
    x_val = transform_tfidf(model, [docs[i] for i in val_idx])
    x_test = transform_tfidf(model, [docs[i] for i in test_idx])
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
            "source_sha256": {
                str(p.relative_to(base)): persist.sha256_file(p) for p in files
            },
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
    # object dtype compares as Python str does: a fixed-width "U" array
    # drops trailing NULs, so "a\x00" and "a" would be one category
    cats = np.asarray(split.test_categories, dtype=object).reshape(-1)
    if cats.size < size:
        raise ValueError(f"test set has {cats.size} rows, need {size}")
    names, inverse, counts = np.unique(cats, return_inverse=True, return_counts=True)
    alloc = apportion(dict(zip(names, counts.tolist())), size)
    rng = np.random.default_rng(seed)
    chosen = [
        rng.permutation(np.flatnonzero(inverse == k))[: alloc[name]]
        for k, name in enumerate(names)
    ]
    return np.sort(np.concatenate(chosen))


# ------------------------------------------------------------ persistence


def _csr_f64(x: np.ndarray) -> np.ndarray:
    """A 2-D matrix as one float64 vector: indptr (n+1) || column indices
    (nnz) || values (nnz), rows in order and columns increasing in each row.
    Every entry but +0.0 is stored, so the values come back bit for bit."""
    stored = (x != 0) | np.signbit(x)
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
    return np.concatenate([indptr, cols, x[rows, cols]], dtype=np.float64)


def _dense_from_csr(flat: np.ndarray, shape, nnz: int, name: str) -> np.ndarray:
    """The float32 matrix of a _csr_f64 vector; ValueError unless indptr
    holds integers that start at 0, never decrease and end at nnz, and the
    column indices are integers in [0, d), strictly increasing in each row."""
    n, d = shape
    indptr, cols, values = flat[: n + 1], flat[n + 1 : n + 1 + nnz], flat[n + 1 + nnz :]
    steps = np.diff(indptr)
    if not (np.array_equal(indptr, np.trunc(indptr)) and indptr[0] == 0
            and indptr[-1] == nnz and np.all(steps >= 0)):
        raise ValueError(f"{name}: indptr must be integers from 0 to nnz that never decrease")
    if not (np.array_equal(cols, np.trunc(cols)) and np.all((cols >= 0) & (cols < d))):
        raise ValueError(f"{name}: column indices must be integers in [0, {d})")
    cells = np.repeat(np.arange(n, dtype=np.int64) * d, steps.astype(np.int64)) + cols.astype(np.int64)
    if np.any(np.diff(cells) <= 0):
        raise ValueError(f"{name}: column indices must increase strictly within each row")
    out = np.zeros(n * d, dtype=np.float32)
    out[cells] = values
    return out.reshape(n, d)


def save_split(split: DatasetSplit, directory) -> dict:
    """Write the split under `directory`: split.json plus one float64 file
    per array. A tf-idf split's x_* files are CSR (x_*.csr.f64, _csr_f64),
    every other array is dense (name.f64)."""
    d = persist.ensure_dir(directory)
    arrays = {
        "x_train": split.x_train, "y_train": split.y_train,
        "x_val": split.x_val, "y_val": split.y_val,
        "x_test": split.x_test, "y_test": split.y_test,
    }
    sparse = isinstance(split.transformer, TfidfModel)
    manifest = {}
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if sparse and name.startswith("x_"):
            flat = _csr_f64(arr)
            manifest[name] = {
                "shape": list(arr.shape),
                "nnz": (flat.size - arr.shape[0] - 1) // 2,
                "layout": "csr",
                "sha256": persist.save_array_f64(d / f"{name}.csr.f64", flat),
            }
        else:
            manifest[name] = {
                "shape": list(arr.shape),
                "sha256": persist.save_array_f64(d / f"{name}.f64", np.asarray(arr, dtype=float)),
            }
    tr = split.transformer
    if isinstance(tr, TabularTransformer):
        transformer = {
            "kind": "tabular",
            "means": tr.means.tolist(),
            "stds": tr.stds.tolist(),
            "levels": tr.levels,
            "mapping": tr.mapping,
            "rare_threshold": tr.rare_threshold,
        }
    elif isinstance(tr, TfidfModel):
        transformer = {
            "kind": "tfidf",
            "terms": tr.terms(),
            "idf_sha256": persist.save_array_f64(d / "idf.f64", tr.idf),
            "doc_freq_sha256": persist.save_array_f64(d / "doc_freq.f64", tr.doc_freq),
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
    """The split save_split wrote; each file is hash-checked on its read
    (persist.load_json, persist.load_verified_f64), and a CSR entry is
    checked for structure (_dense_from_csr). Only the feature matrices
    named in `features` are read; the others are None, and their files
    stay in `unverified` for the caller's persist.check_files."""
    d = Path(directory)
    header = persist.load_json(d / "split.json", unverified)
    arrays = {}
    for name, meta in header["arrays"].items():
        if name.startswith("x_") and name not in features:
            continue
        shape = tuple(meta["shape"])
        csr = meta.get("layout") == "csr"
        fname = f"{name}.csr.f64" if csr else f"{name}.f64"
        flat = persist.load_verified_f64(
            d / fname, (shape[0] + 1 + 2 * meta["nnz"],) if csr else shape, meta["sha256"],
            unverified,
        )
        if csr:
            arrays[name] = _dense_from_csr(flat, shape, meta["nnz"], fname)
        else:
            arrays[name] = flat.astype(np.float32) if name.startswith("x_") else flat
    t = header["transformer"]
    if t["kind"] == "tabular":
        transformer: object = TabularTransformer(
            np.asarray(t["means"], dtype=float),
            np.asarray(t["stds"], dtype=float),
            {k: list(v) for k, v in t["levels"].items()},
            {k: {kk: int(vv) for kk, vv in v.items()} for k, v in t["mapping"].items()},
            int(t["rare_threshold"]),
        )
    else:
        terms = t["terms"]
        transformer = TfidfModel(
            {term: i for i, term in enumerate(terms)},
            persist.load_verified_f64(d / "idf.f64", (len(terms),), t["idf_sha256"], unverified),
            persist.load_verified_f64(
                d / "doc_freq.f64", (len(terms),), t["doc_freq_sha256"], unverified
            ),
            int(t["num_train_docs"]),
            int(t["min_df"]),
            float(t["max_df"]),
            int(t["ngram_max"]),
        )
    return DatasetSplit(
        arrays.get("x_train"), arrays["y_train"].astype(int),
        arrays.get("x_val"), arrays["y_val"].astype(int),
        arrays.get("x_test"), arrays["y_test"].astype(int),
        tuple(header["class_weights"]), int(header["seed"]),
        transformer, list(header["test_categories"]), dict(header["meta"]),
    )
