import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qthreat import datapipe, persist
from qthreat.datapipe import (
    CATEGORICAL_COLUMNS,
    CsrMatrix,
    FEATURE_NAMES,
    NUMERIC_COLUMNS,
    RARE_TOKEN,
    DatasetSplit,
    TfidfModel,
    _parse_nslkdd,
    apportion,
    class_weights,
    fit_tabular,
    fit_tfidf,
    load_lingspam,
    load_nslkdd,
    load_split,
    save_split,
    select_eval_subset,
    stratified_indices,
    stratified_take,
    tokenize,
    transform_tabular,
    transform_tfidf,
)
from conftest import make_record, random_csr, write_nslkdd_pair
from oracles import (
    csr_file_bytes, csr_from_dense, dense_from_csr, parse_nslkdd_lists, transform_tfidf_dense, reference_indices, select_eval_subset_loop,
    select_eval_subset_unique,
    stratified_limit, transform_tabular_concat,
)

N_NUM = len(NUMERIC_COLUMNS)


@pytest.fixture(scope="module")
def kdd_split(nslkdd_dir):
    return load_nslkdd(nslkdd_dir / "KDDTrain+.txt", nslkdd_dir / "KDDTest+.txt",
                       val_fraction=0.2, seed=0)


@pytest.fixture(scope="module")
def spam_split(lingspam_dir):
    return load_lingspam(lingspam_dir, seed=0)


def test_schema_constants():
    assert len(FEATURE_NAMES) == 41
    assert set(CATEGORICAL_COLUMNS) == {"protocol_type", "service", "flag"}
    assert len(NUMERIC_COLUMNS) == 38


def test_label_binarization(kdd_split):
    for cat, y in zip(kdd_split.test_categories, kdd_split.y_test):
        assert (cat == "normal") == (y == 0)
    assert set(np.unique(kdd_split.y_train)) == {0, 1}


def test_malformed_row_reports_line_number(tmp_path):
    rng = np.random.default_rng(0)
    good = make_record(rng, "normal")
    bad = good.rsplit(",", 1)[0]  # 42 fields
    path = tmp_path / "broken.txt"
    path.write_text("\n".join([good, good, bad]) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        _parse_nslkdd(path)
    # float() parses the last four, so each must be rejected as non-finite
    for value in ("oops", "nan", "inf", "-inf", "1e400"):
        fields = good.split(",")
        fields[0] = value
        path.write_text(",".join(fields) + "\n")
        with pytest.raises(ValueError, match="line 1: non-numeric or non-finite"):
            _parse_nslkdd(path)


def _kdd_lines(rng, rows, services, constant):
    """`rows` NSL-KDD records whose services are drawn from `services`, a
    skewed list, and whose `constant` numeric columns read one value
    throughout, in a mix of integer, decimal and exponent notation."""
    lines = []
    for _ in range(rows):
        fields = make_record(rng, str(rng.choice(["normal", "neptune", "smurf", "guess_passwd"])),
                             service=str(rng.choice(services))).split(",")
        for name in NUMERIC_COLUMNS:
            i = FEATURE_NAMES.index(name)
            if name in constant:
                fields[i] = "7"
            elif rng.random() < 0.2:
                fields[i] = rng.choice([f"{rng.normal() * 1e3:.6e}", f"-{rng.random():.3f}", f" {rng.integers(9)} "])
        lines.append(",".join(fields))
    return lines


def _kdd_text(lines, blanks, blank, newline):
    """The records joined by `newline`, with the line `blank` inserted
    before each index in `blanks`."""
    out = []
    for k, line in enumerate(lines):
        out += [blank] * blanks.count(k) + [line]
    return newline.join(out + [blank] * blanks.count(len(lines))) + newline


@settings(max_examples=40, deadline=None)
@given(
    train_rows=st.sampled_from([1, 2, 60, 400]),
    test_rows=st.integers(1, 40),
    blanks=st.lists(st.integers(0, 60), max_size=4),
    blank=st.sampled_from(["", "   ", "\t", " \t "]),
    newline=st.sampled_from(["\n", "\r\n"]),
    constant=st.lists(st.sampled_from(NUMERIC_COLUMNS), max_size=3),
    rare_threshold=st.integers(1, 60),
    block=st.sampled_from([1, 7, 64, datapipe.TRANSFORM_ROWS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_parse_and_transform_match_the_list_oracles(
    train_rows, test_rows, blanks, blank, newline, constant, rare_threshold, block, seed
):
    # rare levels through the skewed service list and the threshold, unseen
    # ones through the test file's extra level, constant columns by choice
    # and in a one-row file; the transform's row blocks of any size
    rng = np.random.default_rng(seed)
    services = ["http"] * 12 + ["smtp"] * 4 + ["ftp_data", "ssh"]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "train.txt", Path(tmp) / "test.txt"]
        texts = (
            _kdd_text(_kdd_lines(rng, train_rows, services, constant), blanks, blank, newline),
            _kdd_text(_kdd_lines(rng, test_rows, services + ["aol"], constant), blanks, blank, newline),
        )
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode("utf-8"))
        parsed = [_parse_nslkdd(p) for p in paths]
        expected = [parse_nslkdd_lists(p) for p in paths]
    for (num, cats, labels), (want_num, want_cats, want_labels) in zip(parsed, expected):
        assert num.dtype == np.float64
        np.testing.assert_array_equal(num.view(np.uint64), want_num.view(np.uint64))
        assert cats == want_cats and labels == want_labels
    tr = fit_tabular(parsed[0][0], parsed[0][1], rare_threshold)
    for num, cats, _ in parsed:
        with mock.patch.object(datapipe, "TRANSFORM_ROWS", block):
            x = transform_tabular(tr, num, cats)
        assert x.dtype == np.float32 and x.shape == (num.shape[0], tr.width)
        np.testing.assert_array_equal(x.view(np.uint32), transform_tabular_concat(tr, num, cats).view(np.uint32))


def test_load_nslkdd_memory_grows_by_its_rows(tmp_path):
    # the traced peak of a load grows with the train rows by the parsed
    # float64 values, the float32 features and the per-row list entries,
    # not by a float object per value or a float64 copy of the one-hot
    # blocks. Both corpora keep every level of the three categorical columns
    # (no rare bucket), so the feature width is the same at both sizes
    rng = np.random.default_rng(4)
    records = [make_record(rng, lab) for lab in ["normal", "neptune"] * 200]
    test = tmp_path / "test.txt"
    test.write_text("\n".join(records[:200]) + "\n")
    peaks, widths = {}, {}
    for n in (2000, 8000):
        train = tmp_path / f"train{n}.txt"
        train.write_text("\n".join(records * (n // len(records))) + "\n")
        load_nslkdd(train, test, seed=0)  # one-time imports
        tracemalloc.start()
        try:
            widths[n] = load_nslkdd(train, test, seed=0).x_train.shape[1]
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert widths[2000] == widths[8000]
    assert (peaks[8000] - peaks[2000]) / 6000 <= 1400, peaks


def test_standardization_uses_train_statistics(nslkdd_dir, kdd_split):
    num = kdd_split.x_train[:, :N_NUM].astype(float)
    live = kdd_split.transformer.stds > 0
    assert np.abs(num[:, live].mean(axis=0)).max() < 1e-6
    assert np.abs(num[:, live].std(axis=0) - 1.0).max() < 1e-6
    const = NUMERIC_COLUMNS.index("num_outbound_cmds")
    assert not kdd_split.x_train[:, const].any()
    assert not kdd_split.x_test[:, const].any()
    # test rows standardized with train means/stds, not their own
    raw_test, _, _ = _parse_nslkdd(nslkdd_dir / "KDDTest+.txt")
    tr = kdd_split.transformer
    expected = (raw_test - tr.means) / np.where(live, tr.stds, 1.0)
    expected[:, ~live] = 0.0
    np.testing.assert_allclose(kdd_split.x_test[:, :N_NUM], expected, atol=1e-5)
    assert np.abs(kdd_split.x_test[:, :N_NUM].mean(axis=0)).max() > 0.01


def test_rare_level_threshold_boundary(nslkdd_dir):
    # 49 occurrences -> rare bucket, 50 -> kept; exact with no val carve
    split = load_nslkdd(nslkdd_dir / "KDDTrain+.txt", nslkdd_dir / "KDDTest+.txt",
                        val_fraction=0.0, seed=0)
    tr = split.transformer
    levels = tr.levels["service"]
    assert "svc_edge" in levels
    assert "svc_rare" not in levels
    assert levels[-1] == RARE_TOKEN
    assert tr.mapping["service"]["svc_rare"] == levels.index(RARE_TOKEN)
    assert split.x_val.shape[0] == 0


def test_one_hot_blocks(nslkdd_dir):
    split = load_nslkdd(nslkdd_dir / "KDDTrain+.txt", nslkdd_dir / "KDDTest+.txt",
                        val_fraction=0.0, seed=0)
    tr = split.transformer
    start = N_NUM + len(tr.levels["protocol_type"])
    stop = start + len(tr.levels["service"])
    svc_block = split.x_train[:, start:stop]
    # every fit row hits exactly one level (rare rows hit the bucket)
    np.testing.assert_array_equal(svc_block.sum(axis=1), 1.0)
    _, te_cats, _ = _parse_nslkdd(nslkdd_dir / "KDDTest+.txt")
    unseen = np.asarray([s == "aol" for s in te_cats["service"]])
    assert unseen.any()
    assert not split.x_test[unseen, start:stop].any()
    assert (split.x_test[~unseen, start:stop].sum(axis=1) <= 1.0).all()


def test_validation_carve_proportions(kdd_split):
    n = kdd_split.y_train.size + kdd_split.y_val.size
    assert n == 400
    assert abs(kdd_split.y_val.size - 0.2 * n) <= 1
    for c in (0, 1):
        total = int(np.sum(kdd_split.y_train == c) + np.sum(kdd_split.y_val == c))
        assert abs(np.sum(kdd_split.y_val == c) - 0.2 * total) <= 1


def test_no_leakage_from_test_file(nslkdd_dir, tmp_path, kdd_split):
    # swapping the entire test file must not move the fitted transformer
    rng = np.random.default_rng(99)
    other = tmp_path / "other_test.txt"
    other.write_text(
        "\n".join(make_record(rng, lab) for lab in ["normal"] * 30 + ["smurf"] * 30) + "\n"
    )
    swapped = load_nslkdd(nslkdd_dir / "KDDTrain+.txt", other, val_fraction=0.2, seed=0)
    np.testing.assert_array_equal(swapped.transformer.means, kdd_split.transformer.means)
    np.testing.assert_array_equal(swapped.transformer.stds, kdd_split.transformer.stds)
    assert swapped.transformer.levels == kdd_split.transformer.levels
    assert swapped.transformer.mapping == kdd_split.transformer.mapping
    np.testing.assert_array_equal(swapped.x_train, kdd_split.x_train)


def test_deterministic_loads(nslkdd_dir, kdd_split):
    again = load_nslkdd(nslkdd_dir / "KDDTrain+.txt", nslkdd_dir / "KDDTest+.txt",
                        val_fraction=0.2, seed=0)
    for name in ("x_train", "y_train", "x_val", "y_val", "x_test", "y_test"):
        np.testing.assert_array_equal(getattr(again, name), getattr(kdd_split, name))
    reseeded = load_nslkdd(nslkdd_dir / "KDDTrain+.txt", nslkdd_dir / "KDDTest+.txt",
                           val_fraction=0.2, seed=1)
    assert not np.array_equal(reseeded.x_val, kdd_split.x_val)


def test_class_weights_formula():
    assert class_weights([0, 1] * 50) == (1.0, 1.0)
    w = class_weights([0] * 90 + [1] * 10)
    assert abs(w[0] - 100 / 180) < 1e-12 and w[1] == 5.0
    assert abs(w[0] * 90 + w[1] * 10 - 100) < 1e-9  # balancing identity
    with pytest.raises(ValueError):
        class_weights([1, 1, 1])


def test_stratified_indices_match_both_former_pickers():
    rng = np.random.default_rng(16)
    for trial in range(40):
        n = int(rng.integers(2, 300))
        y = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(int)
        y[0] = 1 - y[-1]
        limit = int(rng.integers(2, n + 5))
        seed = int(rng.integers(0, 2**31))
        # the preprocess carve of the training rows
        assert np.array_equal(stratified_indices(y, limit, seed), stratified_limit(y, limit, seed))
        # the shot-mode reference sample, drawn among support vectors
        support = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        if np.unique(y[support]).size < 2:
            continue
        picked = support[stratified_indices(y[support], limit, seed)]
        assert np.array_equal(picked, reference_indices(support, y, limit, seed))
    y = np.array([0] * 30 + [1] * 10)
    idx = stratified_indices(y, 8, seed=1)
    assert idx.size == 8 and np.all(np.diff(idx) > 0)
    assert np.sum(y[idx] == 1) == 2


def test_stratified_take_bounds():
    y = np.array([0] * 37 + [1] * 13)
    keep, take = stratified_take(y, 0.25, seed=3)
    assert np.intersect1d(keep, take).size == 0
    assert keep.size + take.size == 50
    assert abs(take.size - 12.5) <= 1
    for c in (0, 1):
        assert abs(np.sum(y[take] == c) - 0.25 * np.sum(y == c)) <= 1


# ------------------------------------------------------------------ text


def test_lingspam_prefix_rule_and_fractions(spam_split):
    n = spam_split.y_train.size + spam_split.y_val.size + spam_split.y_test.size
    assert n == 60
    assert abs(spam_split.y_test.size - 0.2 * 60) <= 1
    assert abs(spam_split.y_val.size - 0.16 * 60) <= 1
    assert set(spam_split.test_categories) <= {"spam", "ham"}
    # 40% spam overall, preserved within one sample per split
    for y in (spam_split.y_train, spam_split.y_val, spam_split.y_test):
        assert abs(np.sum(y == 1) - 0.4 * y.size) <= 1


def test_vocabulary_filters(spam_split):
    model = spam_split.transformer
    terms = model.terms()
    assert terms == sorted(terms)
    assert (model.doc_freq >= 2).all()
    assert (model.doc_freq <= 0.95 * model.num_train_docs).all()
    assert not any(t.startswith("uniq") for t in terms)  # min_df prunes df=1
    assert "language" not in model.vocabulary  # max_df prunes ubiquitous term
    assert "the" not in model.vocabulary  # stopword
    assert not any(t.isdigit() for t in terms)


def test_tfidf_fitted_on_train_docs_only(lingspam_dir, spam_split):
    # re-derive the training documents with the loader's split recipe and
    # refit; vocabulary and weights must match the shipped transformer
    base = lingspam_dir / "bare"
    files = sorted(p for p in base.rglob("*") if p.is_file())
    docs = [p.read_text(encoding="utf-8") for p in files]
    y = np.array([1 if p.name.startswith("spmsg") else 0 for p in files])
    s_test, s_val = np.random.SeedSequence(0).generate_state(2)
    rest, _ = stratified_take(y, 0.2, int(s_test))
    keep_rel, _ = stratified_take(y[rest], 0.2, int(s_val))
    refit = fit_tfidf([tokenize(docs[i]) for i in rest[keep_rel]])
    assert refit.vocabulary == spam_split.transformer.vocabulary
    np.testing.assert_array_equal(refit.idf, spam_split.transformer.idf)


def test_tfidf_formula_oracle():
    docs = ["free money offer", "money meeting", "meeting paper review",
            "offer offer free"]
    terms = [tokenize(doc) for doc in docs]
    model = fit_tfidf(terms, min_df=1, max_df=1.0)
    got = dense_from_csr(transform_tfidf(model, terms))
    # independent recomputation from the stated formula
    n = 4
    df = {"free": 2, "money": 2, "offer": 2, "meeting": 2, "paper": 1, "review": 1}
    for r, doc in enumerate(docs):
        tf = {}
        for t in doc.split():
            tf[t] = tf.get(t, 0) + 1
        vec = np.zeros(len(model.vocabulary))
        for t, c in tf.items():
            vec[model.vocabulary[t]] = c * (math.log((1 + n) / (1 + df[t])) + 1.0)
        vec /= np.linalg.norm(vec)
        np.testing.assert_allclose(got[r], vec, atol=1e-7)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, atol=1e-6)


_WORDS = ("free", "money", "offer", "meeting", "paper", "review", "cash", "winner")


@settings(max_examples=60, deadline=None)
@given(
    docs=st.lists(st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join), min_size=1,
                  max_size=14),
    block_rows=st.integers(1, 5),
)
@example(docs=["free money", "", "winner winner", "review"], block_rows=3)
def test_csr_tfidf_matches_the_dense_recipe_bit_for_bit(docs, block_rows):
    # rows are computed in blocks of block_rows (a partial last block, empty
    # documents and the last vocabulary column included) and keep the bits
    # of the one dense float64 matrix the recipe describes
    terms = [tokenize(doc) for doc in docs]
    model = fit_tfidf(terms, min_df=1, max_df=1.0)
    d = len(model.vocabulary)
    with mock.patch.object(datapipe, "TFIDF_BLOCK_BYTES", 8 * max(d, 1) * block_rows):
        got = transform_tfidf(model, iter(terms))
    want = csr_from_dense(transform_tfidf_dense(model, docs))
    assert got.shape == want.shape == (len(docs), d)
    assert (got.indptr.dtype, got.indices.dtype, got.data.dtype) == (np.int64, np.int32, np.float32)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint32), want.data.view(np.uint32))


def test_transform_tfidf_holds_one_dense_row_block():
    # 2 000 documents over a 20 000-term vocabulary: the dense float64
    # matrix would be 320 MB. The transform holds one TFIDF_BLOCK_BYTES
    # block (and its float32 cast) plus the stored entries, which it joins
    # once at the end
    rng = np.random.default_rng(4)
    d = 20_000
    words = np.array([f"w{i}" for i in range(d)])
    model = TfidfModel({w: i for i, w in enumerate(words)}, 1.0 + rng.random(d), np.ones(d), 2000)
    docs = [" ".join(words[rng.integers(0, d, 50)]) for _ in range(2000)]
    terms = [tokenize(doc) for doc in docs]
    transform_tfidf(model, terms[:10])  # one-time imports
    tracemalloc.start()
    try:
        x = transform_tfidf(model, terms)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nnz = x.data.size
    assert peak - held <= 2 * datapipe.TFIDF_BLOCK_BYTES + 16 * nnz, (peak, held, nnz)
    assert peak <= 0.02 * 2000 * d * 8, peak


def test_tokenizer_rules():
    assert tokenize("Free 0800 Money!! the winner") == ["free", "money", "winner"]
    assert tokenize("free money winner", ngram_max=2) == [
        "free", "money", "winner", "free money", "money winner",
    ]
    # stopwords removed before n-gram composition
    assert "free winner" in tokenize("free the winner", ngram_max=2)


def test_bigram_vocabulary(lingspam_dir):
    split = load_lingspam(lingspam_dir, seed=0, ngram_max=2)
    assert any(" " in t for t in split.transformer.terms())
    assert split.meta["ngram_max"] == 2


def test_unreadable_file_skipped(tmp_path):
    rng = np.random.default_rng(1)
    d = tmp_path / "bare" / "part1"
    d.mkdir(parents=True)
    for k in range(6):
        (d / f"spmsg{k}.txt").write_text(f"free money offer winner cash m{k}")
        (d / f"{k}msg.txt").write_text(f"meeting paper review corpus h{k}")
    (d / "0broken.txt").write_bytes(b"\xff\xfe\x00 not text \xff")
    with pytest.warns(UserWarning, match="0broken"):
        split = load_lingspam(tmp_path, seed=0)
    assert split.meta["skipped_files"] == 1
    assert split.y_train.size + split.y_val.size + split.y_test.size == 12


def test_empty_corpus_raises(tmp_path):
    (tmp_path / "bare").mkdir()
    with pytest.raises(ValueError):
        load_lingspam(tmp_path)


# -------------------------------------------------------------- subsets


def test_apportion_exact_and_floored():
    assert apportion({"x": 80, "y": 20}, 100) == {"x": 80, "y": 20}
    alloc = apportion({"a": 997, "b": 2, "c": 1}, 100)
    assert alloc == {"a": 98, "b": 1, "c": 1}
    assert sum(alloc.values()) == 100
    with pytest.raises(ValueError, match="exceed"):
        apportion({chr(97 + i): 1 for i in range(5)}, 3)


def test_eval_subset_on_tabular_split(kdd_split):
    idx = select_eval_subset(kdd_split, size=100, seed=0)
    assert idx.size == 100
    assert np.unique(idx).size == 100
    assert idx.min() >= 0 and idx.max() < kdd_split.y_test.size
    picked = [kdd_split.test_categories[i] for i in idx]
    # singleton attack family must appear
    assert "teardrop" in picked
    counts = {c: picked.count(c) for c in set(picked)}
    total = len(kdd_split.test_categories)
    for c, k in counts.items():
        share = kdd_split.test_categories.count(c) / total
        assert abs(k - 100 * share) <= 1 or k == 1
    np.testing.assert_array_equal(idx, select_eval_subset(kdd_split, 100, seed=0))


def test_eval_subset_requires_enough_rows(spam_split):
    with pytest.raises(ValueError, match="rows"):
        select_eval_subset(spam_split, size=1000)


def test_eval_subset_proportional_two_classes():
    strut = DatasetSplit(
        *(np.zeros((0, 1)),) * 2, *(np.zeros((0, 1)),) * 2,
        np.zeros((500, 1)), np.array([0] * 400 + [1] * 100),
        (1.0, 1.0), 0, None,
        ["ham"] * 400 + ["spam"] * 100,
    )
    idx = select_eval_subset(strut, size=100, seed=4)
    picked = [strut.test_categories[i] for i in idx]
    assert picked.count("ham") == 80 and picked.count("spam") == 20


@settings(max_examples=200, deadline=None)
@given(
    cats=st.lists(st.text(alphabet="ab\x00", max_size=2), min_size=1, max_size=60),
    size=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
@example(cats=["a", "a\x00", "a", "b"], size=3, seed=0)
def test_eval_subset_matches_the_per_category_scan(cats, size, seed):
    # the one-pass grouping against both the per-category list scan and the
    # np.unique scan it replaced: categories that a fixed-width string array
    # would merge ("a", "a\x00") stay apart; too few rows or too many
    # categories fail alike
    split = types.SimpleNamespace(test_categories=cats)
    for oracle in (select_eval_subset_loop, select_eval_subset_unique):
        try:
            want = oracle(split, size, seed)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                select_eval_subset(split, size, seed)
            continue
        got = select_eval_subset(split, size, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---------------------------------------------------------- persistence


def test_split_roundtrip_tabular(tmp_path, kdd_split):
    save_split(kdd_split, tmp_path)
    back = load_split(tmp_path)
    for name in ("x_train", "y_train", "x_val", "y_val", "x_test", "y_test"):
        np.testing.assert_array_equal(getattr(back, name), getattr(kdd_split, name))
    assert back.class_weights == kdd_split.class_weights
    assert back.test_categories == kdd_split.test_categories
    np.testing.assert_array_equal(back.transformer.means, kdd_split.transformer.means)
    assert back.transformer.mapping == kdd_split.transformer.mapping
    assert back.meta["source_sha256"] == kdd_split.meta["source_sha256"]


def test_save_split_writes_dense_features_a_block_at_a_time(tmp_path, kdd_split):
    # an 8 000 x 70 float32 x_train is 2.1 MiB. Its file holds the matrix's
    # own float32 bytes, written from a view of it, so the traced
    # peak of the save stays within 1.25 MiB (the header and small
    # temporaries) above what the split already holds
    rng = np.random.default_rng(5)
    x = {n: rng.standard_normal((rows, 70)).astype(np.float32)
         for n, rows in (("x_train", 8000), ("x_val", 2000), ("x_test", 2000))}
    y = {f"y{n[1:]}": rng.integers(0, 2, v.shape[0]) for n, v in x.items()}
    split = dataclasses.replace(kdd_split, **x, **y, test_categories=["normal"] * 2000)
    save_split(split, tmp_path / "warm")  # one-time imports and caches
    tracemalloc.start()
    try:
        header = save_split(split, tmp_path / "split")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 20) + (256 << 10), peak
    for name, arr in {**x, **y}.items():
        data = (tmp_path / "split" / f"{name}.{'f32' if name[0] == 'x' else 'i64'}").read_bytes()
        assert data == arr.tobytes()
        assert header["arrays"][name] == {"shape": list(arr.shape)}


def test_load_split_casts_dense_features_a_block_at_a_time(tmp_path, kdd_split):
    # the 8 000 x 70 split above: each x_*.f32 is read into one buffer,
    # hashed, and returned as a float32 view of it, so the traced peak stays
    # within 1.25 MiB (the header and small temporaries) above what the
    # loaded split holds, not a second copy of x_train (2.2 MB) above it
    rng = np.random.default_rng(5)
    x = {n: rng.standard_normal((rows, 70)).astype(np.float32)
         for n, rows in (("x_train", 8000), ("x_val", 2000), ("x_test", 2000))}
    y = {f"y{n[1:]}": rng.integers(0, 2, v.shape[0]) for n, v in x.items()}
    save_split(dataclasses.replace(kdd_split, **x, **y, test_categories=["normal"] * 2000), tmp_path)
    load_split(tmp_path)  # one-time imports and caches
    tracemalloc.start()
    try:
        back = load_split(tmp_path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= (1 << 20) + (256 << 10), (peak, held)
    for name, arr in x.items():
        got = getattr(back, name)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), arr.view(np.uint32))


def test_load_split_memory_grows_with_nnz_not_with_rows_times_columns(tmp_path):
    # two tf-idf splits of 30 000 columns and 20 000 stored entries, one of
    # 500 train rows and one of 8 000: dense float32, the second's x_train
    # alone would be 900 MB more. load_split's peak grows by a few int64 and
    # float64 values per added row
    d, peaks = 30_000, {}
    for n in (500, 8000):
        split = _tfidf_split(np.zeros((1, d), np.float32), np.zeros((1, d), np.float32),
                             np.zeros((1, d), np.float32))
        split = dataclasses.replace(split, x_train=random_csr(n, d, 20_000, 7), y_train=np.zeros(n, int))
        save_split(split, tmp_path / str(n))
        load_split(tmp_path / str(n))  # one-time imports and caches
        tracemalloc.start()
        try:
            back = load_split(tmp_path / str(n))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        got = back.x_train
        assert isinstance(got, CsrMatrix) and got.shape == (n, d)
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, field), getattr(split.x_train, field))
    assert peaks[8000] - peaks[500] <= 7500 * 96, peaks
    assert peaks[8000] <= 0.01 * 8000 * d * 4, peaks


def test_split_roundtrip_text(tmp_path, spam_split):
    save_split(spam_split, tmp_path)
    back = load_split(tmp_path)
    assert back.transformer.vocabulary == spam_split.transformer.vocabulary
    np.testing.assert_array_equal(back.transformer.idf, spam_split.transformer.idf)
    np.testing.assert_array_equal(dense_from_csr(back.x_test), dense_from_csr(spam_split.x_test))


def test_split_rejects_tampering(tmp_path, spam_split):
    save_split(spam_split, tmp_path)
    unverified = {p: persist.sha256_file(p) for p in tmp_path.iterdir()}
    blob = (tmp_path / "x_test.csr").read_bytes()
    (tmp_path / "x_test.csr").write_bytes(blob[:-1] + bytes([blob[-1] ^ 1]))
    with pytest.raises(ValueError, match="x_test.csr fails its hash check"):
        load_split(tmp_path, unverified)


def _tfidf_split(x_train, x_val, x_test):
    """A split whose transformer is tf-idf and whose x_* are the CSR forms
    of the dense matrices given, so save_split writes CSR."""
    x_train, x_val, x_test = (csr_from_dense(x) for x in (x_train, x_val, x_test))
    d = x_train.shape[1]
    model = TfidfModel({f"t{i}": i for i in range(d)}, np.ones(d), np.ones(d), x_train.shape[0])
    ys = [np.zeros(x.shape[0], dtype=int) for x in (x_train, x_val, x_test)]
    return DatasetSplit(x_train, ys[0], x_val, ys[1], x_test, ys[2], (1.0, 1.0), 0, model,
                        ["ham"] * x_test.shape[0])


def _save_dense_x(split, directory):
    """Rewrite a saved tf-idf split's x_* arrays in the dense layout
    (name.f32, {"shape"}) a tabular split's take."""
    d = Path(directory)
    header = json.loads((d / "split.json").read_text())
    for name in ("x_train", "x_val", "x_test"):
        (d / f"{name}.csr").unlink()
        x = dense_from_csr(getattr(split, name))
        persist.save_arrays(d / f"{name}.f32", (x,))
        header["arrays"][name] = {"shape": list(x.shape)}
    persist.save_json(d / "split.json", header)


@st.composite
def _sparse_matrices(draw):
    d = draw(st.integers(1, 9))
    out = []
    for _ in range(3):
        n = draw(st.integers(1, 6))
        shape = (n, d)
        keep = draw(arrays(bool, shape, elements=st.booleans()))
        values = draw(arrays(np.float32, shape, elements=st.floats(width=32, allow_nan=False)))
        out.append(np.where(keep, values, np.float32(0.0)))
    return out


_ALL_ZERO = np.zeros((3, 4), dtype=np.float32)
_ONE_ROW = np.array([[0.0, 0.5, 0.0, -0.25]], dtype=np.float32)
_EMPTY_ROWS_LAST_COLUMN = np.array(
    [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.5], [0.0, 0.0, 0.0, 0.0], [2.0, -0.0, 0.0, 3.0]],
    dtype=np.float32,
)


@settings(max_examples=60, deadline=None)
@given(_sparse_matrices())
@example([_ALL_ZERO, _ONE_ROW, _EMPTY_ROWS_LAST_COLUMN])
@example([_EMPTY_ROWS_LAST_COLUMN, _ALL_ZERO, _ONE_ROW])
def test_csr_split_roundtrip_is_bit_exact(xs):
    split = _tfidf_split(*xs)
    with tempfile.TemporaryDirectory() as tmp:
        header = save_split(split, tmp)
        back = load_split(tmp)
        names = sorted(p.name for p in Path(tmp).iterdir())
        blobs = {p.name.split(".")[0]: p.read_bytes() for p in Path(tmp).glob("*.csr")}
    for name, x in zip(("x_train", "x_val", "x_test"), xs):
        entry = header["arrays"][name]
        assert f"{name}.csr" in names and f"{name}.f32" not in names
        assert entry["layout"] == "csr"
        assert entry["nnz"] == int(np.count_nonzero((x != 0) | np.signbit(x)))
        assert blobs[name] == csr_file_bytes(x)
        got = getattr(back, name)
        assert isinstance(got, CsrMatrix) and got.shape == x.shape
        assert got.data.dtype == np.float32
        assert np.array_equal(dense_from_csr(got).view(np.uint32), x.view(np.uint32))


def _corrupt(indptr, cols, d, kind):
    nnz = cols.size
    if kind == "indptr starts above 0":
        indptr[0] = 1
    elif kind == "indptr ends below nnz":
        indptr[-1] = nnz - 1
    elif kind == "indptr decreases":
        r = int(np.flatnonzero(np.diff(indptr) > 0)[0])
        indptr[r + 1] = indptr[r] - 1
    elif kind == "column index d":
        cols[0] = d
    elif kind == "negative column index":
        cols[0] = -1
    else:  # two columns of one row swapped
        r = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
        a = int(indptr[r])
        cols[a], cols[a + 1] = cols[a + 1], cols[a]


@pytest.mark.parametrize("kind,message", [
    ("indptr starts above 0", "indptr"), ("indptr ends below nnz", "indptr"),
    ("indptr decreases", "indptr"),
    ("column index d", "column indices must be integers"),
    ("negative column index", "column indices must be integers"),
    ("columns out of order", "increase strictly"),
])
def test_structurally_bad_csr_with_a_correct_hash_is_rejected(tmp_path, spam_split, kind, message):
    header = save_split(spam_split, tmp_path)
    entry = header["arrays"]["x_train"]
    path = tmp_path / "x_train.csr"
    indptr, cols, values = persist.load_arrays(path, datapipe._array_file("x_train", entry)[1])
    _corrupt(indptr, cols, entry["shape"][1], kind)
    persist.save_arrays(path, (indptr, cols, values))
    unverified = {p: persist.sha256_file(p) for p in tmp_path.iterdir()}
    with pytest.raises(ValueError, match=f"x_train.csr: .*{message}"):
        load_split(tmp_path, unverified)


def test_dense_layout_tfidf_split_still_loads(tmp_path, spam_split):
    save_split(spam_split, tmp_path)
    _save_dense_x(spam_split, tmp_path)
    assert not list(tmp_path.glob("*.csr"))
    back = load_split(tmp_path)
    for name in ("x_train", "x_val", "x_test"):
        got = getattr(back, name)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, dense_from_csr(getattr(spam_split, name)))


@pytest.mark.parametrize("fixture", ["kdd_split", "spam_split"])
def test_load_split_reads_only_the_named_feature_matrices(request, fixture, tmp_path):
    split = request.getfixturevalue(fixture)
    save_split(split, tmp_path)
    unverified = {p: persist.sha256_file(p) for p in tmp_path.iterdir()}
    back = load_split(tmp_path, unverified, features=("x_test",))
    assert back.x_train is None and back.x_val is None
    got, want = back.x_test, split.x_test
    if fixture == "spam_split":  # a tf-idf split's x_* are CSR; compare them densified
        assert isinstance(got, CsrMatrix)
        got, want = dense_from_csr(got), dense_from_csr(want)
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(back.y_train, split.y_train)
    # the skipped matrices' files are left for the caller's check_files
    assert sorted(p.name.split(".")[0] for p in unverified) == ["x_train", "x_val"]
