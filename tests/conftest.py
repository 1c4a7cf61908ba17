"""Synthetic corpora shaped like the real benchmark datasets.

The tabular fixture mimics the 43-column connection-record format
(41 features + label + difficulty); the text fixture mimics the spam/ham
directory tree. Both are deterministic and small enough for CI while
exercising the boundary cases the loaders must handle (rare categorical
levels, unseen levels, singleton attack categories, stopword and
document-frequency filtering).
"""
import numpy as np
import pytest

from qthreat.datapipe import CATEGORICAL_COLUMNS, FEATURE_NAMES, CsrMatrix

SERVICES = ["http", "smtp", "ftp_data"]
FLAGS = ["SF", "S0", "REJ"]
PROTOCOLS = ["tcp", "udp", "icmp"]


def make_record(rng, label, service=None, flag=None, protocol=None):
    vals = []
    for name in FEATURE_NAMES:
        if name == "protocol_type":
            vals.append(protocol or PROTOCOLS[rng.integers(0, 3)])
        elif name == "service":
            vals.append(service or SERVICES[rng.integers(0, 3)])
        elif name == "flag":
            vals.append(flag or FLAGS[rng.integers(0, 3)])
        elif name == "num_outbound_cmds":
            vals.append("0")  # constant column, like the real corpus
        elif name in ("duration", "src_bytes", "dst_bytes", "count", "srv_count"):
            base = 3000 if label != "normal" else 300
            vals.append(str(int(rng.integers(0, base))))
        elif name.endswith("_rate"):
            high = label in ("neptune", "smurf")
            vals.append(f"{rng.uniform(0.5, 1.0) if high else rng.uniform(0.0, 0.4):.2f}")
        else:
            vals.append(str(int(rng.integers(0, 2))))
    vals.append(label)
    vals.append(str(int(rng.integers(0, 22))))  # difficulty, dropped by the loader
    return ",".join(vals)


def write_nslkdd_pair(root, seed=0):
    rng = np.random.default_rng(seed)
    train_labels = ["normal"] * 200 + ["neptune"] * 120 + ["smurf"] * 50 + ["portsweep"] * 30
    lines = []
    for i, lab in enumerate(train_labels):
        # exactly 49 occurrences of one service level and 50 of another
        # to pin the rare-bucket threshold
        if i < 49:
            svc = "svc_rare"
        elif i < 99:
            svc = "svc_edge"
        else:
            svc = None
        lines.append(make_record(rng, lab, service=svc))
    train = root / "KDDTrain+.txt"
    train.write_text("\n".join(lines) + "\n")

    test_labels = (
        ["normal"] * 60 + ["neptune"] * 40 + ["smurf"] * 15
        + ["guess_passwd"] * 4 + ["teardrop"]
    )
    lines = []
    for i, lab in enumerate(test_labels):
        svc = "aol" if i % 17 == 0 else None  # level never seen in train
        lines.append(make_record(rng, lab, service=svc))
    test = root / "KDDTest+.txt"
    test.write_text("\n".join(lines) + "\n")
    return train, test


SPAM_WORDS = ["free", "offer", "money", "winner", "credit", "cash",
              "guarantee", "click", "buy", "cheap"]
HAM_WORDS = ["meeting", "linguistics", "paper", "review", "students",
             "semantics", "corpus", "grammar", "syntax", "workshop"]


def random_csr(n, d, nnz, seed):
    """An n x d float32 CsrMatrix with about nnz entries in (0, 1) at
    uniformly drawn cells."""
    rng = np.random.default_rng(seed)
    cells = np.unique(rng.integers(0, n * d, size=nnz))
    rows, cols = np.divmod(cells, d)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CsrMatrix(indptr, cols.astype(np.int32), rng.random(cells.size, dtype=np.float32), (n, d))


def make_message(rng, spam, uniq):
    pool = SPAM_WORDS if spam else HAM_WORDS
    words = ["language"]  # near-ubiquitous term, pruned by max_df
    for _ in range(30):
        words.append(pool[rng.integers(0, len(pool))])
        if rng.uniform() < 0.3:
            words.append("the")
        if rng.uniform() < 0.2:
            words.append(str(rng.integers(100, 9999)))  # pure digits, dropped
    words.append(uniq)  # df=1 term, pruned by min_df
    return " ".join(words)


def write_lingspam_tree(root, seed=0):
    rng = np.random.default_rng(seed)
    base = root / "bare"
    n = 0
    for part in range(1, 5):
        d = base / f"part{part}"
        d.mkdir(parents=True)
        for k in range(6):
            (d / f"spmsg{part}{k:02d}.txt").write_text(
                make_message(rng, True, f"uniqs{n}"), encoding="utf-8"
            )
            n += 1
        for k in range(9):
            (d / f"{part}-{k:03d}msg.txt").write_text(
                make_message(rng, False, f"uniqh{n}"), encoding="utf-8"
            )
            n += 1
    return root


@pytest.fixture(scope="session")
def nslkdd_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("nslkdd")
    write_nslkdd_pair(root)
    return root


@pytest.fixture(scope="session")
def lingspam_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("lingspam")
    write_lingspam_tree(root)
    return root
