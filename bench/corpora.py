"""Synthetic corpora shaped like NSL-KDD and Ling-Spam.

The real corpora are not part of the repository, so the benchmark writes
look-alikes from one integer seed: the same seed gives byte-identical
files. The class and family mixes follow the published
label counts of KDDTrain+/KDDTest+ and of the Ling-Spam "bare" tree; the
feature values are drawn from hand-written per-group profiles, not fitted
to the real data. Any figure scaled up to the real corpus sizes below is
an extrapolation.

Cases the loaders must handle are always present: a service level below
the rare-bucket threshold, service levels and attack families that occur
only in the test file, a singleton attack family in the train file, pure
digit tokens, stopwords, and a term in every message (pruned by max_df).
"""
from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from qthreat.datapipe import FEATURE_NAMES, RARE_MIN_COUNT
from qthreat.stopwords import ENGLISH_STOPWORDS

# Row counts of the real files, for extrapolation labels.
NSLKDD_TRAIN_ROWS = 125_973
NSLKDD_TEST_ROWS = 22_544
LINGSPAM_MESSAGES = 2_893
LINGSPAM_SPAM = 481

# Shape of the Ling-Spam look-alike: spam share, the size of each class's
# promoted block of topic terms, and the median message length in tokens.
SPAM_SHARE = LINGSPAM_SPAM / LINGSPAM_MESSAGES
TOPIC_WORDS = 400
MEAN_TOKENS = 220

# Label counts in KDDTrain+ and KDDTest+.
TRAIN_MIX = {
    "normal": 67343, "neptune": 41214, "satan": 3633, "ipsweep": 3599,
    "portsweep": 2931, "smurf": 2646, "nmap": 1493, "back": 956,
    "teardrop": 892, "warezclient": 890, "pod": 201, "guess_passwd": 53,
    "buffer_overflow": 30, "warezmaster": 20, "land": 18, "imap": 11,
    "rootkit": 10, "loadmodule": 9, "ftp_write": 8, "multihop": 7, "phf": 4,
    "perl": 3, "spy": 2,
}
TEST_MIX = {
    "normal": 9711, "neptune": 4657, "guess_passwd": 1231, "mscan": 996,
    "warezmaster": 944, "apache2": 737, "satan": 735, "processtable": 685,
    "smurf": 665, "back": 359, "snmpguess": 331, "saint": 319,
    "mailbomb": 293, "snmpgetattack": 178, "portsweep": 157, "ipsweep": 141,
    "httptunnel": 133, "nmap": 73, "pod": 41, "buffer_overflow": 20,
    "multihop": 18, "named": 17, "ps": 15, "sendmail": 14, "rootkit": 13,
    "xterm": 13, "teardrop": 12, "xlock": 9, "land": 7, "xsnoop": 4,
}
SINGLETON_FAMILY = "spy"

GROUPS = {
    "dos": ("neptune", "smurf", "pod", "teardrop", "back", "land", "apache2",
            "processtable", "mailbomb"),
    "probe": ("satan", "ipsweep", "portsweep", "nmap", "mscan", "saint"),
    "r2l": ("guess_passwd", "warezclient", "warezmaster", "imap", "ftp_write",
            "multihop", "phf", "spy", "snmpguess", "snmpgetattack", "httptunnel",
            "named", "sendmail", "xlock", "xsnoop"),
    "u2r": ("buffer_overflow", "rootkit", "loadmodule", "perl", "ps", "xterm"),
}
GROUP_OF = {fam: g for g, fams in GROUPS.items() for fam in fams}
GROUP_OF["normal"] = "normal"

# Per-group profile: preferred protocol, flag and services, then the mean
# log1p of src and dst bytes, the mean connection count, the SYN-error,
# REJ-error and same-service rates, and the logged-in share. Normal traffic
# and r2l overlap on purpose, as in the real data.
PROFILES = {
    "normal": ("tcp", "SF", ("http", "smtp", "ftp_data", "domain_u", "private"),
               5.5, 6.5, 8.0, 0.05, 0.05, 0.85, 0.9),
    "dos": ("tcp", "S0", ("private", "http", "ecr_i", "other"),
            1.0, 0.3, 180.0, 0.80, 0.10, 0.15, 0.3),
    "probe": ("tcp", "REJ", ("private", "other", "eco_i", "ftp_data"),
              0.8, 0.5, 60.0, 0.20, 0.60, 0.25, 0.2),
    "r2l": ("tcp", "SF", ("ftp", "ftp_data", "telnet", "smtp", "http"),
            5.0, 5.0, 4.0, 0.10, 0.20, 0.75, 0.7),
    "u2r": ("tcp", "SF", ("telnet", "ftp_data", "ftp"),
            6.0, 7.5, 2.0, 0.02, 0.05, 0.90, 0.9),
}
COMMON_SERVICES = ("http", "private", "domain_u", "smtp", "ftp_data", "ecr_i",
                   "other", "eco_i", "telnet", "ftp", "finger", "urp_i",
                   "auth", "pop_3", "imap4", "time", "ntp_u", "ssh")
RARE_SERVICE = "tftp_u"             # fewer train rows than the rare-bucket threshold
TEST_ONLY_SERVICES = ("aol", "http_8001")
PROTOCOLS = ("tcp", "udp", "icmp")
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "OTH")

_COUNT_FIELDS = {"count", "srv_count", "dst_host_count", "dst_host_srv_count"}
_BINARY_FIELDS = {"land", "logged_in", "root_shell", "su_attempted",
                  "is_host_login", "is_guest_login"}


def _allocate(mix, rows):
    """Largest-remainder row counts per family, so the family set is the
    same for every seed at a given size."""
    names = list(mix)
    share = np.array([mix[n] for n in names], dtype=float)
    quota = rows * share / share.sum()
    base = np.floor(quota).astype(int)
    order = np.argsort(-(quota - base), kind="stable")
    base[order[: rows - int(base.sum())]] += 1
    return {n: int(c) for n, c in zip(names, base) if c > 0}


def _family_shift(family):
    """Fixed per-family offset so families of one group differ."""
    return np.random.default_rng(zlib.crc32(family.encode())).normal(0.0, 0.35, 4)


def _family_rows(rng, family, n, test):
    g = GROUP_OF[family]
    proto, flag, services, lsrc, ldst, cnt, serr, rerr, same, logged = PROFILES[g]
    shift = _family_shift(family)
    cols = {}
    cols["protocol_type"] = np.where(
        rng.random(n) < 0.8, proto, np.array(PROTOCOLS)[rng.integers(0, 3, n)])
    cols["flag"] = np.where(
        rng.random(n) < 0.75, flag, np.array(FLAGS)[rng.integers(0, len(FLAGS), n)])
    pool = np.array(services + COMMON_SERVICES)
    weights = np.r_[np.full(len(services), 4.0), np.ones(len(COMMON_SERVICES))]
    cols["service"] = pool[rng.choice(pool.size, n, p=weights / weights.sum())]
    if test:
        unseen = rng.random(n) < 0.02
        cols["service"][unseen] = np.array(TEST_ONLY_SERVICES)[rng.integers(0, 2, unseen.sum())]
    rate = lambda mean: np.clip(rng.beta(2.0, 2.0 * (1 - mean) / max(mean, 1e-3) + 1e-3, n), 0, 1)
    for name in FEATURE_NAMES:
        if name in cols:
            continue
        if name == "num_outbound_cmds":
            cols[name] = np.zeros(n, dtype=int)   # constant, as in the real files
        elif name in ("src_bytes", "duration"):
            cols[name] = np.expm1(rng.normal(lsrc + shift[0], 1.0, n).clip(0)).astype(int)
        elif name == "dst_bytes":
            cols[name] = np.expm1(rng.normal(ldst + shift[1], 1.0, n).clip(0)).astype(int)
        elif name in _COUNT_FIELDS:
            cols[name] = rng.poisson(cnt * np.exp(shift[2]), n).clip(0, 511)
        elif name == "logged_in":
            cols[name] = (rng.random(n) < logged).astype(int)
        elif name in _BINARY_FIELDS:
            cols[name] = (rng.random(n) < 0.02).astype(int)
        elif "serror" in name:
            cols[name] = rate(np.clip(serr + 0.1 * shift[3], 0.01, 0.99))
        elif "rerror" in name:
            cols[name] = rate(np.clip(rerr - 0.1 * shift[3], 0.01, 0.99))
        elif "same_srv" in name or "same_src" in name:
            cols[name] = rate(same)
        elif name.endswith("_rate"):
            cols[name] = rate(1.0 - same)
        else:  # small event counters (hot, num_failed_logins, ...)
            cols[name] = rng.poisson(0.3 if g in ("r2l", "u2r") else 0.05, n)
    out = []
    for name in FEATURE_NAMES:
        c = cols[name]
        out.append([f"{v:.2f}" for v in c] if c.dtype.kind == "f" else [str(v) for v in c])
    out.append([family] * n)
    out.append([str(v) for v in rng.integers(0, 22, n)])  # difficulty, dropped by the loader
    return [",".join(r) for r in zip(*out)]


def _write_records(path, rng, counts, test, rare_rows=0):
    lines = []
    for family, n in counts.items():
        lines.extend(_family_rows(rng, family, n, test))
    order = rng.permutation(len(lines))
    lines = [lines[i] for i in order]
    for i in range(rare_rows):  # below the rare-bucket threshold
        parts = lines[i].split(",")
        parts[FEATURE_NAMES.index("service")] = RARE_SERVICE
        lines[i] = ",".join(parts)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_nslkdd(root, seed, train_rows, test_rows):
    """KDDTrain+.txt / KDDTest+.txt look-alikes; returns their paths."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    train_counts = _allocate(TRAIN_MIX, train_rows - 1)
    train_counts[SINGLETON_FAMILY] = 1
    train, test = root / "KDDTrain+.txt", root / "KDDTest+.txt"
    _write_records(train, rng, train_counts, test=False, rare_rows=RARE_MIN_COUNT - 1)
    _write_records(test, rng, _allocate(TEST_MIX, test_rows), test=True)
    return train, test


# ------------------------------------------------------------------ text

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]


def _word(i):
    """Deterministic pseudo-word for vocabulary index i; two or more
    syllables and a trailing x keep it clear of every stopword."""
    parts = []
    i += len(_SYLLABLES)  # at least two syllables
    while i:
        i, r = divmod(i, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
    return "".join(parts) + "x"


def write_lingspam(root, seed, messages, vocab=40_000):
    """A bare/part1..part10 message tree; spam files are named spmsg*.

    Terms follow a Zipf-Mandelbrot law over a shared vocabulary; each class
    promotes its own block of TOPIC_WORDS terms to the top ranks, so the
    class signal lives in term ranks rather than in a handful of keywords.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    words = np.array([_word(i) for i in range(vocab)])
    base = rng.permutation(vocab)
    ranks = {}
    for cls, block in ((0, base[1000 : 1000 + TOPIC_WORDS]),
                       (1, base[2000 : 2000 + TOPIC_WORDS])):
        rest = base[~np.isin(base, block)]
        ranks[cls] = np.concatenate([rest[:20], block, rest[20:]])
    weight = 1.0 / (np.arange(vocab) + 2.7)
    cdf = np.cumsum(weight) / weight.sum()
    stop = np.array(sorted(ENGLISH_STOPWORDS))
    n_spam = int(round(messages * SPAM_SHARE))
    labels = np.zeros(messages, dtype=int)
    labels[rng.permutation(messages)[:n_spam]] = 1
    base_dir = Path(root) / "bare"
    for k in range(10):
        (base_dir / f"part{k + 1}").mkdir(parents=True, exist_ok=True)
    for m, y in enumerate(labels):
        n_tok = max(8, int(rng.lognormal(np.log(MEAN_TOKENS), 0.6)))
        idx = ranks[int(y)][np.searchsorted(cdf, rng.random(n_tok))]
        toks = list(words[idx])
        for pos in rng.integers(0, n_tok, n_tok // 3):
            toks[pos] = stop[rng.integers(0, stop.size)]
        for pos in rng.integers(0, n_tok, n_tok // 20):
            toks[pos] = str(rng.integers(100, 99999))   # pure digits, dropped
        subject = " ".join(words[ranks[int(y)][rng.integers(0, 50, 4)]])
        text = f"Subject: {subject}\n\n" + " ".join(toks) + "\n"
        part = base_dir / f"part{m % 10 + 1}"
        name = f"spmsg{m:05d}.txt" if y else f"{m:05d}msg.txt"
        (part / name).write_text(text, encoding="utf-8")
    return Path(root)
