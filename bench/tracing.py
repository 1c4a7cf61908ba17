"""Outside-in tracing of qthreat's layers.

`Tracer.install` wraps every public function of each layer module at run
time and rebinds every alias of it (``from .x import y`` copies included),
so calls between modules and within one module both pass through a
wrapper. Nothing under ``src/`` is edited. Each call becomes a span (name,
start, end, parent, run id) kept in memory; `Tracer.write` dumps them when
the run ends. A few wrappers also read the call's arguments or result to
count work (rows, bytes, Gram entries); that reading is itself a span named
``trace.observe``, so its cost is visible instead of landing in a layer's
self time.

`layer_metrics` turns the spans of one repeat into the per-layer metrics
listed in LAYER_METRICS.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("datapipe", "encoder", "featuremap", "qsvm", "vqc", "qsim", "batched",
           "metrics", "persist", "harness")
# cli only parses arguments over harness; its aliases are rebound but it
# gets no layer metric
ALIAS_MODULES = MODULES + ("cli",)
# layers `dominant_layers` reports per operation
TOP_LAYERS = 3


def _rows(a):
    return int(np.atleast_2d(np.asarray(a)).shape[0])


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _kkt(a, result):
    """Support count, KKT gap and converged flag of a final SVM fit,
    recomputed from the returned support and coef with the solver's own
    SUPPORT_EPS and DUAL_TOL (the gap it would test next)."""
    from qthreat.qsvm import DUAL_TOL, SUPPORT_EPS
    k = np.asarray(a["gram"], dtype=float)
    y01 = np.asarray(a["labels"], dtype=int).reshape(-1)
    w = a.get("class_weights", (1.0, 1.0))
    y = np.where(y01 == 1, 1.0, -1.0)
    box = np.where(y01 == 1, a["c"] * w[1], a["c"] * w[0])
    alpha = np.zeros(y.size)
    alpha[result.support] = np.abs(result.coef)
    v = y - k[:, result.support] @ result.coef
    lower = ((y > 0) & (alpha < box - SUPPORT_EPS)) | ((y < 0) & (alpha > SUPPORT_EPS))
    upper = ((y > 0) & (alpha > SUPPORT_EPS)) | ((y < 0) & (alpha < box - SUPPORT_EPS))
    gap = float(v[lower].max() - v[upper].min()) if lower.any() and upper.any() else 0.0
    return {"qsvm.support": result.support.size, "qsvm.kkt_gap": gap,
            "qsvm.converged": float(gap <= DUAL_TOL)}


def _gram_bytes(a, result, seconds):
    blocks = (result.train_gram, result.val_block, result.test_block)
    return {"featuremap.gram_bytes": sum(b.nbytes for b in blocks if b is not None)}


# name -> observer(bound arguments, result, seconds) -> {counter: value}.
# A counter whose name ends in "=" is set (last call wins), others add up.
OBSERVERS = {
    "datapipe.load_nslkdd": lambda a, r, s: {
        "datapipe.rows": r.x_train.shape[0] + r.x_val.shape[0] + r.x_test.shape[0],
        "datapipe.features=": r.x_train.shape[1]},
    "encoder.train_encoder": lambda a, r, s: {"encoder.epochs": len(r[1]["epochs"])},
    "encoder.forward_with_cache": lambda a, r, s: {"encoder.forward_rows": _rows(a["x"])},
    "featuremap.feature_statevectors": lambda a, r, s: {
        "featuremap.statevector_rows": _rows(a["angles"])},
    "featuremap.gram_from_states": lambda a, r, s: {"featuremap.gram_entries": r.size},
    "featuremap.build_gram": _gram_bytes,
    "vqc.decision_logits": lambda a, r, s: (
        {"vqc.shot_rows": r.size, "vqc.shot_s": s}
        if a.get("execution") is not None and a["execution"].mode == "shots" else {}),
    "persist.save_array_f64": lambda a, r, s: {"persist.bytes_written": np.asarray(a["arr"]).size * 8},
    "persist.save_json": lambda a, r, s: {"persist.bytes_written": _file_size(a["path"])},
    "persist.sha256_file": lambda a, r, s: {"persist.hash_bytes": _file_size(a["path"])},
}
OBSERVERS["datapipe.load_lingspam"] = OBSERVERS["datapipe.load_nslkdd"]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, run id]
        self.counts = defaultdict(lambda: defaultdict(float))   # run id -> counter -> value
        self.final_fit = {}  # run id -> kkt counters of the last solve_dual outside select_c
        self.run_id = ""
        self._stack = []
        self._undo = []

    # ----------------------------------------------------------- wrapping

    def install(self):
        """Wrap each layer's public functions and rebind all their aliases."""
        mods = {n: importlib.import_module(f"qthreat.{n}") for n in ALIAS_MODULES}
        wrapped = {}
        for name in MODULES:
            mod = mods[name]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self._wrap(f"{name}.{attr}", fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        kkt = name == "qsvm.solve_dual"
        signature = inspect.signature(fn) if (observe or kkt) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            final_fit = kkt and not self._inside(parent, "qsvm.select_c")
            if observe or final_fit:
                self._observe(signature, args, kwargs, result, span[2] - span[1], observe,
                              final_fit, parent)
            return result

        return traced

    def _inside(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def _observe(self, signature, args, kwargs, result, seconds, observe, final_fit, parent):
        start = time.perf_counter()
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        counts = self.counts[self.run_id]
        for key, value in (observe(a, result, seconds) if observe else {}).items():
            if key.endswith("="):
                counts[key[:-1]] = value
            else:
                counts[key] += value
        if final_fit:
            self.final_fit[self.run_id] = _kkt(a, result)
        self.spans.append(["trace.observe", start, time.perf_counter(), parent, self.run_id])

    def write(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")


# ------------------------------------------------------------- aggregation


class SpanView:
    """Inclusive and self times over the spans whose run id starts with a prefix."""

    def __init__(self, tracer, prefix):
        self.index = [i for i, s in enumerate(tracer.spans) if s[4].startswith(prefix)]
        self.spans = tracer.spans
        child = defaultdict(float)
        for i in self.index:
            _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        for i in self.index:
            name, start, end, _, _ = self.spans[i]
            self.self_s[name.split(".")[0]] += end - start - child[i]
            self.calls[name] += 1
        counts = defaultdict(float)
        for run, c in tracer.counts.items():
            if run.startswith(prefix):
                for k, v in c.items():
                    counts[k] += v
        for run, c in tracer.final_fit.items():
            if run.startswith(prefix):
                counts.update(c)
        self.counts = counts

    def time(self, *names):
        """Inclusive seconds of the named spans, not counting a span nested
        inside another span of the same set."""
        names = set(names)
        total = 0.0
        for i in self.index:
            name, start, end, parent, _ = self.spans[i]
            if name in names:
                while parent >= 0 and self.spans[parent][0] not in names:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += end - start
        return total

    def n(self, name):
        return self.calls[name]

    def per_call_ms(self, name):
        calls = self.calls[name]
        return 1e3 * self.time(name) / calls if calls else 0.0


def _ratio_ms(num, den):
    return 1e3 * num / den if den else 0.0


# (name, unit, better, end-to-end metric and workload it should move, value)
LAYER_METRICS = [
    ("datapipe.load_s", "s", "lower", "train_s on spam-vqc",
     lambda v: v.time("datapipe.load_nslkdd", "datapipe.load_lingspam")),
    ("datapipe.rows", "count", "higher", "train_s on spam-vqc",
     lambda v: v.counts["datapipe.rows"]),
    ("datapipe.features", "count", "lower", "train_s on spam-vqc",
     lambda v: v.counts["datapipe.features"]),
    ("datapipe.save_split_s", "s", "lower", "train_s on spam-vqc",
     lambda v: v.time("datapipe.save_split")),
    ("datapipe.load_split_s", "s", "lower", "rescore_s on spam-vqc",
     lambda v: v.time("datapipe.load_split")),
    ("encoder.train_s", "s", "lower", "train_s on spam-vqc",
     lambda v: v.time("encoder.train_encoder")),
    ("encoder.epochs", "count", "lower", "train_s on spam-vqc",
     lambda v: v.counts["encoder.epochs"]),
    ("encoder.forward_calls", "count", "lower", "train_s on spam-vqc",
     lambda v: v.n("encoder.forward_with_cache")),
    ("encoder.forward_rows", "count", "lower", "train_s on spam-vqc",
     lambda v: v.counts["encoder.forward_rows"]),
    ("encoder.forward_s", "s", "lower", "train_s on spam-vqc",
     lambda v: v.time("encoder.forward_with_cache")),
    ("featuremap.statevectors_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("featuremap.feature_statevectors")),
    ("featuremap.statevector_rows", "count", "lower", "train_s on kdd-wide",
     lambda v: v.counts["featuremap.statevector_rows"]),
    ("featuremap.gram_from_states_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("featuremap.gram_from_states")),
    ("featuremap.gram_entries", "count", "lower", "train_s, peak_rss_mb on kdd-wide",
     lambda v: v.counts["featuremap.gram_entries"]),
    ("featuremap.psd_clamp_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("featuremap.psd_clamp")),
    ("featuremap.center_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("featuremap.center_gram")),
    ("featuremap.gram_bytes", "B", "lower", "peak_rss_mb, rescore_s on kdd-wide",
     lambda v: v.counts["featuremap.gram_bytes"]),
    ("qsvm.select_c_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("qsvm.select_c")),
    ("qsvm.solve_dual_calls", "count", "lower", "train_s on kdd-wide",
     lambda v: v.n("qsvm.solve_dual")),
    ("qsvm.solve_dual_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("qsvm.solve_dual")),
    ("qsvm.support", "count", "lower", "stream_rows_per_s on kdd-wide",
     lambda v: v.counts["qsvm.support"]),
    ("qsvm.kkt_gap", "1", "lower", "quality line on kdd-wide",
     lambda v: v.counts["qsvm.kkt_gap"]),
    ("qsvm.converged", "1", "higher", "quality line on kdd-wide",
     lambda v: v.counts["qsvm.converged"]),
    ("qsvm.tune_threshold_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("qsvm.tune_threshold")),
    ("vqc.train_s", "s", "lower", "train_s on spam-vqc",
     lambda v: v.time("vqc.train_vqc")),
    ("vqc.param_shift_calls", "count", "lower", "train_s on spam-vqc",
     lambda v: v.n("vqc.parameter_shift_grad")),
    ("vqc.param_shift_ms", "ms", "lower", "train_s on spam-vqc",
     lambda v: v.per_call_ms("vqc.parameter_shift_grad")),
    ("vqc.shot_ms_per_row", "ms", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: _ratio_ms(v.counts["vqc.shot_s"], v.counts["vqc.shot_rows"])),
    ("qsim.noisy_calls", "count", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: v.n("qsim.apply_circuit_noisy")),
    ("qsim.noisy_s", "s", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: v.time("qsim.apply_circuit_noisy")),
    ("qsim.sample_s", "s", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: v.time("qsim.sample_shots", "qsim.sample_shots_density")),
    ("qsim.readout_s", "s", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: v.time("qsim.apply_readout_error")),
    ("qsim.mitigate_s", "s", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: v.time("qsim.mitigate_readout", "qsim.mitigate_frequencies")),
    ("qsim.gate_matrix_calls", "count", "lower", "shot stream rate on spam-vqc (not gated)",
     lambda v: v.n("qsim.gate_matrix")),
    ("metrics.report_s", "s", "lower", "train_s on kdd-wide",
     lambda v: v.time("metrics.report")),
    ("metrics.confusion_calls", "count", "lower", "train_s on kdd-wide",
     lambda v: v.n("metrics.confusion")),
    ("persist.bytes_written", "B", "lower", "train_s on kdd-wide, spam-vqc",
     lambda v: v.counts["persist.bytes_written"]),
    ("persist.save_s", "s", "lower", "train_s on kdd-wide, spam-vqc",
     lambda v: v.time("persist.save_array_f64", "persist.save_json")),
    ("persist.hash_bytes", "B", "lower", "rescore_s on kdd-wide, spam-vqc",
     lambda v: v.counts["persist.hash_bytes"]),
    ("persist.hash_s", "s", "lower", "rescore_s on kdd-wide, spam-vqc",
     lambda v: v.time("persist.sha256_file")),
    ("persist.load_s", "s", "lower", "rescore_s, peak_rss_mb on kdd-wide, spam-vqc",
     lambda v: v.time("persist.load_array_f64", "persist.load_json")),
] + [
    (f"{m}.self_s", "s", "lower", moves, lambda v, m=m: v.self_s[m])
    for m, moves in (("datapipe", "train_s on spam-vqc"), ("encoder", "train_s on spam-vqc"),
                     ("featuremap", "train_s on kdd-wide"), ("qsvm", "train_s on kdd-wide"),
                     ("vqc", "train_s on spam-vqc"),
                     ("qsim", "shot stream rate on spam-vqc (not gated)"),
                     ("batched", "train_s on spam-vqc"), ("metrics", "train_s on kdd-wide"),
                     ("persist", "train_s on kdd-wide"), ("harness", "train_s on every workload"))
] + [
    ("trace.observe_s", "s", "lower", "none: cost of the tracer's argument reading",
     lambda v: v.self_s["trace"]),
    ("trace.spans", "count", "lower", "none: spans recorded per repeat",
     lambda v: float(len(v.index))),
]


def layer_metrics(tracer, prefix):
    view = SpanView(tracer, prefix)
    return {name: float(fn(view)) for name, _, _, _, fn in LAYER_METRICS}


def dominant_layers(tracer, prefix):
    """[(module, share of the traced wall time)] by self time, largest first."""
    view = SpanView(tracer, prefix)
    total = sum(view.self_s.values())
    ranked = sorted(view.self_s.items(), key=lambda kv: -kv[1])[:TOP_LAYERS]
    return [(m, s / total if total else 0.0) for m, s in ranked]
