"""Outside-in tracing of cmikit: spans around calls into each module's public functions.

Nothing inside ``src/`` is edited.  ``Tracer.install`` swaps each traced
function for a timing wrapper in every ``cmikit.*`` module namespace that
holds it (the defining module and every module that imported it by name),
and swaps ``cmikit.knn.cKDTree`` for a timing subclass.  ``uninstall`` puts
the originals back, so untraced operations run the unmodified code.

Spans live in memory as ``[id, name, start, end, parent_id, op, attrs]``
lists and are written out once, when the run ends.  All traced CLI commands
call the library from one Python thread (cKDTree worker threads run inside
native code), so a single parent stack is enough.
"""

import functools
import json
import statistics
import sys
import time

import numpy as np

ID, NAME, START, END, PARENT, OP, ATTRS = range(7)

# (module, function) pairs wrapped from outside, with the span name each gets.
TRACED_FUNCTIONS = (
    ("nn", "train_binary_classifier", "nn.fit"),
    ("nn", "loss_and_gradients", "nn.loss_and_gradients"),
    ("nn", "adam_step", "nn.adam_step"),
    ("nn", "predict_proba", "nn.predict_proba"),
    ("divergence", "classifier_dkl", "divergence.classifier_dkl"),
    ("divergence", "classifier_dkl_paired", "divergence.classifier_dkl_paired"),
    ("divergence", "fit_standardizer", "divergence.fit_standardizer"),
    ("divergence", "dv_plugin", "divergence.dv_plugin"),
    ("estimators", "mi_diff_cmi", "estimators.mi_diff_cmi"),
    ("estimators", "generator_classifier_cmi", "estimators.generator_classifier_cmi"),
    ("knn", "ksg_cmi_sweep", "knn.ksg_cmi_sweep"),
    ("knn", "ksg_mi", "knn.ksg_mi"),
    ("knn", "knn_permute_apply", "knn.knn_permute_apply"),
    ("data", "load_csv", "data.load_csv"),
    ("data", "split_rows", "data.split"),
    ("data", "split_half", "data.split"),
    ("data", "derange_rows", "data.derange_rows"),
    ("datagen", "generate", "datagen.generate"),
    ("cit", "run_cit_benchmark", "cit.run_cit_benchmark"),
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, package):
        self.package = package  # the imported ``cmikit`` package
        self.spans = []
        self.stack = []
        self.op = -1
        self.fit_rows = []  # training-set row count of each open nn.fit span
        self.patches = []  # (module, attribute, original)

    # --- spans ---------------------------------------------------------

    def open(self, name, attrs=None):
        span = [len(self.spans), name, time.perf_counter(), None,
                self.stack[-1][ID] if self.stack else None, self.op, attrs]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[NAME]} closed out of order")

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, tracer._attrs_before(name, args))
            try:
                result = fn(*args, **kwargs)
            finally:
                if name == "nn.fit":
                    tracer.fit_rows.pop()
                tracer.close(span)
            if name == "divergence.fit_standardizer":  # time the returned map too
                return tracer._wrap(result, "divergence.standardize")
            return result

        return wrapper

    def _attrs_before(self, name, args):
        if name == "nn.fit":
            n_train = 2 * min(len(args[0]), len(args[1]))  # classes are balanced first
            self.fit_rows.append(n_train)
            return {"rows": n_train}
        if name == "nn.loss_and_gradients":
            rows = int(np.shape(args[1])[0])
            # the full training set is passed once per epoch, minibatches otherwise
            kind = "epoch_end" if self.fit_rows and rows == self.fit_rows[-1] else "batch"
            return {"rows": rows, "kind": kind}
        if name == "divergence.dv_plugin":
            clip = args[2] if len(args) > 2 else 1e-3  # dv_plugin's default
            probs = np.concatenate([np.ravel(args[0]), np.ravel(args[1])])
            at_clip = int(np.count_nonzero((probs <= clip) | (probs >= 1.0 - clip)))
            return {"probs": int(probs.size), "at_clip": at_clip}
        return None

    # --- patching ------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == self.package.__name__ or k.startswith(prefix))]

    def install(self):
        if self.patches:
            return
        modules = self._modules()
        for mod_name, attr, span_name in TRACED_FUNCTIONS:
            original = getattr(getattr(self.package, mod_name), attr)
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        knn = self.package.knn
        self.patches.append((knn, "cKDTree", knn.cKDTree))
        knn.cKDTree = _timed_tree_class(self, knn.cKDTree)

    def uninstall(self):
        for mod, key, original in reversed(self.patches):
            setattr(mod, key, original)
        self.patches = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s[ID], "name": s[NAME], "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "op": s[OP], "attrs": s[ATTRS]}) + "\n")


def _timed_tree_class(tracer, base):
    class TimedTree(base):
        def __init__(self, *args, **kwargs):
            span = tracer.open("knn.tree_build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(span)

        def query(self, *args, **kwargs):
            span = tracer.open("knn.tree_query")
            try:
                return super().query(*args, **kwargs)
            finally:
                tracer.close(span)

        def query_ball_point(self, *args, **kwargs):
            span = tracer.open("knn.ball_query", {"pairs": 0})
            try:
                out = super().query_ball_point(*args, **kwargs)
            finally:
                tracer.close(span)
            if kwargs.get("return_length"):
                span[ATTRS]["pairs"] = int(np.sum(out))
            else:
                span[ATTRS]["pairs"] = int(sum(len(lst) for lst in out))
            return out

    TimedTree.__name__ = TimedTree.__qualname__ = base.__name__
    return TimedTree


# --- per-layer metrics -------------------------------------------------------

def self_times(spans):
    """Self time of every span: its duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for a, b in sorted(children.get(s[ID], ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out[s[ID]] = (s[END] - s[START]) - covered
    return out


def _dur(s):
    return s[END] - s[START]


def op_layer_values(spans):
    """Per-layer totals and counts for the spans of one operation (first span is the op)."""
    op_span = spans[0]
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    v = {k: 0.0 for k in (
        "nn.fit_s", "nn.epoch_end_s", "nn.predict_s", "divergence.self_s", "estimators.self_s",
        "knn.ball_pass_s", "knn.joint_query_s", "knn.tree_build_s", "knn.sweep_self_s",
        "knn.permute_s", "data.load_csv_s", "data.split_s", "data.derange_s",
        "datagen.generate_s", "cit.score_s")}
    counts = {k: 0 for k in (
        "nn.fit_calls", "nn.batch_steps", "nn.backprop_rows.batch", "nn.backprop_rows.epoch_end",
        "divergence.dkl_calls", "knn.ball_pairs", "knn.permute_calls")}
    probs = at_clip = 0
    batch_us, adam_us, dv_us = [], [], []
    for s in spans[1:]:
        name, d = s[NAME], _dur(s)
        parent = by_id.get(s[PARENT])
        if name == "nn.fit":
            counts["nn.fit_calls"] += 1
            v["nn.fit_s"] += d
        elif name == "nn.loss_and_gradients":
            if s[ATTRS]["kind"] == "batch":
                counts["nn.batch_steps"] += 1
                counts["nn.backprop_rows.batch"] += s[ATTRS]["rows"]
                batch_us.append(d * 1e6)
            else:
                counts["nn.backprop_rows.epoch_end"] += s[ATTRS]["rows"]
                v["nn.epoch_end_s"] += d
        elif name == "nn.adam_step":
            adam_us.append(d * 1e6)
        elif name == "nn.predict_proba":
            v["nn.predict_s"] += d
        elif name.startswith("divergence."):
            v["divergence.self_s"] += own[s[ID]]
            if name in ("divergence.classifier_dkl", "divergence.classifier_dkl_paired"):
                counts["divergence.dkl_calls"] += 1
            elif name == "divergence.dv_plugin":
                dv_us.append(d * 1e6)
                probs += s[ATTRS]["probs"]
                at_clip += s[ATTRS]["at_clip"]
        elif name.startswith("estimators."):
            v["estimators.self_s"] += own[s[ID]]
            if name == "estimators.mi_diff_cmi" and parent and parent[NAME] == "cit.run_cit_benchmark":
                v["cit.score_s"] += d
        elif name == "knn.ball_query":
            v["knn.ball_pass_s"] += d
            counts["knn.ball_pairs"] += s[ATTRS]["pairs"]
        elif name == "knn.tree_query":
            if parent and parent[NAME] in ("knn.ksg_cmi_sweep", "knn.ksg_mi"):
                v["knn.joint_query_s"] += d
        elif name == "knn.tree_build":
            v["knn.tree_build_s"] += d
        elif name in ("knn.ksg_cmi_sweep", "knn.ksg_mi"):
            v["knn.sweep_self_s"] += own[s[ID]]
        elif name == "knn.knn_permute_apply":
            v["knn.permute_s"] += d
            counts["knn.permute_calls"] += 1
        elif name == "data.load_csv":
            v["data.load_csv_s"] += d
        elif name == "data.split":
            v["data.split_s"] += d
        elif name == "data.derange_rows":
            v["data.derange_s"] += d
        elif name == "datagen.generate":
            v["datagen.generate_s"] += d
    rows = counts["nn.backprop_rows.batch"] + counts["nn.backprop_rows.epoch_end"]
    v["nn.useful_grad_frac"] = counts["nn.backprop_rows.batch"] / rows if rows else 0.0
    v["divergence.clip_frac"] = at_clip / probs if probs else 0.0
    v["cli.self_s"] = own[op_span[ID]]
    v["trace.accounted_frac"] = sum(own.values()) / _dur(op_span)
    counts["trace.spans"] = len(spans)
    return v, counts, {"nn.batch_grad_us": batch_us, "nn.adam_us": adam_us,
                       "divergence.dv_plugin_us": dv_us}


# Metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "nn.fit_calls": "count", "nn.fit_s": "s", "nn.batch_steps": "count",
    "nn.batch_grad_us": "us", "nn.adam_us": "us", "nn.epoch_end_s": "s",
    "nn.backprop_rows.batch": "count", "nn.backprop_rows.epoch_end": "count",
    "nn.useful_grad_frac": "frac", "nn.predict_s": "s",
    "divergence.dkl_calls": "count", "divergence.self_s": "s",
    "divergence.dv_plugin_us": "us", "divergence.clip_frac": "frac",
    "estimators.self_s": "s",
    "knn.ball_pass_s": "s", "knn.ball_pairs": "count", "knn.joint_query_s": "s",
    "knn.tree_build_s": "s", "knn.sweep_self_s": "s", "knn.permute_s": "s",
    "knn.permute_calls": "count",
    "data.load_csv_s": "s", "data.split_s": "s", "data.derange_s": "s",
    "datagen.generate_s": "s", "cit.score_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.accounted_frac": "frac", "trace.spans": "count",
}

def layer_metrics(tracer, traced_ops):
    """Per-layer metrics over the traced operations, plus each op's exact counts.

    Times are medians over the traced ops (step-level times: medians over
    every call); counts come from the first traced op, and the returned list
    holds every traced op's counts for the exact-count self-check.
    """
    by_op = {}
    for s in tracer.spans:
        by_op.setdefault(s[OP], []).append(s)
    totals, per_op_counts, calls = [], [], {}
    for op in traced_ops:
        v, counts, c = op_layer_values(by_op[op])
        totals.append(v)
        per_op_counts.append(counts)
        for k, xs in c.items():
            calls.setdefault(k, []).extend(xs)
    out = {k: statistics.median(t[k] for t in totals) for k in totals[0]}
    out.update(per_op_counts[0])
    for k, xs in calls.items():
        out[k] = statistics.median(xs) if xs else 0.0
    return out, per_op_counts
