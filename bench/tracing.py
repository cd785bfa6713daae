"""Spans around the program's layers, installed from outside the program.

A wrapper replaces a callee at the name its callers look it up by, for
example ``sentinet.preprocess.stem`` (preprocess imports ``stem`` by name,
so the patch goes there) or the ``forward`` attribute of ``LstmLayer``.
Each call records a span: name, start, end and the span open when it
began (its parent).  Spans stay in flat in-memory arrays and are written
out once, at the end of the run.  A layer's self time is its duration
minus the time its child spans cover.

Every target is listed once, in ``TARGETS``.  A target the code under
test no longer has is reported as absent instead of failing the run, so
a rewrite of the layers keeps the traced run working.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# lookup names wrapped in a traced run, as "module:attribute path"; the
# span name drops the "sentinet." prefix
TARGETS = (
    "sentinet.corpus_io:load_corpus",
    "sentinet.corpus_io:deduplicate",
    "sentinet.corpus_io:stratified_indices",
    "sentinet.preprocess:PipelineConfig.tokens",
    "sentinet.preprocess:clean_tokens",
    "sentinet.preprocess:stem",
    "sentinet.preprocess:build_vocabulary",
    "sentinet.preprocess:encode_corpus",
    "sentinet.preprocess:write_corpus_cache",
    "sentinet.preprocess:read_corpus_cache",
    "sentinet.model_training:build_model",
    "sentinet.model_training:train",
    "sentinet.model_training:Model.forward",
    "sentinet.model_training:Model.forward_backward",
    "sentinet.model_training:adam_step",
    "sentinet.model_training:evaluate",
    "sentinet.model_training:predict_text",
    "sentinet.model_training:save_model",
    "sentinet.model_training:load_model",
    "sentinet.layers:EmbeddingLayer.forward",
    "sentinet.layers:EmbeddingLayer.backward",
    "sentinet.layers:ConvLayer.forward",
    "sentinet.layers:ConvLayer.backward",
    "sentinet.layers:LstmLayer.forward",
    "sentinet.layers:LstmLayer.backward",
    "sentinet.layers:DenseSoftmax.forward",
    "sentinet.layers:DenseSoftmax.backward",
    "sentinet.tensor_core:sigmoid",
    "sentinet.metrics:confusion",
    "sentinet.metrics:macro_report",
)

PHASE_PREFIX = "phase."
PROBE = "trace.probe"  # time spent measuring counts, excluded from every self time


def span_name(target: str) -> str:
    module, attr = target.split(":")
    return f"{module.removeprefix('sentinet.')}.{attr}"


def _resolve(target: str):
    """(owner object, attribute name) of a target, or None if it is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Records spans into flat arrays; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.current_phase = ""
        self.phase_reps: dict[str, int] = {}
        self.examples_per_rep: dict[str, int] = {}
        self.stem_calls = 0
        self.stem_inputs: set[str] = set()
        self.rows_touched: list[float] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def phase(self, name: str):
        """Top-level span grouping one repetition of a benchmark phase."""
        self.current_phase = name
        self.phase_reps[name] = self.phase_reps.get(name, 0) + 1
        try:
            with self.span(PHASE_PREFIX + name):
                yield
        finally:
            self.current_phase = ""

    def wrap(self, fn, name: str, probe=None):
        """``fn`` recording a span per call; ``probe(tracer, args)`` runs first.

        A probe that does real work opens a ``PROBE`` span so that its time
        is excluded from the enclosing span's self time.
        """
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            if probe is not None:
                probe(tracer, args)
            sid = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.absent.append(span_name(target))
                continue
            owner, attr = found
            original = owner.__dict__.get(attr, getattr(owner, attr))
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span_name(target), PROBES.get(target)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def arrays(self):
        """(name ids, durations ns, self ns, phase name per span) as numpy."""
        names = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - covered
        # a span's phase is the top-level span opened last before it
        roots = np.flatnonzero(~has_parent)
        phase = roots[np.searchsorted(roots, np.arange(len(dur)), side="right") - 1]
        phase_names = np.array(self.names, dtype=object)[names[phase]]
        return names, dur, self_ns, phase_names

    def write(self, path) -> None:
        """Every span as CSV: id, name, start_ns, end_ns, parent id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for sid, (nid, s, e, p) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                fh.write(f"{sid},{self.names[nid]},{s},{e},{p}\n")


def _count_stem(tracer: Tracer, args) -> None:
    if tracer.current_phase == "ingest" and tracer.phase_reps["ingest"] == 1 and args:
        tracer.stem_calls += 1
        tracer.stem_inputs.add(args[0])


def _count_touched_rows(tracer: Tracer, args) -> None:
    grads = args[1] if len(args) > 1 else None
    table = grads.get("embedding.table") if isinstance(grads, dict) else None
    if table is not None:
        with tracer.span(PROBE):
            touched = np.count_nonzero(np.any(table != 0.0, axis=1))
            tracer.rows_touched.append(touched / len(table))


# counts taken at a call's boundary, from its arguments
PROBES = {
    "sentinet.preprocess:stem": _count_stem,
    "sentinet.model_training:adam_step": _count_touched_rows,
}

# per-layer metric -> (span, phase, statistic); units are in BENCHMARK.json.
# Statistics:
#   total_s   summed duration per repetition of the phase, seconds
#   self_s    summed self time per repetition of the phase, seconds
#   mean_us / mean_ms   mean duration per call
#   self_us   mean self time per call, microseconds
#   calls     calls per repetition of the phase
#   self_us_per_example   self time per example the phase handles, microseconds
SPAN_METRICS = {
    "corpus_io.load_s": ("corpus_io.load_corpus", "ingest", "total_s"),
    "preprocess.clean_us": ("preprocess.clean_tokens", "ingest", "mean_us"),
    "preprocess.vocab_s": ("preprocess.build_vocabulary", "ingest", "total_s"),
    "preprocess.encode_s": ("preprocess.encode_corpus", "ingest", "total_s"),
    "preprocess.cache_write_s": ("preprocess.write_corpus_cache", "ingest", "total_s"),
    "stemming.stem_s": ("preprocess.stem", "ingest", "total_s"),
    "stemming.stem_calls": ("preprocess.stem", "ingest", "calls"),
    "preprocess.cache_read_s": ("preprocess.read_corpus_cache", "setup", "total_s"),
    "corpus_io.split_s": ("corpus_io.stratified_indices", "setup", "total_s"),
    "model_training.build_s": ("model_training.build_model", "setup", "total_s"),
    "model_training.load_s": ("model_training.load_model", "load", "total_s"),
    "layers.lstm.fwd_us": ("layers.LstmLayer.forward", "train", "self_us"),
    "layers.lstm.bwd_us": ("layers.LstmLayer.backward", "train", "self_us"),
    "tensor_core.sigmoid_s": ("tensor_core.sigmoid", "train", "total_s"),
    "tensor_core.sigmoid_calls": ("tensor_core.sigmoid", "train", "calls"),
    "layers.conv.fwd_us": ("layers.ConvLayer.forward", "train", "self_us"),
    "layers.conv.bwd_us": ("layers.ConvLayer.backward", "train", "self_us"),
    "layers.embedding.fwd_us": ("layers.EmbeddingLayer.forward", "train", "self_us"),
    "layers.embedding.bwd_us": ("layers.EmbeddingLayer.backward", "train", "self_us"),
    "model_training.optimizer_step_ms": ("model_training.adam_step", "train", "mean_ms"),
    "model_training.optimizer_steps": ("model_training.adam_step", "train", "calls"),
    "layers.dense.fwd_us": ("layers.DenseSoftmax.forward", "train", "self_us"),
    "layers.dense.bwd_us": ("layers.DenseSoftmax.backward", "train", "self_us"),
    "model_training.fwd_bwd_self_us": (
        "model_training.Model.forward_backward", "train", "self_us"
    ),
    "model_training.batch_loop_self_s": ("model_training.train", "train", "self_s"),
    "model_training.reeval_s": ("model_training.evaluate", "train", "total_s"),
    "model_training.evaluate_us": (
        "model_training.evaluate", "evaluate", "self_us_per_example"
    ),
    "metrics.report_s": ("metrics.macro_report", "evaluate", "total_s"),
    "model_training.predict_forward_us": ("model_training.Model.forward", "predict", "mean_us"),
    "preprocess.predict_tokens_us": ("preprocess.PipelineConfig.tokens", "predict", "mean_us"),
}


def span_metrics(tracer: Tracer, phases) -> dict[str, float]:
    """Evaluate the SPAN_METRICS of ``phases``; a span that never ran (or is
    absent) gives 0."""
    names, dur, self_ns, phase_names = tracer.arrays()
    out = {}
    for metric, (span, phase, stat) in SPAN_METRICS.items():
        if phase not in phases:
            continue
        nid = tracer._name_ids.get(span)
        mask = (names == nid) & (phase_names == PHASE_PREFIX + phase) if nid is not None else None
        calls = int(mask.sum()) if mask is not None else 0
        per_rep = max(tracer.phase_reps.get(phase, 1), 1)
        if calls == 0:
            value = 0.0
        elif stat == "total_s":
            value = dur[mask].sum() / 1e9 / per_rep
        elif stat == "self_s":
            value = self_ns[mask].sum() / 1e9 / per_rep
        elif stat == "mean_us":
            value = dur[mask].mean() / 1e3
        elif stat == "mean_ms":
            value = dur[mask].mean() / 1e6
        elif stat == "self_us":
            value = self_ns[mask].mean() / 1e3
        elif stat == "self_us_per_example":
            value = self_ns[mask].sum() / 1e3 / per_rep / tracer.examples_per_rep[phase]
        else:  # calls
            value = calls / per_rep
        out[metric] = float(value)
    return out


# span-name prefix -> layer; a span inside a layer's span (the LSTM's
# sigmoid calls, say) counts towards that layer
LAYERS = {
    "layers.EmbeddingLayer.": "embedding",
    "layers.ConvLayer.": "conv",
    "layers.LstmLayer.": "lstm",
    "layers.DenseSoftmax.": "dense",
    "model_training.adam_step": "optimizer",
}


def layer_shares(tracer: Tracer, phase: str) -> dict[str, float]:
    """Share of a phase's time per layer; other spans by their own self time."""
    names, _, self_ns, phases = tracer.arrays()
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    label_of_name = [
        next((layer for prefix, layer in LAYERS.items() if n.startswith(prefix)), n)
        for n in tracer.names
    ]
    labels: dict[int, str] = {}
    totals: dict[str, float] = {}
    for i in np.flatnonzero(phases == PHASE_PREFIX + phase):
        label = label_of_name[names[i]]
        inherited = labels.get(int(parent[i]))
        if label not in LAYERS.values() and inherited in LAYERS.values():
            label = inherited
        labels[int(i)] = label
        totals[label] = totals.get(label, 0.0) + float(self_ns[i])
    grand = sum(totals.values())
    return {k: v / grand for k, v in sorted(totals.items(), key=lambda kv: -kv[1])} if grand else {}


def layer_metrics(tracer: Tracer, phases) -> dict[str, float]:
    """The span statistics of ``phases`` plus the counts the probes took."""
    out = span_metrics(tracer, phases)
    out["stemming.distinct_share"] = (
        len(tracer.stem_inputs) / tracer.stem_calls if tracer.stem_calls else 0.0
    )
    out["layers.embedding.rows_touched_share"] = (
        float(np.mean(tracer.rows_touched)) if tracer.rows_touched else 0.0
    )
    return out
