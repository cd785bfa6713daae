"""The benchmark's workloads and the user flow each one measures.

Every workload runs the flow of the ``sentinet`` subcommands through the
same public functions they call:

    ingest    corpus_io.load_corpus [+ deduplicate] -> PipelineConfig.tokens
              -> build_vocabulary -> encode_corpus -> write_corpus_cache
    train     model_training.train, one epoch on a fixed stratified slice,
              then save_model
    setup     read_corpus_cache + stratified_indices + build_model, what
              `sentinet train` does before its first batch
    load      load_model, what `sentinet predict` does before its first
              prediction
    evaluate  evaluate + metrics.confusion + metrics.macro_report
    predict   predict_text on held-out raw tweets, one at a time, one client

so every end-to-end metric is measured on every workload.  Ingest, setup
and train run in the workload's process.  Load, evaluate and predict run
in a fresh process that starts from the saved model file, as a later
``sentinet evaluate`` or ``sentinet predict`` does, so what serving costs
in time and memory is its own.  Workloads differ in
corpus shape, model variant and where ``--seconds`` goes, which decides
the layer that dominates.

On a shared machine the CPU alternates between a fast and a markedly
slower state for tens of seconds at a time, so a timing is the median of
repetitions spread over the run: ingest repeats until its budget is
spent, at least once, at the start and again at the end; setup runs
before each training run and again at the end; train repeats until its
budget is spent; load, evaluate and a chunk of predict calls run in
interleaved rounds, and predict latency percentiles pool every call.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import corpus_gen
import sentinet
import tracing
from sentinet import corpus_io, metrics, preprocess
from sentinet import model_training as mt
from sentinet.tensor_core import Rng

SEQ_LEN = 40
BATCH_SIZE = 32
# above the 1e-3 default so one short epoch leaves the plateau where the
# model predicts only the majority class; the rate changes no step's cost
LEARNING_RATE = 4e-3
MIN_ROUNDS = 3
MIN_SETUPS = 7
MIN_PREDICTS = 2000  # so at least twenty samples lie beyond p99
LABEL_CHECKS = 64
PROB_SUM_TOLERANCE = 1e-9
# phases of the workload's own process and of the serving process
TRAIN_PHASES = ("ingest", "setup", "train")
SERVE_PHASES = ("load", "evaluate", "predict")


@dataclass(frozen=True)
class Workload:
    """One workload; its name and one-line rationale are in BENCHMARK.json."""

    name: str
    shape: str  # corpus_gen.SHAPES key
    variant: str
    dedupe: bool
    train_rows: int
    heldout_rows: int
    # time for the ingest (spent at the start and again at the end), train
    # and measuring-round phases, in --seconds; every phase runs at least
    # once (rounds at least MIN_ROUNDS times)
    budgets: tuple[float, float, float]
    predict_chunk: int  # predict calls per measuring round
    # per-layer metric -> the end-to-end metric it should move on this workload
    predictions: dict[str, str]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-cnn-lstm",
            shape="paper",
            variant="cnn-lstm",
            dedupe=False,
            train_rows=640,
            heldout_rows=400,
            budgets=(0.0, 0.0, 2.0),
            predict_chunk=500,
            predictions={
                "layers.lstm.*, tensor_core.sigmoid_*": "train_examples_per_s, "
                "evaluate_examples_per_s, predict_p50_ms, predict_p99_ms "
                "(largest share of training)",
                "layers.embedding.*, model_training.optimizer_*": "train_examples_per_s "
                "(large table: second-largest cost); nothing on the predict path",
                "layers.conv.*": "train_examples_per_s (a little)",
                "model_training.batch_loop_self_s, fwd_bwd_self_us, reeval_s": "train_examples_per_s",
                "preprocess.*, stemming.*, corpus_io.load_s": "ingest_tweets_per_s",
                "preprocess.cache_read_s, corpus_io.split_s, model_training.build_s": "setup_s",
                "model_training.load_s, model_training.file_bytes": "serve_setup_s, "
                "serve_peak_rss_mb (a ~60k-row embedding table to read)",
                "model_training.evaluate_us, metrics.report_s": "evaluate_examples_per_s",
                "model_training.predict_forward_us, preprocess.predict_tokens_us": "predict_p50_ms, "
                "predict_p99_ms",
            },
        ),
        Workload(
            name="topic-cnn",
            shape="topic",
            variant="cnn",
            dedupe=True,
            train_rows=1024,
            heldout_rows=600,
            budgets=(0.6, 0.6, 1.0),
            predict_chunk=300,
            predictions={
                "layers.conv.*": "train_examples_per_s (largest layer)",
                "layers.lstm.*, tensor_core.sigmoid_*": "nothing: the LSTM never runs",
                "layers.embedding.*, model_training.optimizer_*": "train_examples_per_s "
                "(a little: a ~3k-row table, under a fifth of training together)",
                "stemming.*": "ingest_tweets_per_s (more than on paper-cnn-lstm: "
                "stemming.distinct_share is low)",
                "preprocess.cache_read_s, corpus_io.split_s, model_training.build_s": "setup_s",
                "model_training.evaluate_us, metrics.report_s": "evaluate_examples_per_s",
            },
        ),
    )
}


class Checks:
    """Operations attempted and failed; every failed check is recorded."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, count: int, ok: bool, what: str) -> None:
        """``count`` operations that all fail if ``ok`` is false."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        """A check on operations already counted: one failure if false."""
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@contextmanager
def _untraced(_name):
    yield


@contextmanager
def _tracing(spans_path: Path | None):
    """(tracer, phase) for the block: a Tracer installed when ``spans_path``
    is set, whose spans are written there at the end; else (None, no-op)."""
    if spans_path is None:
        yield None, _untraced
        return
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer, tracer.phase
    finally:
        tracer.uninstall()
    tracer.write(spans_path)


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def _peak_rss_mb() -> float:
    """Peak resident set of this process since it was started.

    Linux's ru_maxrss also counts the process it was forked from before
    exec, so a fresh child would report its parent's peak; VmHWM does not.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _scaled(w: Workload, rows: int | None) -> tuple[corpus_gen.CorpusShape, Workload]:
    """The workload's corpus shape, shrunk to ``rows`` for a smoke run."""
    shape = corpus_gen.SHAPES[w.shape]
    if rows is None:
        return shape, w
    return replace(shape, rows=rows), replace(
        w,
        train_rows=min(w.train_rows, rows // 4),
        heldout_rows=min(w.heldout_rows, rows // 5),
        predict_chunk=max(1, min(w.predict_chunk, rows // 20)),
    )


def _repeat(budget_s: float, op, min_reps: int = 1) -> list:
    """Call ``op()`` until ``budget_s`` has passed and ``min_reps`` are done."""
    results = []
    deadline = time.perf_counter() + budget_s
    while len(results) < min_reps or time.perf_counter() < deadline:
        results.append(op())
    return results


@dataclass(frozen=True)
class ServeJob:
    """What the serving process is given; the model it reads from its file."""

    workload: Workload
    rounds_budget: float
    min_predicts: int
    model_path: Path
    heldout: preprocess.EncodedCorpus
    heldout_texts: list[str]
    spans_path: Path | None  # set in a traced run


@dataclass
class Served:
    """The serving process's measurements and checks."""

    checks: Checks
    load_times: list[float]
    eval_times: list[float]
    latencies_ms: list[float]  # thread CPU time per predict call, ascending
    wall_latencies_ms: list[float]  # wall time per predict call, ascending
    val_accuracy: float
    predictions_sha256: str
    peak_rss_mb: float
    layer_values: dict[str, float] = field(default_factory=dict)  # traced runs only


def serve(job: ServeJob) -> Served:
    """Load, evaluate and predict rounds on the saved model; runs in a
    fresh process, so its peak memory is that of a process serving it."""
    w, heldout, texts = job.workload, job.heldout, job.heldout_texts
    checks = Checks()
    actual = [int(label) for label in heldout.labels]
    load_times, eval_times, eval_predictions = [], [], []
    latencies_ns, wall_latencies_ns = [], []
    digest = hashlib.sha256()

    with _tracing(job.spans_path) as (tracer, phase):
        with phase("prepare"):
            model = mt.load_model(job.model_path)

        # predict_text must agree with evaluate on the same encoded texts
        sample = texts[:LABEL_CHECKS]
        sample_encoded = preprocess.encode_corpus(
            [model.pipeline.tokens(t) for t in sample], [0] * len(sample), model.vocab, SEQ_LEN
        )
        expected = mt.evaluate(model, sample_encoded).predictions
        for text, want in zip(sample, expected):
            label, _ = mt.predict_text(model, text)
            checks.run(1, label == want, "predict_text disagrees with evaluate")
        if tracer is not None:
            tracer.examples_per_rep["evaluate"] = len(heldout)
        gc.collect()

        def measuring_round():
            # load: what `sentinet predict` does before its first prediction
            with phase("load"):
                t0 = time.perf_counter()
                loaded = mt.load_model(job.model_path)
                load_times.append(time.perf_counter() - t0)
            del loaded

            # evaluate, as `sentinet evaluate --split val` scores a partition
            with phase("evaluate"):
                t0 = time.perf_counter()
                result = mt.evaluate(model, heldout)
                report = metrics.macro_report(metrics.confusion(result.predictions, actual))
                eval_times.append(time.perf_counter() - t0)
            checks.run(len(heldout), math.isfinite(result.loss), "evaluate: non-finite loss")
            checks.check(abs(report.accuracy - result.accuracy) < 1e-12, "evaluate: report accuracy")
            eval_predictions.append(result.predictions)

            # predict: a closed loop with one client over held-out raw tweets
            start = len(latencies_ns)
            with phase("predict"):
                for i in range(start, start + w.predict_chunk):
                    t0, c0 = time.perf_counter_ns(), time.thread_time_ns()
                    label, probs = mt.predict_text(model, texts[i % len(texts)])
                    latencies_ns.append(time.thread_time_ns() - c0)
                    wall_latencies_ns.append(time.perf_counter_ns() - t0)
                    ok = (
                        label in (0, 1, 2)
                        and probs.shape == (3,)
                        and bool(np.all(np.isfinite(probs)))
                        and abs(float(probs.sum()) - 1.0) <= PROB_SUM_TOLERANCE
                    )
                    checks.run(1, ok, "predict: bad label or probabilities")
                    if i < job.min_predicts:
                        digest.update(corpus_io.external_label(label).encode() + probs.tobytes())
            return result.accuracy

        min_rounds = max(MIN_ROUNDS, math.ceil(job.min_predicts / w.predict_chunk))
        val_accuracy = _repeat(job.rounds_budget, measuring_round, min_rounds)[-1]
        checks.check(
            all(p == eval_predictions[0] for p in eval_predictions), "evaluate: repeats differ"
        )
        peak_rss_mb = _peak_rss_mb()

    served = Served(
        checks=checks,
        load_times=load_times,
        eval_times=eval_times,
        latencies_ms=sorted(x / 1e6 for x in latencies_ns),
        wall_latencies_ms=sorted(x / 1e6 for x in wall_latencies_ns),
        val_accuracy=val_accuracy,
        predictions_sha256=digest.hexdigest(),
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        # tracing overhead: the same evaluate repetitions again, untraced
        untraced_times = []
        for _ in eval_times:
            t0 = time.perf_counter()
            result = mt.evaluate(model, heldout)
            metrics.macro_report(metrics.confusion(result.predictions, actual))
            untraced_times.append(time.perf_counter() - t0)
        served.layer_values = tracing.span_metrics(tracer, SERVE_PHASES)
        served.layer_values["trace.overhead_share"] = (
            statistics.median(eval_times) / statistics.median(untraced_times) - 1.0
        )
    return served


def _serve_in_fresh_process(job: ServeJob, workdir: Path) -> Served:
    """``serve(job)`` in a new interpreter, waited for before returning.

    A plain child process rather than a multiprocessing pool: a pool also
    starts a resource-tracker process that outlives the call.
    """
    job_path, out_path = workdir / "serve-job.pickle", workdir / "served.pickle"
    job_path.write_bytes(pickle.dumps(job))
    path = [str(Path(sentinet.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(job_path), str(out_path)],
        env=env,
        check=True,
        timeout=170,
    )
    return pickle.loads(out_path.read_bytes())


def run(name: str, seed: int, seconds: float, workdir: Path, trace_dir=None, rows=None):
    """Run one workload; returns (metric values by name, Checks, details).

    With ``trace_dir`` the run is traced, its values are the per-layer
    metrics and every span is written under ``trace_dir``; else the values
    are the end-to-end metrics.
    """
    shape, w = _scaled(WORKLOADS[name], rows)
    min_predicts = MIN_PREDICTS if rows is None else min(MIN_PREDICTS, rows // 10)
    ingest_budget, train_budget, rounds_budget = (seconds * b for b in w.budgets)
    spans_paths = (None, None)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_paths = (trace_dir / "spans-train.csv", trace_dir / "spans-serve.csv")
    checks = Checks()
    details: dict = {"workload": w.name, "seed": seed}

    csv_path = workdir / "corpus.csv"
    cache_path = workdir / "encoded.csv"
    model_path = workdir / "model.bin"
    corpus_gen.write_csv(corpus_gen.generate(shape, seed), csv_path)

    with _tracing(spans_paths[0]) as (tracer, phase):
        ingest_times, ingest_digests = [], []
        first_ingest = []  # the first ingest's output; later ones are dropped at once

        def ingest():
            """What `sentinet ingest` does."""
            with phase("ingest"):
                t0 = time.perf_counter()
                corpus = corpus_io.load_corpus(csv_path)
                if w.dedupe:
                    corpus = corpus_io.deduplicate(corpus)
                pipeline = preprocess.PipelineConfig(
                    preprocess.default_stop_words(), False, w.dedupe
                )
                token_lists = [pipeline.tokens(ex.text) for ex in corpus.examples]
                vocab = preprocess.build_vocabulary(token_lists, 1)
                encoded = preprocess.encode_corpus(token_lists, corpus.labels(), vocab, SEQ_LEN)
                preprocess.write_corpus_cache(encoded, cache_path)
                ingest_times.append(time.perf_counter() - t0)
            ingest_digests.append(hashlib.sha256(encoded.sequences.tobytes()).hexdigest())
            checks.run(
                1,
                len(encoded) == len(corpus) and len(vocab) > 2,
                "ingest: rows or vocabulary lost",
            )
            if len(ingest_times) == 1:
                first_ingest.append((corpus, pipeline, vocab, encoded))

        _repeat(ingest_budget, ingest)
        corpus, pipeline, vocab, encoded = first_ingest.pop()
        details.update(rows=shape.rows, examples=len(corpus), vocab_size=len(vocab))

        split = corpus_io.SplitSpec(
            train_fraction=w.train_rows / len(corpus),
            val_fraction=w.heldout_rows / len(corpus),
            seed=seed,
        )
        model_config = mt.ModelConfig(variant=w.variant, seq_len=SEQ_LEN)
        setup_times = []

        def set_up():
            """What `sentinet train` does before its first batch."""
            gc.collect()  # start each repetition from a heap without garbage
            with phase("setup"):
                t0 = time.perf_counter()
                cached = preprocess.read_corpus_cache(cache_path)
                corpus_io.stratified_indices(cached.labels, split)
                model = mt.build_model(model_config, vocab, Rng(seed), pipeline)
                setup_times.append(time.perf_counter() - t0)
            return model

        with phase("prepare"):
            cached = preprocess.read_corpus_cache(cache_path)
            train_idx, heldout_idx, _ = corpus_io.stratified_indices(cached.labels, split)
        checks.run(
            1,
            np.array_equal(cached.sequences, encoded.sequences),
            "setup: cache round trip differs",
        )
        train_part = cached.subset(train_idx)
        heldout_part = cached.subset(heldout_idx)
        heldout_texts = [corpus.examples[i].text for i in heldout_idx]
        # keep only what a `sentinet train` process would hold from here on
        del corpus, encoded, cached
        gc.collect()

        # train: whole one-epoch runs, each from a freshly set-up model
        train_config = mt.TrainConfig(
            epochs=1, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE, seed=seed
        )
        batches = math.ceil(len(train_part) / BATCH_SIZE)
        first_model = []  # the first trained model; later ones are dropped at once

        def train_once():
            model = set_up()
            with phase("train"):
                t0 = time.perf_counter()
                model, history = mt.train(model, train_part, heldout_part, train_config)
                elapsed = time.perf_counter() - t0
            losses = [x for r in history.records for x in (r.train_loss, r.val_loss)]
            checks.run(batches, all(map(math.isfinite, losses)), "train: non-finite loss")
            if not first_model:
                first_model.append(model)
            return elapsed, history.records

        trains = _repeat(train_budget, train_once)
        train_times = [t for t, _ in trains]
        model, history = first_model.pop(), trains[0][1]
        checks.check(all(h == history for _, h in trains), "train: repeats differ")
        del trains

        mt.save_model(model, model_path)
        details["model_sha256"] = hashlib.sha256(model_path.read_bytes()).hexdigest()
        details["model_file_bytes"] = model_path.stat().st_size
        with phase("prepare"):
            reloaded = mt.load_model(model_path)
        same = all(
            np.array_equal(a, b)
            for a, b in zip(reloaded.parameters().values(), model.parameters().values())
        )
        checks.run(1, same, "load_model: parameters differ from the saved model")
        del reloaded

        job = ServeJob(
            workload=w,
            rounds_budget=rounds_budget,
            min_predicts=min_predicts,
            model_path=model_path,
            heldout=heldout_part,
            heldout_texts=heldout_texts,
            spans_path=spans_paths[1],
        )
        served = _serve_in_fresh_process(job, workdir)
        checks.merge(served.checks)

        # ingest and set up again, so that their repetitions span the run
        _repeat(ingest_budget, ingest)
        checks.check(all(d == ingest_digests[0] for d in ingest_digests), "ingest: repeats differ")
        while len(setup_times) < MIN_SETUPS:
            set_up()
        train_peak_rss_mb = _peak_rss_mb()

    majority = max(np.bincount(heldout_part.labels, minlength=3)) / len(heldout_part)
    checks.check(served.val_accuracy == history[-1].val_accuracy, "evaluate: != train's val record")
    checks.check(
        served.val_accuracy > majority,
        f"val_accuracy {served.val_accuracy:.4f} not above majority share {majority:.4f}",
    )

    # Latency percentiles are taken on the thread's CPU clock.  On a shared
    # virtual machine the hypervisor takes the CPU away for milliseconds at a
    # time (steal time, about 2% of it); that lands in the tail of the wall
    # clock and doubled wall p99 between otherwise equal runs.  The program
    # is single-threaded and does no I/O per call, so the two clocks agree
    # elsewhere; the wall-clock percentiles are in the details.
    latencies_ms, wall_ms = served.latencies_ms, served.wall_latencies_ms
    seconds_per_rep = {  # the repetitions behind each timing metric
        "setup_s": setup_times,
        "serve_setup_s": served.load_times,
        "ingest_tweets_per_s": ingest_times,
        "train_examples_per_s": train_times,
        "evaluate_examples_per_s": served.eval_times,
    }
    details.update(
        val_accuracy=served.val_accuracy,
        val_majority_share=float(majority),
        samples={k: len(v) for k, v in seconds_per_rep.items()}
        | {"predict_p50_ms": len(latencies_ms), "predict_p99_ms": len(latencies_ms)},
        seconds_per_rep=seconds_per_rep,
        predict_mean_ms=statistics.fmean(latencies_ms),
        predict_wall_ms={
            "p50": _percentile(wall_ms, 0.50),
            "p99": _percentile(wall_ms, 0.99),
            "mean": statistics.fmean(wall_ms),
        },
        predict_samples_beyond_p99=len(latencies_ms) - math.ceil(0.99 * len(latencies_ms)),
        predictions_sha256=served.predictions_sha256,
        predictions_hashed=min(len(latencies_ms), min_predicts),
    )

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "serve_setup_s": statistics.median(served.load_times),
            "ingest_tweets_per_s": shape.rows / statistics.median(ingest_times),
            "train_examples_per_s": len(train_part) * train_config.epochs
            / statistics.median(train_times),
            "evaluate_examples_per_s": len(heldout_part) / statistics.median(served.eval_times),
            "predict_p50_ms": _percentile(latencies_ms, 0.50),
            "predict_p99_ms": _percentile(latencies_ms, 0.99),
            "peak_rss_mb": train_peak_rss_mb,
            "serve_peak_rss_mb": served.peak_rss_mb,
        }
        return values, checks, details

    values = tracing.layer_metrics(tracer, TRAIN_PHASES) | served.layer_values
    values.update({
        "preprocess.vocab_size": len(vocab),
        "model_training.param_count": model.parameter_count(),
        "model_training.file_bytes": details["model_file_bytes"],
    })
    details["absent_trace_targets"] = tracer.absent
    details["train_layer_shares"] = tracing.layer_shares(tracer, "train")
    details["span_files"] = [str(p) for p in spans_paths]
    return values, checks, details


if __name__ == "__main__":
    # the serving process: workloads.py JOB OUT, with src/ and bench/ on PYTHONPATH
    import workloads  # the pickled job names this module, not __main__

    job = pickle.loads(Path(sys.argv[1]).read_bytes())
    Path(sys.argv[2]).write_bytes(pickle.dumps(workloads.serve(job)))
