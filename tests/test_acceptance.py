"""Acceptance suite: every release gate in one module, one test per gate.

Each test prints a single PASS line (run with ``pytest -s`` or ``-rA`` to
see them); a failing gate shows up as an ordinary pytest failure.  The
gates are property- and oracle-based because the original 61k-tweet
labeled dataset is external and not reproducible at desk scale.
"""

import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from sentinet import cli
from sentinet.layers import (
    ConvLayer,
    DenseSoftmax,
    EmbeddingLayer,
    LstmLayer,
    cross_entropy,
    cross_entropy_grad,
)
from sentinet.metrics import (
    BinaryCounts,
    accuracy,
    auc,
    confusion,
    f1,
    one_vs_rest,
    precision,
    recall,
)
from sentinet.model_training import (
    CorruptFile,
    FormatVersionMismatch,
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    save_model,
    train,
)
from sentinet.preprocess import (
    build_vocabulary,
    default_stop_words,
    filter_twitter_artifacts,
    preprocess_pipeline,
    remove_punctuation,
    remove_urls,
)
from sentinet.stemming import stem
from sentinet.tensor_core import Rng

from conftest import encode_toy_corpus, make_toy_texts
from oracles import central_difference_grad, relative_error
from porter_reference import reference_stem
from test_cli import train_args, write_toy_csv
from test_stemming import WORDS

DELTA = 1e-5
GRAD_TOL = 1e-4


def report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) - {detail}")


@pytest.fixture(scope="module")
def toy_training_run():
    """One cnn-lstm run at default widths, shared by criteria 3 and 8."""
    texts, labels = make_toy_texts()
    corpus, vocab, _ = encode_toy_corpus(texts, labels)
    config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n)
    model = build_model(config, vocab, Rng(42))
    start = time.perf_counter()
    _, history = train(
        model, corpus, None, TrainConfig(epochs=60, batch_size=32, seed=42)
    )
    elapsed = time.perf_counter() - start
    return corpus, vocab, history, elapsed


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences everywhere."""
    start = time.perf_counter()
    k, n, h, m, d_h = 4, 7, 3, 2, 5

    worst = 0.0

    def sweep(loss_fn, arrays, analytic, frozen_rows=()):
        nonlocal worst
        for name, array in arrays.items():
            numeric = central_difference_grad(loss_fn, array, DELTA)
            ana = np.asarray(analytic[name]).reshape(-1)
            num = numeric.reshape(-1)
            start_index = frozen_rows.count(name) and array.shape[1]
            for i in range(start_index, array.size):
                worst = max(worst, relative_error(ana[i], num[i]))

    # each layer alone, through an upstream-weighted scalar output
    table = Rng(1).uniform(-0.7, 0.7, (9, k))
    table[0] = 0.0
    emb = EmbeddingLayer(table)
    ids = np.array([[2, 8, 2, 0, 3, 1, 4]])
    upstream_e = Rng(2).uniform(-1, 1, (1, n, k))
    emb_grads, _ = emb.backward(emb.forward(ids)[1], upstream_e)
    sweep(
        lambda: float((emb.forward(ids)[0] * upstream_e).sum()),
        {"table": table},
        emb_grads,
        frozen_rows=("table",),
    )

    conv = ConvLayer(Rng(3).uniform(-0.6, 0.6, (m, h, k)), Rng(4).uniform(-0.2, 0.2, m))
    sentence = Rng(5).uniform(-0.8, 0.8, (1, n, k))
    upstream_c = Rng(6).uniform(-1, 1, (1, n - h + 1, m))
    conv_grads, _ = conv.backward(conv.forward(sentence)[1], upstream_c)
    sweep(
        lambda: float((conv.forward(sentence)[0] * upstream_c).sum()),
        {"filters": conv.filters, "bias": conv.bias},
        conv_grads,
    )

    lstm = LstmLayer(
        np.concatenate(
            [Rng(7).split(g).uniform(-0.4, 0.4, (d_h, m + d_h)) for g in LstmLayer.GATES]
        ),
        np.concatenate([Rng(8).split(g).uniform(-0.2, 0.2, d_h) for g in LstmLayer.GATES]),
    )
    steps = Rng(9).uniform(-0.9, 0.9, (1, n - h + 1, m))
    upstream_l = Rng(10).uniform(-1, 1, d_h)
    lstm_grads, _ = lstm.backward(lstm.forward(steps)[1], upstream_l[None])
    # the fused tensors hold every gate's block, so this sweeps each of them
    arrays = {"weights": lstm.weights, "bias": lstm.bias}
    sweep(lambda: float(lstm.forward(steps)[0][0] @ upstream_l), arrays, lstm_grads)

    dense = DenseSoftmax(Rng(11).uniform(-1, 1, (3, d_h)), Rng(12).uniform(-1, 1, 3))
    hidden = Rng(13).uniform(-1, 1, (1, d_h))
    probs, dense_cache = dense.forward(hidden)
    dense_grads, _ = dense.backward(dense_cache, cross_entropy_grad(probs, [1]))
    sweep(
        lambda: float(cross_entropy(dense.forward(hidden)[0], [1])[0]),
        {"weights": dense.weights, "bias": dense.bias},
        dense_grads,
    )

    # the assembled cnn-lstm on a 3-example batch
    vocab = build_vocabulary([["a", "b", "c", "d", "e", "f", "g"]], 1)
    config = ModelConfig(
        variant="cnn-lstm", seq_len=n, embed_dim=k, window=h, filters=m, hidden=d_h
    )
    model = build_model(config, vocab, Rng(14))
    batch = [
        (np.array([2, 3, 4, 5, 2, 0, 0]), 0),
        (np.array([6, 7, 2, 0, 0, 0, 0]), 1),
        (np.array([3, 3, 8, 3, 3, 3, 3]), 2),
    ]

    def batch_loss():
        return sum(cross_entropy(model.forward(i[None])[0], lab) for i, lab in batch) / len(batch)

    summed = None
    for ids_, label in batch:
        _, grads = model.forward_backward(ids_[None], [label])
        if summed is None:
            summed = {k_: np.array(v) for k_, v in grads.items()}
        else:
            for k_ in summed:
                summed[k_] += grads[k_]
    for k_ in summed:
        summed[k_] /= len(batch)
    sweep(batch_loss, model.parameters(), summed, frozen_rows=("embedding.table",))

    elapsed = time.perf_counter() - start
    assert worst <= GRAD_TOL, f"worst relative error {worst}"
    assert elapsed < 10.0
    report(1, elapsed, f"max relative gradient error {worst:.3e} <= {GRAD_TOL}")


def test_criterion_2_shape_law():
    """Convolution yields exactly n-h+1 positions and m(n-h+1) features."""
    start = time.perf_counter()
    m, k = 2, 3
    checked = 0
    for n in range(2, 33):
        for h in range(1, n + 1):
            layer = ConvLayer(np.zeros((m, h, k)), np.zeros(m))
            out = layer.forward(np.zeros((1, n, k)))[0][0]
            assert out.shape == (n - h + 1, m)
            assert out.size == m * (n - h + 1)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, elapsed, f"{checked} (n, h) pairs obey the n-h+1 feature-map law")


def test_criterion_3_overfit_capability(toy_training_run):
    """Every variant memorizes the 30-example keyword corpus."""
    corpus, vocab, history, hybrid_elapsed = toy_training_run
    start = time.perf_counter()
    best_hybrid = max(r.train_accuracy for r in history.records)
    assert best_hybrid >= 0.95, f"cnn-lstm reached only {best_hybrid}"

    single_best = {}
    for variant in ("cnn", "lstm"):
        config = ModelConfig(variant=variant, seq_len=corpus.n)
        model = build_model(config, vocab, Rng(42))
        _, hist = train(
            model, corpus, None, TrainConfig(epochs=40, batch_size=32, seed=42)
        )
        single_best[variant] = max(r.train_accuracy for r in hist.records)
        assert single_best[variant] >= 0.90, f"{variant} reached only {single_best[variant]}"
    elapsed = time.perf_counter() - start + hybrid_elapsed
    assert elapsed < 120.0
    report(
        3,
        elapsed,
        f"train accuracy: cnn-lstm {best_hybrid:.2f}, "
        f"cnn {single_best['cnn']:.2f}, lstm {single_best['lstm']:.2f}",
    )


def test_criterion_4_metric_fidelity():
    """Library measures equal direct evaluations of the printed formulas."""
    start = time.perf_counter()

    # direct transcriptions of the five expressions, kept separate from
    # the library implementation on purpose
    def direct(tp, fp, fn, tn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        acc = (tp + tn) / (tp + tn + fp + fn) if tp + tn + fp + fn else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        area = (r - fpr + 1) / 2
        return p, r, f, acc, area

    gen = np.random.default_rng(1234)
    for _ in range(100):
        cm = confusion(gen.integers(0, 3, 60), gen.integers(0, 3, 60))
        for positive in range(3):
            c = one_vs_rest(cm, positive)
            p, r, f, acc, area = direct(c.tp, c.fp, c.fn, c.tn)
            assert abs(precision(c) - p) <= 1e-12
            assert abs(recall(c) - r) <= 1e-12
            assert abs(f1(c) - f) <= 1e-12
            assert abs(accuracy(c) - acc) <= 1e-12
            assert abs(auc(c) - area) <= 1e-12
            if c.fp + c.tn:
                balanced = (r + c.tn / (c.tn + c.fp)) / 2
                assert abs(auc(c) - balanced) <= 1e-12

    worked = BinaryCounts(tp=5, fp=2, fn=3, tn=10)
    expected = (0.7143, 0.625, 0.6667, 0.75, 0.7292)
    got = (precision(worked), recall(worked), f1(worked), accuracy(worked), auc(worked))
    for g, e in zip(got, expected):
        assert abs(g - e) <= 5e-5, f"worked example: {got} vs {expected}"

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, elapsed, "300 one-vs-rest reductions match the formula oracle at 1e-12")


def test_criterion_5_preprocessing_fidelity():
    """Stemmer matches the reference; cleaning rules match a 30-case table."""
    start = time.perf_counter()

    words = sorted(set(WORDS))
    assert len(words) >= 50
    for word in words:
        assert stem(word) == reference_stem(word), word

    url_cases = [
        ("read this https://t.co/xyz now", "read this  now"),
        ("no links here", "no links here"),
        ("www.who.int fact sheet", " fact sheet"),
        ("http://a.io/b?q=1#f tail", " tail"),
        ("pre https://x.y", "pre "),
        ("https://solo", ""),
        ("a www.b.c d www.e.f g", "a  d  g"),
        ("wrapped (https://x.io/page) done", "wrapped ( done"),
        ("ftp://not.a.match stays", "ftp://not.a.match stays"),
        ("Read HTTPS://X.CO now", "Read  now"),
    ]
    punct_cases = [
        ("great!! really?", "great   really "),
        ("abc", "abc"),
        ("a,b.c", "a b c"),
        ("semi;colon:dash-underscore_", "semi colon dash underscore "),
        ("quotes'\"backtick`", "quotes  backtick "),
        ("(paren)[brack]{brace}", " paren  brack  brace "),
        ("@#$%^&*", "       "),
        ("tilde~plus+eq=", "tilde plus eq "),
    ]
    filter_cases = [
        ("RT @user: #monkeypox is spreading", False, " monkeypox is spreading"),
        ("plain sentence", False, "plain sentence"),
        ("@a @b hi", False, "  hi"),
        ("rt lowercase retweet", False, "lowercase retweet"),
        ("RT RT double marker", False, "double marker"),
        ("#tag1 #tag2 words", False, "tag1 tag2 words"),
        ("#tag1 #tag2 words", True, "  words"),
        ("smile \U0001f600 emoji", False, "smile   emoji"),
        ("mid RT stays", False, "mid RT stays"),
        ("@user123: done", False, " done"),
        ("café", False, "caf "),
        ("RT: quoted retweet", False, "quoted retweet"),
    ]
    assert len(url_cases) + len(punct_cases) + len(filter_cases) == 30
    for raw, expected in url_cases:
        assert remove_urls(raw) == expected, raw
    for raw, expected in punct_cases:
        assert remove_punctuation(raw) == expected, raw
    for raw, drop, expected in filter_cases:
        assert filter_twitter_artifacts(raw, drop_hashtag_words=drop) == expected, raw

    stops = default_stop_words()
    samples = [t for t, _ in [(t, l) for t, l in zip(*make_toy_texts())]] + [
        "RT @WHO: #Monkeypox cases RISING!! https://who.int/x see details",
        "Fièvre, fatigue & rash… c'est sérieux @user #santé",
    ]
    first = json.dumps([preprocess_pipeline(s, stops) for s in samples])
    second = json.dumps([preprocess_pipeline(s, stops) for s in samples])
    assert first == second

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(
        5,
        elapsed,
        f"{len(words)} stems match the reference; 30 cleaning cases exact; "
        "pipeline byte-stable",
    )


def test_criterion_6_serialization(tmp_path):
    """Model files round-trip bitwise and reject corruption."""
    start = time.perf_counter()
    texts, labels = make_toy_texts()
    corpus, vocab, pipeline = encode_toy_corpus(texts, labels)
    config = ModelConfig(
        variant="cnn-lstm", seq_len=corpus.n, embed_dim=8, window=3, filters=6, hidden=6
    )
    model = build_model(config, vocab, Rng(77), pipeline)
    train(model, corpus, corpus, TrainConfig(epochs=2, batch_size=8, seed=77))
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)

    gen = np.random.default_rng(99)
    for _ in range(100):
        ids = gen.integers(0, len(vocab), size=(1, corpus.n))
        npt.assert_array_equal(model.forward(ids), loaded.forward(ids))

    blob = path.read_bytes()
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(CorruptFile):
        load_model(truncated)

    flipped = bytearray(blob)
    flipped[len(flipped) // 2] ^= 0x01
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(bytes(flipped))
    with pytest.raises(CorruptFile):
        load_model(corrupt)

    bumped = bytearray(blob)
    bumped[4] += 1
    versioned = tmp_path / "versioned.bin"
    versioned.write_bytes(bytes(bumped))
    with pytest.raises(FormatVersionMismatch):
        load_model(versioned)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, elapsed, "100 round-trip predictions bitwise equal; 3 corruptions rejected")


def test_criterion_7_cli_determinism(tmp_path):
    """Identical seeds give byte-identical model files and history CSVs."""
    start = time.perf_counter()
    csv_path = write_toy_csv(tmp_path / "toy.csv")
    data_dir = tmp_path / "data"
    assert cli.main(
        ["ingest", "--csv", str(csv_path), "--out-dir", str(data_dir), "--seq-len", "12"]
    ) == 0
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli.main(train_args(data_dir, out, epochs=5)) == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "model.bin").read_bytes() == (second / "model.bin").read_bytes()
    assert (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(7, elapsed, "two seeded train runs are byte-identical")


def test_criterion_8_loss_sanity(toy_training_run):
    """Uniform predictor scores ln 3; training halves the loss by epoch 50."""
    corpus, vocab, history, _ = toy_training_run
    start = time.perf_counter()

    config = ModelConfig(
        variant="cnn-lstm", seq_len=corpus.n, embed_dim=4, window=3, filters=2, hidden=3
    )
    uniform = build_model(config, vocab, Rng(0))
    for arr in uniform.parameters().values():
        arr[:] = 0.0
    result = evaluate(uniform, corpus)
    assert abs(result.loss - math.log(3)) <= 1e-9

    first_loss = history.records[0].train_loss
    fiftieth_loss = history.records[49].train_loss
    assert fiftieth_loss <= 0.5 * first_loss, (
        f"loss only moved {first_loss} -> {fiftieth_loss} in 50 epochs"
    )
    elapsed = time.perf_counter() - start
    report(
        8,
        elapsed,
        f"uniform loss = ln 3 within 1e-9; epoch-50 loss {fiftieth_loss:.4f} "
        f"<= half of epoch-1 loss {first_loss:.4f}",
    )
