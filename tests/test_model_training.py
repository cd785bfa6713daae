import dataclasses
import hashlib
import itertools
import json
import math
import struct
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from sentinet.corpus_io import NEGATIVE, NEUTRAL, POSITIVE, SplitSpec
from sentinet.layers import LstmLayer, cross_entropy
from sentinet.metrics import confusion, macro_report
from sentinet.model_training import (
    VARIANTS,
    AdamState,
    CorruptFile,
    EpochHistory,
    EpochRecord,
    FormatVersionMismatch,
    InvalidConfig,
    Model,
    ModelConfig,
    NonFiniteLoss,
    TrainConfig,
    adam_step,
    build_model,
    epochs,
    evaluate,
    load_model,
    predict_text,
    save_model,
    sgd_step,
    train,
)
from sentinet.preprocess import EncodedCorpus, build_vocabulary
from sentinet.tensor_core import Rng

from conftest import encode_toy_corpus, fifo_feeding, kernel_pins, make_toy_texts
from oracles import copying_load_parameters

SMALL = dict(seq_len=7, embed_dim=4, window=3, filters=2, hidden=5)


def small_model(variant="cnn-lstm", seed=7, vocab_tokens=("good", "bad", "meh", "news")):
    vocab = build_vocabulary([list(vocab_tokens)] * 2, 1)
    config = ModelConfig(variant=variant, **SMALL)
    return build_model(config, vocab, Rng(seed)), vocab


def random_sequences(count, seq_len, vocab_size, seed=0):
    gen = np.random.default_rng(seed)
    return gen.integers(0, vocab_size, size=(count, seq_len))


def rewrite_header(path, mutate) -> None:
    """Apply ``mutate`` to a model file's header JSON and re-seal the file
    with a valid length and checksum."""
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    mutate(header)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    body = blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
    body += blob[16 + header_len : -32]
    path.write_bytes(body + hashlib.sha256(body).digest())


class TestBuildModel:
    def test_parameter_count_matches_closed_form(self):
        model, vocab = small_model()
        V, k = len(vocab), SMALL["embed_dim"]
        h, m, d_h = SMALL["window"], SMALL["filters"], SMALL["hidden"]
        expected = V * k + m * h * k + m + 4 * d_h * (m + d_h) + 4 * d_h + 3 * d_h + 3
        assert model.parameter_count() == expected

    # sha256 of every parameter's bytes in file order (seed 7, SMALL widths,
    # four-token vocabulary), as drawn when each LSTM gate was its own
    # tensor: fusing the gates must not change a seeded model's start
    PARENT_DIGESTS = {
        "cnn-lstm": "c238709ab6a906246cea4cf806e9f6c73e99ad5f0a3c0116f34933f538e3f180",
        "cnn": "7f9d2e127e2c8c9ac1ab9cb902b0bace5c328e33612ff7ceee3ac2730167701f",
        "lstm": "b5ea6279715360469f34ed0b62326e1b18a0843abc47ad9570cf2e4c24f365f5",
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_seeded_parameters_match_per_tensor_streams(self, variant):
        model, vocab = small_model(variant)
        params = model.parameters()
        digest = hashlib.sha256(b"".join(a.tobytes() for a in params.values())).hexdigest()
        assert digest == self.PARENT_DIGESTS[variant]

        def xavier(label, rows, cols):
            scale = math.sqrt(6.0 / (rows + cols))
            return Rng(7).split(label).uniform(-scale, scale, (rows, cols))

        table = xavier("embedding.table", len(vocab), SMALL["embed_dim"])
        table[0] = 0.0
        npt.assert_array_equal(params["embedding.table"], table)
        npt.assert_array_equal(
            params["head.weights"], xavier("head.weights", 3, params["head.weights"].shape[1])
        )
        if "lstm" in model.stages:
            d_h = SMALL["hidden"]
            blocks = np.split(params["lstm.weights"], len(LstmLayer.GATES))
            for gate, block in zip(LstmLayer.GATES, blocks):
                npt.assert_array_equal(block, xavier(f"lstm.w_{gate}", d_h, block.shape[1]))

    def test_same_seed_bitwise_equal_parameters(self):
        a, _ = small_model(seed=123)
        b, _ = small_model(seed=123)
        for name, arr in a.parameters().items():
            npt.assert_array_equal(arr, b.parameters()[name])

    def test_window_longer_than_sequence_rejected(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(variant="cnn-lstm", seq_len=4, window=5)

    def test_zero_dims_rejected(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(variant="cnn", seq_len=4, filters=0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(variant="transformer")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ["embed_dim", "window", "filters", "hidden"])
    def test_boolean_size_rejected(self, variant, name):
        """A bool is an int to isinstance, but no size, even one the
        variant never reads."""
        with pytest.raises(InvalidConfig, match=f"^{name} must be an integer >= 1, got True"):
            ModelConfig(variant=variant, **{name: True})

    def test_forget_gate_bias_starts_at_one(self):
        model, _ = small_model()
        bias = dict(zip(LstmLayer.GATES, np.split(model.stages["lstm"].bias, 4)))
        npt.assert_array_equal(bias["forget"], 1.0)
        npt.assert_array_equal(bias["input"], 0.0)

    def test_pad_embedding_row_is_zero(self):
        model, _ = small_model()
        npt.assert_array_equal(model.stages["embedding"].table[0], 0.0)

    def test_variant_layers(self):
        cnn, _ = small_model("cnn")
        assert list(cnn.stages) == ["embedding", "conv", "pool", "head"]
        lstm, _ = small_model("lstm")
        assert list(lstm.stages) == ["embedding", "lstm", "head"]
        both, _ = small_model("cnn-lstm")
        assert list(both.stages) == ["embedding", "conv", "lstm", "head"]


@pytest.mark.parametrize("name, value", [("seed", 1.5), ("epochs", 2.5), ("batch_size", True)])
def test_train_config_counts_are_integers(name, value):
    with pytest.raises(InvalidConfig, match=f"^{name} must be an integer, got {value!r}"):
        TrainConfig(**{name: value})


class TestForward:
    def test_zero_parameters_give_uniform(self):
        for variant in ("cnn-lstm", "cnn", "lstm"):
            model, _ = small_model(variant)
            for arr in model.parameters().values():
                arr[:] = 0.0
            probs = model.forward(np.array([[2, 3, 4, 5, 2, 0, 0]]))
            npt.assert_allclose(probs, 1 / 3, atol=1e-15)

    def test_equals_hand_composed_layers(self):
        model, vocab = small_model("cnn-lstm")
        ids = np.array([[2, 4, 3, 5, 0, 0, 0]])
        s = model.stages
        x = s["embedding"].forward(ids)[0]
        expected = s["head"].forward(s["lstm"].forward(s["conv"].forward(x)[0])[0])[0]
        npt.assert_array_equal(model.forward(ids), expected)

    def test_cnn_variant_equals_hand_composition(self):
        model, _ = small_model("cnn")
        ids = np.array([[2, 4, 3, 5, 2, 3, 4]])
        s = model.stages
        feats = s["conv"].forward(s["embedding"].forward(ids)[0])[0]
        expected = s["head"].forward(feats.mean(axis=1))[0]
        npt.assert_array_equal(model.forward(ids), expected)

    def test_lstm_variant_equals_hand_composition(self):
        model, _ = small_model("lstm")
        ids = np.array([[5, 4, 3, 2, 0, 0, 0]])
        s = model.stages
        expected = s["head"].forward(s["lstm"].forward(s["embedding"].forward(ids)[0])[0])[0]
        npt.assert_array_equal(model.forward(ids), expected)

    def test_outputs_are_probability_vectors(self):
        model, vocab = small_model()
        probs = model.forward(random_sequences(1000, SMALL["seq_len"], len(vocab), seed=5))
        assert probs.shape == (1000, 3)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9)

    def test_wrong_length_rejected(self):
        model, _ = small_model()
        with pytest.raises(InvalidConfig):
            model.forward(np.zeros((1, 3), dtype=np.int64))


@pytest.mark.parametrize("variant", VARIANTS)
class TestBatching:
    """A batch gives what its rows give as batches of one."""

    def test_forward_equals_batches_of_one(self, variant):
        model, vocab = small_model(variant)
        ids = random_sequences(9, SMALL["seq_len"], len(vocab), seed=3)
        batched = model.forward(ids)
        for row, probs in zip(ids, batched):
            npt.assert_allclose(probs, model.forward(row[None])[0], rtol=0, atol=1e-12)

    def test_forward_backward_equals_mean_of_examples(self, variant):
        model, vocab = small_model(variant)
        ids = random_sequences(6, SMALL["seq_len"], len(vocab), seed=4)
        labels = np.array([0, 1, 2, 2, 1, 0])
        loss, grads = model.forward_backward(ids, labels)
        singles = [model.forward_backward(i[None], l[None]) for i, l in zip(ids, labels)]
        assert abs(loss - np.mean([l for l, _ in singles])) <= 1e-12
        assert grads.keys() == model.parameters().keys()
        for name, grad in grads.items():
            mean = np.mean([g[name] for _, g in singles], axis=0)
            npt.assert_allclose(grad, mean, rtol=0, atol=1e-12, err_msg=name)


class TestOptimizers:
    def test_sgd_zero_gradient_is_identity(self):
        params = {"w": np.array([1.0, -2.0])}
        sgd_step(params, {"w": np.zeros(2)}, learning_rate=0.5)
        npt.assert_array_equal(params["w"], [1.0, -2.0])

    def test_sgd_two_steps_match_one_combined(self):
        grad = {"w": np.array([0.3, -0.7])}
        a = {"w": np.array([1.0, 1.0])}
        sgd_step(a, grad, 0.2)
        sgd_step(a, grad, 0.3)
        b = {"w": np.array([1.0, 1.0])}
        sgd_step(b, grad, 0.5)
        npt.assert_allclose(a["w"], b["w"], atol=1e-15)

    def test_sgd_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^w: param \(2,\) vs grad \(3,\)"):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.1)

    def test_adam_single_step_hand_evaluated(self):
        # g=1, zero state: m_hat/sqrt(v_hat) = 1, so theta drops by ~lr
        params = {"w": np.array([0.5])}
        state = AdamState(params)
        cfg = TrainConfig(learning_rate=0.1)
        adam_step(params, {"w": np.array([1.0])}, state, cfg)
        assert params["w"][0] == pytest.approx(0.5 - 0.1, abs=1e-8)
        assert state.step == 1

    def test_adam_zero_learning_rate_is_identity(self):
        params = {"w": np.array([2.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.array([3.0])}, state, TrainConfig(learning_rate=0.0))
        assert params["w"][0] == 2.0

    def test_adam_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        state = AdamState(params)
        with pytest.raises(ValueError, match=r"^w: param \(2, 2\) vs grad \(4,\)"):
            adam_step(params, {"w": np.zeros(4)}, state, TrainConfig())


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=6,
                             window=3, filters=4, hidden=5)
        fresh = build_model(config, vocab, Rng(3))
        trained = build_model(config, vocab, Rng(3))
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=1)
        train(trained, corpus, None, cfg)
        for name, arr in fresh.parameters().items():
            npt.assert_array_equal(arr, trained.parameters()[name])

    def test_history_one_record_per_epoch_consecutive(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=3, hidden=2)
        model = build_model(config, vocab, Rng(0))
        _, history = train(model, corpus, corpus, TrainConfig(epochs=4, seed=2))
        assert [r.epoch for r in history.records] == [1, 2, 3, 4]

    def test_identical_seeds_identical_history(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=5,
                             window=3, filters=3, hidden=4)
        histories = []
        for _ in range(2):
            model = build_model(config, vocab, Rng(11))
            _, history = train(
                model, corpus, corpus, TrainConfig(epochs=3, batch_size=8, seed=11)
            )
            histories.append(history)
        assert histories[0].records == histories[1].records

    def test_loss_decreases_on_toy_corpus(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=8,
                             window=3, filters=8, hidden=8)
        model = build_model(config, vocab, Rng(5))
        _, history = train(
            model, corpus, None, TrainConfig(epochs=25, batch_size=8, seed=5)
        )
        assert history.records[-1].train_loss < history.records[0].train_loss

    def test_non_finite_loss_aborts_with_location(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="lstm", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=3)
        model = build_model(config, vocab, Rng(1))
        model.stages["head"].bias[0] = float("nan")
        before = model.history
        with pytest.raises(NonFiniteLoss) as err:
            train(model, corpus, None, TrainConfig(epochs=1, seed=0))
        assert err.value.epoch == 1
        assert err.value.batch == 0
        assert model.history is before and model.history.records == []

    def test_epochs_zero_returns_empty_history(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(1))
        _, history = train(model, corpus, None, TrainConfig(epochs=0))
        assert len(history) == 0

    def test_empty_training_corpus_rejected(self):
        model, _ = small_model()
        empty = EncodedCorpus(np.empty((0, 7), dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError, match="training corpus is empty"):
            train(model, empty, None, TrainConfig(epochs=1))

    def test_empty_training_corpus_raises_at_first_next(self):
        model, _ = small_model()
        empty = EncodedCorpus(np.empty((0, 7), dtype=np.int64), np.empty(0, dtype=np.int64))
        run = epochs(model, empty, None, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="training corpus is empty"):
            next(run)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_epochs_yields_the_records_train_keeps(self, toy_corpus, optimizer):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=4,
                             window=3, filters=3, hidden=4)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.05,
                          optimizer=optimizer, seed=21)
        consumed, driven = (build_model(config, vocab, Rng(21)) for _ in range(2))
        _, history = train(consumed, corpus, corpus, cfg)
        assert list(epochs(driven, corpus, corpus, cfg)) == history.records
        assert_bit_equal(driven.parameters(), consumed.parameters())
        assert len(driven.history) == 0  # only train sets it

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_stopping_after_an_epoch_leaves_that_epochs_parameters(self, toy_corpus,
                                                                   optimizer):
        """Stopping after epoch 2 of 5 gives the parameters of a 2-epoch run."""
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=4,
                             window=3, filters=3, hidden=4)
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.05,
                          optimizer=optimizer, seed=21)
        stopped, short = (build_model(config, vocab, Rng(21)) for _ in range(2))
        records = list(itertools.islice(epochs(stopped, corpus, corpus, cfg), 2))
        _, history = train(short, corpus, corpus, dataclasses.replace(cfg, epochs=2))
        assert records == history.records
        assert_bit_equal(stopped.parameters(), short.parameters())

    def test_without_shuffle_batches_follow_corpus_order(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(1))
        batches, forward_backward = [], model.forward_backward

        def recording(ids, labels):
            batches.append((ids, labels))
            return forward_backward(ids, labels)

        model.forward_backward = recording
        train(model, corpus, None, TrainConfig(epochs=2, batch_size=7, shuffle=False))
        assert [len(ids) for ids, _ in batches] == [7, 7, 7, 7, 2] * 2
        for epoch in (batches[:5], batches[5:]):
            npt.assert_array_equal(np.concatenate([ids for ids, _ in epoch]), corpus.sequences)
            npt.assert_array_equal(np.concatenate([y for _, y in epoch]), corpus.labels)

    # sha256 of the file save_model writes after this training with a dense
    # V x k embedding gradient and the whole-tensor optimizers of oracles.py:
    # the row-sparse gradient and in-place steps must give the same bytes.
    # Per OpenBLAS kernel, as each sums a matrix product in its own order
    # (OPENBLAS_CORETYPE=Prescott runs the kernel named Katmai); cnn-sgd has
    # the same bytes under SkylakeX and Haswell
    TRAINED_FILE_DIGESTS = {
        "SkylakeX": {
            ("cnn-lstm", "adam"): "2484cd98eed1b011354ebf50cb9b2857b6588b857ef7bc56682447703e01d06f",
            ("cnn-lstm", "sgd"): "0b2a191bde34e1a2e3f4f38d80e15e238cf6e765d402c8622399148e3da7f6a0",
            ("cnn", "adam"): "0898b34da185c1155f2df784257f3f56ae8903f2ddf5d1c3775bc637d0db969d",
            ("cnn", "sgd"): "1308d3c0d1229ac4bda5e69a8bebe04d98f74e0745567079053517f8997b903e",
        },
        "Haswell": {
            ("cnn-lstm", "adam"): "37d112e5a2c146a99cc49f0ae76a4a114c6d87d76862689e5f4f624aaec43d8f",
            ("cnn-lstm", "sgd"): "3bc38e2b972f243e7ea106dfba1f1900868be16898076244bde855f75924d5d5",
            ("cnn", "adam"): "7f340557e13cda9781fbec5f0f1d6ab28e51c7fb9d62db0dce52a91e92e98a2a",
            ("cnn", "sgd"): "1308d3c0d1229ac4bda5e69a8bebe04d98f74e0745567079053517f8997b903e",
        },
        "Sandybridge": {
            ("cnn-lstm", "adam"): "2fd9c04e76c605db26e0d88c1c49a2502446ef1014fb2d5ca3d9983d1b2cf0e7",
            ("cnn-lstm", "sgd"): "b6ea7d19c15eb81164d088d394ab8f7c4e8d7a20be1d40ec35c0b7bb6689fd70",
            ("cnn", "adam"): "e4bc18abccb0d69e89196e35eb515d1d6846dfe373758fcb7da19953247c77db",
            ("cnn", "sgd"): "fd37f5c58dc5c2e0a3592d2b052a7fb6ce28162d0886aa55dd218e77742ee4b0",
        },
        "Katmai": {
            ("cnn-lstm", "adam"): "f58af8caf4b3844ee4f02244663cbecc0a604d86537a7da1a62451c09a1c09dd",
            ("cnn-lstm", "sgd"): "507abf2d509cbc533c692ac8ae953b42d644ca39b2f3e7e41243a7654e3acce3",
            ("cnn", "adam"): "a77ea126b2f8b62e4d66c80e0d68e981c1685478fed8262d1fc953cbcd23a330",
            ("cnn", "sgd"): "64ec71f06040c57a616cc8f3523d4f68ac822a00c2a49cc7ddc22e92dcd001d5",
        },
    }

    @pytest.mark.parametrize("variant, optimizer", TRAINED_FILE_DIGESTS["SkylakeX"])
    def test_trained_file_bytes_are_pinned(self, tmp_path, toy_corpus, variant, optimizer):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant=variant, seq_len=corpus.n, embed_dim=4,
                             window=3, filters=3, hidden=4)
        model = build_model(config, vocab, Rng(21), pipeline)
        # 4 batches of at most 8 per epoch: each batch touches a part of the table
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05,
                          optimizer=optimizer, seed=21)
        train(model, corpus, corpus, cfg)
        path = tmp_path / "model.bin"
        save_model(model, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        run = variant, optimizer
        assert digest == kernel_pins(self.TRAINED_FILE_DIGESTS, {run: digest})[run]


class TestEvaluate:
    def test_uniform_model_scores_ln3_on_balanced_corpus(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=4,
                             window=3, filters=2, hidden=3)
        model = build_model(config, vocab, Rng(9))
        for arr in model.parameters().values():
            arr[:] = 0.0
        result = evaluate(model, corpus)
        assert result.loss == pytest.approx(math.log(3), abs=1e-9)

    def test_prediction_list_length(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="lstm", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=3)
        model = build_model(config, vocab, Rng(2))
        result = evaluate(model, corpus)
        assert len(result.predictions) == len(corpus)

    def test_accuracy_matches_metrics_module(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=3, hidden=2)
        model = build_model(config, vocab, Rng(3))
        result = evaluate(model, corpus)
        cm = confusion(result.predictions, [int(l) for l in corpus.labels])
        assert macro_report(cm).accuracy == pytest.approx(result.accuracy, abs=1e-12)

    def test_empty_corpus_rejected(self, toy_corpus):
        _, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=5, embed_dim=2, window=2,
                             filters=2, hidden=2)
        model = build_model(config, vocab, Rng(0))
        empty = EncodedCorpus(
            np.empty((0, 5), dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            evaluate(model, empty)


class TestSerialization:
    def test_round_trip_predictions_bitwise(self, tmp_path, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=6,
                             window=3, filters=4, hidden=5)
        model = build_model(config, vocab, Rng(21), pipeline)
        train(model, corpus, corpus, TrainConfig(epochs=2, batch_size=8, seed=21))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        ids = random_sequences(100, corpus.n, len(vocab), seed=8)
        npt.assert_array_equal(model.forward(ids), loaded.forward(ids))

    def test_round_trip_preserves_history_and_pipeline(self, tmp_path, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="lstm", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=3)
        model = build_model(config, vocab, Rng(4), pipeline)
        train(model, corpus, corpus, TrainConfig(epochs=3, batch_size=16, seed=4))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.history.records == model.history.records
        for name, arr in model.parameters().items():
            npt.assert_array_equal(loaded.parameters()[name], arr)
        assert loaded.pipeline.stop_words.words == pipeline.stop_words.words
        assert loaded.config == model.config
        assert loaded.vocab.tokens() == vocab.tokens()

    @pytest.mark.parametrize("split", [None, SplitSpec(0.7, 0.0, seed=3)], ids=["none", "spec"])
    def test_round_trip_preserves_split(self, tmp_path, toy_corpus, split):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(6), pipeline)
        assert model.split is None
        model.split = split
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert load_model(path).split == split

    def test_round_trip_without_validation(self, tmp_path, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(6), pipeline)
        train(model, corpus, None, TrainConfig(epochs=2, seed=6))
        path = tmp_path / "model.bin"
        save_model(model, path)
        records = load_model(path).history.records
        assert [r.train_loss for r in records] == [r.train_loss for r in model.history.records]
        assert all(math.isnan(r.val_loss) and math.isnan(r.val_accuracy) for r in records)

    def test_truncated_file_rejected(self, tmp_path, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(5))
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_flipped_payload_byte_rejected(self, tmp_path, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(5))
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_version_bump_rejected(self, tmp_path, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="cnn", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(5))
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] += 1  # version field sits right after the magic
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    def test_format_1_file_rejected(self, tmp_path):
        model, _ = small_model("cnn")
        path = tmp_path / "model.bin"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch):
            load_model(path)

    MALFORMED_HEADERS = {
        "extra-config-key": lambda h: h["config"].update(extra=1),
        "missing-config-key": lambda h: h["config"].pop("hidden"),
        "other-variant": lambda h: h["config"].update(variant="cnn"),
        "float-width": lambda h: h["config"].update(hidden=2.0),
        "missing-history": lambda h: h.pop("history"),
        "extra-key": lambda h: h.update(extra=None),
        "extra-vocab-key": lambda h: h["vocab"].update(extra=None),
        "renamed-param": lambda h: h["params"][-1].update(name="head.offset"),
        "reordered-params": lambda h: h["params"].reverse(),
        "missing-param": lambda h: h.update(params=h["params"][:-1]),
        "short-history-row": lambda h: h["history"].append([1]),
        "partial-pipeline": lambda h: h.update(pipeline={"dedupe": False}),
        "empty-pipeline": lambda h: h.update(pipeline={}),
        "history-of-other-types": lambda h: h.update(history=[["x", "y", True, None, "z"]]),
        "float-epoch": lambda h: h.update(history=[[1.0, 0.5, 0.5, 0.5, 0.5]]),
        "int-measure": lambda h: h.update(history=[[1, 0.5, 1, 0.5, 0.5]]),
        "missing-split": lambda h: h.pop("split"),
        "negative-split-seed": lambda h: h["split"].update(seed=-1),
        "train-fraction-one": lambda h: h["split"].update(train_fraction=1.0),
        "fractions-leaving-no-test": lambda h: h["split"].update(val_fraction=0.2),
        "extra-split-key": lambda h: h["split"].update(extra=None),
        "split-as-list": lambda h: h.update(split=[0.8, 0.1, 42]),
    }

    @pytest.mark.parametrize(
        "mutate", MALFORMED_HEADERS.values(), ids=list(MALFORMED_HEADERS)
    )
    def test_malformed_header_rejected(self, tmp_path, toy_corpus, mutate):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(5), pipeline)
        model.split = SplitSpec()
        path = tmp_path / "model.bin"
        save_model(model, path)
        load_model(path)
        rewrite_header(path, mutate)
        with pytest.raises(CorruptFile):
            load_model(path)

    def test_history_row_types_are_checked_when_made(self):
        """So save_model cannot write a history that load_model refuses."""
        for row in ((1, 1, 0.5, 0.5, 0.5), (True, 0.5, 0.5, 0.5, 0.5), (1, 0.5, 0.5, None, 0.5)):
            with pytest.raises(TypeError):
                EpochRecord(*row)
        EpochRecord(1, np.float64(0.5), 0.5, math.nan, math.nan)  # a numpy float is a float

    # sha256 of the format-3 file save_model writes for this model (untrained,
    # so the same on every OpenBLAS kernel): it moves only with the format
    FORMAT_3_FILE_DIGEST = "e9bd0d5c2438510f9c85d013120f5840c43f1fb27e11e168041847048f1b073d"

    def test_file_bytes_are_pinned(self, tmp_path, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=3,
                             window=2, filters=2, hidden=2)
        model = build_model(config, vocab, Rng(5), pipeline)
        model.history = EpochHistory([
            EpochRecord(1, 1.25, 0.5, float("nan"), float("nan")),
            EpochRecord(2, 0.75, 2 / 3, 0.875, 0.6),
        ])
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FORMAT_3_FILE_DIGEST

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.bin"
        path.write_bytes(b"definitely not a model file, far too short?" * 3)
        with pytest.raises(CorruptFile):
            load_model(path)


def assert_bit_equal(params: dict, expected: dict) -> None:
    assert list(params) == list(expected)
    for name, arr in params.items():
        assert arr.shape == expected[name].shape
        npt.assert_array_equal(arr.view(np.uint64), expected[name].view(np.uint64))


class TestLoadWithoutCopy:
    """load_model's parameters are views of the one buffer its file was read
    into; the copying reader in oracles is the reference."""

    @pytest.fixture
    def saved(self, tmp_path, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=6,
                             window=3, filters=4, hidden=5)
        model = build_model(config, vocab, Rng(31), pipeline)
        train(model, corpus, corpus, TrainConfig(epochs=1, batch_size=8, seed=31))
        path = tmp_path / "model.bin"
        save_model(model, path)
        return path

    def test_parameters_are_writable_aligned_views_of_one_buffer(self, saved):
        params = list(load_model(saved).parameters().values())
        assert params[0].ctypes.data % 64 == 0  # the payload's start
        for before, arr in zip(params, params[1:]):
            assert arr.ctypes.data == before.ctypes.data + before.nbytes
        for arr in params:
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert arr.dtype == np.float64

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parameters_bit_equal_the_copying_reader(self, tmp_path, toy_corpus, variant):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant=variant, seq_len=corpus.n, embed_dim=5,
                             window=2, filters=3, hidden=4)
        model = build_model(config, vocab, Rng(32), pipeline)
        train(model, corpus, None, TrainConfig(epochs=1, batch_size=8, seed=32))
        path = tmp_path / "model.bin"
        save_model(model, path)
        assert_bit_equal(load_model(path).parameters(), copying_load_parameters(path))

    def test_rewriting_the_file_leaves_loaded_parameters(self, saved):
        model = load_model(saved)
        expected = copying_load_parameters(saved)
        with open(saved, "r+b") as fh:  # in place, as a second writer would
            fh.write(b"\xff" * saved.stat().st_size)
        assert_bit_equal(model.parameters(), expected)

    def test_loads_from_a_fifo(self, saved, tmp_path):
        with fifo_feeding(tmp_path, saved.read_bytes()) as fifo:
            params = load_model(fifo).parameters()
        assert_bit_equal(params, copying_load_parameters(saved))
        assert next(iter(params.values())).ctypes.data % 64 == 0

    def test_peak_memory_of_a_load_stays_near_the_file_size(self, tmp_path):
        """A payload that dominates its header (a 5,000-row, 256-wide table,
        about 10 MB): a second copy of it would double the peak."""
        vocab = build_vocabulary([[f"w{i}" for i in range(5000)]], 1)
        config = ModelConfig(variant="cnn", seq_len=4, embed_dim=256, window=2,
                             filters=2, hidden=2)
        path = tmp_path / "model.bin"
        save_model(build_model(config, vocab, Rng(33)), path)
        tracemalloc.start()
        try:
            model = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.parameter_count() * 8 > 0.9 * path.stat().st_size
        assert peak <= 1.5 * path.stat().st_size


class TestPredictText:
    def test_predicts_from_raw_text(self, tmp_path, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=5,
                             window=3, filters=3, hidden=4)
        model = build_model(config, vocab, Rng(13), pipeline)
        label, probs = predict_text(model, "a splendid and joyful day")
        assert label in (NEGATIVE, NEUTRAL, POSITIVE)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_empty_text_is_handled(self, toy_corpus):
        corpus, vocab, pipeline = toy_corpus
        config = ModelConfig(variant="lstm", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=3)
        model = build_model(config, vocab, Rng(14), pipeline)
        label, probs = predict_text(model, "")
        assert probs.shape == (3,)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_threads_sharing_a_model_match_serial_calls(self):
        texts, _ = make_toy_texts(per_class=20)
        texts = [f"{t} {i}" for i, t in enumerate(texts)]
        corpus, vocab, pipeline = encode_toy_corpus(texts, [0] * len(texts))
        config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=6,
                             window=3, filters=4, hidden=5)
        model = build_model(config, vocab, Rng(16), pipeline)

        def predict(text):
            label, probs = predict_text(model, text)
            return label, probs.tobytes()

        serial = [predict(t) for t in texts]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for _ in range(3):
                    assert list(pool.map(predict, texts, timeout=60)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_requires_pipeline(self, toy_corpus):
        corpus, vocab, _ = toy_corpus
        config = ModelConfig(variant="lstm", seq_len=corpus.n, embed_dim=4,
                             window=2, filters=2, hidden=3)
        model = build_model(config, vocab, Rng(15))
        with pytest.raises(ValueError):
            predict_text(model, "anything")


def test_cross_entropy_of_forward_is_finite(toy_corpus):
    corpus, vocab, _ = toy_corpus
    config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=4,
                         window=3, filters=2, hidden=3)
    model = build_model(config, vocab, Rng(30))
    for ids, label in zip(corpus.sequences, corpus.labels):
        assert math.isfinite(cross_entropy(model.forward(ids[None])[0], int(label)))
