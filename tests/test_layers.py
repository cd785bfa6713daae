import math

import mpmath
import numpy as np
import numpy.testing as npt
import pytest

from sentinet.layers import (
    ConvLayer,
    DenseSoftmax,
    EmbeddingLayer,
    LstmLayer,
    MeanPool,
    cross_entropy,
    cross_entropy_grad,
)
from sentinet.tensor_core import Rng

from oracles import (
    central_difference_grad,
    naive_conv,
    naive_lstm_single_step,
    relative_error,
)

GRAD_TOL = 1e-4
DELTA = 1e-5


def make_lstm(rng: Rng, in_dim: int, d_h: int) -> LstmLayer:
    weights = np.concatenate([
        rng.split(f"w_{gate}").uniform(-0.4, 0.4, (d_h, in_dim + d_h))
        for gate in LstmLayer.GATES
    ])
    bias = np.concatenate([
        rng.split(f"b_{gate}").uniform(-0.2, 0.2, d_h) for gate in LstmLayer.GATES
    ])
    return LstmLayer(weights, bias)


def gate_blocks(fused: np.ndarray) -> dict[str, np.ndarray]:
    """The per-gate slices of a fused LSTM weight tensor or bias."""
    return dict(zip(LstmLayer.GATES, np.split(fused, len(LstmLayer.GATES))))


def check_grads(loss_fn, arrays: dict, analytic: dict, skip_rows=None):
    """Assert every entry of every tensor passes the FD check."""
    for name, array in arrays.items():
        numeric = central_difference_grad(loss_fn, array, DELTA)
        ana = analytic[name].reshape(-1)
        num = numeric.reshape(-1)
        start = 0
        if skip_rows and name in skip_rows:
            start = skip_rows[name] * array.shape[1]  # frozen leading rows
        for i in range(start, array.size):
            assert relative_error(ana[i], num[i]) <= GRAD_TOL, (
                f"{name}[{i}]: analytic {ana[i]}, numeric {num[i]}"
            )


class TestEmbedding:
    def test_all_pad_gives_zero_matrix(self):
        table = Rng(1).uniform(-1, 1, (6, 4))
        table[0] = 0.0
        layer = EmbeddingLayer(table)
        out, _ = layer.forward(np.zeros((1, 5), dtype=np.int64))
        npt.assert_array_equal(out, np.zeros((1, 5, 4)))

    def test_repeated_id_gives_identical_rows(self):
        table = Rng(2).uniform(-1, 1, (6, 4))
        layer = EmbeddingLayer(table)
        out, _ = layer.forward(np.array([[3, 3]]))
        npt.assert_array_equal(out[0, 0], out[0, 1])
        npt.assert_array_equal(out[0, 0], table[3])

    def test_matches_direct_lookup(self):
        rng = Rng(3)
        table = rng.uniform(-1, 1, (9, 5))
        layer = EmbeddingLayer(table)
        gen = np.random.default_rng(0)
        for _ in range(20):
            ids = gen.integers(0, 9, size=(2, 7))
            out, _ = layer.forward(ids)
            for row, token_id in zip(out.reshape(-1, 5), ids.reshape(-1)):
                npt.assert_array_equal(row, table[token_id])

    def test_id_out_of_range(self):
        layer = EmbeddingLayer(np.zeros((4, 3)))
        with pytest.raises(ValueError, match=r"^ids 1\.\.4 outside table of size 4"):
            layer.forward(np.array([[1, 4]]))
        with pytest.raises(ValueError, match=r"^ids -1\.\.1 outside table of size 4"):
            layer.forward(np.array([[1, -1]]))

    def test_gradient_touches_only_seen_rows(self):
        table = Rng(4).uniform(-1, 1, (8, 3))
        layer = EmbeddingLayer(table)
        ids = np.array([[2, 5, 2, 0]])
        out, cache = layer.forward(ids)
        grads, _ = layer.backward(cache, np.ones_like(out))
        d_table = np.asarray(grads["table"])
        touched = {int(i) for i in ids[0] if i != 0}
        for row in range(8):
            if row in touched:
                assert np.any(d_table[row] != 0)
            else:
                npt.assert_array_equal(d_table[row], 0.0)

    def test_pad_row_gets_zero_gradient(self):
        layer = EmbeddingLayer(Rng(5).uniform(-1, 1, (6, 3)))
        out, cache = layer.forward(np.array([[0, 0, 1]]))
        grads, _ = layer.backward(cache, np.ones_like(out))
        npt.assert_array_equal(np.asarray(grads["table"])[0], 0.0)

    def test_sparse_gradient_acts_as_its_dense_array(self):
        """The array protocol callers rely on: comparisons and arithmetic
        see the dense array, and no dense buffer is shared."""
        layer = EmbeddingLayer(Rng(8).uniform(-1, 1, (6, 3)))
        out, cache = layer.forward(np.array([[4, 1, 4, 0]]))
        g = layer.backward(cache, Rng(9).uniform(-1, 1, out.shape))[0]["table"]
        dense = np.asarray(g)
        with pytest.raises(ValueError):
            np.asarray(g, copy=False)
        npt.assert_array_equal(g != 0.0, dense != 0.0)
        npt.assert_array_equal(g * 2.0, dense * 2.0)
        assert len(g) == g.shape[0] == 6

    def test_finite_difference(self):
        table = Rng(6).uniform(-0.7, 0.7, (7, 4))
        table[0] = 0.0
        layer = EmbeddingLayer(table)
        ids = np.array([[2, 6, 2, 0, 3, 1, 4]])
        upstream = Rng(7).uniform(-1, 1, (1, 7, 4))

        def loss():
            return float((layer.forward(ids)[0] * upstream).sum())

        grads, _ = layer.backward(layer.forward(ids)[1], upstream)
        grads = {"table": np.asarray(grads["table"])}
        check_grads(loss, {"table": table}, grads, skip_rows={"table": 1})


class TestConv:
    @pytest.mark.parametrize("filters, activation, message", [
        (np.zeros((2, 3, 4)), "relu", "unknown activation 'relu'"),
        (np.zeros((2, 12)), "tanh", r"filters must be \(m, h, k\)"),
    ], ids=["unknown-activation", "filters-not-3d"])
    def test_rejected_when_built(self, filters, activation, message):
        with pytest.raises(ValueError, match=message):
            ConvLayer(filters, np.zeros(2), activation=activation)

    def test_output_length(self):
        layer = ConvLayer(Rng(1).uniform(-1, 1, (4, 3, 5)), np.zeros(4))
        out, _ = layer.forward(Rng(2).uniform(-1, 1, (2, 10, 5)))
        assert out.shape == (2, 8, 4)

    def test_zero_filters_zero_output_with_tanh(self):
        layer = ConvLayer(np.zeros((3, 2, 4)), np.zeros(3), activation="tanh")
        out, _ = layer.forward(Rng(3).uniform(-1, 1, (1, 6, 4)))
        npt.assert_array_equal(out, np.zeros((1, 5, 3)))

    def test_matches_bruteforce_oracle(self):
        for activation in ("tanh", "sigmoid"):
            filters = Rng(4).uniform(-1, 1, (2, 2, 3))
            bias = Rng(5).uniform(-1, 1, 2)
            layer = ConvLayer(filters, bias, activation=activation)
            sentences = Rng(6).uniform(-1, 1, (2, 7, 3))
            out, _ = layer.forward(sentences)
            for got, sentence in zip(out, sentences):
                npt.assert_allclose(
                    got, naive_conv(sentence, filters, bias, activation), atol=1e-12
                )

    def test_sequence_too_short(self):
        layer = ConvLayer(np.zeros((1, 4, 2)), np.zeros(1))
        with pytest.raises(ValueError, match="^sequence length 3 < window 4"):
            layer.forward(np.zeros((1, 3, 2)))

    def test_feature_count_shape_law(self):
        k, m = 3, 4
        for n in range(2, 33):
            for h in range(1, n + 1):
                layer = ConvLayer(np.zeros((m, h, k)), np.zeros(m))
                out = layer.forward(np.zeros((1, n, k)))[0][0]
                assert out.shape == (n - h + 1, m)
                assert out.size == m * (n - h + 1)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_finite_difference(self, activation):
        filters = Rng(8).uniform(-0.6, 0.6, (2, 3, 4))
        bias = Rng(9).uniform(-0.2, 0.2, 2)
        layer = ConvLayer(filters, bias, activation=activation)
        sentence = Rng(10).uniform(-0.8, 0.8, (2, 7, 4))
        upstream = Rng(11).uniform(-1, 1, (2, 5, 2))

        def loss():
            return float((layer.forward(sentence)[0] * upstream).sum())

        grads, d_sentence = layer.backward(layer.forward(sentence)[1], upstream)
        check_grads(loss, {"filters": filters, "bias": bias}, grads)
        numeric = central_difference_grad(loss, sentence, DELTA)
        for a, b in zip(d_sentence.reshape(-1), numeric.reshape(-1)):
            assert relative_error(a, b) <= GRAD_TOL

    def test_zero_upstream_gives_zero_grads(self):
        layer = ConvLayer(Rng(12).uniform(-1, 1, (2, 2, 3)), np.zeros(2))
        _, cache = layer.forward(Rng(13).uniform(-1, 1, (1, 5, 3)))
        grads, d_in = layer.backward(cache, np.zeros((1, 4, 2)))
        assert not np.any(grads["filters"])
        assert not np.any(grads["bias"])
        assert not np.any(d_in)


class TestLstm:
    def test_zero_weights_give_zero_hidden(self):
        layer = LstmLayer(np.zeros((16, 7)), np.zeros(16))
        out, _ = layer.forward(Rng(1).uniform(-1, 1, (2, 5, 3)))
        npt.assert_array_equal(out, np.zeros((2, 4)))

    def test_single_step_matches_gate_oracle(self):
        layer = make_lstm(Rng(2), in_dim=3, d_h=4)
        x = Rng(3).uniform(-1, 1, (1, 1, 3))
        out, _ = layer.forward(x)
        expected, _ = naive_lstm_single_step(
            x[0, 0], np.zeros(4), np.zeros(4), gate_blocks(layer.weights), gate_blocks(layer.bias)
        )
        npt.assert_allclose(out[0], expected, atol=1e-12)

    def test_hidden_state_strictly_inside_unit_box(self):
        layer = make_lstm(Rng(4), in_dim=3, d_h=5)
        gen = np.random.default_rng(11)
        for _ in range(100):
            steps = gen.uniform(-3, 3, size=(2, gen.integers(1, 9), 3))
            out, _ = layer.forward(steps)
            assert np.all(np.abs(out) < 1.0)

    def test_empty_sequence(self):
        layer = make_lstm(Rng(5), in_dim=2, d_h=3)
        with pytest.raises(ValueError, match="^LSTM needs at least one step"):
            layer.forward(np.zeros((1, 0, 2)))

    def test_finite_difference(self):
        layer = make_lstm(Rng(6), in_dim=2, d_h=5)
        steps = Rng(7).uniform(-0.9, 0.9, (2, 5, 2))
        upstream = Rng(8).uniform(-1, 1, (2, 5))

        def loss():
            return float((layer.forward(steps)[0] * upstream).sum())

        grads, d_steps = layer.backward(layer.forward(steps)[1], upstream)
        check_grads(loss, {"weights": layer.weights, "bias": layer.bias}, grads)
        numeric = central_difference_grad(loss, steps, DELTA)
        for a, b in zip(d_steps.reshape(-1), numeric.reshape(-1)):
            assert relative_error(a, b) <= GRAD_TOL


class TestMeanPool:
    def test_averages_positions(self):
        steps = Rng(1).uniform(-1, 1, (2, 5, 3))
        out, _ = MeanPool().forward(steps)
        npt.assert_allclose(out, steps.mean(axis=1), atol=1e-15)

    def test_finite_difference(self):
        steps = Rng(2).uniform(-1, 1, (2, 5, 3))
        upstream = Rng(3).uniform(-1, 1, (2, 3))
        pool = MeanPool()

        def loss():
            return float((pool.forward(steps)[0] * upstream).sum())

        grads, d_steps = pool.backward(pool.forward(steps)[1], upstream)
        assert grads == {}
        numeric = central_difference_grad(loss, steps, DELTA)
        for a, b in zip(d_steps.reshape(-1), numeric.reshape(-1)):
            assert relative_error(a, b) <= GRAD_TOL


class TestDenseSoftmax:
    def test_zero_parameters_give_uniform(self):
        layer = DenseSoftmax(np.zeros((3, 5)), np.zeros(3))
        npt.assert_allclose(layer.forward(Rng(1).uniform(-1, 1, (2, 5)))[0], 1 / 3)

    def test_bias_dominates_argmax(self):
        layer = DenseSoftmax(np.zeros((3, 4)), np.array([10.0, 0.0, 0.0]))
        probs, _ = layer.forward(np.ones((1, 4)))
        assert int(np.argmax(probs[0])) == 0

    def test_matches_extended_precision_oracle(self):
        mpmath.mp.dps = 50
        layer = DenseSoftmax(Rng(2).uniform(-2, 2, (3, 6)), Rng(3).uniform(-1, 1, 3))
        gen = np.random.default_rng(1)
        for _ in range(25):
            hidden = gen.uniform(-3, 3, size=6)
            probs = layer.forward(hidden[None])[0][0]
            scores = layer.weights @ hidden + layer.bias
            exps = [mpmath.exp(mpmath.mpf(float(s))) for s in scores]
            total = sum(exps)
            expected = np.array([float(e / total) for e in exps])
            npt.assert_allclose(probs, expected, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        layer = DenseSoftmax(Rng(4).uniform(-3, 3, (3, 4)), np.zeros(3))
        gen = np.random.default_rng(2)
        for _ in range(200):
            probs = layer.forward(gen.uniform(-5, 5, size=(1, 4)))[0][0]
            assert abs(probs.sum() - 1.0) <= 1e-9
            assert np.all(probs >= 0)

    def test_finite_difference_through_cross_entropy(self):
        layer = DenseSoftmax(Rng(5).uniform(-1, 1, (3, 5)), Rng(6).uniform(-1, 1, 3))
        hidden = Rng(7).uniform(-1, 1, (2, 5))
        labels = np.array([2, 0])

        def loss():
            return float(cross_entropy(layer.forward(hidden)[0], labels).sum())

        probs, cache = layer.forward(hidden)
        grads, d_hidden = layer.backward(cache, cross_entropy_grad(probs, labels))
        check_grads(loss, {"weights": layer.weights, "bias": layer.bias}, grads)
        numeric = central_difference_grad(loss, hidden, DELTA)
        for a, b in zip(d_hidden.reshape(-1), numeric.reshape(-1)):
            assert relative_error(a, b) <= GRAD_TOL


class TestCrossEntropy:
    def test_perfect_prediction(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), 0) == 0.0

    def test_uniform(self):
        assert cross_entropy(np.full(3, 1 / 3), 1) == pytest.approx(math.log(3))

    def test_direct_value(self):
        assert cross_entropy(np.array([0.7, 0.2, 0.1]), 1) == pytest.approx(-math.log(0.2))

    def test_nonnegative_and_clamped(self):
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), 0) == pytest.approx(-math.log(1e-12))

    def test_gradient_matches_finite_difference(self):
        probs = np.array([0.5, 0.3, 0.2])
        grad = cross_entropy_grad(probs, 1)
        h = 1e-7
        bumped = probs.copy()
        bumped[1] += h
        fd = (cross_entropy(bumped, 1) - cross_entropy(probs, 1)) / h
        assert relative_error(grad[1], fd) <= 1e-5
        assert grad[0] == grad[2] == 0.0


def test_forward_purity_bitwise():
    layer = ConvLayer(Rng(20).uniform(-1, 1, (2, 2, 3)), Rng(21).uniform(-1, 1, 2))
    sentence = Rng(22).uniform(-1, 1, (1, 5, 3))
    first, _ = layer.forward(sentence)
    second, _ = layer.forward(sentence)
    npt.assert_array_equal(first, second)
