"""``ConvLayer.forward`` runs its GEMM only on windows that hold a nonzero
entry; every other window is f(bias).  Checked against the dense forward in
``oracles``, which sends every window through the GEMM.

The two may differ in the last bit of a live window, since a GEMM's row
results can depend on how many rows it has, so live windows are compared
within ``ATOL`` (outputs lie in [-1, 1]).  Dead windows are compared bit for
bit, through ``.view(np.uint64)``.
"""

import numpy as np
import numpy.testing as npt
import pytest

from sentinet.layers import ACTIVATIONS, ConvLayer, EmbeddingLayer
from sentinet.preprocess import PAD_ID

from oracles import dense_conv_forward

ATOL = 1e-13
K, M = 6, 5


def make_layer(window: int, activation: str, seed: int = 0) -> ConvLayer:
    gen = np.random.default_rng(seed)
    return ConvLayer(gen.uniform(-0.5, 0.5, (M, window, K)), gen.uniform(-0.3, 0.3, M), activation)


def padded_batch(batch: int, n: int, seed: int) -> np.ndarray:
    """Sentences whose rows after a random length are zero, as the embedding
    of a pad tail gives; row 0 is all padding when ``batch`` > 1."""
    gen = np.random.default_rng(seed)
    sentences = gen.uniform(-1.0, 1.0, (batch, n, K))
    for row, length in enumerate(gen.integers(0, n + 1, batch)):
        sentences[row, length:] = 0.0
    if batch > 1:
        sentences[0] = 0.0
    return sentences


def assert_matches_dense(layer: ConvLayer, sentences: np.ndarray) -> np.ndarray:
    """Assert the forward equals the dense one (dead windows bit for bit)
    and returns the same cache; return the mask of dead windows."""
    out, (cols, cached) = layer.forward(sentences)
    expected, expected_cols = dense_conv_forward(
        layer.filters, layer.bias, layer.activation, sentences
    )
    assert out.shape == expected.shape and cached is out
    npt.assert_array_equal(cols, expected_cols)
    npt.assert_allclose(out, expected, rtol=0, atol=ATOL)
    dead = ~cols.any(axis=2)
    f_bias = ACTIVATIONS[layer.activation][0](layer.bias)
    for reference in (np.broadcast_to(f_bias, out[dead].shape), expected[dead]):
        npt.assert_array_equal(out[dead].view(np.uint64), reference.view(np.uint64))
    return dead


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_padded_batches_match_the_dense_forward(batch, window, activation):
    layer = make_layer(window, activation, seed=window)
    dead = assert_matches_dense(layer, padded_batch(batch, 12, seed=batch * 10 + window))
    if batch > 1:
        assert dead[0].all() and not dead.all()


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_all_pad_batch_runs_no_window(activation):
    layer = make_layer(3, activation)
    dead = assert_matches_dense(layer, np.zeros((4, 9, K)))
    assert dead.all()


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_zero_row_mid_sequence(activation):
    sentences = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 10, K))
    sentences[:, 4:6] = 0.0
    dead = assert_matches_dense(make_layer(2, activation), sentences)
    npt.assert_array_equal(dead, [[False] * 4 + [True] + [False] * 4] * 2)


def test_token_with_zero_embedding_row_is_a_dead_window():
    table = np.random.default_rng(4).uniform(-1.0, 1.0, (6, K))
    table[PAD_ID] = 0.0
    table[3] = 0.0  # a learned row that happens to be zero
    ids = np.array([[2, 3, 4, PAD_ID, PAD_ID], [3, 3, 5, 1, PAD_ID]])
    sentences, _ = EmbeddingLayer(table).forward(ids)
    dead = assert_matches_dense(make_layer(1, "tanh"), sentences)
    npt.assert_array_equal(dead, (ids == PAD_ID) | (ids == 3))


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_nan_window_propagates(activation):
    sentences = padded_batch(3, 8, seed=5)
    sentences[1, :] = np.random.default_rng(6).uniform(-1.0, 1.0, (8, K))
    sentences[1, 2, 0] = np.nan
    layer = make_layer(3, activation)
    out, _ = layer.forward(sentences)
    assert np.isnan(out[1, :3]).all() and not np.isnan(out[1, 3:]).any()
    assert not np.isnan(out[[0, 2]]).any()
    assert_matches_dense(layer, sentences)


def test_backward_of_the_same_forward_is_unchanged():
    layer = make_layer(3, "tanh")
    sentences = padded_batch(7, 10, seed=7)
    out, cache = layer.forward(sentences)
    upstream = np.random.default_rng(8).normal(size=out.shape)
    grads, d_in = layer.backward(cache, upstream)
    expected_out, cols = dense_conv_forward(layer.filters, layer.bias, "tanh", sentences)
    expected_grads, expected_d_in = layer.backward((cols, expected_out), upstream)
    for name in ConvLayer.PARAMS:
        npt.assert_allclose(grads[name], expected_grads[name], rtol=0, atol=1e-12)
    npt.assert_allclose(d_in, expected_d_in, rtol=0, atol=1e-12)
