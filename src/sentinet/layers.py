"""Network layers with hand-derived backward passes, on a leading batch axis.

The classifier is a stack of these stages:

* embedding lookup turning a (B, n) batch of padded id sequences into
  (B, n, k) sentence matrices (the pad row is frozen at zero),
* a 1-D "valid" convolution sliding m window filters of width h over each
  sentence matrix, emitting one feature per (filter, position), so the
  output is a (B, n-h+1, m) batch of m-channel step sequences,
* an LSTM consuming each step sequence in order and returning its final
  hidden state, (B, d_h),
* a parameterless mean over positions, (B, steps, m) -> (B, m), which
  replaces the LSTM in the ``cnn`` variant,
* a dense softmax head producing (B, 3) class probabilities.

A layer holds only its parameters, named by its ``PARAMS``, and keeps no
state between calls, so one layer can serve any number of callers.
``forward(x) -> (y, cache)`` returns the output together with what the
backward pass needs; ``backward(cache, dy) -> (grads, dx)`` turns the
gradient of a scalar loss with respect to ``y`` into its gradients with
respect to each parameter (keyed by ``PARAMS``, summed over the batch)
and with respect to ``x``.  All gradients are exact derivatives; the test
suite checks each one against central finite differences.
"""

from __future__ import annotations

import numpy as np

from . import tensor_core as tc
from .preprocess import PAD_ID

_LOG_EPS = 1e-12


class IdOutOfRange(IndexError):
    pass


class SequenceTooShort(ValueError):
    pass


class EmptySequence(ValueError):
    pass


def _activation(name: str):
    if name == "tanh":
        return np.tanh
    if name == "sigmoid":
        return tc.sigmoid
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name: str, out: np.ndarray) -> np.ndarray:
    # derivative expressed through the cached activation output
    if name == "tanh":
        return 1.0 - out * out
    return out * (1.0 - out)


class EmbeddingLayer:
    """Lookup table of shape V x k; row PAD_ID is zero and never learns."""

    PARAMS = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table

    def forward(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.table)):
            raise IdOutOfRange(
                f"ids {int(ids.min())}..{int(ids.max())} outside table of size {len(self.table)}"
            )
        return self.table[ids], ids

    def backward(self, ids, d_out):
        d_table = np.zeros_like(self.table)
        np.add.at(d_table, ids, d_out)
        d_table[PAD_ID] = 0.0  # pad embedding is frozen
        return {"table": d_table}, None


class ConvLayer:
    """Valid 1-D convolution over word windows, as one im2col GEMM.

    ``filters`` is an (m, h, k) stack; feature (i, j) of a sentence P is
    f(<W_j, P[i:i+h]> + b_j), so an n x k input yields an (n-h+1) x m
    output and no pooling follows.
    """

    PARAMS = ("filters", "bias")

    def __init__(self, filters: np.ndarray, bias: np.ndarray, activation: str = "tanh"):
        if filters.ndim != 3:
            raise ValueError(f"filters must be (m, h, k), got {filters.shape}")
        self.filters = filters
        self.bias = bias
        self.activation = activation

    def forward(self, sentences):
        batch, n, k = sentences.shape
        m, h, _ = self.filters.shape
        if n < h:
            raise SequenceTooShort(f"sequence length {n} < window {h}")
        # (B, n-h+1, h*k): row t holds the window starting at position t
        cols = np.lib.stride_tricks.sliding_window_view(sentences, (h, k), axis=(1, 2))
        cols = cols.reshape(batch, n - h + 1, h * k)
        out = _activation(self.activation)(cols @ self.filters.reshape(m, h * k).T + self.bias)
        return out, (cols, out)

    def backward(self, cache, d_out):
        cols, out = cache
        m, h, k = self.filters.shape
        batch, steps, _ = cols.shape
        d_pre = d_out * _activation_grad(self.activation, out)
        flat = d_pre.reshape(-1, m)
        d_filters = (flat.T @ cols.reshape(-1, h * k)).reshape(m, h, k)
        per_window = (d_pre @ self.filters.reshape(m, h * k)).reshape(batch, steps, h, k)
        d_sentences = np.zeros((batch, steps + h - 1, k))
        for j in range(h):  # window row j of step t came from position t + j
            d_sentences[:, j : j + steps] += per_window[:, :, j]
        return {"filters": d_filters, "bias": flat.sum(axis=0)}, d_sentences


class LstmLayer:
    """Gated recurrence over a step sequence, returning the final hidden state.

    Per step t with z = [x_t ; h_{t-1}]:

        i = sigmoid(W_i z + b_i)      f = sigmoid(W_f z + b_f)
        o = sigmoid(W_o z + b_o)      g = tanh(W_c z + b_c)
        c = f * c_prev + i * g        h = o * tanh(c)

    The four gates are fused: ``weights`` stacks W_i, W_f, W_o, W_c (in
    ``GATES`` order) into one (4 d_h, in + d_h) tensor and ``bias`` their
    biases into one (4 d_h,) vector.  The input half of every step's
    pre-activation is one GEMM over all steps, outside the recurrence, so
    each step costs a single h_{t-1} @ W_h.  Cell and hidden state start
    at zero for every sequence; every step runs, pad positions included.
    """

    GATES = ("input", "forget", "output", "cell")
    PARAMS = ("weights", "bias")

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights
        self.bias = bias

    def forward(self, steps):
        batch, length, in_dim = steps.shape
        if length == 0:
            raise EmptySequence("LSTM needs at least one step")
        d_h = self.weights.shape[0] // 4
        w_h = self.weights[:, in_dim:].T
        pre = steps @ self.weights[:, :in_dim].T + self.bias  # (B, T, 4 d_h)
        gates = np.empty_like(pre)  # activated i, f, o, g per step
        cells = np.zeros((batch, length + 1, d_h))  # cells[:, t] is c_{t-1}
        hidden = np.zeros((batch, length + 1, d_h))  # hidden[:, t] is h_{t-1}
        tanh_cells = np.empty((batch, length, d_h))
        for t in range(length):
            a = pre[:, t] + hidden[:, t] @ w_h
            gates[:, t, : 3 * d_h] = tc.sigmoid(a[:, : 3 * d_h])
            gates[:, t, 3 * d_h :] = np.tanh(a[:, 3 * d_h :])
            i, f, o, g = np.split(gates[:, t], 4, axis=1)
            cells[:, t + 1] = f * cells[:, t] + i * g
            tanh_cells[:, t] = np.tanh(cells[:, t + 1])
            hidden[:, t + 1] = o * tanh_cells[:, t]
        return hidden[:, -1].copy(), (steps, gates, cells, tanh_cells, hidden)

    def backward(self, cache, d_h_final):
        steps, gates, cells, tanh_cells, hidden = cache
        in_dim = steps.shape[2]
        w_h = self.weights[:, in_dim:]
        d_pre = np.empty_like(gates)
        d_h = d_h_final
        d_c = np.zeros_like(d_h)
        for t in range(gates.shape[1] - 1, -1, -1):
            i, f, o, g = np.split(gates[:, t], 4, axis=1)
            ct = tanh_cells[:, t]
            d_c = d_c + d_h * o * (1.0 - ct * ct)
            d_i, d_f, d_o, d_g = np.split(d_pre[:, t], 4, axis=1)
            d_i[:] = d_c * g * i * (1.0 - i)
            d_f[:] = d_c * cells[:, t] * f * (1.0 - f)
            d_o[:] = d_h * ct * o * (1.0 - o)
            d_g[:] = d_c * i * (1.0 - g * g)
            d_c = d_c * f
            d_h = d_pre[:, t] @ w_h
        flat = d_pre.reshape(-1, d_pre.shape[2])
        z = np.concatenate([steps, hidden[:, :-1]], axis=2)
        d_weights = flat.T @ z.reshape(len(flat), -1)
        d_steps = d_pre @ self.weights[:, :in_dim]
        return {"weights": d_weights, "bias": flat.sum(axis=0)}, d_steps


class MeanPool:
    """Mean over positions, (B, steps, m) -> (B, m); no parameters."""

    PARAMS = ()

    def forward(self, steps):
        return steps.mean(axis=1), steps.shape[1]

    def backward(self, length, d_out):
        return {}, np.repeat(d_out[:, None, :] / length, length, axis=1)


class DenseSoftmax:
    """Affine map to class scores followed by a stabilized softmax."""

    PARAMS = ("weights", "bias")

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights  # (classes, in_dim)
        self.bias = bias

    def forward(self, hidden):
        scores = hidden @ self.weights.T + self.bias
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        return probs, (hidden, probs)

    def backward(self, cache, d_probs):
        hidden, probs = cache
        # softmax Jacobian applied to each example's upstream gradient
        d_scores = probs * (d_probs - (d_probs * probs).sum(axis=1, keepdims=True))
        grads = {"weights": d_scores.T @ hidden, "bias": d_scores.sum(axis=0)}
        return grads, d_scores @ self.weights


def cross_entropy(probs: np.ndarray, labels) -> np.ndarray:
    """Negative log-likelihood of each true class, clamped away from log 0.

    ``probs`` is (..., classes) and ``labels`` holds one class per row.
    """
    picked = np.take_along_axis(probs, np.asarray(labels)[..., None], axis=-1)[..., 0]
    return -np.log(np.maximum(picked, _LOG_EPS))


def cross_entropy_grad(probs: np.ndarray, labels) -> np.ndarray:
    """Gradient of each row's cross_entropy with respect to its probabilities."""
    labels = np.asarray(labels)[..., None]
    picked = np.take_along_axis(probs, labels, axis=-1)
    # below the clamp the loss is constant
    slope = np.where(picked > _LOG_EPS, -1.0 / np.maximum(picked, _LOG_EPS), 0.0)
    d = np.zeros_like(probs)
    np.put_along_axis(d, labels, slope, axis=-1)
    return d
