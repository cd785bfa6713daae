"""Network layers with hand-derived backward passes, on a leading batch axis.

The classifier is a stack of these stages:

* embedding lookup turning a (B, n) batch of padded id sequences into
  (B, n, k) sentence matrices (the pad row is frozen at zero),
* a 1-D "valid" convolution sliding m window filters of width h over each
  sentence matrix, emitting one feature per (filter, position), so the
  output is a (B, n-h+1, m) batch of m-channel step sequences, activated
  by a function that ``ACTIVATIONS`` names (the one list of the choices);
  only windows holding a nonzero entry go through its GEMM, since a window
  of pad rows always gives f(bias),
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

Parameter gradients are arrays, except the embedding table's: a batch
reads few of its rows, so its gradient is a :class:`RowSparse` value
holding only those rows.  ``np.asarray`` gives its dense V x k form.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.mixins import NDArrayOperatorsMixin

from . import tensor_core as tc
from .preprocess import PAD_ID

_LOG_EPS = 1e-12


# the convolution's activations by name: (f, f'), f' taken of f's output
ACTIVATIONS = {
    "tanh": (np.tanh, lambda out: 1.0 - out * out),
    "sigmoid": (tc.sigmoid, lambda out: out * (1.0 - out)),
}


class RowSparse(NDArrayOperatorsMixin):
    """An array of ``shape`` that is zero outside the sorted, distinct
    ``rows``; ``values[i]`` is row ``rows[i]``.  ``np.asarray`` and the
    arithmetic operators see the dense array."""

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows = rows
        self.values = values
        self.shape = shape

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a row-sparse array has no dense buffer to share")
        dense = np.zeros(self.shape, dtype=self.values.dtype if dtype is None else dtype)
        dense[self.rows] = self.values
        return dense


class EmbeddingLayer:
    """Lookup table of shape V x k; row PAD_ID is zero and never learns."""

    PARAMS = ("table",)

    def __init__(self, table: np.ndarray):
        self.table = table

    def forward(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.table)):
            raise ValueError(
                f"ids {int(ids.min())}..{int(ids.max())} outside table of size {len(self.table)}"
            )
        return self.table[ids], ids

    def backward(self, ids, d_out):
        rows, at = np.unique(ids, return_inverse=True)
        k = self.table.shape[1]
        # bin (row, column) gets its terms in the ids' flat order, so each
        # row sums them in the order a dense V x k accumulation would
        bins = (at.reshape(-1, 1) * k + np.arange(k)).reshape(-1)
        values = np.bincount(bins, weights=d_out.reshape(-1), minlength=len(rows) * k)
        values = values.reshape(len(rows), k)
        values[rows == PAD_ID] = 0.0  # pad embedding is frozen
        return {"table": RowSparse(rows, values, self.table.shape)}, None


class ConvLayer:
    """Valid 1-D convolution over word windows, as one im2col GEMM.

    ``filters`` is an (m, h, k) stack; feature (i, j) of a sentence P is
    f(<W_j, P[i:i+h]> + b_j), so an n x k input yields an (n-h+1) x m
    output: the step sequence the LSTM reads, or that ``MeanPool`` averages.

    Tweets are short, so most windows of a padded batch hold only pad rows.
    The forward runs its GEMM on the live windows alone, those with a
    nonzero entry (a NaN counts), and fills the rest with f(bias), the bits
    a GEMM over them would give.  A live window's bits can depend on how
    many live windows its batch has, as a GEMM's rows can depend on its row
    count, so one row forwarded alone or in a batch may differ in the last
    bit.  The backward reads every window and is the same for a given
    forward.
    """

    PARAMS = ("filters", "bias")

    def __init__(self, filters: np.ndarray, bias: np.ndarray, activation: str = "tanh"):
        if filters.ndim != 3:
            raise ValueError(f"filters must be (m, h, k), got {filters.shape}")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.filters = filters
        self.bias = bias
        self.activation = activation

    def forward(self, sentences):
        batch, n, k = sentences.shape
        m, h, _ = self.filters.shape
        if n < h:
            raise ValueError(f"sequence length {n} < window {h}")
        # (B, n-h+1, h*k): row t holds the window starting at position t
        cols = np.lib.stride_tricks.sliding_window_view(sentences, (h, k), axis=(1, 2))
        cols = cols.reshape(batch, n - h + 1, h * k)
        act = ACTIVATIONS[self.activation][0]
        live = cols.any(axis=2)  # a window of zero rows gives f(bias)
        # the gathered windows are freed before ``out`` is allocated
        pre = cols[live] @ self.filters.reshape(m, h * k).T
        pre += self.bias
        out = np.empty((batch, n - h + 1, m))
        out[...] = act(self.bias)
        out[live] = act(pre, out=pre)
        return out, (cols, out)

    def backward(self, cache, d_out):
        cols, out = cache
        m, h, k = self.filters.shape
        batch, steps, _ = cols.shape
        d_pre = d_out * ACTIVATIONS[self.activation][1](out)
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

    Every buffer is allocated per call.  Both time loops walk per-step views
    of the (B, T, ...) buffers, and the forward writes each expression above
    into them with ``out=``; every output, cache entry and gradient has the
    bits of those expressions evaluated one temporary at a time.  The
    forward's one gate buffer holds each step's input half of the
    pre-activation until that step overwrites it with the activated gates.
    """

    GATES = ("input", "forget", "output", "cell")
    PARAMS = ("weights", "bias")

    def __init__(self, weights: np.ndarray, bias: np.ndarray):
        self.weights = weights
        self.bias = bias

    def forward(self, steps):
        batch, length, in_dim = steps.shape
        if length == 0:
            raise ValueError("LSTM needs at least one step")
        d_h = self.weights.shape[0] // 4
        w_h = self.weights[:, in_dim:].T
        gates = steps @ self.weights[:, :in_dim].T  # (B, T, 4 d_h)
        gates += self.bias
        cells = np.zeros((batch, length + 1, d_h))  # cells[:, t] is c_{t-1}
        hidden = np.zeros((batch, length + 1, d_h))  # hidden[:, t] is h_{t-1}
        tanh_cells = np.empty((batch, length, d_h))
        a = np.empty((batch, 4 * d_h))  # one step's pre-activation
        a_ifo, a_g = np.split(a, [3 * d_h], axis=1)
        ifo_out, i_g = np.empty((batch, 3 * d_h)), np.empty((batch, d_h))
        walk = (gates, gates[..., : 3 * d_h], *np.split(gates, 4, axis=2), cells[:, :-1],
                cells[:, 1:], hidden[:, :-1], hidden[:, 1:], tanh_cells)
        for p, ifo, i, f, o, g, c_prev, c, h_prev, h, tanh_c in _by_step(walk):
            np.matmul(h_prev, w_h, out=a)
            a += p  # before the gate writes below overwrite p
            # into a contiguous buffer, then one copy: at B >= 32 the four
            # passes of the sigmoid run slower on the strided gate view
            ifo[:] = tc.sigmoid(a_ifo, out=ifo_out)
            np.tanh(a_g, out=g)
            np.multiply(f, c_prev, out=c)
            c += np.multiply(i, g, out=i_g)
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=h)
        return hidden[:, -1].copy(), (steps, gates, cells, tanh_cells, hidden)

    def backward(self, cache, d_h_final):
        steps, gates, cells, tanh_cells, hidden = cache
        in_dim = steps.shape[2]
        w_h = self.weights[:, in_dim:]
        d_pre = np.empty_like(gates)
        d_h = d_h_final
        d_c = np.zeros_like(d_h)
        walk = (*np.split(gates, 4, axis=2), cells[:, :-1], tanh_cells, d_pre,
                *np.split(d_pre, 4, axis=2))
        for i, f, o, g, c_prev, ct, d_gate, d_i, d_f, d_o, d_g in _by_step(walk, reverse=True):
            d_c = d_c + d_h * o * (1.0 - ct * ct)
            d_i[:] = d_c * g * i * (1.0 - i)
            d_f[:] = d_c * c_prev * f * (1.0 - f)
            d_o[:] = d_h * ct * o * (1.0 - o)
            d_g[:] = d_c * i * (1.0 - g * g)
            d_c = d_c * f
            d_h = d_gate @ w_h
        flat = d_pre.reshape(-1, d_pre.shape[2])
        z = np.concatenate([steps, hidden[:, :-1]], axis=2)
        d_weights = flat.T @ z.reshape(len(flat), -1)
        d_steps = d_pre @ self.weights[:, :in_dim]
        return {"weights": d_weights, "bias": flat.sum(axis=0)}, d_steps


def _by_step(buffers, reverse: bool = False):
    """Walk (B, T, ...) buffers together, yielding each step's (B, ...) views."""
    return zip(*(buf.swapaxes(0, 1)[:: -1 if reverse else 1] for buf in buffers))


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
