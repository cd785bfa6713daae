"""Independent oracles shared across test modules.

Everything here is deliberately written the slow, obvious way (triple
loops, per-entry finite differences) so it cannot share a bug with the
vectorized production code it checks.
"""

from __future__ import annotations

import math

import numpy as np

from sentinet.preprocess import PAD_ID


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic))


def central_difference_grad(loss_fn, array: np.ndarray, delta: float = 1e-5) -> np.ndarray:
    """Per-entry central finite differences of a scalar function."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + delta
        plus = loss_fn()
        flat[i] = original - delta
        minus = loss_fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * delta)
    return grad


def max_grad_check_error(
    loss_fn, arrays: dict[str, np.ndarray], analytic: dict[str, np.ndarray],
    delta: float = 1e-5, frozen: dict[str, np.ndarray] | None = None,
) -> float:
    """Worst relative error between analytic grads and finite differences.

    ``frozen`` maps tensor name -> boolean mask of entries that are held
    constant by design (e.g. the pad embedding row); those are skipped.
    """
    worst = 0.0
    for name, array in arrays.items():
        numeric = central_difference_grad(loss_fn, array, delta)
        ana = analytic[name]
        mask = None if frozen is None else frozen.get(name)
        for i in range(array.size):
            if mask is not None and mask.reshape(-1)[i]:
                continue
            err = relative_error(ana.reshape(-1)[i], numeric.reshape(-1)[i])
            worst = max(worst, err)
    return worst


def naive_conv(sentence: np.ndarray, filters: np.ndarray, bias: np.ndarray, activation: str) -> np.ndarray:
    """Brute-force sliding-window convolution, one feature at a time."""
    n, k = sentence.shape
    m, h, k2 = filters.shape
    assert k == k2
    steps = n - h + 1
    out = np.zeros((steps, m))
    act = math.tanh if activation == "tanh" else lambda x: 1.0 / (1.0 + math.exp(-x))
    for pos in range(steps):
        for f in range(m):
            s = 0.0
            for a in range(h):
                for b_ in range(k):
                    s += filters[f, a, b_] * sentence[pos + a, b_]
            out[pos, f] = act(s + bias[f])
    return out


def naive_lstm_single_step(x, h_prev, c_prev, weights, biases):
    """One explicit gate-by-gate recurrence step."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = np.concatenate([x, h_prev])
    gate_in = sig(weights["input"] @ z + biases["input"])
    gate_forget = sig(weights["forget"] @ z + biases["forget"])
    gate_out = sig(weights["output"] @ z + biases["output"])
    candidate = np.tanh(weights["cell"] @ z + biases["cell"])
    c = gate_forget * c_prev + gate_in * candidate
    h = gate_out * np.tanh(c)
    return h, c


def dense_embedding_backward(table_shape, ids, d_out) -> np.ndarray:
    """The embedding table's gradient accumulated into a zeroed V x k array,
    pad row frozen: the reference for the row-sparse gradient."""
    d_table = np.zeros(table_shape)
    np.add.at(d_table, ids, d_out)
    d_table[PAD_ID] = 0.0
    return d_table


def dense_sgd_step(params: dict, grads: dict, learning_rate: float) -> None:
    """theta <- theta - lr * g over every entry of every tensor."""
    for name, grad in grads.items():
        params[name] -= learning_rate * np.asarray(grad)


def dense_adam_step(params: dict, grads: dict, state, cfg) -> None:
    """Bias-corrected Adam (Kingma & Ba 2014) as the textbook expressions
    over whole tensors, each building its own temporaries."""
    state.step += 1
    t = state.step
    for name, grad in grads.items():
        grad = np.asarray(grad)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grad * grad
        m_hat = m / (1.0 - cfg.beta1**t)
        v_hat = v / (1.0 - cfg.beta2**t)
        params[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
