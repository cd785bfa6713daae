"""The LSTM's step-view loop against the per-step loop it replaced, bit for
bit, and its statelessness.

Arrays are compared through ``.view(np.uint64)``, so that a -0.0 where the
reference holds +0.0 fails like any other difference.  Inputs reach
+-750, where every gate saturates.
"""

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings, strategies as st

from sentinet.layers import LstmLayer

from oracles import loop_lstm_backward, loop_lstm_forward

WIDTHS = st.one_of(st.integers(1, 5), st.just(64))


def assert_bitwise(actual: np.ndarray, expected: np.ndarray, what: str) -> None:
    assert actual.shape == expected.shape, what
    npt.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64), err_msg=what)


@settings(max_examples=40, deadline=None)
@given(
    batch=st.one_of(st.integers(1, 5), st.just(32)),
    length=st.integers(1, 40),
    in_dim=WIDTHS,
    d_h=WIDTHS,
    scale=st.sampled_from((1.0, 20.0, 750.0)),
    seed=st.integers(0, 99),
)
def test_step_views_give_the_per_step_loop_bits(batch, length, in_dim, d_h, scale, seed):
    gen = np.random.default_rng(seed)
    weights = gen.uniform(-0.4, 0.4, (4 * d_h, in_dim + d_h))
    bias = gen.uniform(-0.2, 0.2, 4 * d_h)
    steps = gen.uniform(-scale, scale, (batch, length, in_dim))
    d_h_final = gen.normal(size=(batch, d_h))
    layer = LstmLayer(weights, bias)
    state = dict(vars(layer))
    params = {name: value.copy() for name, value in state.items()}

    h, cache = layer.forward(steps)
    h_ref, cache_ref = loop_lstm_forward(weights, bias, steps)
    assert_bitwise(h, h_ref, "h_final")
    assert len(cache) == len(cache_ref)
    for k, (got, want) in enumerate(zip(cache, cache_ref)):
        assert_bitwise(got, want, f"cache[{k}]")

    cache_before = [entry.copy() for entry in cache]
    d_h_before = d_h_final.copy()
    grads, d_steps = layer.backward(cache, d_h_final)
    grads_ref, d_steps_ref = loop_lstm_backward(weights, cache_ref, d_h_final)
    assert grads.keys() == grads_ref.keys()
    for name in grads_ref:
        assert_bitwise(grads[name], grads_ref[name], f"d_{name}")
    assert_bitwise(d_steps, d_steps_ref, "d_steps")

    # backward reads its inputs only, and the layer keeps nothing of either call
    assert_bitwise(d_h_final, d_h_before, "d_h_final")
    for k, (entry, before) in enumerate(zip(cache, cache_before)):
        assert_bitwise(entry, before, f"cache[{k}] after backward")
    assert vars(layer).keys() == state.keys()
    for name, value in vars(layer).items():
        assert value is state[name], name
        assert_bitwise(value, params[name], name)
