"""The row-sparse embedding gradient and the in-place optimizers against the
dense references in ``oracles``, bit for bit.

Arrays are compared through ``.view(np.uint64)``, so that a -0.0 where the
reference holds +0.0 fails like any other difference.
"""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sentinet import model_training
from sentinet.layers import EmbeddingLayer, RowSparse
from sentinet.model_training import ADAM_BLOCK, AdamState, TrainConfig, adam_step, sgd_step
from sentinet.preprocess import PAD_ID

from oracles import dense_adam_step, dense_embedding_backward, dense_sgd_step

ORACLE = settings(max_examples=40, deadline=None)
# adam_step's block sizes, in elements: tiny ones split a small table into
# many blocks, so that touched rows fall on both sides of block edges
BLOCKS = st.sampled_from((1, 3, 7, ADAM_BLOCK))


def assert_bitwise(actual: dict, expected: dict, what: str) -> None:
    for name in expected:
        npt.assert_array_equal(
            actual[name].view(np.uint64), expected[name].view(np.uint64), err_msg=f"{what} {name}"
        )


@st.composite
def id_batches(draw, vocab: int) -> np.ndarray:
    """A (B, n) batch of ids below ``vocab`` that repeats a row, ends every
    sequence with the pad id, holds one distinct row, or holds every row."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(2, 6)))
    ids = draw(arrays(np.int64, shape, elements=st.integers(0, vocab - 1)))
    case = draw(st.sampled_from(("repeats", "padded", "one row", "every row")))
    if case == "repeats":
        ids[-1, -1] = ids[0, 0]
    elif case == "padded":
        ids[:, -1] = PAD_ID
    elif case == "one row":
        ids[:] = ids[0, 0]
    elif case == "every row":
        ids = np.concatenate([draw(st.permutations(range(vocab))), ids.reshape(-1)])[None]
    return ids


@ORACLE
@given(data=st.data(), vocab=st.integers(2, 12), k=st.integers(1, 4), seed=st.integers(0, 99))
def test_embedding_gradient_is_the_dense_one(data, vocab, k, seed):
    ids = data.draw(id_batches(vocab))
    d_out = np.random.default_rng(seed).normal(size=ids.shape + (k,))
    grad = EmbeddingLayer(np.zeros((vocab, k))).backward(ids, d_out)[0]["table"]
    dense = np.asarray(grad)
    expected = dense_embedding_backward((vocab, k), ids, d_out)
    assert grad.shape == (vocab, k) and len(grad) == vocab
    npt.assert_array_equal(grad.rows, np.unique(ids))
    npt.assert_array_equal(dense.view(np.uint64), expected.view(np.uint64))


# beta1 above one half: below it, see test_underflowed_first_moment_keeps_its_sign
@ORACLE
@given(
    data=st.data(),
    vocab=st.integers(2, 12),
    k=st.integers(1, 4),
    seed=st.integers(0, 99),
    optimizer=st.sampled_from(("adam", "sgd")),
    learning_rate=st.sampled_from((0.0, 1e-3, 0.05)),
    beta1=st.sampled_from((0.6, 0.9)),
    beta2=st.sampled_from((0.0, 0.5, 0.999)),
    steps=st.integers(5, 7),
    block=BLOCKS,
)
def test_optimizer_steps_are_the_dense_ones(
    data, vocab, k, seed, optimizer, learning_rate, beta1, beta2, steps, block
):
    gen = np.random.default_rng(seed)
    table = gen.uniform(-1.0, 1.0, (vocab, k))
    table[PAD_ID] = 0.0
    params = {"embedding.table": table, "head.weights": gen.uniform(-1.0, 1.0, (3, k))}
    expected = {name: p.copy() for name, p in params.items()}
    state, expected_state = AdamState(params), AdamState(expected)
    cfg = TrainConfig(learning_rate=learning_rate, beta1=beta1, beta2=beta2)
    layer = EmbeddingLayer(table)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_training, "ADAM_BLOCK", block)
        for _ in range(steps):
            ids = data.draw(id_batches(vocab))
            d_out = gen.normal(size=ids.shape + (k,))
            grads = {
                "embedding.table": layer.backward(ids, d_out)[0]["table"],
                "head.weights": gen.normal(size=(3, k)),
            }
            dense = {**grads, "embedding.table": dense_embedding_backward(table.shape, ids, d_out)}
            if optimizer == "adam":
                adam_step(params, grads, state, cfg)
                dense_adam_step(expected, dense, expected_state, cfg)
            else:
                sgd_step(params, grads, learning_rate)
                dense_sgd_step(expected, dense, learning_rate)
            assert_bitwise(params, expected, "param")
            assert_bitwise(state.first_moment, expected_state.first_moment, "m")
            assert_bitwise(state.second_moment, expected_state.second_moment, "v")
    assert state.step == expected_state.step


@ORACLE
@given(
    vocab=st.integers(2, 12),
    k=st.integers(2, 4),
    seed=st.integers(0, 99),
    layout=st.sampled_from(("fortran", "transposed", "strided")),
    block=BLOCKS,
)
def test_adam_updates_a_non_contiguous_parameter_in_place(vocab, k, seed, layout, block):
    """Blocks are views of the caller's array whatever its layout: a
    flattened copy of a non-contiguous parameter would take the update."""
    gen = np.random.default_rng(seed)
    values = gen.uniform(-1.0, 1.0, (vocab, k))
    if layout == "fortran":
        table = np.asfortranarray(values)
    elif layout == "transposed":
        table = np.ascontiguousarray(values.T).T
    else:
        table = np.zeros((vocab, 2 * k))[:, ::2]
        table[...] = values
    assert not table.flags.c_contiguous
    params = {"t": table, "w": gen.uniform(-1.0, 1.0, (k, vocab)).T}
    expected = {name: p.copy() for name, p in params.items()}
    state, expected_state = AdamState(params), AdamState(expected)
    cfg = TrainConfig(learning_rate=0.05)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_training, "ADAM_BLOCK", block)
        for _ in range(5):
            rows = np.unique(gen.integers(0, vocab, 3))
            sparse = RowSparse(rows, gen.normal(size=(len(rows), k)), (vocab, k))
            dense = gen.normal(size=(vocab, k))
            adam_step(params, {"t": sparse, "w": dense}, state, cfg)
            dense_adam_step(expected, {"t": np.asarray(sparse), "w": dense}, expected_state, cfg)
    assert_bitwise(params, expected, "param")
    assert_bitwise(state.first_moment, expected_state.first_moment, "m")
    assert_bitwise(state.second_moment, expected_state.second_moment, "v")


def test_adam_state_holds_only_the_moments():
    """Two moments per parameter and the step count, however many blocks a
    table spans: the update's temporaries live only inside a step."""
    params = {
        "embedding.table": np.zeros((3 * ADAM_BLOCK // 64 + 5, 64)),
        "conv.filters": np.zeros((8, 3, 64)),
        "head.bias": np.zeros(3),
    }
    state = AdamState(params)

    def held(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (dict, tuple, list)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from held(item)

    moments = 2 * sum(p.nbytes for p in params.values())
    assert sorted(vars(state)) == ["first_moment", "second_moment", "step"]
    assert sum(a.nbytes for a in held([state.first_moment, state.second_moment])) == moments
    assert sum(a.nbytes for a in held(vars(state))) == moments


def test_adam_step_peak_memory_is_a_few_blocks():
    """One step on a table of 16 blocks, with a sparse gradient like the
    paper model's: the update's temporaries are block-sized, so the peak
    stays a few blocks where a whole-table expression takes several tables."""
    gen = np.random.default_rng(21)
    shape = (16 * ADAM_BLOCK // 64, 64)
    params = {"embedding.table": gen.uniform(-1.0, 1.0, shape)}
    rows = np.sort(gen.choice(shape[0], 64, replace=False))
    grads = {"embedding.table": RowSparse(rows, gen.normal(size=(64, 64)), shape)}
    state = AdamState(params)
    tracemalloc.start()
    try:
        adam_step(params, grads, state, TrainConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * ADAM_BLOCK * 8


def test_underflowed_first_moment_keeps_its_sign():
    """The one difference from the reference's bits.  The reference adds
    (1 - beta1) * 0 = +0.0 to the first moment of a row the batch did not
    touch; the in-place step skips that row.  When beta1 <= 1/2, decay can
    take a negative moment to -0.0 (at once when beta1 = 0), which the
    reference turns into +0.0.  The moments still compare equal as
    numbers, and the parameters come out bit for bit the same."""
    params = {"t": np.array([[0.5], [-0.25]])}
    expected = {"t": params["t"].copy()}
    state, expected_state = AdamState(params), AdamState(expected)
    for s in (state, expected_state):
        s.first_moment["t"][1] = -1e-3
    cfg = TrainConfig(learning_rate=0.1, beta1=0.0)
    adam_step(params, {"t": RowSparse(np.array([0]), np.array([[2.0]]), (2, 1))}, state, cfg)
    dense_adam_step(expected, {"t": np.array([[2.0], [0.0]])}, expected_state, cfg)
    m, expected_m = state.first_moment["t"][1, 0], expected_state.first_moment["t"][1, 0]
    assert (np.signbit(m), np.signbit(expected_m)) == (True, False)
    assert m == expected_m
    assert_bitwise(params, expected, "param")
    assert_bitwise(state.second_moment, expected_state.second_moment, "v")
