"""Independent oracles shared across test modules.

Everything here is deliberately written the slow, obvious way (triple
loops, per-entry finite differences) so it cannot share a bug with the
vectorized production code it checks.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
import string
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from sentinet.corpus_io import (
    CorpusError,
    InvalidConfig,
    LabeledCorpus,
    LabeledExample,
    _allocate,
    internal_label,
)
from sentinet.preprocess import PAD_ID, UNK_ID, Vocabulary, remove_stop_words
from sentinet.stemming import _form


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


def loop_confusion(predictions, actuals) -> np.ndarray:
    """The 3x3 (predicted, actual) counts, one pair at a time, raising what
    ``metrics.confusion`` raises: the reference for its vectorized count."""
    predictions = list(predictions)
    actuals = list(actuals)
    if len(predictions) != len(actuals):
        raise ValueError(f"{len(predictions)} predictions vs {len(actuals)} actuals")
    counts = np.zeros((3, 3), dtype=np.int64)
    for p, a in zip(predictions, actuals):
        if not (0 <= p <= 2 and 0 <= a <= 2):
            raise ValueError(f"labels must be 0, 1 or 2: got ({p}, {a})")
        counts[p][a] += 1
    return counts


def loop_filter_twitter_artifacts(text: str, drop_hashtag_words: bool = False) -> str:
    """``preprocess.filter_twitter_artifacts`` as it was first written, each
    non-ASCII character replaced one at a time: the reference for its
    regex fast path."""
    text = re.sub(r"^(?:rt[:\s]\s*)+", "", text, flags=re.IGNORECASE)
    text = re.sub(r"@\w+:?", "", text)
    if drop_hashtag_words:
        text = re.sub(r"#\w+", "", text)
    else:
        text = text.replace("#", "")
    return "".join(c if c.isascii() else " " for c in text)


def unguarded_remove_urls(text: str) -> str:
    """``preprocess.remove_urls`` running its pattern on every text, the
    pattern spelled here with its flags: the reference for the guarded stage."""
    return re.sub(r"(?:https?://|www\.)\S*", "", text, flags=re.IGNORECASE)


_PUNCTUATION_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})


def translate_punctuation(text: str) -> str:
    """``preprocess.remove_punctuation`` as ``str.translate`` over a dict
    table: the reference for its bytewise form."""
    return text.translate(_PUNCTUATION_TO_SPACE)


def staged_clean_tokens(raw: str, stops, drop_hashtag_words: bool = False) -> list[str]:
    """``preprocess.clean_tokens`` as its five stages in their slow forms: no
    regex skipped by a guard, the per-character filter, the dict punctuation
    table and lowercasing a second time before the split.  The reference for
    the cleaner that lowercases once and for the guarded stages."""
    text = unguarded_remove_urls(raw.lower())
    text = loop_filter_twitter_artifacts(text, drop_hashtag_words)
    text = translate_punctuation(text)
    return remove_stop_words(text.lower().split(), stops)


def per_list_build_vocabulary(token_lists, min_frequency: int = 1) -> Vocabulary:
    """``preprocess.build_vocabulary`` counting one token list at a time:
    the reference for its single count over the chained lists."""
    if min_frequency < 1:
        raise InvalidConfig(f"min_frequency must be >= 1, got {min_frequency}")
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    kept = [t for t, c in counts.items() if c >= min_frequency]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept, min_frequency)


def loop_stratified_indices(labels, spec) -> tuple:
    """``corpus_io.stratified_indices`` selecting each class's indices with a
    Python loop, without the empty-partition check: the reference for its
    array selection."""
    fractions = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    rng = random.Random(spec.seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label in range(3):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        if not idx:
            continue
        rng.shuffle(idx)
        start = 0
        for part, count in enumerate(_allocate(len(idx), fractions)):
            parts[part].extend(idx[start : start + count])
            start += count
    return tuple(sorted(p) for p in parts)


def token_ids(vocab) -> dict:
    """Each of ``vocab``'s corpus tokens to its id, counted from 2 in the
    order of ``vocab.tokens()``; a token missing from it encodes as UNK_ID."""
    return {token: i for i, token in enumerate(vocab.tokens(), start=2)}


def row_encode_and_pad(tokens, vocab, n: int) -> np.ndarray:
    """One row's ids written into a pad-filled array by a slice, one
    :func:`token_ids` lookup per token: the reference for ``encode_and_pad``."""
    if n < 1:
        raise InvalidConfig(f"sequence length must be >= 1, got {n}")
    ids = np.full(n, PAD_ID, dtype=np.int64)
    to_id = token_ids(vocab)
    row = [to_id.get(tok, UNK_ID) for tok in tokens[:n]]
    ids[: len(row)] = row
    ids.setflags(write=False)
    return ids


def stacked_encode(token_lists, vocab, n: int) -> np.ndarray:
    """The (rows, n) id matrix as a stack of :func:`row_encode_and_pad`
    rows: the reference for ``encode_corpus``."""
    token_lists = list(token_lists)
    if not token_lists:
        return np.empty((0, n), dtype=np.int64)
    return np.stack([row_encode_and_pad(t, vocab, n) for t in token_lists])


def linear_replace(word: str, rules, min_measure: int) -> str:
    """``stemming._replace`` scanning its (suffix, replacement) pairs one
    ``endswith`` at a time with no up-front reject: its reference."""
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem_ = word[: -len(suffix)]
            if _form(stem_).count("vc") > min_measure:
                return stem_ + replacement
            return word
    return word


def dictreader_load_corpus(path, text_column: str = "text", label_column: str = "label"):
    """``corpus_io.load_corpus`` reading rows through ``csv.DictReader``:
    the reference for its plain ``csv.reader`` loop."""
    path = str(path)
    examples = []
    row_number = -1
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames
            row_number = 0
            if header is None:
                raise CorpusError(f"no data rows in {path}")
            for column in (text_column, label_column):
                if column not in header:
                    raise CorpusError(f"column {column!r} not found in header of {path}")
            for row_number, row in enumerate(reader, start=1):
                raw_label = row.get(label_column) or ""
                try:
                    label = internal_label(raw_label)
                except KeyError:
                    raise CorpusError(
                        f"row {row_number}: label {raw_label!r} is not one of -1, 0, 1 ({path})"
                    ) from None
                text = (row.get(text_column) or "").strip()
                if not text:
                    raise CorpusError(f"row {row_number}: text is empty after trimming ({path})")
                examples.append(LabeledExample(text=text, label=label))
        except csv.Error as exc:
            where = "header" if row_number < 0 else f"row {row_number + 1}"
            raise CorpusError(f"{where}: {exc} ({path})") from None
    if not examples:
        raise CorpusError(f"no data rows in {path}")
    return LabeledCorpus(tuple(examples))


def loop_encode(token_lists, vocab, n: int) -> np.ndarray:
    """The (rows, n) padded id matrix written one token at a time: the
    reference for ``encode_and_pad`` and ``encode_corpus``."""
    ids = np.full((len(token_lists), n), PAD_ID, dtype=np.int64)
    to_id = token_ids(vocab)
    for row, tokens in enumerate(token_lists):
        for i, token in enumerate(tokens[:n]):
            ids[row, i] = to_id.get(token, UNK_ID)
    return ids


def _loop_sigmoid(x: np.ndarray) -> np.ndarray:
    # tensor_core.sigmoid's formula, one temporary per operation
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def loop_lstm_forward(weights: np.ndarray, bias: np.ndarray, steps: np.ndarray):
    """``LstmLayer.forward`` as first written: each step indexes ``[:, t]``,
    splits its gates with ``np.split`` and builds every gate expression as
    a temporary.  The reference for the layer's step-view loop; returns
    ``(h_final, cache)`` in the layer's cache layout."""
    batch, length, in_dim = steps.shape
    d_h = weights.shape[0] // 4
    w_h = weights[:, in_dim:].T
    pre = steps @ weights[:, :in_dim].T + bias
    gates = np.empty_like(pre)
    cells = np.zeros((batch, length + 1, d_h))
    hidden = np.zeros((batch, length + 1, d_h))
    tanh_cells = np.empty((batch, length, d_h))
    for t in range(length):
        a = pre[:, t] + hidden[:, t] @ w_h
        gates[:, t, : 3 * d_h] = _loop_sigmoid(a[:, : 3 * d_h])
        gates[:, t, 3 * d_h :] = np.tanh(a[:, 3 * d_h :])
        i, f, o, g = np.split(gates[:, t], 4, axis=1)
        cells[:, t + 1] = f * cells[:, t] + i * g
        tanh_cells[:, t] = np.tanh(cells[:, t + 1])
        hidden[:, t + 1] = o * tanh_cells[:, t]
    return hidden[:, -1].copy(), (steps, gates, cells, tanh_cells, hidden)


def loop_lstm_backward(weights: np.ndarray, cache, d_h_final: np.ndarray):
    """``LstmLayer.backward`` as first written, one ``[:, t]`` index and
    ``np.split`` per step: the reference for the layer's backward."""
    steps, gates, cells, tanh_cells, hidden = cache
    in_dim = steps.shape[2]
    w_h = weights[:, in_dim:]
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
    d_steps = d_pre @ weights[:, :in_dim]
    return {"weights": d_weights, "bias": flat.sum(axis=0)}, d_steps


def copying_load_parameters(path) -> dict:
    """A model file's parameters by name, each a ``frombuffer(...).copy()``
    of the file's bytes: the reference for ``load_model``'s views.  It checks
    only that the sizes add up."""
    blob = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + header_len])
    offset, params = 16 + header_len, {}
    for entry in header["params"]:
        count = math.prod(entry["shape"])
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        params[entry["name"]] = values.reshape(entry["shape"]).copy()
        offset += 8 * count
    assert offset == len(blob) - 32  # the sha256 closes the file
    return params
