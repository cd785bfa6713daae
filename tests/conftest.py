"""Shared fixtures: a small keyword-separable corpus and encoded views of it."""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # porter_reference, oracles

from sentinet.preprocess import (
    PipelineConfig,
    build_vocabulary,
    default_stop_words,
    encode_corpus,
)

# three class-unique keywords per class plus shared filler words; every
# text mentions only its own class's keywords, so the corpus is linearly
# separable and a working trainer must be able to memorize it
CLASS_KEYWORDS = (
    ("dreadful", "grim", "tragic"),  # negative
    ("routine", "ordinary", "standard"),  # neutral
    ("splendid", "joyful", "delight"),  # positive
)
FILLERS = ("city", "report", "update", "outbreak", "news", "today", "week", "clinic")


def pytest_report_header(config):
    """The seeded digests the suite pins hold for one OpenBLAS kernel, so the
    header names numpy's version and the kernel its bundled OpenBLAS runs."""
    return f"numpy {np.__version__}, OpenBLAS core {_openblas_core()}"


def _openblas_core() -> str:
    """The kernel of numpy's bundled OpenBLAS (``OPENBLAS_CORETYPE`` may set
    it), or "unknown" if numpy bundles none."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


# the command whose failures print every pin that depends on the OpenBLAS
# kernel, for the kernel it forces
RECORD_KERNEL_PINS = (
    "OPENBLAS_CORETYPE=<core> python -m pytest tests/test_model_training.py "
    "tests/test_export_digests.py -k pinned"
)


def kernel_pins(table: dict, found) -> dict:
    """``table``'s entry for the OpenBLAS kernel in use.  A kernel the table
    does not name fails the test, never skips it: the message gives this
    run's ``found`` values and the command that prints all of that kernel's."""
    core = _openblas_core()
    if core not in table:
        pytest.fail(
            f"no pins for OpenBLAS core {core}: this run gives {found!r}; record every "
            f"pin of that core from `{RECORD_KERNEL_PINS}`",
            pytrace=False,
        )
    return table[core]


def make_toy_texts(per_class: int = 10):
    """Deterministic labeled texts, ``per_class`` examples per class."""
    texts, labels = [], []
    for label, keywords in enumerate(CLASS_KEYWORDS):
        for i in range(per_class):
            words = [
                keywords[i % 3],
                FILLERS[i % len(FILLERS)],
                keywords[(i + 1) % 3],
                FILLERS[(i + 3) % len(FILLERS)],
            ]
            texts.append(" ".join(words))
            labels.append(label)
    return texts, labels


def encode_toy_corpus(texts, labels, seq_len: int = 12):
    pipeline = PipelineConfig(stop_words=default_stop_words())
    token_lists = [pipeline.tokens(t) for t in texts]
    vocab = build_vocabulary(token_lists, min_frequency=1)
    corpus = encode_corpus(token_lists, labels, vocab, seq_len)
    return corpus, vocab, pipeline


@pytest.fixture(scope="session")
def toy_corpus():
    """(EncodedCorpus, Vocabulary, PipelineConfig) for the 30-example set."""
    texts, labels = make_toy_texts()
    return encode_toy_corpus(texts, labels)


@contextlib.contextmanager
def fifo_feeding(tmp_path, data: bytes):
    """A FIFO path that a writer thread feeds ``data`` to once a reader opens
    it: a file whose size ``fstat`` does not report."""
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    yield path
    writer.join(timeout=30)
    assert not writer.is_alive()
