"""Shared fixtures: a small keyword-separable corpus and encoded views of it."""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from pathlib import Path

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
