"""Fuzzing the two container readers: whatever the bytes, ``load_model`` and
``read_corpus_cache`` return a value or raise CorruptFile or
FormatVersionMismatch, never anything else."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sentinet.model_training import (
    CorruptFile,
    FormatVersionMismatch,
    ModelConfig,
    build_model,
    load_model,
    save_model,
)
from sentinet.preprocess import read_corpus_cache, write_corpus_cache
from sentinet.tensor_core import Rng

from conftest import encode_toy_corpus, make_toy_texts

FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
READERS = {"model": load_model, "cache": read_corpus_cache}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """{kind: bytes of a valid file} plus a directory to write trials into."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus, vocab, pipeline = encode_toy_corpus(*make_toy_texts(per_class=2))
    config = ModelConfig(variant="cnn-lstm", seq_len=corpus.n, embed_dim=2,
                         window=2, filters=2, hidden=2)
    save_model(build_model(config, vocab, Rng(3), pipeline), root / "model.bin")
    write_corpus_cache(corpus, root / "cache.bin")
    blobs = {kind: (root / f"{kind}.bin").read_bytes() for kind in READERS}
    return blobs, root


def trial(root, kind, blob):
    path = root / f"trial-{kind}.bin"
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("kind", READERS)
@FUZZ
@given(blob=st.binary(max_size=256), use_magic=st.booleans())
def test_arbitrary_bytes(valid_files, kind, blob, use_magic):
    blobs, root = valid_files
    if use_magic:  # get past the magic and version checks more often than chance would
        blob = blobs[kind][:8] + blob
    try:
        READERS[kind](trial(root, kind, blob))
    except (CorruptFile, FormatVersionMismatch):
        pass


@pytest.mark.parametrize("kind", READERS)
@FUZZ
@given(data=st.data())
def test_truncations(valid_files, kind, data):
    blobs, root = valid_files
    blob = blobs[kind]
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(CorruptFile):
        READERS[kind](trial(root, kind, blob[:cut]))


@pytest.mark.parametrize("kind", READERS)
@FUZZ
@given(data=st.data())
def test_single_byte_flips(valid_files, kind, data):
    blobs, root = valid_files
    blob = bytearray(blobs[kind])
    at = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[at] ^= data.draw(st.integers(min_value=1, max_value=255))
    expected = FormatVersionMismatch if 4 <= at < 8 else CorruptFile  # bytes 4-7: version
    with pytest.raises(expected):
        READERS[kind](trial(root, kind, blob))


def test_each_reader_rejects_the_other_format(valid_files):
    blobs, root = valid_files
    with pytest.raises(CorruptFile, match="not a corpus cache file"):
        read_corpus_cache(root / "model.bin")
    with pytest.raises(CorruptFile, match="not a model file"):
        load_model(root / "cache.bin")
