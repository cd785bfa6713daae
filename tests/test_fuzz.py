"""Fuzzing the two container readers and the command line.

Whatever the bytes, ``load_model`` and ``read_corpus_cache`` return a value
or raise CorruptFile or FormatVersionMismatch, never anything else.  And
``cli.main`` run as ingest -> train -> evaluate on a fuzzed small CSV, or
with an out-of-range or unparsable flag value, returns one of the exit
codes its docstring documents and lets no exception escape.
"""

import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sentinet import cli
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

from conftest import CLASS_KEYWORDS, FILLERS, encode_toy_corpus, make_toy_texts
from test_cli import write_toy_csv

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


# --- cli.main ---------------------------------------------------------------

EXIT_CODES = {0, 1, 2, 3}  # success, usage, I/O or format, divergence
CLI_FUZZ = settings(FUZZ, max_examples=30)
# a model a few parameters wide, so that an example costs milliseconds
TINY_MODEL = ["--embed-dim", "2", "--window", "2", "--filters", "2", "--hidden", "2"]

WORDS = st.sampled_from(
    sum(CLASS_KEYWORDS, FILLERS) + ("the", "#tag", "@user", "http://x.io", "Ünï", "!!")
)
ROWS = st.tuples(st.lists(WORDS, min_size=1, max_size=5).map(" ".join),
                 st.sampled_from(("-1", "0", "1")))
BAD_ROWS = st.tuples(st.text(max_size=8), st.sampled_from(("-1", "0", "1", "2", "", " 1")))


@st.composite
def csv_files(draw) -> bytes:
    """Arbitrary bytes, or a small CSV under a header that may lack a
    column: valid rows, each twice so that a class seen once can still be
    split, with at most one fuzzed row among them."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    rows = draw(st.lists(ROWS, min_size=1, max_size=6)) * 2
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_ROWS))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(draw(st.sampled_from((("text", "label"), ("label", "text"), ("text",)))))
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


def run_workflow(root: Path, csv_path: Path, ingest_flags=(), train_flags=()) -> None:
    """ingest -> train -> evaluate, stopping at the first nonzero exit.  The
    split gives half of each class to training and half to test, so two
    rows of a class are enough."""
    data, run, report = root / "data", root / "run", root / "report"
    steps = (
        ["ingest", "--csv", str(csv_path), "--out-dir", str(data), "--seq-len", "4",
         *ingest_flags],
        ["train", "--data", str(data), "--out-dir", str(run), "--epochs", "1",
         "--batch-size", "4", "--train-frac", "0.5", "--val-frac", "0", *TINY_MODEL,
         *train_flags],
        ["evaluate", "--model", str(run / "model.bin"), "--data", str(data),
         "--out-dir", str(report)],
    )
    for argv in steps:
        code = cli.main(argv)
        assert code in EXIT_CODES, (argv, code)
        if code != 0:
            return


@CLI_FUZZ
@given(blob=csv_files())
def test_cli_workflow_on_fuzzed_csv(blob):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "in.csv").write_bytes(blob)
        run_workflow(root, root / "in.csv")


# in range for some flags and not for others, unparsable, or non-finite
VALUES = st.sampled_from(
    ("-1", "0", "1", "2", "3", "0.5", "0.9", "-0.5", "1e-3", "1e-300", "1e308",
     "nan", "inf", "-inf", "", "x")
)
TRAIN_FLAGS = ("--epochs", "--batch-size", "--lr", "--beta1", "--beta2", "--eps",
               "--embed-dim", "--window", "--filters", "--hidden", "--seed",
               "--train-frac", "--val-frac", "--split-seed")


@CLI_FUZZ
@given(
    flags=st.lists(
        st.tuples(st.sampled_from(TRAIN_FLAGS + ("--seq-len", "--min-freq")), VALUES),
        min_size=1,
        max_size=2,
    ),
    optimizer=st.sampled_from(("adam", "sgd")),
)
def test_cli_workflow_with_fuzzed_flags(flags, optimizer):
    ingest_flags, train_flags = [], ["--optimizer", optimizer]
    for flag, value in flags:
        (train_flags if flag in TRAIN_FLAGS else ingest_flags).append(f"{flag}={value}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        run_workflow(root, write_toy_csv(root / "in.csv", per_class=4), ingest_flags, train_flags)
