"""``sentinet ingest`` writes the bytes it always has.

The sha256 of ``encoded.bin`` and ``vocab.json`` for a seeded 2,000-row
benchmark corpus are pinned, so a change to cleaning, stemming,
vocabulary order or the cache format shows as a digest mismatch.  Two
more cases pin the topic corpus with ``--dedupe`` and the paper corpus
with ``--drop-hashtag-words``.  The corpus comes from the benchmark's
generator, read without changing it.

Each case holds for two library routes too: ``preprocess.prepare``, and
the step-by-step calls the benchmark's ingest times, so pointing the
benchmark at ``prepare`` moves no byte.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus_gen  # noqa: E402

from sentinet import cli, corpus_io, preprocess  # noqa: E402

PINNED = {
    "encoded.bin": "f558bd0b6a6b830de8fe811ac7eef89c2eeade4cecedd73eae158fe01eb98ae5",
    "vocab.json": "28f78d4611c9feb594341016b1c23f1d977258fadf1094ce0b2147a4cf0d06d0",
}


def digests_of(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def assert_library_routes_write(pinned, csv_path, tmp_path, flags=()):
    """``prepare`` and the benchmark's timed ingest steps give the ``pinned``
    digests for the ingest ``flags``."""
    drop, dedupe = "--drop-hashtag-words" in flags, "--dedupe" in flags
    pipeline = preprocess.PipelineConfig(preprocess.default_stop_words(), drop, dedupe)
    out = tmp_path / "prepared"
    preprocess.prepare(csv_path, out, pipeline, 40, 1, "text", "label")
    assert digests_of(out, pinned) == pinned

    corpus = corpus_io.load_corpus(csv_path)
    if dedupe:
        corpus = corpus_io.deduplicate(corpus)
    token_lists = [pipeline.tokens(ex.text) for ex in corpus.examples]
    vocab = preprocess.build_vocabulary(token_lists, 1)
    encoded = preprocess.encode_corpus(token_lists, corpus.labels(), vocab, 40)
    steps = tmp_path / "steps"
    steps.mkdir()
    preprocess.write_corpus_cache(encoded, steps / "encoded.bin")
    # the benchmark writes no vocab.json; this is what ingest writes of a vocabulary
    (steps / "vocab.json").write_text(json.dumps(vocab.to_json(), sort_keys=True), "utf-8")
    assert digests_of(steps, pinned) == pinned


def test_ingest_of_seeded_paper_corpus_writes_pinned_bytes(tmp_path, capsys):
    csv_path, out = tmp_path / "corpus.csv", tmp_path / "data"
    argv = ["--shape", "paper", "--seed", "3", "--rows", "2000", "--out", str(csv_path)]
    assert corpus_gen.main(argv) == 0
    assert cli.main(["ingest", "--csv", str(csv_path), "--out-dir", str(out)]) == 0
    assert digests_of(out, PINNED) == PINNED
    assert_library_routes_write(PINNED, csv_path, tmp_path)


MORE_PINNED = {
    "topic-dedupe": (
        ["--shape", "topic"],
        ["--dedupe"],
        {
            "encoded.bin": "865622775aee28147fa2b09527e1beb79e30220ea9484a8e1aeeb92135154420",
            "vocab.json": "f5c957baa9903e9cb1f6644ce64cba52df662f4d65e11b78cc586fe4e922a2a3",
        },
    ),
    "paper-drop-hashtag-words": (
        ["--shape", "paper"],
        ["--drop-hashtag-words"],
        {
            "encoded.bin": "765e6cc657cafdf8fb80df2c0cd6cff2702ec2a9e029bc5ee837b595b5b6a2f1",
            "vocab.json": "891891d6595ab5a643f7fb28a1d99198a50c40e31086ac9bb5535ebbd5e633b0",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(MORE_PINNED))
def test_ingest_with_pipeline_flags_writes_pinned_bytes(case, tmp_path, capsys):
    shape, flags, pinned = MORE_PINNED[case]
    csv_path, out = tmp_path / "corpus.csv", tmp_path / "data"
    assert corpus_gen.main([*shape, "--seed", "3", "--rows", "2000", "--out", str(csv_path)]) == 0
    assert cli.main(["ingest", "--csv", str(csv_path), "--out-dir", str(out), *flags]) == 0
    assert digests_of(out, pinned) == pinned
    assert_library_routes_write(pinned, csv_path, tmp_path, flags)
