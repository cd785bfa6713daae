"""``sentinet ingest`` writes the bytes it always has.

The sha256 of ``encoded.bin`` and ``vocab.json`` for a seeded 2,000-row
benchmark corpus are pinned, so a change to cleaning, stemming,
vocabulary order or the cache format shows as a digest mismatch.  Two
more cases pin the topic corpus with ``--dedupe`` and the paper corpus
with ``--drop-hashtag-words``.  The corpus comes from the benchmark's
generator, read without changing it.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus_gen  # noqa: E402

from sentinet import cli  # noqa: E402

PINNED = {
    "encoded.bin": "f558bd0b6a6b830de8fe811ac7eef89c2eeade4cecedd73eae158fe01eb98ae5",
    "vocab.json": "28f78d4611c9feb594341016b1c23f1d977258fadf1094ce0b2147a4cf0d06d0",
}


def test_ingest_of_seeded_paper_corpus_writes_pinned_bytes(tmp_path, capsys):
    csv_path, out = tmp_path / "corpus.csv", tmp_path / "data"
    argv = ["--shape", "paper", "--seed", "3", "--rows", "2000", "--out", str(csv_path)]
    assert corpus_gen.main(argv) == 0
    assert cli.main(["ingest", "--csv", str(csv_path), "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED}
    assert digests == PINNED


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
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned
