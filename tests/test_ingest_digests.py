"""``sentinet ingest`` writes the bytes it always has.

The sha256 of ``encoded.bin`` and ``vocab.json`` for a seeded 2,000-row
benchmark corpus are pinned, so a change to cleaning, stemming,
vocabulary order or the cache format shows as a digest mismatch.  The
corpus comes from the benchmark's generator, read without changing it.
"""

import hashlib
import sys
from pathlib import Path

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
