"""The memo on ``stem`` is bounded and exact.

It returns what the uncached cascade (``stem.__wrapped__``) returns on a
miss and on a hit, it never holds more than its bound, and a cold and a
warm memo give the same ``ingest`` bytes and the same tokens under
threads.
"""

import itertools
import string
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus_gen  # noqa: E402

from sentinet import cli, corpus_io  # noqa: E402
from sentinet.preprocess import PipelineConfig, default_stop_words  # noqa: E402
from sentinet.stemming import stem  # noqa: E402

from test_stemming import WORDS  # noqa: E402
from test_stemming_agreement import GROUPS  # noqa: E402

AGREEMENT_WORDS = sorted({w for group in GROUPS for w in group()} | set(WORDS))


@pytest.fixture
def cold_memo():
    stem.cache_clear()
    yield
    stem.cache_clear()


def test_bound():
    assert stem.cache_info().maxsize == 1 << 16


def test_hits_and_misses_equal_the_uncached_cascade(cold_memo):
    cascade = [stem.__wrapped__(w) for w in AGREEMENT_WORDS]
    assert [stem(w) for w in AGREEMENT_WORDS] == cascade  # every call a miss
    assert [stem(w) for w in AGREEMENT_WORDS] == cascade  # every call a hit
    assert stem.cache_info().hits == len(AGREEMENT_WORDS)


def test_memo_stays_within_its_bound(cold_memo):
    words = ("".join(letters) for letters in itertools.product(string.ascii_lowercase, repeat=4))
    distinct = list(itertools.islice(words, 70_000))
    for word in distinct:
        stem(word)
    info = stem.cache_info()
    assert info.misses == len(distinct) and info.currsize <= info.maxsize


@pytest.fixture(scope="module")
def topic_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("topic") / "corpus.csv"
    argv = ["--shape", "topic", "--seed", "11", "--rows", "2000", "--out", str(path)]
    assert corpus_gen.main(argv) == 0
    return path


def test_ingest_bytes_do_not_depend_on_the_memo(topic_csv, tmp_path, cold_memo, capsys):
    outs = tmp_path / "cold", tmp_path / "warm"
    for out in outs:  # the first ingest starts from an empty memo, the second from a full one
        assert cli.main(["ingest", "--csv", str(topic_csv), "--out-dir", str(out), "--dedupe"]) == 0
    assert stem.cache_info().hits > 0
    names = ("encoded.bin", "vocab.json", "meta.json", "histogram.csv")
    cold, warm = ([(out / name).read_bytes() for name in names] for out in outs)
    assert cold == warm


def test_threads_sharing_the_memo_match_serial_tokens(topic_csv, cold_memo):
    texts = [ex.text for ex in corpus_io.load_corpus(topic_csv, "text", "label").examples]
    pipeline = PipelineConfig(default_stop_words())
    serial = [pipeline.tokens(t) for t in texts]
    stem.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that misses race
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(pipeline.tokens, texts, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
