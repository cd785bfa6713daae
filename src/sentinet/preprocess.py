"""Tweet cleaning pipeline, vocabulary construction, and fixed-length encoding.

The cleaning stages run in a fixed order chosen so that each stage sees
input the previous stages have already normalized:

    lowercase -> remove_urls -> filter_twitter_artifacts -> remove_punctuation
              -> tokenize -> remove_stop_words -> stem (per token)

URL removal runs before punctuation removal on purpose: stripping
punctuation first would shatter every URL into junk tokens.

Each regex stage skips a pattern that cannot match: a URL needs ``://``
or ``.``, a retweet marker a text starting with ``rt`` in any case, a
mention an ``@``.  The URL pattern keeps ``re.IGNORECASE`` on lowercased
text: under it ``s`` also matches U+017F (long s), so ``httpſ://x`` is a URL.

Stemming goes through the memo on :func:`sentinet.stemming.stem`: per
process, bounded at 65,536 tokens and exact (a hit returns what the
cascade returns), so a corpus costs its distinct tokens' stemming once.

Encoding has one row rule: a row's first ``n`` token ids (UNK_ID if
unknown), then PAD_ID up to ``n``.  :func:`encode_and_pad` is its one-row case.

The corpus cache is a container of :mod:`sentinet.corpus_io` (layout
there) with magic ``SNEC`` and version 1.  Its header holds ``rows`` and
``seq_len``; the payload holds the (rows, seq_len) id matrix row by row,
then the rows' labels 0/1/2, all as little-endian int64.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain, count, repeat

import numpy as np

from .corpus_io import CorruptFile, InvalidConfig, read_container, write_container
from .stemming import stem

PAD_ID = 0
UNK_ID = 1

_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)
_RETWEET_RE = re.compile(r"^(?:rt[:\s]\s*)+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+:?")
_HASHTAG_WORD_RE = re.compile(r"#\w+")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
_PUNCT_BYTES = bytes.maketrans(string.punctuation.encode(), b" " * len(string.punctuation))


@dataclass(frozen=True)
class StopWordList:
    """Immutable set of lowercase words to drop after tokenization."""

    words: frozenset[str]

    def __post_init__(self):
        for w in self.words:
            if not w:
                raise ValueError("stop-word list contains an empty string")
            if w != w.lower():
                raise ValueError(f"stop word not lowercase: {w!r}")

    def __len__(self) -> int:
        return len(self.words)


def load_stop_words(path) -> StopWordList:
    """Read a stop-word file: one word per line, '#' lines are comments."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    return StopWordList(frozenset(w.lower() for w in lines if w and not w.startswith("#")))


def default_stop_words() -> StopWordList:
    """The packaged English list (~175 entries)."""
    with resources.as_file(resources.files("sentinet") / "data/stopwords.txt") as path:
        return load_stop_words(path)


def remove_urls(text: str) -> str:
    """Delete every http(s)://... or www.... run up to the next whitespace."""
    return _URL_RE.sub("", text) if "://" in text or "." in text else text


def filter_twitter_artifacts(text: str, drop_hashtag_words: bool = False) -> str:
    """Strip retweet markers, @mentions, hashtag marks, and non-ASCII symbols.

    A leading "RT " (any case, possibly repeated) is removed together with
    the whitespace that follows it.  Mentions are removed outright,
    swallowing a trailing colon.  By default only the '#' marker is
    dropped and the hashtag word itself survives, since tags like
    #monkeypox carry the topic; pass ``drop_hashtag_words=True`` to remove
    the whole token.  Non-ASCII characters become spaces.
    """
    if text[:2].lower() == "rt":
        text = _RETWEET_RE.sub("", text)
    if "@" in text:
        text = _MENTION_RE.sub("", text)
    if drop_hashtag_words:
        text = _HASHTAG_WORD_RE.sub("", text)
    else:
        text = text.replace("#", "")
    return text if text.isascii() else _NON_ASCII_RE.sub(" ", text)


def remove_punctuation(text: str) -> str:
    """Replace every ASCII punctuation character with a single space, bytewise on UTF-8."""
    return text.encode(errors="surrogatepass").translate(_PUNCT_BYTES).decode(errors="surrogatepass")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace runs, dropping empty tokens."""
    return text.lower().split()


def remove_stop_words(tokens: list[str], stops: StopWordList) -> list[str]:
    """Order-preserving removal of tokens found in the stop list."""
    words = stops.words
    return [t for t in tokens if t not in words]


def clean_tokens(
    raw: str, stops: StopWordList, drop_hashtag_words: bool = False
) -> list[str]:
    """All cleaning stages except stemming (idempotent on clean input).

    The text is lowercased once, first; the later stages keep it lowercase
    and leave it ASCII, so splitting it is what :func:`tokenize` would do.
    """
    text = remove_urls(raw.lower())
    text = filter_twitter_artifacts(text, drop_hashtag_words)
    return remove_stop_words(remove_punctuation(text).split(), stops)


def preprocess_pipeline(
    raw: str, stops: StopWordList, drop_hashtag_words: bool = False
) -> list[str]:
    """Full cleaning pipeline: clean_tokens followed by stemming each token."""
    return list(map(stem, clean_tokens(raw, stops, drop_hashtag_words)))


@dataclass(frozen=True)
class PipelineConfig:
    """The cleaning choices a trained model must replay on new text."""

    stop_words: StopWordList
    drop_hashtag_words: bool = False
    dedupe: bool = False  # exact-duplicate texts dropped at corpus level

    def tokens(self, raw: str) -> list[str]:
        return preprocess_pipeline(raw, self.stop_words, self.drop_hashtag_words)

    def to_json(self) -> dict:
        """The settings as a JSON object (model header and ``meta.json``)."""
        return {
            "stop_words": sorted(self.stop_words.words),
            "drop_hashtag_words": self.drop_hashtag_words,
            "dedupe": self.dedupe,
        }

    @classmethod
    def from_json(cls, blob: dict) -> "PipelineConfig":
        """Inverse of :meth:`to_json`; other keys in ``blob`` are ignored.
        ValueError unless ``stop_words`` is a list of strings and both
        flags are bools."""
        stop_words, flags = blob["stop_words"], (blob["drop_hashtag_words"], blob["dedupe"])
        if type(stop_words) is not list or set(map(type, stop_words)) - {str}:
            raise ValueError("stop_words must be a list of strings")
        if {type(f) for f in flags} - {bool}:
            raise ValueError(f"drop_hashtag_words and dedupe must be bools, got {flags!r}")
        return cls(StopWordList(frozenset(stop_words)), *flags)


class Vocabulary:
    """Token <-> id bijection with reserved pad (0) and unknown (1) ids.

    Corpus tokens get ids from 2 upward in order of descending corpus
    frequency, ties broken lexicographically, so construction is fully
    deterministic.  ValueError if the tokens repeat, include a reserved
    token or are empty.
    """

    PAD_TOKEN = "<pad>"
    UNK_TOKEN = "<unk>"

    def __init__(self, tokens_by_id: list[str], min_frequency: int):
        self._id_to_token = (self.PAD_TOKEN, self.UNK_TOKEN, *tokens_by_id)
        self._token_to_id = dict(zip(tokens_by_id, count(2)))  # corpus tokens only
        reserved = {"", self.PAD_TOKEN, self.UNK_TOKEN}
        if len(self._token_to_id) + 2 != len(self) or not reserved.isdisjoint(self._token_to_id):
            raise ValueError("vocabulary tokens repeat, include a reserved token or are empty")
        self.min_frequency = min_frequency

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def encode(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def tokens(self) -> tuple[str, ...]:
        """Corpus tokens in id order (excluding the reserved entries)."""
        return self._id_to_token[2:]

    def to_json(self) -> dict:
        """The vocabulary as a JSON object (model header and ``vocab.json``)."""
        return {"tokens": list(self.tokens()), "min_frequency": self.min_frequency}

    @classmethod
    def from_json(cls, blob: dict) -> "Vocabulary":
        """Inverse of :meth:`to_json`; ValueError unless the tokens are
        distinct non-empty strings, none reserved, and min_frequency >= 1."""
        tokens, min_frequency = blob["tokens"], blob["min_frequency"]
        if type(tokens) is not list or set(map(type, tokens)) - {str}:
            raise ValueError("vocabulary tokens must be a list of strings")
        if type(min_frequency) is not int or min_frequency < 1:
            raise ValueError(f"min_frequency must be an int >= 1, got {min_frequency!r}")
        return cls(tokens, min_frequency)


def build_vocabulary(token_lists, min_frequency: int = 1) -> Vocabulary:
    """Index every token whose corpus frequency reaches ``min_frequency``."""
    if min_frequency < 1:
        raise InvalidConfig(f"min_frequency must be >= 1, got {min_frequency}")
    counts = Counter(chain.from_iterable(token_lists))
    kept = [t for t, c in counts.items() if c >= min_frequency]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept, min_frequency)


def encode_and_pad(tokens: list[str], vocab: Vocabulary, n: int) -> np.ndarray:
    """The read-only id row of ``tokens``: :func:`encode_corpus` on one row."""
    ids = _flat_ids([tokens], vocab, n)
    ids.setflags(write=False)
    return ids


def _flat_ids(token_lists: list, vocab: Vocabulary, n: int) -> np.ndarray:
    """Each row's first ``n`` token ids then PAD_ID up to ``n``, all rows flat."""
    if n < 1:
        raise InvalidConfig(f"sequence length must be >= 1, got {n}")
    get, unknown = vocab._token_to_id.get, repeat(UNK_ID)
    rows = (chain(map(get, t[:n], unknown), repeat(PAD_ID, n - len(t))) for t in token_lists)
    return np.fromiter(chain.from_iterable(rows), np.int64, len(token_lists) * n)


@dataclass(frozen=True)
class EncodedCorpus:
    """Batch view of encoded examples: an (N, n) id matrix plus labels 0/1/2."""

    sequences: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.sequences.ndim != 2 or len(self.sequences) != len(self.labels):
            raise ValueError("sequences and labels disagree in length")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return self.sequences.shape[1]

    def subset(self, indices) -> "EncodedCorpus":
        idx = np.asarray(indices, dtype=np.int64)
        return EncodedCorpus(self.sequences[idx], self.labels[idx])


def encode_corpus(token_lists, labels, vocab: Vocabulary, n: int) -> EncodedCorpus:
    """Encode a whole corpus into an EncodedCorpus of fixed length ``n``."""
    ids = _flat_ids(list(token_lists), vocab, n).reshape(-1, n)
    return EncodedCorpus(ids, np.asarray(labels, dtype=np.int64))


CACHE_MAGIC = b"SNEC"
CACHE_VERSION = 1


def write_corpus_cache(corpus: EncodedCorpus, path) -> None:
    rows, n = corpus.sequences.shape
    payload = [np.ascontiguousarray(a, dtype="<i8") for a in (corpus.sequences, corpus.labels)]
    write_container(path, CACHE_MAGIC, CACHE_VERSION, {"rows": rows, "seq_len": n}, payload)


def read_corpus_cache(path) -> EncodedCorpus:
    """The cached corpus; CorruptFile unless every id is >= 0 and every label
    is 0, 1 or 2.  The cache does not hold the vocabulary that bounds the
    ids from above: its caller checks that bound."""
    header, payload = read_container(path, CACHE_MAGIC, CACHE_VERSION, "corpus cache")
    rows, n = header.get("rows"), header.get("seq_len")
    if header.keys() != {"rows", "seq_len"} or type(rows) is not int or type(n) is not int:
        raise CorruptFile(f"malformed header: {path}")
    if rows < 0 or n < 1 or len(payload) != 8 * rows * (n + 1):
        raise CorruptFile(f"payload does not match the shape in its header: {path}")
    values = np.frombuffer(payload, dtype="<i8")
    sequences, labels = values[: rows * n].reshape(rows, n), values[rows * n :]
    for bad, what in (
        ((sequences < 0).any(axis=1), "negative token id"),
        ((labels < 0) | (labels > 2), "label outside 0, 1, 2"),
    ):
        if bad.any():
            raise CorruptFile(f"row {int(np.argmax(bad)) + 1}: {what}: {path}")
    return EncodedCorpus(sequences, labels)
