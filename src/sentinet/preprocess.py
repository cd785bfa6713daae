"""Tweet cleaning pipeline, vocabulary construction, and fixed-length encoding.

The cleaning stages run in a fixed order chosen so that each stage sees
input the previous stages have already normalized:

    lowercase -> remove_urls -> filter_twitter_artifacts -> remove_punctuation
              -> tokenize -> remove_stop_words -> stem (per token)

URL removal runs before punctuation removal on purpose: stripping
punctuation first would shatter every URL into junk tokens.

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

import numpy as np

from .corpus_io import CorruptFile, InvalidConfig, read_container, write_container
from .stemming import stem

PAD_ID = 0
UNK_ID = 1

_URL_RE = re.compile(r"(?:https?://|www\.)\S*", re.IGNORECASE)
_RETWEET_RE = re.compile(r"^(?:rt[:\s]\s*)+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+:?")
_HASHTAG_WORD_RE = re.compile(r"#\w+")
_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


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

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.words)


def load_stop_words(path) -> StopWordList:
    """Read a stop-word file: one word per line, '#' lines are comments."""
    words = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            words.add(line.lower())
    return StopWordList(frozenset(words))


def default_stop_words() -> StopWordList:
    """The packaged English list (~175 entries)."""
    text = resources.files("sentinet").joinpath("data/stopwords.txt").read_text("utf-8")
    words = {
        line.strip().lower()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    }
    return StopWordList(frozenset(words))


def remove_urls(text: str) -> str:
    """Delete every http(s)://... or www.... run up to the next whitespace."""
    return _URL_RE.sub("", text)


def filter_twitter_artifacts(text: str, drop_hashtag_words: bool = False) -> str:
    """Strip retweet markers, @mentions, hashtag marks, and non-ASCII symbols.

    A leading "RT " (any case, possibly repeated) is removed together with
    the whitespace that follows it.  Mentions are removed outright,
    swallowing a trailing colon.  By default only the '#' marker is
    dropped and the hashtag word itself survives, since tags like
    #monkeypox carry the topic; pass ``drop_hashtag_words=True`` to remove
    the whole token.  Non-ASCII characters become spaces.
    """
    text = _RETWEET_RE.sub("", text)
    text = _MENTION_RE.sub("", text)
    if drop_hashtag_words:
        text = _HASHTAG_WORD_RE.sub("", text)
    else:
        text = text.replace("#", "")
    return "".join(c if c.isascii() else " " for c in text)


def remove_punctuation(text: str) -> str:
    """Replace every ASCII punctuation character with a single space."""
    return text.translate(_PUNCT_TABLE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace runs, dropping empty tokens."""
    return text.lower().split()


def remove_stop_words(tokens: list[str], stops: StopWordList) -> list[str]:
    """Order-preserving removal of tokens found in the stop list."""
    return [t for t in tokens if t not in stops]


def clean_tokens(
    raw: str, stops: StopWordList, drop_hashtag_words: bool = False
) -> list[str]:
    """All cleaning stages except stemming (idempotent on clean input)."""
    text = raw.lower()
    text = remove_urls(text)
    text = filter_twitter_artifacts(text, drop_hashtag_words)
    text = remove_punctuation(text)
    return remove_stop_words(tokenize(text), stops)


def preprocess_pipeline(
    raw: str, stops: StopWordList, drop_hashtag_words: bool = False
) -> list[str]:
    """Full cleaning pipeline: clean_tokens followed by stemming each token."""
    return [stem(t) for t in clean_tokens(raw, stops, drop_hashtag_words)]


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
        """Inverse of :meth:`to_json`; other keys in ``blob`` are ignored."""
        return cls(
            StopWordList(frozenset(blob["stop_words"])),
            blob["drop_hashtag_words"],
            blob["dedupe"],
        )


class Vocabulary:
    """Token <-> id bijection with reserved pad (0) and unknown (1) ids.

    Corpus tokens get ids from 2 upward in order of descending corpus
    frequency, ties broken lexicographically, so construction is fully
    deterministic.
    """

    PAD_TOKEN = "<pad>"
    UNK_TOKEN = "<unk>"

    def __init__(self, tokens_by_id: list[str], min_frequency: int):
        self._id_to_token = (self.PAD_TOKEN, self.UNK_TOKEN, *tokens_by_id)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        self.min_frequency = min_frequency

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        tid = self._token_to_id.get(token)
        return tid is not None and tid >= 2

    def encode(self, token: str) -> int:
        tid = self._token_to_id.get(token, UNK_ID)
        return tid if tid >= 2 else UNK_ID

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
        """Inverse of :meth:`to_json`."""
        return cls(blob["tokens"], blob["min_frequency"])


def build_vocabulary(token_lists, min_frequency: int = 1) -> Vocabulary:
    """Index every token whose corpus frequency reaches ``min_frequency``."""
    if min_frequency < 1:
        raise InvalidConfig(f"min_frequency must be >= 1, got {min_frequency}")
    counts = Counter()
    for tokens in token_lists:
        counts.update(tokens)
    kept = [t for t, c in counts.items() if c >= min_frequency]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept, min_frequency)


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence; positions >= true_length hold the pad id."""

    ids: np.ndarray
    true_length: int

    def __len__(self) -> int:
        return len(self.ids)


def encode_and_pad(tokens: list[str], vocab: Vocabulary, n: int) -> TokenSequence:
    """Map tokens to ids, truncate past ``n``, and zero-pad up to ``n``."""
    if n < 1:
        raise InvalidConfig(f"sequence length must be >= 1, got {n}")
    ids = np.full(n, PAD_ID, dtype=np.int64)
    kept = tokens[:n]
    for i, tok in enumerate(kept):
        ids[i] = vocab.encode(tok)
    ids.setflags(write=False)
    return TokenSequence(ids=ids, true_length=len(kept))


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
    token_lists = list(token_lists)
    if token_lists:
        seqs = np.stack([encode_and_pad(t, vocab, n).ids for t in token_lists])
    else:
        seqs = np.empty((0, n), dtype=np.int64)
    return EncodedCorpus(seqs, np.asarray(labels, dtype=np.int64))


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
