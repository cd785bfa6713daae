"""Each fast ingest path equals the slow form it replaced.

The slow forms live in ``oracles``: cleaning with every regex run on every
text, the stack of per-row encodings, the per-list vocabulary count, the
suffix scan without its one-call reject and the ``csv.DictReader`` loader.
"""

import csv
import string
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from sentinet import stemming
from sentinet.corpus_io import CorpusError, load_corpus
from sentinet.preprocess import (
    StopWordList,
    Vocabulary,
    build_vocabulary,
    clean_tokens,
    encode_and_pad,
    encode_corpus,
    filter_twitter_artifacts,
    remove_punctuation,
    remove_urls,
)

from oracles import (
    dictreader_load_corpus,
    linear_replace,
    loop_filter_twitter_artifacts,
    per_list_build_vocabulary,
    row_encode_and_pad,
    stacked_encode,
    staged_clean_tokens,
    translate_punctuation,
    unguarded_remove_urls,
)

# the pieces each cleaning guard is about (long s, retweet prefixes, a
# mention, a hashtag, URL starts in both cases) and pieces close to them,
# mixed with arbitrary code points, lone surrogates included
GUARDED_PIECES = (
    "ſ", "RT ", "rt:", "Rt\t", "@x:", "#", "www.", "HTTP://", "httpſ://", "http://",
    "WwW.", "R", "t", ".", ":", "/", "@", " ", "\U0001F600", "İ", "K",
)
TWEETS = st.lists(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(GUARDED_PIECES)),
    max_size=30,
).map("".join)
STOPS = StopWordList(frozenset({"the", "rt", "x", "k"}))


class TestGuardedCleaning:
    @given(TWEETS)
    def test_remove_urls_equals_the_unguarded_pattern(self, text):
        # gate 5 runs the stage on mixed-case text, clean_tokens on lowercase
        for case in (text, text.lower()):
            assert remove_urls(case) == unguarded_remove_urls(case)

    @given(TWEETS, st.booleans())
    def test_filter_artifacts_equals_the_unguarded_stage(self, text, drop_hashtag_words):
        for case in (text, text.lower()):
            assert filter_twitter_artifacts(case, drop_hashtag_words) == (
                loop_filter_twitter_artifacts(case, drop_hashtag_words)
            )

    @given(TWEETS, st.booleans())
    def test_clean_tokens_equals_the_unguarded_chain(self, text, drop_hashtag_words):
        assert clean_tokens(text, STOPS, drop_hashtag_words) == staged_clean_tokens(
            text, STOPS, drop_hashtag_words
        )

    def test_bytewise_punctuation_equals_the_translate_table(self):
        # every code point, lone surrogates included, then pairs of surrogates
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        for text in (every, "\ud83d\ude00!\udfff.\ud800", "a,b"):
            assert remove_punctuation(text) == translate_punctuation(text)

    def test_long_s_keeps_a_url_a_url(self):
        # under re.IGNORECASE, s also matches U+017F
        assert remove_urls("httpſ://x a") == " a"
        assert clean_tokens("see httpſ://x.co now", StopWordList(frozenset())) == ["see", "now"]


VOCAB_WORDS = st.sampled_from(["a", "b", "c", "d", "virus", "mild"])
# encoded lists may hold words no vocabulary has, reserved tokens included
ENCODED_WORDS = st.one_of(VOCAB_WORDS, st.sampled_from(["zzz", "<pad>", "<unk>", ""]))


class TestFlatEncoding:
    @given(
        st.lists(st.lists(VOCAB_WORDS, max_size=8), max_size=6),
        st.lists(st.lists(ENCODED_WORDS, max_size=50), max_size=6),
        st.sampled_from([1, 40]),
        st.integers(min_value=1, max_value=3),
    )
    def test_encoding_equals_the_stack_of_rows(self, corpus, token_lists, n, min_freq):
        vocab = build_vocabulary(corpus, min_freq)
        encoded = encode_corpus(token_lists, [0] * len(token_lists), vocab, n)
        assert encoded.sequences.dtype == np.int64
        npt.assert_array_equal(encoded.sequences, stacked_encode(token_lists, vocab, n))
        for tokens in token_lists:
            ids = encode_and_pad(tokens, vocab, n)
            assert ids.shape == (n,) and not ids.flags.writeable
            npt.assert_array_equal(ids, row_encode_and_pad(tokens, vocab, n))

    def test_unknown_words_only(self):
        vocab = build_vocabulary([["a"]], 1)
        rows = [["zzz"] * 45, [], ["<pad>", "<unk>"]]
        npt.assert_array_equal(encode_corpus(rows, [0, 1, 2], vocab, 40).sequences,
                               stacked_encode(rows, vocab, 40))

    @pytest.mark.parametrize("n", [0, -1])
    def test_sequence_length_below_one_is_rejected_alike(self, n):
        vocab = build_vocabulary([["a"]], 1)
        for encode in (encode_and_pad, row_encode_and_pad):
            with pytest.raises(ValueError, match="sequence length must be >= 1"):
                encode(["a"], vocab, n)

    @given(
        st.lists(st.lists(VOCAB_WORDS, max_size=12), max_size=8),
        st.integers(min_value=1, max_value=4),
    )
    def test_vocabulary_equals_the_per_list_count(self, token_lists, min_freq):
        fast = build_vocabulary(token_lists, min_freq)
        slow = per_list_build_vocabulary(token_lists, min_freq)
        assert fast.to_json() == slow.to_json()
        assert len(fast) == len(slow)


class TestReservedTokens:
    """A vocabulary that ``to_json`` could write but ``from_json`` would
    refuse is refused when it is built."""

    @pytest.mark.parametrize("token_lists", [
        [["<pad>", "a", "a"]],
        [["a", "<unk>"]],
    ], ids=["pad", "unk"])
    def test_reserved_token(self, token_lists):
        with pytest.raises(ValueError, match="reserved"):
            build_vocabulary(token_lists, 1)

    def test_empty_token(self):
        with pytest.raises(ValueError, match="empty"):
            build_vocabulary([["a", ""]], 1)

    def test_repeated_token(self):
        with pytest.raises(ValueError, match="repeat"):
            Vocabulary(["a", "b", "a"], 1)

    def test_a_built_vocabulary_loads_back(self):
        vocab = build_vocabulary([["b", "a", "b"]], 1)
        assert Vocabulary.from_json(vocab.to_json()).to_json() == vocab.to_json()


TABLES = {
    name: getattr(stemming, name)
    for name in ("_EED_RULES", "_STEP1A_RULES", "_STEP2_RULES", "_STEP3_RULES", "_STEP4_RULES")
}
ALL_SUFFIXES = sorted({suffix for suffixes, _ in TABLES.values() for suffix in suffixes})


class TestSuffixReject:
    def test_tables_hold_their_suffixes_once(self):
        for suffixes, rules in TABLES.values():
            assert suffixes == tuple(suffix for suffix, _ in rules)

    @given(
        st.text(alphabet=string.ascii_lowercase, max_size=8),
        st.sampled_from(sorted(TABLES)),
        st.data(),
        st.sampled_from([-1, 0, 1]),
    )
    def test_replace_equals_the_linear_scan(self, stem_, table, data, min_measure):
        # the word ends in one of the table's own suffixes, any other, or none
        suffixes, rules = TABLES[table]
        own = st.sampled_from(suffixes)
        word = stem_ + data.draw(st.one_of(own, own, st.sampled_from(ALL_SUFFIXES), st.just("")))
        assert stemming._replace(word, TABLES[table], min_measure) == linear_replace(
            word, rules, min_measure
        )


# cells: mostly well-formed, a few that fail a row (a bad label, a blank
# text, a field over the lowered size limit)
LABELS = st.sampled_from(["-1", "0", "1", " 1 ", "-1", "0", "1", "2", ""])
TEXTS = st.sampled_from(
    ["good news", "a,b", 'say "hi"', "two\nlines", "crlf\r\nin", "\ufeffbom", "é ❤",
     "good news", "a,b", 'say "hi"', "", "  ", "x" * 12]
)
NAMES = st.sampled_from(["text", "label", "note"])


def _field(value: str, quote: bool) -> str:
    if quote or any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def csv_texts(draw):
    """A header holding both columns, perhaps more than once, then rows
    with blank lines, short and long rows, quoted newlines and sometimes
    a byte-order mark."""
    header = draw(st.permutations(["text", "label", *draw(st.lists(NAMES, max_size=2))]))
    lines = [",".join(_field(name, draw(st.booleans())) for name in header)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            lines.append("")  # a blank line
        fields = [draw(LABELS if name == "label" else TEXTS) for name in header]
        shape = draw(st.sampled_from(["full"] * 6 + ["short", "long"]))
        if shape == "short":
            fields = fields[: draw(st.integers(min_value=0, max_value=len(fields) - 1))]
        elif shape == "long":
            fields += draw(st.lists(TEXTS, min_size=1, max_size=2))
        lines.append(",".join(_field(v, draw(st.booleans())) for v in fields))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    return ("\ufeff" if draw(st.booleans()) else "") + text


@contextmanager
def field_size_limit(limit: int):
    """A lowered csv field limit, so an oversized field raises csv.Error."""
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def outcome(load, path):
    """The examples a loader returns, or the type and message it raises."""
    try:
        corpus = load(path)
    except CorpusError as exc:
        return type(exc), str(exc)
    return corpus.examples


class TestLoader:
    @given(csv_texts(), st.sampled_from([None, 10]))
    def test_load_corpus_equals_the_dictreader_loop(self, text, limit):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            path.write_bytes(text.encode("utf-8"))
            with field_size_limit(limit or csv.field_size_limit()):
                assert outcome(load_corpus, path) == outcome(dictreader_load_corpus, path)

    @pytest.mark.parametrize("text", [
        "", "\ufeff", "text,label\n", "text,label\n\n\n", "\n", "\ntext,label\nhi,1\n",
        "text,label,text\nhi,1\n", "text,label,text\nhi,1,yo\n", "label,text\n1\n",
        "text,label\n\nhi,1\n\nyo,2\n", "text\nhi\n", "label,note\n1,hi\n",
    ])
    def test_edge_files(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_corpus, path) == outcome(dictreader_load_corpus, path)
