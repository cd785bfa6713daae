import string

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from sentinet.corpus_io import (
    CorruptFile,
    FormatVersionMismatch,
    InvalidConfig,
    read_container,
    write_container,
)
from sentinet.preprocess import (
    CACHE_MAGIC,
    CACHE_VERSION,
    PAD_ID,
    UNK_ID,
    EncodedCorpus,
    StopWordList,
    Vocabulary,
    build_vocabulary,
    clean_tokens,
    default_stop_words,
    encode_and_pad,
    encode_corpus,
    filter_twitter_artifacts,
    load_stop_words,
    preprocess_pipeline,
    read_corpus_cache,
    remove_punctuation,
    remove_stop_words,
    remove_urls,
    tokenize,
    write_corpus_cache,
)

NO_STOPS = StopWordList(frozenset())


class TestStages:
    def test_remove_urls(self):
        assert remove_urls("read this https://t.co/xyz now") == "read this  now"
        assert remove_urls("no links here") == "no links here"
        assert remove_urls("www.who.int fact sheet") == " fact sheet"
        assert remove_urls("http://a.b/c?d=e#f end") == " end"

    def test_filter_artifacts(self):
        assert (
            filter_twitter_artifacts("RT @user: #monkeypox is spreading")
            == " monkeypox is spreading"
        )
        assert filter_twitter_artifacts("plain sentence") == "plain sentence"
        assert filter_twitter_artifacts("@a @b hi") == "  hi"

    def test_filter_drops_non_ascii(self):
        out = filter_twitter_artifacts("feveré alert ❤")
        assert out.isascii()
        assert "alert" in out

    def test_filter_can_drop_whole_hashtag_words(self):
        assert filter_twitter_artifacts("#mpox news", drop_hashtag_words=True) == " news"
        assert filter_twitter_artifacts("#mpox news") == "mpox news"

    def test_remove_punctuation(self):
        assert remove_punctuation("great!! really?") == "great   really "
        assert remove_punctuation("abc") == "abc"
        assert remove_punctuation("a,b.c") == "a b c"

    def test_tokenize(self):
        assert tokenize("Great  News") == ["great", "news"]
        assert tokenize("") == []
        assert tokenize("  a ") == ["a"]

    def test_remove_stop_words(self):
        stops = StopWordList(frozenset({"the", "is"}))
        assert remove_stop_words(["the", "virus", "is", "mild"], stops) == ["virus", "mild"]
        assert remove_stop_words(["the", "is"], stops) == []
        assert remove_stop_words(["virus", "mild"], NO_STOPS) == ["virus", "mild"]


class TestPipeline:
    def test_worked_example(self):
        out = preprocess_pipeline("RT @x: Monkeypox cases RISING! https://t.co/q", NO_STOPS)
        assert out == ["monkeypox", "case", "rise"]

    def test_empty_input(self):
        assert preprocess_pipeline("", NO_STOPS) == []

    def test_cleaning_stages_idempotent(self):
        # stages before stemming settle after one application
        raw = "Some #Tagged text with a URL https://x.co/y and @user noise!"
        stops = default_stop_words()
        once = clean_tokens(raw, stops)
        twice = clean_tokens(" ".join(once), stops)
        assert once == twice

    @given(
        st.lists(
            st.text(alphabet="abcdefghjklmnopquvwz", min_size=1, max_size=8),
            min_size=0,
            max_size=12,
        )
    )
    def test_cleaning_idempotence_property(self, words):
        # random already-clean strings (no stop words, no urls, no marks)
        stops = StopWordList(frozenset())
        text = " ".join(words)
        once = clean_tokens(text, stops)
        assert clean_tokens(" ".join(once), stops) == once

    def test_output_character_invariant(self):
        rng = np.random.default_rng(3)
        stops = default_stop_words()
        samples = [
            "RT @WHO: #Monkeypox UPDATE!!! https://who.int/a?b=c",
            "Fièvre & fatigue — c'est rude... #santé @someone",
            "".join(rng.choice(list(string.printable[:95]), size=80)),
        ]
        banned = set(string.punctuation) | {"#", "@", " ", "\t", "\n"}
        for raw in samples:
            for token in preprocess_pipeline(raw, stops):
                assert token, "empty token leaked through"
                assert not any(c in banned for c in token)
                assert not any(c.isupper() for c in token)

    def test_deterministic(self):
        raw = "RT @x: #Outbreak rising?! https://t.co/q symptoms WORSEN..."
        stops = default_stop_words()
        assert preprocess_pipeline(raw, stops) == preprocess_pipeline(raw, stops)


class TestStopWordList:
    def test_rejects_uppercase_and_empty(self):
        with pytest.raises(ValueError):
            StopWordList(frozenset({"The"}))
        with pytest.raises(ValueError):
            StopWordList(frozenset({""}))

    def test_load_file_with_comments(self, tmp_path):
        path = tmp_path / "stops.txt"
        path.write_text("# comment\nthe\n\nAND\n  of  \n", encoding="utf-8")
        stops = load_stop_words(path)
        assert stops.words == frozenset({"the", "and", "of"})

    def test_default_list_is_nonempty_lowercase(self):
        stops = default_stop_words()
        assert len(stops) > 100
        assert all(w == w.lower() and w for w in stops.words)


class TestVocabulary:
    def test_min_frequency_threshold(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_frequency=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert len(vocab) == 3  # pad, unk, a

    def test_all_distinct_tokens_kept(self):
        vocab = build_vocabulary([["x"], ["y"]], min_frequency=1)
        assert "x" in vocab and "y" in vocab
        assert len(vocab) == 4

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocabulary([["b", "a", "b", "a", "c"]], min_frequency=1)
        # a and b tie at 2, a wins the smaller id; c trails at 1
        assert vocab.encode("a") == 2
        assert vocab.encode("b") == 3
        assert vocab.encode("c") == 4

    def test_round_trip(self):
        vocab = build_vocabulary([["virus", "mild", "virus"]], min_frequency=1)
        for token in ("virus", "mild"):
            assert vocab.decode(vocab.encode(token)) == token

    def test_reserved_ids(self):
        vocab = build_vocabulary([["z"]], min_frequency=1)
        assert vocab.encode("never-seen") == UNK_ID
        assert vocab.decode(PAD_ID) == Vocabulary.PAD_TOKEN
        assert vocab.decode(UNK_ID) == Vocabulary.UNK_TOKEN

    def test_min_frequency_validation(self):
        with pytest.raises(InvalidConfig):
            build_vocabulary([["a"]], min_frequency=0)


class TestEncodeAndPad:
    def test_pads_tail(self):
        vocab = build_vocabulary([["a", "b", "c", "d", "e"]], min_frequency=1)
        seq = encode_and_pad(["a", "b", "c", "d", "e"], vocab, n=8)
        assert seq.true_length == 5
        assert list(seq.ids[5:]) == [PAD_ID] * 3
        assert all(i >= 2 for i in seq.ids[:5])

    def test_empty_tokens(self):
        vocab = build_vocabulary([["a"]], min_frequency=1)
        seq = encode_and_pad([], vocab, n=4)
        assert seq.true_length == 0
        assert list(seq.ids) == [PAD_ID] * 4

    def test_truncates_keeping_head(self):
        vocab = build_vocabulary([[f"w{i}" for i in range(10)]], min_frequency=1)
        tokens = [f"w{i}" for i in range(10)]
        seq = encode_and_pad(tokens, vocab, n=8)
        assert seq.true_length == 8
        assert [vocab.decode(i) for i in seq.ids] == tokens[:8]

    def test_unknown_tokens_map_to_unk(self):
        vocab = build_vocabulary([["a"]], min_frequency=1)
        seq = encode_and_pad(["a", "zzz"], vocab, n=3)
        assert list(seq.ids) == [vocab.encode("a"), UNK_ID, PAD_ID]

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=24))
    def test_output_length_is_always_n(self, n, n_tokens):
        vocab = build_vocabulary([["a"]], min_frequency=1)
        seq = encode_and_pad(["a"] * n_tokens, vocab, n)
        assert len(seq.ids) == n
        assert seq.true_length == min(n_tokens, n)


def write_raw_cache(path, header, sequences, labels):
    """A cache file sealed by the container writer around any content."""
    payload = [np.ascontiguousarray(a, dtype="<i8") for a in (sequences, labels)]
    write_container(path, CACHE_MAGIC, CACHE_VERSION, header, payload)


class TestCorpusCache:
    @pytest.fixture
    def cache(self, tmp_path):
        vocab = build_vocabulary([["a", "b"], ["c"]], min_frequency=1)
        corpus = encode_corpus([["a", "b"], ["c"], []], [0, 1, 2], vocab, n=4)
        path = tmp_path / "cache.bin"
        write_corpus_cache(corpus, path)
        return corpus, path

    def test_round_trip(self, cache):
        corpus, path = cache
        loaded = read_corpus_cache(path)
        assert loaded.sequences.tobytes() == corpus.sequences.tobytes()
        assert loaded.labels.tobytes() == corpus.labels.tobytes()
        assert loaded.sequences.dtype == loaded.labels.dtype == np.int64
        assert loaded.n == 4

    def test_rewrite_is_byte_identical(self, cache, tmp_path):
        _, path = cache
        again = tmp_path / "again.bin"
        write_corpus_cache(read_corpus_cache(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_layout_is_a_container_of_int64_arrays(self, cache):
        corpus, path = cache
        header, payload = read_container(path, b"SNEC", 1, "corpus cache")
        assert header == {"rows": 3, "seq_len": 4}
        values = np.frombuffer(payload, dtype="<i8")
        npt.assert_array_equal(values[:12].reshape(3, 4), corpus.sequences)
        npt.assert_array_equal(values[12:], [0, 1, 2])  # internal labels

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("x,y\n1,2\n" * 10, encoding="utf-8")
        with pytest.raises(CorruptFile):
            read_corpus_cache(path)

    def test_rejects_negative_id(self, tmp_path):
        path = tmp_path / "cache.bin"
        write_raw_cache(path, {"rows": 2, "seq_len": 2}, [[2, 3], [4, -1]], [0, 1])
        with pytest.raises(CorruptFile, match="row 2: negative token id"):
            read_corpus_cache(path)

    @pytest.mark.parametrize("label", [-1, 3, 2**40])
    def test_rejects_label_outside_classes(self, tmp_path, label):
        path = tmp_path / "cache.bin"
        write_raw_cache(path, {"rows": 2, "seq_len": 2}, [[2, 3], [4, 5]], [label, 1])
        with pytest.raises(CorruptFile, match="row 1: label outside"):
            read_corpus_cache(path)

    @pytest.mark.parametrize("header", [
        {"rows": 3, "seq_len": 2},
        {"rows": 2, "seq_len": 3},
        {"rows": 1, "seq_len": 2},
        {"rows": -2, "seq_len": 2},
    ])
    def test_rejects_payload_not_matching_header_shape(self, tmp_path, header):
        path = tmp_path / "cache.bin"
        write_raw_cache(path, header, [[2, 3], [4, 5]], [0, 1])
        with pytest.raises(CorruptFile, match="does not match the shape"):
            read_corpus_cache(path)

    @pytest.mark.parametrize("header", [
        {"rows": 2},
        {"rows": 2, "seq_len": 2, "extra": 0},
        {"rows": 2.0, "seq_len": 2},
        {"rows": True, "seq_len": 2},
    ])
    def test_rejects_malformed_header(self, tmp_path, header):
        path = tmp_path / "cache.bin"
        write_raw_cache(path, header, [[2, 3], [4, 5]], [0, 1])
        with pytest.raises(CorruptFile, match="malformed header"):
            read_corpus_cache(path)

    def test_rejects_truncation_and_bit_flip(self, cache, tmp_path):
        _, path = cache
        blob = path.read_bytes()
        for cut in (1, 8, 32, len(blob) - 4):
            path.write_bytes(blob[: len(blob) - cut])
            with pytest.raises(CorruptFile):
                read_corpus_cache(path)
        for at in range(16, len(blob), 7):
            flipped = bytearray(blob)
            flipped[at] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(CorruptFile):
                read_corpus_cache(path)

    def test_rejects_version_bump(self, cache):
        _, path = cache
        blob = bytearray(path.read_bytes())
        blob[4] += 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch):
            read_corpus_cache(path)

    def test_empty_corpus_round_trips(self, tmp_path):
        corpus = encode_corpus([], [], build_vocabulary([], 1), n=3)
        path = tmp_path / "cache.bin"
        write_corpus_cache(corpus, path)
        loaded = read_corpus_cache(path)
        assert loaded.sequences.shape == (0, 3) and len(loaded) == 0


def test_encoded_corpus_subset():
    vocab = build_vocabulary([["a", "b", "c"]], min_frequency=1)
    corpus = encode_corpus([["a"], ["b"], ["c"]], [0, 1, 2], vocab, n=2)
    sub = corpus.subset([2, 0])
    assert len(sub) == 2
    assert list(sub.labels) == [2, 0]


def test_encoded_corpus_validates_lengths():
    with pytest.raises(ValueError):
        EncodedCorpus(np.zeros((2, 3), dtype=np.int64), np.zeros(3, dtype=np.int64))
