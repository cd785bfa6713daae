import csv
import errno
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sentinet.corpus_io as corpus_io
from sentinet.corpus_io import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    CorpusError,
    CorruptFile,
    InvalidConfig,
    LabeledCorpus,
    LabeledExample,
    SplitSpec,
    class_histogram,
    deduplicate,
    external_label,
    histogram_to_csv,
    internal_label,
    load_corpus,
    read_container,
    stratified_indices,
    write_container,
)

from oracles import loop_stratified_indices


def write_csv(path, rows, header=("text", "label")):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def corpus_of(labels):
    return LabeledCorpus(
        tuple(LabeledExample(text=f"ex{i}", label=lab) for i, lab in enumerate(labels))
    )


class TestLoadCorpus:
    def test_basic_load(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("good news", "1"), ("bad", "-1"), ("meh", "0")])
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.labels() == [POSITIVE, NEGATIVE, NEUTRAL]
        assert corpus.examples[0].text == "good news"

    def test_unparsable_label(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("ok", "0"), ("bad", "2")])
        with pytest.raises(CorpusError, match="^row 2: label '2' is not one of -1, 0, 1"):
            load_corpus(path)

    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [])
        with pytest.raises(CorpusError, match="^no data rows in "):
            load_corpus(path)

    def test_fully_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="^no data rows in "):
            load_corpus(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("x", "1")], header=("text", "sentiment"))
        with pytest.raises(CorpusError, match="^column 'label' not found in header of "):
            load_corpus(path)

    def test_custom_column_names(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("hi", "1")], header=("tweet", "polarity"))
        corpus = load_corpus(path, text_column="tweet", label_column="polarity")
        assert len(corpus) == 1

    def test_empty_text_rejected(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("   ", "1")])
        with pytest.raises(CorpusError, match="^row 1: text is empty after trimming"):
            load_corpus(path)

    def test_quoted_commas_and_unicode(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [('hello, "world"', "0"), ("café ouvert", "1")])
        corpus = load_corpus(path)
        assert corpus.examples[0].text == 'hello, "world"'
        assert len(corpus) == 2

    def test_leading_byte_order_mark(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbftext,label\ngood news,1\n")
        corpus = load_corpus(path)
        assert corpus.labels() == [POSITIVE]
        assert corpus.examples[0].text == "good news"


    def test_oversized_field_names_its_row(self, tmp_path):
        field_limit = csv.field_size_limit()
        path = write_csv(tmp_path / "c.csv", [("fine", "1"), ("x" * (field_limit + 1), "0")])
        with pytest.raises(CorpusError, match="^row 2: field larger than field limit"):
            load_corpus(path)
        assert csv.field_size_limit() == field_limit

    def test_oversized_header_field(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("fine", "1")], header=("t" * 200_000, "label"))
        with pytest.raises(CorpusError, match="^header: "):
            load_corpus(path)


class TestLabels:
    def test_round_trip(self):
        for external, internal in (("-1", NEGATIVE), ("0", NEUTRAL), ("1", POSITIVE)):
            assert internal_label(external) == internal
            assert external_label(internal) == external


class TestHistogram:
    def test_counts(self):
        assert class_histogram([0, 0, 1, 2]) == (2, 1, 1)

    def test_empty(self):
        assert class_histogram([]) == (0, 0, 0)

    def test_single_class(self):
        assert class_histogram([NEUTRAL] * 100) == (0, 100, 0)

    def test_csv_export(self):
        text = histogram_to_csv((2, 1, 1))
        assert text == "class,count\n-1,2\n0,1\n1,1\n"


def split_labels(labels, spec):
    """The labels of the (train, val, test) partitions."""
    return tuple([labels[i] for i in part] for part in stratified_indices(labels, spec))


class TestStratifiedSplit:
    def test_exact_fraction_counts(self):
        labels = [0] * 40 + [1] * 30 + [2] * 30
        spec = SplitSpec(train_fraction=0.8, val_fraction=0.0, seed=1)
        train, val, test = split_labels(labels, spec)
        assert class_histogram(train) == (32, 24, 24)
        assert class_histogram(val) == (0, 0, 0)
        assert class_histogram(test) == (8, 6, 6)

    def test_two_examples_half_split(self):
        train, val, test = split_labels(
            [1, 1], SplitSpec(train_fraction=0.5, val_fraction=0.0, seed=5)
        )
        assert len(train) == 1 and len(test) == 1 and len(val) == 0

    def test_same_seed_identical_membership(self):
        corpus = corpus_of([0, 1, 2] * 20)
        spec = SplitSpec(train_fraction=0.7, val_fraction=0.15, seed=99)
        first = stratified_indices(corpus.labels(), spec)
        second = stratified_indices(corpus.labels(), spec)
        assert first == second

    def test_different_seed_changes_membership(self):
        labels = [0, 1, 2] * 20
        a = stratified_indices(labels, SplitSpec(0.7, 0.15, seed=1))
        b = stratified_indices(labels, SplitSpec(0.7, 0.15, seed=2))
        assert a != b

    def test_partition_and_cover_invariants(self):
        labels = [0] * 13 + [1] * 29 + [2] * 7
        train, val, test = stratified_indices(labels, SplitSpec(0.6, 0.2, seed=3))
        everything = sorted(train + val + test)
        assert everything == list(range(len(labels)))
        assert not (set(train) & set(val))
        assert not (set(train) & set(test))
        assert not (set(val) & set(test))

    def test_histogram_additivity(self):
        labels = [0] * 11 + [1] * 17 + [2] * 10
        spec = SplitSpec(0.75, 0.1, seed=8)
        train, val, test = split_labels(labels, spec)
        summed = tuple(
            a + b + c
            for a, b, c in zip(
                class_histogram(train), class_histogram(val), class_histogram(test)
            )
        )
        assert summed == class_histogram(labels)

    def test_per_class_deviation_below_one(self):
        labels = [0] * 23 + [1] * 10 + [2] * 41
        spec = SplitSpec(0.62, 0.19, seed=4)
        parts = stratified_indices(labels, spec)
        fractions = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
        for cls, total in ((0, 23), (1, 10), (2, 41)):
            for part, frac in zip(parts, fractions):
                got = sum(1 for i in part if labels[i] == cls)
                assert abs(got - frac * total) < 1.0

    def test_degenerate_split_raises(self):
        # one lone example cannot populate both train and test
        with pytest.raises(CorpusError, match="^class 0 would leave partition 'test' empty"):
            stratified_indices([1], SplitSpec(0.5, 0.0, seed=0))

    def test_absent_class_is_fine(self):
        train, val, test = stratified_indices([2, 2, 2, 2], SplitSpec(0.5, 0.25, seed=0))
        assert len(train) == 2 and len(val) == 1 and len(test) == 1

    @given(st.lists(st.integers(0, 2), max_size=60), st.integers(0, 2**32))
    def test_partitions_equal_the_loop_selection(self, labels, seed):
        spec = SplitSpec(0.5, 0.2, seed=seed)
        try:
            got = [stratified_indices(y, spec) for y in (labels, np.asarray(labels, dtype=np.int64))]
        except CorpusError as exc:
            assert "would leave partition" in str(exc)
            return
        expected = loop_stratified_indices(labels, spec)
        assert got == [expected, expected]

    def test_spec_validation(self):
        with pytest.raises(InvalidConfig):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(InvalidConfig):
            SplitSpec(train_fraction=0.9, val_fraction=0.1)
        with pytest.raises(InvalidConfig):
            SplitSpec(train_fraction=0.5, val_fraction=-0.1)


def test_deduplicate_keeps_first_occurrence():
    corpus = LabeledCorpus(
        (
            LabeledExample("same text", 0),
            LabeledExample("other", 1),
            LabeledExample("same text", 2),
        )
    )
    deduped = deduplicate(corpus)
    assert len(deduped) == 2
    assert deduped.examples[0].label == 0


@pytest.mark.parametrize("header", [b"{not json", b"\xff{}", b"[1, 2]"],
                         ids=["not-json", "not-utf8", "not-an-object"])
def test_container_with_a_sealed_malformed_header_is_corrupt(tmp_path, header):
    """A valid checksum does not make a header that is not a JSON object readable."""
    body = struct.pack("<4sIQ", b"TEST", 1, len(header)) + header + b"payload"
    path = tmp_path / "file.bin"
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(CorruptFile, match="malformed header"):
        read_container(path, b"TEST", 1, "test")


@pytest.mark.parametrize("pad", range(0, 64, 9))
def test_container_payload_is_an_aligned_writable_view(tmp_path, pad):
    path = tmp_path / "file.bin"
    write_container(path, b"TEST", 1, {"pad": "x" * pad}, [b"payload"])
    header, payload = read_container(path, b"TEST", 1, "test")
    assert header == {"pad": "x" * pad} and payload == b"payload"
    values = np.frombuffer(payload, np.uint8)
    assert values.ctypes.data % 64 == 0 and values.flags.writeable


class _FullDisk:
    """A file that takes ``writes`` writes, then fails as a full disk would."""

    def __init__(self, fh, writes: int):
        self._fh, self._writes = fh, writes

    def write(self, data):
        if not self._writes:
            raise OSError(errno.ENOSPC, "No space left on device")
        self._writes -= 1
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def test_interrupted_write_leaves_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "file.bin"
    write_container(path, b"TEST", 1, {"n": 1}, [b"old payload"])
    before = path.read_bytes()
    monkeypatch.setattr(
        corpus_io, "open", lambda *args: _FullDisk(open(*args), writes=2), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        write_container(path, b"TEST", 1, {"n": 2}, [b"new payload", b"more"])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_write_replaces_the_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "file.bin"
    write_container(path, b"TEST", 1, {"n": 1}, [b"old payload"])
    write_container(path, b"TEST", 1, {"n": 2}, [b"new payload"])
    assert read_container(path, b"TEST", 1, "test") == ({"n": 2}, b"new payload")
    assert list(tmp_path.iterdir()) == [path]
