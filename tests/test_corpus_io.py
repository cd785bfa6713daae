import csv

import pytest

from sentinet.corpus_io import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    DegenerateSplit,
    EmptyFile,
    EmptyText,
    InvalidConfig,
    LabeledCorpus,
    LabeledExample,
    MissingColumn,
    SplitSpec,
    UnparsableLabel,
    UnreadableRow,
    class_histogram,
    deduplicate,
    external_label,
    histogram_to_csv,
    internal_label,
    load_corpus,
    stratified_indices,
    stratified_split,
)


def write_csv(path, rows, header=("text", "label")):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def corpus_of(labels):
    return LabeledCorpus(
        tuple(LabeledExample(text=f"ex{i}", label=lab) for i, lab in enumerate(labels)),
        source_path="<memory>",
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
        with pytest.raises(UnparsableLabel) as err:
            load_corpus(path)
        assert err.value.row == 2

    def test_header_only_file(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [])
        with pytest.raises(EmptyFile):
            load_corpus(path)

    def test_fully_empty_file(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_corpus(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("x", "1")], header=("text", "sentiment"))
        with pytest.raises(MissingColumn) as err:
            load_corpus(path)
        assert err.value.column == "label"

    def test_custom_column_names(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("hi", "1")], header=("tweet", "polarity"))
        corpus = load_corpus(path, text_column="tweet", label_column="polarity")
        assert len(corpus) == 1

    def test_empty_text_rejected(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("   ", "1")])
        with pytest.raises(EmptyText) as err:
            load_corpus(path)
        assert err.value.row == 1

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
        with pytest.raises(UnreadableRow) as err:
            load_corpus(path)
        assert err.value.row == 2
        assert str(err.value).startswith("row 2: field larger than field limit")
        assert csv.field_size_limit() == field_limit

    def test_oversized_header_field(self, tmp_path):
        path = write_csv(tmp_path / "c.csv", [("fine", "1")], header=("t" * 200_000, "label"))
        with pytest.raises(UnreadableRow) as err:
            load_corpus(path)
        assert err.value.row == 0
        assert str(err.value).startswith("header: ")


class TestLabels:
    def test_round_trip(self):
        for external, internal in (("-1", NEGATIVE), ("0", NEUTRAL), ("1", POSITIVE)):
            assert internal_label(external) == internal
            assert external_label(internal) == external

    def test_example_validation(self):
        with pytest.raises(ValueError):
            LabeledExample(text="x", label=3)
        with pytest.raises(ValueError):
            LabeledExample(text="  ", label=0)


class TestHistogram:
    def test_counts(self):
        assert class_histogram(corpus_of([0, 0, 1, 2])) == (2, 1, 1)

    def test_empty(self):
        assert class_histogram(corpus_of([])) == (0, 0, 0)

    def test_single_class(self):
        assert class_histogram(corpus_of([NEUTRAL] * 100)) == (0, 100, 0)

    def test_csv_export(self):
        text = histogram_to_csv((2, 1, 1))
        assert text == "class,count\n-1,2\n0,1\n1,1\n"


class TestStratifiedSplit:
    def test_exact_fraction_counts(self):
        corpus = corpus_of([0] * 40 + [1] * 30 + [2] * 30)
        spec = SplitSpec(train_fraction=0.8, val_fraction=0.0, seed=1)
        train, val, test = stratified_split(corpus, spec)
        assert class_histogram(train) == (32, 24, 24)
        assert class_histogram(val) == (0, 0, 0)
        assert class_histogram(test) == (8, 6, 6)

    def test_two_examples_half_split(self):
        corpus = corpus_of([1, 1])
        train, val, test = stratified_split(
            corpus, SplitSpec(train_fraction=0.5, val_fraction=0.0, seed=5)
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
        corpus = corpus_of([0] * 11 + [1] * 17 + [2] * 10)
        spec = SplitSpec(0.75, 0.1, seed=8)
        train, val, test = stratified_split(corpus, spec)
        summed = tuple(
            a + b + c
            for a, b, c in zip(
                class_histogram(train), class_histogram(val), class_histogram(test)
            )
        )
        assert summed == class_histogram(corpus)

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
        with pytest.raises(DegenerateSplit):
            stratified_indices([1], SplitSpec(0.5, 0.0, seed=0))

    def test_absent_class_is_fine(self):
        train, val, test = stratified_indices([2, 2, 2, 2], SplitSpec(0.5, 0.25, seed=0))
        assert len(train) == 2 and len(val) == 1 and len(test) == 1

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
        ),
        source_path="<memory>",
    )
    deduped = deduplicate(corpus)
    assert len(deduped) == 2
    assert deduped.examples[0].label == 0
