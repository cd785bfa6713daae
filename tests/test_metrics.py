import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sentinet.corpus_io import LabeledCorpus, LabeledExample, class_histogram
from sentinet.metrics import (
    BinaryCounts,
    ClassScores,
    ConfusionMatrix3,
    LabelOutOfRange,
    LengthMismatch,
    accuracy,
    auc,
    confusion,
    confusion_to_csv,
    f1,
    macro_report,
    one_vs_rest,
    precision,
    recall,
    report_to_csv,
)

from oracles import loop_confusion


def cm_from(array) -> ConfusionMatrix3:
    return ConfusionMatrix3(np.asarray(array, dtype=np.int64))


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        assert np.array_equal(cm.counts, np.eye(3, dtype=np.int64))

    def test_constant_predictor_fills_one_row(self):
        cm = confusion([0, 0, 0], [0, 1, 2])
        assert list(cm.counts[0]) == [1, 1, 1]
        assert cm.counts[1:].sum() == 0

    def test_matches_naive_counting_oracle(self):
        rng = np.random.default_rng(17)
        preds = rng.integers(0, 3, size=1000)
        actuals = rng.integers(0, 3, size=1000)
        assert np.array_equal(confusion(preds, actuals).counts, loop_confusion(preds, actuals))

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=200),
        bad=st.one_of(st.none(), st.tuples(st.integers(-3, 5), st.integers(-3, 5))),
        where=st.integers(0, 200),
        drop=st.sampled_from((0, 0, 0, 1)),
    )
    def test_same_counts_and_errors_as_the_loop(self, pairs, bad, where, drop):
        """Equal counts on in-range pairs; an out-of-range pair anywhere, or
        lists of different lengths, raise what the loop raises."""
        if bad is not None:
            pairs.insert(min(where, len(pairs)), bad)
        preds = [p for p, _ in pairs]
        actuals = [a for _, a in pairs][drop:]
        try:
            expected = loop_confusion(preds, actuals)
        except (LabelOutOfRange, LengthMismatch) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                confusion(np.asarray(preds, dtype=np.int64), actuals)
        else:
            counts = confusion(np.asarray(preds, dtype=np.int64), actuals).counts
            assert np.array_equal(counts, expected) and not counts.flags.writeable

    @given(st.lists(st.integers(0, 2), max_size=100))
    def test_class_histogram_of_a_corpus_equals_that_of_its_labels(self, labels):
        examples = tuple(LabeledExample(f"t{i}", label) for i, label in enumerate(labels))
        corpus = LabeledCorpus(examples)
        expected = tuple(int(n) for n in loop_confusion(labels, labels).diagonal())
        assert class_histogram(corpus.labels()) == class_histogram(labels) == expected
        assert class_histogram(np.asarray(labels)) == expected

    @pytest.mark.parametrize("labels", [[0, 3], [-1, 1]])
    def test_class_histogram_label_out_of_range(self, labels):
        with pytest.raises(IndexError):
            class_histogram(labels)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3, 1), (9,)])
    def test_matrix_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="expected 3x3 counts"):
            ConfusionMatrix3(np.zeros(shape, dtype=np.int64))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([0, 1], [0])

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            confusion([0, 3], [0, 0])


class TestOneVsRest:
    def test_perfect_classifier(self):
        counts = one_vs_rest(cm_from(np.diag([3, 4, 5])), positive=0)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (3, 0, 0, 9)

    def test_constant_predictor(self):
        cm = cm_from([[4, 4, 4], [0, 0, 0], [0, 0, 0]])
        counts = one_vs_rest(cm, positive=0)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (4, 8, 0, 0)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            cm = cm_from(rng.integers(0, 50, size=(3, 3)))
            for positive in range(3):
                assert one_vs_rest(cm, positive).total == cm.total


class TestMeasures:
    def test_perfect(self):
        c = BinaryCounts(tp=10, fp=0, fn=0, tn=10)
        for measure in (precision, recall, f1, accuracy, auc):
            assert measure(c) == 1.0

    def test_worked_example(self):
        c = BinaryCounts(tp=5, fp=2, fn=3, tn=10)
        assert precision(c) == pytest.approx(5 / 7)
        assert recall(c) == pytest.approx(0.625)
        assert f1(c) == pytest.approx(2 * (5 / 7) * (5 / 8) / ((5 / 7) + (5 / 8)))
        assert accuracy(c) == pytest.approx(0.75)
        assert auc(c) == pytest.approx((0.625 - 2 / 12 + 1) / 2)

    def test_zero_denominator_convention(self):
        c = BinaryCounts(tp=0, fp=0, fn=4, tn=6)
        assert precision(c) == 0.0
        assert f1(c) == 0.0
        all_positive = BinaryCounts(tp=5, fp=0, fn=0, tn=0)  # no negatives at all
        assert auc(all_positive) == pytest.approx((1.0 - 0.0 + 1.0) / 2)

    def test_all_measures_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 40, size=4))
            c = BinaryCounts(tp, fp, fn, tn)
            for measure in (precision, recall, f1, accuracy, auc):
                assert 0.0 <= measure(c) <= 1.0

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            c = BinaryCounts(*(int(v) for v in rng.integers(1, 40, size=4)))
            p, r = precision(c), recall(c)
            if p > 0 and r > 0:
                assert min(p, r) <= f1(c) + 1e-15
                assert f1(c) <= max(p, r) + 1e-15

    def test_auc_equals_balanced_sensitivity_specificity(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            c = BinaryCounts(*(int(v) for v in rng.integers(1, 60, size=4)))
            specificity = c.tn / (c.tn + c.fp)
            assert auc(c) == pytest.approx((recall(c) + specificity) / 2, abs=1e-12)


class TestMacroReport:
    def test_perfect_everything_is_one(self):
        report = macro_report(cm_from(np.diag([4, 5, 6])))
        assert report.accuracy == 1.0
        for scores in (*report.per_class, report.macro):
            assert scores.precision == scores.recall == scores.f1 == scores.auc == 1.0

    def test_random_uniform_predictions_near_one_third(self):
        rng = np.random.default_rng(42)
        preds = rng.integers(0, 3, size=10_000)
        actuals = rng.integers(0, 3, size=10_000)
        report = macro_report(confusion(preds, actuals))
        assert report.macro.precision == pytest.approx(1 / 3, abs=0.02)

    def test_macro_of_identical_values_is_that_value(self):
        # symmetric cyclic confusion: every class has identical counts
        cm = cm_from([[5, 2, 2], [2, 5, 2], [2, 2, 5]])
        report = macro_report(cm)
        assert report.macro.precision == pytest.approx(report.per_class[0].precision)
        assert report.macro.f1 == pytest.approx(report.per_class[0].f1)

    @given(st.lists(st.integers(0, 60), min_size=9, max_size=9))
    def test_scores_are_the_measures_and_their_means(self, cells):
        """Bit for bit: each class's measures, and each column's mean summed
        in class order."""
        cm = cm_from(np.reshape(cells, (3, 3)))
        report = macro_report(cm)
        for label, scores in enumerate(report.per_class):
            c = one_vs_rest(cm, label)
            assert scores == ClassScores(
                precision=precision(c), recall=recall(c), f1=f1(c), auc=auc(c)
            )
        per = report.per_class
        assert report.macro == ClassScores(
            precision=sum(s.precision for s in per) / 3.0,
            recall=sum(s.recall for s in per) / 3.0,
            f1=sum(s.f1 for s in per) / 3.0,
            auc=sum(s.auc for s in per) / 3.0,
        )

    def test_overall_accuracy_is_trace_over_total(self):
        cm = cm_from([[3, 1, 0], [2, 4, 1], [0, 1, 5]])
        report = macro_report(cm)
        assert report.accuracy == pytest.approx(12 / 17)


class TestExports:
    def test_report_layout(self):
        report = macro_report(cm_from(np.diag([1, 1, 1])))
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "class,precision,recall,f1,auc"
        assert [line.split(",")[0] for line in lines[1:]] == ["-1", "0", "1", "macro", "accuracy"]
        assert lines[-1] == "accuracy,1.0"

    def test_confusion_layout(self):
        cm = cm_from([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        text = confusion_to_csv(cm)
        assert text == (
            "predicted\\actual,-1,0,1\n-1,1,2,3\n0,4,5,6\n1,7,8,9\n"
        )
