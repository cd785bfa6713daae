"""Confusion matrix and the five classification measures.

The confusion matrix is oriented rows = predicted, columns = actual.
Multiclass scores reduce each class one-vs-rest to TP/FP/FN/TN counts and
macro-average the per-class values; the fields of ``ClassScores`` are the
report's measures, in column order.  AUC here is the single-threshold
balanced mean of sensitivity and specificity,

    AUC = (R - FP/(FP+TN) + 1) / 2,

not a ranked-score ROC integral.  Any measure whose denominator is zero
is reported as 0 by convention.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .corpus_io import CLASS_NAMES, csv_text


@dataclass(frozen=True)
class ConfusionMatrix3:
    """3x3 count table; cell [p][a] counts predicted p with actual a."""

    counts: np.ndarray

    def __post_init__(self):
        if self.counts.shape != (3, 3):
            raise ValueError(f"expected 3x3 counts, got {self.counts.shape}")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class BinaryCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(predictions, actuals) -> ConfusionMatrix3:
    """Count (predicted, actual) pairs of two label sequences into a ConfusionMatrix3."""
    predictions = np.asarray(predictions, dtype=np.int64)
    actuals = np.asarray(actuals, dtype=np.int64)
    if len(predictions) != len(actuals):
        raise ValueError(f"{len(predictions)} predictions vs {len(actuals)} actuals")
    bad = (predictions < 0) | (predictions > 2) | (actuals < 0) | (actuals > 2)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"labels must be 0, 1 or 2: got ({predictions[i]}, {actuals[i]})")
    counts = np.bincount(3 * predictions + actuals, minlength=9).reshape(3, 3)
    counts.setflags(write=False)
    return ConfusionMatrix3(counts)


def one_vs_rest(cm: ConfusionMatrix3, positive: int) -> BinaryCounts:
    """Collapse the 3x3 table to binary counts for one positive class."""
    c = cm.counts
    tp = int(c[positive, positive])
    fp = int(c[positive].sum()) - tp
    fn = int(c[:, positive].sum()) - tp
    tn = cm.total - tp - fp - fn
    return BinaryCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def precision(c: BinaryCounts) -> float:
    return _ratio(c.tp, c.tp + c.fp)


def recall(c: BinaryCounts) -> float:
    return _ratio(c.tp, c.tp + c.fn)


def f1(c: BinaryCounts) -> float:
    p, r = precision(c), recall(c)
    return _ratio(2.0 * p * r, p + r)


def accuracy(c: BinaryCounts) -> float:
    return _ratio(c.tp + c.tn, c.total)


def auc(c: BinaryCounts) -> float:
    false_positive_rate = _ratio(c.fp, c.fp + c.tn)
    return (recall(c) - false_positive_rate + 1.0) / 2.0


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    auc: float


@dataclass(frozen=True)
class MacroReport:
    per_class: tuple[ClassScores, ClassScores, ClassScores]
    macro: ClassScores
    accuracy: float


def macro_report(cm: ConfusionMatrix3) -> MacroReport:
    """Per-class one-vs-rest scores, their unweighted means, and accuracy."""
    binary = [one_vs_rest(cm, label) for label in range(3)]
    per_class = tuple(ClassScores(precision(c), recall(c), f1(c), auc(c)) for c in binary)
    macro = ClassScores(*(sum(column) / 3.0 for column in zip(*map(astuple, per_class))))
    overall = _ratio(float(np.trace(cm.counts)), cm.total)
    return MacroReport(per_class=per_class, macro=macro, accuracy=overall)


def report_to_csv(report: MacroReport) -> str:
    """Report export: one row per class (-1, 0, 1), a macro row, then accuracy."""
    scores = zip((*CLASS_NAMES, "macro"), (*report.per_class, report.macro))
    return csv_text([
        ("class", *(f.name for f in fields(ClassScores))),
        *((name, *astuple(s)) for name, s in scores),
        ("accuracy", report.accuracy),
    ])


def confusion_to_csv(cm: ConfusionMatrix3) -> str:
    """3x3 export with labeled axes; rows are predicted classes."""
    return csv_text([
        ("predicted\\actual", *CLASS_NAMES),
        *((name, *row) for name, row in zip(CLASS_NAMES, cm.counts.tolist())),
    ])
