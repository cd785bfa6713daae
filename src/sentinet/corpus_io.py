"""CSV corpus loading, class histograms, deterministic stratified splits,
and the checksummed container that the package's binary files share.

Sentiment classes travel as the literal strings "-1", "0", "1" in CSV files
(negative / neutral / positive) but are held internally as the contiguous
indices 0/1/2 so one-hot targets stay simple.  The mapping is confined to
this module's I/O boundary and to the export helpers.

Container layout, integers little-endian, header a UTF-8 JSON object with
sorted keys:

    magic (4 bytes) | u32 version | u64 header length | header JSON |
    payload | sha256 of everything before it

The magic and version name a format, whose module defines its header
fields and payload: the model file in :mod:`sentinet.model_training`, the
corpus cache in :mod:`sentinet.preprocess`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import struct
from dataclasses import dataclass

import numpy as np

NEGATIVE, NEUTRAL, POSITIVE = 0, 1, 2
CLASS_NAMES = ("-1", "0", "1")

_EXTERNAL_TO_INTERNAL = {name: label for label, name in enumerate(CLASS_NAMES)}


class CorpusError(Exception):
    """Base for corpus loading and splitting failures."""


class UnreadableRow(CorpusError):
    """A row the csv module cannot parse, such as an oversized field."""

    def __init__(self, row: int, path: str, reason: str):
        where = "header" if row == 0 else f"row {row}"
        super().__init__(f"{where}: {reason} ({path})")
        self.row = row


class MissingColumn(CorpusError):
    def __init__(self, column: str, path: str):
        super().__init__(f"column {column!r} not found in header of {path}")
        self.column = column


class UnparsableLabel(CorpusError):
    def __init__(self, value: str, row: int, path: str):
        super().__init__(
            f"row {row}: label {value!r} is not one of -1, 0, 1 ({path})"
        )
        self.row = row
        self.value = value


class EmptyFile(CorpusError):
    def __init__(self, path: str):
        super().__init__(f"no data rows in {path}")


class EmptyText(CorpusError):
    def __init__(self, row: int, path: str):
        super().__init__(f"row {row}: text is empty after trimming ({path})")
        self.row = row


class DegenerateSplit(CorpusError):
    def __init__(self, label: int, partition: str):
        super().__init__(
            f"class {CLASS_NAMES[label]} would leave partition "
            f"{partition!r} empty despite a positive fraction"
        )


def external_label(label: int) -> str:
    """Internal index 0/1/2 -> file string -1/0/1."""
    return CLASS_NAMES[label]


def internal_label(value: str) -> int:
    """File string -1/0/1 -> internal index 0/1/2; KeyError if unknown."""
    return _EXTERNAL_TO_INTERNAL[value.strip()]


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: int  # internal index: 0 negative, 1 neutral, 2 positive

    def __post_init__(self):
        if self.label not in (NEGATIVE, NEUTRAL, POSITIVE):
            raise ValueError(f"label index out of range: {self.label}")
        if not self.text.strip():
            raise ValueError("example text is empty")


@dataclass(frozen=True)
class LabeledCorpus:
    examples: tuple[LabeledExample, ...]
    source_path: str

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> list[int]:
        return [ex.label for ex in self.examples]


@dataclass(frozen=True)
class SplitSpec:
    """Stratified split fractions; the remainder after train+val is test."""

    train_fraction: float = 0.8
    val_fraction: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig(f"train_fraction must be in (0,1): {self.train_fraction}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise InvalidConfig(f"val_fraction must be in [0,1): {self.val_fraction}")
        if self.train_fraction + self.val_fraction >= 1.0:
            raise InvalidConfig("train_fraction + val_fraction must leave room for test")

    @property
    def test_fraction(self) -> float:
        return 1.0 - self.train_fraction - self.val_fraction


def load_corpus(path, text_column: str = "text", label_column: str = "label") -> LabeledCorpus:
    """Load a labeled corpus from a headered, comma-separated UTF-8 file
    (a leading byte-order mark is skipped).

    Every data row must parse; a bad label or empty text aborts the load
    with the offending row number (1 = first data row).
    """
    path = str(path)
    examples: list[LabeledExample] = []
    row_number = -1  # the last row read: 0 is the header, 1 the first data row
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            row_number = 0
            if header is None:
                raise EmptyFile(path)
            # as csv.DictReader: blank lines skipped, last repeated name wins, missing fields ""
            last = {name: at for at, name in enumerate(header)}
            for column in (text_column, label_column):
                if column not in last:
                    raise MissingColumn(column, path)
            text_at, label_at = last[text_column], last[label_column]
            for row_number, row in enumerate(filter(None, reader), start=1):
                raw_label = row[label_at] if label_at < len(row) else ""
                try:
                    label = internal_label(raw_label)
                except KeyError:
                    raise UnparsableLabel(raw_label, row_number, path) from None
                text = (row[text_at] if text_at < len(row) else "").strip()
                if not text:
                    raise EmptyText(row_number, path)
                examples.append(LabeledExample(text=text, label=label))
        except csv.Error as exc:  # raised while reading the next row
            raise UnreadableRow(row_number + 1, path, str(exc)) from None
    if not examples:
        raise EmptyFile(path)
    return LabeledCorpus(tuple(examples), source_path=path)


def deduplicate(corpus: LabeledCorpus) -> LabeledCorpus:
    """Drop rows whose exact text string already appeared earlier."""
    seen: set[str] = set()
    kept = []
    for ex in corpus.examples:
        if ex.text in seen:
            continue
        seen.add(ex.text)
        kept.append(ex)
    return LabeledCorpus(tuple(kept), source_path=corpus.source_path)


def class_histogram(corpus) -> tuple[int, int, int]:
    """Counts per class in (negative, neutral, positive) order, of a corpus
    or a sequence of labels; IndexError for a label outside 0, 1, 2."""
    labels = corpus.labels() if isinstance(corpus, LabeledCorpus) else corpus
    labels = np.asarray(labels, dtype=np.int64)
    outside = labels[(labels < 0) | (labels > 2)]
    if outside.size:
        raise IndexError(f"label {outside[0]} outside 0, 1, 2")
    return tuple(int(c) for c in np.bincount(labels, minlength=3))


def _allocate(n: int, fractions: tuple[float, float, float]) -> list[int]:
    """Largest-remainder allocation of n items to three partitions.

    Guarantees each count deviates from its exact share by less than one.
    """
    ideal = [f * n for f in fractions]
    counts = [int(x) for x in ideal]
    remainders = [x - c for x, c in zip(ideal, counts)]
    leftover = n - sum(counts)
    # hand leftover units to the largest remainders; ties go to the
    # earlier partition (train before val before test)
    order = sorted(range(3), key=lambda i: (-remainders[i], i))
    for i in range(leftover):  # leftover is at most 2
        counts[order[i]] += 1
    return counts


def stratified_indices(labels, spec: SplitSpec):
    """Split example indices per class into (train, val, test) index lists.

    Membership is decided by a seeded per-class shuffle; each returned
    list is then sorted so partitions preserve corpus order.  The same
    labels and spec always reproduce the same partitions.
    """
    fractions = (spec.train_fraction, spec.val_fraction, spec.test_fraction)
    names = ("train", "val", "test")
    rng = random.Random(spec.seed)
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for label in (NEGATIVE, NEUTRAL, POSITIVE):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        if not idx:
            continue
        rng.shuffle(idx)
        counts = _allocate(len(idx), fractions)
        for part, count, frac in zip(range(3), counts, fractions):
            if frac > 0.0 and count == 0:
                raise DegenerateSplit(label, names[part])
        start = 0
        for part, count in enumerate(counts):
            parts[part].extend(idx[start : start + count])
            start += count
    return tuple(sorted(p) for p in parts)


def histogram_to_csv(histogram: tuple[int, int, int]) -> str:
    """Histogram export: header plus one row per class in -1,0,1 order."""
    lines = ["class,count"]
    for label, count in zip(CLASS_NAMES, histogram):
        lines.append(f"{label},{count}")
    return "\n".join(lines) + "\n"


# --- checksummed container (layout in the module docstring) ----------------

_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length
_DIGEST_SIZE = hashlib.sha256().digest_size


class InvalidConfig(ValueError):
    """A setting outside its documented range; the CLI's usage error."""


class CorruptFile(ValueError):
    """A file that is not, or is no longer, what its writer wrote."""


class FormatVersionMismatch(ValueError):
    """A file of a format version this build does not read."""


def write_container(path, magic: bytes, version: int, header: dict, payload) -> None:
    """Write ``header`` and the buffers in ``payload`` (bytes or contiguous
    arrays, in order) as one checksummed file."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (_PREFIX.pack(magic, version, len(header_bytes)), header_bytes, *payload):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


def read_container(path, magic: bytes, version: int, kind: str) -> tuple[dict, memoryview]:
    """(header, payload) of a file ``write_container`` wrote with ``magic``
    and ``version``; the format's reader checks the payload against the
    header.  ``kind`` names the format in error messages."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _PREFIX.size + _DIGEST_SIZE or blob[:4] != magic:
        raise CorruptFile(f"not a {kind} file: {path}")
    _, found, header_len = _PREFIX.unpack_from(blob)
    if found != version:
        raise FormatVersionMismatch(f"{kind} format {found}, this build reads {version}")
    body = memoryview(blob)[:-_DIGEST_SIZE]
    if hashlib.sha256(body).digest() != blob[-_DIGEST_SIZE:]:
        raise CorruptFile(f"checksum mismatch: {path}")
    end = _PREFIX.size + header_len
    try:
        header = json.loads(bytes(body[_PREFIX.size : end]).decode("utf-8"))
    except (ValueError, RecursionError):
        header = None
    if end > len(body) or not isinstance(header, dict):
        raise CorruptFile(f"malformed header: {path}")
    return header, body[end:]
