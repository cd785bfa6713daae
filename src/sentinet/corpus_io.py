"""CSV corpus loading, class histograms, deterministic stratified splits,
and the checksummed container that the package's binary files share.

Sentiment classes travel as the literal strings "-1", "0", "1" in CSV files
(negative / neutral / positive) but are held internally as the contiguous
indices 0/1/2 so one-hot targets stay simple.  The mapping is confined to
this module's I/O boundary and to the export helpers.

A row is checked once, by :func:`load_corpus`, and a :class:`LabeledExample`
checks nothing.  :class:`CorpusError` covers every corpus that cannot be
used: one with no data rows, a missing column, a label other than -1, 0, 1,
text that is empty after trimming, or a header or row the csv module cannot
parse (an oversized field), with a message naming the file and any row by
its number; and, from :func:`stratified_indices`, a split that would leave a
partition with a positive fraction empty.

Container layout, integers little-endian, header a UTF-8 JSON object with
sorted keys:

    magic (4 bytes) | u32 version | u64 header length | header JSON |
    payload | sha256 of everything before it

The magic and version name a format, whose module defines its header
fields and payload: the model file in :mod:`sentinet.model_training`, the
corpus cache in :mod:`sentinet.preprocess`.  A container is written to a
temporary file beside its path that replaces the path only once complete,
so an interrupted write leaves the previous file whole.  It is read in one
pass into a private buffer placed so that the payload starts 64-byte
aligned, and the payload a reader gets is a view of that buffer: a format
builds its arrays on it without a copy.  The file is not memory-mapped,
because a file rewritten after its checksum was checked would then change
those arrays.

Every table a run writes is :func:`csv_text` of its rows: ``\n`` line ends
and a float as its ``repr``, so NaN is ``nan``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

NEGATIVE, NEUTRAL, POSITIVE = 0, 1, 2
CLASS_NAMES = ("-1", "0", "1")

_EXTERNAL_TO_INTERNAL = {name: label for label, name in enumerate(CLASS_NAMES)}


class CorpusError(Exception):
    """A corpus that cannot be loaded or split (cases in the module docstring)."""


def external_label(label: int) -> str:
    """Internal index 0/1/2 -> file string -1/0/1."""
    return CLASS_NAMES[label]


def internal_label(value: str) -> int:
    """File string -1/0/1 -> internal index 0/1/2; KeyError if unknown."""
    return _EXTERNAL_TO_INTERNAL[value.strip()]


class LabeledExample(NamedTuple):
    text: str
    label: int  # internal index: 0 negative, 1 neutral, 2 positive


@dataclass(frozen=True)
class LabeledCorpus:
    examples: tuple[LabeledExample, ...]

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> list[int]:
        return [ex.label for ex in self.examples]


@dataclass(frozen=True)
class SplitSpec:
    """Stratified split fractions; the remainder after train+val is test.
    The seed is an integer >= 0: ``random.Random`` would split -7 as 7."""

    train_fraction: float = 0.8
    val_fraction: float = 0.1
    seed: int = 42

    def __post_init__(self):
        if type(self.seed) is not int:
            raise InvalidConfig(f"split seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise InvalidConfig(f"split seed must be >= 0, got {self.seed}")
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
                raise CorpusError(f"no data rows in {path}")
            # as csv.DictReader: blank lines skipped, last repeated name wins, missing fields ""
            last = {name: at for at, name in enumerate(header)}
            for column in (text_column, label_column):
                if column not in last:
                    raise CorpusError(f"column {column!r} not found in header of {path}")
            text_at, label_at = last[text_column], last[label_column]
            for row_number, row in enumerate(filter(None, reader), start=1):
                raw_label = row[label_at] if label_at < len(row) else ""
                try:
                    label = internal_label(raw_label)
                except KeyError:
                    raise CorpusError(
                        f"row {row_number}: label {raw_label!r} is not one of -1, 0, 1 ({path})"
                    ) from None
                text = (row[text_at] if text_at < len(row) else "").strip()
                if not text:
                    raise CorpusError(f"row {row_number}: text is empty after trimming ({path})")
                examples.append(LabeledExample(text=text, label=label))
        except csv.Error as exc:  # raised while reading the next row
            where = "header" if row_number < 0 else f"row {row_number + 1}"
            raise CorpusError(f"{where}: {exc} ({path})") from None
    if not examples:
        raise CorpusError(f"no data rows in {path}")
    return LabeledCorpus(tuple(examples))


def deduplicate(corpus: LabeledCorpus) -> LabeledCorpus:
    """Drop rows whose exact text string already appeared earlier."""
    seen: set[str] = set()
    kept = []
    for ex in corpus.examples:
        if ex.text in seen:
            continue
        seen.add(ex.text)
        kept.append(ex)
    return LabeledCorpus(tuple(kept))


def class_histogram(labels) -> tuple[int, int, int]:
    """Counts per class in (negative, neutral, positive) order of a sequence
    of labels; IndexError for a label outside 0, 1, 2."""
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
        idx = np.flatnonzero(np.asarray(labels) == label).tolist()
        if not idx:
            continue
        rng.shuffle(idx)
        counts = _allocate(len(idx), fractions)
        for part, count, frac in zip(range(3), counts, fractions):
            if frac > 0.0 and count == 0:
                raise CorpusError(
                    f"class {CLASS_NAMES[label]} would leave partition "
                    f"{names[part]!r} empty despite a positive fraction"
                )
        start = 0
        for part, count in enumerate(counts):
            parts[part].extend(idx[start : start + count])
            start += count
    return tuple(sorted(p) for p in parts)


def csv_text(rows) -> str:
    """``rows`` as CSV text, in the dialect of every table a run writes."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def histogram_to_csv(histogram: tuple[int, int, int]) -> str:
    """Histogram export: header plus one row per class in -1,0,1 order."""
    return csv_text([("class", "count"), *zip(CLASS_NAMES, histogram)])


# --- checksummed container (layout in the module docstring) ----------------

_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length
_DIGEST_SIZE = hashlib.sha256().digest_size
_PAYLOAD_ALIGN = 64  # bytes: a cache line, and a multiple of every dtype's size


class InvalidConfig(ValueError):
    """A setting outside its documented range; the CLI's usage error."""


class CorruptFile(ValueError):
    """A file that is not, or is no longer, what its writer wrote."""


# what parsing a file's JSON, or building an object from it, raises when the
# data is malformed: bad or too deeply nested text, a missing key, a wrong type
MALFORMED = (KeyError, TypeError, AttributeError, ValueError, RecursionError)


class FormatVersionMismatch(ValueError):
    """A file of a format version this build does not read."""


def write_container(path, magic: bytes, version: int, header: dict, payload) -> None:
    """Write ``header`` and the buffers in ``payload`` (bytes or contiguous
    arrays, in order) as one checksummed file, through a temporary file
    that replaces ``path`` only once it is complete."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            for part in (_PREFIX.pack(magic, version, len(header_bytes)), header_bytes, *payload):
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest())
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        raise


def _aligned(size: int, at: int) -> np.ndarray:
    """A fresh, writable array of ``size`` bytes whose byte ``at`` starts
    a ``_PAYLOAD_ALIGN``-byte line."""
    raw = np.empty(size + _PAYLOAD_ALIGN, np.uint8)
    shift = -(raw.ctypes.data + at) % _PAYLOAD_ALIGN
    return raw[shift : shift + size]


def read_container(path, magic: bytes, version: int, kind: str) -> tuple[dict, memoryview]:
    """(header, payload) of a file ``write_container`` wrote with ``magic``
    and ``version``; the format's reader checks the payload against the
    header.  ``kind`` names the format in error messages.

    The file is read once, sized by ``fstat``, into a private buffer whose
    payload starts 64-byte aligned, and the payload is a writable view of
    that buffer.  Bytes past that size, such as a FIFO's (``fstat`` reports
    0), are read to the end at the cost of one copy.  There is no mmap: the
    checksum holds only for bytes that no other writer can change."""
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        header_len = _PREFIX.unpack(prefix)[2] if len(prefix) == _PREFIX.size else 0
        start = _PREFIX.size + header_len  # of the payload
        buffer = _aligned(max(os.fstat(fh.fileno()).st_size, len(prefix)), start)
        buffer[: len(prefix)] = np.frombuffer(prefix, np.uint8)
        size = len(prefix) + fh.readinto(memoryview(buffer)[len(prefix) :])
        rest = fh.read()  # past the size fstat reported, as for a FIFO
    if rest:
        whole = _aligned(size + len(rest), start)
        whole[:size], whole[size:] = buffer[:size], np.frombuffer(rest, np.uint8)
        buffer, size = whole, size + len(rest)
    blob = memoryview(buffer)[:size]
    if size < _PREFIX.size + _DIGEST_SIZE or blob[:4] != magic:
        raise CorruptFile(f"not a {kind} file: {path}")
    found = _PREFIX.unpack_from(blob)[1]
    if found != version:
        raise FormatVersionMismatch(f"{kind} format {found}, this build reads {version}")
    body = blob[:-_DIGEST_SIZE]
    if hashlib.sha256(body).digest() != blob[-_DIGEST_SIZE:]:
        raise CorruptFile(f"checksum mismatch: {path}")
    try:
        header = json.loads(bytes(body[_PREFIX.size : start]).decode("utf-8"))
    except MALFORMED:
        header = None
    if start > len(body) or not isinstance(header, dict):
        raise CorruptFile(f"malformed header: {path}")
    return header, body[start:]
