"""The stemmer agrees with the reference Porter program on generated words.

Each group of words aims at branches that a short list of real words can
miss: one-letter words, runs of y (a vowel exactly when it follows a
consonant), every suffix of every step after stems of measure 0, 1 and 2,
step 4's ``ion`` after s, t and other letters, the *o ending whose last
letter is not w, x or y, and the doubled letters that -ed and -ing leave.
"""

import itertools
import string

import pytest

from sentinet.stemming import stem

from porter_reference import ReferencePorter, reference_stem

# stems by measure m, ending in vowels, y, w, x, s, t, l and doubled letters
STEMS = {
    0: ("", "b", "tr", "e", "ee", "y", "by", "sky", "tree", "s", "t", "str"),
    1: ("at", "bat", "hop", "bow", "box", "toy", "bal", "hope", "happ", "oat", "cas", "fill"),
    2: ("gener", "relat", "adopt", "bellow", "relax", "enjoy", "rebel", "conces", "opin", "rebell"),
}

STEP_SUFFIXES = (
    ("sses", "ies", "ss", "s", "eed", "ed", "ing", "y")
    + tuple(suffix for suffix, _ in ReferencePorter._STEP2)
    + tuple(suffix for suffix, _ in ReferencePorter._STEP3)
    + ReferencePorter._STEP4
    + ("e", "l", "ll")
)

# what step 1 strips, so that each later step also sees its suffix after step 1
STEP1_TAILS = ("", "s", "es", "ed", "ing", "e")

NAMED = ("opinion", "rebellion", "boxing", "snowing", "fixed", "seeing", "agreeing")


def _reference_measure(word: str) -> int:
    porter = ReferencePorter()
    porter.b, porter.j = word, len(word) - 1
    return porter.m()


def one_letter():
    return string.ascii_lowercase


def exhaustive():
    """Every word of one to four letters over an alphabet with w, x and y."""
    alphabet = "aeiybdlstwx"
    for length in range(1, 5):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


def y_runs():
    for before, run, after in itertools.product(
        ("", "b", "a", "by", "ay", "str"), range(1, 6), ("", "s", "ed", "ing", "e", "bat")
    ):
        yield before + "y" * run + after


def step_suffixes():
    for stems in STEMS.values():
        for stem_, suffix, tail in itertools.product(stems, STEP_SUFFIXES, STEP1_TAILS):
            yield stem_ + suffix + tail


def ion():
    for stems in STEMS.values():
        for stem_, letter in itertools.product(stems, "stnlcxg"):
            yield stem_ + letter + "ion"
            yield stem_ + letter + "ions"


def cvc_endings():
    for onset, vowel, last, tail in itertools.product(
        ("b", "tr", "st", "a", "ab"), "aeiouy", "bdlstwxy", ("", "e", "ed", "ing", "es")
    ):
        yield onset + vowel + last + tail


def doubled():
    for onset, letter, tail in itertools.product(
        ("h", "ha", "ab", "agr", "s", "tr"), string.ascii_lowercase, ("ed", "ing", "eed")
    ):
        yield onset + letter + letter + tail


def named():
    return NAMED


GROUPS = (one_letter, exhaustive, y_runs, step_suffixes, ion, cvc_endings, doubled, named)


@pytest.mark.parametrize("group", GROUPS, ids=lambda group: group.__name__)
def test_agrees_with_reference(group):
    words = sorted(set(group()))
    wrong = [(w, stem(w), reference_stem(w)) for w in words if stem(w) != reference_stem(w)]
    assert not wrong, f"{len(wrong)} of {len(words)} words, first (word, stem, reference): {wrong[:10]}"


@pytest.mark.parametrize("m", sorted(STEMS))
def test_stems_have_their_stated_measure(m):
    assert [_reference_measure(s) for s in STEMS[m]] == [m] * len(STEMS[m])


def test_named_words_reach_the_branches_they_are_named_for():
    assert [reference_stem(w) for w in NAMED] == [
        "opinion", "rebellion", "box", "snow", "fix", "see", "agre",
    ]
    assert [reference_stem(w) for w in ("s", "yy", "yyy")] == ["s", "yy", "yyi"]
