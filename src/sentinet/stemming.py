"""Porter stemmer: the classic five-step suffix-stripping cascade (1980 rules).

Rules are applied to lowercase ASCII words.  A word's form has one letter
per letter of the word: ``v`` for a vowel, ``c`` for a consonant.  a, e, i,
o and u are vowels, y is a vowel exactly when it follows a consonant, and
every other letter is a consonant.  The measure m of a stem, Porter's
[C](VC)^m[V], is the number of ``vc`` pairs in its form.  Each step finds
the longest matching suffix among its rules and applies the replacement
only if the rule's stem condition holds; whether or not it fires, no
further rule of that step is tried.  Tokens containing anything other than
a-z pass through unchanged.
"""

from __future__ import annotations

import functools
import string

_CLASS = str.maketrans({ch: "v" if ch in "aeiou" else "c" for ch in string.ascii_letters})


def _form(word: str) -> str:
    """One ``v`` or ``c`` per letter of ``word``."""
    form = word.translate(_CLASS)
    if "y" not in word[1:]:
        return form
    letters = list(form)
    for i in range(1, len(word)):
        if word[i] == "y" and letters[i - 1] == "c":
            letters[i] = "v"
    return "".join(letters)


def _ends_star_o(word: str, form: str) -> bool:
    """Porter's *o: the form of ``word`` ends in cvc and its last letter is not w, x or y."""
    return form.endswith("cvc") and word[-1] not in "wxy"


def _rules(*pairs) -> tuple:
    """A rule table: its suffix tuple, then its (suffix, replacement) pairs, first match longest."""
    return tuple(suffix for suffix, _ in pairs), pairs


_EED_RULES = _rules(("eed", "ee"))

_STEP1A_RULES = _rules(
    ("sses", "ss"),
    ("ies", "i"),
    ("ss", "ss"),
    ("s", ""),
)

_STEP2_RULES = _rules(
    ("ational", "ate"),
    ("ization", "ize"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("tional", "tion"),
    ("biliti", "ble"),
    ("entli", "ent"),
    ("ousli", "ous"),
    ("ation", "ate"),
    ("alism", "al"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("ator", "ate"),
    ("eli", "e"),
)

_STEP3_RULES = _rules(
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4_RULES = _rules(
    ("ement", ""),
    ("ance", ""),
    ("ence", ""),
    ("able", ""),
    ("ible", ""),
    ("ment", ""),
    ("ant", ""),
    ("ent", ""),
    ("ion", ""),
    ("ism", ""),
    ("ate", ""),
    ("iti", ""),
    ("ous", ""),
    ("ive", ""),
    ("ize", ""),
    ("al", ""),
    ("er", ""),
    ("ic", ""),
    ("ou", ""),
)


def _replace(word: str, table, min_measure: int) -> str:
    """``word`` with the first rule of ``table`` whose suffix ends it applied, if
    the measure of the stem before that suffix exceeds ``min_measure``; one
    ``endswith`` call on the table's suffix tuple rejects a word before any scan."""
    suffixes, rules = table
    if not word.endswith(suffixes):
        return word
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem_ = word[: -len(suffix)]
            if _form(stem_).count("vc") > min_measure:
                return stem_ + replacement
            return word
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return _replace(word, _EED_RULES, 0)
    for suffix in ("ed", "ing"):
        if word.endswith(suffix) and "v" in _form(word[: -len(suffix)]):
            word = word[: -len(suffix)]
            break
    else:
        return word
    # cleanup after stripping -ed / -ing
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    form = _form(word)
    if word[-2:] == word[-1] * 2 and form.endswith("c") and word[-1] not in "lsz":
        return word[:-1]
    if form.count("vc") == 1 and _ends_star_o(word, form):
        return word + "e"
    return word


@functools.lru_cache(maxsize=1 << 16)
def stem(token: str) -> str:
    """Reduce a lowercase token to its root via the five-step cascade.

    Tokens that are not purely a-z (digits, non-ASCII, embedded marks)
    are returned unchanged.  Results are cached per process; past 65,536
    distinct tokens the least recently used one is dropped.
    ``stem.__wrapped__`` is the uncached cascade.
    """
    if not token or not token.isascii() or not token.isalpha():
        return token
    word = token if token == "s" else _replace(token, _STEP1A_RULES, -1)
    word = _step1b(word)
    if word.endswith("y") and "v" in _form(word[:-1]):
        word = word[:-1] + "i"
    word = _replace(word, _STEP2_RULES, 0)
    word = _replace(word, _STEP3_RULES, 0)
    # step 4 removes -ion only after s or t; no longer suffix ends in ion
    if not word.endswith("ion") or word.endswith(("sion", "tion")):
        word = _replace(word, _STEP4_RULES, 1)
    if word.endswith("e"):
        form = _form(word[:-1])
        m = form.count("vc")
        if m > 1 or (m == 1 and not _ends_star_o(word[:-1], form)):
            word = word[:-1]
    if word.endswith("ll") and _form(word).count("vc") > 1:
        word = word[:-1]
    return word
