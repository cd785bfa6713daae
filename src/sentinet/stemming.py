"""Porter stemmer: the classic five-step suffix-stripping cascade (1980 rules).

Rules are applied to lowercase ASCII words.  Each step finds the longest
matching suffix among its rules and applies the replacement only if the
rule's stem condition holds; whether or not it fires, no further rule of
that step is tried.  Tokens containing anything other than a-z pass
through unchanged.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        # y is a vowel exactly when it follows a consonant
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem_: str) -> int:
    """Number of vowel->consonant transitions: the m of [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem_)):
        if _is_consonant(stem_, i):
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _contains_vowel(stem_: str) -> bool:
    return any(not _is_consonant(stem_, i) for i in range(len(stem_)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending where the last letter is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s") and len(word) >= 2:
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    # cleanup after stripping -ed / -ing
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _measure(word) == 1 and _ends_cvc(word):
        return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# (suffix, replacement) pairs; all conditioned on m(stem) > 0 and ordered so
# that the first matching suffix is the longest one.
_STEP2_RULES = (
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

_STEP3_RULES = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

# bare suffixes removed in step 4 when m(stem) > 1; "ion" carries the extra
# requirement that the stem end in s or t.
_STEP4_SUFFIXES = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
    "ou",
)


def _apply_rule_table(word: str, rules) -> str:
    for suffix, replacement in rules:
        if word.endswith(suffix):
            stem_ = word[: -len(suffix)]
            if _measure(stem_) > 0:
                return stem_ + replacement
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem_ = word[: -len(suffix)]
            if suffix == "ion" and not stem_.endswith(("s", "t")):
                continue
            if _measure(stem_) > 1:
                return stem_
            return word
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        m = _measure(word[:-1])
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1])):
            return word[:-1]
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(token: str) -> str:
    """Reduce a lowercase token to its root via the five-step cascade.

    Tokens that are not purely a-z (digits, non-ASCII, embedded marks)
    are returned unchanged.
    """
    if not token or not token.isascii() or not token.isalpha():
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_rule_table(word, _STEP2_RULES)
    word = _apply_rule_table(word, _STEP3_RULES)
    word = _step4(word)
    word = _step5a(word)
    word = _step5b(word)
    return word
