"""Seeded synthetic tweet corpora for the benchmark.

A corpus is a headered ``text,label`` CSV with labels -1/0/1, the format
``sentinet ingest`` reads.  Words come from a made-up lexicon drawn with
Zipfian frequencies, so the vocabulary grows with the corpus the way real
tweet vocabularies do.  Each class owns a few indicative words that most
of its tweets carry, so a working trainer learns the classes in one short
epoch.  Tweets carry the artefacts the cleaning pipeline strips: ``RT``
prefixes, @mentions, hashtags, URLs and non-ASCII symbols.  Some rows
repeat an earlier tweet verbatim and some run past 40 tokens.

Only ``random.Random(seed)`` feeds the generator, so one seed always gives
a byte-identical file.

    python3 bench/corpus_gen.py --shape paper --seed 1 --out corpus.csv
"""

from __future__ import annotations

import argparse
import csv
import itertools
import random
from dataclasses import dataclass

LABELS = ("-1", "0", "1")

# a few words per class; most tweets of a class carry one or two of them
CLASS_WORDS = (
    ("scared", "deadly", "worst", "panic", "suffering"),
    ("reported", "update", "official", "announced", "statement"),
    ("relief", "recovered", "hopeful", "thankful", "wonderful"),
)

_ONSETS = "b c d f g h j k l m n p r s t v w z br cl dr fl gr pl st tr sh ch".split()
_VOWELS = "a e i o u ai ea oo ou".split()
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ck"]
_SUFFIXES = ["", "", "", "", "", "", "s", "ing", "ed", "er", "ness", "ation", "ful", "ly"]
# function words the pipeline's stop-word list drops before stemming
_FUNCTION_WORDS = "the a to and of in is for on it this that with are be at have you not".split()
_SYMBOLS = ["\U0001f637", "\U0001f622", "\U0001f60a", "…", "❤", "café", "¿qué?"]
_TOPIC_TAGS = ("monkeypox", "health", "outbreak", "vaccine", "news")


@dataclass(frozen=True)
class CorpusShape:
    """Knobs that decide which layers of the program a corpus stresses."""

    rows: int
    lexicon: int  # distinct base words the Zipf draw can reach
    zipf_s: float  # Zipf exponent over lexicon ranks
    class_shares: tuple[float, float, float]
    duplicate_share: float  # rows that copy an earlier tweet verbatim
    retweet_share: float
    long_share: float  # tweets with 42-60 content words
    signal: float  # chance a tweet carries its class's words


SHAPES = {
    # the paper's scale: ~61k tweets, vocabulary of tens of thousands of stems
    "paper": CorpusShape(
        rows=61_000,
        lexicon=80_000,
        zipf_s=1.0,
        class_shares=(0.34, 0.33, 0.33),
        duplicate_share=0.05,
        retweet_share=0.15,
        long_share=0.05,
        signal=0.9,
    ),
    # one narrow topic, retweet-heavy: a few thousand words, many duplicates
    "topic": CorpusShape(
        rows=20_000,
        lexicon=3_000,
        zipf_s=1.1,
        class_shares=(0.35, 0.3, 0.35),
        duplicate_share=0.4,
        retweet_share=0.5,
        long_share=0.05,
        signal=0.9,
    ),
}


def make_lexicon(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pronounceable lowercase words, some with suffixes."""
    reserved = {w for words in CLASS_WORDS for w in words}
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        syllables = rng.choice((1, 2, 2, 2, 3))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(syllables)
        ) + rng.choice(_SUFFIXES)
        if len(word) < 3 or word in seen or word in reserved:
            continue
        seen.add(word)
        words.append(word)
    return words


def generate(shape: CorpusShape, seed: int) -> list[tuple[str, str]]:
    """(text, label) rows for ``shape``; the same seed gives the same rows."""
    rng = random.Random(seed)
    lexicon = make_lexicon(rng, shape.lexicon)
    cum_weights = list(
        itertools.accumulate(1.0 / (rank**shape.zipf_s) for rank in range(1, shape.lexicon + 1))
    )
    rows: list[tuple[str, str]] = []
    for _ in range(shape.rows):
        if rows and rng.random() < shape.duplicate_share:
            rows.append(rows[rng.randrange(len(rows))])
            continue
        label = rng.choices((0, 1, 2), weights=shape.class_shares)[0]
        if rng.random() < shape.long_share:
            length = rng.randint(42, 60)
        else:
            length = rng.randint(3, 16)
        words = rng.choices(lexicon, cum_weights=cum_weights, k=length)
        for _ in range(length // 3):
            words.insert(rng.randrange(len(words) + 1), rng.choice(_FUNCTION_WORDS))
        if rng.random() < shape.signal:
            cue_class = label
        else:
            cue_class = rng.randrange(3)
        # sentiment words tend to close a tweet; a second one may sit anywhere
        words.append(rng.choice(CLASS_WORDS[cue_class]))
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), rng.choice(CLASS_WORDS[cue_class]))
        if rng.random() < 0.3:
            words.insert(rng.randrange(len(words) + 1), "#" + rng.choice(_TOPIC_TAGS))
        if rng.random() < 0.25:
            words.insert(rng.randrange(len(words) + 1), f"@user{rng.randrange(5000)}")
        if rng.random() < 0.2:
            words.append(f"https://t.co/{rng.randrange(16**8):08x}")
        if rng.random() < 0.15:
            words.insert(rng.randrange(len(words) + 1), rng.choice(_SYMBOLS))
        text = " ".join(words)
        if rng.random() < 0.3:
            text = text.capitalize() + rng.choice(("!", ".", "?!", "..."))
        if rng.random() < shape.retweet_share:
            text = f"RT @user{rng.randrange(5000)}: {text}"
        rows.append((text, LABELS[label]))
    return rows


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["text", "label"])
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="paper")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, help="override the shape's row count")
    parser.add_argument("--out", required=True, help="CSV path to write")
    args = parser.parse_args(argv)
    shape = SHAPES[args.shape]
    if args.rows is not None:
        shape = CorpusShape(**{**shape.__dict__, "rows": args.rows})
    write_csv(generate(shape, args.seed), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
