"""Batch command-line front end.

Subcommands wire the library into the usual offline workflow:

    ingest          CSV -> prepared corpus directory
    train           prepared corpus -> model file + per-epoch history CSV
    evaluate        model + corpus -> metrics report + confusion matrix CSV
    predict         model + raw text lines -> label + class probabilities
    history-export  model file -> per-epoch history CSV

The prepared corpus directory ``ingest`` writes holds ``encoded.bin`` (the
corpus cache), ``vocab.json``, ``meta.json`` and ``histogram.csv``.

Settings may come from an INI config file (sections such as [data],
[model], [train], [split] or [DEFAULT] only group keys); command-line flags
override the file.  A key is a flag's name without ``--``, with ``-`` or
``_`` between words (``lr``, ``batch_size``); a key that no command takes,
or one set twice, is a usage error.  A flag that cannot apply to the run
is a usage error too (``evaluate --split all`` with a split flag,
``evaluate --data`` with a column flag); its key in a config file is not,
since one file serves every command.  ``SETTINGS`` declares each setting
once.  There is no interactive mode and no wall-clock seeding: identical
inputs, flags and seeds reproduce identical outputs byte for byte.

Exit codes: 0 success; 1 usage error, which is a bad flag, a config file
that is not UTF-8 INI, or a setting outside its range (every
``InvalidConfig``); 2 I/O or format error in an input file (a missing or
unreadable config file included: ``OSError``), or a size setting or model
header that asks for more memory or a larger index than there is
(``MemoryError`` or ``OverflowError``, reported as "not enough memory");
3 numerical divergence during training; 130 interrupted (Ctrl-C), reported
as one "interrupted" line instead of a traceback.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path
from typing import NamedTuple

from . import corpus_io, metrics
from .corpus_io import MALFORMED, CorpusError, InvalidConfig, SplitSpec
from .layers import ACTIVATIONS
from .model_training import (
    VARIANTS,
    Model,
    ModelConfig,
    NonFiniteLoss,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    predict_text,
    save_model,
    train,
)
from .preprocess import (
    EncodedCorpus,
    PipelineConfig,
    Vocabulary,
    build_vocabulary,
    default_stop_words,
    encode_corpus,
    load_stop_words,
    read_corpus_cache,
    write_corpus_cache,
)
from .tensor_core import Rng

USAGE_ERROR, DATA_ERROR, DIVERGENCE_ERROR, INTERRUPTED = 1, 2, 3, 130
CACHE_FILE = "encoded.bin"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


class Setting(NamedTuple):
    """Config key ``key`` and flag ``--key`` (``-`` for ``_``) of the
    ``commands`` that take it.  It sets ``field`` (default: ``key``) of
    dataclass ``owner`` and defaults to that field's default; without an
    owner it defaults to ``default``.  Values parse as the default's type
    (``str`` for None); a bool setting is a flag without a value."""

    key: str
    commands: tuple[str, ...]
    help: str
    owner: type | None = None
    field: str | None = None
    default: object = None

    @property
    def default_value(self):
        return getattr(self.owner, self.field or self.key) if self.owner else self.default

    @property
    def kind(self) -> type:
        return str if self.default_value is None else type(self.default_value)


SETTINGS = (
    Setting("text_column", ("ingest", "evaluate"), "text column name", default="text"),
    Setting("label_column", ("ingest", "evaluate"), "label column name", default="label"),
    Setting("stopwords", ("ingest",), "stop-word file (default: packaged list)"),
    Setting("seq_len", ("ingest",), "padded sequence length", default=ModelConfig.seq_len),
    Setting("min_freq", ("ingest",), "vocabulary frequency cutoff", default=1),
    Setting("drop_hashtag_words", ("ingest",),
            "remove whole hashtag tokens instead of only the # marker", default=False),
    Setting("dedupe", ("ingest",), "drop rows whose exact text appeared earlier", default=False),
    Setting("variant", ("train",), f"model variant: {', '.join(VARIANTS)}", ModelConfig),
    Setting("embed_dim", ("train",), "word-vector dimension", ModelConfig),
    Setting("window", ("train",), "convolution window width", ModelConfig),
    Setting("filters", ("train",), "convolution filter count", ModelConfig),
    Setting("hidden", ("train",), "LSTM hidden size", ModelConfig),
    Setting("activation", ("train",), f"conv activation: {', '.join(ACTIVATIONS)}", ModelConfig),
    Setting("epochs", ("train",), "training epochs, 0 = init only", TrainConfig),
    Setting("batch_size", ("train",), "mini-batch size", TrainConfig),
    Setting("lr", ("train",), "learning rate", TrainConfig, "learning_rate"),
    Setting("optimizer", ("train",), "adam or sgd", TrainConfig),
    Setting("beta1", ("train",), "Adam beta1", TrainConfig),
    Setting("beta2", ("train",), "Adam beta2", TrainConfig),
    Setting("eps", ("train",), "Adam epsilon", TrainConfig, "epsilon"),
    Setting("seed", ("train",), "init + shuffle seed", TrainConfig),
    Setting("no_shuffle", ("train",), "keep corpus order each epoch", default=False),
    Setting("train_frac", ("train", "evaluate"), "train fraction", SplitSpec, "train_fraction"),
    Setting("val_frac", ("train", "evaluate"), "validation fraction", SplitSpec, "val_fraction"),
    Setting("split_seed", ("train", "evaluate"), "stratified split seed", SplitSpec, "seed"),
)


def _load_config(path: str | None) -> dict[str, str]:
    """Flatten an INI file into {key: raw string}; sections, [DEFAULT] too,
    only group keys.  A key no command takes, or one set twice, is a usage
    error."""
    if path is None:
        return {}
    # [DEFAULT] is a plain section, as no header can name ""; values are verbatim
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    flat: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
            for section in parser.sections():
                for key, value in parser.items(section):
                    key = key.replace("-", "_")
                    if key in flat:
                        raise _UsageError(f"config key {key} is set more than once")
                    flat[key] = value
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise _UsageError("; ".join(str(exc).splitlines())) from None
    unknown = sorted(flat.keys() - {s.key for s in SETTINGS})
    if unknown:
        raise _UsageError(f"config key {unknown[0]} is not a setting of any command")
    return flat


def _resolve(args, config: dict[str, str]) -> dict[str, object]:
    """{key: value} of each setting ``args.command`` takes: the flag if
    given, else the config-file value, else the default."""
    values = {}
    for s in SETTINGS:
        if args.command not in s.commands:
            continue
        value = getattr(args, s.key)
        if value is None and s.key in config:
            raw = config[s.key]
            try:
                if s.kind is bool:  # the INI words: 1/0, yes/no, true/false, on/off
                    value = configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
                else:
                    value = s.kind(raw)
            except (KeyError, ValueError):
                raise _UsageError(f"config key {s.key}: bad value {raw!r}") from None
        values[s.key] = s.default_value if value is None else value
    return values


def _config_of(owner: type, values: dict[str, object], **extra):
    """Dataclass ``owner`` built from the resolved settings it owns."""
    fields = {s.field or s.key: values[s.key] for s in SETTINGS if s.owner is owner}
    return owner(**fields, **extra)


def build_parser() -> _Parser:
    parser = _Parser(prog="sentinet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="clean, encode, and cache a labeled CSV")
    ingest.add_argument("--csv", required=True, help="input CSV with text and label columns")
    ingest.add_argument("--out-dir", required=True, help="directory for the prepared corpus")

    tr = sub.add_parser("train", help="train a model on a prepared corpus")
    tr.add_argument("--data", required=True, help="directory written by ingest")
    tr.add_argument("--out-dir", required=True, help="directory for model.bin and history.csv")

    ev = sub.add_parser("evaluate", help="score a model and export metric CSVs")
    ev.add_argument("--model", required=True, help="model file from train")
    ev.add_argument("--out-dir", required=True, help="directory for report.csv and confusion.csv")
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="prepared corpus directory")
    src.add_argument("--csv", help="raw labeled CSV (preprocessed with the model's pipeline)")
    ev.add_argument(
        "--split",
        choices=("all", "train", "val", "test"),
        default="all",
        help="score only one partition of the deterministic split",
    )

    pr = sub.add_parser("predict", help="classify raw text lines")
    pr.add_argument("--model", required=True, help="model file from train")
    pr.add_argument("texts", nargs="*", help="texts to classify (one prediction each)")
    pr.add_argument("--stdin", action="store_true", help="also read one text per stdin line")

    hx = sub.add_parser("history-export", help="write a model's epoch history as CSV")
    hx.add_argument("--model", required=True, help="model file from train")
    hx.add_argument("--out", required=True, help="output CSV path")

    for command, sp in sub.choices.items():
        settings = [s for s in SETTINGS if command in s.commands]
        if settings:
            sp.add_argument("--config", help="INI config file")
        for s in settings:
            flag = "--" + s.key.replace("_", "-")
            if s.kind is bool:
                sp.add_argument(flag, action="store_true", default=None, help=s.help)
            else:
                shown = "" if s.default_value is None else f" (default {s.default_value})"
                sp.add_argument(flag, type=s.kind, help=s.help + shown)
    return parser


def _out_dir(path) -> Path:
    """``path`` once it, or its nearest existing parent, is a directory: a file
    in the way fails before any work.  A failed run leaves no directory."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"output directory {out}: {existing} is not a directory")
    return out


def _encode_csv(path, values, pipeline: PipelineConfig, seq_len: int, vocab=None):
    """(EncodedCorpus, vocabulary) of a labeled CSV read with the resolved
    column settings, deduplicated if ``pipeline`` says so and tokenized by
    it; the vocabulary is built from the corpus when ``vocab`` is None."""
    corpus = corpus_io.load_corpus(path, values["text_column"], values["label_column"])
    if pipeline.dedupe:
        corpus = corpus_io.deduplicate(corpus)
    token_lists = [pipeline.tokens(ex.text) for ex in corpus.examples]
    if vocab is None:
        vocab = build_vocabulary(token_lists, values["min_freq"])
    return encode_corpus(token_lists, corpus.labels(), vocab, seq_len), vocab


def cmd_ingest(args, values) -> int:
    out = _out_dir(args.out_dir)
    stop_path = values["stopwords"]
    stops = load_stop_words(stop_path) if stop_path else default_stop_words()
    pipeline = PipelineConfig(stops, values["drop_hashtag_words"], values["dedupe"])
    encoded, vocab = _encode_csv(args.csv, values, pipeline, values["seq_len"])

    out.mkdir(parents=True, exist_ok=True)
    write_corpus_cache(encoded, out / CACHE_FILE)
    (out / "vocab.json").write_text(
        json.dumps(vocab.to_json(), sort_keys=True), encoding="utf-8"
    )
    meta = {
        "seq_len": values["seq_len"],
        **pipeline.to_json(),
        "text_column": values["text_column"],
        "label_column": values["label_column"],
        "source_csv": str(args.csv),
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    histogram = corpus_io.class_histogram(encoded.labels)
    (out / "histogram.csv").write_text(
        corpus_io.histogram_to_csv(histogram), encoding="utf-8"
    )
    print(f"ingested {len(encoded)} examples, vocabulary size {len(vocab)}")
    print(f"class counts (-1, 0, 1): {histogram}")
    return 0


def _read_prepared(data_dir) -> tuple[EncodedCorpus, Vocabulary, PipelineConfig]:
    """The cache, vocabulary and pipeline of a directory ``ingest`` wrote;
    CorpusError unless the JSON files hold what ``ingest`` writes and every
    id indexes the vocabulary."""
    data_dir = Path(data_dir)
    encoded = read_corpus_cache(data_dir / CACHE_FILE)
    try:
        vocab = Vocabulary.from_json(json.loads((data_dir / "vocab.json").read_text("utf-8")))
        pipeline = PipelineConfig.from_json(json.loads((data_dir / "meta.json").read_text("utf-8")))
    except MALFORMED as exc:
        raise CorpusError(f"malformed vocab.json or meta.json in {data_dir}: {exc!r}") from None
    if encoded.sequences.size and encoded.sequences.max() >= len(vocab):
        raise CorpusError(
            f"cache id {encoded.sequences.max()} outside a vocabulary of {len(vocab)}: {data_dir}"
        )
    return encoded, vocab, pipeline


def cmd_train(args, values) -> int:
    out = _out_dir(args.out_dir)
    encoded, vocab, pipeline = _read_prepared(args.data)
    model_config = _config_of(ModelConfig, values, seq_len=encoded.n)
    train_config = _config_of(TrainConfig, values, shuffle=not values["no_shuffle"])
    split = _config_of(SplitSpec, values)
    train_idx, val_idx, _ = corpus_io.stratified_indices(encoded.labels, split)
    train_part = encoded.subset(train_idx)
    val_part = encoded.subset(val_idx) if val_idx else None

    model = build_model(model_config, vocab, Rng(train_config.seed), pipeline)
    model, history = train(model, train_part, val_part, train_config)

    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.bin")
    (out / "history.csv").write_text(history.to_csv(), encoding="utf-8")
    final_val = history.records[-1].val_accuracy if history.records else float("nan")
    print(f"final val accuracy: {final_val!r}")
    return 0


def _encoded_for_evaluate(args, values, model: Model) -> EncodedCorpus:
    if args.data is not None:
        encoded, vocab, _ = _read_prepared(args.data)
        if vocab.tokens() != model.vocab.tokens():
            raise CorpusError(
                "prepared corpus was encoded with a different vocabulary"
            )
        if encoded.n != model.config.seq_len:
            raise CorpusError(
                f"cache sequence length {encoded.n} != model {model.config.seq_len}"
            )
        return encoded
    if model.pipeline is None:
        raise CorpusError("model lacks pipeline settings; evaluate with --data")
    return _encode_csv(args.csv, values, model.pipeline, model.config.seq_len, model.vocab)[0]


def cmd_evaluate(args, values) -> int:
    idle = {}
    if args.data is not None:
        idle.update(dict.fromkeys(("text_column", "label_column"), "--data"))
    if args.split == "all":
        idle.update(dict.fromkeys(("train_frac", "val_frac", "split_seed"), "--split all"))
    for key, reason in idle.items():
        if getattr(args, key) is not None:
            raise _UsageError(f"--{key.replace('_', '-')} has no effect with {reason}")
    split = None if args.split == "all" else _config_of(SplitSpec, values)
    if args.split == "val" and split.val_fraction == 0:
        raise _UsageError("--split val selects no rows when val_frac is 0")
    out = _out_dir(args.out_dir)
    model = load_model(args.model)
    encoded = _encoded_for_evaluate(args, values, model)
    if split is not None:
        parts = dict(
            zip(("train", "val", "test"), corpus_io.stratified_indices(encoded.labels, split))
        )
        encoded = encoded.subset(parts[args.split])
    result = evaluate(model, encoded)
    cm = metrics.confusion(result.predictions, encoded.labels)
    report = metrics.macro_report(cm)

    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(metrics.report_to_csv(report), encoding="utf-8")
    (out / "confusion.csv").write_text(metrics.confusion_to_csv(cm), encoding="utf-8")
    print(f"examples: {len(encoded)}")
    print(f"accuracy: {report.accuracy!r}")
    print(f"mean loss: {result.loss!r}")
    return 0


def cmd_predict(args, values) -> int:
    model = load_model(args.model)
    texts = list(args.texts)
    if args.stdin:
        texts.extend(line.rstrip("\n") for line in sys.stdin)
    for raw in texts:
        label, probs = predict_text(model, raw)
        probs_str = "\t".join(repr(float(p)) for p in probs)
        print(f"{corpus_io.external_label(label)}\t{probs_str}")
    return 0


def cmd_history_export(args, values) -> int:
    model = load_model(args.model)
    Path(args.out).write_text(model.history.to_csv(), encoding="utf-8")
    print(f"wrote {len(model.history)} epoch records to {args.out}")
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "history-export": cmd_history_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        values = _resolve(args, _load_config(getattr(args, "config", None)))
        return COMMANDS[args.command](args, values)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NonFiniteLoss as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return DIVERGENCE_ERROR
    except (CorpusError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (MemoryError, OverflowError) as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return DATA_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
