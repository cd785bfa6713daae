"""Batch command-line front end.

Subcommands wire the library into the usual offline workflow:

    ingest          CSV -> prepared corpus directory
    train           prepared corpus -> model file + per-epoch history CSV
    evaluate        model + corpus -> metrics report + confusion matrix CSV
    predict         model + raw text lines -> label + class probabilities
    history-export  model file -> per-epoch history CSV

The prepared corpus directory ``ingest`` writes holds ``encoded.bin`` (the
corpus cache), ``vocab.json``, ``meta.json`` and ``histogram.csv``.

Settings may come from an INI config file (sections [data], [model],
[train], [split]); command-line flags override the file.  There is no
interactive mode and no wall-clock seeding: identical inputs, flags and
seeds reproduce identical outputs byte for byte.

Exit codes: 0 success; 1 usage error, which is a bad flag or config file
or a setting outside its range (every ``InvalidConfig``); 2 I/O or format
error in an input file; 3 numerical divergence during training.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

from . import corpus_io, metrics
from .corpus_io import CorpusError, InvalidConfig, SplitSpec
from .layers import IdOutOfRange
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

USAGE_ERROR, DATA_ERROR, DIVERGENCE_ERROR = 1, 2, 3
CACHE_FILE = "encoded.bin"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors instead of argparse's 2
        raise _UsageError(message)


def _load_config(path: str | None) -> dict[str, str]:
    """Flatten an INI file into {key: raw string}; sections only group keys."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise _UsageError("; ".join(str(exc).splitlines())) from None
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[key.replace("-", "_")] = value
    return flat


def _resolve(args, config: dict[str, str], key: str, default, kind=str):
    """Flag value if given, else config-file value, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        try:
            if kind is bool:  # the INI format's words: 1/0, yes/no, true/false, on/off
                return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
            return kind(raw)
        except (KeyError, ValueError):
            raise _UsageError(f"config key {key}: bad value {raw!r}") from None
    return default


# flag / config key -> the dataclass field it sets, where the names differ
_FIELD_OF = {
    "lr": "learning_rate",
    "eps": "epsilon",
    "train_frac": "train_fraction",
    "val_frac": "val_fraction",
    "split_seed": "seed",
}


def _settings(args, config: dict[str, str], cls, keys) -> dict:
    """{field: value} for each of ``keys`` that a flag or the config file
    sets, parsed as the type of the field's default in dataclass ``cls``;
    a field left out keeps that default."""
    settings = {}
    for key in keys:
        name = _FIELD_OF.get(key, key)
        value = _resolve(args, config, key, None, type(getattr(cls, name)))
        if value is not None:
            settings[name] = value
    return settings


def _split_spec(args, config: dict[str, str]) -> SplitSpec:
    keys = ("train_frac", "val_frac", "split_seed")
    return SplitSpec(**_settings(args, config, SplitSpec, keys))


def _add_split_flags(parser) -> None:
    parser.add_argument(
        "--train-frac", type=float, help=f"train fraction (default {SplitSpec.train_fraction})"
    )
    parser.add_argument(
        "--val-frac", type=float, help=f"validation fraction (default {SplitSpec.val_fraction})"
    )
    parser.add_argument(
        "--split-seed", type=int, help=f"stratified split seed (default {SplitSpec.seed})"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="sentinet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="clean, encode, and cache a labeled CSV")
    ingest.add_argument("--csv", required=True, help="input CSV with text and label columns")
    ingest.add_argument("--out-dir", required=True, help="directory for the prepared corpus")
    ingest.add_argument("--config", help="INI config file")
    ingest.add_argument("--text-column", help="text column name (default text)")
    ingest.add_argument("--label-column", help="label column name (default label)")
    ingest.add_argument("--stopwords", help="stop-word file (default: packaged list)")
    ingest.add_argument(
        "--seq-len", type=int, help=f"padded sequence length (default {ModelConfig.seq_len})"
    )
    ingest.add_argument("--min-freq", type=int, help="vocabulary frequency cutoff (default 1)")
    ingest.add_argument(
        "--drop-hashtag-words",
        action="store_true",
        default=None,
        help="remove whole hashtag tokens instead of only the # marker",
    )
    ingest.add_argument(
        "--dedupe",
        action="store_true",
        default=None,
        help="drop rows whose exact text appeared earlier",
    )

    tr = sub.add_parser("train", help="train a model on a prepared corpus")
    tr.add_argument("--data", required=True, help="directory written by ingest")
    tr.add_argument("--out-dir", required=True, help="directory for model.bin and history.csv")
    tr.add_argument("--config", help="INI config file")
    tr.add_argument("--variant", choices=VARIANTS)
    m, t = ModelConfig, TrainConfig
    tr.add_argument("--embed-dim", type=int, help=f"word-vector dimension (default {m.embed_dim})")
    tr.add_argument("--window", type=int, help=f"convolution window width (default {m.window})")
    tr.add_argument("--filters", type=int, help=f"convolution filter count (default {m.filters})")
    tr.add_argument("--hidden", type=int, help=f"LSTM hidden size (default {m.hidden})")
    tr.add_argument("--activation", choices=("tanh", "sigmoid"))
    tr.add_argument(
        "--epochs", type=int, help=f"training epochs (default {t.epochs}; 0 = init only)"
    )
    tr.add_argument("--batch-size", type=int, help=f"mini-batch size (default {t.batch_size})")
    tr.add_argument("--lr", type=float, help=f"learning rate (default {t.learning_rate})")
    tr.add_argument("--optimizer", choices=("adam", "sgd"))
    tr.add_argument("--beta1", type=float, help=f"Adam beta1 (default {t.beta1})")
    tr.add_argument("--beta2", type=float, help=f"Adam beta2 (default {t.beta2})")
    tr.add_argument("--eps", type=float, help=f"Adam epsilon (default {t.epsilon})")
    tr.add_argument("--seed", type=int, help=f"init + shuffle seed (default {t.seed})")
    tr.add_argument(
        "--no-shuffle", action="store_true", default=None, help="keep corpus order each epoch"
    )
    _add_split_flags(tr)

    ev = sub.add_parser("evaluate", help="score a model and export metric CSVs")
    ev.add_argument("--model", required=True, help="model file from train")
    ev.add_argument("--out-dir", required=True, help="directory for report.csv and confusion.csv")
    ev.add_argument("--config", help="INI config file")
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="prepared corpus directory")
    src.add_argument("--csv", help="raw labeled CSV (preprocessed with the model's pipeline)")
    ev.add_argument("--text-column", help="text column name (default text)")
    ev.add_argument("--label-column", help="label column name (default label)")
    ev.add_argument(
        "--split",
        choices=("all", "train", "val", "test"),
        default="all",
        help="score only one partition of the deterministic split",
    )
    _add_split_flags(ev)

    pr = sub.add_parser("predict", help="classify raw text lines")
    pr.add_argument("--model", required=True, help="model file from train")
    pr.add_argument("texts", nargs="*", help="texts to classify (one prediction each)")
    pr.add_argument("--stdin", action="store_true", help="also read one text per stdin line")

    hx = sub.add_parser("history-export", help="write a model's epoch history as CSV")
    hx.add_argument("--model", required=True, help="model file from train")
    hx.add_argument("--out", required=True, help="output CSV path")

    return parser


def cmd_ingest(args, config) -> int:
    text_column = _resolve(args, config, "text_column", "text")
    label_column = _resolve(args, config, "label_column", "label")
    seq_len = _resolve(args, config, "seq_len", ModelConfig.seq_len, int)
    min_freq = _resolve(args, config, "min_freq", 1, int)
    drop_tags = bool(_resolve(args, config, "drop_hashtag_words", False, bool))
    dedupe = bool(_resolve(args, config, "dedupe", False, bool))
    stop_path = _resolve(args, config, "stopwords", None)
    stops = load_stop_words(stop_path) if stop_path else default_stop_words()

    corpus = corpus_io.load_corpus(args.csv, text_column, label_column)
    if dedupe:
        corpus = corpus_io.deduplicate(corpus)
    pipeline = PipelineConfig(stops, drop_tags, dedupe)
    token_lists = [pipeline.tokens(ex.text) for ex in corpus.examples]
    vocab = build_vocabulary(token_lists, min_freq)
    encoded = encode_corpus(token_lists, corpus.labels(), vocab, seq_len)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus_cache(encoded, out / CACHE_FILE)
    (out / "vocab.json").write_text(
        json.dumps(vocab.to_json(), sort_keys=True), encoding="utf-8"
    )
    meta = {
        "seq_len": seq_len,
        **pipeline.to_json(),
        "text_column": text_column,
        "label_column": label_column,
        "source_csv": str(args.csv),
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True), encoding="utf-8")
    histogram = corpus_io.class_histogram(corpus)
    (out / "histogram.csv").write_text(
        corpus_io.histogram_to_csv(histogram), encoding="utf-8"
    )
    print(f"ingested {len(corpus)} examples, vocabulary size {len(vocab)}")
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
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CorpusError(f"malformed vocab.json or meta.json in {data_dir}: {exc!r}") from None
    if encoded.sequences.size and encoded.sequences.max() >= len(vocab):
        raise CorpusError(
            f"cache id {encoded.sequences.max()} outside a vocabulary of {len(vocab)}: {data_dir}"
        )
    return encoded, vocab, pipeline


def cmd_train(args, config) -> int:
    encoded, vocab, pipeline = _read_prepared(args.data)

    model_keys = ("variant", "embed_dim", "window", "filters", "hidden", "activation")
    model_config = ModelConfig(
        seq_len=encoded.n, **_settings(args, config, ModelConfig, model_keys)
    )
    train_keys = ("epochs", "batch_size", "lr", "optimizer", "beta1", "beta2", "eps", "seed")
    no_shuffle = bool(_resolve(args, config, "no_shuffle", False, bool))
    train_config = TrainConfig(
        shuffle=not no_shuffle, **_settings(args, config, TrainConfig, train_keys)
    )

    split = _split_spec(args, config)
    train_idx, val_idx, _ = corpus_io.stratified_indices(encoded.labels, split)
    train_part = encoded.subset(train_idx)
    val_part = encoded.subset(val_idx) if val_idx else None

    model = build_model(model_config, vocab, Rng(train_config.seed), pipeline)
    model, history = train(model, train_part, val_part, train_config)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.bin")
    (out / "history.csv").write_text(history.to_csv(), encoding="utf-8")
    final_val = history.records[-1].val_accuracy if history.records else float("nan")
    print(f"final val accuracy: {final_val!r}")
    return 0


def _encoded_for_evaluate(args, model: Model) -> EncodedCorpus:
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
    corpus = corpus_io.load_corpus(
        args.csv,
        args.text_column or "text",
        args.label_column or "label",
    )
    if model.pipeline.dedupe:
        corpus = corpus_io.deduplicate(corpus)
    token_lists = [model.pipeline.tokens(ex.text) for ex in corpus.examples]
    return encode_corpus(token_lists, corpus.labels(), model.vocab, model.config.seq_len)


def cmd_evaluate(args, config) -> int:
    model = load_model(args.model)
    encoded = _encoded_for_evaluate(args, model)
    if args.split != "all":
        split = _split_spec(args, config)
        parts = dict(
            zip(("train", "val", "test"), corpus_io.stratified_indices(encoded.labels, split))
        )
        encoded = encoded.subset(parts[args.split])
    result = evaluate(model, encoded)
    cm = metrics.confusion(result.predictions, [int(l) for l in encoded.labels])
    report = metrics.macro_report(cm)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(metrics.report_to_csv(report), encoding="utf-8")
    (out / "confusion.csv").write_text(metrics.confusion_to_csv(cm), encoding="utf-8")
    print(f"examples: {len(encoded)}")
    print(f"accuracy: {report.accuracy!r}")
    print(f"mean loss: {result.loss!r}")
    return 0


def cmd_predict(args, config) -> int:
    model = load_model(args.model)
    texts = list(args.texts)
    if args.stdin:
        texts.extend(line.rstrip("\n") for line in sys.stdin)
    for raw in texts:
        label, probs = predict_text(model, raw)
        probs_str = "\t".join(repr(float(p)) for p in probs)
        print(f"{corpus_io.external_label(label)}\t{probs_str}")
    return 0


def cmd_history_export(args, config) -> int:
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
        config = _load_config(getattr(args, "config", None))
        return COMMANDS[args.command](args, config)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NonFiniteLoss as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return DIVERGENCE_ERROR
    except (CorpusError, IdOutOfRange, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
