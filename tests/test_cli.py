import argparse
import csv
import dataclasses
import hashlib
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from sentinet import cli
from sentinet.corpus_io import CorruptFile, SplitSpec, stratified_indices
from sentinet.model_training import NonFiniteLoss, evaluate, load_model, save_model
from sentinet.preprocess import EncodedCorpus, read_corpus_cache, write_corpus_cache

from conftest import make_toy_texts
from test_model_training import rewrite_header


def write_toy_csv(path: Path, per_class: int = 10, header=("text", "label")) -> Path:
    texts, labels = make_toy_texts(per_class)
    external = {0: "-1", 1: "0", 2: "1"}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for text, label in zip(texts, labels):
            writer.writerow([text, external[label]])
    return path


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """Toy CSV ingested once; returns (csv_path, data_dir)."""
    root = tmp_path_factory.mktemp("prepared")
    csv_path = write_toy_csv(root / "toy.csv")
    data_dir = root / "data"
    code = cli.main(
        ["ingest", "--csv", str(csv_path), "--out-dir", str(data_dir), "--seq-len", "12"]
    )
    assert code == 0
    return csv_path, data_dir


def copy_prepared(data_dir: Path, dest: Path, edit_cache=None) -> Path:
    """A copy of a prepared directory.  ``edit_cache(sequences, labels)``
    may change the cache's arrays in place; the copy is then written by
    ``write_corpus_cache``, so it stays a well-sealed file."""
    dest.mkdir()
    for name in ("vocab.json", "meta.json", "histogram.csv"):
        (dest / name).write_bytes((data_dir / name).read_bytes())
    cache = read_corpus_cache(data_dir / "encoded.bin")
    sequences, labels = cache.sequences.copy(), cache.labels.copy()
    if edit_cache is not None:
        edit_cache(sequences, labels)
    write_corpus_cache(EncodedCorpus(sequences, labels), dest / "encoded.bin")
    return dest


def one_error_line(capsys, prefix="error: ") -> str:
    err = capsys.readouterr().err
    assert err.startswith(prefix) and len(err.splitlines()) == 1, err
    return err


def train_args(data_dir, out_dir, **over):
    settings = {
        "epochs": "3",
        "embed-dim": "6",
        "window": "3",
        "filters": "4",
        "hidden": "5",
        "batch-size": "8",
        "seed": "7",
    }
    settings.update({k.replace("_", "-"): str(v) for k, v in over.items()})
    argv = ["train", "--data", str(data_dir), "--out-dir", str(out_dir)]
    for key, value in settings.items():
        argv.extend([f"--{key}", value])
    return argv


class TestIngest:
    def test_outputs_exist(self, prepared):
        _, data_dir = prepared
        for name in ("encoded.bin", "vocab.json", "meta.json", "histogram.csv"):
            assert (data_dir / name).exists()

    def test_histogram_rows(self, prepared):
        _, data_dir = prepared
        lines = (data_dir / "histogram.csv").read_text("utf-8").splitlines()
        assert lines[0] == "class,count"
        assert lines[1:] == ["-1,10", "0,10", "1,10"]

    def test_rerun_is_byte_identical(self, prepared, tmp_path):
        csv_path, data_dir = prepared
        again = tmp_path / "data2"
        code = cli.main(
            ["ingest", "--csv", str(csv_path), "--out-dir", str(again), "--seq-len", "12"]
        )
        assert code == 0
        for name in ("encoded.bin", "vocab.json", "meta.json", "histogram.csv"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()

    def test_missing_label_column_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("text,sentiment\nhello,1\n", encoding="utf-8")
        code = cli.main(["ingest", "--csv", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "label" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = cli.main(
            ["ingest", "--csv", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("text,label\nfine,1\n" + "x" * 200_000 + ",0\n", encoding="utf-8")
        code = cli.main(["ingest", "--csv", str(big), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert one_error_line(capsys).startswith("error: row 2: field larger than field limit")

    def test_percent_in_a_config_value_is_read_verbatim(self, tmp_path):
        csv_path = write_toy_csv(tmp_path / "toy.csv", header=("te%xt", "label"))
        ini = tmp_path / "run.ini"
        ini.write_text("[ingest]\ntext_column = te%xt\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["ingest", "--csv", str(csv_path), "--out-dir", str(out), "--config", str(ini)]
        assert cli.main(argv) == 0
        assert json.loads((out / "meta.json").read_text("utf-8"))["text_column"] == "te%xt"

    def test_bad_label_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("text,label\nhello,5\n", encoding="utf-8")
        code = cli.main(["ingest", "--csv", str(bad), "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "row 1" in capsys.readouterr().err


class TestTrain:
    def test_history_has_one_row_per_epoch(self, prepared, tmp_path, capsys):
        _, data_dir = prepared
        out = tmp_path / "run"
        assert cli.main(train_args(data_dir, out, epochs=5)) == 0
        lines = (out / "history.csv").read_text("utf-8").splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 6
        assert "final val accuracy" in capsys.readouterr().out

    @pytest.mark.parametrize("variant", ["cnn", "lstm"])
    def test_other_variants_complete(self, prepared, tmp_path, variant):
        _, data_dir = prepared
        out = tmp_path / variant
        assert cli.main(train_args(data_dir, out, variant=variant, epochs=2)) == 0
        assert (out / "model.bin").exists()

    def test_zero_lr_matches_zero_epochs(self, prepared, tmp_path):
        _, data_dir = prepared
        frozen = tmp_path / "frozen"
        untrained = tmp_path / "untrained"
        assert cli.main(train_args(data_dir, frozen, epochs=4, lr="0.0")) == 0
        assert cli.main(train_args(data_dir, untrained, epochs=0)) == 0
        a = load_model(frozen / "model.bin").parameters()
        b = load_model(untrained / "model.bin").parameters()
        assert a.keys() == b.keys()
        for name in a:
            npt.assert_array_equal(a[name], b[name])

    def test_divergence_exits_3(self, prepared, tmp_path, monkeypatch):
        _, data_dir = prepared

        def explode(*args, **kwargs):
            raise NonFiniteLoss(2, 5)

        monkeypatch.setattr(cli, "train", explode)
        code = cli.main(train_args(data_dir, tmp_path / "boom"))
        assert code == 3

    def test_interrupt_exits_130(self, prepared, tmp_path, capsys, monkeypatch):
        _, data_dir = prepared

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "train", interrupt)
        out = tmp_path / "stopped"
        assert cli.main(train_args(data_dir, out)) == 130
        assert capsys.readouterr().err == "interrupted\n"
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["1e200", "1e300"])
    @pytest.mark.parametrize("variant", ["cnn-lstm", "cnn", "lstm"])
    def test_overflowing_run_exits_3(self, prepared, tmp_path, capsys, variant, lr):
        """At such rates the parameters overflow while the saturated tanh
        keeps the loss finite; the overflow itself stops the run."""
        _, data_dir = prepared
        out = tmp_path / "boom"
        assert cli.main(train_args(data_dir, out, variant=variant, lr=lr)) == 3
        one_error_line(capsys, prefix="training diverged: ")
        assert not out.exists()

    def test_config_file_with_flag_override(self, prepared, tmp_path):
        _, data_dir = prepared
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[model]\nvariant = cnn\nembed_dim = 6\nwindow = 3\nfilters = 4\nhidden = 5\n"
            "[train]\nepochs = 9\nbatch_size = 8\nseed = 7\n",
            encoding="utf-8",
        )
        out = tmp_path / "cfg"
        code = cli.main(
            ["train", "--data", str(data_dir), "--out-dir", str(out),
             "--config", str(ini), "--epochs", "2"]
        )
        assert code == 0
        lines = (out / "history.csv").read_text("utf-8").splitlines()
        assert len(lines) == 3  # header + 2 epochs: the flag beat the file
        model = load_model(out / "model.bin")
        assert model.config.variant == "cnn"  # from the file

    def test_default_section_keys_apply(self, prepared, tmp_path):
        _, data_dir = prepared
        ini = tmp_path / "defaults.ini"
        ini.write_text("[DEFAULT]\nepochs = 1\nvariant = cnn\n", encoding="utf-8")
        out = tmp_path / "cfg"
        argv = ["train", "--data", str(data_dir), "--out-dir", str(out), "--config", str(ini)]
        assert cli.main([*argv, "--embed-dim", "4", "--filters", "2", "--hidden", "2"]) == 0
        assert len((out / "history.csv").read_text("utf-8").splitlines()) == 2
        assert load_model(out / "model.bin").config.variant == "cnn"

    def test_config_file_with_byte_order_mark_applies(self, prepared, tmp_path):
        _, data_dir = prepared
        ini = tmp_path / "bom.ini"
        ini.write_bytes(b"\xef\xbb\xbf[train]\nepochs = 1\nvariant = cnn\n")
        out = tmp_path / "cfg"
        argv = ["train", "--data", str(data_dir), "--out-dir", str(out), "--config", str(ini)]
        assert cli.main([*argv, "--embed-dim", "4", "--filters", "2", "--hidden", "2"]) == 0
        assert len((out / "history.csv").read_text("utf-8").splitlines()) == 2
        assert load_model(out / "model.bin").config.variant == "cnn"


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    _, data_dir = prepared
    out = tmp_path_factory.mktemp("trained")
    # default-size model memorizes the toy corpus quickly
    code = cli.main(
        ["train", "--data", str(data_dir), "--out-dir", str(out),
         "--epochs", "40", "--batch-size", "8", "--seed", "42"]
    )
    assert code == 0
    return out / "model.bin"


@pytest.fixture(scope="module")
def model_path(prepared, tmp_path_factory):
    _, data_dir = prepared
    out = tmp_path_factory.mktemp("predict_model")
    assert cli.main(train_args(data_dir, out, epochs=2)) == 0
    return out / "model.bin"


class TestEvaluate:
    def test_perfect_on_train_partition(self, prepared, trained, tmp_path, capsys):
        _, data_dir = prepared
        reports = tmp_path / "reports"
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(data_dir),
             "--split", "train", "--out-dir", str(reports)]
        )
        assert code == 0
        report = (reports / "report.csv").read_text("utf-8").splitlines()
        assert report[-1] == "accuracy,1.0"

    def test_report_matches_library(self, prepared, trained, tmp_path):
        from sentinet.metrics import confusion, macro_report, report_to_csv
        from sentinet.model_training import evaluate as lib_evaluate
        from sentinet.preprocess import read_corpus_cache

        _, data_dir = prepared
        reports = tmp_path / "reports"
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(data_dir), "--split", "all",
             "--out-dir", str(reports)]
        )
        assert code == 0
        corpus = read_corpus_cache(data_dir / "encoded.bin")
        result = lib_evaluate(load_model(trained), corpus)
        cm = confusion(result.predictions, [int(l) for l in corpus.labels])
        expected = report_to_csv(macro_report(cm))
        assert (reports / "report.csv").read_text("utf-8") == expected

    def test_raw_csv_equals_cache_route(self, prepared, trained, tmp_path):
        csv_path, data_dir = prepared
        via_cache = tmp_path / "via_cache"
        via_csv = tmp_path / "via_csv"
        assert cli.main(
            ["evaluate", "--model", str(trained), "--data", str(data_dir), "--split", "test",
             "--out-dir", str(via_cache)]
        ) == 0
        assert cli.main(
            ["evaluate", "--model", str(trained), "--csv", str(csv_path), "--split", "test",
             "--out-dir", str(via_csv)]
        ) == 0
        assert (via_cache / "report.csv").read_bytes() == (via_csv / "report.csv").read_bytes()
        assert (via_cache / "confusion.csv").read_bytes() == (via_csv / "confusion.csv").read_bytes()

    def test_csv_columns_from_config_equal_flag_route(self, trained, tmp_path):
        renamed = write_toy_csv(tmp_path / "renamed.csv", header=("tweet", "sent"))
        ini = tmp_path / "columns.ini"
        ini.write_text("[data]\ntext_column = tweet\nlabel_column = sent\n", encoding="utf-8")
        base = ["evaluate", "--model", str(trained), "--csv", str(renamed)]
        via_config, via_flags = tmp_path / "via_config", tmp_path / "via_flags"
        assert cli.main([*base, "--config", str(ini), "--out-dir", str(via_config)]) == 0
        assert cli.main(
            [*base, "--text-column", "tweet", "--label-column", "sent",
             "--out-dir", str(via_flags)]
        ) == 0
        for name in ("report.csv", "confusion.csv"):
            assert (via_config / name).read_bytes() == (via_flags / name).read_bytes()

    def test_confusion_csv_shape(self, prepared, trained, tmp_path):
        _, data_dir = prepared
        reports = tmp_path / "cmdir"
        cli.main(
            ["evaluate", "--model", str(trained), "--data", str(data_dir),
             "--out-dir", str(reports)]
        )
        lines = (reports / "confusion.csv").read_text("utf-8").splitlines()
        assert lines[0] == "predicted\\actual,-1,0,1"
        assert len(lines) == 4

    def test_negative_cache_id_exits_2(self, prepared, trained, tmp_path, capsys):
        _, data_dir = prepared

        def negative(sequences, labels):
            sequences[0, 0] = -1

        bad = copy_prepared(data_dir, tmp_path / "bad_data", negative)
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(bad),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2
        assert "row 1: negative token id" in one_error_line(capsys)

    def test_cache_id_beyond_vocabulary_exits_2(self, prepared, trained, tmp_path, capsys):
        _, data_dir = prepared
        vocab_size = len(load_model(trained).vocab)

        def too_large(sequences, labels):
            sequences[-1, 0] = vocab_size

        bad = copy_prepared(data_dir, tmp_path / "bad_data", too_large)
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(bad),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2
        assert f"outside a vocabulary of {vocab_size}" in one_error_line(capsys)

    @pytest.mark.parametrize("per_class, seq_len, message", [
        (2, "12", "encoded with a different vocabulary"),
        (10, "10", "cache sequence length 10 != model 12"),
    ], ids=["vocabulary", "seq-len"])
    def test_data_prepared_otherwise_exits_2(self, trained, tmp_path, capsys,
                                             per_class, seq_len, message):
        csv_path, other = write_toy_csv(tmp_path / "toy.csv", per_class), tmp_path / "other"
        assert cli.main(["ingest", "--csv", str(csv_path), "--out-dir", str(other),
                         "--seq-len", seq_len]) == 0
        capsys.readouterr()
        out = tmp_path / "r"
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(other), "--out-dir", str(out)]
        )
        assert code == 2
        assert message in one_error_line(capsys)
        assert not out.exists()

    def test_csv_with_a_model_without_pipeline_exits_2(self, prepared, trained, tmp_path,
                                                        capsys):
        csv_path, _ = prepared
        model = load_model(trained)
        model.pipeline = None
        bare = tmp_path / "bare.bin"
        save_model(model, bare)
        code = cli.main(
            ["evaluate", "--model", str(bare), "--csv", str(csv_path), "--out-dir",
             str(tmp_path / "r")]
        )
        assert code == 2
        assert "model lacks pipeline settings" in one_error_line(capsys)

    def test_missing_model_exits_2(self, prepared, tmp_path):
        _, data_dir = prepared
        code = cli.main(
            ["evaluate", "--model", str(tmp_path / "ghost.bin"), "--data", str(data_dir),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2

    # each flag that cannot apply to evaluate --data, and what is said of it
    CANNOT_APPLY = {
        "--train-frac": (["--train-frac", "0.3"], "unrecognized arguments: --train-frac"),
        "--val-frac": (["--split", "all", "--val-frac", "0.1"],
                       "unrecognized arguments: --val-frac"),
        "--split-seed": (["--split-seed", "5"], "unrecognized arguments: --split-seed"),
        "--text-column": (["--split", "test", "--text-column", "tweet"],
                          "--text-column has no effect with --data"),
        "--label-column": (["--label-column", "sent"], "--label-column has no effect with --data"),
    }

    @pytest.mark.parametrize("case", CANNOT_APPLY)
    def test_flag_that_cannot_apply_exits_1(self, prepared, trained, tmp_path, capsys, case):
        """Column flags with --data would be ignored, so they are usage
        errors; the split flags belong to train, whose split the model
        records, so evaluate does not take them."""
        flags, message = self.CANNOT_APPLY[case]
        _, data_dir = prepared
        out = tmp_path / "r"
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(data_dir),
             "--out-dir", str(out), *flags]
        )
        assert code == 1
        assert message in one_error_line(capsys, prefix="usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_val_split_without_val_rows_exits_1(self, prepared, tmp_path, capsys, source):
        """--split val of a model trained with val_frac 0 selects no rows:
        a usage error, whichever way train was given the 0."""
        _, data_dir = prepared
        ini = tmp_path / "split.ini"
        ini.write_text("[split]\nval_frac = 0\n", encoding="utf-8")
        run = tmp_path / "run"
        given = ["--val-frac", "0"] if source == "flag" else ["--config", str(ini)]
        assert cli.main([*train_args(data_dir, run, epochs=1), *given]) == 0
        capsys.readouterr()
        out = tmp_path / "r"
        code = cli.main(
            ["evaluate", "--model", str(run / "model.bin"), "--data", str(data_dir),
             "--split", "val", "--out-dir", str(out)]
        )
        assert code == 1
        message = one_error_line(capsys, prefix="usage error: ")
        assert "--split val" in message and "val_frac 0" in message
        assert not out.exists()

    def test_config_keys_that_cannot_apply_are_accepted(self, prepared, trained, tmp_path):
        """One config file serves every command, so its split and column
        keys stay accepted where they cannot apply."""
        _, data_dir = prepared
        ini = tmp_path / "all.ini"
        ini.write_text("[any]\ntrain_frac = 0.3\ntext_column = tweet\n", encoding="utf-8")
        base = ["evaluate", "--model", str(trained), "--data", str(data_dir)]
        with_ini, without = tmp_path / "with_ini", tmp_path / "without"
        assert cli.main([*base, "--config", str(ini), "--out-dir", str(with_ini)]) == 0
        assert cli.main([*base, "--out-dir", str(without)]) == 0
        assert (with_ini / "report.csv").read_bytes() == (without / "report.csv").read_bytes()

    def test_split_flags_apply_to_one_partition(self, prepared, tmp_path, capsys):
        """train's split flags decide the rows of each partition evaluate
        scores."""
        _, data_dir = prepared
        run = tmp_path / "run"
        flags = dict(train_frac="0.5", val_frac="0.2", split_seed="3", epochs=1)
        assert cli.main(train_args(data_dir, run, **flags)) == 0
        labels = read_corpus_cache(data_dir / "encoded.bin").labels
        sizes = map(len, stratified_indices(labels, SplitSpec(0.5, 0.2, seed=3)))
        for part, size in zip(("train", "val", "test"), sizes):
            argv = ["evaluate", "--model", str(run / "model.bin"), "--data", str(data_dir),
                    "--split", part, "--out-dir", str(tmp_path / part)]
            capsys.readouterr()
            assert cli.main(argv) == 0
            assert f"examples: {size}\n" in capsys.readouterr().out


class TestHeldOutByDefault:
    """evaluate --data scores the test partition of the split the model
    records, and no flag can name another split."""

    # 9 test rows, about half of which the model gets right after 12 epochs,
    # so the test rows of another split get another report
    SPLIT = SplitSpec(0.5, 0.2, seed=7)

    @pytest.fixture(scope="class")
    def seed_7_model(self, prepared, tmp_path_factory):
        _, data_dir = prepared
        run = tmp_path_factory.mktemp("seed_7")
        flags = dict(train_frac="0.5", val_frac="0.2", split_seed="7", epochs=12)
        assert cli.main(train_args(data_dir, run, **flags)) == 0
        return run / "model.bin"

    # sha256 of the report.csv that `evaluate --split test --train-frac 0.5
    # --val-frac 0.2 --split-seed 7` wrote for this model before the model
    # file recorded its split; the same on all four OpenBLAS kernels
    SPLIT_SEED_7_REPORT = "21485ba9951e0614e5edab361f32c05050dab49589c9953932588b9c13f8b406"

    def test_default_scores_the_recorded_test_partition(self, prepared, seed_7_model,
                                                         tmp_path):
        from sentinet.metrics import confusion, macro_report, report_to_csv

        _, data_dir = prepared
        out = tmp_path / "r"
        argv = ["evaluate", "--model", str(seed_7_model), "--data", str(data_dir),
                "--out-dir", str(out)]
        assert cli.main(argv) == 0
        corpus, model = read_corpus_cache(data_dir / "encoded.bin"), load_model(seed_7_model)

        def test_report(split):
            part = corpus.subset(stratified_indices(corpus.labels, split)[2])
            result = evaluate(model, part)
            return report_to_csv(macro_report(confusion(result.predictions, part.labels)))

        report = (out / "report.csv").read_bytes()
        assert hashlib.sha256(report).hexdigest() == self.SPLIT_SEED_7_REPORT
        assert report.decode("utf-8") == test_report(self.SPLIT)
        assert report.decode("utf-8") != test_report(dataclasses.replace(self.SPLIT, seed=42))

    def test_default_never_scores_a_training_row(self, prepared, seed_7_model, tmp_path,
                                                 monkeypatch):
        _, data_dir = prepared
        scored = []
        monkeypatch.setattr(
            cli, "evaluate", lambda model, corpus: scored.append(corpus) or evaluate(model, corpus)
        )
        argv = ["evaluate", "--model", str(seed_7_model), "--data", str(data_dir),
                "--out-dir", str(tmp_path / "r")]
        assert cli.main(argv) == 0
        corpus = read_corpus_cache(data_dir / "encoded.bin")
        train_idx, _, test_idx = stratified_indices(corpus.labels, self.SPLIT)
        rows = {row.tobytes() for row in scored[0].sequences}
        assert rows == {corpus.sequences[i].tobytes() for i in test_idx}
        assert rows.isdisjoint(corpus.sequences[i].tobytes() for i in train_idx)

    @pytest.mark.parametrize("chosen", [[], ["--split", "test"]], ids=["default", "test"])
    def test_model_without_a_split_exits_1(self, prepared, trained, tmp_path, capsys, chosen):
        _, data_dir = prepared
        model = load_model(trained)
        model.split = None
        bare = tmp_path / "bare.bin"
        save_model(model, bare)
        argv = ["evaluate", "--model", str(bare), "--data", str(data_dir)]
        out = tmp_path / "r"
        assert cli.main([*argv, *chosen, "--out-dir", str(out)]) == 1
        assert "records no split" in one_error_line(capsys, prefix="usage error: ")
        assert not out.exists()
        assert cli.main([*argv, "--split", "all", "--out-dir", str(out)]) == 0

    def test_train_records_its_split(self, prepared, tmp_path):
        _, data_dir = prepared
        run = tmp_path / "run"
        flags = dict(train_frac="0.6", val_frac="0.25", split_seed="11", epochs=0)
        assert cli.main(train_args(data_dir, run, **flags)) == 0
        assert load_model(run / "model.bin").split == SplitSpec(0.6, 0.25, seed=11)


class TestDamagedCache:
    def test_truncated_cache_exits_2(self, prepared, tmp_path, capsys):
        _, data_dir = prepared
        bad = copy_prepared(data_dir, tmp_path / "bad")
        blob = (bad / "encoded.bin").read_bytes()
        (bad / "encoded.bin").write_bytes(blob[:-9])
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert "checksum mismatch" in one_error_line(capsys)

    def test_bit_flipped_cache_exits_2(self, prepared, trained, tmp_path, capsys):
        _, data_dir = prepared
        bad = copy_prepared(data_dir, tmp_path / "bad")
        blob = bytearray((bad / "encoded.bin").read_bytes())
        blob[len(blob) // 2] ^= 0x10
        (bad / "encoded.bin").write_bytes(bytes(blob))
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert "checksum mismatch" in one_error_line(capsys)
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(bad),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2
        one_error_line(capsys)

    def test_negative_id_exits_2_on_train(self, prepared, tmp_path, capsys):
        _, data_dir = prepared

        def negative(sequences, labels):
            sequences[3, 1] = -7

        bad = copy_prepared(data_dir, tmp_path / "bad", negative)
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert "row 4: negative token id" in one_error_line(capsys)

    @pytest.mark.parametrize("partition", ["train", "test"])
    def test_id_beyond_vocabulary_exits_2_on_train(self, prepared, tmp_path, capsys, partition):
        """Also when the row is in the test partition, which train never reads."""
        _, data_dir = prepared
        vocab_size = len(json.loads((data_dir / "vocab.json").read_text("utf-8"))["tokens"]) + 2

        def too_large(sequences, labels):
            parts = dict(zip(("train", "val", "test"), stratified_indices(labels, SplitSpec())))
            sequences[parts[partition][0], 0] = vocab_size

        bad = copy_prepared(data_dir, tmp_path / "bad", too_large)
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert f"outside a vocabulary of {vocab_size}" in one_error_line(capsys)
        assert not (tmp_path / "run" / "model.bin").exists()


    @pytest.mark.parametrize("name, text", [
        ("vocab.json", "[]"),
        ("vocab.json", '{"tokens": 5, "min_frequency": 1}'),
        ("meta.json", '{"stop_words": 5, "drop_hashtag_words": false, "dedupe": false}'),
        ("meta.json", "{}"),
        pytest.param("vocab.json", "[" * 100_000 + "]" * 100_000, id="vocab.json-nested"),
        pytest.param("meta.json", "[" * 100_000 + "]" * 100_000, id="meta.json-nested"),
    ])
    def test_malformed_json_file_exits_2(self, prepared, trained, tmp_path, capsys, name, text):
        _, data_dir = prepared
        bad = copy_prepared(data_dir, tmp_path / "bad")
        (bad / name).write_text(text, encoding="utf-8")
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert "malformed vocab.json or meta.json" in one_error_line(capsys)
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(bad),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2
        one_error_line(capsys)


# vocabularies of the prepared corpus's length, so its ids still fit and
# only the check refuses them; each maps a vocabulary's tokens to a blob
BAD_VOCABS = {
    "int-tokens": lambda tokens: {"tokens": list(range(len(tokens))), "min_frequency": 1},
    "all-duplicates": lambda tokens: {"tokens": tokens[:1] * len(tokens), "min_frequency": 1},
    "pad-token": lambda tokens: {"tokens": ["<pad>", *tokens[1:]], "min_frequency": 1},
    "unk-token": lambda tokens: {"tokens": [*tokens[:-1], "<unk>"], "min_frequency": 1},
    "empty-token": lambda tokens: {"tokens": ["", *tokens[1:]], "min_frequency": 1},
    "zero-min-frequency": lambda tokens: {"tokens": tokens, "min_frequency": 0},
    "string-min-frequency": lambda tokens: {"tokens": tokens, "min_frequency": "1"},
    "bool-min-frequency": lambda tokens: {"tokens": tokens, "min_frequency": True},
}


class TestCheckedVocabulary:
    """A vocabulary ingest cannot have written is refused: with int or
    repeated tokens every text would encode as unknown and get the same
    probabilities."""

    @pytest.mark.parametrize("case", BAD_VOCABS)
    def test_vocab_json_exits_2(self, prepared, tmp_path, capsys, case):
        _, data_dir = prepared
        bad = copy_prepared(data_dir, tmp_path / "bad")
        tokens = json.loads((bad / "vocab.json").read_text("utf-8"))["tokens"]
        (bad / "vocab.json").write_text(json.dumps(BAD_VOCABS[case](tokens)), encoding="utf-8")
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert "malformed vocab.json" in one_error_line(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", BAD_VOCABS)
    def test_model_file_vocabulary_exits_2(self, model_path, tmp_path, capsys, case):
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(
            bad, lambda header: header.update(vocab=BAD_VOCABS[case](header["vocab"]["tokens"]))
        )
        with pytest.raises(CorruptFile):
            load_model(bad)
        assert cli.main(["predict", "--model", str(bad), "a splendid day"]) == 2
        assert "malformed header" in one_error_line(capsys)


# pipeline settings ingest cannot have written, each as the change it
# makes to a valid pipeline blob
BAD_PIPELINES = {
    "string-stop-words": {"stop_words": "the"},
    "int-stop-word": {"stop_words": ["the", 1]},
    "string-flag": {"drop_hashtag_words": "no"},
    "int-flag": {"drop_hashtag_words": 0},
    "list-flag": {"dedupe": [1]},
}


class TestCheckedPipeline:
    """A pipeline ingest cannot have written is refused: a string of stop
    words would be read as its letters and ``"no"`` as true, and predict
    would replay that pipeline on new text."""

    @pytest.mark.parametrize("case", BAD_PIPELINES)
    def test_meta_json_exits_2(self, prepared, tmp_path, capsys, case):
        _, data_dir = prepared
        bad = copy_prepared(data_dir, tmp_path / "bad")
        meta = json.loads((bad / "meta.json").read_text("utf-8"))
        (bad / "meta.json").write_text(json.dumps({**meta, **BAD_PIPELINES[case]}), "utf-8")
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert "malformed vocab.json or meta.json" in one_error_line(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("case", BAD_PIPELINES)
    def test_model_file_pipeline_exits_2(self, model_path, tmp_path, capsys, case):
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(bad, lambda header: header["pipeline"].update(BAD_PIPELINES[case]))
        with pytest.raises(CorruptFile):
            load_model(bad)
        assert cli.main(["predict", "--model", str(bad), "the #hashtag went home"]) == 2
        assert "malformed header" in one_error_line(capsys)


# meta.json fields ingest cannot have written beside its cache, each as the
# change it makes to a valid meta.json, and the error it must give
BAD_METAS = {
    "seq-len": ({"seq_len": 999}, "meta.json seq_len 999 != cache row width 12"),
    "string-seq-len": ({"seq_len": "12"}, "meta.json seq_len '12' != cache row width 12"),
    "int-text-column": ({"text_column": 5}, "malformed vocab.json or meta.json"),
    "null-label-column": ({"label_column": None}, "malformed vocab.json or meta.json"),
    "list-source-csv": ({"source_csv": ["toy.csv"]}, "malformed vocab.json or meta.json"),
}


class TestCheckedMeta:
    """A meta.json that disagrees with its cache, or whose columns are not
    names, is refused by both commands that read a prepared corpus."""

    @pytest.mark.parametrize("case", BAD_METAS)
    def test_meta_json_exits_2(self, prepared, trained, tmp_path, capsys, case):
        _, data_dir = prepared
        change, message = BAD_METAS[case]
        bad = copy_prepared(data_dir, tmp_path / "bad")
        meta = json.loads((bad / "meta.json").read_text("utf-8"))
        (bad / "meta.json").write_text(json.dumps({**meta, **change}), "utf-8")
        assert cli.main(train_args(bad, tmp_path / "run")) == 2
        assert message in one_error_line(capsys)
        assert not (tmp_path / "run").exists()
        code = cli.main(
            ["evaluate", "--model", str(trained), "--data", str(bad),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2
        assert message in one_error_line(capsys)


class TestPredict:
    def test_output_format(self, model_path, capsys):
        code = cli.main(["predict", "--model", str(model_path), "a splendid day"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        fields = line.split("\t")
        assert fields[0] in ("-1", "0", "1")
        probs = [float(f) for f in fields[1:]]
        assert len(probs) == 3
        assert abs(sum(probs) - 1.0) <= 1e-9

    def test_same_text_twice_identical(self, model_path, capsys):
        cli.main(["predict", "--model", str(model_path), "grim news", "grim news"])
        first, second = capsys.readouterr().out.strip().splitlines()
        assert first == second

    def test_empty_text_is_classified(self, model_path, capsys):
        code = cli.main(["predict", "--model", str(model_path), ""])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_malformed_header_exits_2(self, model_path, tmp_path, capsys):
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(bad, lambda header: header["config"].update(extra=1))
        code = cli.main(["predict", "--model", str(bad), "a splendid day"])
        assert code == 2
        assert "malformed header" in capsys.readouterr().err

    def test_header_sequence_length_beyond_memory_exits_2(self, model_path, tmp_path, capsys):
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(bad, lambda header: header["config"].update(seq_len=10**15))
        assert cli.main(["predict", "--model", str(bad), "a splendid day"]) == 2
        assert "not enough memory" in one_error_line(capsys)

    def test_header_sequence_length_beyond_any_index_exits_2(self, model_path, tmp_path,
                                                             capsys):
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(bad, lambda header: header["config"].update(seq_len=2**63))
        assert cli.main(["predict", "--model", str(bad), "a splendid day"]) == 2
        assert "not enough memory" in one_error_line(capsys)

    @pytest.mark.parametrize("name", ["embed_dim", "window", "filters", "hidden"])
    def test_header_boolean_size_exits_2(self, model_path, tmp_path, capsys, name):
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(bad, lambda header: header["config"].update({name: True}))
        assert cli.main(["predict", "--model", str(bad), "a splendid day"]) == 2
        assert "malformed header" in one_error_line(capsys)

    def test_stdin_lines(self, model_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("routine update\nsplendid news\n"))
        code = cli.main(["predict", "--model", str(model_path), "--stdin"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_interrupted_stdin_exits_130(self, model_path, capsys, monkeypatch):
        class InterruptedStdin:
            def __iter__(self):
                yield "routine update\n"
                raise KeyboardInterrupt

        monkeypatch.setattr("sys.stdin", InterruptedStdin())
        assert cli.main(["predict", "--model", str(model_path), "--stdin"]) == 130
        assert capsys.readouterr().err == "interrupted\n"


    def test_reader_closing_early_exits_141(self, model_path, tmp_path):
        """More answers than a pipe holds, and the reader takes only the
        first: the write that finds the pipe closed ends the run quietly."""
        lines = tmp_path / "lines.txt"
        lines.write_text("splendid news today\n" * 3000, encoding="utf-8")
        with lines.open("rb") as stdin, predict_process(model_path, stdin) as proc:
            try:
                assert proc.stdout.readline().count(b"\t") == 3
                proc.stdout.close()
                _, err = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, err) == (141, b"")

    def test_stdin_line_answered_before_stdin_closes(self, model_path):
        with predict_process(model_path, subprocess.PIPE) as proc:
            try:
                proc.stdin.write(b"splendid news today\n")
                proc.stdin.flush()
                ready, _, _ = select.select([proc.stdout], [], [], 30)
                assert ready, "no answer while stdin is open"
                assert proc.stdout.readline().count(b"\t") == 3
                proc.stdin.close()
                assert proc.wait(timeout=60) == 0
            finally:
                proc.kill()


def predict_process(model_path, stdin) -> subprocess.Popen:
    """``sentinet predict --stdin`` in its own interpreter, stdout and
    stderr piped."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "sentinet.cli", "predict", "--model", str(model_path), "--stdin"]
    return subprocess.Popen(
        argv, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


class TestHistoryExport:
    def test_history_of_other_types_exits_2(self, model_path, tmp_path, capsys):
        """Such a row would be written out as "x,y,True,,z"."""
        bad = tmp_path / "model.bin"
        bad.write_bytes(model_path.read_bytes())
        rewrite_header(bad, lambda header: header.update(history=[["x", "y", True, None, "z"]]))
        out = tmp_path / "history.csv"
        assert cli.main(["history-export", "--model", str(bad), "--out", str(out)]) == 2
        assert "malformed header" in one_error_line(capsys)
        assert not out.exists()

    def test_matches_train_output(self, prepared, tmp_path, capsys):
        _, data_dir = prepared
        out = tmp_path / "run"
        assert cli.main(train_args(data_dir, out, epochs=3)) == 0
        exported = tmp_path / "history_again.csv"
        code = cli.main(
            ["history-export", "--model", str(out / "model.bin"), "--out", str(exported)]
        )
        assert code == 0
        assert exported.read_bytes() == (out / "history.csv").read_bytes()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli.main(["train", "--bogus"]) == 1

    def test_missing_required(self):
        assert cli.main(["train"]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    @pytest.mark.parametrize("text", [
        "epochs = 3\n",
        "[train]\nepochs = 3\nepochs = 4\n",
        b"\xff\xfe[train]\nepochs = 3\n",
    ], ids=["no-section", "duplicate-key", "not-utf-8"])
    def test_malformed_config_file_exits_1(self, prepared, tmp_path, capsys, text):
        csv_path, _ = prepared
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        code = cli.main(
            ["ingest", "--csv", str(csv_path), "--out-dir", str(tmp_path / "o"),
             "--config", str(ini)]
        )
        assert code == 1
        one_error_line(capsys, prefix="usage error: ")

    @pytest.mark.parametrize("text, named", [
        ("[DEFAULT]\nepochs = 1\nbogus = 3\n", "config key bogus is not a setting"),
        ("[model]\nepochs = 1\n[train]\nepochs = 2\n", "config key epochs is set more"),
        ("[train]\nepochs = 1\n[DEFAULT]\nepochs = 1\n", "config key epochs is set more"),
        ("[data]\nseq-len = 8\nseq_len = 9\n", "config key seq_len is set more"),
        ("[train]\nbeta1 = high\n", "config key beta1: bad value 'high'"),
    ], ids=["default-section-unknown", "two-sections", "default-and-section",
            "dash-and-underscore", "bad-value"])
    def test_config_file_misread_exits_1(self, prepared, tmp_path, capsys, text, named):
        """A [DEFAULT] key is checked like any other, a key is set at most
        once across the file, and a value must parse as its setting's type."""
        _, data_dir = prepared
        ini = tmp_path / "run.ini"
        ini.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(train_args(data_dir, out, config=ini)) == 1
        assert named in one_error_line(capsys, prefix="usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["epoch = 1", "batchsize = 4", "learning_rate = 0.5"])
    def test_unknown_config_key_exits_1(self, prepared, tmp_path, capsys, key):
        """A misspelt key, or a dataclass field name in place of its key,
        is rejected before any work, not ignored."""
        _, data_dir = prepared
        ini = tmp_path / "typo.ini"
        ini.write_text(f"[train]\n{key}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main(train_args(data_dir, out, config=ini)) == 1
        assert key.split()[0] in one_error_line(capsys, prefix="usage error: ")
        assert not out.exists()

    # every setting outside its range is a usage error, whichever config
    # object checks it: ModelConfig, TrainConfig, SplitSpec or the ingest
    # step; non-finite and degenerate optimizer settings included, which
    # would otherwise run until the loss diverged or train silently
    @pytest.mark.parametrize("case", [
        "train --window 99",
        "train --epochs -1",
        "train --seed -1",
        "train --batch-size 0",
        "train --lr -1",
        "train --lr nan",
        "train --lr inf",
        "train --beta1 1",
        "train --beta1 -0.5",
        "train --beta2 1",
        "train --eps 0",
        "train --eps inf",
        "train --train-frac 1",
        "train --val-frac 0.5",
        "train --variant bogus",
        "train --activation relu",
        "train --optimizer rmsprop",
        "ingest --seq-len 0",
        "ingest --min-freq 0",
    ], ids=lambda case: case.replace(" ", "_"))
    def test_setting_out_of_range_exits_1(self, prepared, tmp_path, capsys, case):
        csv_path, data_dir = prepared
        command, flag, value = case.split()
        out = tmp_path / "out"
        if command == "ingest":
            argv = ["ingest", "--csv", str(csv_path), "--out-dir", str(out), flag, value]
        else:
            argv = train_args(data_dir, out, **{flag[2:]: value})
        assert cli.main(argv) == 1
        one_error_line(capsys, prefix="invalid configuration: ")
        assert not out.exists()

    # sizes whose first array cannot be allocated, so the test uses no memory
    @pytest.mark.parametrize("case", [
        "ingest --seq-len 1000000000000000",
        "ingest --seq-len 9223372036854775808",  # 2**63: beyond any index
        "train --embed-dim 1000000000000000",
        "train --filters 1000000000000000",
    ], ids=lambda case: case.replace(" ", "_"))
    def test_size_beyond_memory_exits_2(self, prepared, tmp_path, capsys, case):
        csv_path, data_dir = prepared
        command, flag, value = case.split()
        out = tmp_path / "out"
        if command == "ingest":
            argv = ["ingest", "--csv", str(csv_path), "--out-dir", str(out), flag, value]
        else:
            argv = train_args(data_dir, out, **{flag[2:]: value})
        assert cli.main(argv) == 2
        assert "not enough memory" in one_error_line(capsys)
        assert not out.exists()


    def test_negative_split_seed_exits_1(self, prepared, tmp_path, capsys):
        """A split seed of -7 would split exactly as 7 does."""
        _, data_dir = prepared
        out = tmp_path / "out"
        assert cli.main(train_args(data_dir, out, split_seed=-7)) == 1
        err = one_error_line(capsys, prefix="invalid configuration: ")
        assert "seed must be >= 0, got -7" in err
        assert not out.exists()

    def test_negative_seeds_name_their_setting(self, prepared, tmp_path, capsys):
        _, data_dir = prepared
        errors = []
        for flag in ("seed", "split_seed"):
            assert cli.main(train_args(data_dir, tmp_path / "out", **{flag: -7})) == 1
            errors.append(one_error_line(capsys, prefix="invalid configuration: "))
        assert errors == ["invalid configuration: seed must be >= 0, got -7\n",
                          "invalid configuration: split seed must be >= 0, got -7\n"]


class TestOutDir:
    """An --out-dir that cannot be a directory fails before any loading or
    training, and the command's first step is never reached."""

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command, first_step", [
        ("ingest", "load_stop_words"), ("train", "train"), ("evaluate", "load_model"),
    ])
    def test_file_in_the_way_exits_2(self, prepared, tmp_path, capsys, monkeypatch,
                                     command, first_step, under):
        csv_path, data_dir = prepared
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n", encoding="utf-8")
        out = afile / under
        monkeypatch.setattr(cli, first_step, pytest.fail)
        argv = {
            "ingest": ["ingest", "--csv", str(csv_path), "--stopwords", "stops.txt",
                       "--out-dir", str(out)],
            "train": train_args(data_dir, out),
            "evaluate": ["evaluate", "--model", "m.bin", "--data", str(data_dir),
                         "--out-dir", str(out)],
        }[command]
        assert cli.main(argv) == 2
        assert "is not a directory" in one_error_line(capsys)
        assert afile.read_text("utf-8") == "not a directory\n"


# each subcommand's option strings, as the parser declared them flag by flag
OPTION_STRINGS = {
    "ingest": {"--config", "--csv", "--dedupe", "--drop-hashtag-words", "--help",
               "--label-column", "--min-freq", "--out-dir", "--seq-len", "--stopwords",
               "--text-column", "-h"},
    "train": {"--activation", "--batch-size", "--beta1", "--beta2", "--config", "--data",
              "--embed-dim", "--epochs", "--eps", "--filters", "--help", "--hidden", "--lr",
              "--no-shuffle", "--optimizer", "--out-dir", "--seed", "--split-seed",
              "--train-frac", "--val-frac", "--variant", "--window", "-h"},
    "evaluate": {"--config", "--csv", "--data", "--help", "--label-column", "--model",
                 "--out-dir", "--split", "--text-column", "-h"},
    "predict": {"--help", "--model", "--stdin", "-h"},
    "history-export": {"--help", "--model", "--out", "-h"},
}

# a value other than the default for every setting, as the flag writes it
NON_DEFAULT = {
    "text_column": "tweet", "label_column": "sent", "stopwords": "stops.txt",
    "seq_len": "12", "min_freq": "2", "drop_hashtag_words": None, "dedupe": None,
    "variant": "cnn", "embed_dim": "6", "window": "2", "filters": "4", "hidden": "5",
    "activation": "sigmoid", "epochs": "3", "batch_size": "8", "lr": "0.01",
    "optimizer": "sgd", "beta1": "0.8", "beta2": "0.99", "eps": "1e-06", "seed": "7",
    "no_shuffle": None, "train_frac": "0.7", "val_frac": "0.15", "split_seed": "3",
}
REQUIRED = {
    "ingest": ["--csv", "c.csv", "--out-dir", "o"],
    "train": ["--data", "d", "--out-dir", "o"],
    "evaluate": ["--model", "m.bin", "--data", "d", "--out-dir", "o"],
}


class TestSettings:
    def test_option_strings_per_subcommand(self):
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        found = {
            name: {s for a in parser._actions for s in a.option_strings}
            for name, parser in sub.choices.items()
        }
        assert found == OPTION_STRINGS

    def test_every_setting_has_a_case(self):
        assert {s.key for s in cli.SETTINGS} == NON_DEFAULT.keys()

    @pytest.mark.parametrize("setting", cli.SETTINGS, ids=lambda s: s.key)
    def test_config_key_equals_flag(self, setting, tmp_path):
        """The flag and the config key (dashed, as the flag is spelt) give
        the same value, and it reaches the dataclass field it sets."""
        raw = NON_DEFAULT[setting.key]
        name = setting.key.replace("_", "-")
        ini = tmp_path / "one.ini"
        ini.write_text(f"[any]\n{name} = {'yes' if raw is None else raw}\n", encoding="utf-8")
        parser = cli.build_parser()
        for command in setting.commands:
            flag = [f"--{name}"] if raw is None else [f"--{name}", raw]
            by_flag = cli._resolve(parser.parse_args([command, *REQUIRED[command], *flag]), {})
            by_key = cli._resolve(
                parser.parse_args([command, *REQUIRED[command]]), cli._load_config(str(ini))
            )
            assert by_flag == by_key
            value = by_key[setting.key]
            assert value != setting.default_value and type(value) is setting.kind
            if setting.owner is not None:
                built = cli._config_of(setting.owner, by_key)
                assert getattr(built, setting.field or setting.key) == value
