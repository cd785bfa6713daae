import csv
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from sentinet import cli
from sentinet.corpus_io import SplitSpec, stratified_indices
from sentinet.model_training import NonFiniteLoss, load_model
from sentinet.preprocess import EncodedCorpus, read_corpus_cache, write_corpus_cache

from conftest import make_toy_texts
from test_model_training import rewrite_header


def write_toy_csv(path: Path, per_class: int = 10) -> Path:
    texts, labels = make_toy_texts(per_class)
    external = {0: "-1", 1: "0", 2: "1"}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
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
            ["evaluate", "--model", str(trained), "--data", str(data_dir),
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
            ["evaluate", "--model", str(trained), "--data", str(data_dir),
             "--out-dir", str(via_cache)]
        ) == 0
        assert cli.main(
            ["evaluate", "--model", str(trained), "--csv", str(csv_path),
             "--out-dir", str(via_csv)]
        ) == 0
        assert (via_cache / "report.csv").read_bytes() == (via_csv / "report.csv").read_bytes()
        assert (via_cache / "confusion.csv").read_bytes() == (via_csv / "confusion.csv").read_bytes()

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

    def test_missing_model_exits_2(self, prepared, tmp_path):
        _, data_dir = prepared
        code = cli.main(
            ["evaluate", "--model", str(tmp_path / "ghost.bin"), "--data", str(data_dir),
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 2


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

    def test_stdin_lines(self, model_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("routine update\nsplendid news\n"))
        code = cli.main(["predict", "--model", str(model_path), "--stdin"])
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestHistoryExport:
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
    ], ids=["no-section", "duplicate-key"])
    def test_malformed_config_file_exits_1(self, prepared, tmp_path, capsys, text):
        csv_path, _ = prepared
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        code = cli.main(
            ["ingest", "--csv", str(csv_path), "--out-dir", str(tmp_path / "o"),
             "--config", str(ini)]
        )
        assert code == 1
        one_error_line(capsys, prefix="usage error: ")

    # every setting outside its range is a usage error, whichever config
    # object checks it: ModelConfig, TrainConfig, SplitSpec or the ingest
    # step; non-finite and degenerate optimizer settings included, which
    # would otherwise run until the loss diverged or train silently
    @pytest.mark.parametrize("case", [
        "train --window 99",
        "train --epochs -1",
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
