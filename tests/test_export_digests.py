"""Every table a toy CLI workflow writes keeps its bytes.

The workflow ingests the toy corpus, trains twice (a sigmoid convolution
without a validation split, whose history holds NaN columns, and SGD in
corpus order), evaluates each model (on the prepared directory, and on
the raw CSV's test partition), predicts and exports a history.  The
sha256 of every CSV it writes, and of the predictions it prints, is
pinned, keyed by its path under the run's root.
"""

import hashlib

from sentinet import cli

from test_cli import train_args, write_toy_csv

PINNED = {
    "data/histogram.csv": "57796ff64c59332a8ebbd6bf39f8aaa323da924b02050a878bf44421b27ec2ab",
    "adam-sigmoid/history.csv": "4e491f99d524babb7786d7748ff20d6732b083a3fb9aa3963f448e7fabd031c3",
    "sgd-in-order/history.csv": "f1ffe861c3ad315394a18f3315eb042b443343fe5089900035a2059ddff29f53",
    "eval-data/report.csv": "40c26e4ad71d01f244325a476bd0e4a8705394efe3563a2f09ed422b0258686f",
    "eval-data/confusion.csv": "31e800953722d9dfbe961c2d2820fe48530daa0da92cfdcb4dd62929f8a18d52",
    "eval-csv-test/report.csv": "4a3adee9c569310d31b14e95d5c934abe14b4890535438c7dbdba6baac8176c7",
    "eval-csv-test/confusion.csv": "3d62544a398158bb14438d753e5ebb0a300053d525dc3d91e3da21bb1cfc0b52",
    "exported.csv": "4e491f99d524babb7786d7748ff20d6732b083a3fb9aa3963f448e7fabd031c3",
    "predict.stdout": "b8598d7e7f71816a51d30731865d5fb2b42dcc29a06ae2b85d9245cb03818f0b",
}


def test_toy_workflow_writes_pinned_tables(tmp_path, capsys):
    csv_path, data = write_toy_csv(tmp_path / "toy.csv"), tmp_path / "data"
    adam, sgd = tmp_path / "adam-sigmoid", tmp_path / "sgd-in-order"
    runs = [
        ["ingest", "--csv", str(csv_path), "--out-dir", str(data), "--seq-len", "12"],
        train_args(data, adam, activation="sigmoid", val_frac="0", lr="0.02", epochs="8"),
        train_args(data, sgd, optimizer="sgd", lr="0.5", epochs="8") + ["--no-shuffle"],
        ["evaluate", "--model", str(sgd / "model.bin"), "--data", str(data),
         "--out-dir", str(tmp_path / "eval-data")],
        ["evaluate", "--model", str(adam / "model.bin"), "--csv", str(csv_path),
         "--split", "test", "--out-dir", str(tmp_path / "eval-csv-test")],
    ]
    for argv in runs:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    texts = ["a splendid and joyful week", "grim news today", "routine clinic update", ""]
    assert cli.main(["predict", "--model", str(adam / "model.bin"), *texts]) == 0
    (tmp_path / "predict.stdout").write_text(capsys.readouterr().out, encoding="utf-8")
    exported = tmp_path / "exported.csv"
    assert cli.main(["history-export", "--model", str(adam / "model.bin"),
                     "--out", str(exported)]) == 0
    assert exported.read_bytes() == (adam / "history.csv").read_bytes()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED
    }
    assert digests == PINNED
