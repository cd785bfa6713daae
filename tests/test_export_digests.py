"""Every table a toy CLI workflow writes keeps its bytes.

The workflow ingests the toy corpus, trains twice (a sigmoid convolution
without a validation split, whose history holds NaN columns, and SGD in
corpus order), evaluates each model (on the whole prepared directory, and
on the raw CSV's test partition), predicts and exports a history.  The
sha256 of every CSV it writes, and of the predictions it prints, is
pinned, keyed by its path under the run's root.  The histories and the
predictions depend on the OpenBLAS kernel, so their pins are kept per
kernel.
"""

import hashlib

from sentinet import cli

from conftest import kernel_pins
from test_cli import train_args, write_toy_csv

PINNED = {
    "data/histogram.csv": "57796ff64c59332a8ebbd6bf39f8aaa323da924b02050a878bf44421b27ec2ab",
    "eval-data/report.csv": "40c26e4ad71d01f244325a476bd0e4a8705394efe3563a2f09ed422b0258686f",
    "eval-data/confusion.csv": "31e800953722d9dfbe961c2d2820fe48530daa0da92cfdcb4dd62929f8a18d52",
    "eval-csv-test/report.csv": "922b0889a0cac22beb8fae80b7d105853fa418b7d12d88fa5f9ca7bcf9db2851",
    "eval-csv-test/confusion.csv": "532a679b21e32410e1f32b8fd6bb9d7043da36008a3038316f0eac91aeb69967",
}
# per OpenBLAS kernel (OPENBLAS_CORETYPE=Prescott runs the kernel named
# Katmai); the Adam history is the same under SkylakeX and Haswell, and
# under Sandybridge and Katmai, and the SGD history under SkylakeX and Katmai
KERNEL_PINNED = {
    "SkylakeX": {
        "adam-sigmoid/history.csv": "4e491f99d524babb7786d7748ff20d6732b083a3fb9aa3963f448e7fabd031c3",
        "sgd-in-order/history.csv": "f1ffe861c3ad315394a18f3315eb042b443343fe5089900035a2059ddff29f53",
        "exported.csv": "4e491f99d524babb7786d7748ff20d6732b083a3fb9aa3963f448e7fabd031c3",
        "predict.stdout": "b8598d7e7f71816a51d30731865d5fb2b42dcc29a06ae2b85d9245cb03818f0b",
    },
    "Haswell": {
        "adam-sigmoid/history.csv": "4e491f99d524babb7786d7748ff20d6732b083a3fb9aa3963f448e7fabd031c3",
        "sgd-in-order/history.csv": "d8fc399454172095a278d24dc2c35af109e97193f23f4c4b119e7aaff0274e67",
        "exported.csv": "4e491f99d524babb7786d7748ff20d6732b083a3fb9aa3963f448e7fabd031c3",
        "predict.stdout": "40ce0e8cfb9eb7e844335aa320f0901add2a51c775284618c24cef3a55fa6d71",
    },
    "Sandybridge": {
        "adam-sigmoid/history.csv": "867386e42f6e02512e53a5c316f7856f668e8e25cee40710d0e2f0cb84735a06",
        "sgd-in-order/history.csv": "01731fd46c2adaa30aa6ca812b5558d4621b9573f112ab9e8894652f32214f62",
        "exported.csv": "867386e42f6e02512e53a5c316f7856f668e8e25cee40710d0e2f0cb84735a06",
        "predict.stdout": "174fa0f86ca9a5fcc3ef44640d40ed993374a347639531cfe2e4325ef596f8b3",
    },
    "Katmai": {
        "adam-sigmoid/history.csv": "867386e42f6e02512e53a5c316f7856f668e8e25cee40710d0e2f0cb84735a06",
        "sgd-in-order/history.csv": "f1ffe861c3ad315394a18f3315eb042b443343fe5089900035a2059ddff29f53",
        "exported.csv": "867386e42f6e02512e53a5c316f7856f668e8e25cee40710d0e2f0cb84735a06",
        "predict.stdout": "9b3c7abe35a5c3028900685b754f5a4fb1606d5c337e899b4d0d0fdd0ad97096",
    },
}


def test_toy_workflow_writes_pinned_tables(tmp_path, capsys):
    csv_path, data = write_toy_csv(tmp_path / "toy.csv"), tmp_path / "data"
    adam, sgd = tmp_path / "adam-sigmoid", tmp_path / "sgd-in-order"
    runs = [
        ["ingest", "--csv", str(csv_path), "--out-dir", str(data), "--seq-len", "12"],
        train_args(data, adam, activation="sigmoid", val_frac="0", lr="0.02", epochs="8"),
        train_args(data, sgd, optimizer="sgd", lr="0.5", epochs="8") + ["--no-shuffle"],
        ["evaluate", "--model", str(sgd / "model.bin"), "--data", str(data), "--split", "all",
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

    def digests(names):
        return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}

    assert digests(PINNED) == PINNED
    found = digests(KERNEL_PINNED["SkylakeX"])
    assert found == kernel_pins(KERNEL_PINNED, found)
