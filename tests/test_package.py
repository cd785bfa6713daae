"""The package is the layout its docstring states, and each public name
imports from the module that defines it (the root holds only the version)."""

import importlib
import re
from pathlib import Path

import pytest

import sentinet

PACKAGE = Path(sentinet.__file__).parent

PUBLIC = {
    "corpus_io": ("LabeledCorpus", "LabeledExample", "SplitSpec", "class_histogram",
                  "load_corpus"),
    "layers": ("ConvLayer", "DenseSoftmax", "EmbeddingLayer", "LstmLayer"),
    "metrics": ("ConfusionMatrix3", "confusion", "macro_report"),
    "model_training": ("EpochHistory", "Model", "ModelConfig", "TrainConfig", "build_model",
                       "epochs", "evaluate", "load_model", "predict_text", "save_model",
                       "train"),
    "preprocess": ("PipelineConfig", "StopWordList", "Vocabulary", "build_vocabulary",
                   "default_stop_words", "encode_and_pad", "encode_csv", "prepare",
                   "preprocess_pipeline", "read_prepared"),
    "stemming": ("stem",),
    "tensor_core": ("Rng",),
}
CASES = [(f"sentinet.{module}", name) for module, names in PUBLIC.items() for name in names]
CASES.append(("sentinet", "__version__"))


def test_layout_is_the_one_the_docstring_states():
    listed = re.findall(r":mod:`sentinet\.(\w+)`", sentinet.__doc__)
    assert sorted(listed) == sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    for module in listed:
        importlib.import_module(f"sentinet.{module}")
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert sentinet.__version__ == re.search(r'^version = "(.+)"$', pyproject, re.M).group(1)


@pytest.mark.parametrize("module, name", CASES, ids=[name for _, name in CASES])
def test_name_imports_from_the_package(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_one_exception_class_per_exit_code_group():
    """The package defines exactly the exceptions the CLI tells apart:
    usage (exit 1), bad data (exit 2) and divergence (exit 3).  Any other
    failure raises a builtin type with its message."""
    defined = set()
    for stem in (p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"):
        module = importlib.import_module(f"sentinet.{stem}")
        defined.update(
            f"{stem}.{name}" for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        )
    assert defined == {
        "cli._UsageError", "corpus_io.InvalidConfig",
        "corpus_io.CorpusError", "corpus_io.CorruptFile", "corpus_io.FormatVersionMismatch",
        "model_training.NonFiniteLoss",
    }
