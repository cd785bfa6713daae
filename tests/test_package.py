"""The package root re-exports its public API under the names it always had."""

import pytest

import sentinet

PUBLIC = (
    "LabeledCorpus", "LabeledExample", "SplitSpec", "class_histogram", "load_corpus",
    "ConvLayer", "DenseSoftmax", "EmbeddingLayer", "LstmLayer",
    "ConfusionMatrix3", "confusion", "macro_report",
    "EpochHistory", "Model", "ModelConfig", "TrainConfig", "build_model", "evaluate",
    "load_model", "predict_text", "save_model", "train",
    "PipelineConfig", "StopWordList", "Vocabulary", "build_vocabulary",
    "default_stop_words", "encode_and_pad", "preprocess_pipeline",
    "stem", "Rng", "__version__",
)


@pytest.mark.parametrize("name", PUBLIC)
def test_name_imports_from_the_package(name):
    assert hasattr(sentinet, name)  # what ``from sentinet import name`` needs
