"""Quality gate: a trained ``cnn`` scores held-out rows at least about as
well as multinomial naive Bayes, the sentiment baseline of Wang & Manning
(2012), on the same bag of token ids.

The corpus comes from the benchmark's generator, read without changing
it, and goes through the library's own ingest: ``prepare`` writes the
prepared corpus and ``read_prepared`` reads it back.  The model trains for
2 epochs on the default split's training rows; both accuracies are on its
test rows.  Run with ``-s`` to see them.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import corpus_gen  # noqa: E402

from sentinet.corpus_io import SplitSpec, stratified_indices  # noqa: E402
from sentinet.model_training import (  # noqa: E402
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate,
    train,
)
from sentinet.preprocess import (  # noqa: E402
    PipelineConfig,
    default_stop_words,
    prepare,
    read_prepared,
)
from sentinet.tensor_core import Rng  # noqa: E402

from oracles import naive_bayes_predictions  # noqa: E402

MARGIN = 0.05  # the cnn may trail naive Bayes by this much accuracy


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cnn_is_about_as_accurate_as_naive_bayes(seed, tmp_path):
    csv_path, data_dir = tmp_path / "corpus.csv", tmp_path / "data"
    argv = ["--shape", "topic", "--seed", str(seed), "--rows", "3000", "--out", str(csv_path)]
    assert corpus_gen.main(argv) == 0
    pipeline = PipelineConfig(default_stop_words())
    prepare(csv_path, data_dir, pipeline, ModelConfig.seq_len, 1, "text", "label")
    encoded, vocab, pipeline = read_prepared(data_dir)
    train_idx, _, test_idx = stratified_indices(encoded.labels, SplitSpec())
    train_part, test_part = encoded.subset(train_idx), encoded.subset(test_idx)

    model = build_model(ModelConfig(variant="cnn"), vocab, Rng(TrainConfig.seed), pipeline)
    train(model, train_part, None, TrainConfig(epochs=2))
    cnn = evaluate(model, test_part).accuracy
    predictions = naive_bayes_predictions(train_part, test_part, len(vocab))
    bayes = float(np.mean(np.asarray(predictions) == test_part.labels))
    print(f"seed {seed}: cnn {cnn:.3f}, naive Bayes {bayes:.3f} on {len(test_part)} test rows")
    assert cnn >= bayes - MARGIN
