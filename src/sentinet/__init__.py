"""sentinet: a from-scratch CNN-LSTM toolkit for 3-class tweet sentiment.

Library layout:

* :mod:`sentinet.corpus_io`       CSV corpora, splits, the checksummed file container
* :mod:`sentinet.preprocess`      cleaning pipeline, vocabulary, encoding
* :mod:`sentinet.stemming`        Porter suffix-stripping stemmer
* :mod:`sentinet.tensor_core`     logistic function and seeded RNG streams
* :mod:`sentinet.layers`          stateless batched forward/backward layers
* :mod:`sentinet.model_training`  variant stage table, training loop, model files
* :mod:`sentinet.metrics`         confusion matrix and the five measures
* :mod:`sentinet.cli`             the ``sentinet`` batch command
"""

from .corpus_io import (
    LabeledCorpus,
    LabeledExample,
    SplitSpec,
    class_histogram,
    load_corpus,
)
from .layers import ConvLayer, DenseSoftmax, EmbeddingLayer, LstmLayer
from .metrics import ConfusionMatrix3, confusion, macro_report
from .model_training import (
    EpochHistory,
    Model,
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate,
    load_model,
    predict_text,
    save_model,
    train,
)
from .preprocess import (
    PipelineConfig,
    StopWordList,
    Vocabulary,
    build_vocabulary,
    default_stop_words,
    encode_and_pad,
    preprocess_pipeline,
)
from .stemming import stem
from .tensor_core import Rng

__version__ = "0.1.0"

