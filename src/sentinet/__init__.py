"""sentinet: a from-scratch CNN-LSTM toolkit for 3-class tweet sentiment.

Library layout:

* :mod:`sentinet.corpus_io`       CSV corpora, splits, the checksummed file container
* :mod:`sentinet.preprocess`      cleaning pipeline, vocabulary, encoding, prepared corpus
* :mod:`sentinet.stemming`        Porter suffix-stripping stemmer
* :mod:`sentinet.tensor_core`     logistic function and seeded RNG streams
* :mod:`sentinet.layers`          stateless batched forward/backward layers
* :mod:`sentinet.model_training`  variant stage table, training loop, model files
* :mod:`sentinet.metrics`         confusion matrix and the five measures
* :mod:`sentinet.cli`             the ``sentinet`` batch command

Names are imported from their modules (``from sentinet.model_training
import train``); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
