"""Model assembly, the training loop, optimizers, and model files.

A model is a stack of stages from :mod:`sentinet.layers`, and ``STAGES``
lists each variant's stages in order:

* ``cnn-lstm`` — embedding -> convolution -> (no pooling) -> LSTM -> head;
* ``cnn``      — embedding -> convolution -> mean over positions -> head;
* ``lstm``     — embedding fed straight into the LSTM -> head.

The forward and backward passes, parameter naming, initialization and
the model file all walk that table.  A stage's name prefixes its
parameters: ``embedding.table``, ``conv.filters``, ``lstm.weights`` (the
four gates fused), ``head.bias`` and so on.

Every pass runs on a batch: ids are (B, seq_len) and probabilities are
(B, 3).  Training is plain mini-batch gradient descent (SGD or Adam) over
the mean cross-entropy of each batch, one ``forward_backward`` call per
batch, with a seeded shuffle per epoch and one history record per epoch
computed over the full train and validation sets.  The loop is the
generator ``epochs``, which yields each record once that epoch's
parameters are final; ``train`` consumes it and alone sets
``model.history``.  Parameters change in place, so a caller that changes
them between epochs writes into the arrays, never rebinds them.  Both
optimizers work in place and give the bits of the textbook update over
whole tensors: ``sgd_step`` updates only the embedding rows the batch's
row-sparse gradient holds; ``adam_step`` decays both moments over every
row, adds the gradient terms at the touched rows only, and applies the
textbook expression in blocks of whole leading-axis rows of about
``ADAM_BLOCK`` elements, so that its temporaries stay block-sized and in
cache.  ``evaluate`` runs in slices of ``EVAL_BATCH`` examples, so its
memory does not grow with the corpus.  Everything is deterministic: data,
configs and seeds fix every parameter, every history record, and every
prediction bitwise.

The model file is a container of :mod:`sentinet.corpus_io` (layout
there) with magic ``SNET`` and version 2.  Its header holds ``config``,
``vocab``, ``pipeline``, ``history`` and ``params``, each parameter's name
and shape in stage order; the payload holds the parameters in that order
as little-endian float64.  A header must be exactly the one ``save_model``
writes for the model it describes.  A loaded model's parameters are
writable views of the one buffer its file was read into, with no copy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, field

import numpy as np

from . import tensor_core as tc
from .corpus_io import (  # the errors of load_model and the configs are importable here too
    CLASS_NAMES,
    MALFORMED,
    CorruptFile,
    FormatVersionMismatch,
    InvalidConfig,
    csv_text,
    read_container,
    write_container,
)
from .layers import (
    ACTIVATIONS,
    ConvLayer,
    DenseSoftmax,
    EmbeddingLayer,
    LstmLayer,
    MeanPool,
    RowSparse,
    cross_entropy,
    cross_entropy_grad,
)
from .preprocess import (
    PAD_ID,
    EncodedCorpus,
    PipelineConfig,
    Vocabulary,
    encode_and_pad,
)

MAGIC = b"SNET"
FORMAT_VERSION = 2
# examples per forward pass in evaluate, so that its working memory stays
# the same whatever the corpus size
EVAL_BATCH = 64
# elements in one block of adam_step's update: a block's parameter, moments
# and temporaries stay in a 2 MB L2 cache, and no temporary is table-sized
ADAM_BLOCK = 1 << 14


# A stage maker builds one stage's layer from the config and its input
# width, and returns the layer and its output width.  ``param(name,
# shape)`` supplies each parameter array: drawn fresh by build_model, read
# from the file by load_model.  Parameters are requested in the layer's
# PARAMS order, which is also their order in the model file.


def _embedding(c, width, param):
    return EmbeddingLayer(param("table", (width, c.embed_dim))), c.embed_dim


def _conv(c, width, param):
    filters = param("filters", (c.filters, c.window, width))
    return ConvLayer(filters, param("bias", (c.filters,)), c.activation), c.filters


def _pool(c, width, param):
    return MeanPool(), width


def _lstm(c, width, param):
    fused = len(LstmLayer.GATES) * c.hidden
    weights = param("weights", (fused, width + c.hidden))
    return LstmLayer(weights, param("bias", (fused,))), c.hidden


def _head(c, width, param):
    classes = len(CLASS_NAMES)
    return DenseSoftmax(param("weights", (classes, width)), param("bias", (classes,))), classes


_MAKERS = {"embedding": _embedding, "conv": _conv, "pool": _pool, "lstm": _lstm, "head": _head}

# each variant as its stages, in order; the first stage's input width is
# the vocabulary size
STAGES = {
    "cnn-lstm": ("embedding", "conv", "lstm", "head"),
    "cnn": ("embedding", "conv", "pool", "head"),
    "lstm": ("embedding", "lstm", "head"),
}
VARIANTS = tuple(STAGES)


class NonFiniteLoss(ArithmeticError):
    """Training diverged: a batch produced a NaN/inf loss, or a value in a
    batch or its epoch's re-evaluation overflowed or became NaN."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite value at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; all are configuration, not constants."""

    variant: str = "cnn-lstm"
    seq_len: int = 40
    embed_dim: int = 64
    window: int = 3
    filters: int = 64
    hidden: int = 64
    activation: str = "tanh"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {VARIANTS}: {self.variant!r}")
        for name in ("seq_len", "embed_dim", "window", "filters", "hidden"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is no size
                raise InvalidConfig(f"{name} must be an integer >= 1, got {value!r}")
        if self.window > self.seq_len:
            raise InvalidConfig(
                f"window {self.window} exceeds sequence length {self.seq_len}"
            )
        if self.activation not in ACTIVATIONS:
            choices = " or ".join(ACTIVATIONS)
            raise InvalidConfig(f"activation must be {choices}: {self.activation!r}")


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings: integer epochs and seed >= 0 and batch size
    >= 1, a finite learning rate >= 0, Adam's betas in [0, 1) and a finite
    epsilon > 0; InvalidConfig otherwise.

    epochs=0 is allowed and means "initialize only": useful for comparing
    a trained run against its starting parameters.
    """

    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 42
    shuffle: bool = True

    def __post_init__(self):
        for name, low in (("epochs", 0), ("seed", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise InvalidConfig(f"{name} must be >= {low}, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise InvalidConfig(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidConfig(f"optimizer must be adam or sgd: {self.optimizer!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise InvalidConfig(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidConfig(f"epsilon must be finite and > 0, got {self.epsilon}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass
class EpochHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def to_csv(self) -> str:
        header = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc")
        return csv_text([header, *map(astuple, self.records)])


class Model:
    """A variant's stages plus the vocabulary and pipeline it was built with.

    ``stages`` maps each stage name to its layer, in ``STAGES`` order.  A
    model keeps no per-call state, so callers may share one.
    """

    def __init__(
        self,
        config: ModelConfig,
        vocab: Vocabulary,
        stages: dict,
        pipeline: PipelineConfig | None = None,
    ):
        self.config = config
        self.vocab = vocab
        self.stages = stages
        self.pipeline = pipeline
        self.history = EpochHistory()

    def parameters(self) -> dict[str, np.ndarray]:
        """Live parameter arrays keyed by stable names (serialization order)."""
        return {
            f"{name}.{p}": getattr(layer, p)
            for name, layer in self.stages.items()
            for p in layer.PARAMS
        }

    def parameter_count(self) -> int:
        return sum(arr.size for arr in self.parameters().values())

    def _forward(self, ids):
        """Probabilities and each stage's cache for a (B, seq_len) batch."""
        x = np.asarray(ids)
        if x.ndim != 2 or x.shape[1] != self.config.seq_len:
            raise InvalidConfig(
                f"ids must be (batch, {self.config.seq_len}), got shape {x.shape}"
            )
        caches = []
        for layer in self.stages.values():
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def forward(self, ids) -> np.ndarray:
        """Class probabilities, (B, 3), for a (B, seq_len) batch of ids."""
        return self._forward(ids)[0]

    def forward_backward(self, ids, labels):
        """Mean cross-entropy of a batch and its gradients (same keys as
        parameters())."""
        probs, caches = self._forward(ids)
        loss = float(cross_entropy(probs, labels).mean())
        d = cross_entropy_grad(probs, labels) / len(probs)
        grads = {}
        for (name, layer), cache in zip(reversed(self.stages.items()), reversed(caches)):
            layer_grads, d = layer.backward(cache, d)
            grads.update({f"{name}.{p}": g for p, g in layer_grads.items()})
        return loss, grads


def _make_stages(config: ModelConfig, vocab_size: int, param) -> dict:
    """The variant's layers by stage name; ``param(name, shape)`` supplies
    each parameter by its full name, such as ``lstm.weights``."""
    stages, width = {}, vocab_size
    for name in STAGES[config.variant]:
        stages[name], width = _MAKERS[name](
            config, width, lambda p, shape, name=name: param(f"{name}.{p}", shape)
        )
    return stages


def _xavier(rng: tc.Rng, shape) -> np.ndarray:
    """Uniform in +-sqrt(6 / (rows + cols)), the first axis being the rows."""
    scale = math.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))
    return rng.uniform(-scale, scale, shape)


def build_model(
    config: ModelConfig,
    vocab: Vocabulary,
    rng: tc.Rng,
    pipeline: PipelineConfig | None = None,
) -> Model:
    """Initialize a model: Xavier-uniform weights, zero biases except the
    forget gate (+1), zero pad embedding.  Each tensor draws from its own
    named stream, so the variant choice never shifts another tensor's
    initialization; the fused LSTM weights stack one block per gate, each
    drawn from its own stream ``lstm.w_<gate>``."""
    gates = LstmLayer.GATES

    def init(name, shape):
        if name == "lstm.weights":
            block = (shape[0] // len(gates), shape[1])
            return np.concatenate([_xavier(rng.split(f"lstm.w_{g}"), block) for g in gates])
        if len(shape) > 1:
            return _xavier(rng.split(name), shape)
        bias = np.zeros(shape)
        if name == "lstm.bias":
            bias.reshape(len(gates), -1)[gates.index("forget")] = 1.0
        return bias

    model = Model(config, vocab, _make_stages(config, len(vocab), init), pipeline)
    model.stages["embedding"].table[PAD_ID] = 0.0
    return model


def _nonzero_part(params: dict, name: str, grad) -> tuple:
    """(index, values): where ``grad`` can be nonzero in ``params[name]``,
    and its values there; every row of a dense gradient, the listed rows
    of a RowSparse one."""
    if params[name].shape != grad.shape:
        raise ValueError(f"{name}: param {params[name].shape} vs grad {grad.shape}")
    if isinstance(grad, RowSparse):
        return grad.rows, grad.values
    return ..., grad


def sgd_step(params: dict, grads: dict, learning_rate: float) -> None:
    """In-place theta <- theta - lr * g, on the rows where g can be nonzero
    (elsewhere it subtracts zero, which leaves theta's bits as they are)."""
    for name, grad in grads.items():
        index, g = _nonzero_part(params, name, grad)
        params[name][index] -= learning_rate * g


class AdamState:
    """Adam's two moments per parameter, zero at first, and the steps taken
    so far."""

    def __init__(self, params: dict):
        self.first_moment = {n: np.zeros_like(p) for n, p in params.items()}
        self.second_moment = {n: np.zeros_like(p) for n, p in params.items()}
        self.step = 0


def adam_step(params: dict, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update (Kingma & Ba 2014), in place.

    Both moments decay over the whole tensor, and the gradient terms are
    added only where the gradient can be nonzero.  The update
    theta -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) is then
    applied in blocks of whole leading-axis rows, views of the caller's
    arrays whatever their layout, so that its temporaries are block-sized;
    every parameter and moment gets the bits the whole-tensor expression
    gives.  One exception, at beta1 <= 1/2 only: a first moment that
    decays from below to zero in a row the batch did not touch stays -0.0,
    where adding the zero gradient term would give +0.0.  The parameters
    are the same either way.
    """
    state.step += 1
    m_scale, v_scale = 1.0 - cfg.beta1**state.step, 1.0 - cfg.beta2**state.step
    lr, eps = cfg.learning_rate, cfg.epsilon
    for name, grad in grads.items():
        index, g = _nonzero_part(params, name, grad)
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= cfg.beta1
        m[index] += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v[index] += (1.0 - cfg.beta2) * g * g
        theta = params[name]
        per_block = max(1, ADAM_BLOCK // math.prod(theta.shape[1:]))
        for start in range(0, len(theta), per_block):
            rows = slice(start, start + per_block)
            theta[rows] -= lr * (m[rows] / m_scale) / (np.sqrt(v[rows] / v_scale) + eps)


@dataclass(frozen=True)
class EvalResult:
    loss: float
    accuracy: float
    predictions: list[int]


def evaluate(model: Model, corpus: EncodedCorpus) -> EvalResult:
    """Mean cross-entropy, accuracy, and argmax predictions over a corpus."""
    if len(corpus) == 0:
        raise ValueError("cannot evaluate an empty corpus")
    losses, predictions = [], []
    for start in range(0, len(corpus), EVAL_BATCH):
        probs = model.forward(corpus.sequences[start : start + EVAL_BATCH])
        losses.append(cross_entropy(probs, corpus.labels[start : start + EVAL_BATCH]))
        predictions.append(np.argmax(probs, axis=1))
    predicted = np.concatenate(predictions)
    n = len(corpus)
    return EvalResult(
        loss=float(np.concatenate(losses).mean()),
        accuracy=int(np.count_nonzero(predicted == corpus.labels)) / n,
        predictions=predicted.tolist(),
    )


def epochs(
    model: Model,
    train_corpus: EncodedCorpus,
    val_corpus: EncodedCorpus | None,
    cfg: TrainConfig,
) -> Iterator[EpochRecord]:
    """Yield each epoch's record once that epoch's parameters are final.
    The optimizer, the batch order and the validation scoring are chosen
    once, at the first ``next()``; a None or empty validation corpus
    records NaN.  Raises ValueError on an empty training corpus and
    NonFiniteLoss the moment a batch loss stops being finite, or a batch
    or the epoch's re-evaluation overflows or makes a NaN anywhere."""
    if len(train_corpus) == 0:
        raise ValueError("training corpus is empty")
    params = model.parameters()
    if cfg.optimizer == "adam":
        state = AdamState(params)  # adam_step is looked up per call: a wrapper on it sees each step
        step = lambda grads: adam_step(params, grads, state, cfg)
    else:
        step = lambda grads: sgd_step(params, grads, cfg.learning_rate)
    order = tc.Rng(cfg.seed).split("epoch-shuffle").permutation if cfg.shuffle else np.arange
    batch_cuts = range(cfg.batch_size, len(train_corpus), cfg.batch_size)
    no_val = EvalResult(math.nan, math.nan, [])
    score_val = (lambda: evaluate(model, val_corpus)) if val_corpus else (lambda: no_val)
    sequences, labels = train_corpus.sequences, train_corpus.labels

    for epoch in range(1, cfg.epochs + 1):
        batches = np.split(order(len(train_corpus)), batch_cuts)
        try:
            with np.errstate(over="raise", invalid="raise"):
                for batch_index, batch in enumerate(batches):
                    loss, grads = model.forward_backward(sequences[batch], labels[batch])
                    if not math.isfinite(loss):
                        raise NonFiniteLoss(epoch, batch_index)
                    step(grads)
                fit, val = evaluate(model, train_corpus), score_val()
        except FloatingPointError as exc:  # re-evaluation counts as the last batch
            raise NonFiniteLoss(epoch, batch_index) from exc
        yield EpochRecord(epoch, fit.loss, fit.accuracy, val.loss, val.accuracy)


def train(
    model: Model,
    train_corpus: EncodedCorpus,
    val_corpus: EncodedCorpus | None,
    cfg: TrainConfig,
) -> tuple[Model, EpochHistory]:
    """Run every epoch of :func:`epochs`; returns the model and its history,
    which is also ``model.history``."""
    model.history = EpochHistory(list(epochs(model, train_corpus, val_corpus, cfg)))
    return model, model.history


def predict_text(model: Model, raw: str) -> tuple[int, np.ndarray]:
    """Preprocess raw text with the model's own pipeline and classify it."""
    if model.pipeline is None:
        raise ValueError("model carries no preprocessing pipeline settings")
    tokens = model.pipeline.tokens(raw)
    ids = encode_and_pad(tokens, model.vocab, model.config.seq_len)
    probs = model.forward(ids[None])[0]
    return int(np.argmax(probs)), probs


# --- model file (header and payload in the module docstring) --------------


def _header(model: Model) -> dict:
    return {
        "config": asdict(model.config),
        "vocab": model.vocab.to_json(),
        "pipeline": None if model.pipeline is None else model.pipeline.to_json(),
        "history": [list(astuple(r)) for r in model.history.records],
        "params": [
            {"name": name, "shape": list(arr.shape)}
            for name, arr in model.parameters().items()
        ],
    }


def save_model(model: Model, path) -> None:
    payload = [np.ascontiguousarray(a, dtype="<f8") for a in model.parameters().values()]
    write_container(path, MAGIC, FORMAT_VERSION, _header(model), payload)


def load_model(path) -> Model:
    header, payload = read_container(path, MAGIC, FORMAT_VERSION, "model")
    try:
        config = ModelConfig(**header["config"])
        vocab = Vocabulary.from_json(header["vocab"])
        pipeline = header["pipeline"]
        pipeline = None if pipeline is None else PipelineConfig.from_json(pipeline)
        history = EpochHistory([EpochRecord(*row) for row in header["history"]])
    except MALFORMED as exc:
        raise CorruptFile(f"malformed header: {path}") from exc
    offset = 0

    def read(name, shape):
        nonlocal offset
        count = math.prod(shape)
        if offset + 8 * count > len(payload):
            raise CorruptFile(f"parameter payload truncated: {path}")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        return arr.reshape(shape)

    model = Model(config, vocab, _make_stages(config, len(vocab), read), pipeline)
    if offset != len(payload):
        raise CorruptFile(f"trailing bytes after parameters: {path}")
    model.history = history
    if _header(model) != header:
        raise CorruptFile(f"header does not match the model it describes: {path}")
    return model
