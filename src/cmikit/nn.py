"""Minimal feed-forward binary classifier with Adam training.

Implements exactly what the two-sample divergence estimators need: a ReLU
MLP with a single logit output, binary cross-entropy (computed on logits for
numerical stability), L2 weight decay, and an unconstrained-critic training
mode for the f-divergence lower bound.  Everything is plain numpy and fully
deterministic given a seed.
"""

import numbers
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .seeding import derive_seed, rng_from

__all__ = [
    "MlpArchitecture",
    "TrainConfig",
    "MlpClassifier",
    "TrainingDivergedError",
    "mlp_init",
    "predict_proba",
    "predict_logit",
    "loss_and_gradients",
    "adam_step",
    "train_binary_classifier",
    "train_f_mine_critic",
]


class TrainingDivergedError(RuntimeError):
    """Loss or a parameter became non-finite during training."""


def check_count(name: str, value) -> None:
    """Reject a ``value`` that is not an integer of at least 1, naming ``name``."""
    # bool is an Integral, but true is not a count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_type(name: str, kind, value) -> None:
    """Reject a ``value`` that a bool or float field cannot hold, naming ``name``; other kinds pass."""
    if kind is bool and not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    if kind is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_unread(method: str, cfg, at: str = "") -> None:
    """Reject a leaf ``estimators.UNREAD_LEAVES`` lists for ``method`` that left ``method``'s default;
    ``cfg`` is the part of an ``EstimatorConfig`` at the dotted prefix ``at``, and leaves outside it pass."""
    from .estimators import F_MINE_CONFIG, UNREAD_LEAVES, EstimatorConfig  # estimators imports this module
    defaults = F_MINE_CONFIG if method == "f-mine-diff" else EstimatorConfig()
    for leaf in [name for name in UNREAD_LEAVES[method] if name.startswith(at)]:
        value = attrgetter(leaf[len(at):])(cfg)
        if value != attrgetter(leaf)(defaults):
            raise ValueError(f"{leaf} is not read by {method}; leave it at its default, got {value!r}")


@dataclass(frozen=True)
class MlpArchitecture:
    """Input width plus ReLU hidden layer sizes; output is a single logit."""

    input_dim: int
    hidden_layer_sizes: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        object.__setattr__(self, "hidden_layer_sizes", tuple(self.hidden_layer_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if len(self.hidden_layer_sizes) < 1:
            raise ValueError("need at least one hidden layer")
        if any(h < 1 for h in self.hidden_layer_sizes):
            raise ValueError("hidden layer sizes must be positive")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_layer_sizes, 1]
        return list(zip(dims[:-1], dims[1:]))

    @property
    def n_params(self) -> int:
        return sum(fan_in * fan_out + fan_out for fan_in, fan_out in self.layer_dims)


def _layer_views(flat: np.ndarray, arch: MlpArchitecture):
    """Per-layer (weights, biases) views into one flat vector.

    The layout is every weight matrix in layer order (row-major), then every
    bias vector in layer order.  Writes through a view land in ``flat``.
    """
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in arch.layer_dims:
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
    for _, fan_out in arch.layer_dims:
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    adam_beta1: float = 0.90
    adam_beta2: float = 0.999
    epochs: int = 20
    l2_coefficient: float = 1e-3

    def __post_init__(self):
        check_count("batch_size", self.batch_size)
        check_count("epochs", self.epochs)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.l2_coefficient < 0:
            raise ValueError("l2_coefficient must be nonnegative")


ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's first and second moments, each one flat vector laid out like the
    classifier's parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, arch: MlpArchitecture) -> "AdamState":
        return cls(np.zeros(arch.n_params), np.zeros(arch.n_params))


@dataclass
class MlpClassifier:
    """Weights, biases, and optimizer state of one binary classifier.

    All parameters live in the one contiguous vector ``params``; ``weights``
    and ``biases`` are per-layer views into it, so writing through them
    changes the classifier.  Build one with :func:`mlp_init` only.

    Mutated only while its owning training loop runs; treat as immutable
    afterwards.  ``epoch_losses`` records each epoch's training objective,
    taken from the logits its own steps computed: every row as its step
    scored it, plus the L2 penalty at the epoch's end.  No fit runs a
    full-set forward pass.
    """

    architecture: MlpArchitecture
    params: np.ndarray
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    adam: AdamState
    epoch_losses: list[float] = field(default_factory=list)


def mlp_init(arch: MlpArchitecture, seed: int) -> MlpClassifier:
    """Fan-in-scaled Gaussian weights (He scaling before ReLU), zero biases."""
    rng = rng_from(seed)
    params = np.zeros(arch.n_params)
    weights, biases = _layer_views(params, arch)
    n_layers = len(arch.layer_dims)
    for li, (fan_in, fan_out) in enumerate(arch.layer_dims):
        gain = 2.0 if li < n_layers - 1 else 1.0  # ReLU follows all but the last
        weights[li][...] = rng.normal(0.0, np.sqrt(gain / fan_in), size=(fan_in, fan_out))
    return MlpClassifier(arch, params, weights, biases, AdamState.zeros(arch))


def _forward(c: MlpClassifier, x: np.ndarray):
    """Forward pass on a batch; returns (per-layer inputs, logits)."""
    acts = [x]
    for w, b in zip(c.weights[:-1], c.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return acts, (acts[-1] @ c.weights[-1] + c.biases[-1])[:, 0]


# Rows per block in predict_logit.  At the default 64-wide layers a 64-row
# block's largest product is 64*64*64 multiply-adds, well under the size at
# which OpenBLAS 0.3.31 hands a product to its worker thread (between 983040
# and 1044480 multiply-adds, measured on 2 cores), so scoring never wakes that
# thread, which would then spin beside the work that follows.  No fit calls
# it: an epoch's loss comes from the logits of its own steps.  Block
# starts must be multiples of 4 rows for the logits to keep the bits of a
# one-shot forward: on OpenBLAS, blocks of 16, 32, 64, 100, 128 and 256 rows
# match it with any ragged tail of two or more rows; 50 and 186 do not.
_BLOCK_ROWS = 64


def predict_logit(c: MlpClassifier, x: np.ndarray) -> np.ndarray:
    """Logit per row of ``x``, evaluated by ``_forward`` in blocks of
    ``_BLOCK_ROWS`` rows.

    At the default layer widths, small blocks keep every matrix product
    single-threaded in BLAS, and they keep the intermediates small.  The
    result has the bits of one single-threaded forward over all rows at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != c.architecture.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} features, classifier expects "
            f"{c.architecture.input_dim}"
        )
    n = x.shape[0]
    out = np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        # numpy sends a one-row product to gemv, whose sums differ from those
        # of gemm; a lone last row goes with the four rows before it instead
        lo = start - 4 if start and n - start == 1 else start
        out[lo : start + _BLOCK_ROWS] = _forward(c, x[lo : start + _BLOCK_ROWS])[1]
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows; each branch is the stable form for its sign of z
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def predict_proba(c: MlpClassifier, x) -> np.ndarray:
    """Predicted probability of class 1 for each row of ``x``."""
    return _sigmoid(predict_logit(c, x))


def _l2_penalty(c: MlpClassifier, l2: float) -> float:
    if l2 == 0.0:
        return 0.0
    return l2 * float(sum(np.sum(w * w) for w in c.weights))


def _bce_objective(c: MlpClassifier, logit: np.ndarray, y: np.ndarray, l2: float) -> float:
    # softplus(z) - y*z is BCE on logits without overflow for large |z|
    softplus = np.maximum(logit, 0.0) + np.log1p(np.exp(-np.abs(logit)))
    return float(np.mean(softplus - y * logit)) + _l2_penalty(c, l2)


def _backprop(c: MlpClassifier, acts, dlogit, l2: float):
    """Gradients of (objective + l2 * sum w^2) given d(objective)/d(logit)."""
    grads_w = [None] * len(c.weights)
    grads_b = [None] * len(c.biases)
    delta = dlogit[:, None]
    for li in range(len(c.weights) - 1, -1, -1):
        grads_w[li] = acts[li].T @ delta + 2.0 * l2 * c.weights[li]
        grads_b[li] = delta.sum(axis=0)
        if li > 0:
            # acts[li] = max(pre-activation, 0), so it is positive exactly where ReLU passes
            delta = (delta @ c.weights[li].T) * (acts[li] > 0)
    return grads_w, grads_b


def _bce_gradients(c: MlpClassifier, x: np.ndarray, y: np.ndarray, l2: float):
    """Logits of ``x`` and the gradients of mean BCE plus L2 penalty at labels ``y``."""
    acts, logit = _forward(c, x)
    dlogit = (_sigmoid(logit) - y) / x.shape[0]
    return logit, *_backprop(c, acts, dlogit, l2)


def loss_and_gradients(c: MlpClassifier, x: np.ndarray, labels: np.ndarray, l2: float = 0.0):
    """Mean BCE (on logits) plus L2 weight penalty, with parameter gradients.

    The objective :func:`train_binary_classifier` optimizes, with the
    gradients its step computes; the logit formulation ``softplus(z) - y*z``
    avoids overflow for large ``|z|``.
    """
    y = np.asarray(labels, dtype=np.float64)
    logit, grads_w, grads_b = _bce_gradients(c, x, y, l2)
    return _bce_objective(c, logit, y, l2), grads_w, grads_b


def adam_step(c: MlpClassifier, grads_w, grads_b, cfg: TrainConfig) -> None:
    """One in-place Adam update of all parameters.

    The per-layer gradients are gathered into one vector in the layout of
    ``c.params``, so the update is a single pass over flat buffers.
    """
    g = np.concatenate([a.ravel() for a in (*grads_w, *grads_b)])
    st = c.adam
    st.step += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1 = 1.0 - b1**st.step
    c2 = 1.0 - b2**st.step
    st.m *= b1
    st.m += (1.0 - b1) * g
    st.v *= b2
    st.v += (1.0 - b2) * g * g
    c.params -= cfg.learning_rate * (st.m / c1) / (np.sqrt(st.v / c2) + ADAM_EPS)


def _balanced_classes(pos, neg, arch: MlpArchitecture, seed: int):
    # Subsample the larger class so Pr(label=1) = 0.5 during training.
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if pos.ndim != 2 or neg.ndim != 2:
        raise ValueError("pos and neg must be row matrices")
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise ValueError("pos and neg must be nonempty")
    if pos.shape[1] != neg.shape[1]:
        raise ValueError("pos and neg must have equal column counts")
    if pos.shape[1] != arch.input_dim:
        raise ValueError(f"data has {pos.shape[1]} columns, architecture expects {arch.input_dim}")
    n = min(pos.shape[0], neg.shape[0])
    rng = rng_from(seed, 1)
    if pos.shape[0] > n:
        pos = pos[np.sort(rng.choice(pos.shape[0], size=n, replace=False))]
    if neg.shape[0] > n:
        neg = neg[np.sort(rng.choice(neg.shape[0], size=n, replace=False))]
    return pos, neg


def _check_finite(c: MlpClassifier, loss: float, where: str) -> None:
    if not np.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss at {where}")
    if not np.all(np.isfinite(c.params)):
        raise TrainingDivergedError(f"non-finite parameters at {where}")


def train_binary_classifier(
    pos: np.ndarray, neg: np.ndarray, arch: MlpArchitecture, cfg: TrainConfig, seed: int = 0
) -> MlpClassifier:
    """Train an MLP to separate ``pos`` rows (label 1) from ``neg`` rows (label 0).

    Minimizes BCE + L2 over shuffled minibatches with Adam for a fixed number
    of epochs.  Classes are balanced by subsampling the larger one; the
    minibatch order is reseeded each epoch from ``seed``.  An epoch's loss is
    taken from the logits of its own steps, and divergence is checked on that
    loss and the parameters at the end of each epoch; no full-set pass runs.
    """
    pos, neg = _balanced_classes(pos, neg, arch, seed)
    c = mlp_init(arch, derive_seed(seed, 0))
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(pos.shape[0]), np.zeros(neg.shape[0])])
    n = x.shape[0]
    logits = np.empty(n)  # each row's logit as its step scored it, in the epoch's order
    for epoch in range(cfg.epochs):
        perm = rng_from(seed, 2, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            sl = perm[start : start + cfg.batch_size]
            logits[start : start + cfg.batch_size], gw, gb = _bce_gradients(c, x[sl], y[sl], cfg.l2_coefficient)
            adam_step(c, gw, gb, cfg)
        loss = _bce_objective(c, logits, y[perm], cfg.l2_coefficient)
        _check_finite(c, loss, f"end of epoch {epoch}")
        c.epoch_losses.append(loss)
    return c


def _f_bound(fp: np.ndarray, fq: np.ndarray) -> float:
    return float(np.mean(fp) - np.mean(np.exp(fq - 1.0)))


def _f_critic_gradients(c: MlpClassifier, bp: np.ndarray, bq: np.ndarray):
    """Logits of ``bp`` then ``bq``, stacked, and the gradients of the negated
    bound -mean_p f + mean_q exp(f - 1)."""
    acts, logit = _forward(c, np.vstack([bp, bq]))
    np_, nq = bp.shape[0], bq.shape[0]
    dlogit = np.concatenate([-np.ones(np_) / np_, np.exp(logit[np_:] - 1.0) / nq])
    return logit, *_backprop(c, acts, dlogit, 0.0)


def train_f_mine_critic(
    pos: np.ndarray, neg: np.ndarray, arch: MlpArchitecture, cfg: TrainConfig, seed: int = 0
) -> MlpClassifier:
    """Train an unconstrained critic maximizing E_pos[f] - E_neg[exp(f-1)].

    ``pos`` rows are the numerator distribution.  An epoch's loss, the negated
    bound, is taken from the logits of its own steps; no full-set pass runs.
    If the exponential blows up, the loss or the parameters turn non-finite
    and training aborts at the end of that epoch with a diagnostic.  There is no
    weight decay, so ``cfg.l2_coefficient`` must be 0.  The critic route's
    defaults are ``divergence.F_MINE_DIVERGENCE``.
    """
    check_unread("f-mine-diff", cfg, "divergence.train.")
    pos, neg = _balanced_classes(pos, neg, arch, seed)
    c = mlp_init(arch, derive_seed(seed, 0))
    n = pos.shape[0]
    logits = np.empty((2, n))  # p and q logits as their steps scored them, in the epoch's order
    for epoch in range(cfg.epochs):
        rng = rng_from(seed, 2, epoch)
        perm_p = rng.permutation(n)
        perm_q = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            bp = pos[perm_p[start : start + cfg.batch_size]]
            bq = neg[perm_q[start : start + cfg.batch_size]]
            logit, gw, gb = _f_critic_gradients(c, bp, bq)
            logits[:, start : start + cfg.batch_size] = logit.reshape(2, -1)
            adam_step(c, gw, gb, cfg)
        loss = -_f_bound(logits[0], logits[1])
        _check_finite(c, loss, f"end of epoch {epoch}; lower the learning rate or epochs")
        c.epoch_losses.append(loss)
    return c
