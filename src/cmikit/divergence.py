"""Two-sample KL divergence estimation.

One loop, ``_held_out_logits``, runs every held-out fit in the package: it
splits, standardizes on the training rows, trains the model its caller
names and returns its logits on the held-out rows.  The caller reduces
them: a classifier's through probabilities to the clipped variational
plug-in, a critic's straight into the exponential-moment lower bound.  The
estimate is a mean over independently re-split inner iterations, which
share nothing but the input and run through ``knn.process_map``.
"""

from dataclasses import dataclass

import numpy as np

from .data import split_rows
from .knn import process_map
from .nn import (MlpArchitecture, TrainConfig, _f_bound, _sigmoid, check_count, check_unread, predict_logit,
                 train_binary_classifier, train_f_mine_critic)
from .seeding import derive_seed

__all__ = [
    "DivergenceConfig",
    "DivergenceEstimate",
    "dv_plugin",
    "fit_standardizer",
    "classifier_dkl",
    "classifier_dkl_paired",
    "f_mine_dkl",
    "F_MINE_DIVERGENCE",
]


def fit_standardizer(rows: np.ndarray):
    """Per-column affine map to zero mean and unit spread, fit on ``rows``.

    Returns a callable to apply to any matrix with the same columns.
    Training-side moments are reused for the held-out rows so the map is one
    fixed transform, and constant columns pass through unscaled.  Networks
    train at a single learning rate, so feeding them columns on a common
    scale keeps low-variance coordinates from being underweighted.
    """
    mu = rows.mean(axis=0)
    sd = rows.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)

    def apply(a: np.ndarray) -> np.ndarray:
        return (a - mu) / sd

    return apply


@dataclass(frozen=True)
class DivergenceConfig:
    """Inner-loop protocol: repeat count, probability clipping, net shape."""

    inner_iterations: int = 2
    clip: float = 1e-3
    hidden_layer_sizes: tuple[int, ...] = (64, 64)
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        try:
            object.__setattr__(self, "hidden_layer_sizes", tuple(self.hidden_layer_sizes))
        except TypeError:
            raise ValueError(f"hidden_layer_sizes must be a list, got {self.hidden_layer_sizes!r}") from None
        check_count("inner_iterations", self.inner_iterations)
        if not self.hidden_layer_sizes:
            raise ValueError("hidden_layer_sizes must name at least one layer")
        for i, h in enumerate(self.hidden_layer_sizes):
            check_count(f"hidden_layer_sizes[{i}]", h)
        if not 0.0 < self.clip < 0.5:
            raise ValueError("clip must lie in (0, 0.5)")


@dataclass(frozen=True)
class DivergenceEstimate:
    value: float
    per_iteration: tuple[float, ...]
    mean_eval_accuracy: float

    def __post_init__(self):
        object.__setattr__(self, "per_iteration", tuple(self.per_iteration))
        if not np.isclose(self.value, float(np.mean(self.per_iteration))):
            raise ValueError("value must be the mean of per_iteration")


def dv_plugin(probs_p, probs_q, clip: float = 1e-3) -> float:
    """Variational KL plug-in from classifier probabilities, in nats.

    mean log-odds over the p-side minus the log of the mean odds over the
    q-side, with probabilities clipped to [clip, 1-clip] first.  Rescaling
    every likelihood ratio by one constant leaves the value unchanged, so
    only the classifier's ranking and spread matter.
    """
    if not 0.0 < clip < 0.5:
        raise ValueError("clip must lie in (0, 0.5)")
    p = np.asarray(probs_p, dtype=np.float64)
    q = np.asarray(probs_q, dtype=np.float64)
    if p.size == 0 or q.size == 0:
        raise ValueError("empty inputs")
    p = np.clip(p, clip, 1.0 - clip)
    q = np.clip(q, clip, 1.0 - clip)
    log_ratio_p = np.log(p) - np.log1p(-p)
    ratio_q = q / (1.0 - q)
    return float(np.mean(log_ratio_p) - np.log(np.mean(ratio_q)))


def _check_pair(dp, dq):
    dp = np.asarray(dp, dtype=np.float64)
    dq = np.asarray(dq, dtype=np.float64)
    if dp.ndim != 2 or dq.ndim != 2 or dp.shape[0] == 0 or dq.shape[0] == 0:
        raise ValueError("both sample sets must be nonempty row matrices")
    if dp.shape[1] != dq.shape[1]:
        raise ValueError(f"column mismatch: {dp.shape[1]} vs {dq.shape[1]}")
    return dp, dq


def _held_out_logits(split, cfg: DivergenceConfig, seed: int, namespace: int, train) -> list:
    """Held-out ``(p_ev, q_ev)`` logits of each of ``cfg.inner_iterations`` fits.

    ``split(it_seed)`` returns the (p_tr, q_tr, p_ev, q_ev) rows of inner
    iteration t, seeded from ``seed`` and t.  A standardizer fit on the training
    rows maps all four, ``train`` fits a fresh model on the training rows, and
    its logits on the held-out rows come back.  The iterations run through
    ``process_map``; the caller reduces their logits (``_plugin_estimate``,
    ``_critic_estimate``).  Callers look ``train`` up when they call, so a
    patched module attribute, as perfbench's tracer installs, sees every fit.
    """

    def iteration(t):
        it_seed = derive_seed(seed, namespace, t)
        p_tr, q_tr, p_ev, q_ev = split(it_seed)
        norm = fit_standardizer(np.vstack([p_tr, q_tr]))
        p_tr, q_tr, p_ev, q_ev = norm(p_tr), norm(q_tr), norm(p_ev), norm(q_ev)
        arch = MlpArchitecture(p_tr.shape[1], cfg.hidden_layer_sizes)
        c = train(p_tr, q_tr, arch, cfg.train, derive_seed(it_seed, 3))
        return predict_logit(c, p_ev), predict_logit(c, q_ev)

    return process_map(iteration, range(cfg.inner_iterations))


def _plugin_estimate(fits, clip: float) -> DivergenceEstimate:
    """Clipped plug-in and accuracy of each classifier fit's held-out probabilities."""
    values, accs = [], []
    for lp, lq in fits:
        gp, gq = _sigmoid(lp), _sigmoid(lq)
        values.append(dv_plugin(gp, gq, clip))
        accs.append(float(np.sum(gp > 0.5) + np.sum(gq <= 0.5)) / (gp.size + gq.size))
    return DivergenceEstimate(float(np.mean(values)), values, float(np.mean(accs)))


def _critic_estimate(fits) -> DivergenceEstimate:
    """Exponential-moment bound of each critic fit's held-out logits; accuracy is nan."""
    values = [_f_bound(lp, lq) for lp, lq in fits]
    return DivergenceEstimate(float(np.mean(values)), values, float("nan"))


def _split_each(dp, dq, it_seed):
    """Independent 50/50 splits of the two sides."""
    p_tr, p_ev = split_rows(dp, derive_seed(it_seed, 1))
    q_tr, q_ev = split_rows(dq, derive_seed(it_seed, 2))
    return p_tr, q_tr, p_ev, q_ev


def _split_paired(stacked, d, it_seed):
    """One 50/50 split of the side-by-side rows, shared by both sides."""
    tr, ev = split_rows(stacked, derive_seed(it_seed, 1))
    return tr[:, :d], tr[:, d:], ev[:, :d], ev[:, d:]


def classifier_dkl(dp, dq, cfg: DivergenceConfig = DivergenceConfig(), seed: int = 0) -> DivergenceEstimate:
    """KL divergence of the dp distribution from the dq distribution.

    Each inner iteration re-splits both sides in half, trains a fresh
    discriminator (dp rows labeled 1) on the training halves, and evaluates
    the plug-in on the held-out halves with clipped probabilities.
    """
    dp, dq = _check_pair(dp, dq)
    fits = _held_out_logits(lambda s: _split_each(dp, dq, s), cfg, seed, 21, train_binary_classifier)
    return _plugin_estimate(fits, cfg.clip)


def classifier_dkl_paired(dp, dq, cfg: DivergenceConfig = DivergenceConfig(), seed: int = 0) -> DivergenceEstimate:
    """Variant of ``classifier_dkl`` for aligned designs: row i of dq derives
    from row i of dp (a resampled block, a rewired pairing).

    Splitting the two sides independently would let the values behind an
    evaluation row show up among the training rows of the other side, and
    anything the discriminator memorizes about them skews the held-out odds.
    One row split shared by both sides keeps each underlying draw entirely on
    a single side of the train/eval fence.
    """
    dp, dq = _check_pair(dp, dq)
    if dp.shape[0] != dq.shape[0]:
        raise ValueError("paired splitting needs equal row counts")
    stacked = np.hstack([dp, dq])
    fits = _held_out_logits(lambda s: _split_paired(stacked, dp.shape[1], s), cfg, seed, 23, train_binary_classifier)
    return _plugin_estimate(fits, cfg.clip)


# The critic's defaults: one 64-unit hidden layer, long low-rate training, no weight decay.
F_MINE_DIVERGENCE = DivergenceConfig(
    hidden_layer_sizes=(64,),
    train=TrainConfig(batch_size=128, learning_rate=1e-4, adam_beta1=0.5, epochs=200, l2_coefficient=0.0),
)


def f_mine_dkl(dp, dq, cfg: DivergenceConfig = F_MINE_DIVERGENCE, seed: int = 0) -> DivergenceEstimate:
    """KL lower-bound estimate from a trained critic, on held-out halves.

    The critic maximizes E_p[f] - E_q[exp(f-1)] on the training halves; the
    same objective evaluated on the evaluation halves is the estimate.  No
    probabilities or weight decay are involved, so ``cfg.clip`` and
    ``cfg.train.l2_coefficient`` keep their defaults and accuracy is nan.
    """
    dp, dq = _check_pair(dp, dq)
    check_unread("f-mine-diff", cfg, "divergence.")
    return _critic_estimate(_held_out_logits(lambda s: _split_each(dp, dq, s), cfg, seed, 22, train_f_mine_critic))
