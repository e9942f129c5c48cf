"""MI and CMI estimators built on the two-sample divergence routines.

Two routes to a conditional value: the difference route subtracts two
marginal MI estimates (chain rule), and the generator route compares the
joint sample against a conditionally resampled one.  Both report raw nats;
negative outputs can optionally be truncated to zero for presentation.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import SampleSet, derange_rows, split_half, split_rows
from .divergence import (DivergenceConfig, F_MINE_DIVERGENCE, _critic_estimate, _held_out_logits,
                         _plugin_estimate, classifier_dkl_paired)
from .knn import knn_permute_apply, load_scipy, process_map
from .nn import TrainingDivergedError, check_count, check_unread, train_binary_classifier, train_f_mine_critic
from .seeding import derive_seed, rng_from

__all__ = [
    "EstimatorConfig",
    "CmiEstimate",
    "classifier_mi",
    "mi_diff_cmi",
    "generator_classifier_cmi",
    "bias_corrected_cmi",
    "default_candidates",
    "with_train",
    "F_MINE_CONFIG",
    "f_mine_mi",
    "f_mine_diff_cmi",
    "hyperparam_select",
]

@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by all estimator paths.

    ``bootstrap`` of None picks the path default: 1 for difference-based
    estimators, 10 for generator-based ones where resampling noise dominates.
    """

    bootstrap: int | None = None
    divergence: DivergenceConfig = DivergenceConfig()
    generator_k: int = 5
    truncate_negative: bool = False

    def __post_init__(self):
        if self.bootstrap is not None:  # None picks the path default
            check_count("bootstrap", self.bootstrap)
        check_count("generator_k", self.generator_k)


F_MINE_CONFIG = EstimatorConfig(divergence=F_MINE_DIVERGENCE)  # the critic routes' defaults

# The dotted EstimatorConfig leaves each CLI method (and calibrate) never reads: ``nn.check_unread`` enforces it.
UNREAD_LEAVES = {
    "ccmi": ("generator_k",),
    "f-mine-diff": ("generator_k", "divergence.clip", "divergence.train.l2_coefficient"),
    "gen-classifier": (),
    "calibrate": ("generator_k", "truncate_negative", "divergence.clip"),
}


@dataclass(frozen=True)
class CmiEstimate:
    value: float
    components: tuple[float, float] | None = None
    per_bootstrap: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "per_bootstrap", tuple(self.per_bootstrap))
        if self.components is not None:
            object.__setattr__(self, "components", tuple(self.components))

    @property
    def bootstrap_std(self) -> float | None:
        """Sample spread of the rounds; None below two rounds, where none was measured."""
        if len(self.per_bootstrap) < 2:
            return None
        return float(np.std(self.per_bootstrap, ddof=1))


def _finish(value: float, cfg: EstimatorConfig, components=None, per_bootstrap=()) -> CmiEstimate:
    if cfg.truncate_negative and value < 0.0:
        value = 0.0
    return CmiEstimate(float(value), components, per_bootstrap)


def _mi_logits(x, y, cfg: EstimatorConfig, seed: int, namespace: int, train) -> list:
    """Held-out logits of every fit behind an I(X;Y) estimate, one list per bootstrap round.

    Each fit discriminates the observed (x, y) pairing from a rewired one.
    The train/eval split happens first; each part then gets its own
    fixed-point-free repairing of the y rows against x to stand in for the
    product of marginals.  Every underlying draw stays on a single side of
    the fence in both pairings, so the held-out scores are free of
    memorization bias.
    """
    d = SampleSet(x, y, ())  # checks shapes, row counts and finiteness
    if d.n < 4:
        raise ValueError("need at least 4 samples")
    joint = np.hstack([d.x, d.y])

    def split(s):  # each half as observed, then with its y rows deranged against its x rows
        p_tr, p_ev = split_rows(joint, derive_seed(s, 1))
        q_tr = np.hstack([p_tr[:, : d.dx], derange_rows(p_tr[:, d.dx :], rng_from(derive_seed(s, 2)))])
        q_ev = np.hstack([p_ev[:, : d.dx], derange_rows(p_ev[:, d.dx :], rng_from(derive_seed(s, 4)))])
        return p_tr, q_tr, p_ev, q_ev

    seeds = [derive_seed(derive_seed(seed, 31, i), 2) for i in range(cfg.bootstrap or 1)]
    return [_held_out_logits(split, cfg.divergence, s, namespace, train) for s in seeds]


def _classifier_mi_logits(x, y, cfg: EstimatorConfig, seed: int) -> list:
    """The held-out (joint, rewired) logits behind ``classifier_mi(x, y, cfg, seed)``."""
    return _mi_logits(x, y, cfg, seed, 21, train_binary_classifier)


def classifier_mi(x, y, cfg: EstimatorConfig = EstimatorConfig(), seed: int = 0) -> CmiEstimate:
    """I(X;Y) in nats: discriminate the joint sample from a rewired pairing.

    The stand-in for the product of marginals keeps x rows fixed and
    permutes y rows with no fixed points.  The repairing is done after the
    train/eval split, separately within each part, so nothing the
    discriminator saw in training reappears at evaluation.
    """
    check_unread("ccmi", cfg)
    vals = [_plugin_estimate(fits, cfg.divergence.clip).value for fits in _classifier_mi_logits(x, y, cfg, seed)]
    return _finish(float(np.mean(vals)), cfg, per_bootstrap=vals)


def f_mine_mi(x, y, cfg: EstimatorConfig = F_MINE_CONFIG, seed: int = 0) -> CmiEstimate:
    """I(X;Y) via the critic lower bound instead of the classifier plug-in."""
    check_unread("f-mine-diff", cfg)
    vals = [_critic_estimate(fits).value for fits in _mi_logits(x, y, cfg, seed, 22, train_f_mine_critic)]
    return _finish(float(np.mean(vals)), cfg, per_bootstrap=vals)


def _diff_cmi(mi: Callable, d: SampleSet, cfg: EstimatorConfig, seed: int) -> CmiEstimate:
    if d.dz == 0:
        return mi(d.x, d.y, cfg, seed)
    raw = dataclasses.replace(cfg, truncate_negative=False)
    i_xyz = mi(d.x, np.hstack([d.y, d.z]), raw, derive_seed(seed, 41, 0))
    i_xz = mi(d.x, d.z, raw, derive_seed(seed, 41, 1))
    per = tuple(a - b for a, b in zip(i_xyz.per_bootstrap, i_xz.per_bootstrap))
    return _finish(
        i_xyz.value - i_xz.value, cfg,
        components=(i_xyz.value, i_xz.value), per_bootstrap=per,
    )


def mi_diff_cmi(d: SampleSet, cfg: EstimatorConfig = EstimatorConfig(), seed: int = 0) -> CmiEstimate:
    """I(X;Y|Z) as I(X;Y,Z) - I(X;Z), each term a classifier MI estimate.

    The two terms use the same hyperparameters with independent derived
    seeds; ``components`` carries them so the chain-rule identity is
    auditable.  With no conditioning block this reduces exactly to
    ``classifier_mi``.
    """
    return _diff_cmi(classifier_mi, d, cfg, seed)


def f_mine_diff_cmi(d: SampleSet, cfg: EstimatorConfig = F_MINE_CONFIG, seed: int = 0) -> CmiEstimate:
    """Difference-route CMI with the critic bound as the MI engine."""
    return _diff_cmi(f_mine_mi, d, cfg, seed)


def _generated_half(d: SampleSet, cfg: EstimatorConfig, b_seed: int, generator_fn: Callable | None):
    """Split the data; conditionally resample y for one half from the other.

    ``generator_fn(pool, z_query, seed)`` may replace the nearest-neighbor
    resampler; it receives the fitting half as a SampleSet and must return
    one y row per query row.  When rounds run in parallel it runs in a forked
    pool worker: its side effects stay there, and its exceptions must pickle.
    """
    d_class, d_gen = split_half(d, derive_seed(b_seed, 1))
    gen_seed = derive_seed(b_seed, 2)
    if generator_fn is None:
        y_marg = knn_permute_apply(d_gen.y, d_gen.z, d_class.z, k=cfg.generator_k, seed=gen_seed)
    else:
        y_marg = np.asarray(generator_fn(d_gen, d_class.z, gen_seed), dtype=np.float64)
        if y_marg.ndim == 1:
            y_marg = y_marg[:, None]
        if y_marg.shape != d_class.y.shape:
            raise ValueError(
                f"generator_fn returned shape {y_marg.shape}, expected {d_class.y.shape}"
            )
    return d_class, y_marg


def _generator_rounds(d: SampleSet, cfg: EstimatorConfig, seed: int, generator_fn, corrected: bool):
    """Per-round (main, correction) divergences of the generator route.

    Each round splits the data, resamples y for one half from the other
    (``_generated_half``), and scores the real half against the resampled
    one; with ``corrected`` it also scores the resampled (y, z) rows against
    the real ones.  The correction list is empty otherwise.  The rounds run
    through one ``process_map``, each whole in one forked worker, user
    ``generator_fn`` and held-out iterations included.
    """
    if d.dz < 1:
        raise ValueError("generator path needs a conditioning block")
    if d.n < 8:
        raise ValueError("need at least 8 samples")

    def one_round(i):
        b_seed = derive_seed(seed, 51, i)
        d_class, y_marg = _generated_half(d, cfg, b_seed, generator_fn)
        joint = np.hstack([d_class.x, d_class.y, d_class.z])
        marg = np.hstack([d_class.x, y_marg, d_class.z])
        main = classifier_dkl_paired(joint, marg, cfg.divergence, derive_seed(b_seed, 3))
        if not corrected:
            return main.value, None
        yz_marg = np.hstack([y_marg, d_class.z])
        corr = classifier_dkl_paired(np.hstack([d_class.y, d_class.z]), yz_marg, cfg.divergence, derive_seed(b_seed, 4))
        return main.value, corr.value

    if generator_fn is None:
        load_scipy()  # before the fork, so the workers inherit it
    rounds = process_map(one_round, range(cfg.bootstrap or 10))
    return [m for m, _ in rounds], [c for _, c in rounds if c is not None]


def generator_classifier_cmi(
    d: SampleSet,
    cfg: EstimatorConfig = EstimatorConfig(),
    seed: int = 0,
    *,
    generator_fn: Callable | None = None,
) -> CmiEstimate:
    """I(X;Y|Z) by discriminating the joint half from a resampled-y half.

    Each bootstrap round re-splits the data, resamples y conditionally on z
    from the held-out pool, and scores the divergence between the real and
    resampled halves; the estimate is the round mean.  ``generator_fn``
    swaps in a custom conditional resampler (see ``_generated_half``).
    """
    vals, _ = _generator_rounds(d, cfg, seed, generator_fn, corrected=False)
    return _finish(float(np.mean(vals)), cfg, per_bootstrap=vals)


def bias_corrected_cmi(
    d: SampleSet,
    cfg: EstimatorConfig = EstimatorConfig(),
    seed: int = 0,
    *,
    generator_fn: Callable | None = None,
) -> CmiEstimate:
    """Generator-route CMI with the resampler's own error subtracted out.

    An imperfect conditional resampler inflates the first divergence; the
    same resampled rows scored against the plain (y, z) sample measure that
    inflation, and the difference cancels it.  ``components`` holds the two
    divergence means.  ``generator_fn`` swaps in a custom conditional
    resampler (see ``_generated_half``).
    """
    mains, corrections = _generator_rounds(d, cfg, seed, generator_fn, corrected=True)
    vals = [m - c for m, c in zip(mains, corrections)]
    return _finish(
        float(np.mean(vals)), cfg,
        components=(float(np.mean(mains)), float(np.mean(corrections))),
        per_bootstrap=vals,
    )


def hyperparam_select(d, candidates, estimator: Callable = mi_diff_cmi, seed: int = 0):
    """Run ``estimator(d, candidate, seed)`` for each candidate config; keep the largest value.

    The plug-in estimates a lower bound, so among configurations the largest
    finite estimate is the principled pick.  Returns (config, estimate).
    A candidate whose training diverges (``TrainingDivergedError``) or whose
    estimate is nan or infinite counts as failed.  Any other exception, such
    as a ``ValueError`` for bad input, a refused config leaf or a shape bug,
    propagates.  Raises ``RuntimeError`` if every candidate fails.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("need at least one candidate config")
    best = None
    failures = []
    for cand in candidates:
        try:
            est = estimator(d, cand, seed)
        except TrainingDivergedError as exc:  # candidate failures are data
            failures.append(str(exc))
            continue
        if not np.isfinite(est.value):
            failures.append(f"non-finite estimate {est.value}")
        elif best is None or est.value > best[1].value:
            best = (cand, est)
    if best is None:
        detail = "; ".join(failures)
        raise RuntimeError(f"all {len(candidates)} candidate configs failed: {detail}")
    return best


def with_train(cfg: EstimatorConfig, **train_kw) -> EstimatorConfig:
    """Copy ``cfg`` with the nested classifier training fields replaced."""
    train = dataclasses.replace(cfg.divergence.train, **train_kw)
    return dataclasses.replace(cfg, divergence=dataclasses.replace(cfg.divergence, train=train))


def default_candidates(bootstrap: int | None = None) -> list[EstimatorConfig]:
    """Standard candidate grid for ``hyperparam_select``.

    Four configs spanning the regularization range: the defaults, two more
    heavily weight-decayed variants with extra epochs for smooth
    high-dimensional targets, and a longer low-decay run for sharp ones.
    """
    base = EstimatorConfig(bootstrap=bootstrap)
    return [
        base,
        with_train(base, epochs=30, l2_coefficient=3e-3),
        with_train(base, epochs=30, l2_coefficient=5e-3),
        with_train(base, epochs=50),
    ]
