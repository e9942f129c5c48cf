import dataclasses

import numpy as np
import pytest

from cmikit.data import SampleSet
from cmikit.datagen import gen_gauss_corr, gen_linear, gen_post_nonlinear_cit
from cmikit.divergence import f_mine_defaults
from cmikit.estimators import (
    CmiEstimate,
    EstimatorConfig,
    bias_corrected_cmi,
    classifier_mi,
    default_candidates,
    f_mine_diff_cmi,
    f_mine_mi,
    generator_classifier_cmi,
    hyperparam_select,
    mi_diff_cmi,
    with_train,
)
from cmikit.knn import ksg_cmi_sweep
from cmikit.nn import TrainingDivergedError


def mi_on_pair(pair, cfg):
    return classifier_mi(pair[0], pair[1], cfg)


def with_hidden(cfg, units):
    div = dataclasses.replace(cfg.divergence, hidden_layer_sizes=(units, units))
    return dataclasses.replace(cfg, divergence=div)


def independent_pair(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1)), rng.normal(size=(n, 1))


def x_indep_yz(n, seed):
    """x on its own; (y, z) a dependent pair, so the conditional MI is zero."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 1))
    z = rng.normal(size=(n, 1))
    y = 0.7 * z + 0.6 * rng.normal(size=(n, 1))
    return SampleSet(x=x, y=y, z=z)


def perfect_resampler(pool, z_query, seed):
    """Exact conditional law of y given z for the additive uniform model."""
    rng = np.random.default_rng(seed)
    return rng.normal(z_query[:, 0], np.sqrt(1.0 + 0.01))[:, None]


def shifted_resampler(pool, z_query, seed):
    """Conditional resampler with a deliberate mean bias."""
    rng = np.random.default_rng(seed)
    return rng.normal(z_query[:, 0] + 1.5, np.sqrt(2.0))[:, None]


# ---------------------------------------------------------------- classifier_mi


def test_independent_inputs_score_near_zero():
    vals = []
    for s in range(5):
        x, y = independent_pair(5000, 210 + s)
        vals.append(classifier_mi(x, y, EstimatorConfig(seed=s)).value)
    assert abs(np.mean(vals)) < 0.05


def test_strongly_correlated_pair_tracks_analytic_value(gauss_mi_runs):
    truth, vals, _ = gauss_mi_runs[0.9]
    assert np.mean(vals) == pytest.approx(truth, abs=0.15)


def test_ten_coordinate_pairs_within_twenty_percent(highdim_selection):
    truth, vals = highdim_selection
    assert abs(np.mean(vals) - truth) <= 0.2 * truth


def test_f_mine_route_on_correlated_pair():
    d, gt = gen_gauss_corr(d=1, rho=0.6, n=2000, seed=220)
    est = f_mine_mi(d.x, d.y)
    assert est.value == pytest.approx(gt.value, abs=0.15)


# ---------------------------------------------------------------- mi_diff_cmi


def test_diff_route_null_when_x_independent_of_rest():
    for s in range(5):
        est = mi_diff_cmi(x_indep_yz(5000, 200 + s), EstimatorConfig(seed=s))
        assert abs(est.value) <= 0.07
        assert est.value == est.components[0] - est.components[1]


def test_diff_route_additive_uniform_benchmark(mi_diff_model1_dz20, model1_dz20):
    est, _ = mi_diff_model1_dz20
    _, gt = model1_dz20
    assert est.value == pytest.approx(gt.value, abs=0.3)


def test_diff_route_additive_normal_benchmark(mi_diff_model2_dz20, model2_dz20):
    est, _ = mi_diff_model2_dz20
    _, gt = model2_dz20
    assert est.value == pytest.approx(gt.value, abs=0.3)


def test_diff_route_degenerates_to_plain_mi_without_conditioning():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(600, 1))
    y = x + rng.normal(size=(600, 1))
    d = SampleSet(x=x, y=y, z=np.empty((600, 0)))
    cfg = EstimatorConfig(seed=4)
    assert mi_diff_cmi(d, cfg) == classifier_mi(x, y, cfg)


def test_f_mine_diff_route_null():
    est = f_mine_diff_cmi(x_indep_yz(2000, 205))
    assert abs(est.value) <= 0.2


# ------------------------------------------------------- generator_classifier_cmi


def test_generator_route_null_on_conditionally_independent_data():
    d, _ = gen_post_nonlinear_cit(d_z=5, n=2000, dependent=False, seed=240)
    est = generator_classifier_cmi(d, EstimatorConfig(bootstrap=5, seed=0))
    assert abs(est.value) < 0.1


def test_generator_route_additive_uniform_benchmark(generator_model1_dz20, model1_dz20):
    _, gt = model1_dz20
    assert generator_model1_dz20.value == pytest.approx(gt.value, abs=0.5)


def test_generator_route_bootstrap_spread():
    d, _ = gen_linear("I", d_z=5, n=2000, seed=55)
    one = generator_classifier_cmi(d, EstimatorConfig(bootstrap=1, seed=0))
    ten = generator_classifier_cmi(d, EstimatorConfig(bootstrap=10, seed=0))
    assert ten.bootstrap_std > 0.0
    assert one.bootstrap_std == 0.0
    assert abs(ten.value - one.value) <= 0.2
    # the single round is literally the first of the ten
    assert one.value == ten.per_bootstrap[0]


# ---------------------------------------------------------- bias_corrected_cmi


def test_correction_vanishes_under_exact_resampler():
    cfg = EstimatorConfig(bootstrap=5, seed=7)
    for s in (60, 61):
        d, _ = gen_linear("I", d_z=5, n=4000, seed=s)
        est = bias_corrected_cmi(d, cfg, generator_fn=perfect_resampler)
        assert abs(est.components[1]) < 0.05
        assert abs(est.value - est.components[0]) < 0.05


def test_correction_rescues_biased_resampler():
    cfg = EstimatorConfig(bootstrap=5, seed=7)
    raw, corrected, truth = [], [], None
    for s in range(5):
        d, gt = gen_linear("I", d_z=5, n=4000, sigma_eps=1.0, seed=60 + s)
        truth = gt.value
        est = bias_corrected_cmi(d, cfg, generator_fn=shifted_resampler)
        raw.append(est.components[0])
        corrected.append(est.value)
    err_raw = abs(np.mean(raw) - truth)
    err_corrected = abs(np.mean(corrected) - truth)
    assert err_corrected < err_raw


def test_correction_grows_when_neighborhood_degenerates():
    # resampling y uniformly from the whole pool (k = n/2 covers it) leaves
    # a detectable y-z mismatch that a tight neighborhood does not
    wide, tight = [], []
    for s in (60, 61):
        d, _ = gen_linear("I", d_z=5, n=4000, seed=s)
        wide.append(
            bias_corrected_cmi(d, EstimatorConfig(bootstrap=5, generator_k=2000, seed=7)).components[1]
        )
        tight.append(
            bias_corrected_cmi(d, EstimatorConfig(bootstrap=5, generator_k=5, seed=7)).components[1]
        )
    assert np.mean(wide) > 0.0
    assert np.mean(wide) > np.mean(tight)


def test_correction_cancels_on_conditionally_independent_data():
    d, _ = gen_post_nonlinear_cit(d_z=5, n=4000, dependent=False, seed=77)
    est = bias_corrected_cmi(d, EstimatorConfig(bootstrap=5, generator_k=2000, seed=0))
    assert abs(est.value) <= 0.1


def test_uncorrected_run_matches_correction_main_term():
    d, _ = gen_linear("I", d_z=2, n=600, seed=9)
    cfg = EstimatorConfig(bootstrap=2, seed=3)
    plain = generator_classifier_cmi(d, cfg)
    paired = bias_corrected_cmi(d, cfg)
    assert plain.value == paired.components[0]


# ---------------------------------------------------------- hyperparam_select


def test_single_candidate_returned_as_is():
    d, _ = gen_gauss_corr(d=1, rho=0.6, n=500, seed=0)
    cand = EstimatorConfig(seed=0)
    cfg, est = hyperparam_select((d.x, d.y), [cand], estimator=mi_on_pair)
    assert cfg is cand
    assert est == classifier_mi(d.x, d.y, cand)


def test_width_variants_both_land_and_max_wins():
    d, gt = gen_gauss_corr(d=1, rho=0.9, n=5000, seed=230)
    cands = [with_hidden(EstimatorConfig(seed=0), u) for u in (64, 256)]
    cfg, est = hyperparam_select((d.x, d.y), cands, estimator=mi_on_pair)
    vals = [classifier_mi(d.x, d.y, c).value for c in cands]
    for v in vals:
        assert v == pytest.approx(gt.value, abs=0.15)
    assert est.value == max(vals)


def test_crippled_candidate_loses_to_default():
    d, _ = gen_gauss_corr(d=1, rho=0.9, n=5000, seed=230)
    crippled = with_train(EstimatorConfig(seed=0), epochs=1)
    default = EstimatorConfig(seed=0)
    cfg, est = hyperparam_select((d.x, d.y), [crippled, default], estimator=mi_on_pair)
    assert cfg == default
    assert est.value > classifier_mi(d.x, d.y, crippled).value


def test_selection_requires_candidates_and_survives_failures():
    d, _ = gen_gauss_corr(d=1, rho=0.6, n=500, seed=0)
    with pytest.raises(ValueError):
        hyperparam_select((d.x, d.y), [], estimator=mi_on_pair)

    def broken(pair, cfg):
        raise ValueError("no fit")

    with pytest.raises(RuntimeError):
        hyperparam_select((d.x, d.y), [EstimatorConfig()], estimator=broken)


@pytest.mark.parametrize("values, pick", [((np.nan, 1.0), 1), ((1.0, np.inf), 0), ((-np.inf, -0.5), 1)])
def test_selection_counts_nonfinite_estimates_as_failures(values, pick):
    cands = [EstimatorConfig(seed=i) for i in range(len(values))]
    cfg, est = hyperparam_select(None, cands, estimator=lambda d, c: CmiEstimate(values[c.seed]))
    assert cfg is cands[pick]
    assert est.value == values[pick]


def test_selection_fails_when_every_estimate_is_nonfinite():
    cands = [EstimatorConfig(seed=i) for i in range(2)]
    values = (np.nan, np.inf)
    with pytest.raises(RuntimeError, match="2 candidate.*non-finite estimate nan; non-finite estimate inf"):
        hyperparam_select(None, cands, estimator=lambda d, c: CmiEstimate(values[c.seed]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_selection_skips_a_candidate_that_diverges_in_a_worker(monkeypatch):
    monkeypatch.setenv("CMIKIT_THREADS", "2")
    d, _ = gen_gauss_corr(d=1, rho=0.6, n=500, seed=0)
    good = with_train(EstimatorConfig(seed=0), epochs=3)
    bad = with_train(good, learning_rate=1e300)
    with pytest.raises(TrainingDivergedError):
        mi_on_pair((d.x, d.y), bad)
    cfg, est = hyperparam_select((d.x, d.y), [bad, good], estimator=mi_on_pair)
    assert cfg is good
    assert est == classifier_mi(d.x, d.y, good)


def test_selection_does_not_swallow_programming_errors():
    d, _ = gen_gauss_corr(d=1, rho=0.6, n=500, seed=0)

    def misused(pair, cfg):
        raise TypeError("wrong call")

    with pytest.raises(TypeError, match="wrong call"):
        hyperparam_select((d.x, d.y), [EstimatorConfig()], estimator=misused)


def test_default_candidate_grid_shape():
    grid = default_candidates(seed=3)
    assert len(grid) == 4
    assert grid[0] == EstimatorConfig(seed=3)
    assert all(c.seed == 3 for c in grid)
    assert len({(c.divergence.train.epochs, c.divergence.train.l2_coefficient) for c in grid}) == 4


# ------------------------------------------------------------------ invariants


def test_argument_order_symmetry():
    fw, bw = [], []
    for s in range(5):
        d, _ = gen_gauss_corr(d=1, rho=0.6, n=5000, seed=220 + s)
        fw.append(classifier_mi(d.x, d.y, EstimatorConfig(seed=s)).value)
        bw.append(classifier_mi(d.y, d.x, EstimatorConfig(seed=s)).value)
    assert abs(np.mean(fw) - np.mean(bw)) <= 0.1


def test_affine_rescaling_leaves_estimate_alone():
    d, _ = gen_gauss_corr(d=1, rho=0.6, n=2000, seed=0)
    cfg = EstimatorConfig(seed=0)
    base = classifier_mi(d.x, d.y, cfg).value
    scaled = classifier_mi(10.0 * d.x, 10.0 * d.y, cfg).value
    assert abs(base - scaled) <= 0.15


def test_truncation_flag_clamps_negatives():
    x, y = independent_pair(5000, 210)
    raw = classifier_mi(x, y, EstimatorConfig(seed=0))
    clamped = classifier_mi(x, y, EstimatorConfig(seed=0, truncate_negative=True))
    assert raw.value < 0.0
    assert clamped.value == 0.0


def test_estimates_are_bit_reproducible():
    d, _ = gen_gauss_corr(d=1, rho=0.6, n=500, seed=0)
    cfg = EstimatorConfig(seed=11)
    assert classifier_mi(d.x, d.y, cfg) == classifier_mi(d.x, d.y, cfg)
    dd, _ = gen_linear("I", d_z=1, n=500, seed=12)
    assert mi_diff_cmi(dd, cfg) == mi_diff_cmi(dd, cfg)


def test_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        classifier_mi(rng.normal(size=(10, 1)), rng.normal(size=(8, 1)))
    with pytest.raises(ValueError):
        classifier_mi(rng.normal(size=(3, 1)), rng.normal(size=(3, 1)))
    no_z = SampleSet(x=rng.normal(size=(50, 1)), y=rng.normal(size=(50, 1)), z=np.empty((50, 0)))
    with pytest.raises(ValueError):
        generator_classifier_cmi(no_z)
    tiny = SampleSet(x=rng.normal(size=(4, 1)), y=rng.normal(size=(4, 1)), z=rng.normal(size=(4, 1)))
    with pytest.raises(ValueError):
        bias_corrected_cmi(tiny)
    with pytest.raises(ValueError):
        EstimatorConfig(bootstrap=0)
    with pytest.raises(ValueError):
        EstimatorConfig(generator="gan")
    with pytest.raises(ValueError):
        EstimatorConfig(generator_k=0)


@pytest.mark.parametrize("block, bad", [("x", np.nan), ("y", np.inf)])
def test_nonfinite_input_is_rejected_before_training(block, bad):
    rng = np.random.default_rng(0)
    xy = {"x": rng.normal(size=(50, 1)), "y": rng.normal(size=(50, 2))}
    xy[block][3, 0] = bad
    with pytest.raises(ValueError, match=f"non-finite entries in {block} block"):
        classifier_mi(xy["x"], xy["y"])


# ------------------------------------------------------- thread-count independence


@pytest.mark.parametrize("estimate", [
    lambda d: ksg_cmi_sweep(d, [3, 5], seed=2),
    lambda d: generator_classifier_cmi(d, EstimatorConfig(bootstrap=2, seed=3)).value,
    lambda d: mi_diff_cmi(d, with_train(EstimatorConfig(seed=4), epochs=3)),
    lambda d: f_mine_diff_cmi(d, with_train(EstimatorConfig(divergence=f_mine_defaults(), seed=4), epochs=3)),
])
def test_estimates_do_not_depend_on_cmikit_threads(monkeypatch, estimate):
    d, _ = gen_linear("I", d_z=3, n=400, seed=61)
    values = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        values.append(estimate(d))
    assert values[0] == values[1]
