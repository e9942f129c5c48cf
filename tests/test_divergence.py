import dataclasses

import numpy as np
import pytest

from cmikit import divergence
from cmikit.data import derange_rows
from cmikit.datagen import gen_gauss_corr
from cmikit.divergence import (
    DivergenceConfig,
    DivergenceEstimate,
    classifier_dkl,
    classifier_dkl_paired,
    F_MINE_DIVERGENCE,
    dv_plugin,
    f_mine_dkl,
)
from cmikit.nn import TrainConfig
from cmikit.seeding import rng_from
from util import biasfree_logistic_dkl


def joint_and_product(rho, n, seed):
    d, truth = gen_gauss_corr(1, rho, n, seed)
    joint = np.hstack([d.x, d.y])
    prod = np.hstack([d.x, derange_rows(d.y, rng_from(seed, 500))])
    return joint, prod, truth.value


def test_dv_plugin_uninformative():
    assert dv_plugin([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.0


def test_dv_plugin_direct_value():
    got = dv_plugin([0.8, 0.8], [0.2, 0.2])
    assert got == pytest.approx(2 * np.log(4.0), rel=1e-12)


def test_dv_plugin_ratio_scale_invariance():
    rng = rng_from(3)
    ratios = rng.uniform(0.2, 5.0, size=40)
    for alpha in (0.1, 3.0, 42.0):
        base_p = ratios[:20] / (1 + ratios[:20])
        base_q = ratios[20:] / (1 + ratios[20:])
        scaled = alpha * ratios
        sp = scaled[:20] / (1 + scaled[:20])
        sq = scaled[20:] / (1 + scaled[20:])
        tiny = 1e-9
        assert dv_plugin(sp, sq, tiny) == pytest.approx(dv_plugin(base_p, base_q, tiny), abs=1e-10)


def test_dv_plugin_clips_internally():
    assert dv_plugin([0.9999], [0.3], clip=0.1) == pytest.approx(dv_plugin([0.9], [0.3], clip=0.1))


def test_dv_plugin_validation():
    with pytest.raises(ValueError):
        dv_plugin([], [0.5])
    with pytest.raises(ValueError):
        dv_plugin([0.5], [0.5], clip=0.5)
    with pytest.raises(ValueError):
        dv_plugin([0.5], [0.5], clip=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        DivergenceConfig(inner_iterations=0)
    with pytest.raises(ValueError):
        DivergenceConfig(clip=0.6)


def test_estimate_invariant():
    with pytest.raises(ValueError):
        DivergenceEstimate(1.0, (0.0, 0.0), 0.5)
    e = DivergenceEstimate(0.5, (0.25, 0.75), 0.9)
    assert e.value == 0.5


def test_classifier_dkl_same_distribution():
    vals = []
    for seed in range(5):
        rng = rng_from(seed, 600)
        dp = rng.normal(size=(2000, 3))
        dq = rng.normal(size=(2000, 3))
        vals.append(classifier_dkl(dp, dq, seed=seed).value)
    assert abs(float(np.mean(vals))) < 0.05


def test_classifier_dkl_correlated_gaussians():
    joint, prod, truth = joint_and_product(0.9, 5000, seed=9)
    est = classifier_dkl(joint, prod, seed=1)
    assert est.value == pytest.approx(truth, abs=0.15)
    assert est.mean_eval_accuracy > 0.5


def test_classifier_dkl_mean_shift():
    rng = rng_from(13, 600)
    dp = rng.normal(0.0, 1.0, size=(10000, 1))
    dq = rng.normal(1.0, 1.0, size=(10000, 1))
    est = classifier_dkl(dp, dq, seed=2)
    assert est.value == pytest.approx(0.5, abs=0.1)


def test_classifier_dkl_structure_and_determinism():
    joint, prod, _ = joint_and_product(0.6, 1200, seed=4)
    cfg = DivergenceConfig(inner_iterations=3)
    a = classifier_dkl(joint, prod, cfg, seed=7)
    b = classifier_dkl(joint, prod, cfg, seed=7)
    assert len(a.per_iteration) == 3
    assert a.value == pytest.approx(float(np.mean(a.per_iteration)), rel=1e-12)
    assert a.per_iteration == b.per_iteration
    assert 0.0 <= a.mean_eval_accuracy <= 1.0


def test_classifier_dkl_column_mismatch():
    with pytest.raises(ValueError):
        classifier_dkl(np.zeros((10, 2)), np.zeros((10, 3)))


def test_heavy_clipping_shrinks_estimate():
    rng = rng_from(17, 600)
    dp = rng.normal(5.0, 1.0, size=(1000, 1))
    dq = rng.normal(-5.0, 1.0, size=(1000, 1))
    wide = classifier_dkl(dp, dq, seed=3)
    tight = classifier_dkl(dp, dq, DivergenceConfig(clip=0.499), seed=3)
    assert wide.value > 1.0
    assert abs(tight.value) < 0.01


def test_f_mine_same_distribution():
    rng = rng_from(19, 600)
    dp = rng.normal(size=(2000, 2))
    dq = rng.normal(size=(2000, 2))
    est = f_mine_dkl(dp, dq, seed=1)
    assert abs(est.value) < 0.05
    assert np.isnan(est.mean_eval_accuracy)


def test_f_mine_correlated_gaussians():
    joint, prod, truth = joint_and_product(0.6, 5000, seed=21)
    est = f_mine_dkl(joint, prod, seed=2)
    assert est.value == pytest.approx(truth, abs=0.15)


def test_f_mine_lower_bound_statistical():
    truth = -0.5 * np.log1p(-0.36)
    vals = []
    for seed in range(20):
        joint, prod, _ = joint_and_product(0.6, 2000, seed=700 + seed)
        cfg = dataclasses.replace(F_MINE_DIVERGENCE, inner_iterations=1)
        vals.append(f_mine_dkl(joint, prod, cfg, seed=seed).value)
    assert float(np.mean(vals)) <= truth + 0.05


def test_f_mine_custom_epochs_run():
    joint, prod, _ = joint_and_product(0.6, 600, seed=23)
    cfg = DivergenceConfig(
        inner_iterations=1,
        hidden_layer_sizes=(32,),
        train=TrainConfig(batch_size=128, learning_rate=1e-4, adam_beta1=0.5, epochs=30, l2_coefficient=0.0),
    )
    est = f_mine_dkl(joint, prod, cfg, seed=3)
    assert np.isfinite(est.value)


def test_f_mine_dkl_refuses_clip_before_training(monkeypatch):
    def no_fit(*args):
        raise AssertionError("a fit started before clip was checked")

    monkeypatch.setattr(divergence, "process_map", no_fit)
    joint, prod, _ = joint_and_product(0.6, 40, seed=23)
    message = r"^divergence\.clip is not read by f-mine-diff; leave it at its default, got 0\.1$"
    with pytest.raises(ValueError, match=message):
        f_mine_dkl(joint, prod, dataclasses.replace(F_MINE_DIVERGENCE, clip=0.1))


def test_f_mine_dkl_refuses_weight_decay_before_training(monkeypatch):
    def no_fit(*args):
        raise AssertionError("a fit started before l2_coefficient was checked")

    monkeypatch.setattr(divergence, "process_map", no_fit)
    joint, prod, _ = joint_and_product(0.6, 40, seed=23)
    cfg = dataclasses.replace(F_MINE_DIVERGENCE, train=TrainConfig(l2_coefficient=0.1))
    message = r"^divergence\.train\.l2_coefficient is not read by f-mine-diff; leave it at its default, got 0\.1$"
    with pytest.raises(ValueError, match=message):
        f_mine_dkl(joint, prod, cfg)


@pytest.mark.parametrize("estimate, cfg", [
    (classifier_dkl, DivergenceConfig(train=TrainConfig(epochs=3))),
    (classifier_dkl_paired, DivergenceConfig(train=TrainConfig(epochs=3))),
    # 256-unit layers hand products to a second BLAS thread outside the pool
    (classifier_dkl, DivergenceConfig(hidden_layer_sizes=(256, 256), train=TrainConfig(epochs=2))),
    (f_mine_dkl, dataclasses.replace(F_MINE_DIVERGENCE, train=TrainConfig(epochs=3, learning_rate=1e-4, l2_coefficient=0.0))),
])
def test_estimates_do_not_depend_on_cmikit_threads(monkeypatch, estimate, cfg):
    joint, prod, _ = joint_and_product(0.6, 400, seed=31)
    got = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        got.append(estimate(joint, prod, cfg, seed=5))
    one, two = got
    assert one.value == two.value
    assert one.per_iteration == two.per_iteration
    if estimate is f_mine_dkl:
        assert np.isnan(one.mean_eval_accuracy) and np.isnan(two.mean_eval_accuracy)
    else:
        assert one.mean_eval_accuracy == two.mean_eval_accuracy


def test_biasfree_logistic_misses_marginal_dependence():
    # a linear no-bias discriminator cannot represent this likelihood ratio,
    # so its divergence estimate collapses even though the truth is large
    joint, prod, truth = joint_and_product(0.9, 5000, seed=25)
    est = biasfree_logistic_dkl(joint, prod, seed=1)
    assert truth == pytest.approx(0.8304, abs=1e-3)
    assert est < 0.1


def test_biasfree_logistic_protocol_detects_mean_shift():
    # sanity check on the probe itself: with a representable ratio it works
    rng = rng_from(27, 600)
    dp = rng.normal(1.0, 1.0, size=(4000, 1))
    dq = rng.normal(-1.0, 1.0, size=(4000, 1))
    assert biasfree_logistic_dkl(dp, dq, seed=2) > 0.5
