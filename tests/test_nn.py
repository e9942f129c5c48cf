import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from cmikit import nn
from cmikit.data import derange_rows
from cmikit.divergence import F_MINE_DIVERGENCE
from cmikit.nn import (
    AdamState,
    MlpArchitecture,
    MlpClassifier,
    TrainConfig,
    TrainingDivergedError,
    _check_finite,
    _f_bound,
    _f_critic_gradients,
    _l2_penalty,
    adam_step,
    loss_and_gradients,
    mlp_init,
    predict_logit,
    predict_proba,
    train_binary_classifier,
    train_f_mine_critic,
)
from cmikit.seeding import derive_seed, rng_from


def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture(0, (64,))
    with pytest.raises(ValueError):
        MlpArchitecture(2, ())
    with pytest.raises(ValueError):
        MlpArchitecture(2, (64, 0))


def test_init_shapes():
    c = mlp_init(MlpArchitecture(2, (64, 64)), seed=7)
    assert [w.shape for w in c.weights] == [(2, 64), (64, 64), (64, 1)]
    assert [b.shape for b in c.biases] == [(64,), (64,), (1,)]


def test_init_deterministic_and_seed_sensitive():
    arch = MlpArchitecture(3, (8,))
    a = mlp_init(arch, seed=7)
    b = mlp_init(arch, seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = mlp_init(arch, seed=8)
    assert any(np.any(wa != wc) for wa, wc in zip(a.weights, c.weights))


def test_zero_network_logit():
    c = mlp_init(MlpArchitecture(4, (8, 8)), seed=0)
    for w in c.weights:
        w[:] = 0.0
    x = np.array([1.0, -2.0, 3.0, 0.5])
    assert predict_logit(c, x)[0] == 0.0
    assert predict_proba(c, x)[0] == 0.5


def test_passthrough_linear_logit():
    # hidden pre-activation stays positive, so the rectifier changes nothing
    c = mlp_init(MlpArchitecture(2, (1,)), seed=0)
    c.weights[0][:] = np.array([[1.0], [1.0]])
    c.weights[1][:] = np.array([[1.0]])
    c.biases[0][:] = 0.0
    c.biases[1][:] = 0.0
    assert predict_logit(c, np.array([2.0, 3.0]))[0] == pytest.approx(5.0)


def test_sigmoid_identity():
    c = mlp_init(MlpArchitecture(3, (16, 16)), seed=5)
    x = rng_from(1).normal(size=(50, 3))
    logit = predict_logit(c, x)
    np.testing.assert_allclose(predict_proba(c, x), 1.0 / (1.0 + np.exp(-logit)), rtol=1e-12)


# every layer over the whole matrix at once
ONE_SHOT_SCRIPT = """
import sys
import numpy as np
f = np.load(sys.argv[1])
layers = sum(name.startswith("w") for name in f.files)
h = f["x"]
for li in range(layers):
    h = h @ f[f"w{li}"] + f[f"b{li}"]
    if li < layers - 1:
        h = np.maximum(h, 0.0)
np.save(sys.argv[2], h[:, 0])
"""


def _one_shot_logit(c, x, tmp_path):
    # OpenBLAS splits a large product over its threads, and on some kernels
    # (Haswell, Zen) the split sums differ from the 64-row blocks' sums; so
    # the reference forward runs in a fresh interpreter on one BLAS thread
    net, out = tmp_path / "net.npz", tmp_path / "logit.npy"
    np.savez(net, x=x, **{f"w{i}": w for i, w in enumerate(c.weights)},
             **{f"b{i}": b for i, b in enumerate(c.biases)})
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", ONE_SHOT_SCRIPT, str(net), str(out)], env=env,
                   check=True, timeout=120)
    return np.load(out)


@pytest.mark.parametrize("hidden", [(64, 64), (16, 8)])
@pytest.mark.parametrize("n_rows", [0, 1, 63, 64, 65, 997])
def test_blocked_predict_matches_one_shot_forward(hidden, n_rows, tmp_path):
    c = mlp_init(MlpArchitecture(22, hidden), seed=3)
    c.biases[0][:] = rng_from(4).normal(size=hidden[0])
    x = rng_from(5).normal(size=(n_rows, 22))
    logit = predict_logit(c, x)
    assert logit.shape == (n_rows,)
    assert np.array_equal(logit, _one_shot_logit(c, x, tmp_path))


def test_forward_logit_is_predict_logit_on_one_row(tmp_path):
    c = mlp_init(MlpArchitecture(5, (16, 8)), seed=6)
    x = rng_from(7).normal(size=5)
    assert predict_logit(c, x)[0] == _one_shot_logit(c, x[None, :], tmp_path)[0]
    assert predict_logit(c, x).shape == (1,)


def test_forward_logit_dim_mismatch():
    c = mlp_init(MlpArchitecture(3, (4,)), seed=0)
    with pytest.raises(ValueError):
        predict_logit(c, np.zeros(2))


def test_zero_network_loss_is_ln2():
    # every logit is 0, so each row costs softplus(0) = ln 2 whatever its label
    c = mlp_init(MlpArchitecture(3, (8, 4)), seed=0)
    c.params[:] = 0.0
    x = rng_from(8).normal(size=(4, 3))
    loss, _, _ = loss_and_gradients(c, x, np.array([1.0, 0.0, 0.0, 1.0]), l2=0.0)
    assert loss == np.log(2.0)


def _finite_difference_agreement(c, gw, gb, loss, h=1e-5):
    """Share of parameters whose gradient is within 1e-4 (relative) of a
    central difference of ``loss()``."""
    ok = total = 0
    for params, grads in ((c.weights, gw), (c.biases, gb)):
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp = loss()
                p[idx] = orig - h
                lm = loss()
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                total += 1
                ok += abs(fd - g[idx]) / max(abs(g[idx]), 1e-8) < 1e-4
    return ok / total


def test_gradient_matches_finite_differences():
    arch = MlpArchitecture(3, (8, 4))
    c = mlp_init(arch, seed=13)
    rng = rng_from(21)
    x = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12).astype(float)
    l2 = 0.01
    _, gw, gb = loss_and_gradients(c, x, y, l2)
    assert _finite_difference_agreement(c, gw, gb, lambda: loss_and_gradients(c, x, y, l2)[0]) >= 0.99


def test_critic_gradient_matches_finite_differences():
    # unequal sides, so each side's 1/n weight is checked on its own
    c = mlp_init(MlpArchitecture(3, (8, 4)), seed=14)
    rng = rng_from(22)
    bp = rng.normal(size=(7, 3))
    bq = rng.normal(0.5, 1.0, size=(5, 3))
    _, gw, gb = _f_critic_gradients(c, bp, bq)
    assert _finite_difference_agreement(
        c, gw, gb, lambda: -_f_bound(predict_logit(c, bp), predict_logit(c, bq))) >= 0.99


def test_l2_penalty_has_the_bits_of_per_layer_sums():
    c = mlp_init(MlpArchitecture(22, (64, 64)), seed=8)
    c.params[:] = rng_from(9).normal(size=c.params.size)
    reference = 1e-3 * float(sum(np.sum(w * w) for w in c.weights))
    assert _l2_penalty(c, 1e-3) == reference
    assert _l2_penalty(c, 0.0) == 0.0


def test_adam_zero_gradient_noop():
    c = mlp_init(MlpArchitecture(2, (4,)), seed=3)
    before = [w.copy() for w in c.weights] + [b.copy() for b in c.biases]
    gz_w = [np.zeros_like(w) for w in c.weights]
    gz_b = [np.zeros_like(b) for b in c.biases]
    adam_step(c, gz_w, gz_b, TrainConfig())
    after = c.weights + c.biases
    for b0, a0 in zip(before, after):
        np.testing.assert_array_equal(b0, a0)


def test_train_separable_accuracy():
    rng = rng_from(17)
    pos = rng.normal(5.0, 1.0, size=(500, 2))
    neg = rng.normal(-5.0, 1.0, size=(500, 2))
    c = train_binary_classifier(pos[:400], neg[:400], MlpArchitecture(2, (64, 64)), TrainConfig(), seed=1)
    held = np.vstack([pos[400:], neg[400:]])
    labels = np.concatenate([np.ones(100), np.zeros(100)])
    acc = np.mean((predict_proba(c, held) > 0.5) == labels)
    assert acc > 0.95


def test_train_indistinguishable_classes():
    rng = rng_from(23)
    pos = rng.normal(size=(400, 3))
    neg = rng.normal(size=(400, 3))
    held = rng.normal(size=(400, 3))
    c = train_binary_classifier(pos, neg, MlpArchitecture(3, (64, 64)), TrainConfig(), seed=2)
    assert 0.45 <= float(np.mean(predict_proba(c, held))) <= 0.55


def test_train_deterministic():
    rng = rng_from(31)
    pos = rng.normal(1.0, 1.0, size=(128, 2))
    neg = rng.normal(-1.0, 1.0, size=(128, 2))
    arch = MlpArchitecture(2, (16,))
    cfg = TrainConfig(epochs=3)
    a = train_binary_classifier(pos, neg, arch, cfg, seed=9)
    b = train_binary_classifier(pos, neg, arch, cfg, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.epoch_losses == b.epoch_losses


def test_train_loss_monotone_on_separable():
    rng = rng_from(41)
    pos = rng.normal(3.0, 0.5, size=(256, 2))
    neg = rng.normal(-3.0, 0.5, size=(256, 2))
    c = train_binary_classifier(pos, neg, MlpArchitecture(2, (32,)), TrainConfig(), seed=4)
    losses = c.epoch_losses
    assert all(b <= a + 1e-3 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_train_rejects_width_mismatch():
    with pytest.raises(ValueError):
        train_binary_classifier(np.zeros((4, 2)), np.zeros((4, 2)), MlpArchitecture(3, (4,)), TrainConfig())


def test_unequal_class_sizes_subsampled():
    rng = rng_from(51)
    pos = rng.normal(2.0, 1.0, size=(900, 1))
    neg = rng.normal(-2.0, 1.0, size=(300, 1))
    c = train_binary_classifier(pos, neg, MlpArchitecture(1, (8,)), TrainConfig(), seed=3)
    # still learns the separation despite the imbalance
    assert float(np.mean(predict_proba(c, np.full((10, 1), 2.0)))) > 0.7


def test_constant_critic_objective():
    c = mlp_init(MlpArchitecture(2, (4,)), seed=0)
    for w in c.weights:
        w[:] = 0.0
    rows = rng_from(0).normal(size=(20, 2))
    # f == 0 everywhere: objective is 0 - exp(-1)
    assert _f_bound(predict_logit(c, rows), predict_logit(c, rows)) == pytest.approx(-np.exp(-1.0), rel=1e-12)
    c.biases[-1][:] = 1.0
    # f == 1 is the maximizer over constants, giving exactly 0
    assert _f_bound(predict_logit(c, rows), predict_logit(c, rows)) == pytest.approx(0.0, abs=1e-12)


def test_f_critic_same_distribution_near_zero():
    rng = rng_from(61)
    pos = rng.normal(size=(1500, 2))
    neg = rng.normal(size=(1500, 2))
    cfg = TrainConfig(
        batch_size=128, learning_rate=1e-4, adam_beta1=0.5, adam_beta2=0.999,
        epochs=60, l2_coefficient=0.0,
    )
    c = train_f_mine_critic(pos, neg, MlpArchitecture(2, (64,)), cfg, seed=5)
    held_p = rng.normal(size=(1500, 2))
    held_q = rng.normal(size=(1500, 2))
    assert abs(_f_bound(predict_logit(c, held_p), predict_logit(c, held_q))) < 0.1


def test_f_critic_recovers_gaussian_divergence():
    # joint vs product of correlated Gaussians, analytic value -0.5*ln(1-rho^2)
    rho = 0.6
    rng = rng_from(71)
    n = 5000
    x = rng.normal(size=(n, 1))
    y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=(n, 1))
    joint = np.hstack([x, y])
    prod = np.hstack([x, derange_rows(y, rng_from(72))])
    cfg = TrainConfig(
        batch_size=128, learning_rate=1e-4, adam_beta1=0.5, adam_beta2=0.999,
        epochs=200, l2_coefficient=0.0,
    )
    c = train_f_mine_critic(joint[: n // 2], prod[: n // 2], MlpArchitecture(2, (64,)), cfg, seed=6)
    est = _f_bound(predict_logit(c, joint[n // 2 :]), predict_logit(c, prod[n // 2 :]))
    assert est == pytest.approx(0.22314355, abs=0.15)


def test_f_critic_defaults_shape():
    assert F_MINE_DIVERGENCE.train.batch_size == 128
    assert F_MINE_DIVERGENCE.train.learning_rate == pytest.approx(1e-4)
    assert F_MINE_DIVERGENCE.train.adam_beta1 == pytest.approx(0.5)
    assert F_MINE_DIVERGENCE.train.epochs == 200


def test_f_critic_refuses_weight_decay_before_training(monkeypatch):
    monkeypatch.setattr(nn, "mlp_init", None)  # a fit that started would call it
    rng = rng_from(40)
    pos, neg = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    message = "divergence.train.l2_coefficient is not read by f-mine-diff; leave it at its default, got 0.001"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train_f_mine_critic(pos, neg, MlpArchitecture(2, (4,)), TrainConfig(epochs=1))


@pytest.mark.parametrize("train", [train_binary_classifier, train_f_mine_critic])
def test_trainers_refuse_data_wider_than_the_architecture(train):
    rng = rng_from(41)
    pos, neg = rng.normal(size=(40, 3)), rng.normal(size=(40, 3))
    cfg = TrainConfig(epochs=1, l2_coefficient=0.0)
    with pytest.raises(ValueError, match="^data has 3 columns, architecture expects 2$"):
        train(pos, neg, MlpArchitecture(2, (4,)), cfg)


@pytest.mark.parametrize("train", [train_binary_classifier, train_f_mine_critic])
def test_a_fit_forwards_each_training_row_once_per_epoch(train, monkeypatch):
    # unequal classes: 2 * 50 rows are trained on, in batches with a ragged tail
    rng = rng_from(43)
    pos, neg = rng.normal(size=(70, 2)), rng.normal(size=(50, 2))
    forwarded = []
    forward = nn._forward

    def counting_forward(c, x):
        forwarded.append(x.shape[0])
        return forward(c, x)

    monkeypatch.setattr(nn, "_forward", counting_forward)
    train(pos, neg, MlpArchitecture(2, (4,)), TrainConfig(batch_size=16, epochs=3, l2_coefficient=0.0), seed=5)
    assert sum(forwarded) == 3 * 100


def _one_step_epochs(rng, rows):
    # classes of equal size, so the fit trains on exactly these rows, in one step per epoch
    pos, neg = rng.normal(0.5, 1.0, size=(rows, 2)), rng.normal(-0.5, 1.0, size=(rows, 2))
    return pos, neg, MlpArchitecture(2, (8,)), TrainConfig(batch_size=2 * rows, epochs=2, l2_coefficient=0.0)


def test_classifier_epoch_loss_is_the_objective_its_steps_scored():
    # epoch 0's one step scored every row with the freshly initialised net
    pos, neg, arch, cfg = _one_step_epochs(rng_from(44), 40)
    c = train_binary_classifier(pos, neg, arch, cfg, seed=6)
    fresh = mlp_init(arch, derive_seed(6, 0))
    loss = loss_and_gradients(fresh, np.vstack([pos, neg]), np.concatenate([np.ones(40), np.zeros(40)]))[0]
    assert c.epoch_losses[0] == pytest.approx(loss, abs=1e-12)


def test_critic_epoch_loss_is_the_objective_its_steps_scored():
    pos, neg, arch, cfg = _one_step_epochs(rng_from(45), 40)
    c = train_f_mine_critic(pos, neg, arch, cfg, seed=7)
    fresh = mlp_init(arch, derive_seed(7, 0))
    bound = _f_bound(predict_logit(fresh, pos), predict_logit(fresh, neg))
    assert c.epoch_losses[0] == pytest.approx(-bound, abs=1e-12)


def test_adam_state_fresh_is_zero():
    c = mlp_init(MlpArchitecture(2, (4,)), seed=0)
    assert isinstance(c.adam, AdamState)
    assert c.adam.step == 0
    assert c.adam.m.shape == c.adam.v.shape == c.params.shape
    assert not np.any(c.adam.m) and not np.any(c.adam.v)


def test_classifier_is_dataclass():
    c = mlp_init(MlpArchitecture(2, (4,)), seed=0)
    assert isinstance(c, MlpClassifier)
    assert c.epoch_losses == []


def test_parameters_are_views_into_one_flat_buffer():
    c = mlp_init(MlpArchitecture(3, (8, 4)), seed=0)
    assert c.params.size == c.architecture.n_params == 3 * 8 + 8 * 4 + 4 * 1 + 8 + 4 + 1
    c.biases[1][2] = 7.0
    c.weights[2][3, 0] = -5.0
    assert np.count_nonzero(c.params == 7.0) == 1
    assert np.count_nonzero(c.params == -5.0) == 1


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_non_finite_bias_is_caught(value):
    # a -inf hidden bias is rectified away, so the loss alone stays finite
    c = mlp_init(MlpArchitecture(2, (4,)), seed=0)
    c.biases[0][1] = value
    with pytest.raises(TrainingDivergedError, match="non-finite parameters"):
        _check_finite(c, 0.5, "end of epoch 0")


def _diverging_classes():
    rng = rng_from(31)
    return rng.normal(size=(300, 2)), rng.normal(1.0, 1.0, size=(300, 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_classifier_fit_is_reported_at_the_end_of_its_epoch():
    pos, neg = _diverging_classes()
    cfg = TrainConfig(learning_rate=1e300, epochs=2)
    with pytest.raises(TrainingDivergedError, match="^non-finite loss at end of epoch 0$"):
        train_binary_classifier(pos, neg, MlpArchitecture(2, (8,)), cfg, seed=2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_critic_fit_is_reported_at_the_end_of_its_epoch_with_advice():
    pos, neg = _diverging_classes()
    cfg = dataclasses.replace(F_MINE_DIVERGENCE.train, learning_rate=1e300, epochs=2)
    with pytest.raises(TrainingDivergedError,
                       match="^non-finite loss at end of epoch 0; lower the learning rate or epochs$"):
        train_f_mine_critic(pos, neg, MlpArchitecture(2, (64,)), cfg)
