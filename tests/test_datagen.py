
import re

import numpy as np
import pytest

from cmikit.datagen import (
    KIND_FIELDS,
    GroundTruth,
    ModelSpec,
    gen_gauss_corr,
    gen_linear,
    gen_nonlinear,
    gen_post_nonlinear_cit,
    generate,
    nonlinear_ground_truth,
)


def test_gauss_corr_truth_zero_rho():
    _, t = gen_gauss_corr(1, 0.0, 100, seed=0)
    assert t.value == 0.0
    assert t.method == "analytic"


def test_gauss_corr_truth_values():
    _, t1 = gen_gauss_corr(1, 0.9, 10, seed=0)
    assert t1.value == pytest.approx(0.8303656, abs=1e-6)
    _, t10 = gen_gauss_corr(10, 0.5, 10, seed=0)
    assert t10.value == pytest.approx(1.4384104, abs=1e-6)


def test_gauss_corr_sample_correlation():
    d, _ = gen_gauss_corr(3, 0.7, 50000, seed=1)
    for j in range(3):
        r = np.corrcoef(d.x[:, j], d.y[:, j])[0, 1]
        assert r == pytest.approx(0.7, abs=0.02)
    # distinct coordinates stay uncorrelated
    assert np.corrcoef(d.x[:, 0], d.y[:, 1])[0, 1] == pytest.approx(0.0, abs=0.02)


def test_gauss_corr_rejects_extreme_rho():
    with pytest.raises(ValueError):
        gen_gauss_corr(1, 1.0, 10, seed=0)


def test_linear_truth():
    _, t = gen_linear("I", 1, 10, sigma_eps=0.1, seed=0)
    assert t.value == pytest.approx(2.3075603, abs=1e-6)
    _, t2 = gen_linear("II", 4, 10, sigma_eps=0.1, seed=0)
    assert t2.value == pytest.approx(t.value)


def test_linear_truth_vanishes_with_noise():
    _, t = gen_linear("I", 1, 10, sigma_eps=1e4, seed=0)
    assert t.value < 1e-7


def test_linear_model1_structure():
    d, _ = gen_linear("I", 3, 30000, sigma_eps=0.1, seed=2)
    assert (d.dx, d.dy, d.dz) == (1, 1, 3)
    assert np.all(np.abs(d.z) <= 0.5)
    # y - x should track z1 with small residual noise
    resid = d.y[:, 0] - d.x[:, 0]
    assert np.corrcoef(resid, d.z[:, 0])[0, 1] > 0.9


def test_linear_model2_weight_fixed_per_seed():
    d1, _ = gen_linear("II", 6, 500, seed=7)
    d2, _ = gen_linear("II", 6, 500, seed=7)
    np.testing.assert_array_equal(d1.y, d2.y)
    d3, _ = gen_linear("II", 6, 500, seed=8)
    assert np.any(d1.y != d3.y)


def test_linear_model2_variance():
    d, _ = gen_linear("II", 5, 20000, sigma_eps=0.1, seed=3)
    # recover w to predict Var(Y) = 1 + |w|_2^2 + sigma^2
    from cmikit.seeding import rng_from

    w = rng_from(3, 3).normal(size=5)
    w /= np.sum(np.abs(w))
    expected = 1.0 + float(w @ w) + 0.01
    assert float(np.var(d.y)) == pytest.approx(expected, rel=0.05)


def test_nonlinear_parameters():
    _, model = gen_nonlinear(8, 100, seed=5)
    assert np.linalg.norm(model.a_zy) == pytest.approx(1.0, rel=1e-12)
    assert model.f1_name in ("cos", "tanh", "exp-abs")
    _, model2 = gen_nonlinear(8, 100, seed=5)
    assert model2.f1_name == model.f1_name and model2.f2_name == model.f2_name
    np.testing.assert_array_equal(model2.a_zy, model.a_zy)


def test_nonlinear_bounded_output():
    for seed in range(6):
        d, model = gen_nonlinear(3, 400, seed=seed)
        assert np.all(np.abs(d.x) <= 1.0)
        assert np.all(np.abs(d.y) <= 1.0)


def test_nonlinear_truth_self_consistent():
    _, model = gen_nonlinear(10, 100, seed=11)
    a = nonlinear_ground_truth(model, oracle_n=25000, draw=0)
    b = nonlinear_ground_truth(model, oracle_n=25000, draw=1)
    assert a.method == "ksg-on-u"
    assert a.value == pytest.approx(b.value, abs=0.05)
    assert 0.0 < a.value < 1.0


def test_nonlinear_truth_zero_without_coupling():
    import dataclasses

    _, model = gen_nonlinear(5, 100, seed=13)
    cut = dataclasses.replace(model, a_xy=0.0)
    t = nonlinear_ground_truth(cut, oracle_n=20000)
    assert abs(t.value) < 0.05


def test_post_nonlinear_shapes_and_range():
    d, label = gen_post_nonlinear_cit(4, 1000, dependent=True, seed=1)
    assert label is True
    assert np.all(np.abs(d.x) <= 1.0) and np.all(np.abs(d.y) <= 1.0)
    d2, label2 = gen_post_nonlinear_cit(4, 1000, dependent=False, seed=1)
    assert label2 is False
    # CI and non-CI variants share z and x draws for a given seed
    np.testing.assert_array_equal(d.x, d2.x)
    np.testing.assert_array_equal(d.z, d2.z)


def test_post_nonlinear_params_vary_across_seeds():
    a, _ = gen_post_nonlinear_cit(3, 50, dependent=True, seed=1)
    b, _ = gen_post_nonlinear_cit(3, 50, dependent=True, seed=2)
    assert np.any(a.y != b.y)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("mystery", 100)
    with pytest.raises(ValueError):
        ModelSpec("linear-i", 100, d_z=0)
    with pytest.raises(ValueError):
        ModelSpec("gauss-corr", 100, rho=1.5)
    with pytest.raises(ValueError):
        ModelSpec("linear-i", 100, d_z=1, sigma_eps=0.0)


# A non-default value for each field that some kinds read and others do not.
SPEC_VALUES = {"d_x": 2, "d_y": 2, "d_z": 3, "rho": 0.9, "sigma_eps": 0.5, "dependent": False}


def _base_spec(kind, **changed):
    widths = {} if kind == "gauss-corr" else {"d_z": 2}
    return ModelSpec(kind, 60, seed=4, **{**widths, **changed})


@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
def test_spec_refuses_a_field_its_kind_does_not_read(kind):
    for name, value in SPEC_VALUES.items():
        if name not in KIND_FIELDS[kind]:
            with pytest.raises(ValueError, match=f"^{name} is not read by model '{kind}'"):
                ModelSpec(kind, 60, seed=4, **{name: value})


@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
def test_generate_reads_every_field_its_kind_lists(kind):
    d, truth = generate(_base_spec(kind))
    for name in KIND_FIELDS[kind]:
        try:
            d2, truth2 = generate(_base_spec(kind, **{name: SPEC_VALUES[name]}))
        except ValueError as exc:  # refused for what the field says
            assert name in str(exc)
            continue
        assert truth2 != truth or any(a.shape != b.shape or np.any(a != b)
                                      for a, b in ((d.x, d2.x), (d.y, d2.y), (d.z, d2.z))), name


@pytest.mark.parametrize("kind, field, value", [
    ("post-nonlinear", "dependent", "false"),
    ("post-nonlinear", "dependent", 0),
    ("gauss-corr", "rho", "0.5"),
    ("gauss-corr", "rho", True),
    ("linear-i", "sigma_eps", "0.1"),
])
def test_spec_refuses_a_value_of_the_wrong_type(kind, field, value):
    d_z = 0 if kind == "gauss-corr" else 1
    with pytest.raises(ValueError, match=f"^{field} must be (true or false|a number), got "):
        ModelSpec(kind=kind, n=10, d_z=d_z, **{field: value})
    assert ModelSpec(kind="gauss-corr", n=10, rho=0).rho == 0  # an integer is a number


@pytest.mark.parametrize("kind, field, value", [
    ("post-nonlinear", "n", "300"),
    ("post-nonlinear", "n", 300.0),
    ("post-nonlinear", "d_z", 2.5),
    ("post-nonlinear", "d_z", True),
    ("post-nonlinear", "seed", "1"),
    ("gauss-corr", "d_x", 2.0),
    ("gauss-corr", "d_y", False),
])
def test_spec_refuses_a_non_integer_for_an_integer_field(kind, field, value):
    values = {"n": 300, "seed": 1, **({} if kind == "gauss-corr" else {"d_z": 2}), field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        ModelSpec(kind, **values)
    assert getattr(ModelSpec(kind, **{**values, field: np.int64(2)}), field) == 2  # numpy integers pass


def test_generate_dispatch():
    d, t = generate(ModelSpec("gauss-corr", 200, d_x=2, d_y=2, rho=0.4, seed=3))
    assert d.n == 200 and d.dz == 0
    assert isinstance(t, GroundTruth)
    d2, t2 = generate(ModelSpec("linear-ii", 150, d_z=3, seed=3))
    assert d2.dz == 3 and t2.method == "analytic"
    d3, t3 = generate(ModelSpec("post-nonlinear", 100, d_z=2, dependent=False, seed=3))
    assert t3.method == "label" and t3.value == 0.0

