import time

import pytest

from cmikit.cit import run_cit_benchmark
from cmikit.datagen import ModelSpec, gen_gauss_corr, gen_linear, gen_nonlinear, generate, nonlinear_ground_truth
from cmikit.estimators import (
    EstimatorConfig,
    classifier_mi,
    default_candidates,
    generator_classifier_cmi,
    hyperparam_select,
    mi_diff_cmi,
)
from cmikit.knn import ksg_cmi, ksg_cmi_sweep

# Large shared datasets and estimator runs are session-scoped: several
# modules probe the same benchmarks and the fits are the slow part.


@pytest.fixture(scope="session")
def model1_dz1():
    return gen_linear("I", d_z=1, n=20000, sigma_eps=0.1, seed=101)


@pytest.fixture(scope="session")
def model1_dz20():
    return gen_linear("I", d_z=20, n=20000, sigma_eps=0.1, seed=102)


@pytest.fixture(scope="session")
def model2_dz20():
    return gen_linear("II", d_z=20, n=20000, sigma_eps=0.1, seed=103)


@pytest.fixture(scope="session")
def timings():
    """Wall-clock seconds of the expensive session fixtures, by name."""
    return {}


@pytest.fixture(scope="session")
def ksg_sweep_model1_dz20(model1_dz20, timings):
    d, _ = model1_dz20
    t0 = time.time()
    sweep = ksg_cmi_sweep(d, [3, 5, 10], seed=0)
    timings["ksg_sweep_model1_dz20"] = time.time() - t0
    return sweep


@pytest.fixture(scope="session")
def ksg_sweep_model2_dz20(model2_dz20, timings):
    d, _ = model2_dz20
    t0 = time.time()
    sweep = ksg_cmi_sweep(d, [3, 5, 10], seed=0)
    timings["ksg_sweep_model2_dz20"] = time.time() - t0
    return sweep


@pytest.fixture(scope="session")
def ksg_model1_dz1(model1_dz1):
    d, _ = model1_dz1
    return ksg_cmi(d, k=3, seed=0)


@pytest.fixture(scope="session")
def null_mi_diff_runs():
    """Difference-route estimates on five conditionally independent draws."""
    vals = []
    for s in range(5):
        spec = ModelSpec(kind="post-nonlinear", n=5000, d_z=5, dependent=False, seed=250 + s)
        d, _ = generate(spec)
        vals.append(mi_diff_cmi(d, EstimatorConfig(seed=s)).value)
    return vals


@pytest.fixture(scope="session")
def gauss_mi_runs():
    """Five seeded classifier MI runs per correlation point, with timings."""
    out = {}
    for i, rho in enumerate((0.3, 0.6, 0.9)):
        t0 = time.time()
        vals = []
        for s in range(5):
            d, gt = gen_gauss_corr(d=1, rho=rho, n=5000, seed=300 + 10 * i + s)
            vals.append(classifier_mi(d.x, d.y, EstimatorConfig(seed=s)).value)
        out[rho] = (gt.value, vals, time.time() - t0)
    return out


@pytest.fixture(scope="session")
def lower_bound_runs():
    """Twenty seeded classifier MI runs on the rho=0.6 pair."""
    vals = []
    for s in range(20):
        d, gt = gen_gauss_corr(d=1, rho=0.6, n=5000, seed=400 + s)
        vals.append(classifier_mi(d.x, d.y, EstimatorConfig(seed=s)).value)
    return gt.value, vals


@pytest.fixture(scope="session")
def highdim_selection():
    """Hyperparameter-selected MI on the ten-pair rho=0.5 problem, five seeds."""
    vals = []
    for s in range(5):
        d, gt = gen_gauss_corr(d=10, rho=0.5, n=5000, seed=500 + s)
        _, est = hyperparam_select(
            (d.x, d.y),
            default_candidates(seed=s),
            estimator=lambda dd, cc: classifier_mi(dd[0], dd[1], cc),
        )
        vals.append(est.value)
    return gt.value, vals


@pytest.fixture(scope="session")
def mi_diff_model1_dz20(model1_dz20):
    d, _ = model1_dz20
    t0 = time.time()
    est = mi_diff_cmi(d, EstimatorConfig(seed=0))
    return est, time.time() - t0


@pytest.fixture(scope="session")
def mi_diff_model2_dz20(model2_dz20):
    d, _ = model2_dz20
    t0 = time.time()
    est = mi_diff_cmi(d, EstimatorConfig(seed=0))
    return est, time.time() - t0


@pytest.fixture(scope="session")
def generator_model1_dz20(model1_dz20):
    d, _ = model1_dz20
    return generator_classifier_cmi(d, EstimatorConfig(seed=0))


@pytest.fixture(scope="session")
def cit_benchmark20():
    """Twenty labeled post-nonlinear datasets, half dependent, scored once."""
    specs = [
        ModelSpec(kind="post-nonlinear", n=2000, d_z=5, dependent=(i < 10), seed=600 + i)
        for i in range(20)
    ]
    t0 = time.time()
    bench = run_cit_benchmark(specs, EstimatorConfig(), seed=0)
    return bench, time.time() - t0


@pytest.fixture(scope="session")
def nonlinear_bundle():
    """Nonlinear benchmark: data, numeric oracle draws, selected estimate."""
    d, model = gen_nonlinear(d_z=10, n=5000, seed=1)
    g0 = nonlinear_ground_truth(model, oracle_n=50000, k=3, draw=0)
    g1 = nonlinear_ground_truth(model, oracle_n=50000, k=3, draw=1)
    cfg, est = hyperparam_select(d, default_candidates(seed=0), estimator=mi_diff_cmi)
    return d, model, g0, g1, cfg, est
