import numpy as np
import pytest
from scipy.stats import rankdata

from cmikit import cit
from cmikit.cit import (
    CitBenchmark,
    auroc,
    benchmark_csv,
    precision_recall_at_zero,
    reliability_curve,
    run_cit_benchmark,
)
from cmikit.data import derange_rows, split_rows
from cmikit.datagen import ModelSpec, gen_gauss_corr
from cmikit.estimators import EstimatorConfig
from cmikit.nn import MlpArchitecture, TrainConfig, predict_proba, train_binary_classifier
from cmikit.seeding import rng_from


def trained_discriminator(seed=3):
    """Joint-versus-rewired classifier on the ten-pair correlated problem."""
    d, _ = gen_gauss_corr(d=10, rho=0.5, n=5000, seed=42)
    joint = np.hstack([d.x, d.y])
    tr, ev = split_rows(joint, 7)
    q_tr = np.hstack([tr[:, :10], derange_rows(tr[:, 10:], rng_from(9))])
    q_ev = np.hstack([ev[:, :10], derange_rows(ev[:, 10:], rng_from(10))])
    c = train_binary_classifier(tr, q_tr, MlpArchitecture(20), TrainConfig(seed=seed))
    return c, np.vstack([ev, q_ev])


# ------------------------------------------------------------------------ auroc


def test_auroc_enumerated_example():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auroc_perfect_separation():
    assert auroc([-2.0, -1.0, 3.0, 5.0], [0, 0, 1, 1]) == 1.0


def test_auroc_ties_earn_half_credit():
    assert auroc([1.0, 1.0], [0, 1]) == 0.5


def test_auroc_chance_level_for_unrelated_scores():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=4000)
    labels = rng.integers(0, 2, size=4000)
    assert auroc(scores, labels) == pytest.approx(0.5, abs=0.05)


def test_auroc_invariant_under_increasing_transforms():
    rng = np.random.default_rng(6)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    base = auroc(scores, labels)
    assert auroc(np.exp(scores), labels) == base
    assert auroc(3.0 * scores + 7.0, labels) == base


def test_auroc_complement_identity():
    scores = [0.2, 0.2, 0.9, -0.4, 0.5]
    labels = [0, 1, 1, 0, 1]
    assert auroc(scores, labels) + auroc(scores, [1 - l for l in labels]) == pytest.approx(1.0)


def test_auroc_rejects_single_class():
    with pytest.raises(ValueError):
        auroc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        auroc([], [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_auroc_rejects_nonfinite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        auroc([0.1, bad, 0.3], [0, 1, 1])


@pytest.mark.parametrize("kind", ["random", "tied", "rounded"])
def test_auroc_matches_rankdata_reference(kind):
    rng = np.random.default_rng(["random", "tied", "rounded"].index(kind))
    for _ in range(200):
        n = int(rng.integers(2, 80))
        scores = rng.normal(size=n)
        if kind == "tied":
            scores = rng.integers(0, 3, size=n) * 0.5
        elif kind == "rounded":
            scores = np.round(scores, 1)
        labels = rng.permutation(np.arange(n) < rng.integers(1, n))
        n_pos = int(labels.sum())
        u = float(rankdata(scores)[labels].sum()) - n_pos * (n_pos + 1) / 2.0
        assert auroc(scores, labels) == float(u / (n_pos * (n - n_pos)))


# ------------------------------------------------------- precision_recall_at_zero


def test_precision_recall_perfect_thresholding():
    assert precision_recall_at_zero([0.4, 0.2, -0.1, -0.3], [1, 1, 0, 0]) == (1.0, 1.0)


def test_precision_recall_total_inversion():
    assert precision_recall_at_zero([1.0, -1.0], [0, 1]) == (0.0, 0.0)


def test_precision_undefined_without_predicted_positives():
    precision, recall = precision_recall_at_zero([-1.0, -2.0], [1, 0])
    assert precision is None
    assert recall == 0.0


def test_precision_recall_threshold_moves_operating_point():
    scores = [0.3, 0.1, -0.2]
    labels = [1, 0, 0]
    assert precision_recall_at_zero(scores, labels, threshold=0.2) == (1.0, 1.0)
    assert precision_recall_at_zero(scores, labels, threshold=0.0) == (0.5, 1.0)


# ------------------------------------------------------------- run_cit_benchmark


def test_benchmark_separates_dependent_from_ci(cit_benchmark20):
    bench, _ = cit_benchmark20
    metrics = bench.metrics()
    assert metrics["n_datasets"] == 20
    assert metrics["auroc"] >= 0.85
    assert len(bench.scores) == len(bench.datasets) == 20
    assert all(np.isfinite(bench.scores))


def _no_scoring(fn, items):
    raise AssertionError("scoring started before the benchmark was validated")


def test_benchmark_rejects_single_class(monkeypatch):
    monkeypatch.setattr(cit, "process_map", _no_scoring)
    specs = [ModelSpec(kind="post-nonlinear", n=400, d_z=2, dependent=False, seed=s) for s in range(3)]
    with pytest.raises(ValueError, match="labels"):
        run_cit_benchmark(specs)


def test_benchmark_rejects_unlabeled_kinds(monkeypatch):
    monkeypatch.setattr(cit, "process_map", _no_scoring)
    specs = [
        ModelSpec(kind="gauss-corr", n=400, seed=0),
        ModelSpec(kind="post-nonlinear", n=400, d_z=2, dependent=True, seed=1),
    ]
    with pytest.raises(ValueError, match="labeled"):
        run_cit_benchmark(specs)


def test_benchmark_deterministic_per_master_seed():
    specs = [
        ModelSpec(kind="post-nonlinear", n=400, d_z=2, dependent=(i % 2 == 0), seed=700 + i)
        for i in range(4)
    ]
    a = run_cit_benchmark(specs, EstimatorConfig(), seed=5)
    b = run_cit_benchmark(specs, EstimatorConfig(), seed=5)
    assert a.scores == b.scores
    assert a.metrics() == b.metrics()


def test_benchmark_csv_round_trips():
    bench = CitBenchmark(
        datasets=(None, None),  # type: ignore[arg-type]
        labels=(True, False),
        scores=(0.25, -0.125),
        config=EstimatorConfig(),
        seed=0,
    )
    text = benchmark_csv(bench)
    lines = text.strip().split("\n")
    assert lines[0] == "dataset_id,label,cmi_score"
    assert lines[1] == "0,1,0.25"
    assert lines[2] == "1,0,-0.125"


def test_benchmark_requires_finite_scores():
    with pytest.raises(ValueError):
        CitBenchmark(
            datasets=(None,),  # type: ignore[arg-type]
            labels=(True,),
            scores=(float("nan"),),
            config=EstimatorConfig(),
            seed=0,
        )


# -------------------------------------------------------------- reliability_curve


def test_reliability_curve_tracks_synthetic_oracle():
    c, rows = trained_discriminator()
    probs = predict_proba(c, rows)
    labels = (rng_from(11).random(len(rows)) < probs).astype(float)
    curve = reliability_curve(c, rows, labels)
    assert sum(curve.counts) == len(rows)
    for pred, frac, count in zip(curve.mean_predicted, curve.positive_fraction, curve.counts):
        if count > 0:
            assert abs(pred - frac) < 0.1


def test_reliability_curve_constant_prediction():
    c, rows = trained_discriminator()
    for w in c.weights:
        w[:] = 0.0
    for b in c.biases:
        b[:] = 0.0
    labels = np.repeat([1.0, 0.0], len(rows) // 2)
    curve = reliability_curve(c, rows[: 2 * (len(rows) // 2)], labels)
    occupied = [i for i, n in enumerate(curve.counts) if n > 0]
    assert occupied == [5]
    assert curve.positive_fraction[5] == pytest.approx(0.5, abs=0.01)
    assert sum(curve.counts) == len(labels)


def test_reliability_curve_validation():
    c, rows = trained_discriminator()
    with pytest.raises(ValueError):
        reliability_curve(c, np.empty((0, 20)), [])
    with pytest.raises(ValueError):
        reliability_curve(c, rows, np.ones(3))
    with pytest.raises(ValueError):
        reliability_curve(c, rows, np.ones(len(rows)), bins=0)
