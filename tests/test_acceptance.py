"""Top-level acceptance gates for the package.

Ten numbered criteria cover the headline benchmarks: estimator accuracy on
problems with known information values, the high-dimension gap against the
nearest-neighbor baseline, the lower-bound and null-behavior guarantees,
benchmark-level discrimination, the cross-cutting property gates, and the
numeric-oracle self-consistency check.  Each test prints one summary line
(bypassing capture, so it lands in the terminal) and then asserts.
"""

import json

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cmikit.cli import main as cli_main
from cmikit.data import derange_rows
from cmikit.datagen import gen_gauss_corr
from cmikit.divergence import dv_plugin
from cmikit.knn import digamma
from cmikit.nn import MlpArchitecture, loss_and_gradients, mlp_init
from cmikit.seeding import rng_from
from util import biasfree_logistic_dkl


def report(capsys, idx, ok, detail):
    line = f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def test_criterion_01_bivariate_gaussian_mi(gauss_mi_runs, capsys):
    parts, ok = [], True
    for rho, (truth, vals, elapsed) in sorted(gauss_mi_runs.items()):
        err = abs(sum(vals) / len(vals) - truth)
        per_point = elapsed / len(vals)
        ok = ok and err <= 0.15 and per_point < 120.0
        parts.append(f"rho={rho} err={err:.3f} {per_point:.0f}s/pt")
    report(capsys, 1, ok, ", ".join(parts))


def test_criterion_02_ten_dimensional_gaussian_mi(highdim_selection, capsys):
    truth, vals = highdim_selection
    mean = sum(vals) / len(vals)
    rel = abs(mean - truth) / truth
    report(capsys, 2, rel <= 0.20,
           f"truth={truth:.4f} mean={mean:.4f} rel_err={rel:.1%}")


def test_criterion_03_linear_cmi_beats_neighbor_baseline(
        mi_diff_model1_dz20, mi_diff_model2_dz20, model1_dz20, model2_dz20,
        ksg_sweep_model1_dz20, ksg_sweep_model2_dz20, timings, capsys):
    (_, truth1), (_, truth2) = model1_dz20, model2_dz20
    est1, t1 = mi_diff_model1_dz20
    est2, t2 = mi_diff_model2_dz20
    err1 = abs(est1.value - truth1.value)
    err2 = abs(est2.value - truth2.value)
    gap1 = truth1.value - max(ksg_sweep_model1_dz20.values())
    gap2 = truth2.value - max(ksg_sweep_model2_dz20.values())
    total = t1 + t2 + timings["ksg_sweep_model1_dz20"] + timings["ksg_sweep_model2_dz20"]
    ok = err1 <= 0.3 and err2 <= 0.3 and gap1 >= 0.8 and gap2 >= 0.8 and total < 600.0
    report(capsys, 3, ok,
           f"errI={err1:.3f} errII={err2:.3f} ksg_gapI={gap1:.2f} "
           f"ksg_gapII={gap2:.2f} {total:.0f}s")


def test_criterion_04_neighbor_baseline_low_dimension(model1_dz1, ksg_model1_dz1, capsys):
    _, truth = model1_dz1
    err = abs(ksg_model1_dz1 - truth.value)
    report(capsys, 4, err <= 0.15, f"ksg={ksg_model1_dz1:.4f} err={err:.4f}")


def test_criterion_05_estimates_respect_lower_bound(lower_bound_runs, capsys):
    truth, vals = lower_bound_runs
    below = sum(v <= truth + 0.05 for v in vals)
    report(capsys, 5, below >= 18, f"{below}/20 runs at or below truth+0.05")


def test_criterion_06_linear_logit_cannot_see_nonlinear_ratio(capsys):
    d, truth = gen_gauss_corr(1, 0.9, 5000, seed=25)
    joint = np.hstack([d.x, d.y])
    prod = np.hstack([d.x, derange_rows(d.y, rng_from(25, 500))])
    est = biasfree_logistic_dkl(joint, prod, seed=1)
    ok = est < 0.1 and truth.value == pytest.approx(0.8304, abs=1e-3)
    report(capsys, 6, ok, f"logistic={est:.4f} truth={truth.value:.4f}")


def test_criterion_07_null_estimates_near_zero(null_mi_diff_runs, capsys):
    mean = sum(null_mi_diff_runs) / len(null_mi_diff_runs)
    report(capsys, 7, abs(mean) < 0.1, f"null mean={mean:.4f} over 5 seeds")


def test_criterion_08_benchmark_discrimination(cit_benchmark20, capsys):
    bench, elapsed = cit_benchmark20
    metrics = bench.metrics()
    report(capsys, 8, metrics["auroc"] >= 0.85,
           f"auroc={metrics['auroc']:.3f} over {metrics['n_datasets']} datasets "
           f"{elapsed:.0f}s")


def _gradient_gate():
    arch = MlpArchitecture(3, (6, 3))
    c = mlp_init(arch, seed=13)
    rng = rng_from(21)
    x = rng.normal(size=(10, 3))
    labels = rng.integers(0, 2, size=10).astype(float)
    _, gw, gb = loss_and_gradients(c, x, labels, 0.01)
    h = 1e-5
    ok = total = 0
    for params, grads in ((c.weights, gw), (c.biases, gb)):
        for p, g in zip(params, grads):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                lp, _, _ = loss_and_gradients(c, x, labels, 0.01)
                p[idx] = orig - h
                lm, _, _ = loss_and_gradients(c, x, labels, 0.01)
                p[idx] = orig
                fd = (lp - lm) / (2 * h)
                total += 1
                ok += abs(fd - g[idx]) / max(abs(g[idx]), 1e-8) < 1e-4
    return ok / total


def _tree_gate():
    # the max-norm cKDTree query the estimators make, against brute force
    rng = rng_from(31)
    pts = rng.normal(size=(300, 3))
    tree = cKDTree(pts)
    for q in rng.normal(size=(20, 3)):
        dist, idx = tree.query(q, k=7, p=np.inf)
        brute = np.max(np.abs(pts - q), axis=1)
        order = np.lexsort((np.arange(len(pts)), brute))[:7]
        if not (np.array_equal(idx, order) and np.array_equal(dist, brute[order])):
            return False
    return True


def _digamma_gate():
    xs = rng_from(32).uniform(0.1, 20.0, size=200)
    return float(np.max(np.abs(digamma(xs + 1) - digamma(xs) - 1.0 / xs)))


def _dv_scale_gate():
    ratios = rng_from(3).uniform(0.2, 5.0, size=40)
    worst = 0.0
    for alpha in (0.1, 3.0, 42.0):
        base = dv_plugin(ratios[:20] / (1 + ratios[:20]),
                         ratios[20:] / (1 + ratios[20:]), 1e-9)
        scaled = alpha * ratios
        got = dv_plugin(scaled[:20] / (1 + scaled[:20]),
                        scaled[20:] / (1 + scaled[20:]), 1e-9)
        worst = max(worst, abs(got - base))
    return worst


def _derangement_gate():
    n = 64
    x = np.zeros((n, 1))
    y = np.arange(n, dtype=float)[:, None]
    yz = np.hstack([y, 2 * y])
    prod = np.hstack([x, derange_rows(yz, rng_from(5))])  # x in place, (y, z) rows re-paired
    moved = np.all(prod[:, 1] != yz[:, 0]) and np.all(prod[:, 2] != yz[:, 1])
    same_multiset = np.array_equal(np.sort(prod[:, 1]), yz[:, 0])
    paired = np.array_equal(prod[:, 2], 2 * prod[:, 1])
    return moved and same_multiset and paired and np.array_equal(prod[:, :1], x)


def _command_determinism_gate(tmp_path):
    data = tmp_path / "d.csv"
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"specs": [
        {"kind": "post-nonlinear", "n": 300, "d_z": 2, "dependent": True, "seed": 1},
        {"kind": "post-nonlinear", "n": 300, "d_z": 2, "dependent": False, "seed": 2},
    ]}), encoding="utf-8")
    commands = {
        "gen": ["gen", "--model", "gauss-corr", "--n", "300", "--seed", "1"],
        "estimate": ["estimate", "--in", str(data), "--method", "ksg", "--seed", "1"],
        "cit": ["cit", "--config", str(bench), "--seed", "1"],
        "sweep": ["sweep", "--model", "gauss-corr", "--method", "ksg",
                  "--n-grid", "300", "--seed", "1"],
        "calibrate": ["calibrate", "--n", "600", "--d", "2", "--seed", "1"],
    }
    suffix = {"gen": ".csv", "sweep": ".csv"}
    assert cli_main(commands["gen"] + ["--out", str(data)]) == 0
    for name, argv in commands.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}{suffix.get(name, '.json')}"
            if cli_main(argv + ["--out", str(out)]) != 0:
                return False
            blobs.append(out.read_bytes())
        if blobs[0] != blobs[1]:
            return False
    return True


def test_criterion_09_property_gates(tmp_path, capsys):
    grad_frac = _gradient_gate()
    tree_ok = _tree_gate()
    digamma_err = _digamma_gate()
    dv_err = _dv_scale_gate()
    derange_ok = _derangement_gate()
    cmd_ok = _command_determinism_gate(tmp_path)
    ok = (grad_frac >= 0.99 and tree_ok and digamma_err < 1e-10
          and dv_err < 1e-10 and derange_ok and cmd_ok)
    report(capsys, 9, ok,
           f"grad_frac={grad_frac:.3f} tree={tree_ok} digamma_err={digamma_err:.1e} "
           f"dv_err={dv_err:.1e} derangement={derange_ok} commands_repeat={cmd_ok}")


def test_criterion_10_numeric_oracle_self_consistency(nonlinear_bundle, capsys):
    _, _, g0, g1, _, est = nonlinear_bundle
    oracle_gap = abs(g0.value - g1.value)
    err = abs(est.value - g0.value)
    ok = oracle_gap < 0.05 and err <= 0.25
    report(capsys, 10, ok,
           f"oracle_draws={g0.value:.4f}/{g1.value:.4f} gap={oracle_gap:.4f} "
           f"estimate={est.value:.4f} err={err:.4f}")
