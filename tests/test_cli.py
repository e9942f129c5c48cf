"""End-to-end checks of the ``cmikit`` command line.

Commands run in-process through ``cli.main`` with absolute paths, so each
test exercises the same code path as the console script without interpreter
startup overhead.  Byte-level comparisons back the reproducibility contract:
identical command, config, and seed must yield identical payload files.
"""

import csv
import hashlib
import json
import math
import random
import shutil
import subprocess
import sys

import pytest

from cmikit import divergence
from cmikit.cli import _sha256, main
from cmikit.data import load_csv
from cmikit.datagen import ModelSpec, generate

LINEAR_I_TRUTH = 0.5 * math.log(1.0 + 1.0 / 0.1**2)


def run_cli(argv):
    """Invoke the CLI in-process; returns the exit code."""
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def linear1_file(workdir):
    """The reference generated dataset: linear model I, d_z = 20, n = 20000."""
    out = workdir / "d.csv"
    rc = run_cli(["gen", "--model", "linear-I", "--dz", 20, "--n", 20000,
                  "--seed", 1, "--out", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_file(workdir):
    """A cheap dataset for fast round-trip checks: d_z = 5, n = 2000."""
    out = workdir / "small.csv"
    rc = run_cli(["gen", "--model", "linear-i", "--dz", 5, "--n", 2000,
                  "--seed", 7, "--out", out])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def ccmi_result(workdir, linear1_file):
    out = workdir / "ccmi.json"
    rc = run_cli(["estimate", "--in", linear1_file, "--method", "ccmi",
                  "--seed", 0, "--out", out])
    assert rc == 0
    return read_json(out)


@pytest.fixture(scope="module")
def cit_paths(workdir):
    """Two identical benchmark runs over twenty labeled datasets."""
    config = workdir / "bench.json"
    specs = [
        {"kind": "post-nonlinear", "n": 2000, "d_z": 5,
         "dependent": i < 10, "seed": 600 + i}
        for i in range(20)
    ]
    config.write_text(json.dumps({"specs": specs}), encoding="utf-8")
    outs = []
    for tag in ("a", "b"):
        out = workdir / f"cit_{tag}.json"
        scores = workdir / f"cit_{tag}_scores.csv"
        rc = run_cli(["cit", "--config", config, "--seed", 0,
                      "--out", out, "--scores", scores])
        assert rc == 0
        outs.append((out, scores))
    return outs


# --- gen ---------------------------------------------------------------------

def test_gen_column_count_and_ground_truth(linear1_file):
    with open(linear1_file, newline="") as f:
        header = next(csv.reader(f))
    assert len(header) == 22
    assert header[:2] == ["x0", "y0"] and header[2] == "z0" and header[-1] == "z19"
    meta = read_json(linear1_file.with_suffix(".json"))
    assert meta["ground_truth"] == pytest.approx(LINEAR_I_TRUTH, abs=1e-9)
    assert meta["ground_truth"] == pytest.approx(2.3076, abs=5e-4)
    assert meta["n"] == 20000 and meta["d_z"] == 20


def test_gen_gauss_corr_rho_zero_truth(workdir):
    out = workdir / "g0.csv"
    assert run_cli(["gen", "--model", "gauss-corr", "--rho", 0.0, "--n", 500,
                    "--seed", 3, "--out", out]) == 0
    assert read_json(out.with_suffix(".json"))["ground_truth"] == 0.0


def test_gen_missing_dz_is_usage_error(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--model", "linear-ii", "--n", 100,
                 "--out", workdir / "x.csv"])
    assert exc.value.code == 2
    assert "--dz" in capsys.readouterr().err


def test_gen_reruns_are_byte_identical(workdir, small_file):
    again = workdir / "small2.csv"
    assert run_cli(["gen", "--model", "linear-i", "--dz", 5, "--n", 2000,
                    "--seed", 7, "--out", again]) == 0
    assert again.read_bytes() == small_file.read_bytes()
    assert again.with_suffix(".json").read_bytes() == \
        small_file.with_suffix(".json").read_bytes()


def test_gen_csv_loads_back_bit_for_bit(workdir):
    out = workdir / "roundtrip.csv"
    assert run_cli(["gen", "--model", "linear-i", "--dz", 2, "--n", 50,
                    "--seed", 9, "--out", out]) == 0
    d, truth = generate(ModelSpec("linear-i", 50, d_z=2, seed=9))
    back = load_csv(out, 1, 1, 2)
    for got, want in ((back.x, d.x), (back.y, d.y), (back.z, d.z)):
        assert got.tobytes() == want.tobytes()
    meta = read_json(out.with_suffix(".json"))
    assert meta["kind"] == "linear-i"
    assert meta["ground_truth"] == truth.value
    assert meta["d_z"] == 2


def test_gen_manifest_digests_match_files(small_file):
    manifest = read_json(small_file.parent / (small_file.name + ".manifest.json"))
    assert manifest["command"] == "gen"
    assert manifest["seed"] == 7
    assert manifest["config"]["kind"] == "linear-i"
    assert manifest["version"]
    assert manifest["duration_s"] >= 0.0
    for entry in manifest["payload"].values():
        digest = hashlib.sha256((small_file.parent / entry["file"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest


# --- estimate ----------------------------------------------------------------

def test_estimate_ccmi_close_to_ground_truth(ccmi_result):
    assert abs(ccmi_result["value"] - LINEAR_I_TRUTH) < 0.3
    assert ccmi_result["units"] == "nats"
    assert len(ccmi_result["components"]) == 2
    assert ccmi_result["diagnostics"]["ground_truth"] == pytest.approx(LINEAR_I_TRUTH)
    assert ccmi_result["config"]["divergence"]["train"]["epochs"] == 20


def test_estimate_ksg_falls_well_below_truth_in_high_dimension(workdir, linear1_file):
    out = workdir / "ksg.json"
    assert run_cli(["estimate", "--in", linear1_file, "--method", "ksg",
                    "--k", 3, "--seed", 0, "--out", out]) == 0
    payload = read_json(out)
    assert payload["value"] < LINEAR_I_TRUTH - 0.8
    assert set(payload["per_k"]) == {"3"}


def test_estimate_unknown_method_is_usage_error(workdir, linear1_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["estimate", "--in", linear1_file, "--method", "magic",
                 "--out", workdir / "y.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in ("ccmi", "gen-classifier", "ksg", "f-mine-diff"):
        assert name in err


def test_estimate_missing_input_gives_structured_error(workdir, capsys):
    rc = run_cli(["estimate", "--in", workdir / "nope.csv", "--method", "ksg",
                  "--dx", 1, "--dy", 1, "--dz", 0, "--out", workdir / "y.json"])
    assert rc == 1
    error = json.loads(capsys.readouterr().out)
    assert error["command"] == "estimate"
    assert error["error"]["type"] and error["error"]["message"]
    assert not (workdir / "y.json").exists()


def test_estimate_dims_from_flags_match_sidecar(workdir, small_file):
    bare = workdir / "bare.csv"
    shutil.copyfile(small_file, bare)
    out_a, out_b = workdir / "ka.json", workdir / "kb.json"
    assert run_cli(["estimate", "--in", small_file, "--method", "ksg",
                    "--seed", 0, "--out", out_a]) == 0
    assert run_cli(["estimate", "--in", bare, "--method", "ksg",
                    "--dx", 1, "--dy", 1, "--dz", 5, "--seed", 0, "--out", out_b]) == 0
    assert read_json(out_a)["value"] == read_json(out_b)["value"]


def test_estimate_without_dims_or_sidecar_fails(workdir, small_file, capsys):
    bare = workdir / "bare2.csv"
    shutil.copyfile(small_file, bare)
    rc = run_cli(["estimate", "--in", bare, "--method", "ksg",
                  "--out", workdir / "y2.json"])
    assert rc == 1
    assert "sidecar" in json.loads(capsys.readouterr().out)["error"]["message"]


WIDTH_ROWS = "".join(f"{i % 7},{i % 5},{i % 3},{i % 11}\n" for i in range(40))


@pytest.mark.parametrize("header, flags, sidecar, field", [
    ("x0,x1,z0,z1", ["--dx", 2, "--dy", -1, "--dz", 2], None, "d_y"),
    ("y0,y1,z0,z1", ["--dx", 0, "--dy", 2, "--dz", 2], None, "d_x"),
    ("x0,y0,z0,z1", [], {"d_x": 1.5, "d_y": 1, "d_z": 2}, "d_x"),
    ("x0,y0,z0,z1", [], {"d_x": 1, "d_y": True, "d_z": 2}, "d_y"),
])
def test_estimate_rejects_bad_block_widths(tmp_path, capsys, header, flags, sidecar, field):
    data = tmp_path / "widths.csv"
    data.write_text(f"{header}\n{WIDTH_ROWS}", encoding="utf-8")
    if sidecar is not None:
        data.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")
    out = tmp_path / "widths_out.json"
    rc = run_cli(["estimate", "--in", data, "--method", "ksg", *flags, "--out", out])
    error = json.loads(capsys.readouterr().out)["error"]
    assert rc == 1
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{field} must be an integer")
    assert not out.exists()


def test_estimate_bits_conversion(workdir, small_file):
    out = workdir / "bits.json"
    assert run_cli(["estimate", "--in", small_file, "--method", "ksg",
                    "--seed", 0, "--bits", "--out", out]) == 0
    payload = read_json(out)
    assert payload["value_bits"] == pytest.approx(payload["value"] / math.log(2.0))


def test_estimate_reruns_are_byte_identical(workdir, small_file):
    outs = [workdir / "rep_a.json", workdir / "rep_b.json"]
    for out in outs:
        assert run_cli(["estimate", "--in", small_file, "--method", "ccmi",
                        "--seed", 5, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_estimate_seed_resolution_prefers_flag(workdir, small_file):
    config = workdir / "cfg_seeded.json"
    config.write_text(json.dumps({"seed": 9}), encoding="utf-8")
    out_cfg, out_flag = workdir / "sc.json", workdir / "sf.json"
    assert run_cli(["estimate", "--in", small_file, "--method", "ksg",
                    "--config", config, "--out", out_cfg]) == 0
    assert run_cli(["estimate", "--in", small_file, "--method", "ksg",
                    "--config", config, "--seed", 2, "--out", out_flag]) == 0
    assert read_json(out_cfg)["seed"] == 9
    assert read_json(out_flag)["seed"] == 2


def test_estimate_rejects_unknown_config_keys(workdir, small_file, capsys):
    config = workdir / "cfg_bad.json"
    config.write_text(json.dumps({"boostrap": 3}), encoding="utf-8")
    rc = run_cli(["estimate", "--in", small_file, "--method", "ccmi",
                  "--config", config, "--out", workdir / "y3.json"])
    assert rc == 1
    assert "boostrap" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_f_mine_config_file_keeps_the_critic_defaults_it_leaves_out(workdir, small_file):
    config = workdir / "cfg_f_mine.json"
    config.write_text(json.dumps({"bootstrap": 1, "divergence": {"train": {"epochs": 1}}}),
                      encoding="utf-8")
    out = workdir / "f_mine_cfg.json"
    assert run_cli(["estimate", "--in", small_file, "--method", "f-mine-diff",
                    "--config", config, "--out", out]) == 0
    recorded = read_json(out)["config"]
    critic = recorded["divergence"]
    assert recorded["bootstrap"] == 1
    assert critic["hidden_layer_sizes"] == [64]
    assert critic["train"] == {"batch_size": 128, "learning_rate": 1e-4, "adam_beta1": 0.5,
                               "adam_beta2": 0.999, "epochs": 1, "l2_coefficient": 0.0, "seed": 0}


def _no_fit(fn, items):
    raise AssertionError("training started before the config was validated")


@pytest.mark.parametrize("config, field", [
    ({"divergence": {"hidden_layer_sizes": [2.5]}}, "hidden_layer_sizes[0]"),
    ({"divergence": {"hidden_layer_sizes": [64, 0]}}, "hidden_layer_sizes[1]"),
    ({"divergence": {"hidden_layer_sizes": []}}, "hidden_layer_sizes"),
    ({"divergence": {"train": {"epochs": 2.0}}}, "epochs"),
    ({"divergence": {"train": {"batch_size": 32.5}}}, "batch_size"),
    ({"divergence": {"inner_iterations": 1.5}}, "inner_iterations"),
    ({"generator_k": 2.5}, "generator_k"),
    ({"bootstrap": 1.5}, "bootstrap"),
    ({"divergence": {"hidden_layer_sizes": 64}}, "hidden_layer_sizes"),
    ({"bootstrap": True}, "bootstrap"),
    ({"divergence": {"train": {"epochs": True}}}, "epochs"),
])
def test_estimate_rejects_bad_counts_before_training(workdir, small_file, monkeypatch, capsys, config, field):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    path = workdir / "cfg_bad_count.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = run_cli(["estimate", "--in", small_file, "--method", "ccmi",
                  "--config", path, "--out", workdir / "bad_count.json"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert rc == 1
    assert error["type"] == "ValueError"
    assert error["message"].startswith(f"{field} must")


# --- cit ---------------------------------------------------------------------

def test_cit_benchmark_auroc(cit_paths):
    payload = read_json(cit_paths[0][0])
    metrics = payload["metrics"]
    assert metrics["n_datasets"] == 20
    assert metrics["auroc"] >= 0.85
    assert 0.0 <= metrics["recall_at_zero"] <= 1.0


def test_cit_scores_csv_shape(cit_paths):
    lines = cit_paths[0][1].read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dataset_id,label,cmi_score"
    assert len(lines) == 21
    labels = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(labels) == 10


def test_cit_reruns_are_byte_identical(cit_paths):
    (out_a, scores_a), (out_b, scores_b) = cit_paths
    assert out_a.read_bytes() == out_b.read_bytes()
    assert scores_a.read_bytes() == scores_b.read_bytes()


def test_cit_single_class_config_fails(workdir, capsys):
    config = workdir / "oneclass.json"
    specs = [{"kind": "post-nonlinear", "n": 200, "d_z": 2,
              "dependent": True, "seed": s} for s in (1, 2)]
    config.write_text(json.dumps({"specs": specs}), encoding="utf-8")
    rc = run_cli(["cit", "--config", config, "--out", workdir / "m1.json"])
    assert rc == 1
    assert "label" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert not (workdir / "m1.json").exists()


def write_small_cit_config(path, estimator, n_specs=4):
    specs = [{"kind": "post-nonlinear", "n": 300, "d_z": 2,
              "dependent": i % 2 == 0, "seed": 900 + i} for i in range(n_specs)]
    path.write_text(json.dumps({"specs": specs, "estimator": estimator}), encoding="utf-8")
    return path


def test_cit_and_ccmi_sweep_payloads_do_not_depend_on_cmikit_threads(workdir, monkeypatch):
    estimator = {"divergence": {"train": {"epochs": 3}}}
    config = write_small_cit_config(workdir / "threads_cit.json", estimator)
    est_config = workdir / "threads_est.json"
    est_config.write_text(json.dumps(estimator), encoding="utf-8")
    payloads = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        out, scores = workdir / f"tcit_{threads}.json", workdir / f"tcit_{threads}.csv"
        sweep = workdir / f"tsw_ccmi_{threads}.csv"
        assert run_cli(["cit", "--config", config, "--seed", 4,
                        "--out", out, "--scores", scores]) == 0
        assert run_cli(["sweep", "--model", "linear-I", "--method", "ccmi",
                        "--n-grid", "200,300", "--dz-grid", 1, "--runs", 2,
                        "--config", est_config, "--seed", 5, "--out", sweep]) == 0
        payloads.append([p.read_bytes() for p in (out, scores, sweep)])
    assert payloads[0] == payloads[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cit_worker_failure_matches_in_process_failure(workdir, monkeypatch, capsys):
    estimator = {"divergence": {"train": {"epochs": 2, "learning_rate": 1e300}}}
    config = write_small_cit_config(workdir / "diverges.json", estimator, n_specs=3)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        out = workdir / f"diverged_{threads}.json"
        rc = run_cli(["cit", "--config", config, "--out", out])
        results.append((rc, json.loads(capsys.readouterr().out)))
        assert not out.exists()
    assert results[0] == results[1]
    assert results[0][0] == 1
    assert results[0][1]["error"]["type"] == "TrainingDivergedError"


def test_classifier_estimate_payloads_do_not_depend_on_cmikit_threads(workdir, small_file, monkeypatch):
    config = workdir / "threads_classifier.json"
    config.write_text(json.dumps({"bootstrap": 2, "divergence": {"train": {"epochs": 3}}}),
                      encoding="utf-8")
    payloads = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        outs = {m: workdir / f"threads_{m}_{threads}.json" for m in ("ccmi", "gen-classifier", "f-mine-diff")}
        for method, out in outs.items():
            assert run_cli(["estimate", "--in", small_file, "--method", method,
                            "--config", config, "--seed", 3, "--out", out]) == 0
        payloads.append([out.read_bytes() for out in outs.values()])
    assert payloads[0] == payloads[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_estimate_worker_failure_matches_in_process_failure(workdir, small_file, monkeypatch, capsys):
    config = workdir / "diverges_est.json"
    config.write_text(json.dumps({"divergence": {"train": {"epochs": 2, "learning_rate": 1e300}}}),
                      encoding="utf-8")
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        out = workdir / f"est_diverged_{threads}.json"
        rc = run_cli(["estimate", "--in", small_file, "--method", "ccmi",
                      "--config", config, "--out", out])
        results.append((rc, json.loads(capsys.readouterr().out)))
        assert not out.exists()
    assert results[0] == results[1]
    assert results[0][0] == 1
    assert results[0][1]["error"]["type"] == "TrainingDivergedError"


# --- sweep -------------------------------------------------------------------

def test_sweep_grid_cardinality_and_truth_column(workdir):
    out = workdir / "sweep.csv"
    assert run_cli(["sweep", "--model", "linear-I", "--method", "ksg",
                    "--n-grid", 2000, "--dz-grid", "1,5", "--runs", 3,
                    "--seed", 4, "--out", out]) == 0
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 6
    assert list(rows[0]) == ["n", "d_z", "run", "estimate", "truth"]
    assert len({row["truth"] for row in rows}) == 1
    assert float(rows[0]["truth"]) == pytest.approx(LINEAR_I_TRUTH)
    assert [(row["n"], row["d_z"], row["run"]) for row in rows] == [
        ("2000", "1", "0"), ("2000", "1", "1"), ("2000", "1", "2"),
        ("2000", "5", "0"), ("2000", "5", "1"), ("2000", "5", "2"),
    ]
    low_dz = [float(r["estimate"]) for r in rows if r["d_z"] == "1"]
    high_dz = [float(r["estimate"]) for r in rows if r["d_z"] == "5"]
    assert sum(high_dz) / 3 < sum(low_dz) / 3


def test_sweep_reruns_are_byte_identical(workdir):
    outs = [workdir / "sw_a.csv", workdir / "sw_b.csv"]
    for out in outs:
        assert run_cli(["sweep", "--model", "linear-i", "--method", "ksg",
                        "--n-grid", 1000, "--dz-grid", 2, "--runs", 2,
                        "--seed", 6, "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_ksg_payloads_do_not_depend_on_cmikit_threads(workdir, monkeypatch):
    # d_z = 4 makes the widest subspace 5 wide, so KSG counts in the threaded dense pass
    data = workdir / "threads.csv"
    assert run_cli(["gen", "--model", "linear-I", "--dz", 4, "--n", 400,
                    "--seed", 8, "--out", data]) == 0
    payloads = []
    for threads in ("1", "2"):
        monkeypatch.setenv("CMIKIT_THREADS", threads)
        est, sweep = workdir / f"threads_est_{threads}.json", workdir / f"threads_sw_{threads}.csv"
        assert run_cli(["estimate", "--in", data, "--method", "ksg", "--k", "3,5",
                        "--seed", 2, "--out", est]) == 0
        assert run_cli(["sweep", "--model", "linear-I", "--method", "ksg",
                        "--n-grid", 300, "--dz-grid", 4, "--runs", 2,
                        "--seed", 3, "--out", sweep]) == 0
        payloads.append((est.read_bytes(), sweep.read_bytes()))  # manifests carry duration_s
    assert payloads[0] == payloads[1]


def test_sweep_missing_dz_grid_is_usage_error(workdir):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--model", "nonlinear", "--method", "ksg",
                 "--n-grid", 500, "--out", workdir / "s.csv"])
    assert exc.value.code == 2


def test_sweep_rejects_nonpositive_runs(workdir, capsys):
    rc = run_cli(["sweep", "--model", "gauss-corr", "--method", "ksg",
                  "--n-grid", 500, "--runs", 0, "--out", workdir / "s0.csv"])
    assert rc == 1
    assert "runs" in json.loads(capsys.readouterr().out)["error"]["message"]


# --- calibrate ---------------------------------------------------------------

def test_calibrate_reliability_payload(workdir):
    out = workdir / "calib.json"
    assert run_cli(["calibrate", "--n", 4000, "--seed", 2, "--out", out]) == 0
    payload = read_json(out)
    assert payload["n_eval"] == 4000
    assert 0.5 < payload["accuracy"] <= 1.0
    assert len(payload["bin_edges"]) == 11
    assert len(payload["mean_predicted"]) == 10
    assert sum(payload["counts"]) == payload["n_eval"]
    assert payload["true_mi"] > 0.0


def test_calibrate_reruns_are_byte_identical(workdir):
    outs = [workdir / "cal_a.json", workdir / "cal_b.json"]
    for out in outs:
        assert run_cli(["calibrate", "--n", 2000, "--d", 4, "--seed", 3,
                        "--out", out]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


# --- shared plumbing ---------------------------------------------------------

@pytest.mark.parametrize("size", [0, (1 << 20) - 1, 1 << 20, 5 << 19])
def test_sha256_streams_the_whole_file(tmp_path, size):
    p = tmp_path / "blob"
    p.write_bytes(random.Random(size).randbytes(size))
    assert _sha256(p) == hashlib.sha256(p.read_bytes()).hexdigest()


def test_every_command_writes_one_manifest(workdir, small_file, cit_paths):
    tiny = workdir / "tiny.csv"
    produced = [small_file, cit_paths[0][0], tiny,
                workdir / "tiny_est.json", workdir / "tiny_sweep.csv",
                workdir / "tiny_calib.json"]
    assert run_cli(["gen", "--model", "gauss-corr", "--n", 300, "--seed", 1,
                    "--out", tiny]) == 0
    assert run_cli(["estimate", "--in", tiny, "--method", "ksg", "--seed", 1,
                    "--out", workdir / "tiny_est.json"]) == 0
    assert run_cli(["sweep", "--model", "gauss-corr", "--method", "ksg",
                    "--n-grid", 300, "--seed", 1,
                    "--out", workdir / "tiny_sweep.csv"]) == 0
    assert run_cli(["calibrate", "--n", 600, "--d", 2, "--seed", 1,
                    "--out", workdir / "tiny_calib.json"]) == 0
    for path in produced:
        siblings = list(path.parent.glob(path.name + ".manifest.json"))
        assert len(siblings) == 1
        manifest = read_json(siblings[0])
        for key in ("command", "config", "seed", "version", "duration_s", "payload"):
            assert key in manifest


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "cmikit" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cmikit", "--version"],
                          capture_output=True, text=True, check=True)
    assert "cmikit" in proc.stdout
