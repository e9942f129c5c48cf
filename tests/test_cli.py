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
from pathlib import Path

import numpy as np
import pytest

from cmikit import cli, cit, divergence, estimators
from cmikit.cli import _sha256, main
from cmikit.data import load_csv
from cmikit.datagen import ModelSpec, generate
from cmikit.divergence import dv_plugin
from cmikit.estimators import UNREAD_LEAVES, classifier_mi
from cmikit.nn import _sigmoid

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


@pytest.mark.parametrize("argv, field, kind", [
    (["--model", "linear-I", "--dz", 2, "--dx", 3], "d_x", "linear-i"),
    (["--model", "gauss-corr", "--dz", 3], "d_z", "gauss-corr"),
    (["--model", "post-nonlinear", "--dz", 2, "--rho", 0.9, "--sigma-eps", 5], "rho", "post-nonlinear"),
    (["--model", "linear-II", "--dz", 2, "--independent"], "dependent", "linear-ii"),
])
def test_gen_refuses_a_flag_its_model_ignores(workdir, capsys, argv, field, kind):
    out = workdir / "ignored.csv"
    assert run_cli(["gen", *argv, "--n", 50, "--out", out]) == 1
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message.startswith(f"{field} is not read by model '{kind}'")
    assert not out.exists()


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


def test_seed_comes_from_the_flag_alone(workdir, small_file, monkeypatch, capsys):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    config, cit_config = workdir / "cfg_seeded.json", workdir / "cit_seeded.json"
    config.write_text(json.dumps({"seed": 9}), encoding="utf-8")
    write_small_cit_config(cit_config, {"seed": 9})
    out = workdir / "seeded.json"
    for argv, key in (
        (["estimate", "--in", small_file, "--method", "ccmi", "--config", config], "seed"),
        (["cit", "--config", cit_config], "estimator.seed"),
        (["sweep", "--model", "linear-i", "--method", "ccmi", "--n-grid", 100, "--dz-grid", 1,
          "--config", config], "seed"),
        (["calibrate", "--n", 100, "--config", config], "seed"),
    ):
        assert run_cli([*argv, "--seed", 2, "--out", out]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["message"] == f"unknown config key {key!r}"
        assert not out.exists()
    assert run_cli(["estimate", "--in", small_file, "--method", "ksg", "--seed", 2, "--out", out]) == 0
    payload = read_json(out)
    assert payload["seed"] == 2 and payload["config"] == {"k": [3], "seed": 2}


def test_ksg_refuses_a_config_file(workdir, small_file, capsys):
    config = workdir / "cfg_ksg.json"
    config.write_text(json.dumps({"bootstrap": 3, "divergence": {"clip": 0.4}}), encoding="utf-8")
    out = workdir / "ksg_cfg.csv"
    for argv in (["estimate", "--in", small_file], ["sweep", "--model", "linear-i", "--n-grid", 300, "--dz-grid", 1]):
        assert run_cli([*argv, "--method", "ksg", "--config", config, "--out", out]) == 1
        message = json.loads(capsys.readouterr().out)["error"]["message"]
        assert "--config" in message and "ksg" in message
        assert not out.exists()
    assert run_cli(["sweep", "--model", "linear-i", "--method", "ksg", "--n-grid", 300, "--dz-grid", 1,
                    "--out", out]) == 0
    assert "estimator" not in read_json(workdir / "ksg_cfg.csv.manifest.json")["config"]


@pytest.mark.parametrize("method", ["ccmi", "gen-classifier", "f-mine-diff"])
def test_a_classifier_method_refuses_k_before_any_work(workdir, small_file, monkeypatch, capsys, method):
    monkeypatch.setattr(cli, "_load_input", _no_fit)
    monkeypatch.setattr(cli, "generate", _no_fit)
    out = workdir / "k_refused.json"
    for argv in (["estimate", "--in", small_file], ["sweep", "--model", "linear-i", "--n-grid", 300, "--dz-grid", 1]):
        for k in ("7", "abc"):
            assert run_cli([*argv, "--method", method, "--k", k, "--out", out]) == 1
            message = json.loads(capsys.readouterr().out)["error"]["message"]
            assert "--k" in message and method in message
            assert not out.exists()


def test_sweep_echoes_k_only_for_ksg(workdir, capsys):
    config = workdir / "k_echo_cfg.json"
    config.write_text(json.dumps(ONE_EPOCH), encoding="utf-8")
    for method, extra in (("ksg", []), ("ccmi", ["--config", config])):
        out = workdir / f"k_echo_{method}.csv"
        assert run_cli(["sweep", "--model", "linear-i", "--method", method, "--n-grid", 200, "--dz-grid", 1,
                        *extra, "--out", out]) == 0
        echoed = read_json(workdir / f"k_echo_{method}.csv.manifest.json")["config"]
        assert echoed.get("k") == ([3] if method == "ksg" else None)


def test_estimate_rejects_unknown_config_keys(workdir, small_file, capsys):
    config = workdir / "cfg_bad.json"
    config.write_text(json.dumps({"boostrap": 3}), encoding="utf-8")
    rc = run_cli(["estimate", "--in", small_file, "--method", "ccmi",
                  "--config", config, "--out", workdir / "y3.json"])
    assert rc == 1
    assert "boostrap" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_f_mine_config_file_keeps_the_critic_defaults_it_leaves_out(workdir, small_file):
    config = workdir / "cfg_f_mine.json"
    # an integer is a number: learning_rate takes it
    config.write_text(json.dumps({"bootstrap": 1, "divergence": {"train": {"epochs": 1, "learning_rate": 1}}}),
                      encoding="utf-8")
    out = workdir / "f_mine_cfg.json"
    assert run_cli(["estimate", "--in", small_file, "--method", "f-mine-diff",
                    "--config", config, "--out", out]) == 0
    recorded = read_json(out)["config"]
    critic = recorded["divergence"]
    assert recorded["bootstrap"] == 1
    assert critic["hidden_layer_sizes"] == [64]
    assert critic["train"] == {"batch_size": 128, "learning_rate": 1, "adam_beta1": 0.5,
                               "adam_beta2": 0.999, "epochs": 1, "l2_coefficient": 0.0}


def _no_fit(*args, **kwargs):
    raise AssertionError("work started before the input was validated")


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
    ({"truncate_negative": "false"}, "truncate_negative"),
    ({"divergence": {"clip": "0.1"}}, "divergence.clip"),
    ({"divergence": {"train": {"learning_rate": True}}}, "divergence.train.learning_rate"),
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


def _unread(field, method, config):
    """The refusal of the one leaf ``config`` sets, ``field``, by ``method``."""
    ((_, value),) = _leaves(config)
    return f"{field} is not read by {method}; leave it at its default, got {value!r}"


@pytest.mark.parametrize("method, config, field", [
    ("f-mine-diff", {"divergence": {"clip": 0.4}}, "divergence.clip"),
    ("f-mine-diff", {"generator_k": 3}, "generator_k"),
    ("ccmi", {"generator_k": 3}, "generator_k"),
])
def test_estimate_rejects_a_field_its_route_ignores_before_training(
        workdir, small_file, monkeypatch, capsys, method, config, field):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    path = workdir / "cfg_ignored.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    rc = run_cli(["estimate", "--in", small_file, "--method", method,
                  "--config", path, "--out", workdir / "ignored.json"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert rc == 1
    assert error["type"] == "ValueError"
    assert error["message"] == _unread(field, method, config)


@pytest.mark.parametrize("command, config, field, method, patched", [
    ("estimate", {"divergence": {"train": {"l2_coefficient": 0.1}}}, "divergence.train.l2_coefficient",
     "f-mine-diff", (cli, "_load_input")),
    ("sweep", {"generator_k": 3}, "generator_k", "ccmi", (cli, "generate")),
    ("cit", {"generator_k": 3}, "generator_k", "ccmi", (cit, "generate")),
], ids=["estimate", "sweep", "cit"])
def test_an_unread_leaf_is_refused_before_any_work(
        workdir, small_file, monkeypatch, capsys, command, config, field, method, patched):
    monkeypatch.setattr(*patched, _no_fit)
    path, out = workdir / "cfg_unread.json", workdir / f"unread_{command}.out"
    if command == "cit":
        write_small_cit_config(path, config, n_specs=2)
        argv = ["cit", "--config", path]
    else:
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = {"estimate": ["estimate", "--in", small_file],
                "sweep": ["sweep", "--model", "linear-i", "--n-grid", 300, "--dz-grid", 1]}[command]
        argv = [*argv, "--method", method, "--config", path]
    assert run_cli([*argv, "--out", out]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == _unread(field, method, config)
    assert not out.exists()


@pytest.fixture(scope="module")
def null_file(workdir):
    """Conditionally independent data, n = 300: one-epoch fits score it below zero."""
    out = workdir / "null.csv"
    assert run_cli(["gen", "--model", "post-nonlinear", "--dz", 2, "--independent",
                    "--n", 300, "--seed", 0, "--out", out]) == 0
    return out


# For each estimator config leaf, a value unlike any the walk below starts from.
OTHER_LEAF_VALUES = {
    "bootstrap": 3, "generator_k": 3, "truncate_negative": True,
    "inner_iterations": 3, "clip": 0.4, "hidden_layer_sizes": [4], "batch_size": 16,
    "learning_rate": 0.01, "adam_beta1": 0.7, "adam_beta2": 0.9, "epochs": 2,
    "l2_coefficient": 0.1,
}
ONE_EPOCH = {"divergence": {"train": {"epochs": 1, "batch_size": 32}}}


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _run_with_config(workdir, capsys, null_file, target, config):
    """Run ``target`` (an estimate method, ``cit``, ``sweep`` or ``calibrate``) under ``config``.

    Returns (exit code, the figures a config leaf should move, the echoed
    estimator config), or (exit code, error object, None) when the run
    fails.  The data sets are small, so one-epoch fits score some of them
    below zero, where truncate_negative acts.
    """
    path, out = workdir / "cfg_leaf.json", workdir / "leaf.out"
    path.write_text(json.dumps(config), encoding="utf-8")
    if target == "cit":
        write_small_cit_config(path, config, n_specs=2, first_seed=0)
        argv = ["cit", "--config", path, "--scores", workdir / "leaf_scores.csv"]
    elif target == "sweep":
        argv = ["sweep", "--model", "post-nonlinear", "--method", "ccmi", "--n-grid", 300,
                "--dz-grid", 2, "--independent", "--config", path]
    elif target == "calibrate":
        argv = ["calibrate", "--n", 600, "--d", 2, "--config", path]
    else:
        argv = ["estimate", "--in", null_file, "--method", target, "--config", path]
    rc = run_cli([*argv, "--out", out])
    printed = capsys.readouterr().out
    if rc != 0:
        return rc, json.loads(printed)["error"], None
    if target == "sweep":
        with open(out, newline="") as f:
            figures = tuple(float(row["estimate"]) for row in csv.DictReader(f))
        return rc, figures, read_json(workdir / "leaf.out.manifest.json")["config"]["estimator"]
    payload = read_json(out)
    if target == "cit":
        with open(workdir / "leaf_scores.csv", newline="") as f:
            figures = tuple(float(row["cmi_score"]) for row in csv.DictReader(f))
    elif target == "calibrate":
        figures = (payload["accuracy"], *payload["mean_predicted"])
    else:
        figures = (payload["value"],)
    return rc, figures, payload["config"]


# The UNREAD_LEAVES row each target of test_every_config_leaf_acts reads by: cit and the sweep score with ccmi.
TABLE_ROW = {"cit": "ccmi", "sweep": "ccmi"}


@pytest.mark.parametrize("target, start", [
    ("ccmi", ONE_EPOCH),
    ("f-mine-diff", ONE_EPOCH),
    ("gen-classifier", {"bootstrap": 2, **ONE_EPOCH}),
    ("cit", ONE_EPOCH),
    ("sweep", ONE_EPOCH),
    ("calibrate", ONE_EPOCH),
])
def test_every_config_leaf_acts(workdir, null_file, capsys, target, start):
    """Each leaf of the echoed config, moved off its value, moves the output
    or fails the run with the refusal of a leaf the target never reads; the
    leaves refused are exactly the target's row of ``UNREAD_LEAVES``."""
    row = TABLE_ROW.get(target, target)
    rc, base, echoed = _run_with_config(workdir, capsys, null_file, target, start)
    assert rc == 0, base
    # so truncate_negative has something to act on; calibrate refuses it
    assert target == "calibrate" or min(base) < 0.0
    refused = set()
    for path, value in _leaves(echoed):
        name = ".".join(path)
        assert path[-1] in OTHER_LEAF_VALUES, f"no other value for config leaf {name}"
        other = OTHER_LEAF_VALUES[path[-1]]
        assert other != value, name
        config = json.loads(json.dumps(start))
        node = config
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = other
        rc, out, _ = _run_with_config(workdir, capsys, null_file, target, config)
        if rc == 0:
            assert out != base, f"{name} = {other!r} left the output alone"
        else:
            assert rc == 1 and out["message"] == _unread(name, row, {name: other}), (name, out)
            refused.add(name)
    assert refused == set(UNREAD_LEAVES[row])


@pytest.mark.parametrize("config, field", [
    ({"divergence": {"clip": 0.4}}, "divergence.clip"),
    ({"generator_k": 3}, "generator_k"),
    ({"truncate_negative": True}, "truncate_negative"),
])
def test_calibrate_refuses_a_field_it_does_not_read_before_training(workdir, monkeypatch, capsys, config, field):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    path = workdir / "cal_ignored.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = workdir / "cal_ignored_out.json"
    assert run_cli(["calibrate", "--n", 600, "--d", 2, "--config", path, "--out", out]) == 1
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message == _unread(field, "calibrate", config)
    assert not out.exists()


def test_calibrate_checks_bins_before_training(workdir, monkeypatch, capsys):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    out = workdir / "cal_bins_out.json"
    assert run_cli(["calibrate", "--n", 600, "--d", 2, "--bins", 0, "--out", out]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == "--bins must be a positive integer, got 0"
    assert not out.exists()


@pytest.mark.parametrize("n", [3, 0])
def test_calibrate_checks_n_before_generating_data(workdir, monkeypatch, capsys, n):
    monkeypatch.setattr(cli, "gen_gauss_corr", _no_fit)
    out = workdir / "cal_n_out.json"
    assert run_cli(["calibrate", "--n", n, "--d", 2, "--out", out]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == f"--n must be at least 4, got {n}"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--d", 0, "--d must be a positive integer, got 0"),
    ("--rho", 1.0, "--rho must lie in (-1, 1), got 1.0"),
    ("--rho", -1.0, "--rho must lie in (-1, 1), got -1.0"),
], ids=["d=0", "rho=1", "rho=-1"])
def test_calibrate_checks_d_and_rho_before_the_config_and_data(workdir, monkeypatch, capsys, flag, value, message):
    monkeypatch.setattr(cli, "gen_gauss_corr", _no_fit)
    out = workdir / "cal_flag_out.json"
    argv = ["calibrate", "--n", 600, "--d", 2, flag, value, "--config", workdir / "no_such_config.json"]
    assert run_cli([*argv, "--out", out]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message
    assert not out.exists()


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


@pytest.mark.parametrize("spec_extra, estimator, parts", [
    ({"rho": 0.9}, {}, ("specs[0]: rho is not read by model 'post-nonlinear'",)),
    ({"colour": 1}, {}, ("specs[0]: ", "'colour'")),
    ({}, {"generator_k": 3}, ("generator_k is not read by ccmi; leave it at its default, got 3",)),
    ({"dependent": "false"}, {}, ("specs[0]: dependent must be true or false",)),
    ({"n": "300"}, {}, ("specs[0]: n must be an integer, got '300'",)),
])
def test_cit_rejects_a_field_nothing_reads_before_training(
        workdir, monkeypatch, capsys, spec_extra, estimator, parts):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    specs = [{"kind": "post-nonlinear", "n": 200, "d_z": 2, "dependent": i == 0, "seed": 1 + i,
              **spec_extra} for i in range(2)]
    config = workdir / "cit_ignored.json"
    config.write_text(json.dumps({"specs": specs, "estimator": estimator}), encoding="utf-8")
    rc = run_cli(["cit", "--config", config, "--out", workdir / "cit_ignored_out.json"])
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert rc == 1
    assert message.startswith(parts[0]) and all(part in message for part in parts)


@pytest.mark.parametrize("conf, message", [
    ({"specs": 5}, "cit config must be a JSON object with a 'specs' list"),
    ({"specs": [5]}, "specs[0] must be a JSON object"),
])
def test_cit_names_a_malformed_specs_list(workdir, monkeypatch, capsys, conf, message):
    monkeypatch.setattr(divergence, "process_map", _no_fit)
    config = workdir / "cit_malformed.json"
    config.write_text(json.dumps(conf), encoding="utf-8")
    assert run_cli(["cit", "--config", config, "--out", workdir / "cit_malformed_out.json"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message


def write_small_cit_config(path, estimator, n_specs=4, first_seed=900):
    specs = [{"kind": "post-nonlinear", "n": 300, "d_z": 2,
              "dependent": i % 2 == 0, "seed": first_seed + i} for i in range(n_specs)]
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
    assert payload["n_eval"] == 8000  # the held-out half of 4000 rows, both pairings, 2 inner fits
    assert 0.5 < payload["accuracy"] <= 1.0
    assert len(payload["bin_edges"]) == 11
    assert len(payload["mean_predicted"]) == 10
    assert sum(payload["counts"]) == payload["n_eval"]
    assert payload["true_mi"] > 0.0


def test_calibrate_reports_on_the_fits_classifier_mi_trains(workdir, monkeypatch):
    """calibrate pools the held-out logits of the very fits behind a classifier_mi estimate."""
    calls = []

    def recorded(x, y, cfg, seed):
        rounds = estimators._classifier_mi_logits(x, y, cfg, seed)
        calls.append((x, y, cfg, seed, rounds))
        return rounds

    monkeypatch.setattr(cli, "_classifier_mi_logits", recorded)
    config, out = workdir / "cal_fits.json", workdir / "cal_fits_out.json"
    config.write_text(json.dumps({"divergence": {"train": {"epochs": 2}}}), encoding="utf-8")
    assert run_cli(["calibrate", "--n", 300, "--d", 2, "--seed", 4, "--config", config, "--out", out]) == 0
    [(x, y, cfg, seed, [fits])] = calls
    assert len(fits) == cfg.divergence.inner_iterations == 2
    plugins = [dv_plugin(_sigmoid(lp), _sigmoid(lq), cfg.divergence.clip) for lp, lq in fits]
    assert float(np.mean(plugins)) == classifier_mi(x, y, cfg, seed).value
    lp, lq = (np.concatenate(side) for side in zip(*fits))
    payload = read_json(out)
    assert payload["n_eval"] == lp.size + lq.size == 600  # 150 held-out rows, both pairings, 2 fits
    assert payload["accuracy"] == float(np.mean(np.r_[_sigmoid(lp) > 0.5, _sigmoid(lq) <= 0.5]))


def test_a_float_field_echoes_as_a_float(workdir):
    payloads = []
    for rate in (1, 1.0):
        config = workdir / "cfg_rate.json"
        config.write_text(json.dumps({"divergence": {"train": {"learning_rate": rate, "epochs": 1}}}),
                          encoding="utf-8")
        out = workdir / f"cal_rate_{rate!r}.json"
        assert run_cli(["calibrate", "--n", 600, "--d", 2, "--config", config, "--out", out]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    assert read_json(out)["config"]["divergence"]["train"]["learning_rate"] == 1.0


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


def test_every_command_writes_one_manifest(workdir, small_file, cit_paths, capsys):
    tiny = workdir / "tiny.csv"
    runs = [  # (primary output, command, seed, payload names)
        (small_file, "gen", 7, {"dataset", "metadata"}),
        (cit_paths[0][0], "cit", 0, {"metrics", "scores"}),
        (tiny, "gen", 1, {"dataset", "metadata"}),
        (workdir / "tiny_est.json", "estimate", 1, {"result"}),
        (workdir / "tiny_sweep.csv", "sweep", 1, {"sweep"}),
        (workdir / "tiny_calib.json", "calibrate", 0, {"result"}),  # --seed left at its default
    ]
    assert run_cli(["gen", "--model", "gauss-corr", "--n", 300, "--seed", 1,
                    "--out", tiny]) == 0
    assert run_cli(["estimate", "--in", tiny, "--method", "ksg", "--seed", 1,
                    "--out", workdir / "tiny_est.json"]) == 0
    assert run_cli(["sweep", "--model", "gauss-corr", "--method", "ksg",
                    "--n-grid", 300, "--seed", 1,
                    "--out", workdir / "tiny_sweep.csv"]) == 0
    assert run_cli(["calibrate", "--n", 600, "--d", 2,
                    "--out", workdir / "tiny_calib.json"]) == 0
    for path, command, seed, names in runs:
        siblings = list(path.parent.glob(path.name + ".manifest.json"))
        assert len(siblings) == 1
        manifest = read_json(siblings[0])
        assert set(manifest) == {"command", "config", "seed", "version", "duration_s", "payload"}
        assert (manifest["command"], manifest["seed"]) == (command, seed)
        assert set(manifest["payload"]) == names
        assert str(path) in {entry["file"] for entry in manifest["payload"].values()}
        for entry in manifest["payload"].values():
            assert entry["sha256"] == hashlib.sha256(Path(entry["file"]).read_bytes()).hexdigest()
    capsys.readouterr()
    bad_spec = workdir / "cit_bad_spec.json"
    bad_spec.write_text(json.dumps({"specs": [{"kind": "post-nonlinear", "n": "300", "d_z": 2}]}),
                        encoding="utf-8")
    failing = (["estimate", "--in", tiny, "--method", "ccmi", "--config", workdir / "no_such_config.json"],
               ["cit", "--config", bad_spec])
    for argv in failing:
        out = workdir / "failed_run.json"
        assert run_cli([*argv, "--out", out]) == 1
        assert "error" in json.loads(capsys.readouterr().out)
        assert not out.exists()
        assert not out.with_name(out.name + ".manifest.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "cmikit" in capsys.readouterr().out


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "cmikit", "--version"],
                          capture_output=True, text=True, check=True)
    assert "cmikit" in proc.stdout
