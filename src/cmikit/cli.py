"""Command-line front end over the estimator, generator, and testing layers.

Subcommands: ``gen`` (synthetic datasets), ``estimate`` (MI/CMI from a CSV),
``cit`` (labeled benchmark metrics), ``sweep`` (grid runs as long-format
CSV), ``calibrate`` (classifier reliability report).  Every run derives all
randomness from one seed, writes its payload atomically, and records a
manifest with enough to reproduce the payload byte for byte.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cit import benchmark_csv, reliability_curve, run_cit_benchmark
from .data import load_csv, write_csv
from .datagen import MODEL_KINDS, ModelSpec, dataset_metadata, generate
from .divergence import derange_split
from .estimators import (
    F_MINE_CONFIG,
    EstimatorConfig,
    f_mine_diff_cmi,
    generator_classifier_cmi,
    mi_diff_cmi,
)
from .knn import ksg_cmi_sweep, ksg_mi, load_scipy, process_map
from .nn import MlpArchitecture, predict_proba, train_binary_classifier
from .seeding import derive_seed

__all__ = ["main"]

LN2 = math.log(2.0)
METHODS = ("ccmi", "gen-classifier", "ksg", "f-mine-diff")
DZ_REQUIRED_KINDS = ("linear-i", "linear-ii", "nonlinear", "post-nonlinear")


# --- config and output plumbing ---------------------------------------------

def _from_dict(base, data, where):
    """``base`` with the JSON object ``data`` laid over it, nested configs included."""
    if not isinstance(data, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object")
    names = {f.name for f in dataclasses.fields(base)}
    kwargs = {}
    for key, value in data.items():
        here = f"{where}.{key}" if where else key
        if key not in names:
            raise ValueError(f"unknown config key {here!r}")
        if dataclasses.is_dataclass(getattr(base, key)):
            value = _from_dict(getattr(base, key), value, here)
        kwargs[key] = value
    return dataclasses.replace(base, **kwargs)


def _method_defaults(method) -> EstimatorConfig:
    """The config ``method`` runs with where no config file says otherwise."""
    return F_MINE_CONFIG if method == "f-mine-diff" else EstimatorConfig()


def _load_estimator_config(path, seed_flag, base: EstimatorConfig = EstimatorConfig()) -> EstimatorConfig:
    """Resolve the estimator config: ``base``, an optional JSON file over it, then --seed."""
    cfg = base
    if path is not None:
        cfg = _from_dict(base, json.loads(Path(path).read_text(encoding="utf-8")), "")
    if seed_flag is not None:
        cfg = dataclasses.replace(cfg, seed=seed_flag)
    return cfg


def _jsonable(obj):
    """Recursively make ``obj`` JSON-safe: tuples to lists, NaN to null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out, command, config, seed, started, files) -> None:
    """One manifest per run, next to the primary output."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "duration_s": time.time() - started,
        "payload": {name: {"file": str(p), "sha256": _sha256(p)} for name, p in files.items()},
    }
    _atomic_write(str(out) + ".manifest.json", _dump_json(manifest))


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


# --- dataset plumbing --------------------------------------------------------

def _model_spec_from_args(args, n, d_z, seed) -> ModelSpec:
    return ModelSpec(
        kind=args.model,
        n=n,
        d_x=args.dx,
        d_y=args.dy,
        d_z=d_z,
        rho=args.rho,
        sigma_eps=args.sigma_eps,
        dependent=args.dependent,
        seed=seed,
    )


def _load_input(args):
    """Input CSV plus dims from flags or the metadata sidecar."""
    path = Path(args.input)
    meta = {}
    sidecar = path.with_suffix(".json")
    if sidecar.exists():
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    dims = {}
    for name, flag in (("d_x", args.dx), ("d_y", args.dy), ("d_z", args.dz)):
        v = flag if flag is not None else meta.get(name)
        if v is None:
            raise ValueError(
                f"{name} unknown: pass --{name.replace('_', '')} or provide a metadata sidecar"
            )
        dims[name] = v
    return load_csv(path, dims["d_x"], dims["d_y"], dims["d_z"]), meta


def _estimate(d, method, cfg, ks):
    """Dispatch one dataset to one estimator; returns a payload fragment."""
    if method == "ccmi":
        est = mi_diff_cmi(d, cfg)
    elif method == "gen-classifier":
        est = generator_classifier_cmi(d, cfg)
    elif method == "f-mine-diff":
        est = f_mine_diff_cmi(d, cfg)
    else:
        if d.dz >= 1:
            per_k = ksg_cmi_sweep(d, ks, seed=cfg.seed)
        else:
            per_k = {k: ksg_mi(d, k=k, seed=cfg.seed) for k in ks}
        # these neighbor estimates only ever bias downward, so best is largest
        return {"value": max(per_k.values()), "per_k": {str(k): v for k, v in sorted(per_k.items())}}
    return {
        "value": est.value,
        "components": est.components,
        "per_bootstrap": est.per_bootstrap,
        "bootstrap_std": est.bootstrap_std,
    }


# --- subcommands -------------------------------------------------------------

def cmd_gen(args) -> int:
    started = time.time()
    if args.model in DZ_REQUIRED_KINDS and args.dz is None:
        args.parser.error(f"--dz is required for model {args.model!r}")
    seed = args.seed if args.seed is not None else 0
    spec = _model_spec_from_args(args, args.n, args.dz or 0, seed)
    d, truth = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    write_csv(d, tmp)
    os.replace(tmp, out)
    sidecar = out.with_suffix(".json")
    _atomic_write(sidecar, _dump_json(dataset_metadata(spec, d, truth)))
    _write_manifest(
        out, "gen", _jsonable(dataclasses.asdict(spec)), seed, started,
        {"dataset": out, "metadata": sidecar},
    )
    return 0


def cmd_estimate(args) -> int:
    started = time.time()
    d, meta = _load_input(args)
    cfg = _load_estimator_config(args.config, args.seed, _method_defaults(args.method))
    ks = _int_list(args.k, "--k")
    result = _estimate(d, args.method, cfg, ks)
    payload = {
        "command": "estimate",
        "method": args.method,
        "input": str(args.input),
        "units": "nats",
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg) if args.method != "ksg" else {"k": ks, "seed": cfg.seed},
        "diagnostics": {
            "n": d.n,
            "d_x": d.dx,
            "d_y": d.dy,
            "d_z": d.dz,
            "ground_truth": meta.get("ground_truth"),
        },
        **result,
    }
    if args.bits:
        payload["value_bits"] = payload["value"] / LN2
    text = _dump_json(payload)
    _atomic_write(args.out, text)
    _write_manifest(args.out, "estimate", payload["config"], cfg.seed, started, {"result": Path(args.out)})
    print(text, end="")
    return 0


def cmd_cit(args) -> int:
    started = time.time()
    conf = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(conf, dict) or "specs" not in conf:
        raise ValueError("cit config must be a JSON object with a 'specs' list")
    spec_fields = {f.name for f in dataclasses.fields(ModelSpec)}
    specs = []
    for i, sd in enumerate(conf["specs"]):
        unknown = set(sd) - spec_fields
        if unknown:
            raise ValueError(f"specs[{i}] has unknown keys {sorted(unknown)}")
        specs.append(ModelSpec(**sd))
    cfg = _from_dict(EstimatorConfig(), conf.get("estimator", {}), "estimator")
    seed = args.seed if args.seed is not None else 0
    bench = run_cit_benchmark(specs, cfg, seed=seed)
    payload = {
        "command": "cit",
        "seed": seed,
        "metrics": bench.metrics(),
        "config": dataclasses.asdict(cfg),
    }
    out = Path(args.out)
    scores = Path(args.scores) if args.scores else out.with_name(out.stem + "_scores.csv")
    text = _dump_json(payload)
    _atomic_write(out, text)
    _atomic_write(scores, benchmark_csv(bench))
    _write_manifest(out, "cit", payload["config"], seed, started, {"metrics": out, "scores": scores})
    print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    started = time.time()
    if args.model in DZ_REQUIRED_KINDS and args.dz_grid is None:
        args.parser.error(f"--dz-grid is required for model {args.model!r}")
    seed = args.seed if args.seed is not None else 0
    n_grid = sorted(set(_int_list(args.n_grid, "--n-grid")))
    dz_grid = sorted(set(_int_list(args.dz_grid, "--dz-grid"))) if args.dz_grid else [0]
    if args.runs < 1:
        raise ValueError("--runs must be positive")
    base_cfg = _load_estimator_config(args.config, None, _method_defaults(args.method))
    ks = _int_list(args.k, "--k")
    cells = [(n, dz, run) for n in n_grid for dz in dz_grid for run in range(args.runs)]
    specs = [_model_spec_from_args(args, n, dz, derive_seed(seed, 71, idx))
             for idx, (n, dz, _) in enumerate(cells)]

    def score_cell(idx):  # (estimate, ground truth) of one cell
        d, truth = generate(specs[idx])
        cfg = dataclasses.replace(base_cfg, seed=derive_seed(seed, 72, idx))
        return _estimate(d, args.method, cfg, ks)["value"], truth.value

    load_scipy()  # cells may reach ksg_cmi (--method ksg, nonlinear truth); workers inherit it
    rows = process_map(score_cell, range(len(cells)))
    lines = ["n,d_z,run,estimate,truth"]
    for (n, dz, run), (value, truth) in zip(cells, rows):
        lines.append(f"{n},{dz},{run},{value!r},{truth!r}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    config = {"estimator": dataclasses.asdict(base_cfg), "method": args.method, "k": ks,
              "n_grid": n_grid, "dz_grid": dz_grid, "runs": args.runs, "model": args.model}
    _write_manifest(args.out, "sweep", config, seed, started, {"sweep": Path(args.out)})
    return 0


def cmd_calibrate(args) -> int:
    started = time.time()
    seed = args.seed if args.seed is not None else 0
    cfg = _load_estimator_config(args.config, seed)
    from .datagen import gen_gauss_corr

    d, truth = gen_gauss_corr(args.d, args.rho, args.n, derive_seed(seed, 81))
    joint = np.hstack([d.x, d.y])
    tr, q_tr, ev, q_ev = derange_split(
        joint, d.dx, derive_seed(seed, 82), derive_seed(seed, 83), derive_seed(seed, 84)
    )
    arch = MlpArchitecture(joint.shape[1], cfg.divergence.hidden_layer_sizes)
    tcfg = dataclasses.replace(cfg.divergence.train, seed=derive_seed(seed, 85))
    c = train_binary_classifier(tr, q_tr, arch, tcfg)
    rows = np.vstack([ev, q_ev])
    labels = np.concatenate([np.ones(len(ev)), np.zeros(len(q_ev))])
    curve = reliability_curve(c, rows, labels, bins=args.bins)
    probs = predict_proba(c, rows)
    payload = {
        "command": "calibrate",
        "seed": seed,
        "d": args.d,
        "rho": args.rho,
        "n": args.n,
        "true_mi": truth.value,
        "n_eval": len(rows),
        "accuracy": float(np.mean((probs > 0.5) == (labels > 0.5))),
        "bin_edges": curve.bin_edges,
        "mean_predicted": curve.mean_predicted,
        "positive_fraction": curve.positive_fraction,
        "counts": curve.counts,
        "config": dataclasses.asdict(cfg),
    }
    text = _dump_json(payload)
    _atomic_write(args.out, text)
    _write_manifest(args.out, "calibrate", payload["config"], seed, started, {"result": Path(args.out)})
    print(text, end="")
    return 0


# --- argument parsing --------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    sub.add_argument("--out", required=True, help="output file path")


def _add_model_knobs(sub):
    sub.add_argument("--dx", type=int, default=1, help="x dimensions (default 1)")
    sub.add_argument("--dy", type=int, default=1, help="y dimensions (default 1)")
    sub.add_argument("--rho", type=float, default=0.5, help="per-pair correlation (gauss-corr)")
    sub.add_argument("--sigma-eps", type=float, default=0.1, dest="sigma_eps",
                     help="noise scale for the additive linear models")
    sub.add_argument("--independent", action="store_false", dest="dependent",
                     help="generate the conditionally independent variant (post-nonlinear)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmikit",
        description="Mutual information and conditional MI estimation, benchmarks, and CI testing.",
    )
    parser.add_argument("--version", action="version", version=f"cmikit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset CSV plus metadata sidecar")
    g.add_argument("--model", required=True, type=str.lower, choices=MODEL_KINDS)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--dz", type=int, default=None)
    _add_model_knobs(g)
    _add_common(g)
    g.set_defaults(func=cmd_gen, parser=g)

    e = sub.add_parser("estimate", help="estimate MI/CMI from a dataset CSV")
    e.add_argument("--in", dest="input", required=True, help="input dataset CSV")
    e.add_argument("--method", required=True, choices=METHODS)
    e.add_argument("--k", default="3", help="neighbor counts for ksg, comma-separated; best kept")
    e.add_argument("--dx", type=int, default=None)
    e.add_argument("--dy", type=int, default=None)
    e.add_argument("--dz", type=int, default=None)
    e.add_argument("--config", default=None, help="estimator config JSON")
    e.add_argument("--bits", action="store_true", help="also report the value in bits")
    _add_common(e)
    e.set_defaults(func=cmd_estimate, parser=e)

    c = sub.add_parser("cit", help="run a labeled conditional-independence benchmark")
    c.add_argument("--config", required=True, help="benchmark config JSON with a 'specs' list")
    c.add_argument("--scores", default=None, help="per-dataset CSV path (default: <out>_scores.csv)")
    _add_common(c)
    c.set_defaults(func=cmd_cit, parser=c)

    s = sub.add_parser("sweep", help="grid of runs as long-format CSV")
    s.add_argument("--model", required=True, type=str.lower, choices=MODEL_KINDS)
    s.add_argument("--method", required=True, choices=METHODS)
    s.add_argument("--n-grid", required=True, dest="n_grid", help="comma-separated sample sizes")
    s.add_argument("--dz-grid", default=None, dest="dz_grid", help="comma-separated d_z values")
    s.add_argument("--runs", type=int, default=1, help="replicates per grid cell")
    s.add_argument("--k", default="3", help="neighbor counts for ksg, comma-separated; best kept")
    s.add_argument("--config", default=None, help="estimator config JSON")
    _add_model_knobs(s)
    _add_common(s)
    s.set_defaults(func=cmd_sweep, parser=s)

    cal = sub.add_parser("calibrate", help="classifier reliability report on a Gaussian problem")
    cal.add_argument("--d", type=int, default=10, help="coordinate pairs (default 10)")
    cal.add_argument("--rho", type=float, default=0.5)
    cal.add_argument("--n", type=int, default=5000)
    cal.add_argument("--bins", type=int, default=10)
    cal.add_argument("--config", default=None, help="estimator config JSON (net shape, training)")
    _add_common(cal)
    cal.set_defaults(func=cmd_calibrate, parser=cal)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, KeyError, TypeError) as exc:
        error = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(_dump_json(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
