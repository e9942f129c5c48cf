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
from .datagen import KIND_FIELDS, MODEL_KINDS, ModelSpec, dataset_metadata, gen_gauss_corr, generate
from .estimators import (
    F_MINE_CONFIG,
    EstimatorConfig,
    _classifier_mi_logits,
    f_mine_diff_cmi,
    generator_classifier_cmi,
    mi_diff_cmi,
)
from .knn import ksg_cmi_sweep, ksg_mi, load_scipy, process_map
from .nn import _sigmoid, check_count, check_type, check_unread
from .seeding import derive_seed

__all__ = ["main"]

LN2 = math.log(2.0)
METHODS = ("ccmi", "gen-classifier", "ksg", "f-mine-diff")


# --- config and output plumbing ---------------------------------------------

def _from_dict(base, data, where):
    """``base`` with the JSON object ``data`` laid over it, nested configs included."""
    if not isinstance(data, dict):
        raise ValueError(f"{where or 'config'} must be a JSON object")
    kinds = {f.name: f.type for f in dataclasses.fields(base)}
    kwargs = {}
    for key, value in data.items():
        here = f"{where}.{key}" if where else key
        if key not in kinds:
            raise ValueError(f"unknown config key {here!r}")
        if dataclasses.is_dataclass(getattr(base, key)):
            value = _from_dict(getattr(base, key), value, here)
        check_type(here, kinds[key], value)
        kwargs[key] = float(value) if kinds[key] is float else value
    return dataclasses.replace(base, **kwargs)


def _load_estimator_config(path, method="calibrate") -> EstimatorConfig:
    """``method``'s defaults with an optional JSON config file over them; the leaves it never reads may not move."""
    if method == "ksg" and path is not None:
        raise ValueError("--config sets estimator fields, and --method ksg reads none of them")
    base = F_MINE_CONFIG if method == "f-mine-diff" else EstimatorConfig()
    if path is None:
        return base
    cfg = _from_dict(base, json.loads(Path(path).read_text(encoding="utf-8")), "")
    check_unread(method, cfg)
    return cfg


def _neighbor_counts(args):
    """``--k``'s neighbor counts for ``ksg`` ([3] when unset); other methods refuse the flag."""
    if args.method != "ksg" and args.k is not None:
        raise ValueError(f"--k sets neighbor counts, and --method {args.method} reads none of them")
    return [3] if args.k is None else _int_list(args.k, "--k")


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


def _write_payload(path, payload) -> None:
    """Write ``payload`` as JSON atomically and echo it on stdout."""
    text = _dump_json(payload)
    _atomic_write(path, text)
    print(text, end="")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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
    return ModelSpec(kind=args.model, n=n, d_x=args.dx, d_y=args.dy, d_z=d_z, rho=args.rho,
                     sigma_eps=args.sigma_eps, dependent=args.dependent, seed=seed)


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


def _estimate(d, method, cfg, ks, seed):
    """Dispatch one dataset to one estimator; returns a payload fragment."""
    if method == "ccmi":
        est = mi_diff_cmi(d, cfg, seed)
    elif method == "gen-classifier":
        est = generator_classifier_cmi(d, cfg, seed)
    elif method == "f-mine-diff":
        est = f_mine_diff_cmi(d, cfg, seed)
    else:
        if d.dz >= 1:
            per_k = ksg_cmi_sweep(d, ks, seed=seed)
        else:
            per_k = {k: ksg_mi(d, k=k, seed=seed) for k in ks}
        # these neighbor estimates only ever bias downward, so best is largest
        return {"value": max(per_k.values()), "per_k": {str(k): v for k, v in sorted(per_k.items())}}
    return {
        "value": est.value,
        "components": est.components,
        "per_bootstrap": est.per_bootstrap,
        "bootstrap_std": est.bootstrap_std,
    }


# --- subcommands -------------------------------------------------------------

def cmd_gen(args):
    if "d_z" in KIND_FIELDS[args.model] and args.dz is None:
        args.parser.error(f"--dz is required for model {args.model!r}")
    spec = _model_spec_from_args(args, args.n, args.dz or 0, args.seed)
    d, truth = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    write_csv(d, tmp)
    os.replace(tmp, out)
    sidecar = out.with_suffix(".json")
    _atomic_write(sidecar, _dump_json(dataset_metadata(spec, d, truth)))
    return _jsonable(dataclasses.asdict(spec)), {"dataset": out, "metadata": sidecar}


def cmd_estimate(args):
    ks = _neighbor_counts(args)
    cfg = _load_estimator_config(args.config, args.method)
    d, meta = _load_input(args)
    result = _estimate(d, args.method, cfg, ks, args.seed)
    payload = {
        "command": "estimate",
        "method": args.method,
        "input": str(args.input),
        "units": "nats",
        "seed": args.seed,
        "config": dataclasses.asdict(cfg) if args.method != "ksg" else {"k": ks, "seed": args.seed},
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
    _write_payload(args.out, payload)
    return payload["config"], {"result": Path(args.out)}


def cmd_cit(args):
    conf = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(conf, dict) or not isinstance(conf.get("specs"), list):
        raise ValueError("cit config must be a JSON object with a 'specs' list")
    specs = []
    for i, sd in enumerate(conf["specs"]):
        if not isinstance(sd, dict):
            raise ValueError(f"specs[{i}] must be a JSON object")
        try:
            specs.append(ModelSpec(**sd))
        except (TypeError, ValueError) as exc:  # an unknown key, or a value its kind refuses
            raise ValueError(f"specs[{i}]: {exc}") from None
    cfg = _from_dict(EstimatorConfig(), conf.get("estimator", {}), "estimator")
    bench = run_cit_benchmark(specs, cfg, seed=args.seed)
    payload = {
        "command": "cit",
        "seed": args.seed,
        "metrics": bench.metrics(),
        "config": dataclasses.asdict(cfg),
    }
    out = Path(args.out)
    scores = Path(args.scores) if args.scores else out.with_name(out.stem + "_scores.csv")
    _atomic_write(scores, benchmark_csv(bench))
    _write_payload(out, payload)
    return payload["config"], {"metrics": out, "scores": scores}


def cmd_sweep(args):
    if "d_z" in KIND_FIELDS[args.model] and args.dz_grid is None:
        args.parser.error(f"--dz-grid is required for model {args.model!r}")
    n_grid = sorted(set(_int_list(args.n_grid, "--n-grid")))
    dz_grid = sorted(set(_int_list(args.dz_grid, "--dz-grid"))) if args.dz_grid else [0]
    if args.runs < 1:
        raise ValueError("--runs must be positive")
    cfg = _load_estimator_config(args.config, args.method)
    ks = _neighbor_counts(args)
    cells = [(n, dz, run) for n in n_grid for dz in dz_grid for run in range(args.runs)]
    specs = [_model_spec_from_args(args, n, dz, derive_seed(args.seed, 71, idx))
             for idx, (n, dz, _) in enumerate(cells)]

    def score_cell(idx):  # (estimate, ground truth) of one cell
        d, truth = generate(specs[idx])
        return _estimate(d, args.method, cfg, ks, derive_seed(args.seed, 72, idx))["value"], truth.value

    load_scipy()  # cells may reach ksg_cmi (--method ksg, nonlinear truth); workers inherit it
    rows = process_map(score_cell, range(len(cells)))
    lines = ["n,d_z,run,estimate,truth"]
    for (n, dz, run), (value, truth) in zip(cells, rows):
        lines.append(f"{n},{dz},{run},{value!r},{truth!r}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    method_config = {"k": ks} if args.method == "ksg" else {"estimator": dataclasses.asdict(cfg)}
    config = {**method_config, "method": args.method,
              "n_grid": n_grid, "dz_grid": dz_grid, "runs": args.runs, "model": args.model}
    return config, {"sweep": Path(args.out)}


def cmd_calibrate(args):
    check_count("--bins", args.bins)
    check_count("--d", args.d)
    if args.n < 4:  # a smaller n leaves one held-out row, which has no derangement
        raise ValueError(f"--n must be at least 4, got {args.n}")
    if not -1.0 < args.rho < 1.0:
        raise ValueError(f"--rho must lie in (-1, 1), got {args.rho!r}")
    cfg = _load_estimator_config(args.config)
    d, truth = gen_gauss_corr(args.d, args.rho, args.n, derive_seed(args.seed, 81))
    fits = [f for rnd in _classifier_mi_logits(d.x, d.y, cfg, derive_seed(args.seed, 82)) for f in rnd]
    lp, lq = (np.concatenate(side) for side in zip(*fits))  # every joint row's logit, every rewired row's
    probs = _sigmoid(np.concatenate([lp, lq]))
    labels = np.concatenate([np.ones(lp.size), np.zeros(lq.size)])
    curve = reliability_curve(probs, labels, bins=args.bins)
    payload = {
        "command": "calibrate",
        "seed": args.seed,
        "d": args.d,
        "rho": args.rho,
        "n": args.n,
        "true_mi": truth.value,
        "n_eval": probs.size,
        "accuracy": float(np.mean((probs > 0.5) == (labels > 0.5))),
        "bin_edges": curve.bin_edges,
        "mean_predicted": curve.mean_predicted,
        "positive_fraction": curve.positive_fraction,
        "counts": curve.counts,
        "config": dataclasses.asdict(cfg),
    }
    _write_payload(args.out, payload)
    return payload["config"], {"result": Path(args.out)}


# --- argument parsing --------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
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
    e.add_argument("--k", default=None, help="neighbor counts for ksg only, comma-separated (default 3); best kept")
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
    s.add_argument("--k", default=None, help="neighbor counts for ksg only, comma-separated (default 3); best kept")
    s.add_argument("--config", default=None, help="estimator config JSON")
    _add_model_knobs(s)
    _add_common(s)
    s.set_defaults(func=cmd_sweep, parser=s)

    cal = sub.add_parser("calibrate", help="classifier reliability report on a Gaussian problem")
    cal.add_argument("--d", type=int, default=10, help="coordinate pairs (default 10)")
    cal.add_argument("--rho", type=float, default=0.5)
    cal.add_argument("--n", type=int, default=5000)
    cal.add_argument("--bins", type=int, default=10)
    cal.add_argument("--config", default=None,
                     help="estimator config JSON (net shape, training, bootstrap, inner_iterations)")
    _add_common(cal)
    cal.set_defaults(func=cmd_calibrate, parser=cal)
    return parser


def main(argv=None) -> int:
    """Run one command; each ``cmd_*`` returns (config, {name: path}) for the manifest, written on success."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        config, files = args.func(args)
        manifest = {
            "command": args.command,
            "config": config,
            "seed": args.seed,
            "version": __version__,
            "duration_s": time.time() - started,
            "payload": {name: {"file": str(p), "sha256": _sha256(p)} for name, p in files.items()},
        }
        _atomic_write(str(args.out) + ".manifest.json", _dump_json(manifest))
        return 0
    except (ValueError, RuntimeError, OSError, KeyError, TypeError) as exc:
        error = {
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        sys.stdout.write(_dump_json(error))
        return 1


if __name__ == "__main__":
    sys.exit(main())
