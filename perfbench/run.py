"""cmikit benchmark: fixed CLI workloads in one closed-loop process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ccmi-dz20 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --report

One client sends operations back to back; each operation is one
``cmikit.cli.main([...])`` call on the inputs set-up wrote from ``--seed``.
Threads stay at the user default (CMIKIT_THREADS and the BLAS thread count
are not set here).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` operations alternate between untraced
and traced (see tracer.py), and it carries the per-layer metrics.  Every run
also writes a record with its samples and the machine facts under
``perfbench/out/results``; ``--report`` prints those records per workload.
"""

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import cmikit.cli; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import cmikit from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "cmikit" / "cli.py").is_file():
        fail(f"no cmikit sources under {src}")
    sys.path.insert(0, str(src))
    import cmikit
    import cmikit.cli

    if Path(cmikit.__file__).resolve().parent != (src / "cmikit").resolve():
        fail(f"imported cmikit from {cmikit.__file__}, not from {src}")
    return cmikit


def probe_import_s() -> float:
    """Seconds a fresh interpreter takes to import the CLI and its dependencies."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# --- machine record -----------------------------------------------------------

def git_commit():
    """The checked-out commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def machine_record(load_before: float) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "CMIKIT_THREADS": os.environ.get("CMIKIT_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        # a machine's worth of runnable work was queued when this run started
        "machine_busy": load_before >= nproc,
    }


# --- one operation ------------------------------------------------------------

def sha_of_outputs(manifest_path: Path) -> dict:
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return {name: entry["sha256"] for name, entry in sorted(manifest["payload"].items())}


def run_op(cli, workload, seed: int, tracer=None) -> dict:
    """One timed ``cli.main`` call and its checks; never raises for program faults.

    With a tracer, the call runs inside the op's ``cli.main`` span.
    """
    argv = workload.op_argv(seed)
    payload_path, manifest_path = workload.outputs()
    for p in (payload_path, manifest_path):
        p.unlink(missing_ok=True)
    sink = io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op, not a crashed benchmark
        rc, sink = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if span:
        tracer.close(span)
    op = {"wall_s": wall, "cpu_s": cpu, "rc": rc, "problems": [], "figures": {}, "sha256": None}
    if rc != 0:
        op["problems"].append(f"exit code {rc}: {sink.getvalue()[-300:]}")
        return op
    try:
        payload = json.loads(payload_path.read_text(encoding="utf-8"))
        op["sha256"] = sha_of_outputs(manifest_path)
    except (OSError, ValueError, KeyError) as exc:
        op["problems"].append(f"unreadable output: {exc}")
        return op
    problems, figures = workload.check(payload)
    op["problems"] += problems
    op["figures"] = figures
    return op


def check_digests(ops, stored_path: Path) -> None:
    """Every op on one seed must write the same bytes, in this run and in earlier ones."""
    reference = None
    if stored_path.is_file():
        reference = json.loads(stored_path.read_text(encoding="utf-8"))
    for op in ops:
        if op["sha256"] is None:
            continue
        if reference is None:
            reference = op["sha256"]
            stored_path.parent.mkdir(parents=True, exist_ok=True)
            stored_path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
        elif op["sha256"] != reference:
            op["problems"].append("payload sha256 differs from an earlier op with the same seed")


def check_counts(per_op_counts, stored_path: Path) -> list:
    """Exact-count self-check: counts of ops on one seed never drift."""
    faults = []
    reference = json.loads(stored_path.read_text()) if stored_path.is_file() else per_op_counts[0]
    for i, counts in enumerate(per_op_counts):
        drift = {k: (reference.get(k), v) for k, v in counts.items() if reference.get(k) != v}
        if drift:
            faults.append(f"traced op {i}: counts drifted (expected, got): {drift}")
    if not stored_path.is_file():
        stored_path.parent.mkdir(parents=True, exist_ok=True)
        stored_path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return faults


# --- a run --------------------------------------------------------------------

def setup(cli, workload, seed: int) -> list:
    """Set up the inputs several times; each sample is a fresh import plus input writing."""
    samples = []
    for _ in range(SETUP_REPEATS):
        import_s = probe_import_s()
        t0 = time.perf_counter()
        workload.write_inputs(cli, seed)
        samples.append(import_s + time.perf_counter() - t0)
    return samples


def measure(args) -> int:
    load_before = os.getloadavg()[0]
    os.chdir(ROOT)
    workload = workloads.WORKLOADS[args.workload]
    package = import_program()
    cli = package.cli
    setup_samples = setup(cli, workload, args.seed)

    tracer = tracing.Tracer(package) if args.trace else None
    # Traced runs start with an untraced warm-up op, which keeps first-call
    # costs out of the overhead figure, then alternate traced and untraced ops.
    ops, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None and len(ops) % 2 == 1:
            tracer.op = len(ops)
            tracer.install()
            try:
                ops.append(run_op(cli, workload, args.seed, tracer))
            finally:
                tracer.uninstall()
            traced.append(len(ops) - 1)
        else:
            ops.append(run_op(cli, workload, args.seed))
        enough = len(ops) >= (3 if tracer else 1)
        if enough and time.perf_counter() >= deadline:
            break

    tag = f"{workload.name}.seed{args.seed}"
    check_digests(ops, OUT / "digests" / f"{tag}.json")
    failed = sum(1 for op in ops if op["problems"])
    for i, op in enumerate(ops):
        for problem in op["problems"]:
            print(f"perfbench: op {i} failed: {problem}", file=sys.stderr)

    faults = []
    if tracer:
        layer, per_op_counts = tracing.layer_metrics(tracer, traced)
        untraced = [op["wall_s"] for i, op in enumerate(ops) if i > 0 and i not in traced]
        layer["trace.overhead_s"] = (statistics.median(ops[i]["wall_s"] for i in traced)
                                     - statistics.median(untraced))
        faults = check_counts(per_op_counts, OUT / "counts" / f"{tag}.json")
        for fault in faults:
            print(f"perfbench: benchmark fault: {fault}", file=sys.stderr)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in tracing.LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(op["wall_s"] for op in ops),
            "cpu_s": statistics.median(op["cpu_s"] for op in ops),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    stamp = time.time_ns()
    if tracer:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{tag}.{stamp}.jsonl")
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(ops), "failed": failed,
        "fail_frac": failed / len(ops), "benchmark_faults": faults,
        "setup_samples_s": setup_samples, "traced_ops": traced,
        "ops": ops, "metrics": metrics, "machine": machine_record(load_before),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.trace{args.trace}.{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and not faults, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


# --- report -------------------------------------------------------------------

def report() -> int:
    """Every end-to-end metric per workload, with its unit and sample counts.

    A run's metric is the median over its ops (over its set-up repeats for
    setup_s); the table gives the median and quartiles of those per-run
    values.  fail_frac, abs_err_nats and auroc are pooled over every op.
    """
    paths = sorted(glob.glob(str(ROOT / OUT / "results" / "*.trace0.*.json")))
    records = [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]
    if not records:
        fail("no untraced results yet; run a workload first")
    print(f"{'workload':<12} {'metric':<13} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'runs':>5} {'samples':>8}")
    for name in workloads.WORKLOADS:
        runs = [r for r in records if r["workload"] == name]
        if not runs:
            continue
        ops = [op for r in runs for op in r["ops"]]
        samples = {"wall_s": len(ops), "cpu_s": len(ops), "peak_rss_mb": len(runs),
                   "setup_s": sum(len(r["setup_samples_s"]) for r in runs)}
        rows = [(k, u, [r["metrics"][k]["value"] for r in runs], samples[k])
                for k, u in END_TO_END_UNITS.items()]
        failed = sum(r["failed"] for r in runs)
        rows.append(("fail_frac", "frac", [failed / len(ops)], len(ops)))
        for fig, unit in (("abs_err_nats", "nats"), ("auroc", "1")):
            vals = [op["figures"][fig] for op in ops if fig in op["figures"]]
            if vals:
                rows.append((fig, unit, vals, len(vals)))
        for k, unit, vals, n in rows:
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            print(f"{name:<12} {k:<13} {unit:<5} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{len(runs):>5} {n:>8}")
        busy = sum(r["machine"]["machine_busy"] for r in runs)
        if busy:
            print(f"{name:<12} note: {busy} of {len(runs)} runs started on a busy machine")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true", help="print the stored results and exit")
    args = parser.parse_args()
    if args.report:
        return report()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
