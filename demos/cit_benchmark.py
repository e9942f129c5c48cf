#!/usr/bin/env python3

"""Conditional-independence testing as a ranking problem.

Generates a balanced collection of datasets from the post-nonlinear model,
half with X dependent on Y given Z and half conditionally independent,
scores each with the difference-route CMI estimator, and reports how cleanly
the scores separate the two groups.
"""

import argparse
import time

from cmikit.cit import run_cit_benchmark
from cmikit.datagen import ModelSpec
from cmikit.estimators import EstimatorConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", type=int, default=20, help="total datasets (balanced)")
    ap.add_argument("--n", type=int, default=2000, help="samples per dataset")
    ap.add_argument("--dz", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=600,
                    help="data seed of the first dataset; the rest follow")
    args = ap.parse_args()

    half = args.datasets // 2
    specs = [
        ModelSpec(kind="post-nonlinear", n=args.n, d_z=args.dz,
                  dependent=(i < half), seed=args.first_seed + i)
        for i in range(2 * half)
    ]
    t0 = time.time()
    bench = run_cit_benchmark(specs, EstimatorConfig(), seed=args.seed)
    elapsed = time.time() - t0

    print(f"{'dataset':>7} {'label':>5} {'cmi_score':>10}")
    for i, (label, score) in enumerate(zip(bench.labels, bench.scores)):
        tag = "dep" if label else "ci"
        print(f"{i:>7} {tag:>5} {score:>10.4f}")

    metrics = bench.metrics()
    print()
    precision = metrics["precision_at_zero"]
    print(f"auroc={metrics['auroc']:.3f}  "
          f"precision@0={'n/a' if precision is None else format(precision, '.2f')}  "
          f"recall@0={metrics['recall_at_zero']:.2f}  ({elapsed:.1f}s)")
    print("Dependent datasets should score above zero and the conditionally")
    print("independent ones should hover around it.  The signal in this model")
    print("is subtle and its strength varies by draw, so small collections or")
    print("fewer samples per dataset can drop the ranking toward chance.")


if __name__ == "__main__":
    main()
