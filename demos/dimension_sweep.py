#!/usr/bin/env python3

"""How estimators degrade as the conditioning dimension grows.

The additive linear model keeps the same conditional MI at every d_z, so
any drift in the estimates is pure estimator error.  Nearest-neighbor
counting collapses as dimensions are added while the classifier difference
route holds on.
"""

import argparse
import time

from cmikit.datagen import gen_linear
from cmikit.estimators import mi_diff_cmi
from cmikit.knn import ksg_cmi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5000, help="samples per dataset")
    ap.add_argument("--dz", type=int, nargs="+", default=[1, 5, 10, 20])
    args = ap.parse_args()

    print(f"estimating I(X;Y|Z) on the additive uniform model, n={args.n}")
    print(f"{'d_z':>4} {'truth':>8} {'ccmi':>8} {'ksg(k=3)':>9} {'sec':>6}")
    for dz in args.dz:
        d, truth = gen_linear("I", d_z=dz, n=args.n, seed=7)
        t0 = time.time()
        ccmi = mi_diff_cmi(d, seed=0).value
        knn = ksg_cmi(d, k=3)
        print(f"{dz:>4} {truth.value:>8.4f} {ccmi:>8.4f} {knn:>9.4f} "
              f"{time.time() - t0:>6.1f}")

    print()
    print("The truth column is flat by construction.  Watch the ksg column")
    print("fall away from it as d_z grows while ccmi stays in range.")


if __name__ == "__main__":
    main()
