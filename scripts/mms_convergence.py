#!/usr/bin/env python3
"""Manufactured-solution convergence sweep for the coupled solver.

Runs the forced coupled system on a ladder of (nx, dt) pairs with a
fixed refinement factor, compares the final state to the closed-form
target, and prints the sup-norm errors with the observed orders.  The
run is the one acceptance criterion 07 (n = 1) and the n = 2 order test
refine (`vkg.criteria.mms_run`), through the pipeline of `vkg.cli`.  At
n = 1 nv stays fixed; at n = 2, where a converged velocity grid does not
fit, nv is refined with nx.
"""

import argparse
import math
import time

from vkg.cli import run_pipeline
from vkg.criteria import mms_run

# (nx0, dt0, nv) of the first level per dimension
DEFAULTS = {1: (320, 0.01, 160), 2: (16, 0.1, 12)}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1, choices=(1, 2))
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--nx0", type=int, help="default 320 (n=1), 16 (n=2)")
    ap.add_argument("--dt0", type=float, help="default 0.01 (n=1), 0.1 (n=2)")
    ap.add_argument("--nv", type=int,
                    help="default 160 (n=1), 12 at the first level (n=2)")
    ap.add_argument("--span", type=float, default=1.0,
                    help="integration time per run")
    args = ap.parse_args()
    nx0, dt0, nv0 = DEFAULTS[args.n]
    nx0, dt0, nv0 = args.nx0 or nx0, args.dt0 or dt0, args.nv or nv0

    print(f"{'nx':>6} {'nv':>5} {'dt':>9} {'err_phi':>11} {'err_f':>11} "
          f"{'p_phi':>6} {'p_f':>6} {'secs':>6}")
    prev = None
    for lvl in range(args.levels):
        nx = nx0 * 2 ** lvl
        nv = nv0 * 2 ** lvl if args.n == 2 else nv0
        dt = dt0 / 2 ** lvl
        t0 = time.perf_counter()
        e = run_pipeline(mms_run(nx, dt, nv, args.span, args.n))[0].mms_error
        el = time.perf_counter() - t0
        if prev is None:
            orders = ("-", "-")
        else:
            orders = tuple(f"{math.log2(p / c):.2f}"
                           for p, c in zip(prev, e))
        print(f"{nx:>6} {nv:>5} {dt:>9.5f} {e[0]:>11.3e} {e[1]:>11.3e} "
              f"{orders[0]:>6} {orders[1]:>6} {el:>6.1f}")
        prev = e


if __name__ == "__main__":
    main()
