#!/usr/bin/env python3
"""Manufactured-solution convergence sweep for the coupled solver.

Runs the forced coupled system on a ladder of (nx, dt) pairs with a
fixed refinement factor, compares the final state to the closed-form
target, and prints the sup-norm errors with the observed orders.  The
run is the one acceptance criterion 07 refines (`vkg.criteria`).
"""

import argparse
import math
import time

from vkg.criteria import mms_errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--nx0", type=int, default=320)
    ap.add_argument("--dt0", type=float, default=0.01)
    ap.add_argument("--nv", type=int, default=160)
    ap.add_argument("--span", type=float, default=1.0,
                    help="integration time per run")
    args = ap.parse_args()

    print(f"{'nx':>6} {'dt':>9} {'err_phi':>11} {'err_f':>11} "
          f"{'p_phi':>6} {'p_f':>6} {'secs':>6}")
    prev = None
    for lvl in range(args.levels):
        nx = args.nx0 * 2 ** lvl
        dt = args.dt0 / 2 ** lvl
        t0 = time.perf_counter()
        e = mms_errors(nx, dt, args.nv, args.span)
        el = time.perf_counter() - t0
        if prev is None:
            orders = ("-", "-")
        else:
            orders = tuple(f"{math.log2(p / c):.2f}"
                           for p, c in zip(prev, e))
        print(f"{nx:>6} {dt:>9.5f} {e[0]:>11.3e} {e[1]:>11.3e} "
              f"{orders[0]:>6} {orders[1]:>6} {el:>6.1f}")
        prev = e


if __name__ == "__main__":
    main()
