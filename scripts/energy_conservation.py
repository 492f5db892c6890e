#!/usr/bin/env python3
"""Free-field slice-energy conservation under refinement.

The massive scalar propagates strictly inside the light cone of its
data, so with lightcone-mode slice truncation the energy on every
hyperboloid is the same up to scheme error.  This sweep reports the
worst relative deviation across the slice window per resolution, on the
reference run of acceptance criterion 06(b) (`vkg.criteria.free_kg_run`)
through the pipeline of `vkg.cli`.
"""

import argparse
import time

from vkg.cli import run_pipeline
from vkg.criteria import energy_deviation, free_kg_run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--nx0", type=int, default=1200)
    ap.add_argument("--dt0", type=float, default=0.04)
    ap.add_argument("--taus", type=float, nargs="+",
                    default=(6.5, 8.0, 10.0, 12.0))
    args = ap.parse_args()

    taus = tuple(args.taus)
    print("taus:", " ".join(f"{t:g}" for t in taus))
    print(f"{'nx':>6} {'dt':>8} {'E(tau0)':>13} {'max dev':>10} "
          f"{'ratio':>6} {'secs':>6}")
    prev = None
    for lvl in range(args.levels):
        nx = args.nx0 * 2 ** lvl
        dt = args.dt0 / 2 ** lvl
        t0 = time.perf_counter()
        reports = run_pipeline(free_kg_run(nx, dt, taus))[2]
        dev = energy_deviation(reports)
        el = time.perf_counter() - t0
        ratio = f"{prev / dev:.2f}" if prev else "-"
        E0 = reports[0].breakdown_phi[()]
        print(f"{nx:>6} {dt:>8.4f} {E0:>13.6e} {dev:>10.3e} "
              f"{ratio:>6} {el:>6.1f}")
        prev = dev


if __name__ == "__main__":
    main()
