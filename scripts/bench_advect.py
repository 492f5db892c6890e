#!/usr/bin/env python3
"""Microbenchmark of the conservative advection kernel, vkg.solver.advect.

Times one advect call per shape, axis and boundary condition on random
cell averages, with one shift per line drawn from |sigma| < 0.9 (the
CFL-bounded x-advection range; the velocity kick is smaller still).  The
shapes are the state arrays of the benchmark pipelines: (320, 64) is the
n = 1 coupled run, (9600, 8) a free-field n = 1 run, (40, 40, 24, 24) the
n = 2 coupled run.  Each case is timed on two inputs: a C-ordered array,
and the layout the solver passes, which is the lines-last output of the
advect call on the axis before (cyclically: axis 0 follows the last
axis, as the x-sweep follows the velocity kick).  Prints the median time
per call over the repeats and the throughput in Mcell/s.

    PYTHONPATH=src python3 scripts/bench_advect.py [--repeat 7]
"""

import argparse
import time

import numpy as np

from vkg.solver import advect

SHAPES = ((320, 64), (9600, 8), (40, 40, 24, 24))


def time_call(g, sigma, axis, bc, repeat):
    advect(g, sigma, axis, bc)              # first touch of the temporaries
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        advect(g, sigma, axis, bc)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--repeat", type=int, default=7,
                    help="timed calls per case (median reported)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    print(f"{'shape':>18} {'axis':>4} {'bc':>9} {'input':>6} "
          f"{'ms/call':>9} {'Mcell/s':>9}")
    for shape in SHAPES:
        g = rng.random(shape)
        sigmas = []
        for axis in range(len(shape)):
            sig_shape = list(shape)
            sig_shape[axis] = 1
            sigmas.append(rng.uniform(-0.9, 0.9, size=sig_shape))
        for axis, sigma in enumerate(sigmas):
            before = (axis - 1) % len(shape)
            inputs = (("C", g),
                      ("solver", advect(g, sigmas[before], before)))
            for bc in ("outgoing", "periodic"):
                for name, data in inputs:
                    sec = time_call(data, sigma, axis, bc, args.repeat)
                    print(f"{str(shape):>18} {axis:>4} {bc:>9} {name:>6} "
                          f"{sec * 1e3:9.2f} {g.size / sec / 1e6:9.1f}")


if __name__ == "__main__":
    main()
