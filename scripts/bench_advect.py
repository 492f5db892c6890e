#!/usr/bin/env python3
"""Microbenchmark of the conservative advection kernel, vkg.solver.advect.

The kernel differences the interpolated primitive in closed form: per
block it pads the averages with ghost cells, limits the edge slopes,
differences them, and sums four Hermite terms of averages and slope
differences, so no primitive is built and each cell (the tails of f
included) is resolved from its neighbours alone.
Times one advect call per shape and axis on random cell averages, with
one shift per line on a linear ramp over [-0.9, 0.9] across the lines
(the CFL-bounded x-advection range; the velocity kick is smaller
still).  A ramp and not random shifts, because the solver's
shifts vary smoothly across lines: they are vhat(v) h/dx and
-d_x phi(x) dt/dv.  Neighbouring lines then share their integer shift,
whereas random shifts alternate it from line to line, which is the slow
case of the kernel's masked window pick and not what the solver passes.  The
shapes are the state arrays of the benchmark pipelines: (320, 64) is the
n = 1 coupled run, (9600, 8) a free-field n = 1 run, (40, 40, 24, 24) the
n = 2 coupled run; (640, 160) and (1280, 128) are n = 1 shapes of more
than one block, as acceptance criterion 07's MMS runs take.  Each case
is timed on two inputs: a C-ordered array, and the layout the solver
passes, which is the lines-last output of the advect call on the axis
before (cyclically: axis 0 follows the last axis, as the x-sweep
follows the velocity kick).  The first call of each case is reported on
its own: the earlier cases have warmed the allocator for some shapes
and not for others, so its time and its minor page faults show each
shape's allocation pattern.  Then the median time per
call over the repeats, the throughput in Mcell/s and the minor page
faults per warm call (resource.getrusage's ru_minflt), all on every CPU
the process may run on, where a call of more than one block shares its
blocks among solver.WORKERS workers.  Then the median time per call with
the process pinned to one of those CPUs (os.sched_setaffinity on its own
pid, with solver.WORKERS set to 1, as a process started on one CPU reads
it), and, from those pinned calls, the median time per call spent
outside the line kernel _advect_lines, in microseconds: the set-up that
does not scale with the lines of a block (shifts, Hermite weights,
workspace views) plus the copies into and out of the kernel's buffers,
and last the ratio of the time on every CPU to the pinned time: on a
host of two CPUs, the two-worker time over the one-worker time.
The kernel is timed by wrapping solver._advect_lines, which adds two
clock reads per block to each pinned call.  The process's affinity is
restored after each case.

    PYTHONPATH=src python3 scripts/bench_advect.py [--repeat 7]
"""

import argparse
import os
import resource
import time

import numpy as np

from vkg import solver
from vkg.solver import advect

SHAPES = ((320, 64), (640, 160), (1280, 128), (9600, 8),
          (40, 40, 24, 24))


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_kernel(kernel, spent):
    """kernel, adding the seconds each call takes to spent[0]"""
    def timed(*args):
        t0 = time.perf_counter()
        kernel(*args)
        spent[0] += time.perf_counter() - t0
    return timed


def time_call(g, sigma, axis, repeat):
    """(first call s, its minor faults, median warm call s, minor faults
    per warm call) on every CPU the process may run on"""
    faults = minor_faults()
    t0 = time.perf_counter()
    advect(g, sigma, axis)
    first = time.perf_counter() - t0
    first_faults = minor_faults() - faults
    times = []
    faults = minor_faults()
    for _ in range(repeat):
        t0 = time.perf_counter()
        advect(g, sigma, axis)
        times.append(time.perf_counter() - t0)
    return (first, first_faults, float(np.median(times)),
            (minor_faults() - faults) / repeat)


def time_pinned(g, sigma, axis, repeat):
    """(median warm call s, median warm call s outside the kernel) with
    the process pinned to one CPU and one worker"""
    cpus, workers, kernel = (os.sched_getaffinity(0), solver.WORKERS,
                             solver._advect_lines)
    in_kernel = [0.0]
    os.sched_setaffinity(os.getpid(), {min(cpus)})
    solver.WORKERS = 1
    solver._advect_lines = timed_kernel(kernel, in_kernel)
    try:
        advect(g, sigma, axis)
        times, outside = [], []
        for _ in range(repeat):
            in_kernel[0] = 0.0
            t0 = time.perf_counter()
            advect(g, sigma, axis)
            times.append(time.perf_counter() - t0)
            outside.append(times[-1] - in_kernel[0])
    finally:
        os.sched_setaffinity(os.getpid(), cpus)
        solver.WORKERS, solver._advect_lines = workers, kernel
    return float(np.median(times)), float(np.median(outside))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--repeat", type=int, default=7,
                    help="timed calls per case (median reported)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)

    print(f"{solver.WORKERS} workers on all CPUs, 1 pinned")
    print(f"{'shape':>18} {'axis':>4} {'input':>6} "
          f"{'1st ms':>8} {'1st flt':>8} {'ms/call':>8} {'Mcell/s':>8} "
          f"{'flt/call':>8} {'1cpu ms':>8} {'setup us':>8} {'ratio':>6}")
    for shape in SHAPES:
        g = rng.random(shape)
        sigmas = []
        for axis in range(len(shape)):
            sig_shape = list(shape)
            sig_shape[axis] = 1
            sigmas.append(np.linspace(-0.9, 0.9, g.size // shape[axis])
                          .reshape(sig_shape))
        for axis, sigma in enumerate(sigmas):
            before = (axis - 1) % len(shape)
            inputs = (("C", g),
                      ("solver", advect(g, sigmas[before], before)))
            for name, data in inputs:
                first, first_flt, sec, flt = time_call(
                    data, sigma, axis, args.repeat)
                one, outside = time_pinned(data, sigma, axis, args.repeat)
                print(f"{str(shape):>18} {axis:>4} {name:>6} "
                      f"{first * 1e3:8.2f} {first_flt:8d} "
                      f"{sec * 1e3:8.2f} {g.size / sec / 1e6:8.1f} "
                      f"{flt:8.1f} {one * 1e3:8.2f} {outside * 1e6:8.1f} "
                      f"{sec / one:6.2f}")


if __name__ == "__main__":
    main()
