"""Phase-space solver tests: advection properties, field dispersion,
conservation, and manufactured-solution convergence."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import warnings
import weakref
from collections import deque
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import vkg.solver as solver
from vkg import criteria
from vkg.solver import (FieldState, PhaseState, SimConfig, SolverError,
                        _limited_slopes, advect, initial_states,
                        mms_forcing, run,
                        source_density, step, total_mass, v_centers,
                        x_centers)


# ---------------------------------------------------------------------------
# conservative advection
# ---------------------------------------------------------------------------

def smooth_profiles(m=64):
    """Piecewise-linear profiles of m cells between 6 zero cells at each
    end: a shift of at most 2.5 cells moves nothing out of the line."""
    return st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8).map(
        lambda a: np.pad(np.interp(np.linspace(0, 7, m), np.arange(8.0), a),
                         6))


@settings(max_examples=40, deadline=None)
@given(g=smooth_profiles(), sig=st.floats(-2.5, 2.5))
def test_advect_conserves_mass_and_positivity(g, sig):
    out = advect(g, np.full_like(g, sig), axis=0)
    assert abs(np.sum(out) - np.sum(g)) < 1e-12 * max(np.sum(g), 1.0)
    assert np.all(out >= 0)


@settings(max_examples=30, deadline=None)
@given(sig=st.floats(-2.5, 2.5))
def test_advect_preserves_constants(sig):
    """Away from the ends (8 cells, past the reach of a 2.5-cell shift and
    of the slope stencil into the zero ghosts), a constant line stays
    constant."""
    g = np.ones(64)
    out = advect(g, np.full_like(g, sig), axis=0)
    assert np.allclose(out[8:-8], 1.0, atol=1e-13)


def test_advect_integer_shift_is_exact():
    """At a whole-cell shift xi = 0 and the Hermite weights are (1, 0, 0,
    0): each cell takes its departure cell's average bit for bit, for
    shifts of 1 and 2 cells either way, also on data that span 1e-300 to
    1 from cell to cell.  A line takes in nothing, so the cells its shift
    uncovers hold +0.0."""
    g = np.zeros(32)
    g[10:14] = [1.0, 3.0, 2.0, 0.5]
    wide = 10.0 ** np.random.default_rng(5).uniform(-300.0, 0.0, 32)
    wide[[3, 17]] = 1e-300, 1.0
    for data in (g, wide):
        for sig in (1, -1, 2, -2):
            out = advect(data, np.full_like(data, sig), axis=0)
            want = np.roll(data, sig)
            want[:max(sig, 0)] = want[32 + min(sig, 0):] = 0.0
            assert np.array_equal(out.view(np.int64),
                                  want.view(np.int64)), sig


def test_advect_resolves_tails_locally():
    """A line whose right half is 1e-150 times its left half: away from
    the join (4 cells on either side of it), the right half's cells equal
    bit for bit those of the right half advected alone, for shifts of
    less than a cell either way.  Each cell reads only its neighbours, so
    small values keep their own precision next to large ones."""
    rng = np.random.default_rng(3)
    left = rng.uniform(0.5, 1.5, 32)
    right = 1e-150 * rng.uniform(0.5, 1.5, 32)
    line = np.concatenate([left, right])
    for sig in (0.3, -0.3, 0.7, -0.7):
        got = advect(line, np.full_like(line, sig), axis=0)[32 + 4:]
        alone = advect(right, np.full_like(right, sig), axis=0)[4:]
        assert np.array_equal(got.view(np.int64), alone.view(np.int64)), sig


def test_advect_outgoing_drains_mass_only_at_boundary():
    g = np.zeros(32)
    g[0] = 1.0
    out = advect(g, np.full_like(g, -1.5), axis=0)
    assert np.sum(out) < 0.6 * np.sum(g)
    g2 = np.zeros(32)
    g2[16] = 1.0
    out2 = advect(g2, np.full_like(g2, -1.5), axis=0)
    assert abs(np.sum(out2) - 1.0) < 1e-13


def _bump(x):
    """The smooth bump exp(1 - 1 / (1 - r^2)) on |r| < 1, r = 4 (x - 1/2),
    zero outside."""
    r = (x - 0.5) / 0.25
    out = np.zeros_like(x)
    inside = np.abs(r) < 1
    out[inside] = np.exp(1 - 1 / (1 - r[inside] ** 2))
    return out


def test_advect_second_order_on_smooth_profile():
    errs = []
    for m in (128, 256):
        xs = np.linspace(0, 1, m, endpoint=False)
        out = advect(_bump(xs), np.full(m, 0.4), axis=0)
        errs.append(np.max(np.abs(out - _bump(xs - 0.4 / m))))
    assert errs[0] / errs[1] > 3.0


def test_advect_shift_past_the_whole_line():
    g = np.zeros(32)
    g[10:14] = [1.0, 3.0, 2.0, 0.5]
    for sig in (1e12, -1e12):
        out = advect(g, np.full_like(g, sig), axis=0)
        assert not np.any(out)


def _slopes(fpad):
    """_limited_slopes of fpad into fresh buffers."""
    shape = fpad.shape[:-1] + (fpad.shape[-1] - 3,)
    return _limited_slopes(fpad, np.empty(shape), np.empty(shape))


def test_limited_slopes_match_sign_based_reference():
    rng = np.random.default_rng(0)
    fpad = rng.normal(size=(50, 40))
    fpad[rng.random(fpad.shape) < 0.2] = 0.0
    z, a, b, c = fpad[:, :-3], fpad[:, 1:-2], fpad[:, 2:-1], fpad[:, 3:]
    d4 = (7.0 * (a + b) - (z + c)) / 12.0
    sgn = np.sign(a)
    cap = 3.0 * np.minimum(np.abs(a), np.abs(b))
    ref = np.where(a * b > 0, sgn * np.clip(d4 * sgn, 0.0, cap), 0.0)
    assert np.array_equal(_slopes(fpad), ref)


def _lines(a, axis):
    return np.moveaxis(a, axis, -1).reshape(-1, a.shape[axis])


# The kernel tests' ids name the boundary, "outgoing", which every line
# of the solver has.

@pytest.mark.parametrize("block_cells", [solver.BLOCK_CELLS, 200],
                         ids=["outgoing-default_blocks",
                              "outgoing-small_blocks"])
@pytest.mark.parametrize("shape,axis", [((320, 64), 0), ((320, 64), 1)]
                         + [((8, 9, 10, 12), ax) for ax in range(4)])
def test_advect_lines_with_different_shifts(shape, axis, block_cells,
                                            monkeypatch):
    """Lines with different integer shifts, advected together (in one
    block or in many), match one 1-D advect per line; each line keeps its
    own mass."""
    monkeypatch.setattr(solver, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(sum(shape) + axis)
    sig_shape = list(shape)
    sig_shape[axis] = 1
    sig = rng.uniform(-2.5, 2.5, size=sig_shape)
    g = rng.random(shape) * (rng.random(shape) > 0.3)
    # no mass within 3 cells of either end, so nothing can flow out
    inner = np.moveaxis(g, axis, -1).copy()
    inner[..., :3] = 0.0
    inner[..., -3:] = 0.0
    inner = np.moveaxis(inner, -1, axis)
    sig_lines = _lines(np.broadcast_to(sig, shape), axis)[:, 0]
    for data in (g, inner):
        out = advect(data, sig, axis)
        for line, s, got in zip(_lines(data, axis), sig_lines,
                                _lines(out, axis)):
            ref = advect(line, np.full_like(line, s), axis=0)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        mass_in = _lines(data, axis).sum(axis=1)
        mass_out = _lines(out, axis).sum(axis=1)
        if data is inner:
            assert np.allclose(mass_out, mass_in, rtol=1e-13, atol=0.0)
        else:
            # mass only leaves, through the ends of the lines
            assert np.all(mass_out <= mass_in * (1 + 1e-14))
            assert np.any(mass_out < mass_in * (1 - 1e-12))


# The row-per-line kernel that advect replaced: each line is a row of an
# (L, m) array, and the lines that share an integer shift are gathered
# and interpolated together.  advect must match it bit for bit, and must
# return its memory layout, which the reductions downstream sum in.

def _reference_advect(g: np.ndarray, sigma: np.ndarray, axis: int,
                      lines_kernel=None) -> np.ndarray:
    """Shift cell averages by sigma cells along one axis, conservatively.

    sigma must broadcast to g's shape and be constant along the advection
    axis, so each 1-D line of m cells moves by one uniform shift.  Cell
    edge j departs from j - sigma = (j + k) + xi, with one integer shift
    k = floor(-sigma) and one fraction xi in [0, 1) per line, hence four
    cubic Hermite weights per line.  lines_kernel advects the lines of
    one block: _reference_advect_lines (the default) or
    _primitive_advect_lines.
    """
    g = np.asarray(g, dtype=float)
    gm = np.moveaxis(g, axis, -1)
    m = gm.shape[-1]
    lines = gm.reshape(-1, m)
    sig = np.moveaxis(np.broadcast_to(np.asarray(sigma, dtype=float),
                                      g.shape), axis, -1)[..., 0]
    sig = sig.reshape(-1, 1)
    # roundoff can leave negatives just below zero; zero those without
    # touching genuinely signed data
    floor = -1e-13 * np.max(np.abs(gm), initial=0.0)
    out = np.empty(lines.shape)
    per_block = max(1, solver.BLOCK_CELLS // m)
    for i in range(0, len(lines), per_block):
        block = slice(i, i + per_block)
        out[block] = (lines_kernel or _reference_advect_lines)(
            lines[block], sig[block], floor)
    return np.moveaxis(out.reshape(gm.shape), -1, axis)


def _reference_weights(s: np.ndarray, m: int):
    """The integer shifts k, shape (L,), and Hermite weights (h00, h10,
    h01, h11), each of shape (L, 1), for shifts s of shape (L, 1) of
    lines of m cells."""
    # shifting past the whole line changes nothing and would only widen
    # the padding
    s = np.clip(s, -m - 1.0, m + 1.0)
    k = np.floor(-s)
    xi = -s - k
    k = np.nan_to_num(k).astype(np.int64).ravel()
    xi2 = xi * xi
    xi3 = xi2 * xi
    return k, (2 * xi3 - 3 * xi2 + 1, xi3 - 2 * xi2 + xi,
               -2 * xi3 + 3 * xi2, xi3 - xi2)


def _rows_of_shift(k: np.ndarray, kk: int):
    """The rows of the lines with shift kk: a slice where they are
    consecutive (a view, not a copy), else their indices."""
    rows = np.flatnonzero(k == kk)
    if rows[-1] - rows[0] + 1 == len(rows):
        return slice(rows[0], rows[-1] + 1)
    return rows


def _reference_advect_lines(lines: np.ndarray, s: np.ndarray,
                            floor: float) -> np.ndarray:
    """_reference_advect on lines of shape (L, m) with shifts s of shape
    (L, 1): the interpolated primitive differenced in closed form,

        out_j = ((h00 g_{j+k} + h10 Dd_{j+k}) + h01 g_{j+k+1}) + h11 Dd_{j+k+1}

    with Dd_e = d_{e+1} - d_e the difference of the limited edge slopes,
    on averages padded with max|k| + 3 zero ghost cells."""
    L, m = lines.shape
    k, (h00, h10, h01, h11) = _reference_weights(s, m)
    # average e of a line sits at column G + e of the padded averages
    G = int(np.max(np.abs(k))) + 3
    gp = np.zeros((L, m + 2 * G))
    gp[:, G:G + m] = lines
    # the slope of edge e sits at column G - 2 + e, and so does Dd_e
    Dd = np.diff(_slopes(gp), axis=1)
    out = np.empty((L, m))
    for kk in np.unique(k):
        rows = _rows_of_shift(k, kk)
        g0 = gp[rows, G + kk:G + kk + m]
        g1 = gp[rows, G + kk + 1:G + kk + m + 1]
        d0 = Dd[rows, G - 2 + kk:G - 2 + kk + m]
        d1 = Dd[rows, G - 1 + kk:G - 1 + kk + m]
        out[rows] = (((h00[rows] * g0 + h10[rows] * d0) + h01[rows] * g1)
                     + h11[rows] * d1)
    return np.where((out >= floor) & (out <= 0.0), 0.0, out)


def _primitive_advect_lines(lines: np.ndarray, s: np.ndarray,
                            floor: float) -> np.ndarray:
    """_reference_advect on lines of shape (L, m) with shifts s of shape
    (L, 1) in the form advect had before: the primitive W (cumulative
    sum) and its monotone edge slopes are built once and padded by
    max|k| + 1 edges on each side, W at the departure points is
    differenced back into cell averages.  Lines take in nothing: an edge
    departing from left of the line gets W = 0 and one departing from
    right of it gets the line total, both exactly.  It equals the closed
    form in exact arithmetic; in floating point its cells carry roundoff
    of the line total."""
    L, m = lines.shape
    k, (h00, h10, h01, h11) = _reference_weights(s, m)

    # edge e of a line sits at column P + e of the padded arrays
    P = int(np.max(np.abs(k))) + 1
    Wp = np.zeros((L, m + 1 + 2 * P))
    dp = np.zeros_like(Wp)
    np.cumsum(lines, axis=1, out=Wp[:, P + 1:P + m + 1])
    total = Wp[:, P + m:P + m + 1]
    zero = np.zeros((L, 2))
    dp[:, P:P + m + 1] = _slopes(np.concatenate((zero, lines, zero), axis=1))
    Wp[:, P + m + 1:] = total

    Wq = np.empty((L, m + 1))
    for kk in np.unique(k):
        rows = _rows_of_shift(k, kk)
        w0 = slice(P + kk, P + kk + m + 1)
        w1 = slice(P + kk + 1, P + kk + m + 2)
        Wq[rows] = (h00[rows] * Wp[rows, w0] + h10[rows] * dp[rows, w0]
                    + h01[rows] * Wp[rows, w1] + h11[rows] * dp[rows, w1])
        Wq[rows, :max(0, -kk)] = 0.0
        Wq[rows, max(0, m - kk):] = total[rows]

    out = np.diff(Wq, axis=1)
    return np.where((out < 0) & (out >= floor), 0.0, out)


def _layouts(a):
    """a in C order, and in the lines-last layout advect returns for each
    axis (the layout the solver hands to the next advect call)."""
    out = [("C", a)]
    for ax in range(a.ndim):
        last = np.ascontiguousarray(np.moveaxis(a, ax, -1))
        out.append((f"lines_last_{ax}", np.moveaxis(last, -1, ax)))
    return out


@pytest.mark.parametrize("block_cells", [solver.BLOCK_CELLS, 200],
                         ids=["outgoing-default_blocks",
                              "outgoing-small_blocks"])
@pytest.mark.parametrize("shape,axis",
                         [((320, 64), ax) for ax in range(2)]
                         + [((9600, 8), ax) for ax in range(2)]
                         + [((8, 9, 10, 12), ax) for ax in range(4)])
def test_advect_matches_reference_kernel(shape, axis, block_cells,
                                         monkeypatch):
    """advect equals the row-per-line kernel bit for bit, sign bits of
    zeros included, and returns the same memory layout."""
    monkeypatch.setattr(solver, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(sum(shape) + 7 * axis)
    sig_shape = list(shape)
    sig_shape[axis] = 1
    sig = rng.uniform(-2.5, 2.5, size=sig_shape)
    nonneg = rng.random(shape) * (rng.random(shape) > 0.2)
    signed = rng.normal(size=shape)
    for data in (nonneg, signed):
        for layout, g in _layouts(data):
            got = advect(g, sig, axis)
            ref = _reference_advect(g, sig, axis)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64)), \
                layout
            assert got.strides == ref.strides, layout


# x shifts depend on the velocity of their axis and kick shifts on x, as
# in solver.step; past 3 integer values each, so blocks mix shifts
def _solver_shift(shape, axis, rng):
    n = len(shape) // 2
    sig_shape = [1] * len(shape)
    if axis < n:
        sig_shape[n + axis] = shape[n + axis]
    else:
        sig_shape[:n] = shape[:n]
    return rng.uniform(-2.5, 2.5, size=sig_shape)


@pytest.mark.parametrize("block_cells", [solver.BLOCK_CELLS, 9200],
                         ids=["outgoing-default_blocks",
                              "outgoing-short_last_blocks"])
def test_advect_matches_reference_kernel_on_n2_chain(block_cells,
                                                     monkeypatch):
    """The n = 2 benchmark state through the advect calls of one step, in
    solver order, each on the layout the call before returned: advect
    equals the row-per-line kernel bit for bit at every call.  At 9200
    cells per block (230 lines of 40 cells, 383 of 24) no block size
    divides the lines of a call, so every call ends in a shorter block."""
    monkeypatch.setattr(solver, "BLOCK_CELLS", block_cells)
    shape = (40, 40, 24, 24)
    rng = np.random.default_rng(12)
    g = rng.random(shape) * (rng.random(shape) > 0.2)
    for axis in (0, 1, 2, 3, 0, 1):
        sig = _solver_shift(shape, axis, rng)
        k = np.floor(-sig)
        assert np.max(k) - np.min(k) >= 2
        got = advect(g, sig, axis)
        ref = _reference_advect(g, sig, axis)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), axis
        assert got.strides == ref.strides, axis
        g = got


def _thread_spy(monkeypatch):
    """The threads threading.Thread makes from now on, in a list."""
    made = []
    real = threading.Thread

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(threading, "Thread", spy)
    return made


# 9200 cells: blocks of 230 lines of 40 cells, 383 of 24; 460800: half the
# state, so each call has two blocks, fewer than three workers
@pytest.mark.parametrize("block_cells,workers,threads", [
    (9200, 2, 1), (9200, 3, 2), (460800, 3, 1)],
    ids=["two_workers", "three_workers", "fewer_blocks_than_workers"])
def test_advect_is_the_same_for_any_worker_count(block_cells, workers,
                                                 threads, monkeypatch):
    """On the n = 2 benchmark state, along every axis from a C-ordered
    input and through the advect calls of one step in solver order,
    advect with W workers equals its one-worker result bit for bit, with
    the same strides.  A call takes no more workers than it has blocks,
    and no thread outlives it."""
    monkeypatch.setattr(solver, "BLOCK_CELLS", block_cells)
    shape = (40, 40, 24, 24)
    rng = np.random.default_rng(30)
    g = rng.random(shape) * (rng.random(shape) > 0.2)
    calls = [(g, _solver_shift(shape, axis, rng), axis)
             for axis in range(4)]
    chain = g
    for axis in (0, 1, 2, 3, 0, 1):
        calls.append((chain, _solver_shift(shape, axis, rng), axis))
        chain = advect(*calls[-1])
    monkeypatch.setattr(solver, "WORKERS", 1)
    want = [advect(*call) for call in calls]
    monkeypatch.setattr(solver, "WORKERS", workers)
    made = _thread_spy(monkeypatch)
    running = threading.active_count()
    for call, ref in zip(calls, want):
        got = advect(*call)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert got.strides == ref.strides
        assert threading.active_count() == running
    assert len(made) == threads * len(calls)


def test_advect_workers_under_fast_thread_switching(monkeypatch):
    """More workers than CPUs, with the interpreter switching threads
    every microsecond: each worker still writes all of its lines and only
    its own, so the results of a chain of calls equal the one-worker
    results bit for bit, and the chain finishes within a minute."""
    monkeypatch.setattr(solver, "BLOCK_CELLS", 2000)
    shape = (16, 16, 12, 12)
    rng = np.random.default_rng(31)
    g = rng.random(shape) * (rng.random(shape) > 0.2)
    shifts = [(_solver_shift(shape, axis, rng), axis)
              for axis in (0, 1, 2, 3, 0, 1)]

    def chain(out):
        f = g
        for sig, axis in shifts:
            f = advect(f, sig, axis)
            out.append(f)

    want = []
    monkeypatch.setattr(solver, "WORKERS", 1)
    chain(want)
    got = []
    monkeypatch.setattr(solver, "WORKERS", len(os.sched_getaffinity(0)) + 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=chain, args=(got,), daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    """An exception raised on a worker thread is raised by advect, after
    every thread has been joined."""
    monkeypatch.setattr(solver, "WORKERS", 2)
    real = solver._advect_lines

    def failing(*args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
        real(*args)

    monkeypatch.setattr(solver, "_advect_lines", failing)
    made = _thread_spy(monkeypatch)
    running = threading.active_count()
    g = np.random.default_rng(3).random((40, 40, 24, 24))
    with pytest.raises(FloatingPointError, match="worker failed"):
        advect(g, _solver_shift(g.shape, 0, np.random.default_rng(4)), 0)
    assert len(made) == 1 and not made[0].is_alive()
    assert threading.active_count() == running


def test_workers_see_the_callers_error_state(monkeypatch):
    """Each worker runs its blocks under the caller's numpy error state,
    so an invalid operation is treated alike on every block."""
    monkeypatch.setattr(solver, "WORKERS", 2)
    real = solver._advect_lines
    seen = set()

    def spy(*args):
        seen.add((threading.current_thread() is threading.main_thread(),
                  np.geterr()["invalid"]))
        real(*args)

    monkeypatch.setattr(solver, "_advect_lines", spy)
    g = np.random.default_rng(6).random((40, 40, 24, 24))
    with np.errstate(invalid="raise"):
        advect(g, _solver_shift(g.shape, 2, np.random.default_rng(7)), 2)
    assert seen == {(True, "raise"), (False, "raise")}


def test_a_one_block_call_starts_no_thread(monkeypatch):
    """The n = 1 benchmark state is one block: advect runs it on the
    calling thread, with every worker available."""
    monkeypatch.setattr(solver, "WORKERS", 4)
    made = _thread_spy(monkeypatch)
    rng = np.random.default_rng(5)
    g = rng.random((320, 64))
    for axis in range(2):
        advect(g, _solver_shift(g.shape, axis, rng), axis)
    assert made == []


def _block_spy(monkeypatch):
    """The (cells per line, lines) of every block _advect_lines gets from
    now on, in a list, and the floor of each block that takes one, in
    another."""
    blocks, floors = [], []
    real = solver._advect_lines

    def spy(gp, k, h, floor, work, out):
        blocks.append((out.shape[0], gp.shape[1]))

        def seen():
            floors.append(floor())
            return floors[-1]

        real(gp, k, h, seen, work, out)

    monkeypatch.setattr(solver, "_advect_lines", spy)
    return blocks, floors


def _floor_spy(monkeypatch):
    """The input of every roundoff floor advect takes from now on, in a
    list."""
    taken = []
    real = solver._roundoff_floor

    def spy(g):
        taken.append(g)
        return real(g)

    monkeypatch.setattr(solver, "_roundoff_floor", spy)
    return taken


def test_workers_take_whole_blocks(monkeypatch):
    """On the n = 2 benchmark state, along every axis, _advect_lines gets
    the same blocks with one worker and with two: whole BLOCK_CELLS
    blocks, 20 of 46080 cells per call, whatever the worker count."""
    shape = (40, 40, 24, 24)
    rng = np.random.default_rng(33)
    g = rng.random(shape)
    calls = [(g, _solver_shift(shape, axis, rng), axis)
             for axis in range(4)]
    blocks, _ = _block_spy(monkeypatch)
    seen = {}
    for workers in (1, 2):
        monkeypatch.setattr(solver, "WORKERS", workers)
        blocks.clear()
        for call in calls:
            advect(*call)
        seen[workers] = sorted(blocks)
    assert seen[1] == seen[2]
    assert seen[2] == sorted([(40, 1152)] * 40 + [(24, 1920)] * 40)
    assert max(m * lines for m, lines in seen[2]) <= solver.BLOCK_CELLS


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -np.nan],
                         ids=["nan", "inf", "minus_inf", "minus_nan"])
def test_a_non_finite_value_late_in_memory(value, monkeypatch):
    """A NaN or an infinity in the second half of a C-ordered state's
    memory: with two workers the same blocks take the floor as with one,
    every one of them gets the one-worker floor, NaN or -inf, and the
    result equals the one-worker result bit for bit.  The floor is taken
    only where a value's sign bit is set, so -inf and -NaN make the one
    block of their line take it, while +inf and NaN leave every sign bit
    clear and no block takes it."""
    shape = (40, 40, 24, 24)
    rng = np.random.default_rng(34)
    g = rng.random(shape) * (rng.random(shape) > 0.2)
    g[30, 5, 3, 7] = value
    _, floors = _block_spy(monkeypatch)
    for axis in range(4):
        sig = _solver_shift(shape, axis, rng)
        monkeypatch.setattr(solver, "WORKERS", 1)
        want = advect(g, sig, axis)
        want_floors = floors.copy()
        floors.clear()
        monkeypatch.setattr(solver, "WORKERS", 2)
        got = advect(g, sig, axis)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(floors) == len(want_floors) == int(np.signbit(value))
        if np.isnan(value):
            assert np.all(np.isnan(want_floors)) and np.all(np.isnan(floors))
        else:
            assert want_floors == floors == [-np.inf] * len(floors)
        floors.clear()


def test_a_gaussian_n2_run_takes_no_floor(monkeypatch):
    """Three coupled steps of the n = 2 benchmark's Gaussian data: no
    block of the 18 advect calls holds a value with its sign bit set, so
    no call takes the floor's max and min."""
    calls = []
    real = solver.advect

    def counted(g, sigma, axis):
        calls.append(axis)
        return real(g, sigma, axis)

    monkeypatch.setattr(solver, "advect", counted)
    taken = _floor_spy(monkeypatch)
    run(SimConfig(n=2, mode="coupled", x_extent=5.0, nx=40, vmax=2.5,
                  nv=24, dt=0.1, t0=2.0, t_end=2.3, epsilon=1e-3,
                  f_amplitude=2e-5, phi_amplitude=4e-4, taus=()))
    assert sorted(calls) == sorted([0, 1, 2, 3, 0, 1] * 3)
    assert taken == []


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("where", [(30, 5, 3, 7), np.s_[:, :, 3]],
                         ids=["one_block", "every_block"])
@pytest.mark.parametrize("value", [-1e-14, -0.0],
                         ids=["roundoff", "minus_zero"])
def test_the_floor_is_taken_once_per_call(value, where, workers,
                                          monkeypatch):
    """A nonnegative n = 2 state whose planted values are in [floor, 0)
    or are -0.0, in one block or in every block of every axis, advected
    by zero cells along every axis.  The zero Hermite weights are given
    their sign bit, so that every block's sum is its input bit for bit
    and the planted values, -0.0 too, reach the floor step in the blocks
    that hold them.  For any worker count each call takes the floor once,
    from the whole input, the planted values become +0.0 and every other
    value is the input's."""
    real = solver._advect_lines

    def signed_zero_weights(gp, k, h, floor, work, out):
        real(gp, k, [h[0]] + [np.negative(w) for w in h[1:]], floor, work,
             out)

    monkeypatch.setattr(solver, "_advect_lines", signed_zero_weights)
    monkeypatch.setattr(solver, "WORKERS", workers)
    taken = _floor_spy(monkeypatch)
    shape = (40, 40, 24, 24)
    g = np.random.default_rng(35).random(shape)
    g[where] = value * g.max()
    want = g.copy()
    want[where] = 0.0
    for axis in range(4):
        got = advect(g, np.zeros((1,) * 4), axis)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(taken) == 1 and taken[0] is g
        taken.clear()


@pytest.mark.parametrize("shape,per_block,rows", [
    # the x-sweep of the n = 2 state at half a block: 24 rows of 40 lines
    # in two blocks of 12, not 20 and 4
    ((24, 24, 40), 819, [12] * 48),
    ((24, 24, 40), 1638, [1] * 24),
    ((5,), 2, [2, 2, 1]),
    ((7, 3), 9, [3, 2, 2]),
    ((4, 6), 24, [4])])
def test_line_blocks_are_equal(shape, per_block, rows):
    """The blocks tile the lines in C order, each of at most per_block
    lines, as few as can be, and of equal size up to one row, the first
    the largest."""
    blocks = solver._line_blocks(shape, per_block)
    index = np.arange(math.prod(shape)).reshape(shape)
    tiled = np.concatenate([index[b].ravel() for b in blocks])
    assert np.array_equal(tiled, np.arange(index.size))
    sizes = [index[b].size for b in blocks]
    assert max(sizes) <= per_block and sizes[0] == max(sizes)
    assert [index[b].shape[0] for b in blocks] == rows


@pytest.mark.parametrize("block_cells", [solver.BLOCK_CELLS, 200],
                         ids=["default_blocks", "small_blocks"])
@pytest.mark.parametrize("shape", [(320, 64), (12, 10, 8, 6)])
def test_advect_result_is_not_a_workspace_view(shape, block_cells,
                                               monkeypatch):
    """Each result is a fresh array of its own: two results stay bit for
    bit as they were after a third call on other data, and the memory
    behind a result holds the result and nothing else."""
    monkeypatch.setattr(solver, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(len(shape))
    results = [advect(rng.random(shape), _solver_shift(shape, ax, rng), ax)
               for ax in (0, 1)]
    kept = [r.copy() for r in results]
    advect(rng.normal(size=shape), _solver_shift(shape, 0, rng), 0)
    for r, before in zip(results, kept):
        assert np.array_equal(r.view(np.int64), before.view(np.int64))
        owner = r
        while owner.base is not None:
            owner = owner.base
        assert owner.flags.owndata and owner.nbytes == r.nbytes
    assert not np.shares_memory(*results)


@pytest.mark.parametrize("shape", [
    (9,), (1,), (7, 5), (1, 5), (7, 1), (0, 5), (5, 0), (4, 1, 6),
    (3, 4, 5), (0, 3, 4), (3, 4, 5, 6), (2, 1, 3, 1)])
def test_advect_result_layout(shape):
    """For ndim 1 to 4 and every axis (none of length 0, which holds no
    line to advect), on every input layout: the result has g's other axes
    in C order and the advection axis last in memory, the strides of
    np.moveaxis(np.empty(moved_shape), -1, axis), and the values of the
    row-per-line kernel, also for length-1 axes and calls with no lines."""
    rng = np.random.default_rng(sum(shape) + len(shape))
    data = rng.normal(size=shape)
    for axis in range(len(shape)):
        if shape[axis] == 0:
            continue
        moved = np.moveaxis(data, axis, -1).shape
        want = np.moveaxis(np.empty(moved), -1, axis).strides
        sig_shape = list(shape)
        sig_shape[axis] = 1
        sig = rng.uniform(-2.5, 2.5, size=sig_shape)
        for layout, g in _layouts(data):
            got = advect(g, sig, axis)
            assert got.shape == shape and got.strides == want, (axis, layout)
            ref = _reference_advect(g, sig, axis)
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("shape", [(64, 48), (10, 12, 8, 6)],
                         ids=["shape0-outgoing", "shape1-outgoing"])
def test_advect_matches_primitive_form_to_roundoff(shape):
    """advect agrees with the primitive form it replaced, which equals it
    in exact arithmetic: per line, |advect - primitive| <= 8 eps times the
    line's sum of |g|, on every axis with the solver's shifts, for
    nonnegative and signed data."""
    rng = np.random.default_rng(sum(shape))
    eps = np.finfo(float).eps
    nonneg = rng.random(shape) * (rng.random(shape) > 0.2)
    signed = rng.normal(size=shape)
    for axis in range(len(shape)):
        sig = _solver_shift(shape, axis, rng)
        for data in (nonneg, signed):
            got = advect(data, sig, axis)
            prim = _reference_advect(data, sig, axis,
                                     lines_kernel=_primitive_advect_lines)
            scale = _lines(np.abs(data), axis).sum(axis=1)
            err = np.max(np.abs(_lines(got - prim, axis)), axis=1)
            assert np.all(err <= 8 * eps * scale), axis


def test_roundoff_floor_zeroes_only_values_between_it_and_zero():
    """The line kernel's floor step on a hand-made block of four lines
    (the columns), at shift 0, where the Hermite weights (1, 0, 0, 0)
    hand each average to the step unchanged: values in [floor, 0) and
    -0.0 become +0.0; values below the floor, NaN and positive values are
    untouched."""
    floor = -1e-13
    below = np.nextafter(floor, -np.inf)
    lines = np.array([[-1e-14, -2e-13, np.nan, 1e-300],
                      [floor, -1.0, np.nan, 0.5],
                      [-5e-324, below, np.nan, 1.0],
                      [-0.0, -3.0, np.nan, 5e-324]])
    m, L = lines.shape
    starts = solver._workspace_rows(m, 0, 0)
    work = np.empty(starts[-1] * L)
    gp, *rest = (work[lo * L:hi * L].reshape(hi - lo, L)
                 for lo, hi in zip(starts[:-1], starts[1:]))
    G = (gp.shape[0] - m) // 2
    gp[G:G + m] = lines
    out = np.empty((m, L))
    solver._advect_lines(gp, np.zeros(L, dtype=np.int64),
                         [np.full(L, w) for w in (1.0, 0.0, 0.0, 0.0)],
                         lambda: floor, rest, out)
    want = lines.copy()
    want[:, 0] = 0.0
    assert np.all(np.isnan(out[:, 2]))
    keep = [0, 1, 3]
    assert np.array_equal(out[:, keep].view(np.int64),
                          want[:, keep].view(np.int64))


# ---------------------------------------------------------------------------
# configuration guard rails
# ---------------------------------------------------------------------------

def test_cfl_violation_rejected():
    cfg = SimConfig(nx=100, x_extent=1.0, dt=0.1)
    with pytest.raises(SolverError, match="CFL"):
        cfg.validate()


def test_lightcone_mode_needs_interior_start():
    cfg = SimConfig(rmax_mode="lightcone", t0=2.0, support_radius=3.0,
                    dt=0.01)
    with pytest.raises(SolverError, match="lightcone"):
        cfg.validate()


def test_slice_coverage_enforced():
    cfg = SimConfig(n=1, dt=0.01, t0=2.0, t_end=3.0, taus=(2.5,), rmax=10.0)
    with pytest.raises(SolverError, match="needs t up to"):
        cfg.validate()


# ---------------------------------------------------------------------------
# coupled evolution
# ---------------------------------------------------------------------------

SMALL = SimConfig(n=1, mode="coupled", x_extent=10.0, nx=200, vmax=3.0,
                  nv=48, dt=0.04, t0=2.0, t_end=5.0, epsilon=1e-2, taus=())


def test_mass_conserved_and_positive():
    res = run(SMALL)
    drift = abs(res.mass[-1] - res.mass[0]) / res.mass[0]
    assert drift / (res.times[-1] - res.times[0]) < 1e-10
    assert np.min(res.min_f) >= -1e-14 * np.max(res.sup_f)


def test_free_transport_keeps_field_zero():
    cfg = SimConfig(n=1, mode="free_transport", x_extent=10.0, nx=200,
                    vmax=3.0, nv=32, dt=0.04, t0=2.0, t_end=4.0, taus=())
    phase, fld = initial_states(cfg)
    assert not np.any(fld.phi)
    res = run(cfg)
    assert np.max(res.sup_phi) == 0.0


def _fft_free_kg(phi0, dx, t, pad=4):
    """phi at time t of free 1-D Klein-Gordon from (phi0, 0): phi0 zero-
    padded to pad times its length, then phihat(k, t) = phihat0(k) cos(w t)
    with w = sqrt(1 + k^2), cut back to phi0's cells."""
    m = len(phi0)
    lo = (pad - 1) * m // 2
    ext = np.zeros(pad * m)
    ext[lo:lo + m] = phi0
    k = 2 * np.pi * np.fft.rfftfreq(pad * m, dx)
    return np.fft.irfft(np.fft.rfft(ext) * np.cos(np.sqrt(1 + k * k) * t),
                        pad * m)[lo:lo + m]


# worst relative deviation from the FFT solution over the 200 steps:
# 8.46e-4 (2.2e-4 at twice the resolution in x and t);
# without the mass term in the acceleration it is 2.7
FREE_KG_FFT_RTOL = 1e-3


def test_free_kg_dispersion_relation():
    """A Gaussian packet of free Klein-Gordon on the open box follows the
    FFT solution, whose modes turn at w = sqrt(1 + k^2), at every step up
    to t = 10, before the packet reaches the edge of the box."""
    cfg = SimConfig(n=1, mode="free_kg", x_extent=20.0, nx=400, vmax=1.0,
                    nv=4, dt=0.05, t0=0.0, t_end=10.0, phi_amplitude=1.0,
                    phi_width=1.0, taus=())
    phase, fld = initial_states(cfg)
    phi0 = fld.phi
    for _ in range(cfg.nsteps):
        step(phase, fld, cfg)
        ref = _fft_free_kg(phi0, cfg.dx, fld.t - cfg.t0)
        scale = np.max(np.abs(ref))
        assert max(abs(ref[0]), abs(ref[-1])) < 1e-12 * scale
        assert np.max(np.abs(fld.phi - ref)) < FREE_KG_FFT_RTOL * scale, fld.t


@pytest.mark.parametrize("n", [1, 2])
def test_free_kg_step_skips_transport(n, monkeypatch):
    """f is identically zero in free_kg mode; a step must not advect it."""
    cfg = SimConfig(n=n, mode="free_kg", x_extent=4.0, nx=16, vmax=2.0, nv=4,
                    dt=0.1, t0=2.0, t_end=2.2, taus=())
    calls = []
    monkeypatch.setattr(solver, "advect", lambda *a, **kw: calls.append(a))
    phase, fld = initial_states(cfg)
    phi0 = fld.phi.copy()
    step(phase, fld, cfg)
    assert calls == []
    assert not np.any(phase.f)
    assert not np.array_equal(fld.phi, phi0)


@pytest.mark.parametrize("mode,n", [
    ("coupled", 1), ("coupled", 2), ("free_transport", 1),
    ("free_transport", 2), ("free_kg", 1), ("free_kg", 2), ("mms", 1),
    ("mms", 2)])
def test_step_leaves_its_input_arrays_alone(mode, n):
    """step rebinds the state to new arrays and never writes into the
    ones it was given, so a caller may keep a state it passed in (a
    reference, a checkpoint) without copying it."""
    cfg = SimConfig(n=n, mode=mode, x_extent=4.0, nx=16, vmax=2.0, nv=8,
                    dt=0.1, t0=2.0, t_end=2.2, epsilon=1e-2, taus=())
    sources = ()
    if mode == "mms":
        phi_ex, pi_ex, f_ex, *sources = mms_forcing(cfg)
        phase = PhaseState(f_ex(cfg.t0), cfg.t0)
        fld = FieldState(phi_ex(cfg.t0), pi_ex(cfg.t0), cfg.t0)
    else:
        phase, fld = initial_states(cfg)
    before = [phase.f, fld.phi, fld.pi]
    kept = [a.copy() for a in before]
    step(phase, fld, cfg, *sources)
    for a, b in zip(before, kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2])
def test_step_matches_reference_kernel(n, monkeypatch):
    """Coupled steps with advect and with the reference kernel agree bit
    for bit, and so do the reductions over the state (they sum in memory
    order, so this also pins the layout advect returns)."""
    cfg = SimConfig(n=n, mode="coupled", x_extent=4.0, nx=32 if n == 1 else 16,
                    vmax=2.0, nv=24 if n == 1 else 12, dt=0.1, t0=2.0,
                    t_end=2.3, epsilon=1e-2, taus=())

    def three_steps():
        phase, fld = initial_states(cfg)
        for _ in range(3):
            step(phase, fld, cfg)
        return phase.f, fld.phi

    f, phi = three_steps()
    monkeypatch.setattr(solver, "advect", _reference_advect)
    f_ref, phi_ref = three_steps()
    assert np.array_equal(f.view(np.int64), f_ref.view(np.int64))
    assert np.array_equal(phi.view(np.int64), phi_ref.view(np.int64))
    assert np.array_equal(source_density(f, cfg), source_density(f_ref, cfg))
    assert total_mass(f, cfg) == total_mass(f_ref, cfg)


# The field update that field_substep replaced: a Laplacian at both ends
# of every substep, each axis padded on its own.  field_substep must match
# it bit for bit.

def _reference_laplacian(phi: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order five-point stencil per axis (zero-extended outside
    the box; the radiation condition keeps the boundary cells small)."""
    out = np.zeros_like(phi)
    for ax in range(phi.ndim):
        pad = [(0, 0)] * phi.ndim
        pad[ax] = (2, 2)
        padded = np.pad(phi, pad)

        def shift(k):
            s = [slice(None)] * phi.ndim
            s[ax] = slice(2 + k, padded.shape[ax] - 2 + k)
            return padded[tuple(s)]

        out += (-shift(-2) + 16 * shift(-1) - 30 * phi
                + 16 * shift(1) - shift(2)) / 12.0
    return out / dx ** 2


def _reference_field_substep(field: FieldState, rho: np.ndarray, k: float,
                             cfg: SimConfig, source=None):
    """Velocity-Verlet advance of (phi, pi) by k with frozen source rho."""

    def accel(phi, t):
        a = _reference_laplacian(phi, cfg.dx) - phi - rho
        if source is not None:
            a = a + source(t)
        return a

    a0 = accel(field.phi, field.t)
    phi1 = field.phi + k * field.pi + 0.5 * k * k * a0
    a1 = accel(phi1, field.t + k)
    pi1 = field.pi + 0.5 * k * (a0 + a1)
    field.phi = phi1
    field.pi = pi1
    field.t += k
    solver._sommerfeld(field, cfg)


@pytest.mark.parametrize("forced", [False, True],
                         ids=["outgoing-unforced", "outgoing-field_source"])
@pytest.mark.parametrize("n", [1, 2])
def test_field_substep_matches_reference(n, forced):
    """Substeps taken as step takes them, two per frozen rho, with rho
    renewed between pairs (the scalar 0.0 that step passes without a kick
    against the reference's zeros, then a density), agree with the
    reference bit for bit: the L phi - phi carried over from one substep
    to the next is the one the reference evaluates again."""
    cfg = SimConfig(n=n, mode="mms", x_extent=4.0, nx=24 if n == 1 else 12,
                    vmax=2.0, nv=8, dt=0.1, t0=1.0, t_end=2.0, epsilon=1e-3,
                    taus=())
    phi_ex, pi_ex, _, _, field_source = mms_forcing(cfg)
    source = field_source if forced else None
    rng = np.random.default_rng(n)
    fld = FieldState(phi_ex(cfg.t0), pi_ex(cfg.t0), cfg.t0)
    ref = FieldState(fld.phi, fld.pi, fld.t)
    for pair in range(4):
        rho = rng.random(fld.phi.shape) * 1e-3 if pair % 2 else 0.0
        for _ in range(2):
            solver.field_substep(fld, rho, cfg.dt / 2, cfg, source)
            _reference_field_substep(ref, rho + np.zeros_like(ref.phi),
                                     cfg.dt / 2, cfg, source)
            for got, want in ((fld.phi, ref.phi), (fld.pi, ref.pi)):
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))
            assert fld.t == ref.t


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("mode", ["coupled", "mms", "free_kg",
                                  "free_transport"])
def test_run_evaluates_two_laplacians_per_step(mode, n, monkeypatch):
    """An N-step run evaluates 2N + 1 Laplacians when the field evolves
    (one per substep, and one for the initial phi) and none when it does
    not."""
    cfg = SimConfig(n=n, mode=mode, x_extent=4.0, nx=16, vmax=2.0, nv=8,
                    dt=0.1, t0=2.0, t_end=2.5, epsilon=1e-2, taus=())
    calls = []
    laplacian = solver._laplacian

    def spy(*args):
        calls.append(args)
        return laplacian(*args)

    monkeypatch.setattr(solver, "_laplacian", spy)
    steps = len(run(cfg).times) - 1
    assert steps == 5
    assert len(calls) == (0 if mode == "free_transport" else 2 * steps + 1)


@pytest.mark.parametrize("mode", ["coupled", "free_kg"])
def test_run_reduces_f_once_in_free_kg_mode(mode, monkeypatch):
    """free_kg never changes f, so run takes its max, min and mass at t0
    only and repeats them on every row; other modes take them per step."""
    cfg = SimConfig(n=1, mode=mode, x_extent=4.0, nx=16, vmax=2.0, nv=8,
                    dt=0.1, t0=2.0, t_end=2.5, epsilon=1e-2, taus=())
    calls = []
    mass = solver.total_mass

    def spy(*args):
        calls.append(args)
        return mass(*args)

    monkeypatch.setattr(solver, "total_mass", spy)
    res = run(cfg)
    steps = len(res.times) - 1
    assert steps == 5
    assert len(calls) == (1 if mode == "free_kg" else steps + 1)
    if mode == "free_kg":
        f0 = initial_states(cfg)[0].f
        assert np.array_equal(res.mass, np.full(steps + 1, mass(f0, cfg)))
        assert np.array_equal(res.sup_f, np.full(steps + 1, f0.max()))
        assert np.array_equal(res.min_f, np.full(steps + 1, f0.min()))


def test_sommerfeld_frame_at_odd_nx_divides_by_no_zero():
    """At odd nx the n = 2 grid has a cell at r = 0.  The radiation value
    is set on the boundary frame only, so a step warns of nothing, and the
    frame gets the values of the formula evaluated on the whole grid."""
    cfg = SimConfig(n=2, mode="coupled", x_extent=3.0, nx=15, vmax=2.0, nv=8,
                    dt=0.1, t0=2.0, t_end=2.2, epsilon=1e-2, taus=())
    phase, fld = initial_states(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step(phase, fld, cfg)
    xa, xb = np.meshgrid(x_centers(cfg), x_centers(cfg), indexing="ij")
    phi = fld.phi
    gx = np.gradient(phi, cfg.dx, axis=0, edge_order=1)
    gy = np.gradient(phi, cfg.dx, axis=1, edge_order=1)
    r = np.hypot(xa, xb)
    assert r[7, 7] == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        val = -(xa * gx + xb * gy) / r - phi / (2 * r)
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        assert np.array_equal(fld.pi[sl], val[sl])


def test_source_density_matches_mass():
    phase, _ = initial_states(SMALL)
    rho = source_density(phase.f, SMALL)
    assert abs(np.sum(rho) * SMALL.dx - total_mass(phase.f, SMALL)) < 1e-14


def test_run_rejects_uncovered_slices():
    cfg = SimConfig(n=1, x_extent=10.0, nx=200, vmax=2.0, nv=16, dt=0.04,
                    t0=2.0, t_end=5.0, taus=(3.0,), rmax=4.0)
    with pytest.raises(SolverError):
        run(cfg)


def test_slice_nodes_cover_requested_extent():
    cfg = SimConfig(n=1, x_extent=10.0, nx=200, vmax=2.0, nv=16, dt=0.04,
                    t0=2.0, t_end=6.2, taus=(3.0,), rmax=4.0,
                    slice_resolution=20)
    res = run(cfg)
    nodes = res.slices[3.0].nodes
    assert len(nodes) == 2 * 20 + 1
    radii = sorted(nd.y[0] for nd in nodes)
    assert radii[0] == -4.0 and radii[-1] == 4.0
    for nd in nodes:
        t_lo, t_hi = nd.t_levels[2], nd.t_levels[3]
        assert t_lo <= nd.t_star <= t_hi


def test_overlapping_nodes_share_one_read_only_block(monkeypatch):
    """Nodes that fire at one step with overlapping windows are views of
    one copied block: each equals the copy of its own window from the
    levels, neighbours share memory, and no node can write into another."""
    cfg = SimConfig(n=2, mode="coupled", x_extent=4.0, nx=32, vmax=2.0,
                    nv=8, dt=0.1, t0=2.0, t_end=3.0, epsilon=1e-2,
                    taus=(2.4,), rmax=1.0, slice_resolution=2)
    calls = []
    capture = solver._capture_nodes

    def spy(levels, cfg, fired):
        nodes = capture(levels, cfg, fired)
        calls.append((list(levels), fired, nodes))
        return nodes

    monkeypatch.setattr(solver, "_capture_nodes", spy)
    nodes = run(cfg).slices[2.4].nodes
    assert len(nodes) == 128 and len(calls) < len(nodes)
    assert [nd.y for nd in nodes] == [e[2] for e in solver._pending_nodes(cfg)]
    for levels, fired, captured in calls:
        for e, nd in zip(fired, captured):
            idx = e[-1]
            assert np.array_equal(nd.fblock,
                                  np.array([lv[1][idx] for lv in levels]))
            assert np.array_equal(nd.phiblock,
                                  np.array([lv[2][idx] for lv in levels]))
    # neighbouring angles on one ring
    a, b = nodes[0], nodes[1]
    assert np.shares_memory(a.fblock, b.fblock)
    assert np.shares_memory(a.phiblock, b.phiblock)
    for block in (a.fblock, a.phiblock):
        with pytest.raises(ValueError):
            block[...] = 0.0
    bases = {id(nd.fblock.base): nd.fblock.base for nd in nodes}
    assert sum(base.nbytes for base in bases.values()) \
        < 0.1 * sum(nd.fblock.nbytes for nd in nodes)


def test_capture_shares_a_block_only_where_it_saves_memory():
    """A diagonal chain of windows that overlap in one cell bounds a box
    larger than the windows together, so each window is copied alone."""
    cfg = SimConfig(n=2, x_extent=4.0, nx=32, vmax=2.0, nv=4, dt=0.1,
                    taus=())
    rng = np.random.default_rng(0)
    levels = deque([(0.1 * k, rng.random((32, 32, 4, 4)),
                     rng.random((32, 32))) for k in range(solver.T_WINDOW)])

    xc = x_centers(cfg)

    def fired(*starts):
        return [(2.5, 2.4, (0.0, 0.0), 0.0, 1.0, (xc[j:j + 9],) * 2,
                 (slice(j, j + 9),) * 2) for j in starts]

    chain = fired(0, 8, 16)
    nodes = solver._capture_nodes(levels, cfg, chain)
    for e, nd in zip(chain, nodes):
        assert np.array_equal(nd.fblock,
                              np.array([lv[1][e[-1]] for lv in levels]))
    assert not any(np.shares_memory(p.fblock, q.fblock)
                   for p, q in zip(nodes, nodes[1:]))
    p, q = solver._capture_nodes(levels, cfg, fired(0, 2))
    assert np.shares_memory(p.fblock, q.fblock)
    assert p.fblock.base.shape[1:3] == (11, 11)


@pytest.mark.parametrize("n", [1, 2])
def test_levels_hold_copies_of_the_kept_box(n, monkeypatch):
    """Every held level is a copy of f and phi over the kept box, the box
    that bounds every node's window, and each node's blocks equal its
    window copied from the full states of a run stepped alongside, at
    the node's global x coordinates."""
    cfg = SimConfig(n=n, mode="coupled", x_extent=4.0, nx=32, vmax=2.0,
                    nv=8, dt=0.1, t0=2.0, t_end=3.2, epsilon=1e-2,
                    taus=(2.4, 2.5), rmax=1.0, slice_resolution=2)
    windows = {e[1:3]: e[-1] for e in solver._pending_nodes(cfg)}
    box, _ = solver._kept_box(solver._pending_nodes(cfg))
    lo = [min(w[d].start for w in windows.values()) for d in range(n)]
    hi = [max(w[d].stop for w in windows.values()) for d in range(n)]
    assert box == tuple(map(slice, lo, hi))
    assert all(b - a < cfg.nx for a, b in zip(lo, hi))
    box_shape = tuple(b - a for a, b in zip(lo, hi))
    states = {}             # t -> (f, phi) of the full state
    real_step, capture = solver.step, solver._capture_nodes

    def step_spy(phase, fld, *args):
        states.setdefault(phase.t, (phase.f.copy(), fld.phi.copy()))
        real_step(phase, fld, *args)
        states[phase.t] = (phase.f.copy(), fld.phi.copy())

    def capture_spy(levels, *args):
        for t, f, phi in levels:
            assert f.shape == box_shape + (cfg.nv,) * n and f.base is None
            assert phi.shape == box_shape and phi.base is None
            assert np.array_equal(f, states[t][0][box])
            assert np.array_equal(phi, states[t][1][box])
        return capture(levels, *args)

    monkeypatch.setattr(solver, "step", step_spy)
    monkeypatch.setattr(solver, "_capture_nodes", capture_spy)
    result = run(cfg)
    xc = x_centers(cfg)
    nodes = [nd for s in result.slices.values() for nd in s.nodes]
    assert len(nodes) == len(windows)
    for nd in nodes:
        idx = windows[nd.tau, nd.y]
        for x, w in zip(nd.x_axes, idx):
            assert np.array_equal(x, xc[w])
        assert np.array_equal(nd.fblock, np.array(
            [states[t][0][idx] for t in nd.t_levels]))
        assert np.array_equal(nd.phiblock, np.array(
            [states[t][1][idx] for t in nd.t_levels]))


@pytest.mark.parametrize("taus", [(), (2.4,)], ids=["no_slice", "slice"])
def test_run_holds_no_level_after_the_last_node_fires(taus, monkeypatch):
    """run holds copies of the kept box, never a state itself: every f a
    step replaced has been freed by the next step, and from the last
    firing on (from the start when no node is pending) no level is
    held."""
    cfg = SimConfig(n=1, mode="coupled", x_extent=4.0, nx=32, vmax=2.0,
                    nv=8, dt=0.1, t0=2.0, t_end=3.6, epsilon=1e-2,
                    taus=taus, rmax=1.0, slice_resolution=2)
    replaced = []           # weak references to each f a step was given
    held = []               # weak references to the f of each level read
    alive = []              # (t, how many of each are alive) at each step
    captured = [cfg.t0]     # times at which nodes fired
    real_step, capture = solver.step, solver._capture_nodes

    def step_spy(phase, *args):
        alive.append((phase.t, sum(ref() is not None for ref in replaced),
                      sum(ref() is not None for ref in held)))
        replaced.append(weakref.ref(phase.f))
        real_step(phase, *args)

    def capture_spy(levels, *args):
        captured.append(levels[-1][0])
        held.extend(weakref.ref(lv[1]) for lv in levels)
        return capture(levels, *args)

    monkeypatch.setattr(solver, "step", step_spy)
    monkeypatch.setattr(solver, "_capture_nodes", capture_spy)
    run(cfg)
    after = [f + lv for t, f, lv in alive if t >= captured[-1]]
    assert len(after) >= 5 and not any(after)
    assert max(f for t, f, lv in alive) == 0


@pytest.mark.parametrize("mode,n", [("coupled", 1), ("coupled", 2),
                                    ("mms", 1), ("mms", 2)])
def test_step_holds_at_most_two_states(mode, n, monkeypatch):
    """Through a run, every advect call finds no earlier state alive but
    its input: the step holds the input and the result of the current
    call, and drops each state once the next sub-step has replaced it."""
    cfg = SimConfig(n=n, mode=mode, x_extent=4.0, nx=16, vmax=2.0, nv=8,
                    dt=0.1, t0=2.0, t_end=2.3, epsilon=1e-2, taus=())
    seen = []               # weak references to the memory of each state
    calls = []
    real_advect = solver.advect

    def memory(a):
        while a.base is not None:
            a = a.base
        return a

    def spy(g, *args, **kwargs):
        alive = [ref() for ref in seen]
        calls.append(sum(a is not None and a is not memory(g)
                         for a in alive))
        del alive
        seen.append(weakref.ref(memory(g)))
        out = real_advect(g, *args, **kwargs)
        seen.append(weakref.ref(memory(out)))
        return out

    monkeypatch.setattr(solver, "advect", spy)
    run(cfg)
    assert calls == [0] * (3 * 3 * n)


def test_memory_check_counts_the_mms_factors(monkeypatch):
    """mms_forcing holds three f-sized factors for the whole run (54 MiB
    beside an 18 MiB state at n = 2, 48^2 x 32^2).  The memory check counts
    them, so on a machine that fits the coupled run but not the forced one
    the forced run is rejected before they are built."""
    cfg = SimConfig(n=2, mode="mms", x_extent=4.0, nx=48, vmax=2.0, nv=32,
                    dt=0.1, t0=1.0, t_end=1.2, taus=())
    coupled = dataclasses.replace(cfg, mode="coupled")
    need_mms = solver._check_memory(cfg, ())
    need_coupled = solver._check_memory(coupled, ())
    assert need_mms - need_coupled == 3 * 8 * (48 * 32) ** 2
    memory = (need_coupled + need_mms) // 2
    monkeypatch.setattr(os, "sysconf", lambda name: (
        1 if name == "SC_PAGE_SIZE" else memory))
    built = []
    monkeypatch.setattr(solver, "mms_forcing", built.append)
    with pytest.raises(SolverError, match="three forcing factors"):
        run(cfg)
    assert built == []
    assert solver._check_memory(coupled, ()) == need_coupled


@pytest.mark.parametrize("where", ["f", "phi"])
def test_non_finite_value_stops_the_run_within_its_step(where, monkeypatch):
    """A NaN that enters f (from an advect call) or phi (from a field
    substep) in the third step makes run raise at the end of that step,
    with the time the step reached."""
    cfg = SimConfig(n=1, mode="coupled", x_extent=4.0, nx=16, vmax=2.0,
                    nv=8, dt=0.1, t0=2.0, t_end=3.0, epsilon=1e-2, taus=())
    steps = []
    real_step = solver.step
    name = "advect" if where == "f" else "field_substep"
    real = getattr(solver, name)

    def step_spy(phase, *args):
        steps.append(phase.t)
        real_step(phase, *args)
        steps[-1] = phase.t

    def inject(*args, **kwargs):
        out = real(*args, **kwargs)
        if len(steps) == 3:
            if where == "f":
                out[(5,) * out.ndim] = np.nan
            else:
                fld = args[0]
                fld.phi = fld.phi.copy()
                fld.phi[5] = np.nan
        return out

    monkeypatch.setattr(solver, "step", step_spy)
    monkeypatch.setattr(solver, name, inject)
    with pytest.raises(SolverError) as err:
        run(cfg)
    assert len(steps) == 3
    assert str(err.value) == f"non-finite state at t={steps[-1]}"


def test_memory_check_counts_the_series():
    """run records five float64 series, one entry each per level, and the
    memory check counts them exactly with run's own step count."""
    cfg = SimConfig(n=1, mode="free_transport", x_extent=4.0, nx=16,
                    vmax=2.0, nv=8, dt=0.1, t0=2.0, t_end=3.0, taus=())
    longer = dataclasses.replace(cfg, dt=1e-4)
    assert (cfg.nsteps, longer.nsteps) == (10, 10_000)
    assert (solver._check_memory(longer, ()) - solver._check_memory(cfg, ())
            == 5 * 8 * 9_990)


@pytest.mark.parametrize("n", [1, 2])
def test_memory_check_counts_the_slice_nodes(n):
    """The memory check counts NODE_BYTES per slice node, from the
    resolution alone: as many nodes as build_slice_quadrature lays out."""
    cfg = SimConfig(n=n, mode="coupled", x_extent=4.0, nx=40, vmax=2.0,
                    nv=8, dt=0.1, t0=2.0, t_end=5.0, taus=(2.5, 3.0),
                    rmax=1.0, slice_resolution=7)
    built = sum(len(solver.build_slice_quadrature(
        tau, n, cfg.rmax, cfg.slice_resolution).radii) for tau in cfg.taus)
    no_nodes = dataclasses.replace(cfg, taus=())
    assert (solver._check_memory(cfg, ()) - solver._check_memory(no_nodes, ())
            == solver.NODE_BYTES * built)


def test_memory_check_counts_a_workspace_per_worker(monkeypatch):
    """The memory check counts one block workspace for each worker a call
    takes: more workers add workspaces on the n = 2 benchmark grid, whose
    calls have 20 blocks, and none on an n = 1 grid of one block."""
    n2 = SimConfig(n=2, mode="coupled", x_extent=4.0, nx=40, vmax=2.0,
                   nv=24, dt=0.1, t0=2.0, t_end=3.0, taus=())
    n1 = SimConfig(n=1, mode="coupled", x_extent=4.0, nx=320, vmax=2.0,
                   nv=64, dt=0.01, t0=2.0, t_end=3.0, taus=())
    need = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(solver, "WORKERS", workers)
        need[workers] = (solver._check_memory(n2, ()),
                         solver._check_memory(n1, ()))
    assert need[1][0] < need[2][0] < need[3][0]
    assert need[1][1] == need[2][1] == need[3][1]


@pytest.mark.parametrize("mode,change,name", [
    ("free_transport", {"vmax": 1e150}, "f"),
    ("mms", {"vmax": 1e150}, "f"),
    ("coupled", {"vmax": 1e150, "phi_amplitude": 0.0}, "f"),
    ("free_kg", {"x_extent": 1e150}, "phi"),
    ("coupled", {"phi_width": 1e-3, "f_amplitude": 0.0}, "phi")])
def test_data_the_grid_cannot_hold_is_rejected_before_stepping(
        mode, change, name, monkeypatch):
    """A positive amplitude whose initial f or phi underflows to zero on
    every cell (the cells are far wider than the data) stops the run
    before its first step; zero amplitudes and the field a mode never
    sets still run."""
    cfg = SimConfig(n=1, mode=mode, x_extent=4.0, nx=16, vmax=2.0, nv=8,
                    dt=0.1, t0=2.0, t_end=2.3, taus=())
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    with pytest.raises(SolverError,
                       match=f"the initial {name} of amplitude 0.001 is zero"):
        run(dataclasses.replace(cfg, **change))
    assert steps == []
    zero = {"f": "f_amplitude", "phi": "phi_amplitude"}[name]
    if mode != "mms":
        run(dataclasses.replace(cfg, **change, **{zero: 0.0}))
        assert len(steps) == 3


# free transport from the centre of a narrow box: the x edges pass the
# boundary floor at t = 4.65
EDGE = SimConfig(n=1, mode="free_transport", x_extent=4.0, nx=40, vmax=2.0,
                 nv=16, dt=0.05, t0=2.0, t_end=6.0, f_width_x=0.5, taus=())


@pytest.mark.parametrize("t_end", [6.0, 4.5], ids=["reaches", "clear"])
def test_boundary_warning_once_at_the_first_step_past_the_floor(
        t_end, monkeypatch):
    edges = []
    real_step = solver.step

    def step_spy(phase, *args):
        real_step(phase, *args)
        edges.append((phase.t, max(np.max(np.abs(phase.f[0])),
                                   np.max(np.abs(phase.f[-1])))))

    monkeypatch.setattr(solver, "step", step_spy)
    res = run(dataclasses.replace(EDGE, t_end=t_end))
    past = [(t, e) for t, e in edges if e > solver.BOUNDARY_FLOOR]
    if t_end == 4.5:
        assert past == [] and res.warnings == []
        return
    # the edge stays past the floor, but the run warns once
    assert len(past) > 10
    assert res.warnings == [
        f"distribution support reached the boundary at t={past[0][0]:.3f}"
        f" (edge max {past[0][1]:.3e})"]


def _reference_boundary_max(f, n):
    return max(np.max(np.abs(np.moveaxis(f, d, 0)[e]))
               for d in range(n) for e in (0, -1))


@pytest.mark.parametrize("n", [1, 2])
def test_boundary_max_reads_the_outermost_x_cells(n):
    """max |f| over the first and last cells of each x axis, on signed
    data and the layouts advect returns: a maximum in a corner cell is
    read, one in the interior or at a velocity edge is not."""
    rng = np.random.default_rng(n)
    shape = (7, 6) if n == 1 else (7, 6, 4, 5)
    base = rng.normal(size=shape)
    corner = base.copy()
    corner[(-1,) * n + (0,) * n] = -50.0
    inner = base.copy()
    inner[(3,) * n + (-1,) * n] = 60.0
    for data in (base, corner, inner):
        for layout, f in _layouts(data):
            got = solver._boundary_max(f, n)
            assert got == _reference_boundary_max(f, n), layout
            assert got == 50.0 if data is corner else got < 10.0, layout


def test_determinism_bitwise():
    a = run(SMALL)
    b = run(SMALL)
    assert np.array_equal(a.sup_f, b.sup_f)
    assert np.array_equal(a.mass, b.mass)


def test_n2_short_coupled_run():
    cfg = SimConfig(n=2, mode="coupled", x_extent=6.0, nx=72, vmax=2.5,
                    nv=24, dt=0.06, t0=2.0, t_end=3.2, epsilon=1e-2,
                    taus=(2.4,), rmax=1.5, slice_resolution=6)
    res = run(cfg)
    drift = abs(res.mass[-1] - res.mass[0]) / res.mass[0]
    assert drift < 1e-10
    assert np.min(res.min_f) >= -1e-14 * np.max(res.sup_f)
    assert len(res.slices[2.4].nodes) > 0


def sympy_mms_forcing(cfg: SimConfig):
    """Reference for mms_forcing: the same five grid functions of t,
    derived symbolically (sympy integrates rho* and simplifies h_V)."""
    n = cfg.n
    t = sp.Symbol("t")
    xs = sp.symbols(f"x1:{n + 1}")
    vs = sp.symbols(f"v1:{n + 1}")
    v0 = sp.sqrt(1 + sum(v ** 2 for v in vs))
    wx, wv, wp = cfg.f_width_x, cfg.f_width_v, cfg.phi_width
    amp = cfg.epsilon

    phi_star = amp * sp.exp(-sum(x ** 2 for x in xs) / (2 * wp ** 2)) \
        * sp.cos(t) * sp.exp(-t / 20)
    f_star = amp * sp.exp(-sum(x ** 2 for x in xs) / (2 * wx ** 2)
                          - sum(v ** 2 for v in vs) / (2 * wv ** 2)) \
        * (1 + sp.sin(t) / 2)

    box = sp.diff(phi_star, t, 2) - sum(sp.diff(phi_star, x, 2) for x in xs)
    rho_star = f_star
    for v in vs:
        rho_star = sp.integrate(rho_star, (v, -sp.oo, sp.oo))
    # solver accel is lap(phi) - phi - rho + S, so S restores d_t^2 phi*
    h_kg = box + phi_star + rho_star

    transport = v0 * sp.diff(f_star, t) \
        + sum(vs[i] * sp.diff(f_star, xs[i]) for i in range(n)) \
        - v0 * sum(sp.diff(phi_star, xs[i]) * sp.diff(f_star, vs[i])
                   for i in range(n))
    h_v = sp.simplify(transport / v0)

    phi_fn = sp.lambdify((t,) + xs, phi_star, "numpy")
    pi_fn = sp.lambdify((t,) + xs, sp.diff(phi_star, t), "numpy")
    f_fn = sp.lambdify((t,) + xs + vs, f_star, "numpy")
    hkg_fn = sp.lambdify((t,) + xs, h_kg, "numpy")
    hv_fn = sp.lambdify((t,) + xs + vs, h_v, "numpy")

    xg, vg = solver._grids(cfg)
    xgrid_f = [x[(...,) + (None,) * n] for x in xg]
    vgrid_f = [v[(None,) * n] for v in vg]

    def field_source(tt):
        return hkg_fn(tt, *xg)

    def kinetic_source(tt):
        return hv_fn(tt, *xgrid_f, *vgrid_f)

    def phi_exact(tt):
        return phi_fn(tt, *xg)

    def pi_exact(tt):
        return pi_fn(tt, *xg)

    def f_exact(tt):
        return np.broadcast_to(f_fn(tt, *xgrid_f, *vgrid_f),
                               (cfg.nx,) * n + (cfg.nv,) * n).copy()

    return phi_exact, pi_exact, f_exact, kinetic_source, field_source


# worst relative deviation measured over all five functions, n = 1 and 2,
# t in {1, 1.37, 2.5}: 6.25e-15 (h_KG, n = 1)
MMS_ORACLE_RTOL = 7e-15


@pytest.mark.parametrize("n", [1, 2])
def test_mms_forcing_matches_sympy_oracle(n):
    """The closed forms agree with the symbolic derivation to roundoff,
    for all five functions at several t."""
    cfg = SimConfig(n=n, mode="mms", x_extent=4.0, nx=24 if n == 1 else 12,
                    vmax=2.0, nv=16 if n == 1 else 8, dt=0.1, t0=1.0,
                    t_end=2.0, epsilon=1e-3, taus=())
    for fn, ref in zip(mms_forcing(cfg), sympy_mms_forcing(cfg)):
        for t in (1.0, 1.37, 2.5):
            got, want = fn(t), ref(t)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= MMS_ORACLE_RTOL * np.max(
                np.abs(want))


def test_mms_run_and_cli_do_not_import_sympy():
    """sympy is a test oracle only: a manufactured-solution run and the
    command-line module load without it."""
    code = (
        "import sys\n"
        "import vkg.cli\n"
        "from vkg.solver import SimConfig, run\n"
        "run(SimConfig(n=1, mode='mms', x_extent=4.0, nx=16, vmax=2.0, nv=8,"
        " dt=0.1, t0=1.0, t_end=1.2, taus=()))\n"
        "assert 'sympy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_run_mms_error_matches_stepping_by_hand():
    """run(cfg).mms_error is the final-time error of the same steps taken
    one by one with the forcing; other modes report none."""
    cfg = SimConfig(n=1, mode="mms", x_extent=8.0, nx=160, vmax=3.0, nv=48,
                    dt=0.02, t0=1.0, t_end=1.2, epsilon=1e-3, taus=())
    phi_ex, pi_ex, f_ex, ks, fs = mms_forcing(cfg)
    phase = PhaseState(f_ex(cfg.t0), cfg.t0)
    fld = FieldState(phi_ex(cfg.t0), pi_ex(cfg.t0), cfg.t0)
    for _ in range(10):
        step(phase, fld, cfg, ks, fs)
    assert run(cfg).mms_error == (
        float(np.max(np.abs(fld.phi - phi_ex(fld.t)))),
        float(np.max(np.abs(phase.f - f_ex(phase.t)))))
    assert run(dataclasses.replace(cfg, mode="coupled")).mms_error is None


# the n = 2 ladder (nx, nv, dt) = (16, 12, 0.1) -> (32, 24, 0.05) measured
# errors phi 6.86e-7 -> 7.78e-8 and f 1.46e-5 -> 1.29e-6, orders 3.14 and
# 3.50; with x advected at v_d / sqrt(1 + v_d^2) instead of v_d / v^0 the
# orders were 1.04 and 0.29 and the fine errors 4.02e-7 and 9.90e-6
N2_MMS_MIN_ORDER = 2.8
N2_MMS_MAX_ORDER = 4.0
N2_MMS_FINE_ERRORS = (1e-7, 1.5e-6)


def test_n2_mms_converges_at_high_order(runs):
    """The n = 2 manufactured solution, refined once in x, v and t, shows
    its errors falling at the measured orders: the run that `vkg.criteria`
    and scripts/mms_convergence.py share."""
    coarse, fine = (runs(criteria.mms_run(nx, dt, nv, n=2))[0].mms_error
                    for nx, dt, nv in ((16, 0.1, 12), (32, 0.05, 24)))
    for c, f, bound in zip(coarse, fine, N2_MMS_FINE_ERRORS):
        assert N2_MMS_MIN_ORDER <= math.log2(c / f) <= N2_MMS_MAX_ORDER
        assert f < bound


@pytest.mark.parametrize("n", [1, 2])
def test_x_sweeps_shift_by_v_over_v0(n, monkeypatch):
    """Each x sweep of a step shifts x axis d by v_d / v^0 * h / dx cells,
    v^0 = sqrt(1 + |v|^2), one shift per velocity cell."""
    cfg = SimConfig(n=n, mode="coupled", x_extent=4.0, nx=16, vmax=2.0,
                    nv=6, dt=0.1, t0=2.0, t_end=2.1, epsilon=1e-2, taus=())
    sweeps = []
    real_advect = solver.advect

    def spy(g, sigma, axis):
        if axis < n:
            sweeps.append((axis, sigma))
        return real_advect(g, sigma, axis)

    monkeypatch.setattr(solver, "advect", spy)
    step(*initial_states(cfg), cfg)
    vg = np.meshgrid(*[v_centers(cfg)] * n, indexing="ij")
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    assert [axis for axis, _ in sweeps] == list(range(n)) * 2
    for axis, sigma in sweeps:
        assert sigma.shape == (1,) * n + (cfg.nv,) * n
        np.testing.assert_allclose(
            sigma[(0,) * n], vg[axis] / v0 * (cfg.dt / 2) / cfg.dx,
            rtol=1e-15, atol=0.0)


def test_mms_forcing_consistency():
    """The forcing functions must make the exact pair an actual solution:
    a very short run at decent resolution stays close to it."""
    cfg = SimConfig(n=1, mode="mms", x_extent=8.0, nx=320, vmax=3.0, nv=160,
                    dt=0.01, t0=1.0, t_end=1.2, epsilon=1e-3, taus=())
    phi_ex, pi_ex, f_ex, ks, fs = mms_forcing(cfg)
    phase = PhaseState(f_ex(cfg.t0), cfg.t0)
    fld = FieldState(phi_ex(cfg.t0), pi_ex(cfg.t0), cfg.t0)
    for _ in range(20):
        step(phase, fld, cfg, ks, fs)
    assert np.max(np.abs(fld.phi - phi_ex(fld.t))) < 1e-3 * np.max(
        np.abs(phi_ex(fld.t)))
    assert np.max(np.abs(phase.f - f_ex(phase.t))) < 1e-2 * np.max(
        f_ex(phase.t))
