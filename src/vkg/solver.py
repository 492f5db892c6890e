"""Phase-space solver for the coupled kinetic / scalar-field system.

The distribution f(t, x, v) obeys  d_t f + vhat . grad_x f
- grad_x(phi) . grad_v f = 0  with vhat = v/v^0, and the field obeys
(box - 1) phi = rho = int f dv.  Transport is advanced by a conservative
semi-Lagrangian split: monotone cubic interpolation of the primitive,
differenced in closed form so that the primitive is never built, which
conserves mass to roundoff, preserves positivity and resolves the tails
of f locally; the field by velocity Verlet.  A step rebinds the state's
f after every sub-step, so it holds at most two phase-space states at
once: the input and the result of the current advection.
Hyperboloidal slice extraction reads the last T_WINDOW time levels of
the kept box, the x cells that bound every slice node's window: the run
holds a copy of f and phi over that box per level, not the whole state,
and copies a local space-time block out of those copies around the slice
nodes as the simulation time sweeps past them.
Nodes that fire at the same step and whose windows overlap share one
read-only block, and each node's block is a view of its window in it.
Without nodes no level is held, and once the last node has fired the
run keeps none.

Arrays carry one or two x-axes (n = 1 or 2) followed by the matching
v-axes.  Everything is written once for both dimensions, with loops over
the axes, except the Sommerfeld boundary and the capture half-width in
`_pending_nodes`, which branch on n = 1.
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (MIN_RESOLUTION, build_slice_quadrature,
                       slice_node_count)


class SolverError(RuntimeError):
    pass


# highest generator order that `vkg derive` and the slice diagnostics
# (energy_order) accept; there are (2n + n(n-1)/2 + 1)^order multi-indices
# of each order
SYMBOLIC_CAP = 4

# largest dt / dx a run accepts; the x shifts then stay below one cell
CFL_SAFETY = 0.9
# f above this on an outgoing x edge makes the run warn once
BOUNDARY_FLOOR = 1e-10


@dataclass(frozen=True)
class SimConfig:
    n: int = 1
    mode: str = "coupled"          # coupled | free_transport | free_kg | mms
    x_extent: float = 20.0         # half-width of the x box
    nx: int = 400                  # cells per x axis
    vmax: float = 2.0              # half-width of the v box
    nv: int = 64                   # cells per v axis
    dt: float = 0.04
    t0: float = 3.0
    t_end: float = 12.0
    epsilon: float = 1e-3          # smallness parameter for the monitors
    f_amplitude: float = -1.0      # initial f peak; epsilon when negative
    phi_amplitude: float = -1.0    # initial phi peak; epsilon when negative
    f_width_x: float = 0.7
    f_width_v: float = 0.35
    phi_width: float = 0.7
    taus: tuple[float, ...] = ()
    rmax: float = 10.0             # slice truncation radius (or cap)
    rmax_mode: str = "fixed"       # fixed | lightcone
    support_radius: float = 3.0    # data support estimate for lightcone mode
    slice_resolution: int = 40
    energy_order: int = 2          # max |A| in grid diagnostics

    @property
    def dx(self) -> float:
        return 2.0 * self.x_extent / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.vmax / self.nv

    @property
    def nsteps(self) -> int:
        return int(round((self.t_end - self.t0) / self.dt))

    def validate(self):
        if self.n not in (1, 2):
            raise SolverError(f"dimension {self.n} unsupported")
        if self.mode not in ("coupled", "free_transport", "free_kg", "mms"):
            raise SolverError(f"unknown mode {self.mode!r}")
        if self.rmax_mode not in ("fixed", "lightcone"):
            raise SolverError(f"unknown rmax mode {self.rmax_mode!r}")
        for name in ("dt", "nx", "nv", "x_extent", "vmax", "epsilon",
                     "f_width_x", "f_width_v", "phi_width"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SolverError(
                    f"{name} must be positive and finite, got {value}")
        for name in ("nx", "nv"):
            # np.gradient with edge_order=2 needs three points per axis
            value = getattr(self, name)
            if value < 3:
                raise SolverError(f"{name} must be at least 3, got {value}")
        for name in ("x_extent", "vmax"):
            # the Laplacian, the energies, |x|^2 and |v|^2 sum n squares of
            # these scales
            value = getattr(self, name)
            if not math.isfinite(self.n * value * value):
                raise SolverError(f"{name} squared, summed over {self.n} "
                                  f"axes, overflows, got {value}")
        for name in ("f_width_x", "f_width_v", "phi_width"):
            # the initial Gaussians divide by 2 w^2, and in mms mode the
            # forcing's Laplacian divides by phi_width^4
            value = getattr(self, name)
            if not math.isfinite(2 * value * value):
                raise SolverError(f"{name} squared overflows, got {value}")
        w2 = self.phi_width * self.phi_width
        if self.mode == "mms" and not math.isfinite(w2 * w2):
            raise SolverError("phi_width to the fourth power overflows in "
                              f"mms mode, got {self.phi_width}")
        # the forcing's Laplacian takes |x|^2 / phi_width^4 on every cell
        if self.mode == "mms" and (
                w2 * w2 < sys.float_info.min or not math.isfinite(
                    self.n * self.x_extent * self.x_extent / (w2 * w2))):
            raise SolverError("phi_width is too small in mms mode: |x|^2 / "
                              f"phi_width^4 overflows, got {self.phi_width}")
        # the L2 estimate checks divide by epsilon^2
        if self.epsilon * self.epsilon < sys.float_info.min:
            raise SolverError(
                f"epsilon squared underflows, got {self.epsilon}")
        if not math.isfinite(self.epsilon * self.epsilon):
            raise SolverError(
                f"epsilon squared overflows, got {self.epsilon}")
        for name in ("f_amplitude", "phi_amplitude", "rmax",
                     "support_radius"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SolverError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(tau) for tau in self.taus):
            raise SolverError(f"taus must be finite, got {self.taus}")
        if len(set(self.taus)) < len(self.taus):
            # each slice would collect every one of its nodes twice
            raise SolverError(f"taus must be distinct, got {self.taus}")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)
                and self.t_end > self.t0):
            raise SolverError(
                f"need finite t0 < t_end, got t0={self.t0}, t_end={self.t_end}")
        if not math.isfinite((self.t_end - self.t0) / self.dt):
            raise SolverError(
                f"the step count (t_end - t0) / dt overflows, got dt={self.dt}")
        if self.slice_resolution < MIN_RESOLUTION:
            raise SolverError(
                f"slice_resolution must be at least {MIN_RESOLUTION}, got "
                f"{self.slice_resolution}")
        # the pipeline's L2 estimate checks read the order-1 quantities
        if not 1 <= self.energy_order <= SYMBOLIC_CAP:
            raise SolverError(
                f"energy_order must be in [1, {SYMBOLIC_CAP}], "
                f"got {self.energy_order}")
        if self.rmax_mode == "lightcone":
            if self.t0 <= self.support_radius:
                raise SolverError(
                    "lightcone truncation needs t0 > support_radius")
            # slice_rmax squares c = t0 - support_radius
            c = self.t0 - self.support_radius
            if not math.isfinite(c * c):
                raise SolverError("t0 - support_radius squared overflows "
                                  f"in lightcone mode, got {c}")
        if self.dt > CFL_SAFETY * self.dx:
            raise SolverError(
                f"CFL violation: dt={self.dt} > {CFL_SAFETY}*dx={CFL_SAFETY * self.dx}")
        for tau in self.taus:
            if tau < self.t0 + 3 * self.dt:
                raise SolverError(
                    f"slice tau={tau} starts before history coverage (t0={self.t0})")
            # slice_rmax and the node times square tau
            if not math.isfinite(tau * tau):
                raise SolverError(f"taus squared overflows, got {tau}")
            rm = slice_rmax(self, tau)
            if rm <= 0:
                why = (f"rmax={self.rmax}" if rm == self.rmax
                       else "in lightcone mode")
                raise SolverError(
                    f"slice tau={tau} has no covered radius ({why})")
            t_top = math.hypot(tau, rm)
            if t_top > self.t_end - 2 * self.dt:
                raise SolverError(
                    f"slice tau={tau} needs t up to {t_top:.2f} > t_end={self.t_end}")


def slice_rmax(cfg: SimConfig, tau: float) -> float:
    """Truncation radius for one diagnostic slice.

    In lightcone mode the radius follows the boundary r = t - c beyond
    which data supported in |x| <= support_radius at t0 cannot reach, so
    truncation discards nothing; c = t0 - support_radius.
    """
    if cfg.rmax_mode == "fixed":
        return cfg.rmax
    c = cfg.t0 - cfg.support_radius
    return min(cfg.rmax, (tau ** 2 - c ** 2) / (2 * c))


def x_centers(cfg: SimConfig) -> np.ndarray:
    return -cfg.x_extent + (np.arange(cfg.nx) + 0.5) * cfg.dx


def v_centers(cfg: SimConfig) -> np.ndarray:
    return -cfg.vmax + (np.arange(cfg.nv) + 0.5) * cfg.dv


def _grids(cfg: SimConfig):
    """The x grids on (x..) and the v grids on (v..), one per axis."""
    return (np.meshgrid(*[x_centers(cfg)] * cfg.n, indexing="ij"),
            np.meshgrid(*[v_centers(cfg)] * cfg.n, indexing="ij"))


# ---------------------------------------------------------------------------
# Conservative semi-Lagrangian advection
# ---------------------------------------------------------------------------


def _limited_slopes(fpad2: np.ndarray, out: np.ndarray,
                    tmp: np.ndarray) -> np.ndarray:
    """Edge slopes of the primitive from cell averages (two ghost cells).

    Fourth-order edge-value estimate, limited into the monotone region
    [0, 3 min] of the adjacent one-signed averages; zero across sign
    changes.  Keeping the interpolant of the primitive monotone is
    what preserves positivity; the high-order interior estimate keeps
    the advection second-order globally.  The stencil runs along the last
    axis.  The slopes are written to out and tmp holds the bounds; both
    have the shape of the result.
    """
    z = fpad2[..., :-3]
    a = fpad2[..., 1:-2]
    b = fpad2[..., 2:-1]
    c = fpad2[..., 3:]
    # d4 = (7 (a + b) - (z + c)) / 12
    np.add(a, b, out=out)
    np.multiply(7.0, out, out=out)
    np.subtract(out, np.add(z, c, out=tmp), out=out)
    np.divide(out, 12.0, out=out)
    # the region is [0, 3 min(a, b)] for a positive pair, [3 max(a, b), 0]
    # for a negative one, and {0} when a and b differ in sign
    np.multiply(3.0, np.maximum(a, b, out=tmp), out=tmp)
    np.maximum(out, np.minimum(tmp, 0.0, out=tmp), out=out)
    np.multiply(3.0, np.minimum(a, b, out=tmp), out=tmp)
    return np.minimum(out, np.maximum(tmp, 0.0, out=tmp), out=out)


# advect works through the lines in blocks of at most this many cells (a
# block is a set of whole lines, the columns of the (m, L) line array),
# so that the workspace of one block stays in cache while the numpy calls
# per block stay few.  On the n = 2 benchmark state, (40, 40, 24, 24), a
# call took 7-14% less time at 1 << 16 than at 1 << 15, and more at
# 1 << 14 and 1 << 17; the n = 1 state, (320, 64), is one block at either
# size.  A call of more than one block shares these same blocks among W <=
# WORKERS workers, each with a workspace of its own.
BLOCK_CELLS = 1 << 16

# one worker per CPU this process may run on, read once at import
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else 1)


def _line_blocks(shape: tuple[int, ...], per_block: int) -> list[tuple]:
    """Blocks of at most per_block lines (at least one) that tile an array
    of lines of this shape in C order, as few as can be and of equal size
    up to one row, the first the largest.  Each block is an index tuple
    into the array: fixed indices on the leading axes, a range on one axis
    and whole axes after it, so the block is a view of the array."""
    j = 0
    while math.prod(shape[j:]) > per_block:
        j += 1
    if j == 0:
        return [()]
    rows = shape[j - 1]
    count = -(-rows // (per_block // math.prod(shape[j:])))
    edges = [-(-rows * i // count) for i in range(count + 1)]
    return [lead + (slice(lo, hi),) for lead in np.ndindex(*shape[:j - 1])
            for lo, hi in zip(edges[:-1], edges[1:])]


def _in_workers(task: Callable[[int], None], workers: int):
    """task(w) for w = 0 .. workers - 1, w = 0 on the calling thread and
    each other on a thread of its own, which sees the caller's context
    (numpy's error state among it).  Every thread is joined before this
    returns, and the first exception a worker raised is raised here."""
    errors = []

    def guarded(w):
        try:
            task(w)
        except BaseException as exc:
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(guarded, w))
            thread.start()
            threads.append(thread)
        guarded(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def advect(g: np.ndarray, sigma: np.ndarray, axis: int) -> np.ndarray:
    """Shift cell averages by sigma cells along one axis, conservatively.

    sigma must broadcast to g's shape and be constant along the advection
    axis, so each 1-D line of m cells moves by one uniform shift.  Cell
    edge j departs from j - sigma = (j + k) + xi, with one integer shift
    k = floor(-sigma) and one fraction xi in [0, 1) per line, hence four
    cubic Hermite weights per line.  The scheme interpolates the
    primitive W (W_e, the sum of the first e averages) between its edges
    with a monotone cubic Hermite and differences it at the departure
    points.  Since W_{e+1} - W_e = g_e, that difference is taken in
    closed form and W is never built:

        out_j = ((h00 g_{j+k} + h10 Dd_{j+k}) + h01 g_{j+k+1}) + h11 Dd_{j+k+1}

    where Dd_e = d_{e+1} - d_e is the difference of the limited edge
    slopes d.  Each cell reads only its neighbourhood, so small values
    far from large ones (the tails of f) keep their own relative
    precision instead of roundoff of the line total.  The averages are
    padded with max|k| + 3 zero ghost cells at each end: the boundary is
    open, so a line takes in nothing and loses exactly what leaves.  The
    cells of a line sum to the interpolant's difference between its end
    edges, so the total along each line is kept to roundoff, up to
    boundary outflow.

    The lines are the columns of an (m, L) array, so every stencil step
    (limiter, slope difference, Hermite sum) is an operation on
    contiguous rows of L lines.  The Hermite sum is evaluated for every
    line over the rows that any shift in the block reads, and each line's
    window is then picked with one masked copy per further shift.  The
    lines are taken in equal blocks of at most BLOCK_CELLS cells, each a
    box of lines with the line axes in g's memory order, copied straight
    from g into the ghost-padded (m + 2 (max|k| + 3), lines) buffer, so g
    is never transposed as a whole.  The shifts, weights, result and
    workspace are prepared once per call.  The roundoff floor, one max and
    one min over g, is taken at most once per call, by the first block
    whose result holds a value with its sign bit set; a call whose blocks
    hold none (a nonnegative f, as a rule) never takes it.  A call of one
    block runs it on the calling thread.  A call of more blocks shares the
    same blocks among W workers, one per CPU (WORKERS) but no more than
    the call has blocks: the calling thread and W - 1 threads, each taking
    the next block not yet taken until none is left, in a workspace of its
    own.  The lines of a sweep are independent 1-D problems, so each
    worker writes the lines of its blocks of the result, and every line
    is computed by the same operations for any W and any order.  All
    threads are joined before advect returns, and the first exception a
    worker raised is raised here.

    The result is a fresh array laid out with the advection axis last in
    memory.  The callers' reductions (source_density, total_mass) sum in
    memory order, so this layout is part of the result: another one moves
    their sums, and every artifact built from them, in the last bits.
    """
    g = np.asarray(g, dtype=float)
    m, ndim = g.shape[axis], g.ndim
    result = np.empty(g.shape[:axis] + g.shape[axis + 1:] + (m,)).transpose(
        [*range(axis), ndim - 1, *range(axis, ndim - 1)])
    # the advection axis first, then the line axes in g's memory order
    # (largest stride first): blocks are then boxes of whole cache lines
    order = [axis] + sorted((a for a in range(ndim) if a != axis),
                            key=lambda a: -abs(g.strides[a]))
    lines = g.transpose(order)
    # one shift per line, in a C-ordered array of the line axes, so that
    # a block's shifts are a view of it
    sig = np.array(np.broadcast_to(np.asarray(sigma, dtype=float),
                                   g.shape).transpose(order)[0], order="C")
    if not sig.size:
        return result
    # shifting past the whole line changes nothing and would only widen
    # the padding
    np.minimum(np.maximum(sig, -m - 1.0, out=sig), m + 1.0, out=sig)
    k = np.floor(-sig)
    xi = -sig - k
    k = np.where(np.isnan(k), 0.0, k).astype(np.int64)
    xi2 = xi * xi
    xi3 = xi2 * xi
    h = (2 * xi3 - 3 * xi2 + 1, xi3 - 2 * xi2 + xi, -2 * xi3 + 3 * xi2,
         xi3 - xi2)
    per_block = max(1, BLOCK_CELLS // m)
    boxes = _line_blocks(lines.shape[1:], per_block)
    workers = min(WORKERS, len(boxes))
    # the workspace of one block per worker, at the size of the first
    # (largest) block: the padded averages, then the slopes, the limiter's
    # bounds and the slope differences, which the Hermite sum, its term
    # and the picked windows reuse.  It is one allocation: freeing one
    # large block raises glibc's mmap and trim thresholds above its size,
    # so later calls reuse the same heap pages instead of faulting in
    # fresh ones
    starts = _workspace_rows(m, int(k.min()), int(k.max()))
    size = starts[-1] * lines[(0,) + boxes[0]].size
    work = np.empty(workers * size)
    dest = result.transpose(order)

    # the roundoff floor, taken from the whole input by the first block
    # that needs it and by no other
    floors = []
    floor_lock = threading.Lock()

    def floor():
        with floor_lock:
            if not floors:
                floors.append(_roundoff_floor(g))
        return floors[0]

    def advect_block(mine, box):
        block = lines[(slice(None),) + box]
        nb = block[0].size
        gp, *rest = (mine[lo * nb:hi * nb].reshape(hi - lo, nb)
                     for lo, hi in zip(starts[:-1], starts[1:]))
        G = (gp.shape[0] - m) // 2
        np.copyto(gp[G:G + m].reshape(block.shape), block)
        _advect_lines(gp, k[box].reshape(-1),
                      [hw[box].reshape(-1) for hw in h], floor, rest,
                      dest[(slice(None),) + box])

    # the blocks go to the workers in order, each to the first one free,
    # so a worker slowed by another process on its CPU takes fewer
    queue = iter(boxes)
    lock = threading.Lock()

    def sweep(w):
        mine = work[w * size:(w + 1) * size]
        while True:
            with lock:
                box = next(queue, None)
            if box is None:
                return
            advect_block(mine, box)

    _in_workers(sweep, workers)
    return result


def _roundoff_floor(g: np.ndarray) -> float:
    """The floor of advect's result: where the Hermite sum's terms cancel
    they can leave negatives at the roundoff scale of the input's largest
    magnitude, and values in [floor, 0) are zeroed without touching
    genuinely signed data.  NaN anywhere in g makes it NaN, which zeroes
    nothing."""
    return -1e-13 * max(g.max(initial=0.0), -g.min(initial=0.0))


def _workspace_rows(m: int, kmin: int, kmax: int) -> list[int]:
    """Where each array of advect's workspace starts, in rows of one value
    per line, for lines of m cells and integer shifts kmin to kmax; the
    last entry is the row count.  The arrays are the padded averages gp,
    m + 2 G rows for G = max(-kmin, kmax) + 3 ghost rows at each end, and
    _advect_lines' work (A, B, C) of R + 1, R + 1 and R rows for
    R = kmax - kmin + m + 1."""
    G = max(-kmin, kmax) + 3
    R = kmax - kmin + m + 1
    rows = [m + 2 * G, R + 1, R + 1, R]
    return [sum(rows[:i]) for i in range(len(rows) + 1)]


def _advect_lines(gp: np.ndarray, k: np.ndarray, h: list,
                  floor: Callable[[], float], work: list, out: np.ndarray):
    """advect on the L columns of one block into out, shape (m, ...).

    gp, shape (m + 2 G, L) with G > max|k| + 2, holds the cell averages in
    rows G to G + m - 1; its G ghost rows at each end are zeroed here.  k
    are the integer shifts and h = (h00, h10, h01, h11) the Hermite
    weights, each of shape (L,).  floor() gives the roundoff floor; it is
    called only when a value of the block has its sign bit set.  work =
    (A, B, C) is the workspace, of at least R + 1, R + 1 and R rows for R
    = max k - min k + m + 1 and L columns each.
    """
    A, B, C = work
    m = out.shape[0]
    kmin, kmax = int(k.min()), int(k.max())
    # average e of a line sits at row G + e of gp
    G = (gp.shape[0] - m) // 2
    gp[:G] = gp[G + m:] = 0.0
    # the slopes d of edges kmin to kmax + m + 1 into A, with the
    # limiter's bounds in B, and their differences Dd_e = d_{e+1} - d_e
    # into C: row r of each is edge kmin + r
    R = kmax - kmin + m + 1
    _limited_slopes(gp[G + kmin - 2:G + kmin + R + 2].T, A[:R + 1].T,
                    B[:R + 1].T)
    Dd = np.subtract(A[1:R + 1], A[:R], out=C[:R])

    # Hermite sum at every row any line of the block reads, into B with
    # its term in A: H[r] uses averages and slope differences kmin + r
    # and the one after, so a line with shift kk reads
    # H[kk - kmin:kk - kmin + m]; summed as ((a + b) + c) + d
    h00, h10, h01, h11 = h
    H, T = B[:R - 1], A[:R - 1]
    np.multiply(h00, gp[G + kmin:G + kmin + R - 1], out=H)
    for hw, src in ((h10, Dd[:-1]), (h01, gp[G + kmin + 1:G + kmin + R]),
                    (h11, Dd[1:])):
        H += np.multiply(hw, src, out=T)
    if kmin == kmax:
        D = H[:m]
    else:
        D = T[:m]
        np.copyto(D, H[:m])
        for kk in range(kmin + 1, kmax + 1):
            np.copyto(D, H[kk - kmin:kk - kmin + m], where=k == kk)
    # zero the roundoff negatives at or above the floor (NaN stays); the
    # step changes no value whose sign bit is clear, so a block without
    # negatives, -0.0 or -NaN skips it
    if np.signbit(D).any():
        np.maximum(D, 0.0, out=D, where=D >= floor())
    np.copyto(out, D.reshape(out.shape))


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass
class PhaseState:
    f: np.ndarray
    t: float


@dataclass
class FieldState:
    phi: np.ndarray                    # rebound, never written into
    pi: np.ndarray
    t: float
    # (phi, L phi - phi), keyed on phi's identity so that it is never
    # reused for a different phi
    lap: tuple | None = None


def _amplitudes(cfg: SimConfig) -> tuple[float, float]:
    """Peaks of the initial f and phi: epsilon where the setting is
    negative and for both in mms mode, which ignores the settings, and
    zero for the one that a free mode never sets."""
    if cfg.mode == "mms":
        return cfg.epsilon, cfg.epsilon
    amp_f, amp_phi = (a if a >= 0 else cfg.epsilon
                      for a in (cfg.f_amplitude, cfg.phi_amplitude))
    return (0.0 if cfg.mode == "free_kg" else amp_f,
            0.0 if cfg.mode == "free_transport" else amp_phi)


def initial_states(cfg: SimConfig) -> tuple[PhaseState, FieldState]:
    n = cfg.n
    xg, vg = _grids(cfg)
    phi_x2 = sum(x ** 2 for x in xg)
    x2 = phi_x2[(...,) + (None,) * n]
    v2 = sum(v ** 2 for v in vg)[(None,) * n]
    amp_f, amp_phi = _amplitudes(cfg)
    # a width too small for floats gives -inf or NaN exponents; run reports it
    with np.errstate(all="ignore"):
        f0 = amp_f * np.exp(-x2 / (2 * cfg.f_width_x ** 2)
                            - v2 / (2 * cfg.f_width_v ** 2))
        phi0 = amp_phi * np.exp(-phi_x2 / (2 * cfg.phi_width ** 2))
    pi0 = np.zeros_like(phi0)
    return PhaseState(f0, cfg.t0), FieldState(phi0, pi0, cfg.t0)


def source_density(f: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """rho(x) = int f dv (cell sums; f stores cell averages)."""
    n = cfg.n
    axes = tuple(range(n, 2 * n))
    rho = np.sum(f, axis=axes) * cfg.dv ** n
    return rho


def total_mass(f: np.ndarray, cfg: SimConfig) -> float:
    return float(f.sum()) * cfg.dx ** cfg.n * cfg.dv ** cfg.n


def _laplacian(phi: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order five-point stencil per axis on phi padded once by two
    cells of zeros (the radiation condition keeps the boundary cells
    small)."""
    core = (slice(2, -2),) * phi.ndim
    padded = np.zeros([m + 4 for m in phi.shape])
    padded[core] = phi
    out, term, tmp = np.zeros_like(phi), np.empty_like(phi), np.empty_like(phi)
    for ax, m in enumerate(phi.shape):
        sh = {k: padded[core[:ax] + (slice(2 + k, m + 2 + k),) + core[ax + 1:]]
              for k in range(-2, 3)}
        np.negative(sh[-2], out=term)
        for c, k in ((16, -1), (-30, 0), (16, 1), (-1, 2)):  # + -y is - y
            term += np.multiply(c, sh[k], out=tmp)
        out += np.divide(term, 12.0, out=term)
    return np.divide(out, dx ** 2, out=out)


def _sommerfeld(field: FieldState, cfg: SimConfig):
    """Overwrite d_t(phi) on the boundary frame with the outgoing value.

    First-order radiation condition d_t phi = -d_r phi - (n-1) phi / (2r),
    applied with one-sided spatial differences.
    """
    phi, pi = field.phi, field.pi
    dx = cfg.dx
    n = cfg.n
    if n == 1:
        pi[0] = (phi[1] - phi[0]) / dx
        pi[-1] = -(phi[-1] - phi[-2]) / dx
        return
    xc = x_centers(cfg)
    xa, xb = np.meshgrid(xc, xc, indexing="ij")
    r = np.hypot(xa, xb)
    gx = np.gradient(phi, dx, axis=0, edge_order=1)
    gy = np.gradient(phi, dx, axis=1, edge_order=1)
    # on the frame only: r vanishes at the centre cell when nx is odd
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        pi[sl] = -(xa[sl] * gx[sl] + xb[sl] * gy[sl]) / r[sl] \
            - (n - 1) * phi[sl] / (2 * r[sl])


def field_substep(field: FieldState, rho: np.ndarray | float, k: float,
                  cfg: SimConfig, source: Callable | None = None):
    """Velocity-Verlet advance of (phi, pi) by k with frozen source rho.
    A substep's closing L phi - phi, kept with phi, is the next one's
    opening one, so a call evaluates one Laplacian."""

    def accel(t):
        if field.lap is None or field.lap[0] is not field.phi:
            field.lap = (field.phi, _laplacian(field.phi, cfg.dx) - field.phi)
        a = field.lap[1] - rho
        return a if source is None else a + source(t)

    a0 = accel(field.t)
    field.phi = field.phi + k * field.pi + 0.5 * k * k * a0
    a1 = accel(field.t + k)
    field.pi = field.pi + 0.5 * k * (a0 + a1)
    field.t += k
    _sommerfeld(field, cfg)


def step(phase: PhaseState, field: FieldState, cfg: SimConfig,
         kinetic_source: Callable | None = None,
         field_source: Callable | None = None):
    """One Strang-split step of size cfg.dt.

    phase and field are updated by rebinding their arrays to new ones;
    the arrays they held before the step are never written into.
    phase.f is rebound after every sub-step (each x axis, each kick axis,
    each source add), so the step holds at most two phase-space states at
    once: the input and the result of the current advect call.  If step
    raises, phase may be left mid-step, with f advanced by some sub-steps
    and t unchanged.  kinetic_source(t) must return a fresh array of f's
    shape: the step scales it and adds f into it in place.
    """
    dt = cfg.dt
    n = cfg.n
    # x axis d moves at vhat_d = v_d / v^0, v^0 = sqrt(1 + |v|^2): one
    # shift vhat_d (dt/2) / dx per velocity cell, on (1,)*n + (nv,)*n (vg
    # is an open grid), the same for both x half-steps
    vg = [v_centers(cfg).reshape((-1,) + (1,) * (n - 1 - d)) for d in range(n)]
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    x_shift = [(v / v0)[(None,) * n] * (dt / 2) / cfg.dx for v in vg]
    # in free_kg mode f is identically zero and advecting it is a no-op
    transport = cfg.mode != "free_kg"
    evolve_field = cfg.mode != "free_transport"
    kick = cfg.mode in ("coupled", "mms")
    t_mid = phase.t + dt / 2

    def advect_x():
        for d in range(n):
            phase.f = advect(phase.f, x_shift[d], axis=d)

    def add_source():
        # (dt/2) s + f: the same products and sums as f + (dt/2) s, with
        # no state-sized temporary beside the source
        src = kinetic_source(t_mid)
        src *= dt / 2
        src += phase.f
        phase.f = src

    if transport:
        advect_x()
    if kinetic_source is not None:
        add_source()
    rho = source_density(phase.f, cfg) if kick else 0.0

    if evolve_field:
        field_substep(field, rho, dt / 2, cfg, field_source)
    if kick:
        for d in range(n):
            gp = np.gradient(field.phi, cfg.dx, axis=d, edge_order=2)
            phase.f = advect(phase.f, -gp[(...,) + (None,) * n] * dt / cfg.dv,
                             axis=n + d)
    if kinetic_source is not None:
        add_source()
    if evolve_field:
        field_substep(field, rho, dt / 2, cfg, field_source)

    if transport:
        advect_x()

    phase.t += dt
    if not evolve_field:
        field.t = phase.t


# ---------------------------------------------------------------------------
# Slice extraction
# ---------------------------------------------------------------------------

T_WINDOW = 6          # time levels per node block
X_HALF = 6            # x cells each side of a node (n=1); reduced for n=2
# bytes per slice node while run builds its pending nodes, above the peaks
# tracemalloc measured there: 0.75 KiB at n = 1 and 1.07 KiB at n = 2
NODE_BYTES = 1100


@dataclass
class NodeSample:
    """Local space-time block of f and phi around one slice node."""

    tau: float
    y: tuple[float, ...]
    r: float
    t_star: float
    weight: float
    t_levels: np.ndarray                 # (T_WINDOW,)
    x_axes: tuple[np.ndarray, ...]       # window coordinates per x axis
    v_axes: tuple[np.ndarray, ...]       # full velocity axes
    # read-only views, possibly into a block that neighbouring nodes share
    fblock: np.ndarray                   # (T_WINDOW, *window, *vgrid)
    phiblock: np.ndarray                 # (T_WINDOW, *window)


@dataclass
class SliceData:
    tau: float
    n: int
    nodes: list[NodeSample]
    dv: float


@dataclass
class RunResult:
    config: SimConfig
    slices: dict[float, SliceData]
    times: np.ndarray
    sup_phi: np.ndarray
    sup_f: np.ndarray
    min_f: np.ndarray
    mass: np.ndarray
    warnings: list[str]
    wall_seconds: float
    # (max|phi - phi*|, max|f - f*|) at the final time in mms mode
    mms_error: tuple[float, float] | None


def _pending_nodes(cfg: SimConfig):
    """Slice nodes ordered by firing time, earliest first, each with the
    x coordinates of its window and the window itself: the 2 * half + 1
    cells per x axis centred on the cell nearest the node.  A window that
    leaves the grid is rejected here, before the run allocates any
    state."""
    xc = x_centers(cfg)
    half = X_HALF if cfg.n == 1 else 4
    pending = []
    for tau in cfg.taus:
        quad = build_slice_quadrature(tau, cfg.n, slice_rmax(cfg, tau),
                                      cfg.slice_resolution)
        for k in range(len(quad.radii)):
            y = tuple(quad.points[k])
            idx = []
            for c in y:
                j = int(np.argmin(np.abs(xc - c)))
                if j - half < 0 or j + half + 1 > cfg.nx:
                    raise SolverError(
                        f"slice node at y={tuple(map(float, y))} too close"
                        " to the grid boundary")
                idx.append(slice(j - half, j + half + 1))
            r = float(quad.radii[k])
            t_star = math.sqrt(tau ** 2 + r ** 2)
            pending.append((t_star, tau, y, r, float(quad.weights[k]),
                            tuple(xc[s] for s in idx), tuple(idx)))
    pending.sort(key=lambda e: e[0])
    return deque(pending)


def _kept_box(pending: deque):
    """The kept box, the x cells that bound every window of pending (a
    tuple of slices, () when nothing is pending), and pending with each
    window made relative to it."""
    if not pending:
        return (), pending
    lo = np.min([[s.start for s in e[-1]] for e in pending], axis=0)
    hi = np.max([[s.stop for s in e[-1]] for e in pending], axis=0)
    return (tuple(slice(int(a), int(b)) for a, b in zip(lo, hi)),
            deque(e[:-1] + (tuple(slice(s.start - a, s.stop - a)
                                  for s, a in zip(e[-1], lo)),)
                  for e in pending))


def _check_memory(cfg: SimConfig, box: tuple) -> int:
    """Reject a run whose arrays cannot fit in physical memory, before
    any is allocated, and return the bytes it needs.  A step holds two
    states (f and phi) at once, the input and the result of an advect
    call, beside that call's workspace (taken for shifts of less than one
    cell, as the CFL bound makes the x shifts): one block's workspace for
    each of its min(WORKERS, blocks) workers, the blocks counted as the
    call's lines over the lines a block holds, rounded up.  The levels
    hold T_WINDOW copies of the kept box, the series take five floats per
    recorded level, and the slice nodes NODE_BYTES each, counted before
    any is built.  In mms mode mms_forcing holds three f-sized factors for
    the whole run.  It builds them with a fourth, but before any state
    exists, so that peak stays below the run's."""
    per_x = 8 * (cfg.nv ** cfg.n + 1)
    state = per_x * cfg.nx ** cfg.n
    cells = (cfg.nx * cfg.nv) ** cfg.n
    work = 0
    for m in (cfg.nx, cfg.nv):
        lines, per_block = cells // m, max(1, BLOCK_CELLS // m)
        work = max(work, 8 * _workspace_rows(m, -1, 0)[-1]
                   * min(lines, per_block)
                   * min(WORKERS, -(-lines // per_block)))
    kept = per_x * math.prod(s.stop - s.start for s in box) if box else 0
    factors = 3 * 8 * cells if cfg.mode == "mms" else 0
    series = 5 * 8 * (cfg.nsteps + 1)
    nodes = len(cfg.taus) * slice_node_count(cfg.n, cfg.slice_resolution)
    need = (2 * state + work + T_WINDOW * kept + factors + series
            + NODE_BYTES * nodes)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise SolverError(
            f"run needs about {need / 2 ** 30:.3g} GiB (two states of "
            f"{state / 2 ** 30:.3g} GiB, the advect workspace"
            + (", three forcing factors" if factors else "") +
            f", {T_WINDOW} kept boxes, the series of {cfg.nsteps:.3g} "
            f"steps and {nodes:.3g} slice nodes), more than the "
            f"{have / 2 ** 30:.3g} GiB of physical memory")
    return need


def _capture_nodes(levels: deque, cfg: SimConfig,
                   fired: list) -> list[NodeSample]:
    """Blocks around the nodes that fire at one step, from the last
    T_WINDOW (t, f, phi) levels, in the order of fired.  The levels hold
    the kept box and the windows of fired are relative to it.

    Overlapping windows are copied once.  The windows fall into groups
    (connected components of the overlap graph); each group gets one
    read-only block of f and one of phi over the box that bounds its
    windows, and each node's fblock and phiblock are views of its window
    in them.  A group whose box holds more cells than its windows
    together is copied window by window, so sharing never costs memory.
    """
    if len(levels) < T_WINDOW:
        raise SolverError("time levels do not cover the slice node")
    t_levels = np.array([e[0] for e in levels])
    v_axes = (v_centers(cfg),) * cfg.n
    windows = [e[-1] for e in fired]

    def cells(box):
        return math.prod(s.stop - s.start for s in box)

    groups, left = [], list(range(len(fired)))
    while left:
        # a group grows from the first node left by each overlapping window
        members = [left.pop(0)]
        for a in members:
            members += [b for b in left if all(
                p.start < q.stop and q.start < p.stop
                for p, q in zip(windows[a], windows[b]))]
            left = [b for b in left if b not in members]
        box = tuple(slice(min(s.start for s in ax), max(s.stop for s in ax))
                    for ax in zip(*(windows[k] for k in members)))
        if cells(box) <= sum(cells(windows[k]) for k in members):
            groups.append((members, box))
        else:
            groups += [([k], windows[k]) for k in members]
    nodes = [None] * len(fired)
    for members, box in groups:
        # np.array copies the box into C-ordered blocks; the levels
        # themselves may be transposed copies
        fblock = np.array([e[1][box] for e in levels])
        phiblock = np.array([e[2][box] for e in levels])
        fblock.flags.writeable = phiblock.flags.writeable = False
        for k in members:
            t_star, tau, y, r, weight, x_axes, idx = fired[k]
            local = (slice(None),) + tuple(
                slice(s.start - b.start, s.stop - b.start)
                for s, b in zip(idx, box))
            nodes[k] = NodeSample(tau, y, r, t_star, weight, t_levels,
                                  x_axes, v_axes, fblock[local],
                                  phiblock[local])
    return nodes


def run(cfg: SimConfig) -> RunResult:
    """Step cfg from t0 to t_end and capture every slice node in flight.

    While nodes are pending, each step's level is a copy of f and phi
    over the kept box (the x cells that bound every node's window), and
    the last T_WINDOW of them are held; the whole state is never held
    beyond the step that replaces it.  A run without nodes copies no
    level, and once the last node has fired none is held.  A run whose
    arrays would exceed physical memory is rejected before any is
    allocated.
    """
    cfg.validate()
    t_start = time.perf_counter()
    # the slice nodes are counted before they are built, and the kept box
    # is known once they are
    _check_memory(cfg, ())
    box, pending = _kept_box(_pending_nodes(cfg))
    _check_memory(cfg, box)
    kinetic_source = field_source = None
    if cfg.mode == "mms":
        phi_ex, pi_ex, f_ex, kinetic_source, field_source = mms_forcing(cfg)
        phase = PhaseState(f_ex(cfg.t0), cfg.t0)
        fld = FieldState(phi_ex(cfg.t0), pi_ex(cfg.t0), cfg.t0)
    else:
        phase, fld = initial_states(cfg)

    def level():
        # a copy, not a view: a view would keep the whole state alive
        return phase.t, np.array(phase.f[box]), np.array(fld.phi[box])

    levels = deque([level()] if pending else [], maxlen=T_WINDOW)
    slices: dict[float, SliceData] = {
        tau: SliceData(tau, cfg.n, [], cfg.dv) for tau in cfg.taus}
    warnings: list[str] = []
    # one column per recorded level; the rows are RunResult's t, sup_phi,
    # sup_f, min_f and mass
    series = np.empty((5, cfg.nsteps + 1))
    f_row = ()

    def record(i):
        nonlocal f_row
        # an overflow is reported as the non-finite state below
        with np.errstate(over="ignore"):
            # free_kg never changes f: its row is taken at t0 only
            if not f_row or cfg.mode != "free_kg":
                f_row = (float(phase.f.max()), float(phase.f.min()),
                         total_mass(phase.f, cfg))
            row = (phase.t, float(np.abs(fld.phi).max())) + f_row
        series[:, i] = row
        # NaN and +-inf anywhere in f or phi reach one of these reductions
        if not all(map(math.isfinite, row)):
            raise SolverError(f"non-finite state at t={phase.t}")

    record(0)
    # data that underflows to zero on every cell of the grid
    for name, amp, peak in zip(("f", "phi"), _amplitudes(cfg),
                               (series[2, 0], series[1, 0])):
        if amp > 0 and peak == 0:
            raise SolverError(
                f"the initial {name} of amplitude {amp:g} is zero on every "
                f"cell: the grid (dx={cfg.dx:g}, dv={cfg.dv:g}) cannot hold "
                "the data")
    boundary_flagged = False
    for i in range(1, cfg.nsteps + 1):
        step(phase, fld, cfg, kinetic_source, field_source)
        if pending:
            levels.append(level())
        record(i)
        # fire every node whose block is now centered in the levels
        fired = []
        while pending and pending[0][0] <= phase.t - 2 * cfg.dt:
            fired.append(pending.popleft())
        if fired:
            for node in _capture_nodes(levels, cfg, fired):
                slices[node.tau].nodes.append(node)
        if not pending:
            # no node left to capture: hold no level
            levels.clear()
        if not boundary_flagged:
            edge = _boundary_max(phase.f, cfg.n)
            if edge > BOUNDARY_FLOOR:
                warnings.append(
                    f"distribution support reached the boundary at t={phase.t:.3f}"
                    f" (edge max {edge:.3e})")
                boundary_flagged = True
    if pending:
        raise SolverError(
            f"{len(pending)} slice nodes never fired; extend t_end")
    mms_error = None
    if cfg.mode == "mms":
        # |f* - f| is |f - f*| exactly; computed in the array f_ex returns,
        # it takes one state beside f, not three
        err = f_ex(phase.t)
        err -= phase.f
        mms_error = (float(np.max(np.abs(fld.phi - phi_ex(fld.t)))),
                     float(np.max(np.abs(err, out=err))))
    return RunResult(cfg, slices, *series, warnings,
                     time.perf_counter() - t_start, mms_error)


def _boundary_max(f: np.ndarray, n: int) -> float:
    """max |f| over the cells at either end of each x axis."""
    return float(max(np.abs(f[(slice(None),) * d + (e,)]).max()
                     for d in range(n) for e in (0, -1)))


# ---------------------------------------------------------------------------
# Manufactured-solution forcing
# ---------------------------------------------------------------------------


def mms_forcing(cfg: SimConfig):
    """Closed-form target pair and the forcing that makes it exact.

    Returns (phi_exact, pi_exact, f_exact, kinetic_source, field_source)
    as grid-shaped functions of t for the manufactured pair

        phi* = eps exp(-|x|^2 / 2 w_p^2) T(t),  T = cos t exp(-t/20),
        f*   = eps exp(-|x|^2 / 2 w_x^2 - |v|^2 / 2 w_v^2) s(t),
        s    = 1 + sin(t) / 2,

    with widths phi_width, f_width_x and f_width_v.  Both amplitudes are
    eps = cfg.epsilon; f_amplitude and phi_amplitude are ignored in mms
    mode.  The field source is h_KG = box phi* + phi* + rho*, since the
    solver's acceleration is lap(phi) - phi - rho + h_KG, and the kinetic
    source is h_V = T_phi* f* divided by v^0 (the solver advances
    d_t f + vhat.grad_x f - grad phi.grad_v f = h_V / v^0).  The
    t-independent Gaussian factors are built once here; each call only
    scales them by scalar factors of t.
    """
    n = cfg.n
    eps, wx, wv, wp = cfg.epsilon, cfg.f_width_x, cfg.f_width_v, cfg.phi_width
    xg, vg = _grids(cfg)
    r2 = sum(x ** 2 for x in xg)
    gp = eps * np.exp(-r2 / (2 * wp ** 2))           # phi* / T
    lap_gp = (r2 / wp ** 4 - n / wp ** 2) * gp       # lap(phi*) / T
    gx = eps * np.exp(-r2 / (2 * wx ** 2))
    rho_g = (2 * math.pi * wv ** 2) ** (n / 2) * gx  # rho* / s
    # phase-grid factors on (x.., v..), with which
    # h_V = f* (cos t / 2s - drift - T coupling)
    xf = [x[(...,) + (None,) * n] for x in xg]
    vf = [v[(None,) * n] for v in vg]
    xv = sum(x * v for x, v in zip(xf, vf))
    g = gx[(...,) + (None,) * n] * np.exp(
        -sum(v ** 2 for v in vf) / (2 * wv ** 2))     # f* / s
    drift = xv / (np.sqrt(1 + sum(v ** 2 for v in vf)) * wx ** 2)
    coupling = xv * gp[(...,) + (None,) * n] / (wp ** 2 * wv ** 2)

    def T(t, k=0):
        """k-th derivative of cos t exp(-t/20)."""
        c, sn = math.cos(t), math.sin(t)
        return math.exp(-t / 20) * (c, -sn - c / 20,
                                    sn / 10 - c * 399 / 400)[k]

    def s(t):
        return 1 + math.sin(t) / 2

    def field_source(t):
        return gp * (T(t, 2) + T(t)) - lap_gp * T(t) + rho_g * s(t)

    def kinetic_source(t):
        # g (cos t / 2 - s (drift + T coupling)) in one fresh array: each
        # in-place step takes the same products and sums, bit for bit
        h = np.multiply(coupling, T(t))
        h += drift
        h *= s(t)
        np.subtract(math.cos(t) / 2, h, out=h)
        h *= g
        return h

    def phi_exact(t):
        return gp * T(t)

    def pi_exact(t):
        return gp * T(t, 1)

    def f_exact(t):
        return g * s(t)

    return phi_exact, pi_exact, f_exact, kinetic_source, field_source
