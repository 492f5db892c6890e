"""Phase-space solver for the coupled kinetic / scalar-field system.

The distribution f(t, x, v) obeys  d_t f + vhat . grad_x f
- grad_x(phi) . grad_v f = 0  with vhat = v/v^0, and the field obeys
(box - 1) phi = rho = int f dv.  Transport is advanced by a conservative
semi-Lagrangian split (monotone cubic interpolation of the primitive, so
mass is conserved to roundoff and positivity is preserved); the field by
velocity Verlet.  Hyperboloidal slice extraction reads the last T_WINDOW
time levels the solver produced: step never writes into the arrays it is
given, so the run keeps those arrays themselves, with no state copies,
and copies a local space-time block out of them around the slice nodes
as the simulation time sweeps past them.  Nodes that fire at the same
step and whose windows overlap share one read-only block, and each
node's block is a view of its window in it.

Dimensions n = 1 and n = 2 share the same code paths; arrays carry one
or two x-axes followed by the matching v-axes.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .geometry import build_slice_quadrature


class SolverError(RuntimeError):
    pass


# highest generator order that `vkg derive` and the slice diagnostics
# (energy_order) accept; there are (2n + n(n-1)/2 + 1)^order multi-indices
# of each order
SYMBOLIC_CAP = 4


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
    f_center_v: float = 0.0
    phi_width: float = 0.7
    taus: tuple[float, ...] = ()
    rmax: float = 10.0             # slice truncation radius (or cap)
    rmax_mode: str = "fixed"       # fixed | lightcone
    support_radius: float = 3.0    # data support estimate for lightcone mode
    slice_resolution: int = 40
    cfl_safety: float = 0.9
    bc: str = "outgoing"           # outgoing | periodic
    boundary_floor: float = 1e-10
    energy_order: int = 2          # max |A| in grid diagnostics

    @property
    def dx(self) -> float:
        return 2.0 * self.x_extent / self.nx

    @property
    def dv(self) -> float:
        return 2.0 * self.vmax / self.nv

    def validate(self):
        if self.n not in (1, 2):
            raise SolverError(f"dimension {self.n} unsupported")
        if self.mode not in ("coupled", "free_transport", "free_kg", "mms"):
            raise SolverError(f"unknown mode {self.mode!r}")
        if self.bc not in ("outgoing", "periodic"):
            raise SolverError(f"unknown boundary condition {self.bc!r}")
        if self.rmax_mode not in ("fixed", "lightcone"):
            raise SolverError(f"unknown rmax mode {self.rmax_mode!r}")
        for name in ("dt", "nx", "nv", "x_extent", "vmax", "epsilon",
                     "f_width_x", "f_width_v", "phi_width", "cfl_safety"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SolverError(
                    f"{name} must be positive and finite, got {value}")
        for name in ("f_amplitude", "phi_amplitude", "f_center_v", "rmax",
                     "support_radius", "boundary_floor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SolverError(f"{name} must be finite, got {value}")
        if not all(math.isfinite(tau) for tau in self.taus):
            raise SolverError(f"taus must be finite, got {self.taus}")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)
                and self.t_end > self.t0):
            raise SolverError(
                f"need finite t0 < t_end, got t0={self.t0}, t_end={self.t_end}")
        if not 0 <= self.energy_order <= SYMBOLIC_CAP:
            raise SolverError(
                f"energy_order must be in [0, {SYMBOLIC_CAP}], "
                f"got {self.energy_order}")
        if self.rmax_mode == "lightcone" and self.t0 <= self.support_radius:
            raise SolverError("lightcone truncation needs t0 > support_radius")
        if self.dt > self.cfl_safety * self.dx:
            raise SolverError(
                f"CFL violation: dt={self.dt} > {self.cfl_safety}*dx={self.cfl_safety * self.dx}")
        for tau in self.taus:
            if tau < self.t0 + 3 * self.dt:
                raise SolverError(
                    f"slice tau={tau} starts before history coverage (t0={self.t0})")
            rm = slice_rmax(self, tau)
            if rm <= 0:
                why = (f"rmax={self.rmax}" if rm == self.rmax
                       else "in lightcone mode")
                raise SolverError(
                    f"slice tau={tau} has no covered radius ({why})")
            t_top = math.sqrt(tau ** 2 + rm ** 2)
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


# ---------------------------------------------------------------------------
# Conservative semi-Lagrangian advection
# ---------------------------------------------------------------------------


def _limited_slopes(fpad2: np.ndarray) -> np.ndarray:
    """Edge slopes of the primitive from cell averages (two ghost cells).

    Fourth-order edge-value estimate, limited into the monotone region
    [0, 3 min] of the adjacent one-signed averages; zero across sign
    changes.  Keeping the interpolant of the cumulative sum monotone is
    what preserves positivity; the high-order interior estimate keeps
    the advection second-order globally.
    """
    z = fpad2[..., :-3]
    a = fpad2[..., 1:-2]
    b = fpad2[..., 2:-1]
    c = fpad2[..., 3:]
    d4 = (7.0 * (a + b) - (z + c)) / 12.0
    # the region is [0, 3 min(a, b)] for a positive pair, [3 max(a, b), 0]
    # for a negative one, and {0} when a and b differ in sign
    hi = np.maximum(3.0 * np.minimum(a, b), 0.0)
    lo = np.minimum(3.0 * np.maximum(a, b), 0.0)
    return np.minimum(np.maximum(d4, lo), hi)


# advect works through the lines in blocks of about this many cells (a
# block is a set of whole lines, the columns of the (m, L) line array),
# so that the temporaries of one block stay in cache
BLOCK_CELLS = 1 << 15


def advect(g: np.ndarray, sigma: np.ndarray, axis: int,
           bc: str = "outgoing") -> np.ndarray:
    """Shift cell averages by sigma cells along one axis, conservatively.

    sigma must broadcast to g's shape and be constant along the advection
    axis, so each 1-D line of m cells moves by one uniform shift.  Cell
    edge j departs from j - sigma = (j + k) + xi, with one integer shift
    k = floor(-sigma) and one fraction xi in [0, 1) per line, hence four
    cubic Hermite weights per line.  The lines are the columns of an
    (m, L) array, so every stencil step (cumulative sum, limiter, Hermite
    sum, difference) is an operation on contiguous rows of L lines.  The
    primitive W (cumulative sum) and its monotone edge slopes are padded
    by max|k| + 1 edges at both ends; the Hermite sum is evaluated for
    every line over the rows that any shift in the block reads, and each
    line's window is then picked with one np.where per further shift.
    W at the departure points is differenced back into cell averages, so
    the total along each line is exact up to boundary outflow.  Outgoing
    lines take in nothing: an edge departing from left of the line gets
    W = 0 and one departing from right of it gets the line total, both
    exactly.  Periodic lines wrap with W(b +- m) = W(b) +- total.

    The result is laid out with the advection axis last in memory.  The
    callers' reductions (source_density, total_mass) sum in memory order,
    so this layout is part of the result: another one moves their sums,
    and every artifact built from them, in the last bits.
    """
    g = np.asarray(g, dtype=float)
    m = g.shape[axis]
    lines = np.moveaxis(g, axis, 0).reshape(m, -1)
    L = lines.shape[1]
    sig = np.moveaxis(np.broadcast_to(np.asarray(sigma, dtype=float),
                                      g.shape), axis, 0)[0].reshape(L)
    # shifting by whole periods, or past the whole line, changes nothing
    # and would only widen the padding
    if bc == "periodic":
        sig = sig - m * np.round(sig / m)
    else:
        sig = np.clip(sig, -m - 1.0, m + 1.0)
    k = np.floor(-sig)
    xi = -sig - k
    k = np.nan_to_num(k).astype(np.int64)
    xi2 = xi * xi
    xi3 = xi2 * xi
    h = (2 * xi3 - 3 * xi2 + 1, xi3 - 2 * xi2 + xi, -2 * xi3 + 3 * xi2,
         xi3 - xi2)
    # cumulative-sum cancellation can leave negatives at the roundoff
    # scale; zero those without touching genuinely signed data
    floor = -1e-13 * max(np.max(g, initial=0.0), -np.min(g, initial=0.0))
    out = np.empty((L, m))
    per_block = max(1, BLOCK_CELLS // m)
    for i in range(0, L, per_block):
        b = slice(i, i + per_block)
        out[b] = _advect_lines(lines[:, b], k[b], [w[b] for w in h], bc,
                               floor).T
    # back to the lines-last layout: the advection axis is the fastest
    return np.moveaxis(out.reshape(np.moveaxis(g, axis, -1).shape), -1, axis)


def _advect_lines(lines: np.ndarray, k: np.ndarray, h: list, bc: str,
                  floor: float) -> np.ndarray:
    """advect on the columns of lines, shape (m, L), with integer shifts
    k and Hermite weights h = (h00, h10, h01, h11), each of shape (L,)."""
    m, L = lines.shape
    kmin, kmax = int(np.min(k)), int(np.max(k))
    # edge e of a line sits at row P + e of the padded arrays
    P = max(-kmin, kmax) + 1
    Wp = np.zeros((m + 1 + 2 * P, L))
    dp = np.zeros_like(Wp)
    np.cumsum(lines, axis=0, out=Wp[P + 1:P + m + 1])
    total = Wp[P + m]
    if bc == "periodic":
        ghosts = (lines[-2:], lines, lines[:2])
    else:
        zero = np.zeros((2, L))
        ghosts = (zero, lines, zero)
    dp[P:P + m + 1] = _limited_slopes(np.concatenate(ghosts).T).T
    if bc == "periodic":
        e = np.r_[-P:0, m + 1:m + P + 1]
        Wp[P + e] = Wp[P + e % m] + (e // m)[:, None] * total
        dp[P + e] = dp[P + e % m]
    else:
        Wp[P + m + 1:] = total

    # Hermite sum at every row any line of the block reads: H[r] uses
    # rows P + kmin + r and the one after, so a line with shift kk reads
    # H[kk - kmin:kk - kmin + m + 1]
    h00, h10, h01, h11 = h
    w0 = slice(P + kmin, P + kmax + m + 1)
    w1 = slice(P + kmin + 1, P + kmax + m + 2)
    H = h00 * Wp[w0] + h10 * dp[w0] + h01 * Wp[w1] + h11 * dp[w1]
    Wq = H[:m + 1]
    for kk in range(kmin + 1, kmax + 1):
        Wq = np.where(k == kk, H[kk - kmin:kk - kmin + m + 1], Wq)
    if bc == "outgoing":
        # edge e departs from left of the line when e < -k, and from
        # right of it when e >= m - k
        for e in range(max(0, -kmin)):
            Wq[e] = np.where(k < -e, 0.0, Wq[e])
        for e in range(max(0, m - kmax), m + 1):
            Wq[e] = np.where(k >= m - e, total, Wq[e])

    out = np.diff(Wq, axis=0)
    return np.where((out < 0) & (out >= floor), 0.0, out)


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass
class PhaseState:
    f: np.ndarray
    t: float


@dataclass
class FieldState:
    phi: np.ndarray
    pi: np.ndarray
    t: float


def initial_states(cfg: SimConfig) -> tuple[PhaseState, FieldState]:
    n = cfg.n
    xc = x_centers(cfg)
    vc = v_centers(cfg)
    if n == 1:
        x2 = xc[:, None] ** 2
        v2 = (vc[None, :] - cfg.f_center_v) ** 2
        phi_x2 = xc ** 2
    else:
        xa, xb = np.meshgrid(xc, xc, indexing="ij")
        va, vb = np.meshgrid(vc, vc, indexing="ij")
        x2 = (xa ** 2 + xb ** 2)[:, :, None, None]
        v2 = ((va - cfg.f_center_v) ** 2 + vb ** 2)[None, None, :, :]
        phi_x2 = xa ** 2 + xb ** 2
    amp_f = cfg.f_amplitude if cfg.f_amplitude >= 0 else cfg.epsilon
    amp_phi = cfg.phi_amplitude if cfg.phi_amplitude >= 0 else cfg.epsilon
    f0 = amp_f * np.exp(-x2 / (2 * cfg.f_width_x ** 2)
                        - v2 / (2 * cfg.f_width_v ** 2))
    phi0 = amp_phi * np.exp(-phi_x2 / (2 * cfg.phi_width ** 2))
    pi0 = np.zeros_like(phi0)
    if cfg.mode == "free_kg":
        f0 = np.zeros_like(f0)
    if cfg.mode == "free_transport":
        phi0 = np.zeros_like(phi0)
    return PhaseState(f0, cfg.t0), FieldState(phi0, pi0, cfg.t0)


def source_density(f: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """rho(x) = int f dv (cell sums; f stores cell averages)."""
    n = cfg.n
    axes = tuple(range(n, 2 * n))
    rho = np.sum(f, axis=axes) * cfg.dv ** n
    return rho


def total_mass(f: np.ndarray, cfg: SimConfig) -> float:
    return float(np.sum(f)) * cfg.dx ** cfg.n * cfg.dv ** cfg.n


def _laplacian(phi: np.ndarray, dx: float, bc: str) -> np.ndarray:
    """Fourth-order five-point stencil per axis (zero-extended outside
    the box for the outgoing case; the radiation condition keeps the
    boundary cells small)."""
    out = np.zeros_like(phi)
    for ax in range(phi.ndim):
        if bc != "periodic":
            pad = [(0, 0)] * phi.ndim
            pad[ax] = (2, 2)
            padded = np.pad(phi, pad)

        def shift(k):
            if bc == "periodic":
                return np.roll(phi, -k, axis=ax)
            s = [slice(None)] * phi.ndim
            s[ax] = slice(2 + k, padded.shape[ax] - 2 + k)
            return padded[tuple(s)]

        out += (-shift(-2) + 16 * shift(-1) - 30 * phi
                + 16 * shift(1) - shift(2)) / 12.0
    return out / dx ** 2


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
    val = -(xa * gx + xb * gy) / r - (n - 1) * phi / (2 * r)
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        pi[sl] = val[sl]


def field_substep(field: FieldState, rho: np.ndarray, k: float,
                  cfg: SimConfig, source: Callable | None = None):
    """Velocity-Verlet advance of (phi, pi) by k with frozen source rho."""

    def accel(phi, t):
        a = _laplacian(phi, cfg.dx, cfg.bc) - phi - rho
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
    if cfg.bc == "outgoing":
        _sommerfeld(field, cfg)


def grad_phi(phi: np.ndarray, cfg: SimConfig) -> list[np.ndarray]:
    return [np.gradient(phi, cfg.dx, axis=ax, edge_order=2)
            for ax in range(cfg.n)]


def step(phase: PhaseState, field: FieldState, cfg: SimConfig,
         kinetic_source: Callable | None = None,
         field_source: Callable | None = None):
    """One Strang-split step of size cfg.dt.

    phase and field are updated by rebinding their arrays to new ones;
    the arrays they held before the step are never written into.
    """
    dt = cfg.dt
    n = cfg.n
    vc = v_centers(cfg)
    vhat = vc / np.sqrt(1.0 + vc ** 2)
    f = phase.f

    def advect_x(f, h):
        if n == 1:
            return advect(f, vhat[None, :] * h / cfg.dx, axis=0, bc=cfg.bc)
        f = advect(f, vhat[None, None, :, None] * h / cfg.dx, axis=0, bc=cfg.bc)
        f = advect(f, vhat[None, None, None, :] * h / cfg.dx, axis=1, bc=cfg.bc)
        return f

    # in free_kg mode f is identically zero and advecting it is a no-op
    transport = cfg.mode != "free_kg"
    if transport:
        f = advect_x(f, dt / 2)

    evolve_field = cfg.mode != "free_transport"
    kick = cfg.mode in ("coupled", "mms")
    t_mid = phase.t + dt / 2
    if kinetic_source is not None:
        f = f + (dt / 2) * kinetic_source(t_mid)
    rho = source_density(f, cfg) if cfg.mode in ("coupled", "mms") \
        else np.zeros_like(field.phi)

    if evolve_field:
        field_substep(field, rho, dt / 2, cfg, field_source)
    if kick:
        gp = grad_phi(field.phi, cfg)
        if n == 1:
            f = advect(f, -gp[0][:, None] * dt / cfg.dv, axis=1, bc=cfg.bc)
        else:
            f = advect(f, -gp[0][:, :, None, None] * dt / cfg.dv, axis=2,
                       bc=cfg.bc)
            f = advect(f, -gp[1][:, :, None, None] * dt / cfg.dv, axis=3,
                       bc=cfg.bc)
    if kinetic_source is not None:
        f = f + (dt / 2) * kinetic_source(t_mid)
    if evolve_field:
        field_substep(field, rho, dt / 2, cfg, field_source)

    if transport:
        f = advect_x(f, dt / 2)

    phase.f = f
    phase.t += dt
    if not evolve_field:
        field.t = phase.t
    if not (np.all(np.isfinite(f)) and np.all(np.isfinite(field.phi))):
        raise SolverError(f"non-finite state at t={phase.t}")


# ---------------------------------------------------------------------------
# Slice extraction
# ---------------------------------------------------------------------------

T_WINDOW = 6          # time levels per node block
X_HALF = 6            # x cells each side of a node (n=1); reduced for n=2


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
    """Slice nodes ordered by firing time, earliest first, each with its
    window: the 2 * half + 1 cells per x axis centred on the cell nearest
    the node.  A window that leaves the grid is rejected here, before the
    run allocates any state."""
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
                            tuple(idx)))
    pending.sort(key=lambda e: e[0])
    return deque(pending)


def _capture_nodes(levels: deque, cfg: SimConfig,
                   fired: list) -> list[NodeSample]:
    """Blocks around the nodes that fire at one step, from the last
    T_WINDOW (t, f, phi) levels, in the order of fired.

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
    xc = x_centers(cfg)
    v_axes = (v_centers(cfg),) * cfg.n
    lo = np.array([[s.start for s in e[5]] for e in fired])
    hi = np.array([[s.stop for s in e[5]] for e in fired])
    overlap = np.all((lo[:, None] < hi[None]) & (lo[None] < hi[:, None]),
                     axis=2)
    # label each node with the smallest index connected to it
    label = np.arange(len(fired))
    while True:
        nxt = np.min(np.where(overlap, label, len(fired)), axis=1)
        if np.array_equal(nxt, label):
            break
        label = nxt
    groups = []
    for c in np.unique(label):
        members = np.flatnonzero(label == c)
        box_lo, box_hi = lo[members].min(0), hi[members].max(0)
        if np.prod(box_hi - box_lo) <= np.sum(np.prod(hi - lo, 1)[members]):
            groups.append((members, box_lo, box_hi))
        else:
            groups += [([k], lo[k], hi[k]) for k in members]
    nodes = [None] * len(fired)
    for members, box_lo, box_hi in groups:
        box = tuple(slice(a, b) for a, b in zip(box_lo, box_hi))
        # np.array copies the box into C-ordered blocks; the levels
        # themselves may be transposed views
        fblock = np.array([e[1][box] for e in levels])
        phiblock = np.array([e[2][box] for e in levels])
        fblock.flags.writeable = phiblock.flags.writeable = False
        for k in members:
            t_star, tau, y, r, weight, idx = fired[k]
            local = (slice(None),) + tuple(
                slice(s.start - a, s.stop - a) for s, a in zip(idx, box_lo))
            nodes[k] = NodeSample(tau, y, r, t_star, weight, t_levels,
                                  tuple(xc[s] for s in idx), v_axes,
                                  fblock[local], phiblock[local])
    return nodes


def run(cfg: SimConfig) -> RunResult:
    cfg.validate()
    t_start = time.perf_counter()
    pending = _pending_nodes(cfg)
    kinetic_source = field_source = None
    if cfg.mode == "mms":
        phi_ex, pi_ex, f_ex, kinetic_source, field_source = mms_forcing(cfg)
        phase = PhaseState(f_ex(cfg.t0), cfg.t0)
        fld = FieldState(phi_ex(cfg.t0), pi_ex(cfg.t0), cfg.t0)
    else:
        phase, fld = initial_states(cfg)
    levels = deque([(phase.t, phase.f, fld.phi)], maxlen=T_WINDOW)
    slices: dict[float, SliceData] = {
        tau: SliceData(tau, cfg.n, [], cfg.dv) for tau in cfg.taus}
    warnings: list[str] = []
    series = {k: [] for k in ("t", "sup_phi", "sup_f", "min_f", "mass")}

    def record():
        series["t"].append(phase.t)
        series["sup_phi"].append(float(np.max(np.abs(fld.phi))))
        series["sup_f"].append(float(np.max(phase.f)))
        series["min_f"].append(float(np.min(phase.f)))
        series["mass"].append(total_mass(phase.f, cfg))

    record()
    nsteps = int(round((cfg.t_end - cfg.t0) / cfg.dt))
    boundary_flagged = False
    for _ in range(nsteps):
        step(phase, fld, cfg, kinetic_source, field_source)
        levels.append((phase.t, phase.f, fld.phi))
        record()
        # fire every node whose block is now centered in the levels
        fired = []
        while pending and pending[0][0] <= phase.t - 2 * cfg.dt:
            fired.append(pending.popleft())
        if fired:
            for node in _capture_nodes(levels, cfg, fired):
                slices[node.tau].nodes.append(node)
        if not boundary_flagged and cfg.bc == "outgoing":
            edge = _boundary_max(phase.f, cfg.n)
            if edge > cfg.boundary_floor:
                warnings.append(
                    f"distribution support reached the boundary at t={phase.t:.3f}"
                    f" (edge max {edge:.3e})")
                boundary_flagged = True
    if pending:
        raise SolverError(
            f"{len(pending)} slice nodes never fired; extend t_end")
    mms_error = None
    if cfg.mode == "mms":
        mms_error = (float(np.max(np.abs(fld.phi - phi_ex(fld.t)))),
                     float(np.max(np.abs(phase.f - f_ex(phase.t)))))
    return RunResult(cfg, slices, np.array(series["t"]),
                     np.array(series["sup_phi"]), np.array(series["sup_f"]),
                     np.array(series["min_f"]), np.array(series["mass"]),
                     warnings, time.perf_counter() - t_start, mms_error)


def _boundary_max(f: np.ndarray, n: int) -> float:
    if n == 1:
        return float(max(np.max(np.abs(f[0])), np.max(np.abs(f[-1]))))
    return float(max(np.max(np.abs(f[0])), np.max(np.abs(f[-1])),
                     np.max(np.abs(f[:, 0])), np.max(np.abs(f[:, -1]))))


# ---------------------------------------------------------------------------
# Manufactured-solution forcing
# ---------------------------------------------------------------------------


def mms_forcing(cfg: SimConfig):
    """Closed-form target pair and the forcing that makes it exact.

    Returns (phi_exact, pi_exact, f_exact, kinetic_source, field_source)
    as grid-shaped functions of t.  The kinetic source is h_V = T_phi* f*
    divided by v^0 (the solver advances d_t f + vhat.grad_x f
    - grad phi.grad_v f = h_V / v^0).
    """
    import sympy as sp

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

    xc = x_centers(cfg)
    vc = v_centers(cfg)
    if n == 1:
        xg = (xc,)
        xgrid_f = (xc[:, None],)
        vgrid_f = (vc[None, :],)
    else:
        xa, xb = np.meshgrid(xc, xc, indexing="ij")
        va, vb = np.meshgrid(vc, vc, indexing="ij")
        xg = (xa, xb)
        xgrid_f = (xa[:, :, None, None], xb[:, :, None, None])
        vgrid_f = (va[None, None, :, :], vb[None, None, :, :])

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
