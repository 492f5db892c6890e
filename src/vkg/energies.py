"""Slice energies, density lower bounds, and the kinetic balance inequality.

All quantities live on truncated hyperboloids tau^2 = t^2 - |x|^2.  The
kinetic energy density is ehat(g) = int (v^0 t - v.x)/tau g dv and the
field density e(phi) = (t/2tau)((d_t phi)^2 + |grad phi|^2 + phi^2)
+ (r/tau)(d_t phi)(d_r phi).  Node data come from the solver's captured
space-time blocks.  Interpolating to a node is a contraction with
per-node, per-axis weight vectors: the cubic Lagrange weights w, the
derivative weights G^T w (G is np.gradient on that axis's coordinates,
so a centered difference followed by interpolation is one dot product)
and the coordinate weights c*w.  The node value of Z_A f is therefore
the outermost generator of A contracted against the whole block Z_B f
of the inner composition B, and the lifted velocity part of that
generator acts on the contracted velocity profile.  Nodes of a slice
share one block shape, so they are evaluated in stacks of at most
solver.BLOCK_CELLS cells.

Lower-bound slacks are evaluated through manifestly nonnegative
rearrangements (pointwise nonnegative velocity integrands, sums of
squares), so a reported negative slack means a genuine violation rather
than roundoff.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import solver
from .algebra import BOOST, DT, DX, ROT, Generator
from .commuted import (MultiIndex, derive_commuted_vlasov,
                       multi_indices_up_to, _mi_str)
from .solver import NodeSample, RunResult, SliceData


# ---------------------------------------------------------------------------
# Block calculus: generators applied to stacked space-time blocks
# ---------------------------------------------------------------------------

# A stack of node blocks has axes (node, t, x_1..x_n, v_1..v_n); the
# contracted basis of a stack has axes (node, row_t, row_x1.., v..), one
# row per weight vector of each space-time axis.
_W, _D, _C = 0, 1, 2               # rows: value, derivative, coordinate


def _lagrange_weights(xs: np.ndarray, x: float) -> np.ndarray:
    w = np.ones(len(xs))
    for k in range(len(xs)):
        for m in range(len(xs)):
            if m != k:
                w[k] *= (x - xs[m]) / (xs[k] - xs[m])
    return w


def _interp_weights(coords: np.ndarray, target: float) -> np.ndarray:
    """Cubic Lagrange weights on the four points around target, zero
    elsewhere: w . h interpolates h at target."""
    b = int(np.searchsorted(coords, target)) - 1
    lo = min(max(b - 1, 0), len(coords) - 4)
    w = np.zeros(len(coords))
    w[lo:lo + 4] = _lagrange_weights(coords[lo:lo + 4], target)
    return w


@dataclass
class _Stack:
    """Per-node coordinates and weights of nodes sharing a block shape.

    For space-time axis a (t, then x_1..x_n): coords[a] is (nodes, m),
    grads[a] holds each node's (m, m) matrix of np.gradient on its
    coordinates, and weights[a] its rows (w, G^T w, c*w), so that
    w . (G h) and (c*w) . h are the node values of d_a h and c h.
    """

    coords: list[np.ndarray]
    grads: list[np.ndarray]
    weights: list[np.ndarray]
    v_axes: tuple[np.ndarray, ...]


def _stack(nodes: list[NodeSample], n: int) -> _Stack:
    coords, grads, weights = [], [], []
    for a in range(n + 1):
        cs = np.array([nd.t_levels if a == 0 else nd.x_axes[a - 1]
                       for nd in nodes])
        at = [nd.t_star if a == 0 else nd.y[a - 1] for nd in nodes]
        G = np.array([np.gradient(np.eye(len(c)), c, axis=0, edge_order=2)
                      for c in cs])
        w = np.array([_interp_weights(c, x) for c, x in zip(cs, at)])
        coords.append(cs)
        grads.append(G)
        weights.append(np.stack([w, np.einsum("kij,ki->kj", G, w), cs * w],
                                axis=1))
    return _Stack(coords, grads, weights, nodes[0].v_axes)


def _terms(g: Generator):
    """Space-time part of g: (sign, coordinate axis or None, derivative
    axis) per term, axes counted t = 0, x_i = i; the first sign is +1."""
    if g.kind == DT:
        return ((1.0, None, 0),)
    if g.kind == DX:
        return ((1.0, None, g.i),)
    if g.kind == BOOST:                     # t d_i + x_i d_t
        return ((1.0, 0, g.i), (1.0, g.i, 0))
    if g.kind == ROT:                       # x_i d_j - x_j d_i
        return ((1.0, g.i, g.j), (-1.0, g.j, g.i))
    raise AssertionError(g.kind)


def _velocity_part(g: Generator, p: np.ndarray, v_axes, first: int):
    """Lifted velocity part of g (v0 d_{v_i}, or v_i d_{v_j} - v_j d_{v_i})
    on p, whose v axes start at axis `first`; None for translations."""
    n = len(v_axes)

    def v(d):
        shape = [1] * p.ndim
        shape[first + d] = len(v_axes[d])
        return v_axes[d].reshape(shape)

    def dv(d):
        return np.gradient(p, v_axes[d], axis=first + d, edge_order=2)

    if g.kind == BOOST:
        return np.sqrt(1.0 + sum(v(d) ** 2 for d in range(n))) * dv(g.i - 1)
    if g.kind == ROT:
        return v(g.i - 1) * dv(g.j - 1) - v(g.j - 1) * dv(g.i - 1)
    return None


def _apply(g: Generator, h: np.ndarray, st: _Stack, lifted: bool
           ) -> np.ndarray:
    """g (or its complete lift) applied to a stack of whole blocks."""
    letters = "abcdefg"[:h.ndim - 1]
    out = None
    for sign, c, a in _terms(g):
        ax = letters[a]
        term = np.einsum(f"nz{ax},n{letters}->n{letters.replace(ax, 'z')}",
                         st.grads[a], h)
        if c is not None:
            shape = [len(h)] + [1] * (h.ndim - 1)
            shape[1 + c] = st.coords[c].shape[1]
            term = st.coords[c].reshape(shape) * term
        out = term if out is None else out + sign * term
    if lifted:
        vpart = _velocity_part(g, h, st.v_axes, 1 + len(st.coords))
        if vpart is not None:
            out = out + vpart
    return out


def _contract(h: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Contract the space-time axes of a stack h with per-node weight rows
    weights[a] (nodes, rows, m); the result has axes (node, rows per
    space-time axis.., v..)."""
    N = len(h)
    out = h
    k = 1
    for w in weights:
        out = w[:, None] @ out.reshape(N, k, w.shape[2], -1)
        k *= w.shape[1]
    return out.reshape((N,) + tuple(w.shape[1] for w in weights)
                       + h.shape[1 + len(weights):])


def _row(n: int, c: int | None = None, d: int | None = None) -> tuple:
    """Basis index: row _C on axis c, row _D on axis d, _W elsewhere."""
    idx = [_W] * (n + 1)
    if c is not None:
        idx[c] = _C
    if d is not None:
        idx[d] = _D
    return (slice(None), *idx)


def _outer(g: Generator, basis: np.ndarray, st: _Stack) -> np.ndarray:
    """Node profiles of g h from the contracted basis of h (a new array,
    so that the profiles do not keep the basis alive)."""
    n = len(st.coords) - 1
    out = 0.0
    for sign, c, a in _terms(g):
        out = out + sign * basis[_row(n, c=c, d=a)]
    vpart = _velocity_part(g, basis[_row(n)], st.v_axes, 1)
    return out if vpart is None else out + vpart


def block_apply(g: Generator, block: np.ndarray, node: NodeSample,
                n: int, lifted: bool) -> np.ndarray:
    """One generator (or its complete lift) applied to a block."""
    return _apply(g, block[None], _stack([node], n), lifted)[0]


def block_apply_multi(A: MultiIndex, block: np.ndarray, node: NodeSample,
                      n: int, lifted: bool) -> np.ndarray:
    st = _stack([node], n)
    out = block[None]
    for g in reversed(A):
        out = _apply(g, out, st, lifted)
    return out[0]


def node_value(block: np.ndarray, node: NodeSample, n: int) -> np.ndarray:
    """Block interpolated to the node's (t*, y); v axes (if any) remain."""
    w = [ws[:, :1] for ws in _stack([node], n).weights]
    return _contract(block[None], w).reshape(block.shape[1 + n:])


# ---------------------------------------------------------------------------
# Densities and lower bounds
# ---------------------------------------------------------------------------


def _vgrids(node: NodeSample, n: int):
    if n == 1:
        return (node.v_axes[0],)
    va, vb = np.meshgrid(node.v_axes[0], node.v_axes[1], indexing="ij")
    return va, vb


def vlasov_energy_density(fprofile: np.ndarray, node: NodeSample, n: int,
                          dv: float) -> float:
    """ehat(f) = int (v^0 t - v.x)/tau f dv at the node."""
    vg = _vgrids(node, n)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    vdotx = sum(vg[d] * node.y[d] for d in range(n))
    w = (v0 * node.t_star - vdotx) / node.tau
    return float(np.sum(w * fprofile)) * dv ** n


def velocity_moments(fprofile: np.ndarray, node: NodeSample, n: int,
                     dv: float) -> tuple[float, float, float]:
    """(int |f| dv, int |f|/v0 dv, int v0 |f| dv) at the node."""
    vg = _vgrids(node, n)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    a = np.abs(fprofile)
    s = dv ** n
    return (float(np.sum(a)) * s, float(np.sum(a / v0)) * s,
            float(np.sum(v0 * a)) * s)


def vlasov_lower_bound_slacks(fprofile: np.ndarray, node: NodeSample, n: int,
                              dv: float) -> tuple[float, float, float]:
    """Slack of ehat(|f|) over its three lower bounds, each evaluated as
    the integral of a pointwise nonnegative integrand."""
    vg = _vgrids(node, n)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    vdotx = sum(vg[d] * node.y[d] for d in range(n))
    t, r, tau = node.t_star, node.r, node.tau
    w = (v0 * t - vdotx) / tau
    a = np.abs(fprofile)
    s = dv ** n
    s1 = float(np.sum((w - t / (2 * tau * v0)) * a)) * s
    s2 = float(np.sum((w - tau * v0 / (2 * (t + r))) * a)) * s
    s3 = float(np.sum((w - 1.0) * a)) * s
    return s1, s2, s3


def kg_energy_density(phi: float, dtphi: float, gradphi, node: NodeSample,
                      n: int) -> float:
    t, r, tau = node.t_star, node.r, node.tau
    g2 = sum(g ** 2 for g in gradphi)
    drphi = sum(gradphi[d] * node.y[d] for d in range(n)) / r if r > 0 else 0.0
    return (t / (2 * tau)) * (dtphi ** 2 + g2 + phi ** 2) \
        + (r / tau) * dtphi * drphi


def kg_lower_bound_slack(phi: float, dtphi: float, gradphi,
                         node: NodeSample, n: int) -> float:
    """e(phi) - (t/2tau)phi^2 - (tau/2(t+r))|dphi|^2 as a sum of squares."""
    t, r, tau = node.t_star, node.r, node.tau
    if r > 0:
        drphi = sum(gradphi[d] * node.y[d] for d in range(n)) / r
    else:
        drphi = 0.0
    # transverse gradient square: |grad|^2 - (d_r)^2, computed exactly
    if n == 1:
        trans2 = 0.0
    else:
        trans2 = ((node.y[0] * gradphi[1] - node.y[1] * gradphi[0]) / r) ** 2 \
            if r > 0 else sum(g ** 2 for g in gradphi)
    return (r / (2 * tau)) * (dtphi + drphi) ** 2 + (r / (2 * tau)) * trans2


@dataclass(frozen=True)
class DensitySample:
    tau: float
    t: float
    y: tuple[float, ...]
    ehat: float
    e_kg: float
    moments: tuple[float, float, float]
    slacks_f: tuple[float, float, float]
    slack_kg: float


# ---------------------------------------------------------------------------
# Slice evaluation
# ---------------------------------------------------------------------------


@dataclass
class NodeQuantities:
    """Everything the diagnostics need at one slice node."""

    node: NodeSample
    f_profiles: dict[MultiIndex, np.ndarray]      # Zhat_A f on the v grid
    phi_values: dict[MultiIndex, float]           # Z_A phi
    phi_dt: dict[MultiIndex, float]               # d_t Z_A phi
    phi_grad: dict[MultiIndex, tuple[float, ...]]  # grad_x Z_A phi


def _evaluate_stack(nodes: list[NodeSample], n: int,
                    order: int) -> list[NodeQuantities]:
    """evaluate_node on nodes that share a block shape, all at once."""
    st = _stack(nodes, n)
    if len(nodes) == 1:
        f, phi = nodes[0].fblock[None], nodes[0].phiblock[None]
    else:
        f = np.stack([nd.fblock for nd in nodes])
        phi = np.stack([nd.phiblock for nd in nodes])
    # the summation order of the contractions follows the memory layout,
    # so fix it: C order (a one-node stack of captured blocks is a view
    # into a shared block, so this copies it)
    f, phi = np.ascontiguousarray(f), np.ascontiguousarray(phi)
    indices = multi_indices_up_to(n, order)
    # whole blocks of Z_B f are needed only as the inner blocks of longer
    # indices; phi blocks have no v axes and are kept for every index
    inner = {(): f}
    pblocks = {(): phi}
    for A in indices[1:]:
        pblocks[A] = _apply(A[0], pblocks[A[1:]], st, False)
        if len(A) < order:
            inner[A] = _apply(A[0], inner[A[1:]], st, True)
    basis = {B: _contract(h, st.weights) for B, h in inner.items()}
    profiles = {(): basis[()][_row(n)].copy()}
    for A in indices[1:]:
        profiles[A] = _outer(A[0], basis[A[1:]], st)
    wd = [w[:, :_C] for w in st.weights]
    values, dts, grads = {}, {}, {}
    for A in indices:
        pb = _contract(pblocks[A], wd)
        values[A] = pb[_row(n)].tolist()
        dts[A] = pb[_row(n, d=0)].tolist()
        grads[A] = list(zip(*(pb[_row(n, d=1 + d)].tolist()
                              for d in range(n))))
    return [NodeQuantities(nd, {A: profiles[A][k] for A in indices},
                           {A: values[A][k] for A in indices},
                           {A: dts[A][k] for A in indices},
                           {A: grads[A][k] for A in indices})
            for k, nd in enumerate(nodes)]


def evaluate_node(node: NodeSample, n: int, order: int) -> NodeQuantities:
    return _evaluate_stack([node], n, order)[0]


@dataclass
class SliceQuantities:
    tau: float
    n: int
    dv: float
    nodes: list[NodeQuantities]

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature over the slice; values indexed like self.nodes."""
        w = np.array([q.node.weight for q in self.nodes])
        return float(np.sum(w * np.asarray(values)))


def evaluate_slice(data: SliceData, order: int) -> SliceQuantities:
    """Every node of the slice, in stacks of at most solver.BLOCK_CELLS
    cells (at least one node per stack)."""
    nodes = data.nodes
    per = max(1, solver.BLOCK_CELLS // nodes[0].fblock.size) if nodes else 1
    out = []
    for i in range(0, len(nodes), per):
        out += _evaluate_stack(nodes[i:i + per], data.n, order)
    return SliceQuantities(data.tau, data.n, data.dv, out)


def density_samples(sq: SliceQuantities) -> list[DensitySample]:
    out = []
    for q in sq.nodes:
        nd = q.node
        f = q.f_profiles[()]
        ehat = vlasov_energy_density(np.abs(f), nd, sq.n, sq.dv)
        ekg = kg_energy_density(q.phi_values[()], q.phi_dt[()],
                                q.phi_grad[()], nd, sq.n)
        out.append(DensitySample(
            sq.tau, nd.t_star, nd.y, ehat, ekg,
            velocity_moments(f, nd, sq.n, sq.dv),
            vlasov_lower_bound_slacks(f, nd, sq.n, sq.dv),
            kg_lower_bound_slack(q.phi_values[()], q.phi_dt[()],
                                 q.phi_grad[()], nd, sq.n)))
    return out


# ---------------------------------------------------------------------------
# Energy hierarchies
# ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    tau: float
    order: int
    E_N_phi: float
    Ehat_N_f: float
    Ehat_N1_f: float
    breakdown_phi: dict[MultiIndex, float]
    breakdown_f: dict[MultiIndex, float]
    breakdown_fw: dict[MultiIndex, float]

    def truncated(self, order: int) -> EnergyReport:
        """The report of the same slice at a lower order, from these
        breakdowns and equal to energy_report at that order: its indices
        are a prefix of these, summed in the same order, and the ones it
        weights by v0 in Ehat_N1_f (|A| <= order // 2) are weighted here
        too."""
        if order > self.order:
            raise ValueError(f"order {order} exceeds the report's {self.order}")
        keep = [A for A in self.breakdown_f if len(A) <= order]
        half = order // 2
        phi = {A: self.breakdown_phi[A] for A in keep}
        f = {A: self.breakdown_f[A] for A in keep}
        fw = {A: self.breakdown_fw[A] if len(A) <= half else f[A]
              for A in keep}
        return EnergyReport(self.tau, order, sum(phi.values()),
                            sum(f.values()), sum(fw.values()), phi, f, fw)


def energy_report(sq: SliceQuantities, order: int) -> EnergyReport:
    """Slice energies of every multi-index up to order.

    Each breakdown entry is one weighted sum over the node values of the
    slice stacked into arrays, (nodes,) for phi and (nodes, v..) for f,
    with the arithmetic of kg_energy_density and vlasov_energy_density
    node by node, so the entries equal those of a loop over the nodes.
    The squares of the phi values are taken by pow, as Python's float
    ** 2 is (x * x differs from it in the last bit for some x).
    """
    n, N = sq.n, len(sq.nodes)
    nodes = [q.node for q in sq.nodes]
    t = np.array([nd.t_star for nd in nodes])
    r = np.array([nd.r for nd in nodes])
    y = np.array([nd.y for nd in nodes])
    tau = sq.tau
    vg = _vgrids(nodes[0], n)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    # ehat weight (v0 t - v.x) / tau per node and velocity cell
    node_axes = (N,) + (1,) * n
    vdotx = sum(vg[d] * y[:, d].reshape(node_axes) for d in range(n))
    w = (v0 * t.reshape(node_axes) - vdotx) / tau

    def stack(field, A):
        return np.array([getattr(q, field)[A] for q in sq.nodes])

    def ehat_integral(prof):
        return sq.integrate(np.sum((w * prof).reshape(N, -1), axis=1)
                            * sq.dv ** n)

    indices = multi_indices_up_to(n, order)
    half = order // 2
    breakdown_phi = {}
    breakdown_f = {}
    breakdown_fw = {}
    for A in indices:
        phi, dtphi = stack("phi_values", A), stack("phi_dt", A)
        grad = stack("phi_grad", A)
        g2 = sum(np.float_power(grad[:, d], 2) for d in range(n))
        drphi = np.divide(sum(grad[:, d] * y[:, d] for d in range(n)), r,
                          out=np.zeros(N), where=r > 0)
        e = (t / (2 * tau)) * (np.float_power(dtphi, 2) + g2
                               + np.float_power(phi, 2)) \
            + (r / tau) * dtphi * drphi
        breakdown_phi[A] = sq.integrate(e)
        prof = np.abs(stack("f_profiles", A))
        breakdown_f[A] = ehat_integral(prof)
        breakdown_fw[A] = ehat_integral(prof * v0) \
            if len(A) <= half else breakdown_f[A]
    return EnergyReport(
        sq.tau, order,
        E_N_phi=sum(breakdown_phi.values()),
        Ehat_N_f=sum(breakdown_f.values()),
        Ehat_N1_f=sum(breakdown_fw.values()),
        breakdown_phi=breakdown_phi,
        breakdown_f=breakdown_f,
        breakdown_fw=breakdown_fw)


def reports_to_csv(reports: list[EnergyReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["tau", "order", "multi_index", "E_phi", "Ehat_f", "Ehat_f_weighted"])
    for rep in reports:
        for A in sorted(rep.breakdown_f, key=lambda a: (len(a), _mi_str(a))):
            w.writerow([f"{rep.tau:.9g}", len(A), _mi_str(A),
                        f"{rep.breakdown_phi[A]:.17g}",
                        f"{rep.breakdown_f[A]:.17g}",
                        f"{rep.breakdown_fw[A]:.17g}"])
    return buf.getvalue()


def reports_to_json(reports: list[EnergyReport]) -> str:
    doc = [{"tau": rep.tau, "order": rep.order, "E_N_phi": rep.E_N_phi,
            "Ehat_N_f": rep.Ehat_N_f, "Ehat_N1_f": rep.Ehat_N1_f}
           for rep in reports]
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# Balance inequality
# ---------------------------------------------------------------------------


def vlasov_energy_inequality_slack(slices: list[SliceQuantities],
                                   reports: list[EnergyReport],
                                   A: MultiIndex = ()) -> float:
    """RHS - LHS of the kinetic balance inequality for Zhat_A f.

    int ehat(|Zhat_A f|)(tau2) <= same at tau1
    + int_lambda int (|h| + |grad phi||Zhat_A f|) dv dmu dlambda,
    with h the derived commutator right-hand side (zero when A is empty).
    """
    taus = [sq.tau for sq in slices]
    E = [rep.breakdown_f[A] for rep in reports]
    n = slices[0].n
    rhs = derive_commuted_vlasov(A, n) if A else None
    flux = []
    for sq in slices:
        vals = np.zeros(len(sq.nodes))
        for k, q in enumerate(sq.nodes):
            gp = q.phi_grad[()]
            gnorm = math.sqrt(sum(g ** 2 for g in gp))
            intf = float(np.sum(np.abs(q.f_profiles[A]))) * sq.dv ** n
            acc = gnorm * intf
            if rhs is not None:
                vg = _vgrids(q.node, n)
                vstack = np.stack([v.ravel() for v in vg], axis=-1)
                t, y = q.node.t_star, q.node.y
                h = np.zeros_like(q.f_profiles[A])
                for tm in rhs.terms:
                    coeff = tm.coeff.evaluate(
                        np.full(len(vstack), t),
                        np.broadcast_to(np.asarray(y), (len(vstack), n)),
                        vstack).reshape(vg[0].shape)
                    dphi = q.phi_dt[tm.B] if tm.mu == 0 \
                        else q.phi_grad[tm.B][tm.mu - 1]
                    h = h + coeff * dphi * q.f_profiles[tm.C]
                acc += float(np.sum(np.abs(h))) * sq.dv ** n
            vals[k] = acc
        flux.append(sq.integrate(vals))
    integral = float(np.trapezoid(np.array(flux), taus))
    return E[0] + integral - E[-1]
