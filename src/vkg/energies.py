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
STACK_CELLS cells.

A slice's values are kept stacked along a leading node axis, one array
per multi-index A: Zhat_A f as (nodes, v..) profiles, Z_A phi and its
time derivative as (nodes,) and its gradient as (nodes, n), beside the
(nodes,) t, r, quadrature weights and (nodes, n) positions y.  Every
density, slack and energy is one array expression over the nodes, and
a slice integral is the weighted sum of a density.

Lower-bound slacks are evaluated through manifestly nonnegative
rearrangements (pointwise nonnegative velocity integrands, sums of
squares), so a reported negative slack means a genuine violation rather
than roundoff.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import Generator
from .commuted import (MultiIndex, derive_commuted_vlasov,
                       multi_indices_up_to, _mi_str)
from .solver import NodeSample, SliceData


# ---------------------------------------------------------------------------
# Block calculus: generators applied to stacked space-time blocks
# ---------------------------------------------------------------------------

# A stack of node blocks has axes (node, t, x_1..x_n, v_1..v_n); the
# contracted basis of a stack has axes (node, row_t, row_x1.., v..), one
# row per weight vector of each space-time axis.
_W, _D, _C = 0, 1, 2               # rows: value, derivative, coordinate

# evaluate_slice takes the nodes of a slice in stacks of at most this
# many cells of f (at least one node per stack)
STACK_CELLS = 1 << 15


def _interp_weights(coords: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Cubic Lagrange weights, per ascending row of coords (nodes, m), on
    the four points around its target, zero elsewhere: w . h is h there."""
    first = np.sum(coords < target[:, None], axis=1)    # np.searchsorted
    cols = np.clip(first - 2, 0, coords.shape[1] - 4)[:, None] + np.arange(4)
    xs = np.take_along_axis(coords, cols, axis=1)
    w4 = np.ones(xs.shape)
    # weight k takes the factor of each point j != k, j ascending
    for j in ([1, 0, 0, 0], [2, 2, 1, 1], [3, 3, 3, 2]):
        w4 *= (target[:, None] - xs[:, j]) / (xs - xs[:, j])
    w = np.zeros(coords.shape)
    np.put_along_axis(w, cols, w4, axis=1)
    return w


def _gradient_matrices(coords: np.ndarray) -> np.ndarray:
    """np.gradient(np.eye(m), c, axis=0, edge_order=2) per row c of coords
    (nodes, m), bit for bit, by its formulas (scalar-spacing ones for even
    rows): row i weighs points i - 1, i and i + 1, moved inside at ends."""
    (N, m), d = coords.shape, np.diff(coords, axis=1)
    h, lo = d[:, :1], np.clip(np.arange(m) - 1, 0, m - 3)
    # spacings around each row's middle point; numerators inside, then ends
    X, Y = d[:, lo], d[:, lo + 1]
    S = X + Y
    num = np.stack([-Y, Y - X, X])
    num[:, :, 0] = -(2. * X[:, 0] + Y[:, 0]), S[:, 0], -X[:, 0]
    num[:, :, -1] = Y[:, -1], -S[:, -1], 2. * Y[:, -1] + X[:, -1]
    inner = np.arange(m) % (m - 1) > 0
    scalar = np.where(inner, [[-1.0], [0.0], [1.0]], np.where(
        np.arange(m) == 0, [[-1.5], [2.], [-0.5]], [[0.5], [-2.], [1.5]]))
    weights = np.where(np.all(d == h, axis=1)[:, None],
                       scalar[:, None] / np.where(inner, 2. * h, h),
                       num / np.stack([X * S, X * Y, Y * S]))
    G = np.zeros((N, m, m))
    G[:, np.arange(m), lo + np.arange(3)[:, None]] = weights.transpose(1, 0, 2)
    return G


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

    def rows(self, s: slice) -> _Stack:
        return _Stack(*([a[s] for a in f] for f in (
            self.coords, self.grads, self.weights)), self.v_axes)


def _stack(nodes: list[NodeSample], n: int) -> _Stack:
    coords, grads, weights = [], [], []
    for a in range(n + 1):
        cs = np.array([nd.t_levels if a == 0 else nd.x_axes[a - 1]
                       for nd in nodes])
        at = np.array([nd.t_star if a == 0 else nd.y[a - 1] for nd in nodes])
        G, w = _gradient_matrices(cs), _interp_weights(cs, at)
        coords.append(cs)
        grads.append(G)
        weights.append(np.stack([w, np.einsum("kij,ki->kj", G, w), cs * w],
                                axis=1))
    return _Stack(coords, grads, weights, nodes[0].v_axes)


def _velocity_part(g: Generator, p: np.ndarray, v_axes):
    """Lifted velocity part of g (Generator.lift) on p, whose last axes
    are the v axes; None for translations."""
    if not g.lift:
        return None
    n = len(v_axes)
    # v axis d shaped to broadcast against the trailing v axes
    v = [a.reshape((-1,) + (1,) * (n - 1 - d)) for d, a in enumerate(v_axes)]
    out = None
    for sign, k, d in g.lift:
        factor = np.sqrt(1.0 + sum(vd ** 2 for vd in v)) if k == 0 \
            else v[k - 1]
        term = factor * np.gradient(p, v_axes[d - 1], axis=d - 1 - n,
                                    edge_order=2)
        out = term if out is None else out + sign * term
    return out


def _apply(g: Generator, h: np.ndarray, st: _Stack, lifted: bool
           ) -> np.ndarray:
    """g (or its complete lift) applied to a stack of whole blocks."""
    letters = "abcdefg"[:h.ndim - 1]
    out = None
    for sign, c, a in g.terms:
        ax = letters[a]
        term = np.einsum(f"nz{ax},n{letters}->n{letters.replace(ax, 'z')}",
                         st.grads[a], h)
        if c is not None:
            shape = [len(h)] + [1] * (h.ndim - 1)
            shape[1 + c] = st.coords[c].shape[1]
            term = st.coords[c].reshape(shape) * term
        out = term if out is None else out + sign * term
    if lifted:
        vpart = _velocity_part(g, h, st.v_axes)
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
    for sign, c, a in g.terms:
        out = out + sign * basis[_row(n, c=c, d=a)]
    vpart = _velocity_part(g, basis[_row(n)], st.v_axes)
    return out if vpart is None else out + vpart


# ---------------------------------------------------------------------------
# Slice evaluation
# ---------------------------------------------------------------------------


@dataclass
class SliceQuantities:
    """Node values of one slice, stacked along a leading node axis.

    t, r and weight are (N,) and y is (N, n).  For every multi-index A,
    f[A] is the (N, v..) velocity profile of Zhat_A f, phi[A] and
    phi_dt[A] are the (N,) values of Z_A phi and d_t Z_A phi, and
    phi_grad[A] is the (N, n) gradient of Z_A phi.  v0 = sqrt(1 + |v|^2)
    on the velocity grid and the (N, v..) weight (v0 t - v.y)/tau of
    ehat are computed once.
    """

    tau: float
    n: int
    dv: float
    t: np.ndarray
    y: np.ndarray
    r: np.ndarray
    weight: np.ndarray
    v_axes: tuple[np.ndarray, ...]
    f: dict[MultiIndex, np.ndarray]
    phi: dict[MultiIndex, np.ndarray]
    phi_dt: dict[MultiIndex, np.ndarray]
    phi_grad: dict[MultiIndex, np.ndarray]
    v0: np.ndarray = field(init=False)
    ehat_weight: np.ndarray = field(init=False)

    def __post_init__(self):
        vg = np.meshgrid(*self.v_axes, indexing="ij")
        self.v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
        vdotx = sum(vg[d] * self.nodewise(self.y[:, d])
                    for d in range(self.n))
        self.ehat_weight = (self.v0 * self.nodewise(self.t) - vdotx) \
            / self.tau

    def nodewise(self, values: np.ndarray) -> np.ndarray:
        """(N,) values shaped to broadcast against (N, v..) profiles."""
        return values.reshape((-1,) + (1,) * self.n)

    def integrate_v(self, g: np.ndarray) -> np.ndarray:
        """int g dv at every node of an (N, v..) array."""
        return np.sum(g.reshape(len(g), -1), axis=1) * self.dv ** self.n

    def integrate(self, values: np.ndarray) -> float:
        """Quadrature over the slice of one value per node."""
        return float(np.sum(self.weight * values))


def _evaluate_stack(nodes: list[NodeSample], st: _Stack, order: int):
    """The dicts (f, phi, phi_dt, phi_grad) of SliceQuantities for nodes
    of one block shape and their _Stack st, every index up to order."""
    n = len(st.coords) - 1
    # the summation order of the contractions follows the memory layout,
    # so fix it: C order (np.stack keeps an F-ordered block in F order)
    f = np.ascontiguousarray(np.stack([nd.fblock for nd in nodes]))
    phi = np.ascontiguousarray(np.stack([nd.phiblock for nd in nodes]))
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
    # a copy: a view would keep the whole basis alive with the profile
    profiles = {(): basis[()][_row(n)].copy()}
    for A in indices[1:]:
        profiles[A] = _outer(A[0], basis[A[1:]], st)
    wd = [w[:, :_C] for w in st.weights]
    values, dts, grads = {}, {}, {}
    for A in indices:
        pb = _contract(pblocks[A], wd)
        values[A] = pb[_row(n)]
        dts[A] = pb[_row(n, d=0)]
        grads[A] = np.stack([pb[_row(n, d=1 + d)] for d in range(n)], axis=1)
    return profiles, values, dts, grads


def evaluate_slice(data: SliceData, order: int) -> SliceQuantities:
    """Every node of the slice, in stacks of at most STACK_CELLS cells
    (at least one node per stack)."""
    nodes = data.nodes
    per = max(1, STACK_CELLS // nodes[0].fblock.size)
    st = _stack(nodes, data.n)      # built once, then taken row by row
    stacks = [_evaluate_stack(nodes[i:i + per], st.rows(slice(i, i + per)),
                              order) for i in range(0, len(nodes), per)]
    f, phi, phi_dt, phi_grad = (
        {A: np.concatenate([s[k][A] for s in stacks]) for A in stacks[0][k]}
        for k in range(4))
    return SliceQuantities(
        data.tau, data.n, data.dv,
        t=np.array([nd.t_star for nd in nodes]),
        y=np.array([nd.y for nd in nodes]),
        r=np.array([nd.r for nd in nodes]),
        weight=np.array([nd.weight for nd in nodes]),
        v_axes=nodes[0].v_axes,
        f=f, phi=phi, phi_dt=phi_dt, phi_grad=phi_grad)


# ---------------------------------------------------------------------------
# Densities and lower bounds
# ---------------------------------------------------------------------------
#
# Each density is one (N,) array over the nodes of a slice.  Squares of
# node values are taken with np.float_power, which is C pow as Python's
# float ** is (x * x differs from it in the last bit for some x), so the
# densities equal those of a loop over the nodes with Python floats.


def vlasov_energy_density(sq: SliceQuantities, prof: np.ndarray
                          ) -> np.ndarray:
    """ehat = int (v^0 t - v.x)/tau prof dv of an (N, v..) profile."""
    return sq.integrate_v(sq.ehat_weight * prof)


def velocity_moments(sq: SliceQuantities, f: np.ndarray):
    """(int |f| dv, int |f|/v0 dv, int v0 |f| dv) at every node."""
    a = np.abs(f)
    return (sq.integrate_v(a), sq.integrate_v(a / sq.v0),
            sq.integrate_v(sq.v0 * a))


def vlasov_lower_bound_slacks(sq: SliceQuantities, f: np.ndarray):
    """Slack of ehat(|f|) over its three lower bounds at every node, each
    evaluated as the integral of a pointwise nonnegative integrand."""
    t, r, tau = sq.nodewise(sq.t), sq.nodewise(sq.r), sq.tau
    w, v0 = sq.ehat_weight, sq.v0
    a = np.abs(f)
    return (sq.integrate_v((w - t / (2 * tau * v0)) * a),
            sq.integrate_v((w - tau * v0 / (2 * (t + r))) * a),
            sq.integrate_v((w - 1.0) * a))


def _squares(g: np.ndarray) -> np.ndarray:
    """|g|^2 of (N, n) gradients, summed component by component."""
    return sum(np.float_power(g[:, d], 2) for d in range(g.shape[1]))


def _radial(sq: SliceQuantities, A: MultiIndex) -> np.ndarray:
    """d_r Z_A phi at every node, 0 at r = 0."""
    g = sq.phi_grad[A]
    return np.divide(sum(g[:, d] * sq.y[:, d] for d in range(sq.n)), sq.r,
                     out=np.zeros(len(sq.r)), where=sq.r > 0)


def kg_energy_density(sq: SliceQuantities, A: MultiIndex = ()
                      ) -> np.ndarray:
    """e(Z_A phi) at every node."""
    t, r, tau, dtphi = sq.t, sq.r, sq.tau, sq.phi_dt[A]
    g2 = _squares(sq.phi_grad[A])
    return (t / (2 * tau)) * (np.float_power(dtphi, 2) + g2
                              + np.float_power(sq.phi[A], 2)) \
        + (r / tau) * dtphi * _radial(sq, A)


def kg_lower_bound_slack(sq: SliceQuantities, A: MultiIndex = ()
                         ) -> np.ndarray:
    """e(phi) - (t/2tau)phi^2 - (tau/2(t+r))|dphi|^2 as a sum of squares."""
    r, tau, y, g = sq.r, sq.tau, sq.y, sq.phi_grad[A]
    # transverse gradient square: |grad|^2 - (d_r)^2, computed exactly
    if sq.n == 1:
        trans2 = 0.0
    else:
        cross = np.divide(y[:, 0] * g[:, 1] - y[:, 1] * g[:, 0], r,
                          out=np.zeros(len(r)), where=r > 0)
        trans2 = np.where(r > 0, np.float_power(cross, 2), _squares(g))
    null = sq.phi_dt[A] + _radial(sq, A)      # (d_t + d_r) Z_A phi
    return (r / (2 * tau)) * np.float_power(null, 2) \
        + (r / (2 * tau)) * trans2


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


def density_samples(sq: SliceQuantities) -> list[DensitySample]:
    f = sq.f[()]
    rows = np.column_stack([
        vlasov_energy_density(sq, np.abs(f)), kg_energy_density(sq),
        *velocity_moments(sq, f), *vlasov_lower_bound_slacks(sq, f),
        kg_lower_bound_slack(sq)]).tolist()
    return [DensitySample(sq.tau, t, tuple(y), row[0], row[1],
                          tuple(row[2:5]), tuple(row[5:8]), row[8])
            for t, y, row in zip(sq.t.tolist(), sq.y, rows)]


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
    """Slice energies of every multi-index up to order: each breakdown
    entry is the quadrature of a density over the nodes of the slice."""
    half = order // 2
    breakdown_phi = {}
    breakdown_f = {}
    breakdown_fw = {}
    for A in multi_indices_up_to(sq.n, order):
        breakdown_phi[A] = sq.integrate(kg_energy_density(sq, A))
        prof = np.abs(sq.f[A])
        breakdown_f[A] = sq.integrate(vlasov_energy_density(sq, prof))
        breakdown_fw[A] = sq.integrate(
            vlasov_energy_density(sq, prof * sq.v0)) \
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
    rhs = derive_commuted_vlasov(A, slices[0].n) if A else None
    flux = []
    for sq in slices:
        vals = np.sqrt(_squares(sq.phi_grad[()])) \
            * sq.integrate_v(np.abs(sq.f[A]))
        if rhs is not None:
            # the coefficients are elementwise in (t, x, v): evaluate
            # them once at every (node, velocity) point
            N, nv = len(sq.t), sq.v0.size
            v = np.stack(np.meshgrid(*sq.v_axes, indexing="ij"), axis=-1)
            t, y = np.repeat(sq.t, nv), np.repeat(sq.y, nv, axis=0)
            v = np.tile(v.reshape(nv, sq.n), (N, 1))
            h = np.zeros_like(sq.f[A])
            for tm in rhs.terms:
                coeff = tm.coeff.evaluate(t, y, v).reshape(sq.f[A].shape)
                dphi = sq.phi_dt[tm.B] if tm.mu == 0 \
                    else sq.phi_grad[tm.B][:, tm.mu - 1]
                h = h + coeff * sq.nodewise(dphi) * sq.f[tm.C]
            vals = vals + sq.integrate_v(np.abs(h))
        flux.append(sq.integrate(vals))
    integral = float(np.trapezoid(np.array(flux), taus))
    return E[0] + integral - E[-1]
