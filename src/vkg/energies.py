"""Slice energies, density lower bounds, and the kinetic balance inequality.

All quantities live on truncated hyperboloids tau^2 = t^2 - |x|^2.  The
kinetic energy density is ehat(g) = int (v^0 t - v.x)/tau g dv and the
field density e(phi) = (t/2tau)((d_t phi)^2 + |grad phi|^2 + phi^2)
+ (r/tau)(d_t phi)(d_r phi).  Node data come from the solver's captured
space-time blocks, and one route evaluates every multi-index on them.
A generator is a space-time part X = sum +-c d_a plus the lifted
velocity part V.  The two act on disjoint axes, so they commute, also
discretely: G (np.gradient on an axis's coordinates) acts on the t and
x axes and np.gradient on the v axes.  So Zhat_A = prod (X + V) is
multiplied out into terms, each an integer coefficient, one word per
space-time axis in the letters D = G and X = diag(c), and the ordered
velocity parts it takes; Z_A is its terms without velocity parts.  The
node value of a word applied to a block is the block contracted with
the word's weight row (word)^T w, where w holds the cubic Lagrange
weights of the node on that axis.  A stack of blocks is contracted once
with the distinct rows of each axis, and the velocity parts act on the
contracted (nodes, v..) profiles.  phi blocks have no v axes, so the
blocks of all nodes of a slice are contracted at once; f blocks are
taken in stacks of at most STACK_CELLS cells.

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

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .algebra import Generator
from .commuted import (MultiIndex, derive_commuted_vlasov,
                       multi_indices_up_to)
from .solver import NodeSample, SliceData


# ---------------------------------------------------------------------------
# Block calculus: multi-indices as per-axis weight rows
# ---------------------------------------------------------------------------

# evaluate_slice takes the f blocks of a slice in stacks of at most this
# many cells (at least one node per stack)
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


@cache
def _expansion(A: MultiIndex, n: int) -> tuple:
    """Zhat_A = prod over g in A of (X_g + V_g), multiplied out: one
    (coefficient, words, velocity generators) per term.  words[a] is the
    word of space-time axis a (t, then x_1..x_n) in the letters D (G) and
    X (diag of the coordinates), outermost first, and the generators whose
    velocity parts the term takes are ordered the same way.  The terms
    without velocity generators are those of Z_A."""
    terms = [(1, ("",) * (n + 1), ())]
    for g in A:
        out = []
        for k, words, vel in terms:
            out += [(sign * k, tuple(w + "D" * (b == a) + "X" * (b == c)
                                     for b, w in enumerate(words)), vel)
                    for sign, c, a in g.terms]
            if g.lift:
                out.append((k, words, vel + (g,)))
        terms = out
    return tuple(terms)


def _weight_rows(nodes: list[NodeSample], wanted: dict):
    """Weight rows of the words of wanted's terms (lists of _expansion
    terms), and wanted with each term's words replaced by row positions.

    For space-time axis a the rows are (nodes, words, m), one per distinct
    word on that axis, short words first.  The row of the word L_1..L_k
    is L_k^T..L_1^T w, so that its dot product with h is the node value of
    L_1..L_k h; the rows w, G^T w and c*w of the empty word, D and X come
    first."""
    rows, pos = [], []
    for a in range(len(nodes[0].y) + 1):
        cs = np.array([nd.t_levels if a == 0 else nd.x_axes[a - 1]
                       for nd in nodes])
        at = np.array([nd.t_star if a == 0 else nd.y[a - 1] for nd in nodes])
        G, row = _gradient_matrices(cs), {"": _interp_weights(cs, at)}
        axis = sorted({w[a] for tms in wanted.values() for _, w, _ in tms},
                      key=lambda w: (len(w), w))
        for w in sorted({w[:k] for w in axis for k in range(1, len(w) + 1)},
                        key=len):
            row[w] = np.einsum("kij,ki->kj", G, row[w[:-1]]) \
                if w[-1] == "D" else cs * row[w[:-1]]
        rows.append(np.stack([row[w] for w in axis], axis=1))
        pos.append({w: i for i, w in enumerate(axis)})
    return rows, {key: [(k, tuple(p[w] for p, w in zip(pos, words)), vel)
                        for k, words, vel in tms]
                  for key, tms in wanted.items()}


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


def _velocity_part(g: Generator, p: np.ndarray, v_axes):
    """Lifted velocity part of g (Generator.lift) on p, whose last axes
    are the v axes."""
    n = len(v_axes)
    # v axis d shaped to broadcast against the trailing v axes
    v = [a.reshape((-1,) + (1,) * (n - 1 - d)) for d, a in enumerate(v_axes)]
    out = 0.0
    for sign, k, d in g.lift:
        factor = np.sqrt(1.0 + sum(vd ** 2 for vd in v)) if k == 0 \
            else v[k - 1]
        out = out + sign * factor * np.gradient(
            p, v_axes[d - 1], axis=d - 1 - n, edge_order=2)
    return out


def _node_values(h: np.ndarray, rows: list[np.ndarray], terms: dict,
                 v_axes=()) -> dict:
    """Per key of terms (_weight_rows positions), the sum of its terms on a
    stack h (nodes, t, x.., v..) contracted with rows: a new array, so
    that it does not keep the contracted basis alive."""
    basis = _contract(h, rows)
    done = {}                   # velocity parts applied, by (idx, vel)
    out = {}
    for key, tms in terms.items():
        out[key] = 0.0
        for k, idx, vel in tms:
            p = basis[(slice(None),) + idx]
            for i in reversed(range(len(vel))):     # innermost first
                if (idx, vel[i:]) not in done:
                    done[idx, vel[i:]] = _velocity_part(vel[i], p, v_axes)
                p = done[idx, vel[i:]]
            out[key] = out[key] + k * p
    return out


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


def _f_stack(nodes: list[NodeSample], rows: list[np.ndarray], terms: dict
             ) -> dict:
    """The (nodes, v..) profiles of Zhat_A f on a stack of nodes, for
    every A of terms, from the stack's rows of _weight_rows."""
    # the summation order of the contractions follows the memory layout,
    # so fix it: C order (np.stack keeps an F-ordered block in F order)
    f = np.ascontiguousarray(np.stack([nd.fblock for nd in nodes]))
    return _node_values(f, rows, terms, nodes[0].v_axes)


def evaluate_slice(data: SliceData, order: int) -> SliceQuantities:
    """Every node of the slice, every index up to order: phi in one
    contraction, f in stacks of at most STACK_CELLS cells (at least one
    node per stack)."""
    nodes, n = data.nodes, data.n
    terms = {A: _expansion(A, n) for A in multi_indices_up_to(n, order)}
    # Z_A phi (a = -1) and d_a Z_A phi: its terms with one more outermost
    # D on axis a
    pterms = {(A, a): [(k, tuple("D" * (b == a) + w
                                 for b, w in enumerate(words)), ())
                       for k, words, vel in tms if not vel]
              for A, tms in terms.items() for a in range(-1, n + 1)}
    phi = _node_values(
        np.ascontiguousarray(np.stack([nd.phiblock for nd in nodes])),
        *_weight_rows(nodes, pterms))
    rows, terms = _weight_rows(nodes, terms)
    per = max(1, STACK_CELLS // nodes[0].fblock.size)
    stacks = [_f_stack(nodes[i:i + per], [r[i:i + per] for r in rows], terms)
              for i in range(0, len(nodes), per)]
    return SliceQuantities(
        data.tau, n, data.dv,
        t=np.array([nd.t_star for nd in nodes]),
        y=np.array([nd.y for nd in nodes]),
        r=np.array([nd.r for nd in nodes]),
        weight=np.array([nd.weight for nd in nodes]),
        v_axes=nodes[0].v_axes,
        f={A: np.concatenate([s[A] for s in stacks]) for A in terms},
        phi={A: phi[A, -1] for A in terms},
        phi_dt={A: phi[A, 0] for A in terms},
        phi_grad={A: np.stack([phi[A, a] for a in range(1, n + 1)], axis=1)
                  for A in terms})


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
            # the coefficients are elementwise in (t, x, v): (N, 1..) times
            # and (N, 1.., n) nodes broadcast against the (v.., n) grid
            ones = (1,) * sq.n
            t, y = sq.t.reshape(-1, *ones), sq.y.reshape(-1, *ones, sq.n)
            v = np.stack(np.meshgrid(*sq.v_axes, indexing="ij"), axis=-1)
            h = np.zeros_like(sq.f[A])
            for tm in rhs.terms:
                coeff = tm.coeff.evaluate(t, y, v)
                dphi = sq.phi_dt[tm.B] if tm.mu == 0 \
                    else sq.phi_grad[tm.B][:, tm.mu - 1]
                h = h + coeff * sq.nodewise(dphi) * sq.f[tm.C]
            vals = vals + sq.integrate_v(np.abs(h))
        flux.append(sq.integrate(vals))
    integral = float(np.trapezoid(np.array(flux), taus))
    return E[0] + integral - E[-1]
