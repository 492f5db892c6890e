"""Slice-energy tests: block calculus exactness on polynomial data,
density lower bounds, hierarchy structure, and scaling of the reports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkg import energies, report
from vkg.algebra import BOOST, DT, DX, ROT, Generator
from vkg.commuted import derive_commuted_vlasov, multi_indices_up_to
from vkg.energies import (DensitySample, SliceQuantities, density_samples,
                          energy_report, evaluate_slice, kg_energy_density,
                          kg_lower_bound_slack, velocity_moments,
                          vlasov_energy_density, vlasov_energy_inequality_slack,
                          vlasov_lower_bound_slacks)
from vkg.solver import NodeSample, SimConfig, SliceData, run


# ---------------------------------------------------------------------------
# synthetic node blocks (n = 1)
# ---------------------------------------------------------------------------

def make_node(tau=3.0, y=1.2, nt=6, nx=13, nv=24,
              f_fn=None, phi_fn=None) -> NodeSample:
    r = abs(y)
    t_star = math.sqrt(tau * tau + r * r)
    t_levels = t_star + np.linspace(-0.12, 0.08, nt)
    x_axis = y + np.linspace(-0.3, 0.3, nx)
    v_axis = np.linspace(-2.0, 2.0, nv)
    T = t_levels[:, None, None]
    X = x_axis[None, :, None]
    V = v_axis[None, None, :]
    f = f_fn(T, X, V) if f_fn else np.zeros((nt, nx, nv))
    phi = phi_fn(T[..., 0], X[..., 0]) if phi_fn else np.zeros((nt, nx))
    return NodeSample(tau, (y,), r, t_star, 1.0, t_levels, (x_axis,),
                      (v_axis,), np.broadcast_to(f, (nt, nx, nv)).copy(),
                      np.broadcast_to(phi, (nt, nx)).copy())


# ---------------------------------------------------------------------------
# whole-block reference route: differentiate a node's block with
# np.gradient along each axis, then interpolate it to the node with
# _reference_interp_weights; it shares no code with evaluate_slice
# ---------------------------------------------------------------------------

def block_apply(g: Generator, block: np.ndarray, node: NodeSample,
                n: int, lifted: bool) -> np.ndarray:
    """One generator (or its complete lift) applied to a block with axes
    (t, x_1..x_n) and, if lifted, (v_1..v_n) after them."""
    axes = (node.t_levels,) + tuple(node.x_axes)
    out = 0.0
    for sign, c, a in g.terms:
        term = np.gradient(block, axes[a], axis=a, edge_order=2)
        if c is not None:       # coordinate c, broadcast along axis c
            term = axes[c].reshape((-1,) + (1,) * (block.ndim - 1 - c)) \
                * term
        out = out + sign * term
    if lifted:
        v = np.meshgrid(*node.v_axes, indexing="ij")
        for sign, k, d in g.lift:
            factor = np.sqrt(1.0 + sum(w ** 2 for w in v)) if k == 0 \
                else v[k - 1]
            out = out + sign * factor * np.gradient(
                block, node.v_axes[d - 1], axis=n + d, edge_order=2)
    return out


def block_apply_multi(A, block: np.ndarray, node: NodeSample,
                      n: int, lifted: bool) -> np.ndarray:
    """Z_A = Z_{A[0]} ... Z_{A[-1]} applied to a block, innermost first."""
    out = block
    for g in reversed(A):
        out = block_apply(g, out, node, n, lifted)
    return out


def node_value(block: np.ndarray, node: NodeSample, n: int) -> np.ndarray:
    """Block interpolated to the node's (t*, y); v axes (if any) remain."""
    out = block
    for coords, at in zip((node.t_levels,) + tuple(node.x_axes),
                          (node.t_star,) + tuple(node.y)):
        out = np.tensordot(_reference_interp_weights(coords, at), out,
                           axes=(0, 0))
    return out


def evaluate_single(node: NodeSample, order: int) -> SliceQuantities:
    """The stacked quantities of a one-node slice."""
    return evaluate_slice(SliceData(node.tau, len(node.y), [node], 0.25),
                          order)


def node_quantities(node: NodeSample, dv: float, f=None, phi=0.0, dtphi=0.0,
                    grad=None) -> SliceQuantities:
    """A one-node slice of the given order-0 node values."""
    n = len(node.y)
    vshape = tuple(len(v) for v in node.v_axes)
    return SliceQuantities(
        node.tau, n, dv, np.array([node.t_star]), np.array([node.y]),
        np.array([node.r]), np.array([node.weight]), node.v_axes,
        f={(): np.zeros((1,) + vshape) if f is None else f[None]},
        phi={(): np.array([phi])}, phi_dt={(): np.array([dtphi])},
        phi_grad={(): np.array([grad if grad is not None else (0.0,) * n])})


def test_block_apply_boost_exact_on_polynomials():
    # f = t^2 + x^2 v: the lifted boost gives 2txv + 2tx + v0 x^2, and
    # second-order differences are exact on quadratics per axis
    node = make_node(f_fn=lambda t, x, v: t ** 2 + x ** 2 * v)
    out = block_apply(Generator(BOOST, 1), node.fblock, node, 1, lifted=True)
    T = node.t_levels[:, None, None]
    X = node.x_axes[0][None, :, None]
    V = node.v_axes[0][None, None, :]
    V0 = np.sqrt(1.0 + V ** 2)
    exact = T * 2 * X * V + X * 2 * T + V0 * X ** 2
    assert np.allclose(out, exact, rtol=1e-12, atol=1e-12)


def test_block_apply_spacetime_boost_kills_invariant():
    # t^2 - x^2 is constant along boost orbits
    node = make_node(phi_fn=lambda t, x: t ** 2 - x ** 2)
    out = block_apply(Generator(BOOST, 1), node.phiblock, node, 1, lifted=False)
    assert np.max(np.abs(out)) < 1e-10


def test_block_apply_multi_composes_left_to_right():
    node = make_node(phi_fn=lambda t, x: t ** 2 * x)
    one = block_apply(Generator(DX, 1), node.phiblock, node, 1, False)
    two = block_apply(Generator(DT), one, node, 1, False)
    both = block_apply_multi((Generator(DT), Generator(DX, 1)), node.phiblock, node, 1, False)
    assert np.allclose(both, two, atol=1e-12)


def test_node_value_exact_on_cubics():
    node = make_node(phi_fn=lambda t, x: t ** 3 - 2 * t * x ** 2 + x ** 3)
    got = float(node_value(node.phiblock, node, 1))
    t, x = node.t_star, node.y[0]
    assert abs(got - (t ** 3 - 2 * t * x ** 2 + x ** 3)) < 1e-10


def test_evaluate_node_matches_analytic_derivatives():
    node = make_node(f_fn=lambda t, x, v: t ** 2 + x ** 2 * v,
                     phi_fn=lambda t, x: t ** 2 - x ** 2)
    q = evaluate_single(node, 1)
    t, x = node.t_star, node.y[0]
    v = node.v_axes[0]
    v0 = np.sqrt(1 + v ** 2)
    assert np.allclose(q.f[()][0], t ** 2 + x ** 2 * v, atol=1e-10)
    assert np.allclose(q.f[(Generator(BOOST, 1),)][0],
                       2 * t * x * v + 2 * t * x + v0 * x ** 2, atol=1e-9)
    assert abs(q.phi[(Generator(BOOST, 1),)][0]) < 1e-9
    assert abs(q.phi_dt[()][0] - 2 * t) < 1e-9
    assert abs(q.phi_grad[()][0, 0] + 2 * x) < 1e-9


# ---------------------------------------------------------------------------
# synthetic node blocks (n = 2)
# ---------------------------------------------------------------------------

def make_node2(tau=3.0, y=(0.9, -0.6), nt=6, nx=9, nv=10,
               f_fn=None, phi_fn=None, rng=None) -> NodeSample:
    """n = 2 block from f(t, x1, x2, v1, v2) and phi(t, x1, x2), or from
    normal random numbers when rng is given."""
    r = math.hypot(*y)
    t_star = math.sqrt(tau * tau + r * r)
    t_levels = t_star + np.linspace(-0.12, 0.08, nt)
    x_axes = tuple(yd + np.linspace(-0.3, 0.3, nx) for yd in y)
    v_axis = np.linspace(-2.0, 2.0, nv)
    fshape, pshape = (nt, nx, nx, nv, nv), (nt, nx, nx)
    if rng is not None:
        f, phi = rng.normal(size=fshape), rng.normal(size=pshape)
    else:
        T, X1, X2, V1, V2 = np.meshgrid(t_levels, *x_axes, v_axis, v_axis,
                                        indexing="ij", sparse=True)
        f = np.broadcast_to(f_fn(T, X1, X2, V1, V2), fshape).copy()
        phi = np.broadcast_to(phi_fn(T[..., 0, 0], X1[..., 0, 0],
                                     X2[..., 0, 0]), pshape).copy()
    return NodeSample(tau, y, r, t_star, 1.0, t_levels, x_axes,
                      (v_axis, v_axis), f, phi)


def _sym_apply(g, expr, t, xs, vs, lifted):
    """Generator g (or its complete lift) applied to a sympy expression."""
    import sympy as sp
    if g.kind == DT:
        return sp.diff(expr, t)
    if g.kind == DX:
        return sp.diff(expr, xs[g.i - 1])
    if g.kind == BOOST:
        x, v = xs[g.i - 1], vs[g.i - 1]
        out = t * sp.diff(expr, x) + x * sp.diff(expr, t)
        v0 = sp.sqrt(1 + sum(w ** 2 for w in vs))
        return out + v0 * sp.diff(expr, v) if lifted else out
    assert g.kind == ROT
    (xi, xj), (vi, vj) = (xs[g.i - 1], xs[g.j - 1]), (vs[g.i - 1], vs[g.j - 1])
    out = xi * sp.diff(expr, xj) - xj * sp.diff(expr, xi)
    return out + vi * sp.diff(expr, vj) - vj * sp.diff(expr, vi) \
        if lifted else out


@pytest.mark.parametrize("order", [1, 2])
def test_evaluate_node_n2_matches_analytic_derivatives(order):
    # Order 1: f is quadratic in every axis, so each first-order profile is
    # exact: differences are exact on quadratics, and multiplying by a
    # coordinate leaves a cubic that the cubic interpolation reproduces.
    # phi has total degree 2 (plus t x1 x2), so Z phi is still quadratic in
    # every axis and its first derivatives at the node are exact too.
    # Order 2: f and phi are affine in each of t, x1 and x2 and f is affine
    # in v, so every per-axis word of at most two letters is exact (cubic
    # at worst before the interpolation), and so are the rotation's
    # velocity parts, which keep f affine in v; the boost's v0 does not.
    import sympy as sp
    t, x1, x2, v1, v2 = sp.symbols("t x1 x2 v1 v2")
    xs, vs = (x1, x2), (v1, v2)
    if order == 1:
        f = (t ** 2 * x1 * v2 ** 2 + x1 ** 2 * x2 * v1
             + t * x2 ** 2 * v1 * v2 + v1 ** 2 + 1)
        phi = (t ** 2 + x1 * x2 - t * x1 + 2 * x2 ** 2 + t * x2 / 2
               + t * x1 * x2 + x1)
    else:
        f = (t * x1 * x2 * v1 + (t + 2 * x1) * v2 + x1 * x2 - t * x2
             + 3)
        phi = (t * x1 * x2 + 2 * t * x1 - x1 * x2 + t * x2 / 2 + x1
               - 3 * x2 + t + 1)
    node = make_node2(f_fn=sp.lambdify((t, x1, x2, v1, v2), f, "numpy"),
                      phi_fn=sp.lambdify((t, x1, x2), phi, "numpy"))
    q = evaluate_single(node, order)
    at = {t: node.t_star, x1: node.y[0], x2: node.y[1]}
    V1, V2 = np.meshgrid(*node.v_axes, indexing="ij")
    checked = 0
    for A in multi_indices_up_to(2, order):
        zf, zphi = f, phi
        for g in reversed(A):
            zf = _sym_apply(g, zf, t, xs, vs, True)
            zphi = _sym_apply(g, zphi, t, xs, vs, False)
        assert abs(q.phi[A][0] - float(zphi.subs(at))) < 1e-9
        if order == 1 or all(g.kind != BOOST for g in A):
            prof = sp.lambdify((v1, v2), zf.subs(at), "numpy")
            assert np.allclose(q.f[A][0], prof(V1, V2), rtol=0, atol=1e-9)
            checked += 1
        if order == 1:
            assert abs(q.phi_dt[A][0]
                       - float(sp.diff(zphi, t).subs(at))) < 1e-9
            for d in range(2):
                exact = float(sp.diff(zphi, xs[d]).subs(at))
                assert abs(q.phi_grad[A][0, d] - exact) < 1e-9
    assert checked == {1: 7, 2: 21}[order]
    assert {(Generator(BOOST, 1),), (Generator(BOOST, 2),),
            (Generator(ROT, 1, 2),)} <= set(q.f)


def random_slice(n: int, count: int, seed: int = 3,
                 tau: float = 3.0) -> SliceData:
    rng = np.random.default_rng(seed)
    nodes = []
    for k in range(count):
        if n == 1:
            node = make_node(tau=tau, y=-1.5 + 0.4 * k, nv=16)
            node.fblock[...] = rng.normal(size=node.fblock.shape)
            node.phiblock[...] = rng.normal(size=node.phiblock.shape)
        else:
            node = make_node2(tau=tau, y=(-1.0 + 0.3 * k, 0.2 * k), nv=4,
                              rng=rng)
        nodes.append(node)
    return SliceData(tau, n, nodes, 0.25)


# The per-node construction that _gradient_matrices and _interp_weights
# replaced: np.gradient on an identity matrix and a Lagrange loop per node
# and axis.  They must match it bit for bit.

def _reference_interp_weights(coords: np.ndarray, target: float) -> np.ndarray:
    b = int(np.searchsorted(coords, target)) - 1
    lo = min(max(b - 1, 0), len(coords) - 4)
    w = np.zeros(len(coords))
    for k in range(lo, lo + 4):
        w[k] = 1.0
        for j in range(lo, lo + 4):
            if j != k:
                w[k] *= (target - coords[j]) / (coords[k] - coords[j])
    return w


def test_stack_matches_per_node_reference():
    """The difference matrices and interpolation weights of a stack, on
    slices of nodes as captured and on coordinates with uneven, almost
    even and exactly even spacings (np.gradient's scalar-spacing branch),
    mixed in one stack, with targets on and between the points."""
    rng = np.random.default_rng(11)
    cases = []
    for n, count in ((1, 7), (2, 5)):
        nodes = random_slice(n, count).nodes
        cases.append((np.array([nd.t_levels for nd in nodes]),
                      np.array([nd.t_star for nd in nodes])))
        cases += [(np.array([nd.x_axes[d] for nd in nodes]),
                   np.array([nd.y[d] for nd in nodes])) for d in range(n)]
    for m in (3, 4, 6, 13):
        steps = np.arange(m) * rng.uniform(0.05, 2.0, size=(200, 1))
        d = np.diff(steps, axis=1)
        even = steps[np.all(d == d[:, :1], axis=1)][:8]
        assert len(even) == 8
        coords = np.concatenate([
            np.sort(rng.normal(size=(3, m)), axis=1),
            rng.normal(size=(3, 1)) + (np.arange(m) + 0.5) * 0.1, even])
        targets = coords[:, 0] + rng.random(len(coords)) * (
            coords[:, -1] - coords[:, 0])
        targets[::4] = coords[::4, m // 2]
        cases.append((coords, targets))
    for coords, targets in cases:
        m = coords.shape[1]
        G = energies._gradient_matrices(coords)
        want = np.array([np.gradient(np.eye(m), c, axis=0, edge_order=2)
                         for c in coords])
        assert np.array_equal(G.view(np.int64), want.view(np.int64))
        if m >= 4:
            w = energies._interp_weights(coords, targets)
            want = np.array([_reference_interp_weights(c, t)
                             for c, t in zip(coords, targets)])
            assert np.array_equal(w.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n,count,order,per", [(1, 7, 2, 3), (2, 5, 2, 2)])
def test_stacked_slice_matches_single_nodes(n, count, order, per,
                                            monkeypatch):
    data = random_slice(n, count)
    monkeypatch.setattr(energies, "STACK_CELLS",
                        per * data.nodes[0].fblock.size + 1)
    stacks = []
    f_stack = energies._f_stack

    def spy(nodes, *args):
        stacks.append(len(nodes))
        return f_stack(nodes, *args)

    monkeypatch.setattr(energies, "_f_stack", spy)
    sq = evaluate_slice(data, order)
    # full stacks and a one-node remainder
    assert stacks == [per] * (count // per) + [count % per]
    alone = [evaluate_single(nd, order) for nd in data.nodes]
    for field in ("f", "phi", "phi_dt", "phi_grad"):
        for A in multi_indices_up_to(n, order):
            got = getattr(sq, field)[A]
            want = np.concatenate([getattr(q, field)[A] for q in alone])
            assert got.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (field, A)


@pytest.mark.parametrize("n,count,order", [(1, 1, 2), (1, 3, 2),
                                           (2, 1, 2), (2, 2, 1)])
def test_stack_profiles_keep_no_basis_alive(n, count, order):
    """Every velocity profile of a stack owns its memory: none is a view
    of the larger contracted basis, which would stay alive with it until
    evaluate_slice concatenates the stacks."""
    nodes = random_slice(n, count).nodes
    rows, terms = energies._weight_rows(nodes, {
        A: energies._expansion(A, n) for A in multi_indices_up_to(n, order)})
    profiles = energies._f_stack(nodes, rows, terms)
    assert set(profiles) == set(multi_indices_up_to(n, order))
    for A, p in profiles.items():
        base = p
        while base.base is not None:
            base = base.base
        assert base.nbytes == p.nbytes, A


@pytest.mark.parametrize("n,count", [(1, 7), (2, 5)])
def test_slice_energies_independent_of_block_layout(n, count):
    # captured blocks are strided views of a shared block, and a caller
    # may lay a block out in any order; the energies must not move by
    # even one ulp
    data = random_slice(n, count)
    fortran = SliceData(data.tau, n, [
        dataclasses.replace(nd, fblock=np.asfortranarray(nd.fblock),
                            phiblock=np.asfortranarray(nd.phiblock))
        for nd in data.nodes], data.dv)
    assert not fortran.nodes[0].fblock.flags.c_contiguous
    want = energy_report(evaluate_slice(data, 2), 2)
    got = energy_report(evaluate_slice(fortran, 2), 2)
    for field in ("breakdown_phi", "breakdown_f", "breakdown_fw"):
        assert getattr(got, field) == getattr(want, field), field


# ---------------------------------------------------------------------------
# densities and lower bounds
# ---------------------------------------------------------------------------

def test_vlasov_energy_density_even_profile():
    # for even f the v.x term integrates to zero on the symmetric grid,
    # leaving (t/tau) int v0 f dv
    node = make_node()
    v = node.v_axes[0]
    dv = v[1] - v[0]
    f = np.exp(-v ** 2)
    got = vlasov_energy_density(node_quantities(node, dv), f[None])[0]
    expect = node.t_star / node.tau * np.sum(np.sqrt(1 + v ** 2) * f) * dv
    assert abs(got - expect) < 1e-13


def test_velocity_moments_ordering():
    node = make_node()
    v = node.v_axes[0]
    f = np.exp(-v ** 2)
    sq = node_quantities(node, v[1] - v[0])
    m1, m_inv, m_w = (m[0] for m in velocity_moments(sq, f[None]))
    assert m_inv <= m1 <= m_w


node_geometries = st.tuples(st.floats(0.5, 20.0), st.floats(-8.0, 8.0))


@settings(max_examples=60, deadline=None)
@given(geom=node_geometries,
       data=st.lists(st.floats(0.0, 10.0), min_size=24, max_size=24))
def test_vlasov_lower_bound_slacks_nonnegative(geom, data):
    tau, y = geom
    node = make_node(tau=tau, y=y)
    f = np.asarray(data)
    dv = node.v_axes[0][1] - node.v_axes[0][0]
    sq = node_quantities(node, dv)
    s1, s2, s3 = (s[0] for s in vlasov_lower_bound_slacks(sq, f[None]))
    assert s1 > -1e-12 and s2 > -1e-12 and s3 > -1e-12


@settings(max_examples=60, deadline=None)
@given(geom=node_geometries, phi=st.floats(-3, 3), dtphi=st.floats(-3, 3),
       gx=st.floats(-3, 3))
def test_kg_density_decomposes_into_bound_plus_squares(geom, phi, dtphi, gx):
    """e(phi) equals (t/2tau) phi^2 + (tau/2(t+r)) |dphi|^2 plus the
    sum-of-squares slack, making the lower bound an identity."""
    tau, y = geom
    node = make_node(tau=tau, y=y)
    t, r = node.t_star, node.r
    sq = node_quantities(node, 0.25, phi=phi, dtphi=dtphi, grad=(gx,))
    e = kg_energy_density(sq)[0]
    slack = kg_lower_bound_slack(sq)[0]
    bound = (t / (2 * tau)) * phi ** 2 \
        + (tau / (2 * (t + r))) * (dtphi ** 2 + gx ** 2)
    assert slack >= 0.0
    assert abs(e - (bound + slack)) < 1e-10 * max(abs(e), 1.0)


def test_kg_density_nonnegative_n2():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tau = rng.uniform(0.5, 10)
        y = tuple(rng.uniform(-5, 5, size=2))
        r = math.hypot(*y)
        node = NodeSample(tau, y, r, math.sqrt(tau ** 2 + r ** 2), 1.0,
                          np.zeros(6), (np.zeros(9), np.zeros(9)),
                          (np.zeros(4), np.zeros(4)),
                          np.zeros((6, 9, 9, 4, 4)), np.zeros((6, 9, 9)))
        phi, dtphi = rng.normal(size=2)
        grad = tuple(rng.normal(size=2))
        sq = node_quantities(node, 0.25, phi=phi, dtphi=dtphi, grad=grad)
        e = kg_energy_density(sq)[0]
        slack = kg_lower_bound_slack(sq)[0]
        assert e >= -1e-12
        assert slack >= -1e-12


# ---------------------------------------------------------------------------
# reports on real runs
# ---------------------------------------------------------------------------

BASE = SimConfig(n=1, mode="free_transport", x_extent=14.0, nx=280, vmax=2.0,
                 nv=48, dt=0.04, t0=2.0, t_end=7.0, epsilon=1e-3,
                 taus=(3.0, 5.0), rmax=4.0, slice_resolution=16,
                 f_width_x=0.5, f_width_v=0.3)


@pytest.fixture(scope="module")
def transport_slices():
    res = run(BASE)
    return [evaluate_slice(res.slices[tau], 2) for tau in BASE.taus]


def test_density_samples_slacks_nonnegative(transport_slices):
    for sq in transport_slices:
        for s in density_samples(sq):
            assert min(s.slacks_f) > -1e-15
            assert s.slack_kg > -1e-15
            assert s.ehat > -1e-15


def test_energy_hierarchy_monotone_in_order(transport_slices):
    sq = transport_slices[0]
    reps = [energy_report(sq, k) for k in (0, 1, 2)]
    for a, b in zip(reps, reps[1:]):
        assert b.Ehat_N_f >= a.Ehat_N_f - 1e-15
        assert b.E_N_phi >= a.E_N_phi - 1e-15
        assert b.Ehat_N1_f >= b.Ehat_N_f - 1e-15  # v0 weight only adds


@pytest.mark.parametrize("n", [1, 2])
def test_evaluate_node_matches_whole_block_route(n):
    # reference: build Z_A on the whole block, then interpolate it, for
    # every index up to order 2 on random data; evaluate_slice contracts
    # per-axis weight rows of the multiplied-out index instead, which
    # reorders the roundoff only
    node = random_slice(n, 1).nodes[0]
    q = evaluate_single(node, 2)
    for A in multi_indices_up_to(n, 2):
        fb = block_apply_multi(A, node.fblock, node, n, True)
        want = node_value(fb, node, n)
        assert np.max(np.abs(q.f[A][0] - want)) \
            <= 1e-13 * np.max(np.abs(want)), A
        pb = block_apply_multi(A, node.phiblock, node, n, False)
        derivs = [Generator(DT)] + [Generator(DX, d) for d in range(1, n + 1)]
        want = [float(node_value(pb, node, n))] + [
            float(node_value(block_apply(g, pb, node, n, False), node, n))
            for g in derivs]
        got = [q.phi[A][0], q.phi_dt[A][0], *q.phi_grad[A][0]]
        assert np.allclose(got, want, rtol=0, atol=1e-13 * max(map(abs, want)))


def test_report_breakdown_sums(transport_slices):
    rep = energy_report(transport_slices[0], 2)
    assert abs(rep.E_N_phi - sum(rep.breakdown_phi.values())) < 1e-14
    assert abs(rep.Ehat_N_f - sum(rep.breakdown_f.values())) < 1e-14
    assert set(rep.breakdown_f) == set(multi_indices_up_to(1, 2))


# ---------------------------------------------------------------------------
# node-by-node references: the per-node loops that the stacked densities,
# energy report and balance slack replaced, on rows of the stacked arrays
# with Python floats; the stacked code must equal them exactly
# ---------------------------------------------------------------------------

def node_rows(sq):
    """(k, t, y, r) of every node, as Python floats."""
    return zip(range(len(sq.t)), sq.t.tolist(), map(tuple, sq.y.tolist()),
               sq.r.tolist())


def node_phi(sq, A, k):
    """(Z_A phi, d_t Z_A phi, grad Z_A phi) at node k, as Python floats."""
    return (sq.phi[A].tolist()[k], sq.phi_dt[A].tolist()[k],
            tuple(sq.phi_grad[A][k].tolist()))


def ref_vgrids(sq):
    return tuple(np.meshgrid(*sq.v_axes, indexing="ij"))


def ref_vlasov_energy_density(fprofile, t, y, sq):
    vg = ref_vgrids(sq)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    vdotx = sum(vg[d] * y[d] for d in range(sq.n))
    w = (v0 * t - vdotx) / sq.tau
    return float(np.sum(w * fprofile)) * sq.dv ** sq.n


def ref_velocity_moments(fprofile, sq):
    vg = ref_vgrids(sq)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    a = np.abs(fprofile)
    s = sq.dv ** sq.n
    return (float(np.sum(a)) * s, float(np.sum(a / v0)) * s,
            float(np.sum(v0 * a)) * s)


def ref_vlasov_lower_bound_slacks(fprofile, t, y, r, sq):
    vg = ref_vgrids(sq)
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    vdotx = sum(vg[d] * y[d] for d in range(sq.n))
    tau = sq.tau
    w = (v0 * t - vdotx) / tau
    a = np.abs(fprofile)
    s = sq.dv ** sq.n
    s1 = float(np.sum((w - t / (2 * tau * v0)) * a)) * s
    s2 = float(np.sum((w - tau * v0 / (2 * (t + r))) * a)) * s
    s3 = float(np.sum((w - 1.0) * a)) * s
    return s1, s2, s3


def ref_kg_energy_density(phi, dtphi, gradphi, t, y, r, sq):
    tau, n = sq.tau, sq.n
    g2 = sum(g ** 2 for g in gradphi)
    drphi = sum(gradphi[d] * y[d] for d in range(n)) / r if r > 0 else 0.0
    return (t / (2 * tau)) * (dtphi ** 2 + g2 + phi ** 2) \
        + (r / tau) * dtphi * drphi


def ref_kg_lower_bound_slack(phi, dtphi, gradphi, t, y, r, sq):
    tau, n = sq.tau, sq.n
    if r > 0:
        drphi = sum(gradphi[d] * y[d] for d in range(n)) / r
    else:
        drphi = 0.0
    if n == 1:
        trans2 = 0.0
    else:
        trans2 = ((y[0] * gradphi[1] - y[1] * gradphi[0]) / r) ** 2 \
            if r > 0 else sum(g ** 2 for g in gradphi)
    return (r / (2 * tau)) * (dtphi + drphi) ** 2 + (r / (2 * tau)) * trans2


def ref_density_samples(sq):
    out = []
    for k, t, y, r in node_rows(sq):
        f = sq.f[()][k]
        phi = node_phi(sq, (), k)
        out.append(DensitySample(
            sq.tau, t, y, ref_vlasov_energy_density(np.abs(f), t, y, sq),
            ref_kg_energy_density(*phi, t, y, r, sq),
            ref_velocity_moments(f, sq),
            ref_vlasov_lower_bound_slacks(f, t, y, r, sq),
            ref_kg_lower_bound_slack(*phi, t, y, r, sq)))
    return out


def ref_energy_report(sq, order):
    """energy_report as a loop over the nodes, one density call each."""

    def ehat_integral(A, weight_v0):
        vals = []
        for k, t, y, _ in node_rows(sq):
            prof = np.abs(sq.f[A][k])
            if weight_v0:
                vg = ref_vgrids(sq)
                prof = prof * np.sqrt(1.0 + sum(v ** 2 for v in vg))
            vals.append(ref_vlasov_energy_density(prof, t, y, sq))
        return sq.integrate(np.array(vals))

    phi, f, fw = {}, {}, {}
    for A in multi_indices_up_to(sq.n, order):
        evals = [ref_kg_energy_density(*node_phi(sq, A, k), t, y, r, sq)
                 for k, t, y, r in node_rows(sq)]
        phi[A] = sq.integrate(np.array(evals))
        f[A] = ehat_integral(A, weight_v0=False)
        fw[A] = ehat_integral(A, weight_v0=True) \
            if len(A) <= order // 2 else f[A]
    return energies.EnergyReport(sq.tau, order, sum(phi.values()),
                                 sum(f.values()), sum(fw.values()),
                                 phi, f, fw)


def ref_vlasov_energy_inequality_slack(slices, reports, A):
    taus = [sq.tau for sq in slices]
    E = [rep.breakdown_f[A] for rep in reports]
    n = slices[0].n
    rhs = derive_commuted_vlasov(A, n) if A else None
    flux = []
    for sq in slices:
        vals = np.zeros(len(sq.t))
        for k, t, y, _ in node_rows(sq):
            gp = node_phi(sq, (), k)[2]
            gnorm = math.sqrt(sum(g ** 2 for g in gp))
            intf = float(np.sum(np.abs(sq.f[A][k]))) * sq.dv ** n
            acc = gnorm * intf
            if rhs is not None:
                vg = ref_vgrids(sq)
                vstack = np.stack([v.ravel() for v in vg], axis=-1)
                h = np.zeros_like(sq.f[A][k])
                for tm in rhs.terms:
                    coeff = tm.coeff.evaluate(
                        np.full(len(vstack), t),
                        np.broadcast_to(np.asarray(y), (len(vstack), n)),
                        vstack).reshape(vg[0].shape)
                    _, dt, grad = node_phi(sq, tm.B, k)
                    dphi = dt if tm.mu == 0 else grad[tm.mu - 1]
                    h = h + coeff * dphi * sq.f[tm.C][k]
                acc += float(np.sum(np.abs(h))) * sq.dv ** n
            vals[k] = acc
        flux.append(sq.integrate(vals))
    integral = float(np.trapezoid(np.array(flux), taus))
    return E[0] + integral - E[-1]


def one_node_slices(n: int, count: int, seed: int = 5,
                    hard_f: bool = False):
    """count one-node slices of order-0 node values.  The phi values, time
    derivatives and gradients are numbers x with x ** 2 != x * x (Python's
    float ** 2 is pow, not a product) as far as the platform's pow has
    them, and with one node per slice one ulp of a node's density shows
    in the slice's integrals.  With hard_f the f profile is one such
    number at one velocity and zero elsewhere, so int |f| dv is one too
    (dv = 0.25 scales it by a power of two)."""
    rng = np.random.default_rng(seed)
    hard = iter(sorted(rng.normal(size=1_000_000).tolist(),
                       key=lambda x: x ** 2 == x * x))
    out = []
    for _ in range(count):
        y = tuple(rng.uniform(-4.0, 4.0, size=n).tolist())
        node = make_node(y=y[0], nv=4) if n == 1 \
            else make_node2(y=y, nv=4, rng=rng)
        f = rng.normal(size=(4,) * n)
        if hard_f:
            f = np.zeros_like(f)
            f.flat[rng.integers(f.size)] = next(hard)
        out.append(node_quantities(
            node, 0.25, f=f, phi=next(hard), dtphi=next(hard),
            grad=tuple(next(hard) for _ in range(n))))
    return out


def reference_slices(n, count, transport_slices):
    """Random stacks over more than one STACK_CELLS chunk, and at n = 1
    the transport run's slices, with the r = 0 node."""
    data = random_slice(n, count)
    assert len(data.nodes) * data.nodes[0].fblock.size > energies.STACK_CELLS
    slices = [evaluate_slice(data, 2),
              evaluate_slice(random_slice(n, count, seed=4, tau=4.0), 2)]
    return slices + (transport_slices if n == 1 else [])


@pytest.mark.parametrize("n,count", [(1, 40), (2, 5)])
def test_energy_report_equals_node_loop(n, count, transport_slices):
    for sq in reference_slices(n, count, transport_slices):
        for order in (1, 2):
            assert energy_report(sq, order) == ref_energy_report(sq, order)
    for sq in one_node_slices(n, 100):
        assert energy_report(sq, 0) == ref_energy_report(sq, 0)


@pytest.mark.parametrize("n,count", [(1, 40), (2, 5)])
def test_density_samples_equal_node_loop(n, count, transport_slices):
    for sq in reference_slices(n, count, transport_slices) \
            + one_node_slices(n, 100):
        assert density_samples(sq) == ref_density_samples(sq)


@pytest.mark.parametrize("n,count", [(1, 40), (2, 5)])
def test_inequality_slack_equals_node_loop(n, count, transport_slices):
    slices = reference_slices(n, count, transport_slices)
    pairs = [slices[:2]] + ([slices[2:]] if n == 1 else [])
    for pair in pairs:
        reps = [energy_report(sq, 1) for sq in pair]
        for A in ((), (Generator(BOOST, 1),)):
            assert vlasov_energy_inequality_slack(pair, reps, A) \
                == ref_vlasov_energy_inequality_slack(pair, reps, A)


def test_kinetic_energy_linear_in_amplitude():
    res1 = run(dataclasses.replace(BASE, taus=(3.0,), t_end=5.2,
                                   f_amplitude=1e-3))
    res2 = run(dataclasses.replace(BASE, taus=(3.0,), t_end=5.2,
                                   f_amplitude=2e-3))
    r1 = energy_report(evaluate_slice(res1.slices[3.0], 1), 1)
    r2 = energy_report(evaluate_slice(res2.slices[3.0], 1), 1)
    assert r2.Ehat_N_f == pytest.approx(2 * r1.Ehat_N_f, rel=1e-10)


def test_field_energy_quadratic_in_amplitude():
    cfg = SimConfig(n=1, mode="free_kg", x_extent=14.0, nx=280, vmax=1.0,
                    nv=8, dt=0.04, t0=2.0, t_end=5.2, taus=(3.0,), rmax=4.0,
                    slice_resolution=16, phi_width=0.5, phi_amplitude=1e-3)
    res1 = run(cfg)
    res2 = run(dataclasses.replace(cfg, phi_amplitude=2e-3))
    r1 = energy_report(evaluate_slice(res1.slices[3.0], 1), 1)
    r2 = energy_report(evaluate_slice(res2.slices[3.0], 1), 1)
    assert r2.E_N_phi == pytest.approx(4 * r1.E_N_phi, rel=1e-10)


def test_free_transport_inequality_slack(transport_slices):
    reps = [energy_report(sq, 1) for sq in transport_slices]
    for A in multi_indices_up_to(1, 1):
        slack = vlasov_energy_inequality_slack(transport_slices, reps, A)
        scale = max(rep.breakdown_f[A] for rep in reps)
        # negative slack at the scheme-error scale is discretization noise;
        # a genuine violation would be O(scale)
        assert slack > -1e-2 * scale


def test_zero_data_zero_report():
    cfg = dataclasses.replace(BASE, f_amplitude=0.0, taus=(3.0,),
                              t_end=5.2)
    res = run(cfg)
    rep = energy_report(evaluate_slice(res.slices[3.0], 2), 2)
    assert rep.Ehat_N_f == 0.0 and rep.E_N_phi == 0.0


def test_report_serialization(transport_slices):
    reps = [energy_report(sq, 1) for sq in transport_slices]
    text = report.energies_csv(reps)
    lines = text.strip().split("\n")
    assert lines[0].startswith("tau,order,multi_index")
    assert len(lines) == 1 + 2 * len(multi_indices_up_to(1, 1))
    doc = report.energies_json(reps)
    assert '"tau"' in doc and report.energies_json(reps) == doc
