"""Finite-difference application of generators to callables on phase space.

Functions here operate on batched point arrays with columns
(t, x^1..x^n, v^1..v^n) and apply plain or lifted generators by central
differences, so symbolic derivations can be checked against arbitrary
smooth test functions; free transport is the phi = None case of the
commuted transport check, the moment exchange at weight (v^0)^-k is
the order-1 commuted velocity average of f/(v^0)^k, and every velocity
average is one `velocity_integrals` sum per (t, x) row over a
`trapezoid_grid`.
Residuals come with a Richardson refinement study: halving the step
must shrink a genuine O(h^2) error by about 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import Generator
from .commuted import (CommutedKGRHS, CommutedVlasovRHS, MultiIndex,
                       derive_commuted_kg, derive_commuted_vlasov)

PointFunc = Callable[[np.ndarray], np.ndarray]
# signature: pts (m, 1 + 2n) -> values (m,)


def _dim_n(pts: np.ndarray) -> int:
    n2 = pts.shape[1] - 1
    assert n2 % 2 == 0
    return n2 // 2


def partial(func: PointFunc, col: int, h: float) -> PointFunc:
    def d(pts):
        plus = pts.copy()
        plus[:, col] += h
        minus = pts.copy()
        minus[:, col] -= h
        return (func(plus) - func(minus)) / (2 * h)

    return d


def apply_generator(func: PointFunc, g: Generator, h: float,
                    lifted: bool) -> PointFunc:
    """Central-difference action of Z_g (or the complete lift Zhat_g)."""

    def act(pts):
        pts = np.asarray(pts, dtype=float)
        out = None
        for sign, c, a in g.terms:
            term = partial(func, a, h)(pts)
            if c is not None:
                term = pts[:, c] * term
            out = term if out is None else out + sign * term
        if lifted and g.lift:
            n = _dim_n(pts)
            v = pts[:, 1 + n:]
            factors = [np.sqrt(1.0 + np.sum(v * v, axis=1)), *v.T]
            vpart = None
            for sign, k, d in g.lift:
                term = factors[k] * partial(func, n + d, h)(pts)
                vpart = term if vpart is None else vpart + sign * term
            out = out + vpart
        return out

    return act


def apply_multi_index(func: PointFunc, A: MultiIndex, h: float,
                      lifted: bool) -> PointFunc:
    for g in reversed(A):
        func = apply_generator(func, g, h, lifted)
    return func


def transport_apply(func: PointFunc, phi: PointFunc | None,
                    h: float) -> PointFunc:
    """T_phi f = v^0 d_t f + v . grad_x f - v^0 grad_x(phi) . grad_v f.

    phi takes (t, x) columns only; None means free transport.
    """

    def act(pts):
        pts = np.asarray(pts, dtype=float)
        n = _dim_n(pts)
        v = pts[:, 1 + n:]
        v0 = np.sqrt(1.0 + np.sum(v * v, axis=1))
        out = v0 * partial(func, 0, h)(pts)
        for k in range(1, n + 1):
            out = out + v[:, k - 1] * partial(func, k, h)(pts)
        if phi is not None:
            tx = pts[:, :1 + n]
            for k in range(1, n + 1):
                gphi = partial(phi, k, h)(tx)
                out = out - v0 * gphi * partial(func, n + k, h)(pts)
        return out

    return act


@dataclass(frozen=True)
class RefinementStudy:
    """Residual magnitudes at steps h and h/2 with the contraction ratio."""

    coarse: float
    fine: float
    ratio: float
    floor: float

    @property
    def vanishes(self) -> bool:
        """True when both residuals sit at the roundoff floor."""
        return self.coarse <= self.floor and self.fine <= self.floor

    @property
    def second_order(self) -> bool:
        return self.vanishes or self.ratio >= 2.5


def refinement_study(residual: Callable[[float], np.ndarray], h: float,
                     floor: float = 1e-9) -> RefinementStudy:
    rc = float(np.max(np.abs(residual(h))))
    rf = float(np.max(np.abs(residual(h / 2))))
    ratio = rc / rf if rf > 0 else np.inf
    return RefinementStudy(rc, rf, ratio, floor)


def evaluate_vlasov_rhs(rhs: CommutedVlasovRHS, func: PointFunc,
                        phi: PointFunc, pts: np.ndarray,
                        h: float) -> np.ndarray:
    """Numeric value of the derived commutator expression at the points."""
    pts = np.asarray(pts, dtype=float)
    n = rhs.n
    t = pts[:, 0]
    x = pts[:, 1:1 + n]
    v = pts[:, 1 + n:]
    tx = pts[:, :1 + n]
    total = np.zeros(len(pts))
    cache_f: dict[MultiIndex, np.ndarray] = {}
    cache_phi: dict[tuple[int, MultiIndex], np.ndarray] = {}
    for tm in rhs.terms:
        key = (tm.mu, tm.B)
        if key not in cache_phi:
            zb = apply_multi_index(phi, tm.B, h, False)
            cache_phi[key] = partial(zb, tm.mu, h)(tx)
        if tm.C not in cache_f:
            cache_f[tm.C] = apply_multi_index(func, tm.C, h, True)(pts)
        total = total + (tm.coeff.evaluate(t, x, v)
                         * cache_phi[key] * cache_f[tm.C])
    return total


def verify_commuted_vlasov(A: MultiIndex, n: int, func: PointFunc,
                           phi: PointFunc | None, pts: np.ndarray,
                           h: float = 1e-3,
                           floor: float = 1e-9) -> RefinementStudy:
    """FD check of [T_phi, Zhat_A] f against the derived RHS; phi None
    is free transport, whose commutator [T, Zhat_A] vanishes."""
    rhs = None if phi is None else derive_commuted_vlasov(A, n)

    def residual(step):
        lhs_f = transport_apply(apply_multi_index(func, A, step, True), phi, step)
        rhs_f = apply_multi_index(transport_apply(func, phi, step), A, step, True)
        lhs = lhs_f(pts) - rhs_f(pts)
        return lhs if rhs is None else \
            lhs - evaluate_vlasov_rhs(rhs, func, phi, pts, step)

    return refinement_study(residual, h, floor)


def velocity_integrals(integrand: PointFunc, tx: np.ndarray,
                       vgrid: np.ndarray) -> np.ndarray:
    """Per (t, x) row of tx, the sum of integrand over the phase-space
    points (t, x, v) at every velocity node v; the integrand carries the
    quadrature weights."""
    out = np.zeros(len(tx))
    for j, txj in enumerate(tx):
        pts = np.column_stack([np.tile(txj, (len(vgrid), 1)), vgrid])
        out[j] = float(np.sum(integrand(pts)))
    return out


def trapezoid_grid(n: int, vmax: float, m: int):
    """Velocity tensor grid and trapezoid weights for moment integrals."""
    axis = np.linspace(-vmax, vmax, m)
    w1 = np.full(m, axis[1] - axis[0])
    w1[0] *= 0.5
    w1[-1] *= 0.5
    pts = np.meshgrid(*[axis] * n, indexing="ij")
    weights = np.meshgrid(*[w1] * n, indexing="ij")
    return (np.column_stack([p.ravel() for p in pts]),
            np.prod(weights, axis=0).ravel())


def evaluate_kg_rhs(rhs: CommutedKGRHS, func: PointFunc, tx: np.ndarray,
                    vgrid: np.ndarray, vweights: np.ndarray,
                    h: float) -> np.ndarray:
    """Numeric value of the derived moment expression at (t, x) points."""
    total = np.zeros(len(tx))
    for tm in rhs.terms:
        zf = apply_multi_index(func, tm.B, h, True)
        w = vweights * tm.coeff.evaluate(vgrid)
        total += velocity_integrals(lambda p: w * zf(p), tx, vgrid)
    return total


def verify_commuted_kg(A: MultiIndex, n: int, func: PointFunc,
                       tx: np.ndarray, vmax: float = 8.0, m: int = 161,
                       h: float = 1e-3, floor: float = 1e-8) -> RefinementStudy:
    """FD check of Z_A int f dv against the derived moment expression.

    The test function must decay fast enough that the velocity grid
    truncation is below the floor.
    """
    rhs = derive_commuted_kg(A, n)
    vgrid, vw = trapezoid_grid(n, vmax, m)

    def rho(txp):
        return velocity_integrals(lambda p: vw * func(p), txp, vgrid)

    def residual(step):
        lhs = apply_multi_index(rho, A, step, False)(tx)
        return lhs - evaluate_kg_rhs(rhs, func, tx, vgrid, vw, step)

    return refinement_study(residual, h, floor)


def gaussian_test_function(n: int, seed: int = 0) -> PointFunc:
    """Smooth anisotropic Gaussian in (t, x, v) for commutation checks."""
    rng = np.random.default_rng(seed)
    d = 1 + 2 * n
    center = rng.uniform(-0.3, 0.3, size=d)
    center[0] += 3.0
    scales = rng.uniform(0.6, 1.4, size=d)

    def f(pts):
        z = (np.asarray(pts, dtype=float) - center) / scales
        return np.exp(-0.5 * np.sum(z * z, axis=1))

    return f


def gaussian_field(n: int, seed: int = 1) -> PointFunc:
    """Smooth localized field phi(t, x) for perturbed transport checks."""
    rng = np.random.default_rng(seed)
    d = 1 + n
    center = rng.uniform(-0.3, 0.3, size=d)
    center[0] += 3.0
    scales = rng.uniform(0.8, 1.6, size=d)
    amp = rng.uniform(0.5, 1.0)

    def phi(tx):
        z = (np.asarray(tx, dtype=float) - center) / scales
        return amp * np.exp(-0.5 * np.sum(z * z, axis=1))

    return phi


def sample_points(n: int, m: int = 40, seed: int = 2) -> np.ndarray:
    """Generic interior sample points with t around 3 and |v| moderate."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(2.5, 3.5, size=(m, 1))
    x = rng.uniform(-0.8, 0.8, size=(m, n))
    v = rng.uniform(-0.9, 0.9, size=(m, n))
    return np.column_stack([t, x, v])
