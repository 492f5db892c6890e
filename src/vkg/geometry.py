"""Hyperboloidal foliation of Minkowski space.

The region t >= sqrt(1 + |x|^2) is sliced by hyperboloids
H_tau = {t^2 - |x|^2 = tau^2}.  This module provides the coordinate
maps between Cartesian (t, x) and pseudo-Cartesian (tau, y) systems,
slice quadratures carrying the induced volume form
(tau/t) r^{n-1} dr dsigma, unit normals, and the derivative operator
of the pseudo-Cartesian spatial coordinates.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class FoliationDomainError(ValueError):
    """Point lies outside the region covered by the hyperboloids."""


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    x: tuple[float, ...]

    @property
    def r(self) -> float:
        return math.sqrt(sum(c * c for c in self.x))


@dataclass(frozen=True)
class HyperboloidCoords:
    tau: float
    y: tuple[float, ...]


def tau_of(p: SpacetimePoint) -> float:
    """Hyperboloidal time sqrt(t^2 - |x|^2) of a point with t >= |x|."""
    r = p.r
    if p.t < r:
        raise FoliationDomainError(
            f"point (t={p.t}, r={r}) is outside the light cone"
        )
    return math.sqrt((p.t - r) * (p.t + r))


def lift_to_cartesian(h: HyperboloidCoords) -> SpacetimePoint:
    """Cartesian point on the slice: t = sqrt(tau^2 + |y|^2), x = y."""
    if h.tau < 1.0:
        raise FoliationDomainError(f"tau={h.tau} < 1 is below the base slice")
    r2 = sum(c * c for c in h.y)
    return SpacetimePoint(t=math.sqrt(h.tau * h.tau + r2), x=tuple(h.y))


def unit_normal(p: SpacetimePoint) -> tuple[float, float]:
    """Future unit normal to the slice through p, as (d_t, d_r) components.

    The normal is (t d_t + r d_r)/tau; its Minkowski norm is -1 in
    signature (-, +, ..., +).  Degenerate on the light cone t = |x|.
    """
    r = p.r
    if p.t <= r:
        raise FoliationDomainError(
            f"normal degenerate at (t={p.t}, r={r}): tau -> 0"
        )
    tau = math.sqrt((p.t - r) * (p.t + r))
    return (p.t / tau, r / tau)


def slice_volume_weight(tau: float, r: float, n: int) -> float:
    """Radial density (tau/t) r^{n-1} of the induced volume form on H_tau."""
    if tau < 1.0:
        raise FoliationDomainError(f"tau={tau} < 1")
    if r < 0:
        raise ValueError(f"negative radius {r}")
    t = math.sqrt(tau * tau + r * r)
    return (tau / t) * r ** (n - 1)


def truncated_slice_volume(tau: float, rmax: float, n: int) -> float:
    """Closed-form integral of 1 over the truncated slice {r <= rmax}.

    n = 1: the line integrates both signs of y, giving
    2 * tau * arcsinh(rmax / tau).  n = 2: the angular measure is 2*pi and
    the radial antiderivative of tau r / sqrt(tau^2 + r^2) is
    tau * sqrt(tau^2 + r^2).
    """
    if n == 1:
        return 2.0 * tau * math.asinh(rmax / tau)
    if n == 2:
        return 2.0 * math.pi * tau * (math.hypot(tau, rmax) - tau)
    raise ValueError(f"unsupported dimension n={n}")


@dataclass(frozen=True)
class SliceQuadrature:
    """Quadrature nodes on a truncated slice H_tau \\cap {r <= rmax}.

    ``points`` holds the spatial coordinates y (shape (m, n)); ``radii``
    the radii |y|; ``weights`` the full quadrature weights including the
    induced volume form, so that sum(w * g(y)) approximates the slice
    integral of g.
    """

    tau: float
    n: int
    rmax: float
    points: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.points.setflags(write=False)
        self.radii.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def times(self) -> np.ndarray:
        return np.sqrt(self.tau**2 + self.radii**2)


def build_slice_quadrature(
    tau: float, n: int, rmax: float, resolution: int, n_angles: int = 64
) -> SliceQuadrature:
    """Composite-trapezoid quadrature on the truncated slice.

    Radial nodes are uniform on [0, rmax] (for n = 1 they cover
    [-rmax, rmax]); n = 2 adds a uniform angular grid, which is
    trapezoid-exact by periodicity.  Nodes with vanishing volume-form
    weight (r = 0 at n = 2) are dropped so all stored weights are
    strictly positive.
    """
    if resolution < 2:
        raise ValueError(f"resolution={resolution} < 2")
    if rmax <= 0:
        raise ValueError(f"rmax={rmax} must be positive")
    if n == 1:
        y = np.linspace(-rmax, rmax, 2 * resolution + 1)
        dw = np.full(y.size, y[1] - y[0])
        dw[0] *= 0.5
        dw[-1] *= 0.5
        r = np.abs(y)
        w = dw * tau / np.sqrt(tau**2 + r**2)
        return SliceQuadrature(tau, 1, rmax, y[:, None].copy(), r, w)
    if n == 2:
        rr = np.linspace(0.0, rmax, resolution + 1)
        dr = np.full(rr.size, rr[1] - rr[0])
        dr[0] *= 0.5
        dr[-1] *= 0.5
        th = np.arange(n_angles) * (2.0 * np.pi / n_angles)
        dth = 2.0 * np.pi / n_angles
        R, TH = np.meshgrid(rr, th, indexing="ij")
        W = (dr[:, None] * dth) * (tau / np.sqrt(tau**2 + R**2)) * R
        pts = np.stack([R * np.cos(TH), R * np.sin(TH)], axis=-1)
        keep = W.ravel() > 0
        return SliceQuadrature(
            tau, 2, rmax,
            pts.reshape(-1, 2)[keep].copy(),
            R.ravel()[keep].copy(),
            W.ravel()[keep].copy(),
        )
    raise ValueError(f"unsupported dimension n={n}")


def integrate_slice(g, q: SliceQuadrature) -> float:
    """Weighted sum of g over the quadrature nodes.

    ``g`` may be a callable y -> scalar or an array of node values.
    Non-finite values propagate with a diagnostic.
    """
    if callable(g):
        vals = np.array([g(y) for y in q.points], dtype=float)
    else:
        vals = np.asarray(g, dtype=float)
        if vals.shape != q.weights.shape:
            raise ValueError(
                f"value array shape {vals.shape} != node count {q.weights.shape}"
            )
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals))[0])
        res = float(np.sum(vals * q.weights))
        import warnings

        warnings.warn(
            f"non-finite integrand at node {bad} (y={q.points[bad]}) "
            f"on slice tau={q.tau}"
        )
        return res
    return float(np.dot(vals, q.weights))

