"""Hyperboloidal foliation of Minkowski space.

The region t >= sqrt(1 + |x|^2) is sliced by hyperboloids
H_tau = {t^2 - |x|^2 = tau^2}, parametrised by the spatial coordinates
y = x, so a node at radius r = |y| lies at t = sqrt(tau^2 + r^2).  This
module provides slice quadratures carrying the induced volume form
(tau/t) r^{n-1} dr dsigma and the closed-form volume of a truncated
slice.

Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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

