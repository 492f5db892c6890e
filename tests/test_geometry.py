"""Hyperboloidal slice geometry tests."""

import numpy as np
import pytest

from vkg.geometry import build_slice_quadrature, truncated_slice_volume


@pytest.mark.parametrize("n,res,tol", [(1, 2000, 1e-6), (2, 400, 1e-5)])
def test_quadrature_reproduces_truncated_volume(n, res, tol):
    tau, rmax = 2.0, 3.0
    q = build_slice_quadrature(tau, n, rmax, res)
    vol = float(q.weights.sum())
    ref = truncated_slice_volume(tau, rmax, n)
    assert abs(vol - ref) / ref < tol


def test_truncated_volume_monotone_in_radius():
    vols = [truncated_slice_volume(2.0, r, 1) for r in (1.0, 2.0, 4.0)]
    assert vols[0] < vols[1] < vols[2]


def test_quadrature_integrates_linear_moment():
    """Odd integrands over the symmetric slice vanish."""
    q = build_slice_quadrature(3.0, 1, 4.0, 800)
    val = float(np.dot(q.points[:, 0], q.weights))
    scale = float(np.dot(np.abs(q.points[:, 0]), q.weights))
    assert abs(val) < 1e-10 * scale


def test_slice_nodes_lie_on_hyperboloid():
    q = build_slice_quadrature(2.5, 2, 3.0, 30)
    assert len(q.points) > 0
    assert np.allclose(q.radii, np.linalg.norm(q.points, axis=1), atol=1e-12)
    assert np.all(q.weights > 0)
