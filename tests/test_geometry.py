"""Hyperboloidal slice geometry tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkg.geometry import (FoliationDomainError, HyperboloidCoords,
                          SpacetimePoint, build_slice_quadrature,
                          integrate_slice, lift_to_cartesian, tau_of,
                          truncated_slice_volume)


@settings(max_examples=100, deadline=None)
@given(tau=st.floats(1.0, 50.0),
       y=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=2))
def test_lift_roundtrip(tau, y):
    p = lift_to_cartesian(HyperboloidCoords(tau, tuple(y)))
    assert abs(tau_of(p) - tau) < 1e-9 * max(1.0, tau)
    assert p.t > 0


def test_interior_points_only():
    with pytest.raises(FoliationDomainError):
        tau_of(SpacetimePoint(1.0, (2.0,)))


@pytest.mark.parametrize("n,res,tol", [(1, 2000, 1e-6), (2, 400, 1e-5)])
def test_quadrature_reproduces_truncated_volume(n, res, tol):
    tau, rmax = 2.0, 3.0
    q = build_slice_quadrature(tau, n, rmax, res)
    vol = integrate_slice(lambda p: 1.0, q)
    ref = truncated_slice_volume(tau, rmax, n)
    assert abs(vol - ref) / ref < tol


def test_truncated_volume_monotone_in_radius():
    vols = [truncated_slice_volume(2.0, r, 1) for r in (1.0, 2.0, 4.0)]
    assert vols[0] < vols[1] < vols[2]


def test_quadrature_integrates_linear_moment():
    """Odd integrands over the symmetric slice vanish."""
    q = build_slice_quadrature(3.0, 1, 4.0, 800)
    val = integrate_slice(lambda y: y[0], q)
    scale = integrate_slice(lambda y: abs(y[0]), q)
    assert abs(val) < 1e-10 * scale


def test_slice_nodes_lie_on_hyperboloid():
    q = build_slice_quadrature(2.5, 2, 3.0, 30)
    assert len(q.points) > 0
    assert np.allclose(q.times ** 2 - q.radii ** 2, 2.5 ** 2, atol=1e-9)
    assert np.all(q.weights > 0)
