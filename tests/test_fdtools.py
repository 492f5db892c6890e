"""Finite-difference verification of the symbolic layer on smooth data."""

import numpy as np
import pytest

from vkg.algebra import generators
from vkg.fdtools import (apply_generator, gaussian_field,
                         gaussian_test_function, refinement_study,
                         sample_points, trapezoid_grid, velocity_integrals,
                         verify_commuted_kg, verify_commuted_vlasov)


# n = 1 and 2 run in acceptance criterion 02 on the same function and points
@pytest.mark.parametrize("n", [3, 4])
def test_free_transport_commutes_with_every_lift(n):
    func = gaussian_test_function(n, seed=0)
    pts = sample_points(n, m=30, seed=2)
    for g in generators(n):
        st = verify_commuted_vlasov((g,), n, func, None, pts)
        assert st.second_order, (g, st)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commuted_vlasov_first_order(n):
    func = gaussian_test_function(n, seed=0)
    phi = gaussian_field(n, seed=1)
    pts = sample_points(n, m=25, seed=2)
    for g in generators(n):
        st = verify_commuted_vlasov((g,), n, func, phi, pts)
        assert st.second_order, (g, st)


def test_commuted_vlasov_second_order_sample():
    n = 1
    func = gaussian_test_function(n, seed=3)
    phi = gaussian_field(n, seed=4)
    pts = sample_points(n, m=20, seed=5)
    gens = generators(n)
    for A in [(gens[2], gens[2]), (gens[2], gens[1]), (gens[0], gens[2])]:
        st = verify_commuted_vlasov(A, n, func, phi, pts)
        assert st.second_order, (A, st)


def test_moment_exchange_boost_correction_is_needed():
    """Dropping the velocity-ratio correction must break the identity."""
    n = 1
    func = gaussian_test_function(n, seed=0)
    tx = sample_points(n, m=6, seed=2)[:, :1 + n]
    g = generators(n)[2]
    st = verify_commuted_kg((g,), n, func, tx, vmax=11.0, m=321)
    assert st.second_order and st.coarse > 0

    # the same residual without the correction term
    vgrid, vw = trapezoid_grid(n, 11.0, 321)

    def chi(txp):
        return velocity_integrals(lambda p: vw * func(p), txp, vgrid)

    def residual(step):
        lhs = apply_generator(chi, g, step, False)(tx)
        zf = apply_generator(func, g, step, True)
        return lhs - velocity_integrals(lambda p: vw * zf(p), tx, vgrid)

    broken = refinement_study(residual, 1e-3)
    assert broken.fine > 1e-5  # does not converge without the correction


def test_refinement_study_detects_h2():
    st = refinement_study(lambda h: np.array([2.5 * h * h]), 1e-3)
    assert st.second_order and abs(st.ratio - 4.0) < 1e-6


def test_refinement_study_floor_marks_vanishing():
    st = refinement_study(lambda h: np.array([1e-15]), 1e-3, floor=1e-9)
    assert st.vanishes and st.second_order


@pytest.mark.parametrize("n", [1, 2])
def test_velocity_integrals_sum_each_row_on_the_trapezoid_grid(n):
    """One sum per (t, x) row: the weighted Gaussian in v integrates to
    (2 pi)^(n/2) times the row's t."""
    vgrid, vw = trapezoid_grid(n, 11.0, 141)
    tx = sample_points(n, m=3, seed=2)[:, :1 + n]
    got = velocity_integrals(
        lambda p: vw * p[:, 0] * np.exp(-0.5 * np.sum(p[:, 1 + n:] ** 2,
                                                      axis=1)), tx, vgrid)
    assert np.allclose(got, tx[:, 0] * (2 * np.pi) ** (n / 2), rtol=1e-12)
