"""Poincare algebra and coefficient-class tests.

The brackets, the field table and the lifted derivations are checked
against an independent sympy realization of the generators (and their
complete lifts) as first-order differential operators, and the structure
constants against their exact invariants.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from vkg.algebra import (BOOST, Generator, PPoly, QPoly, bracket, generators,
                         structure_constants)


def sympy_operator(g, syms):
    """Realize a generator as a sympy differential operator on (t, x)."""
    t, xs = syms

    def op(expr):
        if str(g) == "d_t":
            return sp.diff(expr, t)
        if str(g).startswith("d_x"):
            return sp.diff(expr, xs[g.i - 1])
        if str(g).startswith("boost"):
            return t * sp.diff(expr, xs[g.i - 1]) + xs[g.i - 1] * sp.diff(expr, t)
        # rotation
        return (xs[g.i - 1] * sp.diff(expr, xs[g.j - 1])
                - xs[g.j - 1] * sp.diff(expr, xs[g.i - 1]))

    return op


def sympy_velocity_operator(g, vs):
    """The velocity part of g's complete lift as a sympy operator on v."""
    v0 = sp.sqrt(1 + sum(v ** 2 for v in vs))

    def op(expr):
        if str(g).startswith("boost"):
            return v0 * sp.diff(expr, vs[g.i - 1])
        if str(g).startswith("rot"):
            return (vs[g.i - 1] * sp.diff(expr, vs[g.j - 1])
                    - vs[g.j - 1] * sp.diff(expr, vs[g.i - 1]))
        return sp.S.Zero

    return op


def lift_symbols(n):
    return (sp.Symbol("t"), sp.symbols(f"x1:{n + 1}"),
            sp.symbols(f"v1:{n + 1}"))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_matches_sympy_commutator(n):
    t = sp.Symbol("t")
    xs = sp.symbols(f"x1:{n + 1}")
    syms = (t, xs)
    probe = sp.Function("w")(t, *xs)
    gens = generators(n)
    for a in gens:
        for b in gens:
            oa, ob = sympy_operator(a, syms), sympy_operator(b, syms)
            direct = sp.expand(oa(ob(probe)) - ob(oa(probe)))
            table = sum((c * sympy_operator(g, syms)(probe)
                         for c, g in bracket(a, b)), sp.S.Zero)
            assert sp.expand(direct - table) == 0, (a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_holds_for_complete_lifts(n):
    t, xs, vs = lift_symbols(n)
    probe = sp.Function("w")(t, *xs, *vs)

    def lifted(g):
        return lambda e: (sympy_operator(g, (t, xs))(e)
                          + sympy_velocity_operator(g, vs)(e))

    gens = generators(n)
    for a in gens:
        for b in gens:
            la, lb = lifted(a), lifted(b)
            direct = la(lb(probe)) - lb(la(probe))
            table = sum((c * lifted(g)(probe) for c, g in bracket(a, b)),
                        sp.S.Zero)
            assert sp.expand(direct - table) == 0, (a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_table_matches_sympy_operators(n):
    t = sp.Symbol("t")
    xs = sp.symbols(f"x1:{n + 1}")
    vs = sp.symbols(f"v1:{n + 1}")
    v0 = sp.sqrt(1 + sum(v ** 2 for v in vs))
    probe = sp.Function("w")(t, *xs, *vs)
    coords = (t,) + xs
    for g in generators(n):
        # the operator the table describes
        table = sum((s * (1 if c is None else coords[c])
                     * sp.diff(probe, coords[a]) for s, c, a in g.terms),
                    sp.S.Zero)
        table += sum((s * (v0 if k == 0 else vs[k - 1])
                      * sp.diff(probe, vs[d - 1]) for s, k, d in g.lift),
                     sp.S.Zero)
        # the space-time field plus its lift, written out independently
        direct = (sympy_operator(g, (t, xs))(probe)
                  + sympy_velocity_operator(g, vs)(probe))
        assert sp.expand(table - direct) == 0, g
        # the numerical loops take the first term of each part unsigned
        assert all(part[0][0] == 1 for part in (g.terms, g.lift) if part)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_constants_antisymmetric_and_jacobi(n):
    c = structure_constants(n)
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))
    jac = (np.einsum("abd,dce->abce", c, c)
           + np.einsum("bcd,dae->abce", c, c)
           + np.einsum("cad,dbe->abce", c, c))
    assert not np.any(jac)


def test_bracket_closure():
    for n in (1, 2):
        gens = generators(n)
        for a in gens:
            for b in gens:
                for coeff, g in bracket(a, b):
                    assert g in gens
                    assert coeff in (-1, 1)


# ---------------------------------------------------------------------------
# coefficient classes
# ---------------------------------------------------------------------------

def ppolys(n):
    degs = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-4, max_value=4)
    return st.dictionaries(degs, coeffs, max_size=4).map(
        lambda d: PPoly(n, d))


@settings(max_examples=50, deadline=None)
@given(p=ppolys(2), q=ppolys(2))
def test_ppoly_boost_derive_product_rule(p, q):
    boost = Generator(BOOST, 1)
    lhs = (p * q).lifted_derive(boost)
    rhs = p.lifted_derive(boost) * q + p * q.lifted_derive(boost)
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(p=ppolys(2), q=ppolys(2))
def test_ppoly_ring_laws(p, q):
    assert p * q == q * p
    assert (p + q) * p == p * p + q * p
    assert p - p == PPoly(2)


def coeff_norm(p: PPoly) -> Fraction:
    """The 1-norm of p's coefficients."""
    return sum((abs(c) for c in p.terms.values()), Fraction(0))


@settings(max_examples=40, deadline=None)
@given(p=ppolys(2), vx=st.floats(-10, 10), vy=st.floats(-10, 10))
def test_ppoly_evaluation_bounded_by_coeff_norm(p, vx, vy):
    val = p.evaluate(np.array([vx, vy]))
    assert abs(val) <= float(coeff_norm(p)) + 1e-12


@settings(max_examples=40, deadline=None)
@given(p=ppolys(1), v=st.floats(-5, 5))
def test_ppoly_boost_derive_is_velocity_derivative(p, v):
    """v^0 d_v of the evaluated polynomial, by central differences."""
    h = 1e-5
    v0 = np.sqrt(1 + v * v)
    fd = v0 * (p.evaluate(np.array([v + h])) - p.evaluate(np.array([v - h]))) / (2 * h)
    exact = p.lifted_derive(Generator(BOOST, 1)).evaluate(np.array([v]))
    scale = max(1.0, float(coeff_norm(p)))
    assert abs(fd - exact) < 1e-6 * scale


def ppoly_sympy(p, vs):
    v0 = sp.sqrt(1 + sum(v ** 2 for v in vs))
    return sum((sp.Rational(c.numerator, c.denominator)
                * sp.Mul(*[(v / v0) ** d for v, d in zip(vs, deg)])
                for deg, c in p.terms.items()), sp.S.Zero)


def vanishes(expr, vs):
    """Exact zero test for a rational expression in v and v^0: write v^0
    as a symbol w, clear its negative powers (w^8 does for polynomials in
    u of degree up to 4) and reduce modulo w^2 = 1 + |v|^2."""
    w = sp.Symbol("w", positive=True)
    shell = 1 + sum(v ** 2 for v in vs)
    poly = sp.expand(expr.subs(shell, w ** 2) * w ** 8)
    return sp.rem(poly, w ** 2 - shell, w) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_ppoly_lifted_derive_matches_sympy_lift(n):
    """Every generator's lift on a polynomial with monomials of degree
    0 to 3, against sympy's action on the evaluated polynomial."""
    _, _, vs = lift_symbols(n)
    degs = [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,),
            (1,) * n, (0, 2) + (1,) * (n - 2)]
    p = PPoly(n, {d: Fraction(k + 2, k + 1) * (-1) ** k
                  for k, d in enumerate(degs)})
    expr = ppoly_sympy(p, vs)
    off = PPoly.u(n, 1).scale(Fraction(1, 7))
    for g in generators(n):
        direct = sympy_velocity_operator(g, vs)(expr)
        assert vanishes(direct - ppoly_sympy(p.lifted_derive(g), vs), vs), g
        # the zero test is sharp
        assert not vanishes(
            direct - ppoly_sympy(p.lifted_derive(g) + off, vs), vs), g


def test_qpoly_lifted_translations_pick_affine_parts():
    n = 2
    p0, pt, p1, p2 = (PPoly.u(n, 1), PPoly.constant(n, 3),
                      PPoly.u(n, 2), PPoly.constant(n, Fraction(1, 2)))
    q = QPoly(n, p0=p0, pt=pt, px=[p1, p2])
    gens = {str(g): g for g in generators(n)}
    assert q.apply_lifted(gens["d_t"]) == QPoly(n, p0=pt)
    assert q.apply_lifted(gens["d_x1"]) == QPoly(n, p0=p1)
    assert q.apply_lifted(gens["d_x2"]) == QPoly(n, p0=p2)


def test_qpoly_evaluate_affine():
    n = 1
    q = QPoly(n, p0=PPoly.constant(n, 2), pt=PPoly.u(n, 1),
              px=[PPoly.constant(n, -1)])
    v = np.array([[0.6]])
    u = 0.6 / np.sqrt(1.36)
    out = q.evaluate(np.array([3.0]), np.array([[0.25]]), v)
    assert np.allclose(out, 2 + 3 * u - 0.25)
