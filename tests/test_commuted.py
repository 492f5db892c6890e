"""Commuted-equation derivation tests.

The main oracle is a brute-force sympy realization of the transport
operator and the lifted generators for n = 1: the derived right-hand
side must agree with [T_phi, Zhat_A] f as a symbolic identity.  Golden
files freeze the canonical dumps so any change in the derivation is
visible in review.
"""

import json
from pathlib import Path

import pytest
import sympy as sp

from vkg import commuted
from vkg.algebra import PPoly, generators

GOLDEN = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# sympy brute-force oracle (n = 1)
# ---------------------------------------------------------------------------

T_, X_, V_ = sp.symbols("t x v", real=True)
V0_ = sp.sqrt(1 + V_ ** 2)
F_ = sp.Function("f")(T_, X_, V_)
PHI_ = sp.Function("phi")(T_, X_)

LIFTED = {
    "d_t": lambda e: sp.diff(e, T_),
    "d_x1": lambda e: sp.diff(e, X_),
    "boost_1": lambda e: (T_ * sp.diff(e, X_) + X_ * sp.diff(e, T_)
                          + V0_ * sp.diff(e, V_)),
}
SPACETIME = {
    "d_t": lambda e: sp.diff(e, T_),
    "d_x1": lambda e: sp.diff(e, X_),
    "boost_1": lambda e: T_ * sp.diff(e, X_) + X_ * sp.diff(e, T_),
}


def transport(expr):
    return (V0_ * sp.diff(expr, T_) + V_ * sp.diff(expr, X_)
            - V0_ * sp.diff(PHI_, X_) * sp.diff(expr, V_))


def lifted_multi(A, expr):
    for a in reversed(A):
        expr = LIFTED[str(a)](expr)
    return expr


def spacetime_multi(B, expr):
    for b in reversed(B):
        expr = SPACETIME[str(b)](expr)
    return expr


def ppoly_sympy(p: PPoly):
    u = V_ / V0_
    return sum(sp.Rational(c) * u ** deg[0] for deg, c in p.terms.items())


def qpoly_sympy(q):
    return (ppoly_sympy(q.p0) + T_ * ppoly_sympy(q.pt)
            + X_ * ppoly_sympy(q.px[0]))


@pytest.mark.parametrize("order", [1, 2])
def test_vlasov_rhs_matches_sympy_oracle_n1(order):
    for A in commuted.all_multi_indices(1, order):
        rhs = commuted.derive_commuted_vlasov(A, 1)
        lhs = sp.expand(transport(lifted_multi(A, F_))
                        - lifted_multi(A, transport(F_)))
        total = sp.S.Zero
        for tm in rhs.terms:
            dmu = T_ if tm.mu == 0 else X_
            total += (qpoly_sympy(tm.coeff)
                      * sp.diff(spacetime_multi(tm.B, PHI_), dmu)
                      * lifted_multi(tm.C, F_))
        diff = sp.simplify(lhs - sp.expand(total))
        assert diff == 0, commuted.mi_str(A)


# ---------------------------------------------------------------------------
# structural invariants and dumps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_index_bounds_exhaustive_up_to_3(n):
    for A in commuted.multi_indices_up_to(n, 3):
        if not A:
            continue
        rhs = commuted.derive_commuted_vlasov(A, n)
        assert commuted.check_index_bounds(rhs), commuted.mi_str(A)


def test_kg_translations_are_identity():
    for n in (1, 2):
        for g in generators(n):
            if not str(g).startswith("d_"):
                continue
            rhs = commuted.derive_commuted_kg((g,), n)
            assert len(rhs.terms) == 1
            tm = rhs.terms[0]
            assert tm.B == (g,)
            assert tm.coeff == PPoly.constant(n, 1)


def test_kg_boost_has_velocity_ratio_correction():
    for n in (1, 2):
        gens = {str(g): g for g in generators(n)}
        rhs = commuted.derive_commuted_kg((gens["boost_1"],), n)
        by_b = {tm.B: tm.coeff for tm in rhs.terms}
        assert by_b == {(): PPoly.u(n, 1),
                        (gens["boost_1"],): PPoly.constant(n, 1)}


def test_kg_rotation_passes_through():
    gens = {str(g): g for g in generators(2)}
    rhs = commuted.derive_commuted_kg((gens["rot_12"],), 2)
    assert len(rhs.terms) == 1
    assert rhs.terms[0].B == (gens["rot_12"],)
    assert rhs.terms[0].coeff == PPoly.constant(2, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_vlasov_golden_dump(n):
    doc = {}
    for A in commuted.multi_indices_up_to(n, 2):
        if not A:
            continue
        rhs = commuted.derive_commuted_vlasov(A, n)
        doc[commuted.mi_str(A)] = commuted.vlasov_rhs_doc(rhs)
    frozen = json.loads((GOLDEN / f"vlasov_upto2_n{n}.json").read_text())
    assert doc == frozen


@pytest.mark.parametrize("n", [1, 2])
def test_kg_golden_dump(n):
    doc = {}
    for A in commuted.multi_indices_up_to(n, 2):
        rhs = commuted.derive_commuted_kg(A, n)
        doc[commuted.mi_str(A)] = commuted.kg_rhs_doc(rhs)
    frozen = json.loads((GOLDEN / f"kg_upto2_n{n}.json").read_text())
    assert doc == frozen


def test_text_and_json_dumps_agree_on_term_count():
    gens = generators(1)
    A = (gens[2], gens[0])  # boost then translation
    rhs = commuted.derive_commuted_vlasov(A, 1)
    doc = commuted.vlasov_rhs_doc(rhs)
    text = commuted.vlasov_rhs_to_text(rhs)
    assert len(doc["terms"]) == sum(
        1 for line in text.splitlines() if line.strip().startswith("+"))


def test_derivation_deterministic():
    gens = generators(2)
    A = (gens[4], gens[1])
    a = commuted.vlasov_rhs_doc(commuted.derive_commuted_vlasov(A, 2))
    b = commuted.vlasov_rhs_doc(commuted.derive_commuted_vlasov(A, 2))
    assert a == b


def test_empty_index_rejected():
    with pytest.raises(ValueError):
        commuted.derive_commuted_vlasov((), 1)
