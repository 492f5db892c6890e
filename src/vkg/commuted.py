"""Recursive derivation of the commuted transport and field equations.

For the perturbed transport operator T_phi = v^0 d_t + v . grad_x
- v^0 grad_x(phi) . grad_v, the commutator with an ordered composition
of lifted generators has the exact form

    [T_phi, Zhat_A] = sum  Q * d_{x^mu}(Z_B phi) * Zhat_C

with QPoly coefficients, |B| + |C| <= |A| + 1 and 1 <= |C| <= |A|.
Applying a plain generator composition to the velocity integral of f
likewise produces   Z_A int f dv = sum int P^B Zhat_B f dv   with PPoly
weights.  Both right-hand sides are built here by structural recursion;
coefficients are exact rationals throughout and terms are merged under a
canonical ordering so derived objects are directly comparable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import (BOOST, DT, DX, Generator, PPoly, QPoly, bracket,
                      generators)

MultiIndex = tuple[Generator, ...]


@dataclass(frozen=True)
class VlasovTerm:
    """One term Q * d_{x^mu}(Z_B phi) * Zhat_C of a commuted transport RHS.

    mu = 0 is the time derivative; mu = 1..n the spatial ones.
    """

    coeff: QPoly
    mu: int
    B: MultiIndex
    C: MultiIndex


@dataclass(frozen=True)
class CommutedVlasovRHS:
    A: MultiIndex
    n: int
    terms: tuple[VlasovTerm, ...]


@dataclass(frozen=True)
class KGTerm:
    """One term int P * Zhat_B f dv of a commuted field source."""

    coeff: PPoly
    B: MultiIndex


@dataclass(frozen=True)
class CommutedKGRHS:
    A: MultiIndex
    n: int
    terms: tuple[KGTerm, ...]


def _vbd_terms(coeff: PPoly, mu: int, B: MultiIndex, i: int) -> list:
    """Rewrite coeff * v^0 d_{v^i} through the lifted fields.

    v^0 d_{v^i} = Zhat_boost_i - t * Zhat_dx_i - x^i * Zhat_dt, so one raw
    term spawns three QPoly terms.
    """
    n = coeff.n
    out = [(QPoly(n, p0=coeff), mu, B, (Generator(BOOST, i),))]
    out.append((QPoly(n, pt=-coeff), mu, B, (Generator(DX, i),)))
    px = [PPoly(n) for _ in range(n)]
    px[i - 1] = -coeff
    out.append((QPoly(n, px=px), mu, B, (Generator(DT),)))
    return out


def _base_commutator(a: Generator, n: int) -> dict:
    """Terms of [T_phi, Zhat_a] keyed by (mu, B, C).

    Raw form: translations and rotations give v^0 grad_x(Z_a phi).grad_v;
    boosts add -v^0 (d_t phi) d_{v^i} - (v . grad phi) d_{v^i}
    + v^i grad phi . grad_v.  Every raw piece is coeff * v^0 d_{v^k} for a
    PPoly coeff and gets rewritten into lifted-field form.
    """
    one = PPoly.constant(n, 1)
    raw: list[tuple[PPoly, int, MultiIndex, int]] = [
        (one, k, (a,), k) for k in range(1, n + 1)]
    if a.kind == BOOST:
        i = a.i
        raw.append((-one, 0, (), i))                      # -v^0 (d_t phi) d_{v^i}
        for k in range(1, n + 1):
            raw.append((-PPoly.u(n, k), k, (), i))        # -(v . grad phi) d_{v^i}
            raw.append((PPoly.u(n, i), k, (), k))         # +v^i grad phi . grad_v
    out: dict = {}
    for coeff, mu, B, k in raw:
        for q, m, BB, C in _vbd_terms(coeff, mu, B, k):
            _accumulate(out, (m, BB, C), q)
    return out


def _accumulate(table: dict, key, q: QPoly):
    if key in table:
        s = table[key] + q
        if s:
            table[key] = s
        else:
            del table[key]
    elif q:
        table[key] = q


def _translation(mu: int) -> Generator:
    """d_{x^mu}; mu = 0 is d_t."""
    return Generator(DX, mu) if mu else Generator(DT)


def derive_commuted_vlasov(A: MultiIndex, n: int) -> CommutedVlasovRHS:
    """Exact RHS of [T_phi, Zhat_A] for an ordered multi-index of length >= 1."""
    A = tuple(A)
    if not A:
        raise ValueError("commutation with the empty multi-index is trivial")
    table = _base_commutator(A[0], n)
    if len(A) > 1:
        rest = A[1:]
        inner = derive_commuted_vlasov(rest, n)
        # [T, Zhat_a Zhat_rest] = [T, Zhat_a] Zhat_rest + Zhat_a [T, Zhat_rest]
        head = dict(table)
        table = {}
        for (mu, B, C), q in head.items():
            _accumulate(table, (mu, B, C + rest), q)
        a = A[0]
        for tm in inner.terms:
            _accumulate(table, (tm.mu, tm.B, tm.C), tm.coeff.apply_lifted(a))
            _accumulate(table, (tm.mu, (a,) + tm.B, tm.C), tm.coeff)
            # Z_a d_{x^mu} = d_{x^mu} Z_a + [Z_a, d_{x^mu}], a translation
            for c, z in bracket(a, _translation(tm.mu)):
                _accumulate(table, (z.i, tm.B, tm.C), tm.coeff.scale(c))
            _accumulate(table, (tm.mu, tm.B, (a,) + tm.C), tm.coeff)
    terms = tuple(
        VlasovTerm(q, mu, B, C)
        for (mu, B, C), q in sorted(
            table.items(), key=lambda kv: (kv[0][0], _mi_key(kv[0][1]), _mi_key(kv[0][2]))
        )
    )
    return CommutedVlasovRHS(A, n, terms)


def derive_commuted_kg(A: MultiIndex, n: int) -> CommutedKGRHS:
    """Exact weights of Z_A applied to the velocity integral of f.

    Recursion per leading generator: translations pass through; a rotation
    adds its velocity derivation of the weight; a boost adds
    v^0 d_{v^i} P + u_i P from integration by parts in v.
    """
    A = tuple(A)
    table: dict[MultiIndex, PPoly] = {(): PPoly.constant(n, 1)}
    for a in reversed(A):
        new: dict[MultiIndex, PPoly] = {}
        for B, P in table.items():
            _accumulate(new, (a,) + B, P)
            w = P.lifted_derive(a)
            if a.kind == BOOST:           # d_{v^i} v^0 = u_i
                w = w + P.mul_u(a.i)
            _accumulate(new, B, w)
        table = new
    terms = tuple(
        KGTerm(P, B) for B, P in sorted(table.items(), key=lambda kv: _mi_key(kv[0]))
    )
    return CommutedKGRHS(A, n, terms)


def _mi_key(mi: MultiIndex):
    return (len(mi), tuple((g.kind, g.i, g.j) for g in mi))


def all_multi_indices(n: int, order: int) -> list[MultiIndex]:
    """All ordered generator compositions of exactly the given length."""
    gens = generators(n)
    if order == 0:
        return [()]
    shorter = all_multi_indices(n, order - 1)
    return [(g,) + mi for g in gens for mi in shorter]


def multi_indices_up_to(n: int, order: int) -> list[MultiIndex]:
    out: list[MultiIndex] = []
    for q in range(order + 1):
        out += all_multi_indices(n, q)
    return out


def check_index_bounds(rhs: CommutedVlasovRHS) -> bool:
    """|B| + |C| <= |A| + 1 and 1 <= |C| <= |A| for every term."""
    q = len(rhs.A)
    for tm in rhs.terms:
        if len(tm.B) + len(tm.C) > q + 1:
            return False
        if not (1 <= len(tm.C) <= q):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization (text and JSON dumps of derived objects)
# ---------------------------------------------------------------------------


def _mi_str(mi: MultiIndex) -> str:
    return "id" if not mi else ".".join(str(g) for g in mi)


def _ppoly_json(p: PPoly):
    return [
        {"deg": list(deg), "coeff": str(c)} for deg, c in p.canonical()
    ]


def _qpoly_json(q: QPoly):
    return {
        "const": _ppoly_json(q.p0),
        "t": _ppoly_json(q.pt),
        "x": [_ppoly_json(p) for p in q.px],
    }


def vlasov_rhs_to_json(rhs: CommutedVlasovRHS) -> str:
    doc = {
        "type": "commuted_vlasov",
        "n": rhs.n,
        "A": _mi_str(rhs.A),
        "terms": [
            {
                "mu": tm.mu,
                "B": _mi_str(tm.B),
                "C": _mi_str(tm.C),
                "coeff": _qpoly_json(tm.coeff),
            }
            for tm in rhs.terms
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def kg_rhs_to_json(rhs: CommutedKGRHS) -> str:
    doc = {
        "type": "commuted_kg",
        "n": rhs.n,
        "A": _mi_str(rhs.A),
        "terms": [
            {"B": _mi_str(tm.B), "coeff": _ppoly_json(tm.coeff)}
            for tm in rhs.terms
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def vlasov_rhs_to_text(rhs: CommutedVlasovRHS) -> str:
    lines = [f"[T_phi, Zhat_{_mi_str(rhs.A)}] =  (n={rhs.n})"]
    names = ["t"] + [f"x{k}" for k in range(1, rhs.n + 1)]
    for tm in rhs.terms:
        lines.append(
            f"  + [{tm.coeff!r}] * d_{names[tm.mu]}(Z_{_mi_str(tm.B)} phi)"
            f" * Zhat_{_mi_str(tm.C)}"
        )
    return "\n".join(lines)


def kg_rhs_to_text(rhs: CommutedKGRHS) -> str:
    lines = [f"Z_{_mi_str(rhs.A)} int f dv =  (n={rhs.n})"]
    for tm in rhs.terms:
        lines.append(f"  + int [{tm.coeff!r}] * Zhat_{_mi_str(tm.B)} f dv")
    return "\n".join(lines)
