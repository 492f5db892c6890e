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

from dataclasses import dataclass
from functools import cache

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


@cache
def _base_commutator(a: Generator, n: int) -> tuple:
    """Terms ((mu, B, C), Q) of [T_phi, Zhat_a].

    Free transport commutes with every lift, so with F_k = v^0 d_k phi and
    Zhat_a = Z_a + L_a (L_a the velocity part, terms s v^j d_{v^d}, v^0 for
    j = 0):

        [T_phi, Zhat_a] = Zhat_a(F_k) d_{v^k} + F_k [L_a, d_{v^k}],

    where Z_a d_k = d_k Z_a + [Z_a, d_k], L_a v^0 = v^0 sum s u_j u_d
    (u_0 = 1) and [v^j d_{v^d}, d_{v^k}] = -(d_{v^k} v^j) d_{v^d}.  Every
    piece is coeff * v^0 d_{v^k} for a PPoly coeff; equal pieces are merged
    before the rewrite into lifted-field form.  Cached: callers share the
    QPolys, which nothing modifies in place.
    """
    one = PPoly.constant(n, 1)
    u = [one] + [PPoly.u(n, k) for k in range(1, n + 1)]
    lv0 = PPoly(n)
    for s, j, d in a.lift:
        lv0 += (u[j] * u[d]).scale(s)
    raw: dict = {}
    for k in range(1, n + 1):
        _accumulate(raw, (k, (a,), k), one)
        for c, z in bracket(a, _translation(k)):
            _accumulate(raw, (z.i, (), k), one.scale(c))
        _accumulate(raw, (k, (), k), lv0)
    for s, j, d in a.lift:
        # d_{v^k} v^0 = v^0 u_k and d_{v^k} v^j = [j = k]
        for k in range(1, n + 1) if j == 0 else (j,):
            _accumulate(raw, (k, (), d), (u[k] if j == 0 else one).scale(-s))
    out: dict = {}
    for (mu, B, k), coeff in raw.items():
        for q, m, BB, C in _vbd_terms(coeff, mu, B, k):
            _accumulate(out, (m, BB, C), q)
    return tuple(out.items())


def _accumulate(table: dict, key, q: QPoly | PPoly):
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
    table = dict(_base_commutator(A[0], n))
    if len(A) > 1:
        rest = A[1:]
        inner = derive_commuted_vlasov(rest, n)
        # [T, Zhat_a Zhat_rest] = [T, Zhat_a] Zhat_rest + Zhat_a [T, Zhat_rest]
        table = {(mu, B, C + rest): q for (mu, B, C), q in table.items()}
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

    Recursion per leading generator a: integration by parts in v moves the
    velocity part L_a of its lift onto the weight, which gains
    L_a P + (div L_a) P.  Only lift terms s v^0 d_{v^d} have a divergence,
    s u_d; those of rotations (v^j d_{v^d}, j != d) have none.
    """
    A = tuple(A)
    table: dict[MultiIndex, PPoly] = {(): PPoly.constant(n, 1)}
    for a in reversed(A):
        div = PPoly(n)
        for s, j, d in a.lift:
            if j == 0:
                div += PPoly.u(n, d).scale(s)
        new: dict[MultiIndex, PPoly] = {}
        for B, P in table.items():
            _accumulate(new, (a,) + B, P)
            _accumulate(new, B, P.lifted_derive(a) + P * div)
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


def mi_str(mi: MultiIndex) -> str:
    return "id" if not mi else ".".join(str(g) for g in mi)


def _ppoly_json(p: PPoly):
    return [{"deg": list(deg), "coeff": str(c)} for deg, c in p.canonical()]


def _qpoly_json(q: QPoly):
    return {
        "const": _ppoly_json(q.p0),
        "t": _ppoly_json(q.pt),
        "x": [_ppoly_json(p) for p in q.px],
    }


def vlasov_rhs_doc(rhs: CommutedVlasovRHS) -> dict:
    """The JSON document of a commuted transport equation."""
    return {
        "type": "commuted_vlasov",
        "n": rhs.n,
        "A": mi_str(rhs.A),
        "terms": [
            {"mu": tm.mu, "B": mi_str(tm.B), "C": mi_str(tm.C),
             "coeff": _qpoly_json(tm.coeff)}
            for tm in rhs.terms
        ],
    }


def kg_rhs_doc(rhs: CommutedKGRHS) -> dict:
    """The JSON document of a commuted velocity average."""
    return {
        "type": "commuted_kg",
        "n": rhs.n,
        "A": mi_str(rhs.A),
        "terms": [
            {"B": mi_str(tm.B), "coeff": _ppoly_json(tm.coeff)}
            for tm in rhs.terms
        ],
    }


def vlasov_rhs_to_text(rhs: CommutedVlasovRHS) -> str:
    lines = [f"[T_phi, Zhat_{mi_str(rhs.A)}] =  (n={rhs.n})"]
    names = ["t"] + [f"x{k}" for k in range(1, rhs.n + 1)]
    for tm in rhs.terms:
        lines.append(
            f"  + [{tm.coeff!r}] * d_{names[tm.mu]}(Z_{mi_str(tm.B)} phi)"
            f" * Zhat_{mi_str(tm.C)}"
        )
    return "\n".join(lines)


def kg_rhs_to_text(rhs: CommutedKGRHS) -> str:
    lines = [f"Z_{mi_str(rhs.A)} int f dv =  (n={rhs.n})"]
    for tm in rhs.terms:
        lines.append(f"  + int [{tm.coeff!r}] * Zhat_{mi_str(tm.B)} f dv")
    return "\n".join(lines)
