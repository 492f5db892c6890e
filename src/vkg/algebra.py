"""Poincare generators, their complete lifts, and exact coefficient algebra.

The generator set in n spatial dimensions consists of the time and space
translations, the boosts t d_{x^i} + x^i d_t, and the spatial rotations
x^i d_{x^j} - x^j d_{x^i} (i < j); (n+1)(n+2)/2 fields in total.  Complete
lifts add the velocity terms v^0 d_{v^i} (boosts) and
v^i d_{v^j} - v^j d_{v^i} (rotations).  The field table `_FIELDS` writes
each field out once, as the terms `Generator.terms` and `Generator.lift`.
Everything else is computed from these terms: the Lie brackets (and with
them the structure constants), the lifted derivations of the coefficient
classes, and every numerical application of a generator (block calculus,
finite differences).

Coefficients of derived equations live in two exact polynomial classes:
``PPoly`` - polynomials in the bounded velocity ratios u_j = v^j/v^0 with
rational coefficients - and ``QPoly`` - polynomials affine in (t, x) with
PPoly coefficients.  Both classes are closed under the lifted derivations,
which is what makes the commuted right-hand sides derivable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

DT = "dt"
DX = "dx"
BOOST = "boost"
ROT = "rot"


@dataclass(frozen=True, order=True)
class Generator:
    """One symmetry field.  Indices i, j are 1-based; for rotations i < j."""

    kind: str
    i: int = 0
    j: int = 0

    @property
    def terms(self) -> tuple[tuple[int, int | None, int], ...]:
        """Space-time part: (sign, coordinate factor, derivative axis) per
        term, axes t = 0 and x_i = i, factor None for none."""
        return _FIELDS[self.kind](self.i, self.j)[0]

    @property
    def lift(self) -> tuple[tuple[int, int, int], ...]:
        """Velocity part of the complete lift: (sign, factor, v axis) per
        term, factor 0 for v^0 and k for v^k, v axes 1-based."""
        return _FIELDS[self.kind](self.i, self.j)[1]

    def __str__(self):
        if self.kind == DT:
            return "d_t"
        if self.kind == DX:
            return f"d_x{self.i}"
        if self.kind == BOOST:
            return f"boost_{self.i}"
        return f"rot_{self.i}{self.j}"


# The field table: per kind, the space-time terms and the velocity terms
# of the complete lift of the generator with indices i, j (formats in
# Generator.terms and Generator.lift).  The first sign of each part is +1.
_FIELDS = {
    DT: lambda i, j: (((1, None, 0),), ()),
    DX: lambda i, j: (((1, None, i),), ()),
    BOOST: lambda i, j: (((1, 0, i), (1, i, 0)), ((1, 0, i),)),
    ROT: lambda i, j: (((1, i, j), (-1, j, i)), ((1, i, j), (-1, j, i))),
}


def generators(n: int) -> list[Generator]:
    """Canonical ordering: d_t, translations, boosts, rotations (lex)."""
    gens = [Generator(DT)]
    gens += [Generator(DX, i) for i in range(1, n + 1)]
    gens += [Generator(BOOST, i) for i in range(1, n + 1)]
    gens += [Generator(ROT, i, j) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    assert len(gens) == (n + 1) * (n + 2) // 2
    return gens


@cache
def bracket(a: Generator, b: Generator) -> tuple[tuple[int, Generator], ...]:
    """Exact commutator [Z_a, Z_b] as integer combinations of generators.

    Both fields are sums of terms s x^c d_e (x^0 = t, x^None = 1), and
    two terms commute to s s' ([e = c'] x^c d_e' - [e' = c] x^c' d_e).
    The sum is decomposed by each generator's first term, which no other
    generator contains.  The same table holds for the complete lifts.
    """
    raw: dict = {}
    for s, c, e in a.terms:
        for s2, c2, e2 in b.terms:
            if e == c2:
                raw[c, e2] = raw.get((c, e2), 0) + s * s2
            if e2 == c:
                raw[c2, e] = raw.get((c2, e), 0) - s * s2
    lookup = {g.terms[0][1:]: g
              for g in generators(max(a.i, a.j, b.i, b.j, 1))}
    out = tuple((k, lookup[key]) for key, k in raw.items()
                if k and key in lookup)
    for k, g in out:
        for s, c, e in g.terms:
            raw[c, e] = raw.get((c, e), 0) - k * s
    assert not any(raw.values()), (a, b)
    return out


def structure_constants(n: int) -> np.ndarray:
    """Integer table C[a, b, c] with [Z_a, Z_b] = sum_c C[a,b,c] Z_c."""
    gens = generators(n)
    idx = {g: k for k, g in enumerate(gens)}
    m = len(gens)
    C = np.zeros((m, m, m), dtype=np.int64)
    for a, ga in enumerate(gens):
        for b, gb in enumerate(gens):
            for coeff, g in bracket(ga, gb):
                C[a, b, idx[g]] += coeff
    return C


def structure_constant_defects(n: int) -> int:
    """Entries of the structure constants that break antisymmetry or the
    Jacobi identity; 0 when they define a Lie algebra."""
    c = structure_constants(n)
    jac = (np.einsum("abd,dce->abce", c, c)
           + np.einsum("bcd,dae->abce", c, c)
           + np.einsum("cad,dbe->abce", c, c))
    return int(np.sum(c + np.swapaxes(c, 0, 1) != 0)) + int(np.sum(jac != 0))


# ---------------------------------------------------------------------------
# PPoly: exact polynomials in u_j = v^j / v^0
# ---------------------------------------------------------------------------


class PPoly:
    """Polynomial in the velocity ratios u_j = v^j/v^0 with Fraction coeffs.

    Keys are multi-degree tuples of length n.  |u_j| < 1, so evaluation is
    bounded by the coefficient 1-norm.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = {}
        if terms:
            for deg, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[tuple(deg)] = c

    @classmethod
    def constant(cls, n: int, c) -> "PPoly":
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def u(cls, n: int, i: int) -> "PPoly":
        """The monomial u_i (1-based i)."""
        deg = [0] * n
        deg[i - 1] = 1
        return cls(n, {tuple(deg): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, PPoly) and self.n == other.n \
            and self.terms == other.terms

    def __add__(self, other: "PPoly") -> "PPoly":
        out = dict(self.terms)
        for deg, c in other.terms.items():
            s = out.get(deg, Fraction(0)) + c
            if s:
                out[deg] = s
            else:
                out.pop(deg, None)
        return PPoly(self.n, out)

    def __neg__(self):
        return PPoly(self.n, {d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "PPoly":
        c = Fraction(c)
        if not c:
            return PPoly(self.n)
        return PPoly(self.n, {d: c * v for d, v in self.terms.items()})

    def __mul__(self, other: "PPoly") -> "PPoly":
        out: dict = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = tuple(a + b for a, b in zip(d1, d2))
                s = out.get(d, Fraction(0)) + c1 * c2
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return PPoly(self.n, out)

    def lifted_derive(self, g: Generator) -> "PPoly":
        """The velocity part of g's complete lift acting on the polynomial
        (zero for translations); closed in the class.

        With u_0 = 1, each lift term v^k d_{v^d} maps a monomial u^a to
        u_k (a_d u^{a - e_d} - |a| u^{a + e_d}).
        """
        out = PPoly(self.n)
        if not g.lift:
            return out
        for deg, c in self.terms.items():
            mono: dict = {}
            tot = sum(deg)
            for s, k, d in g.lift:
                for shift, w in ((-1, deg[d - 1]), (1, -tot)):
                    if w:
                        e = list(deg)
                        e[d - 1] += shift
                        if k:
                            e[k - 1] += 1
                        e = tuple(e)
                        mono[e] = mono.get(e, 0) + s * w * c
            out += PPoly(self.n, mono)
        return out

    def evaluate(self, v) -> np.ndarray | float:
        """Evaluate at velocities v (shape (..., n) or (n,))."""
        v = np.asarray(v, dtype=float)
        scalar = v.ndim == 1
        if scalar:
            v = v[None, :]
        v0 = np.sqrt(1.0 + np.sum(v * v, axis=-1))
        u = v / v0[..., None]
        out = np.zeros(v.shape[:-1])
        for deg, c in self.terms.items():
            mono = np.ones_like(out)
            for k, d in enumerate(deg):
                if d:
                    mono = mono * u[..., k] ** d
            out += float(c) * mono
        return float(out[0]) if scalar else out

    def canonical(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for deg, c in self.canonical():
            mono = "*".join(
                f"u{k+1}" + (f"^{d}" if d > 1 else "")
                for k, d in enumerate(deg) if d
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class QPoly:
    """Affine polynomial in (t, x) with PPoly coefficients:
    p0 + t*pt + sum_k x^k * px[k]."""

    __slots__ = ("n", "p0", "pt", "px")

    def __init__(self, n: int, p0=None, pt=None, px=None):
        self.n = n
        self.p0 = p0 if p0 is not None else PPoly(n)
        self.pt = pt if pt is not None else PPoly(n)
        self.px = list(px) if px is not None else [PPoly(n) for _ in range(n)]

    def __bool__(self):
        return bool(self.p0) or bool(self.pt) or any(self.px)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.p0 == other.p0 \
            and self.pt == other.pt and self.px == other.px

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly(self.n, self.p0 + other.p0, self.pt + other.pt,
                     [a + b for a, b in zip(self.px, other.px)])

    def scale(self, c) -> "QPoly":
        return QPoly(self.n, self.p0.scale(c), self.pt.scale(c),
                     [p.scale(c) for p in self.px])

    def apply_lifted(self, g: Generator) -> "QPoly":
        """Derivative of the coefficient polynomial by a lifted generator.

        Closure: each space-time term c d_a of g picks out the coefficient
        of coordinate a and moves it onto c; the lift acts on every PPoly
        through its velocity derivation.
        """
        # coefficient of each coordinate, t = 0 and x_i = i
        coeff = [self.pt, *self.px]
        out = [p.lifted_derive(g) for p in (self.p0, *coeff)]
        for sign, c, a in g.terms:
            k = 0 if c is None else 1 + c
            out[k] = out[k] + coeff[a].scale(sign)
        return QPoly(self.n, out[0], out[1], out[2:])

    def evaluate(self, t, x, v):
        """Evaluate at (t, x, v); arrays broadcast over leading axes."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        out = self.p0.evaluate(v) + t * self.pt.evaluate(v)
        for k in range(self.n):
            pk = self.px[k]
            if pk:
                out = out + x[..., k] * pk.evaluate(v)
        return out

    def __repr__(self):
        bits = []
        if self.p0:
            bits.append(f"({self.p0!r})")
        if self.pt:
            bits.append(f"t*({self.pt!r})")
        for k, p in enumerate(self.px):
            if p:
                bits.append(f"x{k+1}*({p!r})")
        return " + ".join(bits) if bits else "0"
