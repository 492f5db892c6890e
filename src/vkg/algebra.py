"""Poincare generators, their complete lifts, and exact coefficient algebra.

The generator set in n spatial dimensions consists of the time and space
translations, the boosts t d_{x^i} + x^i d_t, and the spatial rotations
x^i d_{x^j} - x^j d_{x^i} (i < j); (n+1)(n+2)/2 fields in total.  Complete
lifts add the velocity terms v^0 d_{v^i} (boosts) and
v^i d_{v^j} - v^j d_{v^i} (rotations).

Coefficients of derived equations live in two exact polynomial classes:
``PPoly`` - polynomials in the bounded velocity ratios u_j = v^j/v^0 with
rational coefficients - and ``QPoly`` - polynomials affine in (t, x) with
PPoly coefficients.  Both classes are closed under the lifted derivations,
which is what makes the commuted right-hand sides derivable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def __str__(self):
        if self.kind == DT:
            return "d_t"
        if self.kind == DX:
            return f"d_x{self.i}"
        if self.kind == BOOST:
            return f"boost_{self.i}"
        return f"rot_{self.i}{self.j}"


def generators(n: int) -> list[Generator]:
    """Canonical ordering: d_t, translations, boosts, rotations (lex)."""
    gens = [Generator(DT)]
    gens += [Generator(DX, i) for i in range(1, n + 1)]
    gens += [Generator(BOOST, i) for i in range(1, n + 1)]
    gens += [Generator(ROT, i, j) for i in range(1, n + 1)
             for j in range(i + 1, n + 1)]
    assert len(gens) == (n + 1) * (n + 2) // 2
    return gens


def _rot(i: int, j: int) -> list[tuple[int, Generator]]:
    """Normalized rotation: rot_{ij} = -rot_{ji}, rot_{ii} = 0."""
    if i == j:
        return []
    if i < j:
        return [(1, Generator(ROT, i, j))]
    return [(-1, Generator(ROT, j, i))]


def bracket(a: Generator, b: Generator) -> list[tuple[int, Generator]]:
    """Exact commutator [Z_a, Z_b] as integer combinations of generators.

    The same table holds for the complete lifts.
    """
    ka, kb = a.kind, b.kind
    if a == b or (ka, kb) == (DT, DT):
        return []
    if (ka, kb) == (DT, DX) or (ka, kb) == (DX, DT):
        return []
    if (ka, kb) == (DT, BOOST):
        return [(1, Generator(DX, b.i))]
    if (ka, kb) == (BOOST, DT):
        return [(-1, Generator(DX, a.i))]
    if ka == DT and kb == ROT or ka == ROT and kb == DT:
        return []
    if (ka, kb) == (DX, DX):
        return []
    if (ka, kb) == (DX, BOOST):
        return [(1, Generator(DT))] if a.i == b.i else []
    if (ka, kb) == (BOOST, DX):
        return [(-1, Generator(DT))] if a.i == b.i else []
    if (ka, kb) == (DX, ROT):
        out = []
        if a.i == b.i:
            out.append((1, Generator(DX, b.j)))
        if a.i == b.j:
            out.append((-1, Generator(DX, b.i)))
        return out
    if (ka, kb) == (ROT, DX):
        return [(-c, g) for c, g in bracket(b, a)]
    if (ka, kb) == (BOOST, BOOST):
        return _rot(a.i, b.i)
    if (ka, kb) == (BOOST, ROT):
        out = []
        if a.i == b.i:
            out.append((1, Generator(BOOST, b.j)))
        if a.i == b.j:
            out.append((-1, Generator(BOOST, b.i)))
        return out
    if (ka, kb) == (ROT, BOOST):
        return [(-c, g) for c, g in bracket(b, a)]
    if (ka, kb) == (ROT, ROT):
        i, j, k, l = a.i, a.j, b.i, b.j
        out = []
        if j == k:
            out += _rot(i, l)
        if i == k:
            out += [(-c, g) for c, g in _rot(j, l)]
        if j == l:
            out += [(-c, g) for c, g in _rot(i, k)]
        if i == l:
            out += _rot(j, k)
        return out
    raise AssertionError(f"unhandled pair {ka}, {kb}")


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

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

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

    def mul_u(self, i: int) -> "PPoly":
        return self * PPoly.u(self.n, i)

    def coeff_norm(self) -> Fraction:
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def boost_derive(self, i: int) -> "PPoly":
        """v^0 d_{v^i} acting on the polynomial (closed in the class).

        On a monomial u^a:  a_i u^{a - e_i} - |a| u^{a + e_i}.
        """
        out = PPoly(self.n)
        for deg, c in self.terms.items():
            tot = sum(deg)
            if deg[i - 1]:
                lower = list(deg)
                lower[i - 1] -= 1
                out += PPoly(self.n, {tuple(lower): c * deg[i - 1]})
            if tot:
                upper = list(deg)
                upper[i - 1] += 1
                out += PPoly(self.n, {tuple(upper): -c * tot})
        return out

    def rot_derive(self, i: int, j: int) -> "PPoly":
        """(v^i d_{v^j} - v^j d_{v^i}) acting on the polynomial.

        On a monomial u^a:  a_j u^{a + e_i - e_j} - a_i u^{a + e_j - e_i}.
        """
        out = PPoly(self.n)
        for deg, c in self.terms.items():
            if deg[j - 1]:
                d = list(deg)
                d[i - 1] += 1
                d[j - 1] -= 1
                out += PPoly(self.n, {tuple(d): c * deg[j - 1]})
            if deg[i - 1]:
                d = list(deg)
                d[j - 1] += 1
                d[i - 1] -= 1
                out += PPoly(self.n, {tuple(d): -c * deg[i - 1]})
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

    @classmethod
    def from_ppoly(cls, p: PPoly) -> "QPoly":
        return cls(p.n, p0=p)

    def __bool__(self):
        return bool(self.p0) or bool(self.pt) or any(self.px)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.p0 == other.p0 \
            and self.pt == other.pt and self.px == other.px

    def __add__(self, other: "QPoly") -> "QPoly":
        return QPoly(self.n, self.p0 + other.p0, self.pt + other.pt,
                     [a + b for a, b in zip(self.px, other.px)])

    def __neg__(self):
        return QPoly(self.n, -self.p0, -self.pt, [-p for p in self.px])

    def scale(self, c) -> "QPoly":
        return QPoly(self.n, self.p0.scale(c), self.pt.scale(c),
                     [p.scale(c) for p in self.px])

    def coeff_norm(self) -> Fraction:
        return self.p0.coeff_norm() + self.pt.coeff_norm() \
            + sum((p.coeff_norm() for p in self.px), Fraction(0))

    def apply_lifted(self, g: Generator) -> "QPoly":
        """Derivative of the coefficient polynomial by a lifted generator.

        Closure: d_t and d_x pick out the affine coefficients; boosts and
        rotations act on the (t, x) part through the Killing field and on
        each PPoly through the velocity derivations.
        """
        n = self.n
        if g.kind == DT:
            return QPoly(n, p0=self.pt)
        if g.kind == DX:
            return QPoly(n, p0=self.px[g.i - 1])
        if g.kind == BOOST:
            i = g.i
            out = QPoly(
                n,
                p0=self.p0.boost_derive(i),
                pt=self.px[i - 1] + self.pt.boost_derive(i),
                px=[p.boost_derive(i) for p in self.px],
            )
            out.px[i - 1] += self.pt
            return out
        if g.kind == ROT:
            i, j = g.i, g.j
            px = [p.rot_derive(i, j) for p in self.px]
            # rot_{ij} x^k = x^i delta_{jk} - x^j delta_{ik}
            px[i - 1] += self.px[j - 1]
            px[j - 1] += self.px[i - 1].scale(-1)
            return QPoly(n, p0=self.p0.rot_derive(i, j),
                         pt=self.pt.rot_derive(i, j), px=px)
        raise AssertionError(f"unknown generator kind {g.kind}")

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

    def canonical(self):
        return (
            self.p0.canonical(),
            self.pt.canonical(),
            tuple(p.canonical() for p in self.px),
        )

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
