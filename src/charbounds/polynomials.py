"""Exact scalar and sparse polynomial arithmetic shared across the package.

Rationals are fractions.Fraction, named QQ, monomials are exponent
tuples, and cyclotomic polynomials are dense integer coefficient lists;
the cyclotomic fields built on them live in algsolve.

A Poly coefficient is an int when integral and a Fraction only when not:
coefficient() brings it there where it enters, int arithmetic stays on
ints, and a Fraction result that comes out integral goes back to int.
Readers of Poly.terms use numerator and denominator, which ints have.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction as QQ
from functools import lru_cache

QZERO = QQ(0)
QONE = QQ(1)


def qq(x, den=None) -> QQ:
    """Coerce an int, string "p/q", rational, or numerator/denominator pair;
    a Fraction is returned as it is."""
    if den is None:
        return x if x.__class__ is QQ else QQ(x)
    return QQ(x, den)


def coefficient(x):
    """x as a Poly coefficient: an int when integral, else a Fraction."""
    if x.__class__ is int:
        return x
    x = qq(x)
    return x.numerator if x.denominator == 1 else x


def qq_str(x) -> str:
    return str(qq(x))


# ---------------------------------------------------------------------------
# monomials are tuples of non-negative integer exponents, ordered by grevlex

def grevlex_key(m):
    # ties broken so the last nonzero entry of the difference is negative
    return (sum(m), tuple(-e for e in reversed(m)))


# map over operator functions: a generator expression costs twice as much


def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))


def monomial_divides(a, b):
    """True when a divides b."""
    return all(map(operator.le, a, b))


class Poly:
    """Sparse multivariate polynomial over QQ: int coefficients where they
    are integral, Fractions where they are not."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None, _trusted=False):
        self.nvars = nvars
        if terms is None:
            self.terms = {}
        elif _trusted:
            self.terms = terms
        else:
            clean = {}
            for mono, c in terms.items():
                c = coefficient(c)
                if c:
                    mono = tuple(int(e) for e in mono)
                    if len(mono) != nvars:
                        raise ValueError("exponent vector length mismatch")
                    clean[mono] = coefficient(clean.get(mono, 0) + c)
            self.terms = {m: c for m, c in clean.items() if c}

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero(nvars):
        return Poly(nvars, {}, _trusted=True)

    @staticmethod
    def const(nvars, c):
        c = coefficient(c)
        if not c:
            return Poly.zero(nvars)
        return Poly(nvars, {(0,) * nvars: c}, _trusted=True)

    @staticmethod
    def variable(nvars, i):
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return Poly(nvars, {mono: 1}, _trusted=True)

    # -- structure ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self):
        return max(self.terms, key=grevlex_key)

    def coeff(self, mono):
        return self.terms.get(tuple(mono), 0)

    def constant(self):
        return self.terms.get((0,) * self.nvars, 0)

    def used_vars(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # -- arithmetic ---------------------------------------------------------
    # an int result is kept as it is; a Fraction one goes through coefficient
    def __add__(self, other, op=operator.add):
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = op(terms.get(m, 0), c)
            if s:
                terms[m] = s if s.__class__ is int else coefficient(s)
            else:
                terms.pop(m, None)
        return Poly(self.nvars, terms, _trusted=True)

    def __sub__(self, other):
        return self.__add__(other, operator.sub)

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    m = monomial_mul(ma, mb)
                    s = out.get(m, 0) + ca * cb
                    if s:
                        out[m] = s if s.__class__ is int else coefficient(s)
                    else:
                        out.pop(m, None)
            return Poly(self.nvars, out, _trusted=True)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        c = coefficient(c)
        if not c:
            return Poly.zero(self.nvars)
        return Poly(self.nvars, {m: coefficient(v * c) for m, v in self.terms.items()},
                    _trusted=True)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def diff(self, i):
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                s = out.get(dm, 0) + c * e
                if s:
                    out[dm] = s if s.__class__ is int else coefficient(s)
                else:
                    out.pop(dm, None)
        return Poly(self.nvars, out, _trusted=True)

    def evaluate(self, values, convert=None):
        """Evaluate at a point; works for QQ, float, complex or ring elements.
        powers[i] lists x_i, x_i^2, ..., one multiplication per power.  With
        convert, a term is the product of its powers times its coefficient,
        a scalar product, and convert lifts only a constant term; without,
        the coefficient comes first."""
        powers = [[x] for x in values]
        acc = None
        for m, c in self.terms.items():
            term = None if convert else c
            for i, e in enumerate(m):
                if e:
                    p = powers[i]
                    while len(p) < e:
                        p.append(p[-1] * p[0])
                    term = p[e - 1] if term is None else term * p[e - 1]
            if convert:
                term = convert(c) if term is None else term * c
            acc = term if acc is None else acc + term
        if acc is None:
            return convert(0) if convert else 0
        return acc

    def content_primitive(self):
        """Return (content, primitive integer Poly); zero has content 0.
        The content is the gcd of the numerators over the common den."""
        if not self.terms:
            return 0, self
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        nums = {m: c.numerator * (den // c.denominator) for m, c in self.terms.items()}
        g = math.gcd(*nums.values())
        prim = Poly(self.nvars, {m: c // g for m, c in nums.items()}, _trusted=True)
        return (g if den == 1 else QQ(g, den)), prim

    # -- presentation -------------------------------------------------------
    def to_str(self, names=None):
        if not self.terms:
            return "0"
        if names is None:
            names = ["f%d" % (i + 1) for i in range(self.nvars)]
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                           reverse=True):
            factors = []
            for i, e in enumerate(m):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            body = "*".join(factors)
            if not body:
                piece = qq_str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = "-" + body
            else:
                piece = qq_str(c) + "*" + body
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    def __repr__(self):
        return "Poly(%s)" % self.to_str()

    def to_json(self):
        return [
            [list(m), qq_str(c)]
            for m, c in sorted(self.terms.items(), key=lambda t: t[0])
        ]

    @staticmethod
    def from_json(nvars, data):
        return Poly(nvars, {tuple(m): c for m, c in data})

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.const(self.nvars, other)


# ---------------------------------------------------------------------------
# cyclotomic polynomials

def _int_poly_div(num, den):
    """Exact division of dense integer polynomial lists; den is monic."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num[:dn]):
        raise ArithmeticError("inexact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Dense integer coefficient list of Phi_m, ascending degree."""
    poly = [0] * m + [1]
    poly[0] = -1  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)
