import cProfile
import math
import pstats

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charbounds.algsolve import NumberField, cyclotomic_field
from charbounds.polynomials import (
    QQ,
    Poly,
    cyclotomic_polynomial,
    grevlex_key,
    qq,
    qq_str,
)


def P(nvars, terms):
    return Poly(nvars, {tuple(m): qq(c) for m, c in terms.items()})


def test_qq_parsing():
    assert qq("3/4") == qq(3) / qq(4)
    assert qq_str(qq(-7, 2)) == "-7/2"
    assert qq_str(qq(5)) == "5"


def test_grevlex_within_degree():
    # same total degree: compare reversed exponents, negated
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    # degree dominates
    assert grevlex_key((1, 0)) < grevlex_key((0, 2))


def test_poly_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x * x - y.scale(qq(2))  # x^2 - 2y
    q = x + y
    assert p * q == q * p
    assert p.evaluate((3.0, 1.0), convert=float) == pytest.approx(7.0)
    assert p.evaluate((qq(3), qq(1)), convert=qq) == qq(7)
    assert p.diff(0) == x.scale(qq(2))
    assert p.diff(1) == Poly.const(2, qq(-2))


def termwise(poly, values, lift):
    """sum c * prod x_i ** e_i, each power taken afresh."""
    acc = lift(0)
    for m, c in poly.terms.items():
        term = lift(c)
        for x, e in zip(values, m):
            term = term * x ** e
        acc = acc + term
    return acc


@pytest.mark.parametrize("kind", ["fraction", "cyc", "field"])
def test_evaluate_reuses_powers_exactly(kind):
    # exponents out of order and repeated, so the power lists are
    # extended, reused and read back below their end
    p = P(3, {(5, 0, 1): 3, (2, 3, 0): qq(-1, 2), (0, 0, 4): 7, (1, 1, 1): -2,
              (5, 2, 0): 1, (0, 0, 0): qq(5, 3), (3, 0, 2): -4})
    if kind == "fraction":
        lift = qq
        point = (qq(2, 3), qq(-5, 7), qq(3))
    elif kind == "cyc":
        field = cyclotomic_field(5)
        lift = field.from_rational
        point = (field.reduce([0, 1]), field.reduce([1, 0, -1]),
                 field.reduce([qq(1, 2), 0, 0, 2]))
    else:
        field = NumberField([-2, 0, 0, 1])  # the real cube root of 2
        lift = field.from_rational
        a = field.generator()
        point = (a, a * a - 1, a * qq(1, 3) + 2)
    lifted = []
    got = p.evaluate(point, convert=lambda c: lifted.append(c) or lift(c))
    assert got == termwise(p, point, lift)
    # the other coefficients multiply in as scalars, never lifted
    assert lifted == [qq(5, 3)]
    if kind == "fraction":
        assert p.evaluate(point) == got


def test_poly_pow_and_degree():
    x = Poly.variable(1, 0)
    p = (x + Poly.const(1, qq(1))) ** 5
    assert p.coeff((2,)) == qq(10)
    assert p.total_degree() == 5


def test_content_primitive():
    p = P(1, {(2,): "4/3", (0,): "-2/3"})
    c, prim = p.content_primitive()
    assert c == qq(2, 3)
    assert prim == P(1, {(2,): 2, (0,): -1})


def test_json_round_trip():
    p = P(2, {(1, 2): "7/5", (0, 0): -3})
    assert Poly.from_json(2, p.to_json()) == p


def test_coefficients_enter_as_ints_where_integral():
    p = Poly(2, {(1, 0): qq(4, 2), (0, 1): "-6/3", (0, 0): qq(1, 2), (2, 0): 0})
    assert p.terms == {(1, 0): 2, (0, 1): -2, (0, 0): qq(1, 2)}
    assert [type(c) for c in p.terms.values()] == [int, int, QQ]
    assert type(Poly.const(1, qq(3)).constant()) is int
    assert type(Poly.zero(2).coeff((1, 1))) is int and Poly.zero(2).evaluate((1, 2)) == 0
    assert p.scale(qq(1, 2)).terms == {(1, 0): 1, (0, 1): -1, (0, 0): qq(1, 4)}
    assert type(p.scale(qq(1, 2)).coeff((1, 0))) is int
    # a Fraction sum or product that comes out integral is an int
    half = Poly.const(2, qq(1, 2))
    assert type((half + half).constant()) is int and type((half * 2).constant()) is int
    assert type(Poly(1, {(2,): qq(1, 2)}).diff(0).coeff((1,))) is int


def check_coefficients(p):
    """Each coefficient is a nonzero int, or a Fraction that is not integral."""
    assert all(c and (type(c) is int or (type(c) is QQ and c.denominator != 1))
               for c in p.terms.values())


_coefficients = {
    "int": st.integers(-40, 40),
    "rational": st.fractions(-6, 6, max_denominator=6).map(lambda f: qq(f.numerator,
                                                                          f.denominator)),
}
_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_coefficients)), st.data())
def test_arithmetic_matches_evaluation_and_keeps_ints(kind, data):
    coeffs = _coefficients[kind]
    draw_poly = lambda: Poly(3, data.draw(st.dictionaries(_monomials, coeffs, max_size=6)))
    p, q = draw_poly(), draw_poly()
    c = data.draw(coeffs)
    k = data.draw(st.integers(0, 3))
    point = data.draw(st.tuples(*[_coefficients["rational"]] * 3))
    a, b = p.evaluate(point), q.evaluate(point)

    def deriv(i):
        # d/dx_i of p at the point, term by term
        return sum((c * m[i] * point[i] ** (m[i] - 1)
                    * math.prod(x ** e for j, (x, e) in enumerate(zip(point, m)) if j != i)
                    for m, c in p.terms.items() if m[i]), QQ(0))

    cases = [(p + q, a + b), (p - q, a - b), (p * q, a * b), (p ** k, a ** k),
             (p.scale(c), a * c), (-p, -a), (p + c, a + c)]
    cases += [(p.diff(i), deriv(i)) for i in range(3)]
    content, prim = p.content_primitive()
    cases += [(prim.scale(content), a), (Poly.from_json(3, p.to_json()), a)]
    for got, want in cases:
        assert got.evaluate(point) == want
        check_coefficients(got)
    assert Poly.from_json(3, p.to_json()) == p and prim.scale(content) == p
    assert all(type(v) is int for v in prim.terms.values())
    if kind == "int":
        for got, _ in cases:
            assert all(type(v) is int for v in got.terms.values())
        assert type(content) is int


def test_integer_poly_arithmetic_makes_no_fraction():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    field = NumberField((-2, 1, 0, 3))
    a = field.reduce([5, -7, 2])
    cyc = cyclotomic_field(5)
    z = cyc.generator()
    prof = cProfile.Profile()
    prof.enable()
    p = (x * x - y.scale(3) + 2) ** 3 - (x + y).diff(0) * 5 - 7 * y
    content, prim = p.content_primitive()
    at_a = p.evaluate((a, a * a - 1), convert=field.from_rational)
    at_z = prim.evaluate((z + z ** 4, z ** 2), convert=cyc.from_rational)
    prof.disable()
    assert not [key for key in pstats.Stats(prof).stats
                if key[0].endswith("fractions.py") and key[2] == "__new__"]
    assert at_a.den > 1 and at_z and content == 1


def test_cyclotomic_small():
    # dense ascending integer coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    from math import gcd

    for m in range(1, 30):
        phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(cyclotomic_polynomial(m)) - 1 == phi


def zeta(m, k=1):
    return cyclotomic_field(m).generator() ** k


def test_cyc_zeta3_sum():
    z = zeta(3)
    s = z + z**2
    assert s.is_rational() and s.as_rational() == qq(-1)


def test_cyc_zeta4_square():
    z = zeta(4)
    assert z**2 == cyclotomic_field(4).from_rational(qq(-1))
    assert z**2 == -1


def test_cyc_real_detection():
    z5 = zeta(5)
    golden = z5 + z5**4  # 2 cos(2 pi/5)
    assert golden.is_real()
    assert not golden.is_rational()
    with pytest.raises(ValueError):
        golden.as_rational()
    assert abs(golden.approx().imag) < 1e-12
    assert golden.approx().real == pytest.approx(0.6180339887, abs=1e-9)
    assert not z5.is_real()


def test_cyc_conjugate_abs():
    z = zeta(7, 2)
    assert z.conjugate() == zeta(7, 5)
    n = z * z.conjugate()
    assert n.is_rational() and n.as_rational() == qq(1)


def test_cyclotomic_field_is_cached_and_keeps_its_repr():
    assert cyclotomic_field(5) is cyclotomic_field(5)
    # the corner "value" strings of the JSON report
    assert repr(cyclotomic_field(5).from_rational(14)) == "Cyc(14)"
    assert str(zeta(5) * -5) == "Cyc(m=5, ['0', '-5', '0', '0'])"
    assert str(zeta(5, 4)) == "Cyc(m=5, ['-1', '-1', '-1', '-1'])"
    # orders 1 and 2 are fields of degree 1: zeta is 1 and -1
    assert zeta(1) == 1 and zeta(2) == -1 and zeta(2).approx() == -1
    # the embedding is zeta = exp(2 pi i / m)
    assert zeta(4).approx() == pytest.approx(1j)
    assert zeta(6).approx() == pytest.approx(complex(0.5, 3**0.5 / 2))


_rationals = st.fractions(-8, 8, max_denominator=12).map(
    lambda f: qq(f.numerator, f.denominator)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.data())
def test_cyclotomic_arithmetic_matches_complex(m, data):
    field = cyclotomic_field(m)
    vec = st.lists(_rationals, min_size=1, max_size=m)
    x = field.reduce(data.draw(vec))
    y = field.reduce(data.draw(vec))
    tol = 1e-9 * (1 + abs(x.approx()) * (1 + abs(y.approx())))
    assert abs((x + y).approx() - (x.approx() + y.approx())) < tol
    assert abs((x * y).approx() - x.approx() * y.approx()) < tol
    assert abs(x.conjugate().approx() - x.approx().conjugate()) < tol
    norm = x * x.conjugate()
    assert norm.is_real()
    assert abs(norm.approx().imag) < tol
