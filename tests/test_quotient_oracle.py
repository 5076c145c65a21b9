"""The integer-row quotient layer against the rational reference in
fraction_oracle: the eliminants and the number of distinct points must
agree exactly, and form by form the rational univariate representation
(f, g_1, g_{x_i}) must give the oracle's minimal polynomial g and its
coordinates x_i = h_i(u)."""

import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from charbounds import algsolve
from charbounds.algsolve import (
    Ideal,
    groebner,
    upoly_mul,
    upoly_rem,
    upoly_squarefree,
    upoly_sub,
)
from charbounds.charring import FundamentalPolynomial
from charbounds.compactcert import critical_ideal
from charbounds.invder import derivation_matrix
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import build_root_datum


def assert_same_quotient_layer(ideal):
    """Run the solver's quotient steps on both paths and compare."""
    gb = groebner(Ideal.of(ideal.nvars, ideal.gens))
    fast = algsolve._Quotient(gb)
    ref = oracle.Quotient(gb)
    assert fast.dim == ref.dim
    n = ideal.nvars
    needs_radical = False
    for i in range(n):
        mp = fast.variable_min_poly(i)
        assert mp == ref.variable_min_poly(i)
        needs_radical |= len(upoly_squarefree(mp)) != len(mp)
    # the solver reads radicality off the number of distinct points; by
    # Seidenberg that matches squarefree eliminants
    assert (fast.npoints < fast.dim) == needs_radical
    if needs_radical:
        ref = oracle.ReducedQuotient(ref)
        assert fast.npoints == ref.dim
    for t in itertools.count():
        form = [qq(t ** (n - 1 - k)) for k in range(n)]
        rur = algsolve.fglm_lex(fast, form)
        shape = oracle.fglm_lex(ref, form)
        assert (rur is None) == (shape is None)
        if rur is not None:
            f, g_one, g_coords = rur
            g, h_polys = shape
            assert f == g
            for g_x, h in zip(g_coords, h_polys, strict=True):
                assert upoly_rem(upoly_sub(g_x, upoly_mul(h, g_one)), f) == []
            return t


# a factor x_i - c - sum_{j < i} a_j x_j; a repeated factor gives a
# repeated point, and every system is triangular, hence zero-dimensional
factor = st.tuples(st.integers(-3, 3), st.lists(st.integers(-2, 2), min_size=2, max_size=2))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3),
    st.booleans(),
)
def test_integer_path_matches_rational_oracle(factors, repeat):
    # the quotient dimension is the product of the factor counts; the
    # oracle's multiplication tensor grows as its fourth power
    assume(math.prod(len(fs) + repeat for fs in factors) <= 16)
    n = len(factors)
    xs = [Poly.variable(n, i) for i in range(n)]
    gens = []
    for i, fs in enumerate(factors):
        if repeat:
            fs = fs + fs[:1]
        p = Poly.const(n, 1)
        for c, coeffs in fs:
            lin = xs[i] - c
            for j in range(i):
                lin = lin - coeffs[j] * xs[j]
            p = p * lin
        gens.append(p)
    assert_same_quotient_layer(Ideal.of(n, gens))


def test_f4_f3_matches_rational_oracle():
    f4 = build_root_datum("F", 4)
    m = derivation_matrix(f4, use_cache=False)
    crit = critical_ideal(m, FundamentalPolynomial(f4, Poly.variable(4, 2)))
    assert algsolve._Quotient(groebner(crit)).dim == 16
    assert assert_same_quotient_layer(crit) == 1
