import cProfile
import json
import math
import operator
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from charbounds import algsolve, zassenhaus
from charbounds.algsolve import (
    AlgValue,
    CertificateError,
    Ideal,
    MonomialWidthError,
    NotZeroDimensionalError,
    NumberField,
    PairCapError,
    cyclotomic_field,
    groebner,
    isolate_real_roots,
    solve_zero_dim,
    sturm_chain,
    sturm_count,
    upoly_interval,
)
from charbounds.invder import derivation_matrix
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import build_root_datum


def upoly(*coeffs):
    """Ascending coefficients -> univariate Poly."""
    return Poly(1, {(e,): qq(c) for e, c in enumerate(coeffs) if c})


def var(n, i):
    return Poly.variable(n, i)


# -- Groebner bases ---------------------------------------------------------

def test_groebner_collapses_to_linear():
    x = var(1, 0)
    gb = groebner(Ideal.of(1, [x * x - 1, x - 1]))
    assert len(gb.gens) == 1
    assert gb.gens[0].to_str(["x"]) == "x - 1"


def test_groebner_unit_ideal():
    x = var(1, 0)
    gb = groebner(Ideal.of(1, [x, x - 1]))
    assert len(gb.gens) == 1
    assert gb.gens[0].total_degree() == 0


def test_non_integral_generator_is_refused():
    # Ideal.of would take the primitive part; a generator put in directly
    # with a Fraction coefficient must not be read as an integer one
    x = var(1, 0)
    with pytest.raises(CertificateError, match="non-integral"):
        groebner(Ideal(1, (x * x - qq(1, 2),)))


def test_groebner_idempotent_and_deterministic():
    x, y = var(2, 0), var(2, 1)
    gens = [x * x + y * y - 1, x * y - 1]
    a = groebner(Ideal.of(2, gens))
    b = groebner(Ideal.of(2, gens))
    assert [g.terms for g in a.gens] == [g.terms for g in b.gens]
    again = groebner(a)
    assert [g.terms for g in again.gens] == [g.terms for g in a.gens]


def test_reducer_memo_rechecks_only_appended_entries():
    # groebner appends to the basis between normal forms and keeps one
    # memo: a monomial no entry reduced must be tried on the new entries
    k = oracle.Kernel(2)
    basis = [k.entry({(2, 0): 1, (0, 0): -1})]  # x^2 - 1
    memo = {}
    p = {(2, 0): 1, (0, 2): 1}  # x^2 + y^2
    assert k.normal_form(p, basis, memo) == ({(0, 2): 1, (0, 0): 1}, 1)
    assert memo[k.mono((0, 2))] == (None, 1)
    basis.append(k.entry({(0, 2): 1, (0, 0): -2}))  # y^2 - 2
    assert k.normal_form(p, basis, memo) == ({(0, 0): 3}, 1)
    assert k.normal_form(p, basis) == ({(0, 0): 3}, 1)
    assert memo[k.mono((0, 2))] == (basis[1], 2) and memo[k.mono((2, 0))] == (basis[0], 1)


def test_ideal_of_normalizes_and_groebner_only_reads():
    x = var(1, 0)
    half = x.scale(qq(-1, 2)) + 1
    assert Ideal.of(1, [half, Poly.zero(1)]).gens == (x - 2,)
    # a generator that did not come through Ideal.of is refused, not truncated
    with pytest.raises(CertificateError):
        groebner(Ideal(1, (half,)))


def test_zero_ideal_has_the_empty_basis():
    assert groebner(Ideal.of(2, [])).gens == ()
    # a constant takes one value on the whole plane
    e, basis, quot = algsolve.eliminant(Ideal.of(2, []), Poly.const(2, 3))
    assert (e, basis.gens, quot) == ([-3, 1], (), None)


def test_pair_cap_is_an_explicit_failure():
    x, y = var(2, 0), var(2, 1)
    gens = [x * x + y * y - 1, x * y - 1, x**3 - y]
    with pytest.raises(PairCapError):
        groebner(Ideal.of(2, gens), pair_cap=1)


def test_positive_dimensional_is_a_hard_error():
    x, y = var(2, 0), var(2, 1)
    with pytest.raises(NotZeroDimensionalError):
        solve_zero_dim(Ideal.of(2, [x - y]))
    with pytest.raises(NotZeroDimensionalError):
        solve_zero_dim(Ideal.of(2, []))


# -- packed monomials --------------------------------------------------------

LIMIT = algsolve._LIMIT  # every degree inside the kernel stays below
BIG = st.integers(-2**70, 2**70).filter(bool)


@st.composite
def small_ideals(draw):
    """(n, generators as {exponent tuple: int}) in 1-6 variables, degree
    <= 2, coefficients up to 2^70 in absolute value."""
    n = draw(st.integers(1, 6))
    mono = st.tuples(*[st.integers(0, 2)] * n).filter(lambda m: 1 <= sum(m) <= 2)
    gens = draw(st.lists(st.dictionaries(mono, BIG, min_size=1, max_size=4),
                         min_size=2, max_size=4))
    for g in gens:  # a constant term makes most of these the unit ideal
        if draw(st.integers(0, 7)) == 0:
            g[(0,) * n] = draw(BIG)
    return n, gens


def scaled(n, gens, s):
    """The ideal under x_i -> x_i^s, which keeps grevlex, so Buchberger
    takes the same steps on it with every degree times s."""
    return Ideal.of(n, [Poly(n, {tuple(s * e for e in m): c for m, c in g.items()})
                        for g in gens])


def widest_scale(n, gens):
    """The largest s at which groebner takes the scaled ideal, with the
    basis there.  The degrees the kernel checks grow linearly in s, so
    the scales it refuses are exactly those above this one."""
    def attempt(s):
        try:
            return groebner(scaled(n, gens, s))
        except MonomialWidthError:
            return None

    lo, hi = 1, (LIMIT - 1) // max(sum(m) for g in gens for m in g) + 1
    basis = attempt(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = attempt(mid)
        if got is None:
            hi = mid
        else:
            lo, basis = mid, got
    return lo, basis


# a term x^r (x_i^s)^q as raw draws (r, i, q, c), reduced modulo their
# bounds once s is known
RAW_TERMS = st.lists(st.tuples(st.lists(st.integers(0, LIMIT), min_size=6, max_size=6),
                               st.integers(0, 5), st.integers(0, LIMIT), BIG),
                     min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(small_ideals(), st.lists(RAW_TERMS, min_size=1, max_size=3))
@example((2, [{(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 1): 2**70, (0, 0): -3}]),
         [[([LIMIT - 1] * 6, 0, LIMIT - 1, 2**70 - 1), ([0] * 6, 1, LIMIT - 1, -1)]])
def test_packed_kernel_matches_the_tuple_oracle(case, polys):
    n, gens = case
    s, gb = widest_scale(n, gens)
    assert gb is not None and groebner(scaled(n, gens, 1)) == oracle.groebner(
        scaled(n, gens, 1))
    # at the widest scale the reduced basis is the oracle's; one step past
    # it the kernel refuses instead of wrapping a field
    assert gb == oracle.groebner(scaled(n, gens, s))
    with pytest.raises(MonomialWidthError):
        groebner(scaled(n, gens, s + 1))
    # x^r (x_i^s)^q reduces like x_i^q with x^r carried along, so terms
    # just below the degree limit reduce cheaply
    kernel = oracle.Kernel(n)
    basis = algsolve._basis_entries(gb)
    ref_basis = [(g.leading_monomial(), g.terms[g.leading_monomial()], g) for g in gb.gens]
    for raw in polys:
        p = {}
        for r, i, q, c in raw:
            r = [e % min(s, LIMIT // n) for e in r[:n]]
            r[i % n] += s * (q % ((LIMIT - 1 - sum(r)) // s + 1))
            p[tuple(r)] = c
        rem, mult = kernel.normal_form(p, basis)
        assert math.gcd(mult, *rem.values()) == 1
        ref = oracle.normal_form(Poly(n, p), ref_basis)
        assert {m: qq(c, mult) for m, c in rem.items()} == ref.terms


def test_degree_past_the_field_width_is_refused():
    # an input, an S-pair lcm and a Krylov product of degree 2^15 each
    # raise, also under python -O, where an assert would let a field wrap
    x, y = var(2, 0), var(2, 1)
    cases = [
        lambda: groebner(Ideal.of(1, [var(1, 0) ** LIMIT - 1])),
        lambda: groebner(Ideal.of(2, [x ** (LIMIT // 2) * y - 1, x * y ** (LIMIT // 2) - 1])),
        lambda: algsolve.eliminant(Ideal.of(2, [x * y]), x ** (LIMIT // 2)),
    ]
    for case in cases:
        with pytest.raises(MonomialWidthError, match="degree 32768"):
            case()
    groebner(Ideal.of(1, [var(1, 0) ** (LIMIT - 1) - 1]))  # the widest input
    probe = "\n".join([
        "from charbounds.algsolve import Ideal, MonomialWidthError, groebner",
        "from charbounds.polynomials import Poly",
        "try:",
        "    groebner(Ideal.of(1, [Poly(1, {(2 ** 15,): 1, (0,): -1})]))",
        "except MonomialWidthError:",
        "    raise SystemExit(0)",
        "raise SystemExit('no MonomialWidthError')",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-O", "-c", probe],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


# -- Sturm isolation --------------------------------------------------------

def test_sturm_count_interval():
    # (x-1)(x-2)(x-3)
    p = [qq(-6), qq(11), qq(-6), qq(1)]
    chain = sturm_chain(p)
    assert sturm_count(chain, qq(0), qq(4)) == 3
    assert sturm_count(chain, qq(3, 2), qq(5, 2)) == 1


def test_isolate_cubic_roots():
    roots = isolate_real_roots([qq(-49), qq(-151), qq(10), qq(27)])
    assert len(roots) == 3
    mids = []
    for r in roots:
        r.refine_to(qq(1, 2**30))
        mids.append(float((r.lo + r.hi) / 2))
    assert mids == sorted(mids)
    assert abs(mids[1] - (-0.323628)) < 1e-5


def test_no_real_roots():
    assert isolate_real_roots([qq(1), qq(0), qq(1)]) == []


# The integer root layer against the Fraction one in fraction_oracle: each
# chain entry a positive multiple of the rational one, the same signs, the
# same isolating intervals and refinements, the same interval images.

@st.composite
def _squarefree_rational_polys(draw):
    # rational roots, some with denominators up to 2^64, and factors of
    # degree 2 to 4, times a rational of either sign with a large denominator
    num = st.integers(-8, 8) | st.integers(-2**40, 2**40)
    den = st.integers(1, 8) | st.integers(1, 2**64)
    factors = [[-a, b] for a, b in draw(st.lists(st.tuples(num, den), max_size=4))]
    for deg in draw(st.lists(st.integers(2, 4), max_size=2)):
        coeffs = draw(st.lists(st.integers(-9, 9), min_size=deg, max_size=deg))
        factors.append(coeffs + [draw(st.integers(1, 9))])
    product = sympy.Poly(1, _X)
    for fac in factors:
        product *= _sympy_poly(fac)
    assume(product.degree() >= 1 and product.is_sqf)
    scale = qq(draw(st.integers(1, 2**70)) * draw(st.sampled_from([1, -1])),
               draw(den))
    return [qq(int(c)) * scale for c in reversed(product.all_coeffs())]


def _is_positive_multiple(ints, rats):
    return len(ints) == len(rats) and (not ints or (
        ints[-1] * rats[-1] > 0
        and all(a * rats[-1] == r * ints[-1] for a, r in zip(ints, rats))
    ))


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=60, deadline=None)
@given(_squarefree_rational_polys(), st.lists(
    st.fractions(max_denominator=2**66).map(lambda x: qq(x.numerator, x.denominator)),
    max_size=4))
@example([qq(c) for c in (0, 1, 0, -1)], [])  # negative lead; roots at the first two midpoints
@example([qq(-30), qq(-40), qq(6), qq(8)], [])  # the root -3/4 is the midpoint of (-3/2, 0)
@example([qq(1, 3), qq(-2, 7)], [qq(7, 6)])  # degree 1, at its root
@example([qq(2, 3**40), qq(-2**65, 3**40), qq(-1, 3**40), qq(2**64, 3**40)], [])
def test_integer_root_layer_matches_fraction_oracle(p, points):
    chain = sturm_chain(p)
    want = oracle.sturm_chain(p)
    assert len(chain) == len(want)
    assert all(_is_positive_multiple(a, r) for a, r in zip(chain, want))

    roots = isolate_real_roots(p)
    assert [(r.lo, r.hi) for r in roots] == oracle.isolate_real_roots(p)
    ints = algsolve._int_row(p)[0]
    points = list(points)
    for r in roots:
        lo, hi = r.lo, r.hi
        for _ in range(8):
            r.refine()
            lo, hi = oracle.refine(p, want, lo, hi)
            assert (r.lo, r.hi) == (lo, hi)
            points.append(lo)
    points = sorted(set(points))
    for x in points:
        assert _sign(algsolve._hom_eval(ints, *algsolve._at(x))) == _sign(
            oracle.upoly_eval(p, x))
    for x, y in zip(points, points[1:]):
        assert sturm_count(chain, x, y) == oracle.sturm_count(want, x, y)


_big_rationals = st.fractions(max_denominator=2**70).map(
    lambda x: qq(x.numerator, x.denominator))


@settings(max_examples=100, deadline=None)
@given(st.lists(_big_rationals, max_size=8), _big_rationals, _big_rationals)
@example([qq(3, 7), qq(-1, 2**64), qq(5)], qq(-1, 3), qq(-1, 3))
def test_upoly_interval_matches_fraction_oracle(p, a, b):
    box = (min(a, b), max(a, b))
    got = upoly_interval(p, box)
    assert got == oracle.upoly_interval(p, box)
    assert got[0] <= oracle.upoly_eval(p, box[0]) <= got[1]


# -- solve_zero_dim oracles -------------------------------------------------

def test_univariate_cubic_points():
    p = upoly(-49, -151, 10, 27)
    pts = solve_zero_dim(Ideal.of(1, [p]))
    assert len(pts) == 3
    approx = [pt.approx()[0] for pt in pts]
    assert approx == sorted(approx)
    assert abs(approx[1] + 0.323628) < 1e-5
    for pt in pts:
        assert pt.value_of(p).sign() == 0
        assert pt.minpolys[0] == (-49, -151, 10, 27)


def test_empty_real_variety():
    x = var(1, 0)
    assert solve_zero_dim(Ideal.of(1, [x * x + 1])) == []
    # inconsistent system: unit ideal, no points at all
    assert solve_zero_dim(Ideal.of(1, [x, x - 1])) == []


def _double_root(x):
    return [(x - 1) * (x - 1)]


def _two_simple_roots(x):
    return [(x - 1) * (x + 2)]


def _double_origin(x, y):
    # D = 4, d = 3: the double point (0, 0) shares x = 0 with the simple
    # point (0, 1)
    return [y * y - y, x * x - x * y]


@pytest.mark.parametrize(
    "system, nvars, points",
    [
        (_double_root, 1, [((1,), 2)]),
        (_two_simple_roots, 1, [((-2,), 1), ((1,), 1)]),
        (_double_origin, 2, [((0, 0), 2), ((0, 1), 1), ((1, 1), 1)]),
    ],
    ids=["double-root", "two-simple-roots", "double-origin"],
)
def test_point_multiplicity(system, nvars, points):
    gens = system(*(var(nvars, i) for i in range(nvars)))
    pts = solve_zero_dim(Ideal.of(nvars, gens))
    assert [(p.rational_coords(), p.multiplicity) for p in pts] == [
        (tuple(qq(c) for c in coords), mu) for coords, mu in points
    ]
    assert all(p.to_json()["multiplicity"] == p.multiplicity for p in pts)


@pytest.mark.parametrize(
    "scale", [qq(3, 2), qq(5, 4)], ids=["sum-exceeds-dim", "non-integer"]
)
def test_multiplicity_certificate_rejects_a_corrupted_rur(scale):
    x = var(1, 0)
    ideal = Ideal.of(1, _double_root(x))
    quot = algsolve._Quotient(groebner(ideal))
    f, g_one, g_coords = algsolve.fglm_lex(quot, [qq(1)])
    # x = g_x / g_1 keeps its value, so the generator certificate still
    # holds, but mu = 2 becomes 3 on a quotient of dimension 2, or 5/2
    g_one = [c * scale for c in g_one]
    g_coords = [[c * scale for c in g] for g in g_coords]
    with pytest.raises(CertificateError):
        algsolve._assemble_points(ideal, (f, g_one, g_coords), quot.dim)


def test_triangular_system_with_irrational_coordinate():
    x, y = var(2, 0), var(2, 1)
    pts = solve_zero_dim(Ideal.of(2, [y * y - 2, x - y * y]))
    assert len(pts) == 2
    assert [p.minpolys[0] for p in pts] == [(-2, 1), (-2, 1)]
    assert [p.minpolys[1] for p in pts] == [(-2, 0, 1), (-2, 0, 1)]
    lo = pts[0].approx()
    hi = pts[1].approx()
    assert abs(lo[0] - 2) < 1e-9 and abs(lo[1] + 2**0.5) < 1e-9
    assert abs(hi[0] - 2) < 1e-9 and abs(hi[1] - 2**0.5) < 1e-9
    assert pts[0].value_of(x * y).sign() == -1
    assert pts[1].value_of(x * y).sign() == 1
    assert pts[0].value_of(y * y - 2).sign() == 0


def _shared_last(x, y):
    # both solutions have y = 0, so u_0 = y cannot separate them
    return [x * x - 1, y]


def _shared_last_nonradical(x, y):
    # the same points, but the ideal is not radical
    return [(x * x - 1) ** 2, y]


def _unequal_multiplicities(x, y):
    # a double point at (1, 1) and a simple one at (-2, -2)
    return [(x - 1) ** 2 * (x + 2), y - x]


def _two_forms_fail(x, y, z):
    # u_0 = z and u_1 = x + y + z agree on both points; u_2 = 4x + 2y + z
    # does not
    return [x * x - x, x + y - 1, z]


@pytest.mark.parametrize(
    "system, nvars, coords, forms_tried",
    [
        (_shared_last, 2, [(-1, 0), (1, 0)], 2),
        (_shared_last_nonradical, 2, [(-1, 0), (1, 0)], 2),
        (_two_forms_fail, 3, [(0, 1, 0), (1, 0, 0)], 3),
        (_unequal_multiplicities, 2, [(-2, -2), (1, 1)], 1),
    ],
    ids=["shared-last-coordinate", "shared-last-nonradical", "two-forms-fail",
         "unequal-multiplicities"],
)
def test_separating_form(monkeypatch, system, nvars, coords, forms_tried):
    calls = []
    real = algsolve.fglm_lex
    monkeypatch.setattr(
        algsolve, "fglm_lex", lambda quot, form: calls.append(form) or real(quot, form)
    )
    gens = system(*(var(nvars, i) for i in range(nvars)))
    pts = solve_zero_dim(Ideal.of(nvars, gens))
    assert [p.rational_coords() for p in pts] == [
        tuple(qq(c) for c in pt) for pt in coords
    ]
    assert len(calls) == forms_tried


def test_one_groebner_basis_per_solve(monkeypatch):
    calls = []
    real = algsolve.groebner
    monkeypatch.setattr(
        algsolve, "groebner", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    x, y, z = var(3, 0), var(3, 1), var(3, 2)
    pts = solve_zero_dim(Ideal.of(3, _two_forms_fail(x, y, z)))
    assert len(pts) == 2
    assert len(calls) == 1


def test_generator_certificate_rejects_a_perturbed_coordinate():
    x, y = var(2, 0), var(2, 1)
    ideal = Ideal.of(2, [x * x - 2, y - x - 1])
    quot = algsolve._Quotient(groebner(ideal))
    rur = algsolve.fglm_lex(quot, [qq(0), qq(1)])
    assert len(algsolve._assemble_points(ideal, rur, quot.dim)) == 2
    rur[2][0][0] += 1
    with pytest.raises(CertificateError):
        algsolve._assemble_points(ideal, rur, quot.dim)


def test_points_sorted_by_midpoints():
    x = var(1, 0)
    pts = solve_zero_dim(Ideal.of(1, [(x - 3) * (x + 5) * x]))
    assert [p.rational_coords()[0] for p in pts] == [qq(-5), qq(0), qq(3)]


# -- G2 critical systems ----------------------------------------------------

@pytest.fixture(scope="module")
def g2_matrix(tmp_path_factory):
    return derivation_matrix(build_root_datum("G", 2),
                             cache_dir=tmp_path_factory.mktemp("g2"))


def test_g2_corner_ideal_three_rational_points(g2_matrix):
    m = g2_matrix
    gens = [m.entry(0, 0), m.entry(0, 1), m.entry(1, 1)]
    pts = solve_zero_dim(Ideal.of(2, gens))
    assert all(p.is_rational() for p in pts)
    assert [p.rational_coords() for p in pts] == [
        (qq(-2), qq(5)),
        (qq(-1), qq(-2)),
        (qq(7), qq(14)),
    ]


def test_g2_second_column_adds_interior_point(g2_matrix):
    m = g2_matrix
    gens = [m.entry(0, 1), m.entry(1, 1)]
    pts = solve_zero_dim(Ideal.of(2, gens))
    assert all(p.is_rational() for p in pts)
    assert [p.rational_coords() for p in pts] == [
        (qq(-2), qq(5)),
        (qq(-1), qq(-2)),
        (qq(7, 9), qq(10, 27)),
        (qq(7), qq(14)),
    ]


def test_g2_first_column_is_corners_only(g2_matrix):
    m = g2_matrix
    gens = [m.entry(0, 0), m.entry(0, 1)]
    pts = solve_zero_dim(Ideal.of(2, gens))
    assert [p.rational_coords() for p in pts] == [
        (qq(-2), qq(5)),
        (qq(-1), qq(-2)),
        (qq(7), qq(14)),
    ]


def test_solver_output_is_deterministic(g2_matrix):
    m = g2_matrix
    gens = [m.entry(0, 1), m.entry(1, 1)]
    a = solve_zero_dim(Ideal.of(2, gens))
    b = solve_zero_dim(Ideal.of(2, gens))
    assert [p.to_json() for p in a] == [p.to_json() for p in b]


# -- exact value comparison -------------------------------------------------

def test_algvalue_rational_comparisons():
    a = AlgValue.from_rational(qq(-14))
    b = AlgValue.from_rational(qq(-2))
    assert a.cmp(b) == -1
    assert b.cmp(a) == 1
    assert a.cmp(AlgValue.from_rational(qq(-14))) == 0


def test_algvalue_f4_candidate_beats_corner():
    # root of 27 v^2 - 196 v - 9604, the negative branch
    v = var(1, 0)
    pts = solve_zero_dim(Ideal.of(1, [27 * (v * v) - 196 * v - 9604]))
    assert len(pts) == 2
    low = AlgValue.from_field_element(pts[0].coords[0])
    assert low.minpoly == (-9604, -196, 27)
    assert low.cmp(AlgValue.from_rational(qq(-14))) == -1
    assert abs(low.approx() - (98 / 27) * (1 - 2 * 7**0.5)) < 1e-9
    high = AlgValue.from_field_element(pts[1].coords[0])
    assert low.cmp(high) == -1
    assert low.cmp(AlgValue.from_field_element(pts[0].coords[0])) == 0


def test_algvalue_distinguishes_conjugates():
    v = var(1, 0)
    pts = solve_zero_dim(Ideal.of(1, [v * v - 2]))
    neg = AlgValue.from_field_element(pts[0].coords[0])
    pos = AlgValue.from_field_element(pts[1].coords[0])
    assert neg.minpoly == pos.minpoly == (-2, 0, 1)
    assert neg.cmp(pos) == -1
    assert pos.cmp(neg) == 1


def test_as_rational_raises_off_the_rationals():
    # a ValueError, not an assert: python -O would return a wrong rational
    v = var(1, 0)
    point = solve_zero_dim(Ideal.of(1, [v * v - 2]))[1]
    coord = point.coords[0]
    for x in (coord, AlgValue.from_field_element(coord)):
        assert not x.is_rational()
        with pytest.raises(ValueError):
            x.as_rational()
    assert not point.is_rational()
    with pytest.raises(ValueError):
        point.rational_coords()
    # a real field is its own complex conjugate
    assert coord.is_real() and coord.conjugate() is coord


# -- printed forms ----------------------------------------------------------

def test_printed_value_does_not_depend_on_its_refinement():
    # a root of 27 v^2 + 14 v - 49, once as isolated and once refined far
    # past the printed cell and the nearest double
    p = [-49, 14, 27]
    fresh = [AlgValue(p, r) for r in isolate_real_roots(p)]
    refined = [AlgValue(p, r) for r in isolate_real_roots(p)]
    for v in refined:
        for _ in range(90):
            v.root.refine()
    assert [v.to_json() for v in refined] == [v.to_json() for v in fresh]
    again = AlgValue.from_field_element(
        solve_zero_dim(Ideal.of(1, [upoly(*p)]))[1].coords[0])
    for _ in range(90):
        again.root.refine()
    assert again.to_json() == fresh[1].to_json()


def test_printed_point_does_not_depend_on_its_field_root():
    # x = sqrt 2 + sqrt 3 and y = x^3: coordinates of degree 4
    x, y = var(2, 0), var(2, 1)
    ideal = Ideal.of(2, [x ** 4 - 10 * x * x + 1, y - x * x * x])
    fresh = [p.to_json() for p in solve_zero_dim(ideal)]
    points = solve_zero_dim(ideal)
    for p in points:
        for _ in range(90):
            p.field.root.refine()
    assert [p.to_json() for p in points] == fresh
    assert [p.approx() for p in points] == [
        tuple(c["decimal"] for c in doc["coordinates"]) for doc in fresh]


def test_printed_interval_is_the_least_isolating_dyadic_cell():
    # the roots 1/3 +- 2^-50.5 of (3v - 1)^2 = 9 * 2^-101 need cells of
    # narrower than 2^-48
    close = [2 ** 101 - 9, -6 * 2 ** 101, 9 * 2 ** 101]
    for p in ([-2, 0, 1], [-49, 14, 27], [-1, -1, 0, 1], close):
        chain = sturm_chain(p)
        for r in isolate_real_roots(p):
            lo, hi = (qq(x) for x in AlgValue(p, r).to_json()["interval"])
            j = (hi - lo).denominator.bit_length() - 1
            assert hi - lo == qq(1, 2 ** j) and j >= 40
            assert (lo * 2 ** j).denominator == 1
            assert sturm_count(chain, lo, hi) == 1
            if j > 40:
                k = math.floor(lo * 2 ** (j - 1))
                assert sturm_count(chain, qq(k, 2 ** (j - 1)),
                                   qq(k + 1, 2 ** (j - 1))) > 1
            assert p != close or j >= 49


def test_printed_rational_is_exact():
    v = AlgValue.from_rational(qq(-5, 4))
    assert v.to_json() == {"minpoly": [5, 4], "interval": ["-5/4", "-5/4"],
                           "decimal": -1.25}
    assert AlgValue.from_rational(qq(1, 3)).approx() == 1 / 3


# -- randomized oracles -----------------------------------------------------

# x - 3/2, x^3 - x - 1 and x^4 - 10 x^2 + 1 (the minpoly of sqrt 2 + sqrt 3)
_FIELDS = [NumberField((-3, 2)), NumberField((-1, -1, 0, 1)),
           NumberField((1, 0, -10, 0, 1))]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_FIELDS),
    st.lists(st.fractions(-100, 100, max_denominator=50), min_size=4, max_size=4),
)
def test_field_inverse(field, coeffs):
    v = field.reduce([qq(c) for c in coeffs[:field.degree]])
    if v:
        assert v * v.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        field.from_rational(0).inverse()


# the same minimal polynomials at their greatest real root, and two that
# are not monic, 5 x^2 - 3 and 3 x^3 + x - 2, so that reduction scales
_REAL_FIELDS = [NumberField(p, isolate_real_roots(list(p))[-1])
                for p in [f.minpoly for f in _FIELDS] + [(-3, 0, 5), (-2, 1, 0, 3)]]
_ORACLE_FIELDS = (_FIELDS + _REAL_FIELDS
                  + [cyclotomic_field(m) for m in (5, 8, 12, 30)])


def _assert_canonical(x):
    assert all(type(c) is int for c in x.vec) and type(x.den) is int
    assert len(x.vec) == x.field.degree and x.den >= 1
    assert math.gcd(x.den, *x.vec) == 1


def _oracle_sign(field, vec):
    """The sign of sum vec_i alpha^i by rational interval Horner, refining
    a copy of the field's isolating interval."""
    if not any(vec):
        return 0
    p = list(field.minpoly)
    chain = oracle.sturm_chain(p)
    lo, hi = field.root.lo, field.root.hi
    while True:
        a, b = oracle.upoly_interval(list(vec), (lo, hi))
        if a > 0 or b < 0:
            return 1 if a > 0 else -1
        lo, hi = oracle.refine(p, chain, lo, hi)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ORACLE_FIELDS), st.data())
def test_integer_field_arithmetic_matches_fraction_oracle(field, data):
    ref = oracle.FractionField(field.minpoly)
    vec = st.lists(st.fractions(-50, 50, max_denominator=12),
                   min_size=1, max_size=2 * field.degree)
    a, b = data.draw(vec), data.draw(vec)
    k = data.draw(st.integers(0, 4))
    q = data.draw(st.fractions(-9, 9, max_denominator=7))
    x, y, ra, rb = field.reduce(a), field.reduce(b), ref.reduce(a), ref.reduce(b)
    cases = [
        (x, ra),
        (x + y, tuple(map(operator.add, ra, rb))),
        (x - y, tuple(map(operator.sub, ra, rb))),
        (x * y, ref.mul(ra, rb)),
        (x ** k, ref.pow(ra, k)),
        (x * q, tuple(c * q for c in ra)),
        (q - x, ref.reduce([q - ra[0]] + [-c for c in ra[1:]])),
    ]
    if hasattr(field, "m"):
        cases.append((x.conjugate(), oracle.cyclotomic_conjugate(ref, field.m, ra)))
    else:
        assert x.conjugate() is x
    if x:
        inv = x.inverse()
        rinv = tuple(qq(c, inv.den) for c in inv.vec)
        assert ref.mul(ra, rinv) == ref.reduce([1])
        cases.append((inv, rinv))
    for got, want in cases:
        _assert_canonical(got)
        assert tuple(qq(c, got.den) for c in got.vec) == want
        # one value is one vec, den and hash, however it was reached
        again = field.reduce(list(want))
        assert (again.vec, again.den) == (got.vec, got.den)
        assert got == again and hash(got) == hash(again)
        if any(want[1:]):
            with pytest.raises(ValueError):
                got.as_rational()
        else:
            assert got.as_rational() == want[0] and got == want[0]
            assert hash(got) == hash(want[0])
        if field.root is not None and not hasattr(field, "m"):
            assert got.interval() == oracle.upoly_interval(
                list(want), (field.root.lo, field.root.hi))
            assert got.sign() == _oracle_sign(field, want)


def test_integer_field_arithmetic_makes_no_fraction():
    # reduction scales by the lead 3 and by no Fraction
    field = NumberField((-2, 1, 0, 3))
    prof = cProfile.Profile()
    prof.enable()
    x = field.reduce([5, -7, 2, 9, 4])
    y = (x * x + x - 3) ** 3 * 2 - x
    prof.disable()
    assert not [key for key in pstats.Stats(prof).stats
                if key[0].endswith("fractions.py") and key[2] == "__new__"]
    assert y.den > 1


def test_rational_elements_hash_as_their_rational():
    x = cyclotomic_field(5).from_rational(3)
    assert x == 3 and hash(x) == hash(3) and len({x, 3}) == 1
    h = NumberField((-2, 0, 1)).from_rational(qq(1, 2))
    assert h == qq(1, 2) and hash(h) == hash(qq(1, 2)) and len({h, qq(1, 2)}) == 1
    z = cyclotomic_field(5).generator()
    s = z + z**2 + z**3 + z**4
    assert (s.vec, s.den) == ((-1, 0, 0, 0), 1) and len({s, -1}) == 1


def test_multiplicity_over_a_field_that_is_not_monic():
    # f = 5 x^2 - 3 is irreducible and squarefree; g_1 = 3 f' gives mu = 3
    field = NumberField((-3, 0, 5))
    f_deriv = algsolve.upoly_deriv([-3, 0, 5])
    assert algsolve._multiplicity(field, [3 * c for c in f_deriv], f_deriv) == 3
    for g_one in ([qq(3, 2) * c for c in f_deriv], [-c for c in f_deriv], [0, 7]):
        with pytest.raises(CertificateError, match="positive integer"):
            algsolve._multiplicity(field, g_one, f_deriv)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True),
    st.integers(1, 3),
)
def test_products_of_linear_factors(roots, shift):
    x = var(1, 0)
    p = x * x + shift  # no real roots
    for a in roots:
        p = p * (x - a)
    pts = solve_zero_dim(Ideal.of(1, [p]))
    assert [pt.rational_coords()[0] for pt in pts] == sorted(qq(a) for a in roots)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3, unique=True),
)
def test_grid_systems(xs, ys):
    x, y = var(2, 0), var(2, 1)
    px = Poly.const(2, 1)
    for a in xs:
        px = px * (x - a)
    py = Poly.const(2, 1)
    for b in ys:
        py = py * (y - b)
    pts = solve_zero_dim(Ideal.of(2, [px, py]))
    got = [p.rational_coords() for p in pts]
    want = sorted((qq(a), qq(b)) for a in xs for b in ys)
    assert got == want


# -- the values of a polynomial on a zero set -------------------------------

@pytest.mark.parametrize("letter,rank,column", [("G", 2, 1), ("B", 3, 0), ("F", 4, 1)])
def test_eliminant_routes_agree(letter, rank, column, tmp_path):
    # the power sums on the quotient and the first dependency among normal
    # forms of f^k give the same e(T) on a zero-dimensional ideal
    datum = build_root_datum(letter, rank)
    m = derivation_matrix(datum, cache_dir=tmp_path)
    ideal = Ideal.of(rank, [m.entry(i, column) for i in range(rank)])
    f = var(rank, column) * var(rank, column) - var(rank, 0) * qq(1, 2) + 3
    e, basis, quot = algsolve.eliminant(ideal, f)
    assert quot is not None and len(e) - 1 <= quot.dim
    krylov = algsolve._krylov_minpoly(algsolve._basis_entries(basis), f)
    assert algsolve.upoly_squarefree(algsolve.upoly_primitive_int(krylov)) == e


def test_eliminant_of_a_curve():
    # on the circle x^2 + y^2 = 1 crossed with y = x z, the objective x^2 +
    # y^2 takes the single value 1, though the zero set is a curve
    x, y, z = var(3, 0), var(3, 1), var(3, 2)
    ideal = Ideal.of(3, [x * x + y * y - 1, y - x * z])
    e, _, quot = algsolve.eliminant(ideal, x * x + y * y)
    assert quot is None and e == [-1, 1]


def test_seeded_groebner_skips_only_redundant_pairs(g2_matrix):
    # the fibre of the G2 second column over f2 = 10/27
    m = g2_matrix
    base = groebner(Ideal.of(2, [m.entry(0, 1), m.entry(1, 1)]))
    gens = base.gens + (var(2, 1) * 27 - 10,)
    seeded = groebner(Ideal.of(2, gens), known=len(base.gens))
    assert seeded == groebner(Ideal.of(2, gens))
    quot = algsolve._Quotient(seeded)
    pts = solve_zero_dim(Ideal.of(2, gens), quot=quot)
    assert [p.rational_coords() for p in pts] == [(qq(7, 9), qq(10, 27))]
    # the same quotient, read off the second column's own
    fibre = algsolve._Quotient(base).fibre(var(2, 1), [-10, 27])
    assert (fibre.monomials, fibre.cols, fibre.scales, fibre.tau) == (
        quot.monomials, quot.cols, quot.scales, quot.tau)


@pytest.mark.parametrize("upoly, dim", [
    ([-2, 0, 1], 2), ([-3, 1], 1), ([-1, 2], 1), ([-2, 0, -1, 0, 1], 2),
    ([-6, 14, -1, -7, 2], 4),
])
def test_fibre_of_a_fractional_quotient_is_its_groebner_quotient(upoly, dim):
    # x^4 = (7x^3 + x^2 - 14x + 6) / 2 in A, so Horner past degree 3
    # carries a denominator into the constant term
    x = var(1, 0)
    base = groebner(Ideal.of(1, [(x * x * 2 - x * 7 + 3) * (x * x - 2)]))
    p = Poly.const(1, 0)
    for c in reversed(upoly):
        p = p * x + c
    ref = algsolve._Quotient(groebner(Ideal.of(1, list(base.gens) + [p]),
                                      known=len(base.gens)))
    fibre = algsolve._Quotient(base).fibre(x, upoly)
    assert (fibre.monomials, fibre.cols, fibre.scales, fibre.tau) == (
        ref.monomials, ref.cols, ref.scales, ref.tau)
    assert fibre.dim == dim
    # (x - 1)^2 (x + 2) vanishes nowhere on the zero set: a unit of A
    with pytest.raises(CertificateError, match="unit"):
        algsolve._Quotient(base).fibre(x, [2, -3, 0, 1])


def test_quotient_refuses_a_basis_that_is_not_inter_reduced():
    # x^2 + y^2 - 2 and y^2 - 1 form a Groebner basis of <x^2 - 1, y^2 - 1>,
    # but the tail y^2 of the first lies outside the staircase 1, y, x, xy
    x, y = var(2, 0), var(2, 1)
    basis = Ideal(2, (x * x + y * y - 2, y * y - 1))
    with pytest.raises(CertificateError, match="not reduced"):
        algsolve._Quotient(basis)
    # inter-reduced, the same leading monomials give the quotient
    quot = algsolve._Quotient(Ideal(2, (x * x - 1, y * y - 1)))
    assert (quot.dim, quot.npoints) == (4, 4)


@pytest.mark.parametrize("tau, match", [
    # Tr(N) = 1/2 for N = M_x on Q[x]/(x^2 - 2)
    (([1, 1], qq(1, 2)), "power sum"),
    # Tr(N) = 1 and Tr(N^2) = 2: c_2 = (1 - 2) / 2
    (([1, 1], qq(1)), "Newton"),
], ids=["trace", "newton"])
def test_int_power_sums_refuse_a_remainder(tau, match):
    x = var(1, 0)
    quot = algsolve._Quotient(groebner(Ideal.of(1, [x * x - 2])))
    assert quot.tau == ([1, 0], qq(2))
    assert algsolve._int_power_sums(quot, x, [quot.tau[0]])[0] == [-2, 0, 1]
    quot.tau = tau
    with pytest.raises(CertificateError, match=match):
        algsolve._int_power_sums(quot, x, [quot.tau[0]])


def test_real_roots_by_factor():
    # (2T - 1)(T^2 - 2)(T^2 + 1)
    e = [2, -4, 1, -2, -1, 2]
    got = {fac: [r.approx() for r in roots]
           for fac, roots in algsolve.real_roots_by_factor(e)}
    assert got.keys() == {(-1, 2), (-2, 0, 1), (1, 0, 1)}
    assert got[(-1, 2)] == [0.5] and got[(1, 0, 1)] == []
    assert got[(-2, 0, 1)] == pytest.approx([-(2 ** 0.5), 2 ** 0.5], abs=1e-11)


# -- factoring and gcds, with sympy as the oracle ----------------------------

_X = sympy.Symbol("x")


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), _X)


def _sympy_factors(f):
    return sorted(
        algsolve.upoly_primitive_int([int(c) for c in reversed(fac.all_coeffs())])
        for fac, _ in _sympy_poly(f).factor_list()[1]
    )


def _odd_primes_below(n):
    return [p for p in range(3, n, 2)
            if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]


@st.composite
def _squarefree_products(draw):
    # rational roots a / b with |a|, b up to 2^64, maybe a zero root, maybe
    # a lead that the first primes divide, and factors of degree 2 to 5 with
    # small coefficients (a rest of degree >= 4 may split into quadratics)
    big = st.integers(-2**64, 2**64)
    factors = [[-a, b] for a, b in draw(st.lists(
        st.tuples(big, st.integers(1, 2**64)), max_size=8))]
    if draw(st.booleans()):
        factors.append([0, 1])
    if draw(st.booleans()):
        lead = math.prod(_odd_primes_below(14)) * draw(st.integers(1, 4))
        factors.append([draw(st.integers(-50, 50)), lead])
    for deg in draw(st.lists(st.integers(2, 5), max_size=3)):
        coeffs = draw(st.lists(st.integers(-20, 20), min_size=deg, max_size=deg))
        factors.append(coeffs + [draw(st.integers(1, 20))])
    product = sympy.Poly(1, _X)
    for fac in factors:
        product *= _sympy_poly(fac)
    assume(product.degree() >= 1 and product.is_sqf)
    return [int(c) for c in reversed(product.all_coeffs())]


@settings(max_examples=80, deadline=None)
@given(_squarefree_products())
@example([-6, 12, 5, -10, -1, 2])  # (2x - 1)(x^2 - 2)(x^2 - 3): a reducible quartic rest
@example([2, -2**65, -1, 2**64])  # (2^64 x - 1)(x^2 - 2): a root with a large denominator
@example([6, 5, 4])  # a root mod 3 that lifts to -5 / 1 within the bounds, not a root
def test_factors_match_sympy(f):
    got = algsolve._factors([qq(c, 6) for c in f])
    assert got == sorted(got, key=lambda fac: (len(fac), fac[::-1]))
    assert sorted(got) == _sympy_factors(f)


def test_factors_when_no_prime_serves():
    # every odd prime below 1024 divides the lead, so no rational root is
    # lifted and Zassenhaus factors the whole polynomial
    lead = math.prod(_odd_primes_below(1024))
    f = [int(c) for c in reversed(
        (_sympy_poly([-1, lead]) * _sympy_poly([-2, 0, 1]) * _sympy_poly([-3, 1]))
        .all_coeffs())]
    assert algsolve._rational_roots(f) is None
    assert sorted(algsolve._factors(f)) == _sympy_factors(f)


@st.composite
def _irreducibles(draw):
    degree, bits = draw(st.integers(4, 12)), draw(st.integers(2, 200))
    coeffs = draw(st.lists(st.integers(-2**bits, 2**bits), min_size=degree,
                           max_size=degree))
    coeffs.append(draw(st.integers(1, 2**bits)))
    assume(_sympy_poly(coeffs).is_irreducible)
    return algsolve.upoly_primitive_int([qq(c) for c in coeffs])


@st.composite
def _products_of_irreducibles(draw):
    # no rational roots, so every factor comes from Zassenhaus
    factors = draw(st.lists(_irreducibles(), min_size=1, max_size=3, unique_by=tuple))
    product = sympy.Poly(1, _X)
    for fac in factors:
        product *= _sympy_poly(fac)
    return [int(c) for c in reversed(product.all_coeffs())], factors


@settings(max_examples=40, deadline=None)
@given(_products_of_irreducibles())
def test_zassenhaus_recovers_random_irreducibles(case):
    f, factors = case
    got = algsolve._factors([qq(c) for c in f])
    assert got == sorted(factors, key=lambda fac: (len(fac), fac[::-1]))


# x^4 - 10 x^2 + 1 and the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5:
# irreducible over Q but split into factors of degree <= 2 modulo every
# prime, so recombination must try every subset
_SWINNERTON_DYER_4 = [1, 0, -10, 0, 1]
_SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]


def test_swinnerton_dyer_polynomials_are_irreducible():
    for f in (_SWINNERTON_DYER_4, _SWINNERTON_DYER_8):
        assert algsolve._factors([qq(c) for c in f]) == [f]
    both = _sympy_poly(_SWINNERTON_DYER_4) * _sympy_poly(_SWINNERTON_DYER_8)
    f = [int(c) for c in reversed(both.all_coeffs())]
    assert algsolve._factors([qq(c) for c in f]) == [_SWINNERTON_DYER_4,
                                                      _SWINNERTON_DYER_8]


_RESTS = json.loads((Path(__file__).parent / "golden" / "factor_rests.json").read_text())


@pytest.mark.parametrize("name", sorted(_RESTS))
def test_recorded_rests_match_sympy(name):
    # the rests of degree >= 4 that minimize sends to zassenhaus.factor
    f = _RESTS[name]
    got = algsolve._factors([qq(c) for c in f])
    assert len(got) > 1
    assert sorted(got) == _sympy_factors(f)


def test_recombination_cap_raises_its_own_error(monkeypatch):
    monkeypatch.setattr(zassenhaus, "_RECOMBINATION_CAP", 3)
    with pytest.raises(zassenhaus.RecombinationCapError, match="passed 3 subsets"):
        algsolve._factors([qq(c) for c in _SWINNERTON_DYER_8])


_int_polys = st.lists(st.integers(-50, 50), min_size=1, max_size=7).filter(
    lambda c: c[-1])


@pytest.mark.parametrize("tries", [algsolve._HEU_TRIES, 0])  # 0: primitive PRS
@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-2**40, 2**40), min_size=1, max_size=5).filter(
        lambda c: c[-1]),
    _int_polys,
    _int_polys,
)
def test_gcd_matches_sympy(tries, common, a, b):
    pa, pb = _sympy_poly(common) * _sympy_poly(a), _sympy_poly(common) * _sympy_poly(b)
    ints = lambda p: algsolve.upoly_primitive_int(
        [int(c) for c in reversed(p.all_coeffs())])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algsolve, "_HEU_TRIES", tries)
        got = algsolve._int_gcd(ints(pa), ints(pb))
    assert got == ints(pa.gcd(pb))


def test_squarefree_part_is_primitive_integer():
    # (x - 1)^2 (2 x + 3) over rationals: the squarefree part is 2 x^2 + x - 3
    p = algsolve.upoly_primitive_int([qq(-3, 4), qq(1), qq(1, 4), qq(-1, 2)])
    assert p == [3, -4, -1, 2]
    assert algsolve.upoly_squarefree(p) == [-3, 1, 2]
    assert algsolve.upoly_squarefree([-3, 1, 2]) == [-3, 1, 2]


def test_squarefree_gcd_that_does_not_divide_raises(monkeypatch):
    # must raise, not assert, so that the check holds under -O
    monkeypatch.setattr(algsolve, "_int_gcd", lambda a, b: [1, 1])
    with pytest.raises(CertificateError, match="gcd does not divide"):
        algsolve.upoly_squarefree([-1, 0, 1, 1])


def test_minpoly_without_dependence_raises(monkeypatch):
    # must raise, not assert, so that the check holds under -O
    value = NumberField((1, 0, -10, 0, 1)).generator()
    monkeypatch.setattr(algsolve._Echelon, "insert", lambda self, vec, tag=None: None)
    with pytest.raises(CertificateError, match="no dependence"):
        algsolve._minpoly_of_value(value)
