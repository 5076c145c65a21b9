import dataclasses
import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from charbounds.algsolve import (
    Ideal,
    NumberField,
    cyc_to_algvalue,
    cyclotomic_field,
    eliminant,
    groebner,
    isolate_real_roots,
    solve_zero_dim,
)
from charbounds.compactcert import (
    NonRealObjectiveError,
    _substitute,
    adjoint_objective,
    critical_ideal,
    extremum,
    is_compact_point,
    real_part,
    sigma_reality,
)
from charbounds.charring import FundamentalPolynomial
from charbounds.invder import derivation_matrix, sigma_matrix
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import build_root_datum, corners, weyl_min_trace
from points import rational_point


def fund_objective(datum, i):
    return FundamentalPolynomial(datum, Poly.variable(datum.rank, i))


@pytest.fixture(scope="module")
def g2():
    return build_root_datum("G", 2)


@pytest.fixture(scope="module")
def f4():
    return build_root_datum("F", 4)


# -- critical ideals --------------------------------------------------------

@pytest.mark.parametrize("letter, rank", [("G", 2), ("B", 3), ("C", 3), ("D", 4), ("F", 4)])
def test_matrix_critical_ideal_and_basis_hold_ints(letter, rank, tmp_path):
    datum = build_root_datum(letter, rank)
    fresh = derivation_matrix(datum, cache_dir=tmp_path)
    cached = derivation_matrix(datum, cache_dir=tmp_path)
    assert not fresh.cache_hit and cached.cache_hit
    adjoint = adjoint_objective(datum).poly
    # a rational objective's generators are ints once Ideal.of takes
    # their primitive part
    rational = Poly.variable(rank, 1) - Poly.variable(rank, 0).scale(qq(1, 2))
    polys = [adjoint] + [e for m in (fresh, cached) for row in m.entries for e in row]
    for objective in (adjoint, Poly.variable(rank, 0), rational):
        crit = critical_ideal(fresh, FundamentalPolynomial(datum, objective))
        polys += crit.gens + groebner(crit).gens
    assert all(type(c) is int for p in polys for c in p.terms.values())


def test_critical_ideal_of_fundamental_is_matrix_column(g2, tmp_path):
    m = derivation_matrix(g2, cache_dir=tmp_path)
    ideal = critical_ideal(m, fund_objective(g2, 0))
    col = [m.entry(0, 0), m.entry(1, 0)]
    pts_a = solve_zero_dim(ideal)
    pts_b = solve_zero_dim(Ideal.of(2, col))
    assert [p.to_json() for p in pts_a] == [p.to_json() for p in pts_b]


def test_constant_objective_gives_zero_ideal(g2, tmp_path):
    m = derivation_matrix(g2, cache_dir=tmp_path)
    ideal = critical_ideal(m, FundamentalPolynomial(g2, Poly.const(2, 5)))
    assert ideal.gens == ()


def test_mismatched_datum_rejected(g2, tmp_path):
    m = derivation_matrix(g2, cache_dir=tmp_path)
    a2 = build_root_datum("A", 2)
    with pytest.raises(ValueError):
        critical_ideal(m, fund_objective(a2, 0))


# -- sigma reality ----------------------------------------------------------

def test_sigma_reality_a2(tmp_path):
    a2 = build_root_datum("A", 2)
    m = derivation_matrix(a2, cache_dir=tmp_path)
    assert sigma_reality(m, rational_point([3, 3])) is True
    assert sigma_reality(m, rational_point([3, 4])) is False


def test_sigma_reality_trivial_when_minus_one_in_weyl(g2, tmp_path):
    m = derivation_matrix(g2, cache_dir=tmp_path)
    assert sigma_reality(m, rational_point([3, 4])) is True


def test_non_real_objective_rejected_with_its_real_part(tmp_path):
    a3 = build_root_datum("A", 3)  # -w0 swaps f1 and f3, fixes f2
    f1, f2, f3 = (Poly.variable(3, i) for i in range(3))
    objective = FundamentalPolynomial(a3, f1 * f2 * f2 + f2)
    want = (f1 * f2 * f2 + f3 * f2 * f2).scale(qq(1, 2)) + f2
    assert real_part(objective).poly == want
    with pytest.raises(NonRealObjectiveError, match="real part is"):
        extremum(a3, objective, cache_dir=tmp_path)
    assert issubclass(NonRealObjectiveError, ValueError)


# -- compactness probes -----------------------------------------------------

def test_a1_compact_region_probes(tmp_path):
    a1 = build_root_datum("A", 1)
    msig = sigma_matrix(derivation_matrix(a1, cache_dir=tmp_path))
    probes = [qq(-3), qq(-2), qq(-1), qq(0), qq(1), qq(2), qq(5, 2)]
    got = [is_compact_point(msig, rational_point([t])) for t in probes]
    assert got == [False, True, True, True, True, True, False]


def test_g2_interior_point_certificate(g2, tmp_path):
    msig = sigma_matrix(derivation_matrix(g2, cache_dir=tmp_path))
    assert is_compact_point(msig, rational_point([qq(7, 9), qq(10, 27)]))
    # corners evaluate the matrix to zero
    assert is_compact_point(msig, rational_point([7, 14]))
    # far outside the moment polytope
    assert not is_compact_point(msig, rational_point([100, 0]))


def test_rational_point_reports_its_coordinates():
    p = rational_point([qq(7, 9), -2])
    assert p.approx() == (7 / 9, -2.0)
    assert p.minpolys == ((-7, 9), (2, 1))
    assert p.to_json() == {
        "coordinates": [
            {"minpoly": [-7, 9], "interval": ["7/9", "7/9"], "decimal": 7 / 9},
            {"minpoly": [2, 1], "interval": ["-2", "-2"], "decimal": -2.0},
        ],
        "field_degree": 1,
        "multiplicity": 1,
    }


def _det(rows):
    """Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(minor)
        total = total - term if j % 2 else total + term
    return total


def _at_sqrt2(rows):
    """is_compact_point of -A for a symmetric A of (a, b) = a + b sqrt 2,
    against the oracle: every principal minor of A is nonnegative."""
    sqrt2 = NumberField((-2, 0, 1), isolate_real_roots([-2, 0, 1])[1]).generator()
    r = len(rows)
    m = SimpleNamespace(
        datum=SimpleNamespace(rank=r),
        entries=[[-Poly(1, {(0,): a, (1,): b}) for a, b in row] for row in rows],
    )
    a = [[sqrt2 * b + a for a, b in row] for row in rows]
    psd = all(
        _det([[a[i][j] for j in idx] for i in idx]).sign() >= 0
        for size in range(1, r + 1)
        for idx in combinations(range(r), size)
    )
    return is_compact_point(m, SimpleNamespace(coords=[sqrt2])), psd


def _gram(vectors, shift, at):
    """B B^T - shift e_at e_at^T over Q(sqrt 2), entries as (a, b)."""
    r = len(vectors)
    rows = [[[0, 0] for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for (a, b), (c, d) in zip(vectors[i], vectors[j]):
                rows[i][j][0] += a * c + 2 * b * d
                rows[i][j][1] += a * d + b * c
    rows[at][at][0] -= shift
    return rows


@st.composite
def gram_matrices(draw):
    r = draw(st.integers(1, 4))
    k = draw(st.integers(0, r))
    entry = st.tuples(st.integers(-2, 2), st.integers(-1, 1))
    vectors = draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                            min_size=r, max_size=r))
    return _gram(vectors, draw(st.sampled_from([0, 0, 1, 3])),
                 draw(st.integers(0, r - 1)))


@given(gram_matrices())
@settings(max_examples=80, deadline=None)
def test_elimination_agrees_with_principal_minors(rows):
    got, psd = _at_sqrt2(rows)
    assert got == psd


@pytest.mark.parametrize("rows,expected", [
    # a zero pivot with the rest of its row zero, then a positive one
    ([[(0, 0), (0, 0)], [(0, 0), (1, 1)]], True),
    # a zero pivot with a nonzero entry beside it
    ([[(0, 0), (1, 0)], [(1, 0), (0, 0)]], False),
    # every leading minor nonnegative, but not the trailing 1x1
    ([[(0, 0), (0, 0)], [(0, 0), (-1, 0)]], False),
    # 3 - 2 sqrt 2 > 0 is a positive pivot that needs the root refined
    ([[(3, -2), (1, 0)], [(1, 0), (1, 0)]], False),
    ([[(3, 2), (1, 0)], [(1, 0), (1, 0)]], True),
])
def test_elimination_pivots(rows, expected):
    assert _at_sqrt2(rows) == (expected, expected)


# -- exact corner values ----------------------------------------------------

def test_irrational_corner_value_is_certified():
    # zeta_5 + zeta_5^-1 = (sqrt(5) - 1) / 2
    z = cyclotomic_field(5).generator()
    v = z + z**4
    assert cyc_to_algvalue(v).minpoly == (-1, 1, 1)
    # sympy is the independent oracle for the minimal polynomial and the root
    x = sympy.Symbol("x")
    for m in (5, 7, 8, 9, 12, 15):
        z = sympy.exp(2 * sympy.pi * sympy.I / m)
        zeta = cyclotomic_field(m).generator()
        v = cyclotomic_field(m).from_rational(qq(1, 3))
        expr = sympy.Rational(1, 3)
        for k, a in ((1, qq(2)), (2, qq(-1)), (3, qq(5, 2))):
            v = v + (zeta**k + zeta ** (m - k)) * a
            expr += sympy.Rational(int(a.numerator), int(a.denominator)) * (
                z**k + z**-k
            )
        got = cyc_to_algvalue(v)
        want = sympy.Poly(sympy.minimal_polynomial(expr, x), x)
        assert got.minpoly == tuple(int(c) for c in reversed(want.all_coeffs()))
        assert math.gcd(*got.minpoly) == 1 and got.minpoly[-1] > 0
        lo, hi = (sympy.Rational(int(b.numerator), int(b.denominator))
                  for b in got.box())
        assert lo <= sympy.re(sympy.N(expr, 30)) <= hi



def test_corner_value_with_a_denominator_and_wide_coefficients_is_exact():
    # K (zeta_5 + zeta_5^-1) / 3 = K (sqrt 5 - 1) / 6, a root of
    # 9 T^2 + 3 K T - K^2; K / 2 is not a double, so halving a coefficient
    # in floating point would change the value
    K = 2**60 + 1
    z = cyclotomic_field(5).generator()
    v = (z + z**4) * qq(K, 3)
    assert v.den == 3
    got = cyc_to_algvalue(v)
    assert got.minpoly == (-K * K, 3 * K, 9)
    assert got.approx() == float(sympy.N(K * (sympy.sqrt(5) - 1) / 6, 50))

def test_a4_irrational_corner_minimum(tmp_path):
    # f1 + f4 = 2 Re f1 takes -(5 + 5 sqrt(5)) / 2 at a corner of order 5
    a4 = build_root_datum("A", 4)
    obj = FundamentalPolynomial(
        a4, Poly.variable(4, 0) + Poly.variable(4, 3)
    )
    rep = extremum(a4, obj, cache_dir=str(tmp_path))
    assert rep.minimum.minpoly == (-25, 5, 1)
    assert abs(rep.minimum.approx() + (5 + 5 * 5**0.5) / 2) < 1e-9
    assert hasattr(rep.min_witness, "kac_coordinates")


# -- extremum reports -------------------------------------------------------

def test_g2_f2_extremum(g2, tmp_path):
    rep = extremum(g2, fund_objective(g2, 1), cache_dir=tmp_path)
    assert rep.minimum.is_rational() and rep.minimum.as_rational() == qq(-2)
    assert hasattr(rep.min_witness, "kac_coordinates")
    witness_values = tuple(v.as_rational() for v in rep.min_witness.values)
    assert witness_values == (qq(-1), qq(-2))

    assert rep.maximum.as_rational() == qq(14)
    assert rep.max_witness.order == 1

    interior = [
        r
        for r in rep.points
        if r.point.is_rational()
        and r.point.rational_coords() == (qq(7, 9), qq(10, 27))
    ]
    assert len(interior) == 1
    rec = interior[0]
    assert rec.sigma_real is True
    assert rec.compact is True
    assert rec.value.as_rational() == qq(10, 27)
    assert rec.in_min_window is False

    assert rep.window is not None
    assert rep.window[0].as_rational() == qq(-14)
    assert rep.window[1].as_rational() == qq(14)


def test_g2_f1_extremum_is_corner_only(g2, tmp_path):
    rep = extremum(g2, fund_objective(g2, 0), cache_dir=tmp_path)
    assert rep.minimum.as_rational() == qq(-2)
    assert rep.maximum.as_rational() == qq(7)
    assert rep.points == ()


def test_f4_f2_extremum_beats_corners(f4, tmp_path):
    rep = extremum(f4, fund_objective(f4, 1), cache_dir=tmp_path)
    assert rep.minimum.minpoly == (-9604, -196, 27)
    assert abs(rep.minimum.approx() - (98 / 27) * (1 - 2 * 7**0.5)) < 1e-9
    assert not hasattr(rep.min_witness, "kac_coordinates")
    assert rep.maximum.as_rational() == qq(1274)
    # corner minimum is -14, so the witness is a certified interior point
    corner_vals = [a.as_rational() for _, _, a in rep.corner_values]
    assert min(corner_vals) == qq(-14)


@pytest.mark.parametrize(
    "column,expected",
    [(0, -4), (2, -15), (3, -6)],
)
def test_f4_other_minima_attained_at_corners(f4, column, expected, tmp_path):
    rep = extremum(f4, fund_objective(f4, column), cache_dir=tmp_path)
    assert rep.minimum.is_rational()
    assert rep.minimum.as_rational() == qq(expected)
    assert hasattr(rep.min_witness, "kac_coordinates")


def test_adjoint_matches_weyl_min_trace(tmp_path):
    for letter, rank in [("G", 2), ("F", 4), ("A", 2), ("B", 2)]:
        datum = build_root_datum(letter, rank)
        rep = extremum(datum, adjoint_objective(datum), cache_dir=tmp_path)
        assert rep.minimum.is_rational()
        assert rep.minimum.as_rational() == weyl_min_trace(datum)


def test_max_of_fundamental_is_its_dimension(g2, tmp_path):
    from charbounds.charring import irreducible_character

    for i in range(2):
        rep = extremum(g2, fund_objective(g2, i), cache_dir=tmp_path)
        lam = tuple(1 if j == i else 0 for j in range(2))
        dim = irreducible_character(g2, lam).dimension()
        assert rep.maximum.as_rational() == qq(dim)
        assert rep.max_witness.order == 1


def test_scale_invariance_of_verdicts_and_extrema(tmp_path):
    base = build_root_datum("G", 2)
    doubled = build_root_datum("G", 2, form_scale=2)
    rep_a = extremum(base, fund_objective(base, 1), cache_dir=tmp_path)
    rep_b = extremum(doubled, fund_objective(doubled, 1), cache_dir=tmp_path)
    assert rep_a.minimum.cmp(rep_b.minimum) == 0
    assert rep_a.maximum.cmp(rep_b.maximum) == 0
    assert [r.compact for r in rep_a.points] == [r.compact for r in rep_b.points]

    msig = sigma_matrix(derivation_matrix(doubled, cache_dir=tmp_path))
    assert is_compact_point(msig, rational_point([qq(7, 9), qq(10, 27)]))
    assert not is_compact_point(msig, rational_point([100, 0]))


def test_report_json_round_trip(g2, tmp_path):
    import json

    rep = extremum(g2, fund_objective(g2, 1), cache_dir=tmp_path)
    blob = json.dumps(rep.to_json(), sort_keys=True)
    assert "minimum" in blob and "critical_points" in blob
    again = extremum(g2, fund_objective(g2, 1), cache_dir=tmp_path)
    assert json.dumps(again.to_json(), sort_keys=True) == blob


# -- the values route -------------------------------------------------------

@pytest.mark.parametrize(
    "letter,rank,objective",
    [("G", 2, "f2"), ("B", 3, "f1"), ("C", 3, "f3"), ("D", 4, "adjoint"),
     ("F", 4, "f2")],
)
def test_critical_values_are_roots_of_e(tmp_path, letter, rank, objective):
    datum = build_root_datum(letter, rank)
    if objective == "adjoint":
        obj = adjoint_objective(datum)
    else:
        obj = fund_objective(datum, int(objective[1:]) - 1)
    rep = extremum(datum, obj, cache_dir=str(tmp_path))
    crit = critical_ideal(derivation_matrix(datum, cache_dir=str(tmp_path)), obj)
    e, _, quot = eliminant(crit, obj.poly)
    assert quot is not None and 1 <= len(e) - 1 <= quot.dim
    assert rep.points
    for rec in rep.points:
        # e(f(p)) = 0 exactly, in the point's own number field
        v = rec.point.value_of(obj.poly)
        acc = v.field.from_rational(0)
        for c in reversed(e):
            acc = acc * v + c
        assert acc.is_zero()


def test_list_that_disagrees_with_the_values_route_is_refused(f4, monkeypatch, tmp_path):
    from charbounds import compactcert
    from charbounds.algsolve import CertificateError

    rep = extremum(f4, fund_objective(f4, 1), cache_dir=str(tmp_path))
    assert not hasattr(rep.min_witness, "kac_coordinates")
    # the list is built only now; with no compact point in it, its minimum
    # would be the corner value -14
    monkeypatch.setattr(compactcert, "is_compact_point", lambda msig, p: False)
    with pytest.raises(CertificateError, match="disagree"):
        rep.to_json()


# -- fibres read off the critical quotient algebra --------------------------

@pytest.fixture(scope="module")
def matrix_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("matrices"))


def _objective(datum, name):
    if name == "adjoint":
        return adjoint_objective(datum)
    return fund_objective(datum, int(name[1:]) - 1)


@pytest.mark.parametrize("letter,rank,objective", [
    ("F", 4, "f1"), ("F", 4, "f2"), ("F", 4, "f3"), ("F", 4, "f4"),
    ("D", 4, "adjoint"), ("B", 4, "f2"), ("A", 2, "adjoint"),
    ("B", 2, "adjoint"), ("B", 3, "adjoint"), ("B", 3, "f2"), ("D", 4, "f2"),
])
def test_fibre_read_off_A_is_the_fibre_groebner_quotient(
        monkeypatch, matrix_cache, letter, rank, objective):
    from charbounds import algsolve

    datum = build_root_datum(letter, rank)
    obj = _objective(datum, objective)
    built = []
    real = algsolve._Quotient.fibre

    def spy(quot, poly, upoly):
        out = real(quot, poly, upoly)
        built.append((upoly, out))
        return out

    monkeypatch.setattr(algsolve._Quotient, "fibre", spy)
    extremum(datum, obj, cache_dir=matrix_cache)
    assert built
    crit = critical_ideal(derivation_matrix(datum, cache_dir=matrix_cache), obj)
    _, basis, quot = eliminant(crit, obj.poly)
    assert quot is not None
    for upoly, fibre in built:
        e_c = Ideal.of(crit.nvars, [_substitute(upoly, obj.poly)])
        ref = algsolve._Quotient(groebner(Ideal(crit.nvars, basis.gens + e_c.gens),
                                          known=len(basis.gens)))
        for attr in ("monomials", "cols", "scales", "tau", "dim"):
            assert getattr(fibre, attr) == getattr(ref, attr), attr


def test_zero_dimensional_extremum_runs_one_groebner_basis(f4, monkeypatch, matrix_cache):
    from charbounds import algsolve, compactcert

    calls = []
    real = algsolve.groebner

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (algsolve, compactcert):
        monkeypatch.setattr(module, "groebner", counted)
    rep = extremum(f4, fund_objective(f4, 1), cache_dir=matrix_cache)
    # the minimum is attained at a critical point of a decided fibre
    assert not hasattr(rep.min_witness, "kac_coordinates")
    assert len(calls) == 1


# -- what a process keeps per datum -----------------------------------------

def test_corner_classes_are_built_once_per_datum(f4, g2, monkeypatch, matrix_cache):
    from charbounds import charring, compactcert

    # one orbit walk per fundamental character builds a datum's corner table
    walks = []
    real = charring.evaluate_at_torsions
    monkeypatch.setattr(charring, "evaluate_at_torsions",
                        lambda c, classes: walks.append(c) or real(c, classes))
    monkeypatch.setattr(compactcert, "_CORNERS", {})
    for i in range(4):
        extremum(f4, fund_objective(f4, i), cache_dir=matrix_cache)
    assert len(walks) == 4
    # a replaced datum is another key, even with the same content hash
    doubled = dataclasses.replace(
        g2, form_A=tuple(tuple(2 * x for x in row) for row in g2.form_A)
    )
    assert doubled.content_hash() == g2.content_hash()
    for datum in (g2, doubled, g2, doubled):
        rep = extremum(datum, adjoint_objective(datum), cache_dir=matrix_cache)
        assert rep.to_json()["minimum"]["interval"] == ["-2", "-2"]
    assert len(walks) == 4 + 2 + 2
    assert [d for d, _ in compactcert._CORNERS] == [f4, g2, doubled]
    # without a memo the table is built afresh
    assert corners(g2) == compactcert._CORNERS[g2, (1, 2)]
    assert len(walks) == 10


def test_warm_report_equals_a_fresh_process_report(matrix_cache, tmp_path):
    from charbounds.cli import parse_objective

    requests = [("F", 4, "f2"), ("B", 2, "adjoint"), ("A", 4, "f1+f4")]
    warm = []
    for letter, rank, name in requests:
        datum = build_root_datum(letter, rank)
        for _ in range(2):
            rep = extremum(datum, parse_objective(datum, name), cache_dir=matrix_cache)
        warm.append(json.dumps(rep.to_json(), sort_keys=True))
    probe = "\n".join([
        "import json, sys",
        "from charbounds.cli import parse_objective",
        "from charbounds.compactcert import extremum",
        "from charbounds.rootdata import build_root_datum",
        "for letter, rank, name in json.loads(sys.argv[1]):",
        "    datum = build_root_datum(letter, rank)",
        "    rep = extremum(datum, parse_objective(datum, name), cache_dir=sys.argv[2])",
        "    print(json.dumps(rep.to_json(), sort_keys=True))",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(requests), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == warm
