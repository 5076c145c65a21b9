import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datum_oracle
import ring_oracle
from charbounds import charring as ch
from charbounds.algsolve import CertificateError, cyclotomic_field
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import RootDatum, build_root_datum, corners

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
G2 = build_root_datum("G", 2)
F4 = build_root_datum("F", 4)


def ipoly(nvars, terms):
    return Poly(nvars, {tuple(m): c for m, c in terms.items()})


# -- irreducible characters -------------------------------------------------

def test_a1_strings():
    for d in range(8):
        c = ch.irreducible_character(A1, (d,))
        assert c.mult == {(k,): 1 for k in range(d, -1, -2)}
        assert c.dimension() == d + 1


def test_g2_fundamentals():
    f1 = ch.irreducible_character(G2, (1, 0))
    f2 = ch.irreducible_character(G2, (0, 1))
    assert f1.dimension() == 7
    assert f2.dimension() == 14
    assert f1.mult == {(1, 0): 1, (0, 0): 1}
    # adjoint: both root-orbit representatives once, zero weight with rank
    assert f2.mult == {(0, 1): 1, (1, 0): 1, (0, 0): 2}


def test_f4_fundamental_dimensions():
    dims = [
        ch.irreducible_character(F4, w).dimension()
        for w in F4.fundamental_weights
    ]
    assert dims == [52, 1274, 273, 26]


def test_adjoint_dimensions_exceptional():
    for letter, rank, dim in [("E", 6, 78), ("E", 7, 133), ("E", 8, 248)]:
        d = build_root_datum(letter, rank)
        adj = ch.irreducible_character(d, d.highest_root)
        assert adj.dimension() == dim
        assert adj.full_expansion()[(0,) * rank] == rank


@pytest.mark.parametrize(
    "letter, rank",
    [("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
     ("E", 6), ("E", 7), ("E", 8)],
)
def test_adjoint_expansion_is_the_root_system(letter, rank):
    d = build_root_datum(letter, rank)
    expected = {(0,) * rank: rank}
    for root in d.positive_roots:
        expected[root] = 1
        expected[tuple(-x for x in root)] = 1
    assert ch.irreducible_character(d, d.highest_root).full_expansion() == expected


def test_weyl_formula_mismatch_raises_under_optimize():
    # python -O strips asserts; a multiplicity or dimension that disagrees
    # with the Weyl formula must still stop the report
    probe = "\n".join([
        "from charbounds import charring",
        "from charbounds.algsolve import CertificateError",
        "from charbounds.rootdata import build_root_datum",
        "exact = charring._weyl_dimension",
        "charring._weyl_dimension = lambda datum, lam: exact(datum, lam) + 1",
        "g2 = build_root_datum('G', 2)",
        "for lam in ((1, 0), g2.highest_root):",
        "    try:",
        "        charring.irreducible_character(g2, lam)",
        "    except CertificateError:",
        "        continue",
        "    raise SystemExit('no CertificateError at %s' % (lam,))",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_fractional_weyl_dimension_is_rejected():
    # an integer division would drop a remainder; the check must raise,
    # not assert, so that python -O keeps it.  A form that is not
    # W-invariant makes the quotient 2000 / 560 at omega_1.
    skewed = dataclasses.replace(A2, form_A=((4, 2), (2, 6)))
    with pytest.raises(CertificateError, match="not an integer"):
        ch._weyl_dimension(skewed, (1, 0))


def test_fractional_coroot_pairing_is_rejected(monkeypatch):
    g2 = build_root_datum("G", 2)
    adjoint = ch.irreducible_character(g2, g2.highest_root)
    exact = RootDatum.coroot_pairing
    monkeypatch.setattr(RootDatum, "coroot_pairing",
                        lambda self, mu, beta: exact(self, mu, beta) + qq(1, 2))
    with pytest.raises(CertificateError, match="coroot"):
        ch.restrict_to_A1n(adjoint)


def test_a2_weight_multiplicity():
    adj = ch.irreducible_character(A2, (1, 1))
    assert adj.dimension() == 8
    assert adj.full_expansion()[(0, 0)] == 2


def test_b2_two_omega2():
    c = ch.irreducible_character(B2, (0, 2))
    assert c.dimension() == 10
    assert c == ch.irreducible_character(B2, B2.highest_root)


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        ch.irreducible_character(G2, (-1, 0))


def test_e8_characters_from_dominant_weights():
    # their root-coordinate boxes hold over 2,000,000 points
    e8 = build_root_datum("E", 8)
    for lam, dim, dominant in [((1, 0, 0, 0, 0, 0, 0, 0), 3875, 3),
                               ((0, 0, 0, 1, 0, 0, 0, 0), 6_899_079_264, 24)]:
        c = ch.irreducible_character(e8, lam)
        assert (c.dimension(), len(c.mult)) == (dim, dominant)


def _oracle_cases():
    for name in ["G2", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "E6"]:
        r = int(name[1:])
        unit = [tuple(k * (i == j) for j in range(r)) for i in range(r)
                for k in (1, 2)]
        ends = tuple(int(j in (0, r - 1)) for j in range(r))
        for lam in sorted(set(unit) | {ends}):
            yield name, lam
    yield "E7", (1, 0, 0, 0, 0, 0, 0)
    yield "E7", (0, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize(
    "name, lam", [pytest.param(n, lam, id="%s-%s" % (n, "".join(map(str, lam))))
                  for n, lam in _oracle_cases()])
def test_root_walk_matches_box_oracle(name, lam):
    d = build_root_datum(name[0], int(name[1:]))
    assert ch.irreducible_character(d, lam).mult == ring_oracle.box_character(d, lam)
    assert ch.QevalContext(d, [lam]).cone == ring_oracle.box_cone(d, [lam])


# -- ring operations --------------------------------------------------------

def test_multiply_a1_clebsch_gordan():
    # weight multiplicities of chi_1^2 = chi_2 + chi_0: zero occurs twice
    x1 = ch.irreducible_character(A1, (1,))
    p = ch.multiply(x1, x1)
    assert p.mult == {(2,): 1, (0,): 2}


def test_multiply_a2_std_dual():
    f1 = ch.irreducible_character(A2, (1, 0))
    f2 = ch.irreducible_character(A2, (0, 1))
    p = ch.multiply(f1, f2)
    # adjoint (zero weight twice) plus the trivial
    assert p.mult == {(1, 1): 1, (0, 0): 3}


def test_multiply_commutes_and_dims():
    for datum in (A2, B2, G2):
        fs = [ch.irreducible_character(datum, w) for w in datum.fundamental_weights]
        for a, b in itertools.product(fs, fs):
            p = ch.multiply(a, b)
            assert p == ch.multiply(b, a)
            assert p.dimension() == a.dimension() * b.dimension()


def test_multiply_associative_spot():
    f1 = ch.irreducible_character(G2, (1, 0))
    f2 = ch.irreducible_character(G2, (0, 1))
    left = ch.multiply(ch.multiply(f1, f1), f2)
    right = ch.multiply(f1, ch.multiply(f1, f2))
    assert left == right


# -- conversion to fundamental-character polynomials ------------------------

@st.composite
def small_exponents(draw):
    return (draw(st.integers(0, 2)), draw(st.integers(0, 2)))


@given(small_exponents(), st.sampled_from(["A2", "B2", "G2"]))
@settings(max_examples=24, deadline=None)
def test_conversion_round_trip(expo, name):
    datum = {"A2": A2, "B2": B2, "G2": G2}[name]
    fp = ch.FundamentalPolynomial(datum, ipoly(2, {expo: 1, (0, 0): -3}))
    elem = ch.expand(fp)
    back = ch.to_fundamental_polynomial(elem)
    assert back.poly == fp.poly


@given(small_exponents())
@settings(max_examples=12, deadline=None)
def test_strategies_agree(expo):
    f1 = ch.irreducible_character(G2, (1, 0))
    f2 = ch.irreducible_character(G2, (0, 1))
    prod = ch.multiply(
        ch.irreducible_character(G2, (expo[0], 0)),
        ch.irreducible_character(G2, (0, expo[1])),
    )
    q = ring_oracle.to_fundamental_polynomial(prod, strategy="qeval")
    s = ring_oracle.to_fundamental_polynomial(prod, strategy="subtract")
    assert q.poly == s.poly


def test_monomial_conversion_is_identity():
    f1 = ch.irreducible_character(G2, (1, 0))
    f2 = ch.irreducible_character(G2, (0, 1))
    prod = ch.multiply(f1, f2)
    fp = ch.to_fundamental_polynomial(prod)
    assert fp.poly == ipoly(2, {(1, 1): 1})


def test_conversion_rational_coefficients():
    f1 = ch.irreducible_character(G2, (1, 0))
    half = f1.scale(qq(1, 2))
    fp = ch.to_fundamental_polynomial(half)
    assert fp.poly == Poly(2, {(1, 0): qq(1, 2)})


def _schoolbook_conv(a, b):
    out = {}
    for pa, va in a.items():
        for pb, vb in b.items():
            out[pa + pb] = out.get(pa + pb, 0) + va * vb
    return {p: v for p, v in out.items() if v}


@given(
    st.dictionaries(st.integers(-40, 40), st.integers(-(2**70), 2**70), max_size=12),
    st.dictionaries(st.integers(-40, 40), st.integers(-9, 9), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_qconv_matches_naive_convolution(a, b):
    assert ch.qconv(a, b) == _schoolbook_conv(a, b)
    assert ch.qconv(b, a) == _schoolbook_conv(a, b)


_qmaps = st.builds(
    lambda offset, step, terms: {offset + step * e: c for e, c in terms.items()},
    st.integers(-50, 50), st.sampled_from([1, 2, 6]),
    st.dictionaries(st.integers(-20, 20), st.integers(-(2**70), 2**70), max_size=10),
)


@given(st.lists(st.tuples(_qmaps, _qmaps), max_size=4))
@settings(max_examples=200, deadline=None)
def test_qdot_matches_sum_of_naive_convolutions(pairs):
    # exponents on a common grid of step 1, 2 or 6, or on offset grids,
    # and sums that cancel across pairs
    want = {}
    for a, b in pairs:
        for p, v in _schoolbook_conv(a, b).items():
            want[p] = want.get(p, 0) + v
    want = {p: v for p, v in want.items() if v}
    assert ch.qdot([a for a, _ in pairs], [b for _, b in pairs]) == want
    negated = [{p: -v for p, v in b.items()} for _, b in pairs]
    assert ch.qdot([a for a, _ in pairs] * 2, [b for _, b in pairs] + negated) == {}


def test_qconv_drops_cancelled_terms_and_keeps_big_coefficients():
    # (1 + q)(1 - q) = 1 - q^2: the q^1 coefficient cancels and is absent
    assert ch.qconv({0: 1, 1: 1}, {0: 1, 1: -1}) == {0: 1, 2: -1}
    # the two products at q^0 cancel across negative exponents
    assert ch.qconv({-3: 2, 5: 1}, {3: -1, -5: 2}) == {-8: 4, 8: -1}
    big = 2**40
    a = {-1: big, 4: -big, 9: 3}
    b = {-7: -big, 0: big, 2: big + 1}
    # the absolute coefficient sums multiply past 2**62
    assert sum(map(abs, a.values())) * sum(map(abs, b.values())) > 2**62
    got = ch.qconv(a, b)
    assert got == _schoolbook_conv(a, b)
    assert len(got) == 9
    assert got[-8] == -(big**2) and got[6] == -big * (big + 1)


# -- torsion evaluation ------------------------------------------------------

def test_a1_torsion():
    f1 = ch.irreducible_character(A1, (1,))
    v = ch.evaluate_at_torsion(f1, (qq(1, 2),), 2)
    assert v.as_rational() == qq(-2)


def test_torsion_integrality_error():
    f1 = ch.irreducible_character(A1, (1,))
    with pytest.raises(ValueError, match="not integral"):
        ch.evaluate_at_torsion(f1, (qq(1, 3),), 2)


def _torsion_oracle(c, point, m):
    """The value at one torsion class, from the materialised expansion."""
    counts = [0] * m
    for nu, mult in c.full_expansion().items():
        t = m * sum(p * x for p, x in zip(point, nu))
        assert t.denominator == 1
        counts[int(t) % m] += mult
    return cyclotomic_field(m).reduce(counts)


@pytest.mark.parametrize("name, columns", [
    ("G2", None), ("B3", None), ("D4", None), ("E6", None), ("E8", (8,)),
])
def test_corners_match_per_corner_oracle(name, columns):
    d = build_root_datum(name[0], int(name[1:]))
    chars = [ch.irreducible_character(d, d.fundamental_weights[j - 1])
             for j in columns or range(1, d.rank + 1)]
    found = corners(d, columns=columns)
    assert len(found) == d.rank + 1
    for i, corner in enumerate(found):
        # the covector of the vertex of the alcove opposite node i
        point = ((qq(0),) * d.rank if i == 0
                 else tuple(x / d.a_coeffs[i - 1]
                            for x in datum_oracle.qmat_inv(d.cartan)[i - 1]))
        assert corner.order == math.lcm(*(int(x.denominator) for x in point))
        assert corner.values == tuple(
            _torsion_oracle(c, point, corner.order) for c in chars)


def test_orbit_cap_is_checked_before_any_weight():
    adj = ch.irreducible_character(G2, G2.highest_root)  # orbits 6 + 6 + 1
    with pytest.raises(ch.OrbitCapError):
        adj.orbit_walk(cap=12)
    assert sum(1 for _ in adj.orbit_walk(cap=13)) == 13


def test_torsion_integrality_error_among_several_classes():
    adj = ch.irreducible_character(G2, G2.highest_root)
    with pytest.raises(ValueError, match="not integral at order 2"):
        ch.evaluate_at_torsions(adj, [((qq(0), qq(0)), 1), ((qq(1, 3), qq(0)), 2)])


def test_g2_corner_table():
    rows = set()
    for c in corners(G2):
        rows.add(tuple(int(v.as_rational()) for v in c.values))
    assert rows == {(7, 14), (-2, 5), (-1, -2)}


def test_f4_corner_table():
    rows = set()
    for c in corners(F4):
        rows.add(tuple(int(v.as_rational()) for v in c.values))
    assert rows == {
        (52, 1274, 273, 26),
        (20, 154, -15, -6),
        (0, -10, 5, -2),
        (-2, 5, 3, -1),
        (-4, -14, -7, 2),
    }


# -- A1^n restriction ---------------------------------------------------------

G2_BRANCH = ipoly(2, {(3, 1): 1, (1, 1): -2, (2, 0): 1, (0, 2): 1, (0, 0): -2})
G2_SHORT_BRANCH = ipoly(2, {(2, 0): 1, (1, 1): 1, (0, 0): -1})


def quartics(pairs, n):
    out = {}
    for q in pairs:
        m = [0] * n
        for i in q:
            m[i - 1] = 1
        out[tuple(m)] = 1
    return out


def f4_branch_expected():
    terms = quartics([(1, 2, 3, 4)], 4)
    for i in range(4):
        m = [0] * 4
        m[i] = 2
        terms[tuple(m)] = 1
    for i, j in itertools.combinations(range(4), 2):
        m = [0] * 4
        m[i] = m[j] = 1
        terms[tuple(m)] = 1
    terms[(0, 0, 0, 0)] = -4
    return ipoly(4, terms)


E7_QUARTICS = [
    (1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6), (1, 3, 5, 7),
    (2, 4, 5, 7), (2, 3, 6, 7), (1, 4, 6, 7),
]
E8_QUARTICS = E7_QUARTICS + [
    (2, 3, 5, 8), (1, 4, 5, 8), (1, 3, 6, 8), (2, 4, 6, 8),
    (1, 2, 7, 8), (3, 4, 7, 8), (5, 6, 7, 8),
]


def en_branch_expected(n, qs):
    terms = quartics(qs, n)
    for i in range(n):
        m = [0] * n
        m[i] = 2
        terms[tuple(m)] = 1
    terms[(0,) * n] = -n
    return ipoly(n, terms)


def test_g2_branch_exact():
    adj = ch.irreducible_character(G2, G2.highest_root)
    br = ch.restrict_to_A1n(adj)
    assert br.poly == G2_BRANCH
    short = ch.irreducible_character(G2, (1, 0))
    assert ch.restrict_to_A1n(short).poly == G2_SHORT_BRANCH


def test_f4_branch_exact():
    adj = ch.irreducible_character(F4, F4.highest_root)
    assert ch.restrict_to_A1n(adj).poly == f4_branch_expected()
    short = ch.irreducible_character(F4, (0, 0, 0, 1))
    expected_short = {}
    for i, j in itertools.combinations(range(4), 2):
        m = [0] * 4
        m[i] = m[j] = 1
        expected_short[tuple(m)] = 1
    expected_short[(0, 0, 0, 0)] = 2
    assert ch.restrict_to_A1n(short).poly == ipoly(4, expected_short)


def permutation_equal(p, q, n):
    for perm in itertools.permutations(range(n)):
        remapped = {}
        for m, c in p.terms.items():
            key = tuple(m[perm[i]] for i in range(n))
            remapped[key] = c
        if remapped == q.terms:
            return True
    return False


@pytest.mark.slow
def test_e7_e8_branch_up_to_permutation():
    for letter, rank, qs in [("E", 7, E7_QUARTICS), ("E", 8, E8_QUARTICS)]:
        d = build_root_datum(letter, rank)
        adj = ch.irreducible_character(d, d.highest_root)
        br = ch.restrict_to_A1n(adj)
        assert permutation_equal(br.poly, en_branch_expected(rank, qs), rank)


def test_branch_dimension_at_identity():
    # t_i = 2 corresponds to s_i = 1
    for datum in (G2, F4):
        adj = ch.irreducible_character(datum, datum.highest_root)
        br = ch.restrict_to_A1n(adj)
        val = br.poly.evaluate((qq(2),) * br.n, convert=qq)
        assert val == datum.dim


def test_coroot_selection():
    betas = ch.find_a1n_coroots(G2)
    assert len(betas) == 2
    assert ch.find_a1n_coroots(G2) == betas  # deterministic
    assert G2.pairing(betas[0], betas[1]) == 0
    f4b = ch.find_a1n_coroots(F4)
    assert len(f4b) == 4
    long_norm = max(F4.norm2(r) for r in F4.positive_roots)
    assert all(F4.norm2(b) == long_norm for b in f4b)


def test_coroot_selection_failure():
    with pytest.raises(ValueError, match="orthogonal"):
        ch.find_a1n_coroots(A2, count=2)


def test_restrict_rejects_non_roots():
    adj = ch.irreducible_character(G2, G2.highest_root)
    with pytest.raises(ValueError):
        ch.restrict_to_A1n(adj, coroots=[(1, 1), (0, 1)])


# -- exact checks that must raise, not assert, so that they hold under -O


def test_non_injective_functional_raises(monkeypatch):
    monkeypatch.setattr(ch.QevalContext, "_pick_functional",
                        lambda self: (0,) * self.datum.rank)
    with pytest.raises(CertificateError, match="not injective"):
        ch.QevalContext(G2, [(1, 1)])


def test_leading_exponent_outside_cone_raises(monkeypatch):
    ctx = ch.QevalContext(G2, [(1, 1)])
    monkeypatch.setattr(ctx, "lookup", {})
    with pytest.raises(CertificateError, match="outside cone"):
        ctx.solve(ctx.fund_qpolys[0])
