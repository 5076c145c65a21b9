"""Shipping gate: every advertised guarantee, one check per line.

Each test re-runs one published claim end to end, with the promised
time budget enforced where a runtime is part of the claim.  Nothing
here is new coverage; the gate re-asserts the decisive facts through
the public surfaces so a regression anywhere in the pipeline trips
exactly the guarantee it breaks.
"""

import cmath
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from charbounds import branch, charring, closedform, invder
from charbounds.charring import FundamentalPolynomial, irreducible_character
from charbounds.compactcert import adjoint_objective, extremum, is_compact_point
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import (
    build_root_datum,
    corners,
    weyl_elements,
    weyl_min_trace,
)
from charbounds.su2asym import (
    eval_X,
    limit_constant,
    su2_min,
)
from closedform_oracle import chebyshev_value, min_quadratic_box, outer_reduction
from points import rank_at, rational_point

G2 = build_root_datum("G", 2)
F4 = build_root_datum("F", 4)


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("gate-cache"))


@contextmanager
def budget(seconds, label):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, "%s took %.1fs (budget %ss)" % (label, elapsed, seconds)
    print("  [%s: %.2fs, budget %ss]" % (label, elapsed, seconds))


def ipoly(nvars, terms):
    return Poly(nvars, {tuple(m): qq(c) for m, c in terms.items()})


def fundamental(datum, i):
    return FundamentalPolynomial(datum, Poly.variable(datum.rank, i))


# the worked 2x2 derivation matrix for G2, in f1/f2 coordinates
G2_MATRIX = {
    (0, 0): ipoly(2, {(2, 0): 4, (0, 1): -4, (1, 0): -16, (0, 0): -28}),
    (0, 1): ipoly(
        2, {(1, 1): 6, (2, 0): -14, (0, 1): 14, (1, 0): -16, (0, 0): 14}
    ),
    (1, 1): ipoly(
        2,
        {(3, 0): -12, (0, 2): 12, (1, 1): 24, (2, 0): -20, (0, 1): 8,
         (1, 0): 44, (0, 0): -28},
    ),
}

F4_CORNER_TABLE = {
    (1, 0, 0, 0, 0): (52, 1274, 273, 26),
    (0, 1, 0, 0, 0): (-4, -14, -7, 2),
    (0, 0, 1, 0, 0): (-2, 5, 3, -1),
    (0, 0, 0, 1, 0): (0, -10, 5, -2),
    (0, 0, 0, 0, 1): (20, 154, -15, -6),
}


def test_gate_01_g2_derivation_matrix(cache, tmp_path):
    with budget(5, "G2 matrix"):
        m = invder.derivation_matrix(G2, cache_dir=tmp_path)
    assert m.entry(0, 0) == G2_MATRIX[(0, 0)]
    assert m.entry(0, 1) == G2_MATRIX[(0, 1)]
    assert m.entry(1, 0) == G2_MATRIX[(0, 1)]
    assert m.entry(1, 1) == G2_MATRIX[(1, 1)]


def test_gate_02_g2_corners(cache):
    with budget(5, "G2 corners"):
        found = corners(G2)
    values = {tuple(v.as_rational() for v in c.values) for c in found}
    assert values == {(7, 14), (-2, 5), (-1, -2)}
    m = invder.derivation_matrix(G2, cache_dir=cache)
    for c in found:
        grid = invder.evaluate_matrix(m, c.values)
        assert all(not entry for row in grid for entry in row)


def test_gate_03_g2_adjoint_and_short_root_extrema(cache):
    rep = extremum(G2, adjoint_objective(G2), cache_dir=cache)
    assert rep.minimum.is_rational() and rep.minimum.as_rational() == -2
    assert hasattr(rep.min_witness, "kac_coordinates")

    interior = [
        r
        for r in rep.points
        if r.point.is_rational()
        and r.point.rational_coords() == (qq(7, 9), qq(10, 27))
    ]
    assert len(interior) == 1 and interior[0].compact

    msig = invder.sigma_matrix(invder.derivation_matrix(G2, cache_dir=cache))
    grid = invder.evaluate_matrix(msig, (qq(7, 9), qq(10, 27)))
    assert grid[0][0] == qq(-3200, 81)
    assert not grid[0][1] and not grid[1][0] and not grid[1][1]
    assert is_compact_point(msig, rational_point([qq(7, 9), qq(10, 27)]))

    short = extremum(G2, fundamental(G2, 0), cache_dir=cache)
    assert short.minimum.as_rational() == -2


def test_gate_04_f4_corner_table(cache):
    with budget(120, "F4 corners"):
        found = corners(F4)
    table = {
        tuple(c.kac_coordinates): tuple(v.as_rational() for v in c.values)
        for c in found
    }
    assert table == {k: tuple(map(qq, v)) for k, v in F4_CORNER_TABLE.items()}


def test_gate_05_f4_fundamental_minima(cache):
    with budget(1800, "F4 minima"):
        rep = extremum(F4, fundamental(F4, 1), cache_dir=cache)
        assert rep.minimum.minpoly == (-9604, -196, 27)
        closed_form = (98.0 / 27.0) * (1.0 - 2.0 * math.sqrt(7.0))
        assert abs(rep.minimum.approx() - closed_form) < 1e-9
        assert abs(rep.minimum.approx() - (-15.58)) < 1e-2
        assert not hasattr(rep.min_witness, "kac_coordinates")

        for column, expected in [(0, -4), (2, -15), (3, -6)]:
            r = extremum(F4, fundamental(F4, column), cache_dir=cache)
            assert r.minimum.is_rational()
            assert r.minimum.as_rational() == expected
            assert hasattr(r.min_witness, "kac_coordinates")


def test_gate_06_e8_adjoint_corners():
    e8 = build_root_datum("E", 8)
    with budget(60, "E8 adjoint corners"):
        found = corners(e8, columns=(8,))
    values = sorted(int(c.values[0].as_rational()) for c in found)
    assert values == sorted([248, -8, 24, -4, 5, -4, -2, -3, 0])


def test_gate_07_branch_oracle(cache):
    g2_adj = charring.restrict_to_A1n(irreducible_character(G2, G2.highest_root))
    assert g2_adj.poly == ipoly(
        2, {(3, 1): 1, (1, 1): -2, (2, 0): 1, (0, 2): 1, (0, 0): -2}
    )

    f4_terms = {(1, 1, 1, 1): 1, (0, 0, 0, 0): -4}
    for i in range(4):
        mono = [0] * 4
        mono[i] = 2
        f4_terms[tuple(mono)] = 1
    for i, j in itertools.combinations(range(4), 2):
        mono = [0] * 4
        mono[i] = mono[j] = 1
        f4_terms[tuple(mono)] = 1
    f4_adj = charring.restrict_to_A1n(irreducible_character(F4, F4.highest_root))
    assert f4_adj.poly == ipoly(4, f4_terms)

    e7_quartics = [
        (1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6), (1, 3, 5, 7),
        (2, 4, 5, 7), (2, 3, 6, 7), (1, 4, 6, 7),
    ]
    e8_quartics = e7_quartics + [
        (2, 3, 5, 8), (1, 4, 5, 8), (1, 3, 6, 8), (2, 4, 6, 8),
        (1, 2, 7, 8), (3, 4, 7, 8), (5, 6, 7, 8),
    ]
    for rank, quartics in [(7, e7_quartics), (8, e8_quartics)]:
        d = build_root_datum("E", rank)
        terms = {(0,) * rank: -rank}
        for i in range(rank):
            mono = [0] * rank
            mono[i] = 2
            terms[tuple(mono)] = 1
        for q in quartics:
            mono = [0] * rank
            for i in q:
                mono[i - 1] = 1
            terms[tuple(mono)] = 1
        expected = ipoly(rank, terms)
        got = charring.restrict_to_A1n(
            irreducible_character(d, d.highest_root)
        ).poly
        match = any(
            {
                tuple(m[p[i]] for i in range(rank)): c
                for m, c in got.terms.items()
            }
            == expected.terms
            for p in itertools.permutations(range(rank))
        )
        assert match, "E%d restriction differs by more than a relabeling" % rank

    assert branch.branch_minimize(branch.adjoint_problem(G2)).minimum.as_rational() == -2
    assert branch.branch_minimize(branch.adjoint_problem(F4)).minimum.as_rational() == -4
    # same numbers the derivation pipeline certifies in gates 3 and 5
    assert extremum(G2, adjoint_objective(G2), cache_dir=cache).minimum.as_rational() == -2
    assert extremum(F4, adjoint_objective(F4), cache_dir=cache).minimum.as_rational() == -4


def test_gate_08_weyl_trace_cross_check(cache):
    for letter, rank, expected in [
        ("G", 2, -2), ("F", 4, -4), ("A", 2, -1), ("B", 2, -2),
    ]:
        d = build_root_datum(letter, rank)
        assert weyl_min_trace(d) == expected
        rep = extremum(d, adjoint_objective(d), cache_dir=cache)
        assert rep.minimum.as_rational() == expected


def test_gate_09_closed_form_suite():
    for n in range(1, 9):
        assert closedform.trace_bounds("A", n, 1).bounds() == (-1, n * n + 2 * n)
    for letter, rank in [
        ("A", 1), ("B", 4), ("C", 3), ("D", 6), ("E", 7), ("E", 8),
        ("F", 4), ("G", 2),
    ]:
        e = closedform.trace_bounds(letter, rank, 1)
        assert e.lower == -rank and e.upper == closedform._dim(letter, rank)
    assert closedform.trace_bounds("D", 5, 2).bounds() == (-5, 27)
    assert closedform.trace_bounds("E", 6, 2).bounds() == (-6, 26)
    assert closedform.trace_bounds("D", 4, 3).bounds() == (-2, 7)
    assert closedform.trace_bounds("A", 4, 2).bounds() == (-4, 4)
    assert closedform.trace_bounds("A", 5, 2).bounds() == (-5, 7)

    reduced_pairs = (
        [("A", n, 2) for n in range(2, 9)]
        + [("D", n, 2) for n in range(4, 9)]
        + [("D", 4, 3), ("E", 6, 2)]
    )
    for letter, rank, s in reduced_pairs:
        red = outer_reduction(letter, rank, s)
        assert red.bounds() == closedform.trace_bounds(letter, rank, s).bounds()

    for n in range(1, 11):
        best = min(
            sum(qq(t[i]) * t[j] for i in range(n) for j in range(i + 1, n))
            for t in itertools.product((-1, 0, 1), repeat=n)
        )
        assert min_quadratic_box(n) == best

    for n in range(2, 6):
        assert closedform.short_root_min("B", n) == (1 - 2 * n, 2 * n + 1)
    assert closedform.short_root_min("C", 3) == (-2, 14)
    assert closedform.short_root_min("C", 4) == (-5, 27)
    assert closedform.short_root_min("C", 6) == (-7, 65)
    assert closedform.short_root_min("F", 4) == (-6, 26)
    assert closedform.short_root_min("G", 2) == (-2, 7)


def _random_regular(datum, pairing, roots, rng):
    while True:
        v = rng.uniform(-1.5, 1.5, datum.rank) + 1j * rng.uniform(
            -1.0, 1.0, datum.rank
        )
        if np.all(np.abs(roots @ pairing @ v / 2.0) > 1e-6):
            return v


def test_gate_10_su2_and_limit_function():
    m6 = su2_min(6)
    assert m6.minpoly == (-49, 14, 27)
    closed_form = -(7.0 / 27.0) * (1.0 + 2.0 * math.sqrt(7.0))
    assert abs(m6.approx() - closed_form) < 1e-6
    assert round(m6.approx(), 3) == -1.631

    for d in range(1, 22, 2):
        m = su2_min(d)
        assert m.is_rational() and m.as_rational() == -(d + 1)

    c, theta0 = limit_constant()
    assert abs(c - 0.2172) < 1e-4
    assert abs(theta0 - 4.493) < 1e-3

    rng = np.random.default_rng(1202)
    for letter, rank in [("A", 1), ("A", 2), ("B", 2)]:
        datum = build_root_datum(letter, rank)
        pairing = np.array([[float(x) for x in row] for row in datum.form_A])
        roots = np.array([[float(x) for x in r] for r in datum.positive_roots])
        mats = weyl_elements(datum)
        characters = {}
        zero = (0,) * rank
        for _ in range(100):
            s = _random_regular(datum, pairing, roots, rng)
            t = _random_regular(datum, pairing, roots, rng)
            base = eval_X(datum, tuple(s), tuple(t)).value
            # (a) symmetry
            assert abs(eval_X(datum, tuple(t), tuple(s)).value - base) < 1e-9
            # (b) scaling by a complex unit
            u = 0.83 + 0.41j
            assert (
                abs(
                    eval_X(datum, tuple(u * s), tuple(t)).value
                    - eval_X(datum, tuple(s), tuple(u * t)).value
                )
                < 1e-9
            )
            # (c) Weyl invariance
            w = mats[int(rng.integers(len(mats)))]
            assert abs(eval_X(datum, tuple(s), tuple(np.array(w) @ t)).value - base) < 1e-9
            # (d) normalization on the degenerate axis
            assert eval_X(datum, zero, tuple(t)).value == 1.0
            # dominance: normalized characters equal the X ratio
            lam = tuple(int(x) for x in rng.integers(0, 3, rank))
            if lam not in characters:
                characters[lam] = irreducible_character(datum, lam)
            ch = characters[lam]
            tdir = rng.uniform(-1.0, 1.0, rank)
            val = 0j
            for wt, mult in ch.full_expansion().items():
                val += mult * cmath.exp(
                    1j * (np.array(wt, dtype=float) @ pairing @ tdir / 2.0)
                )
            lhs = val / ch.dimension()
            it = tuple(1j * tdir)
            ratio = (
                eval_X(datum, tuple(l + 1 for l in lam), it).value
                / eval_X(datum, datum.rho, it).value
            )
            assert abs(lhs - ratio) < 1e-9

    for tau in (1.0, 2.0, 4.0):
        scaled = chebyshev_value(200, 2.0 * math.cos(tau / 200.0)) / 201.0
        assert abs(scaled - math.sin(tau) / tau) < 1e-2


def test_gate_11_property_suites_and_determinism(cache):
    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2), ("F", 4)]:
        d = build_root_datum(letter, rank)
        m = invder.derivation_matrix(d, cache_dir=cache)
        ms = invder.sigma_matrix(m)
        for i in range(rank):
            for j in range(rank):
                assert m.entries[i][j] == m.entries[j][i]
                assert ms.entries[j][i] == invder.permute_variables(
                    ms.entries[i][j], d.minus_w0
                )
        for c in corners(d):
            grid = invder.evaluate_matrix(m, c.values)
            assert all(not entry for row in grid for entry in row)
            assert rank_at(m, c.values) == 0
        generic = tuple(qq(29 + 3 * j, 7) for j in range(rank))
        assert rank_at(m, generic) == rank

    base = invder.derivation_matrix(G2, cache_dir=cache)
    scaled = invder.derivation_matrix(
        build_root_datum("G", 2, form_scale=5), cache_dir=cache
    )
    for i in range(2):
        for j in range(2):
            assert scaled.entries[i][j] == base.entries[i][j].scale(qq(5))
    rep5 = extremum(
        build_root_datum("G", 2, form_scale=5),
        adjoint_objective(build_root_datum("G", 2, form_scale=5)),
        cache_dir=cache,
    )
    rep1 = extremum(G2, adjoint_objective(G2), cache_dir=cache)
    assert rep5.minimum.cmp(rep1.minimum) == 0
    assert rep5.maximum.cmp(rep1.maximum) == 0
    assert [r.compact for r in rep5.points] == [r.compact for r in rep1.points]

    freeze = lambda rep: json.dumps(rep.to_json(), sort_keys=True)
    again = extremum(G2, adjoint_objective(G2), cache_dir=cache)
    assert freeze(rep1) == freeze(again)
    f2_once = extremum(F4, fundamental(F4, 1), cache_dir=cache)
    f2_twice = extremum(F4, fundamental(F4, 1), cache_dir=cache)
    assert freeze(f2_once) == freeze(f2_twice)


def test_gate_12_a1_acceptance_region(tmp_path):
    a1 = build_root_datum("A", 1)
    msig = invder.sigma_matrix(invder.derivation_matrix(a1, cache_dir=tmp_path))
    probes = [qq(-3), qq(-2), qq(-1), qq(0), qq(1), qq(2), qq(5, 2)]
    inside = [is_compact_point(msig, rational_point([t])) for t in probes]
    assert inside == [False, True, True, True, True, True, False]
