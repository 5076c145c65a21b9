"""Symmetry-breaking oracle: minimization over A1^n restrictions."""

import math

import pytest

from charbounds import branch, compactcert
from charbounds.algsolve import Ideal
from charbounds.charring import BranchPolynomial
from charbounds.polynomials import Poly, QONE, qq
from charbounds.rootdata import build_root_datum


def bpoly(n, terms):
    return BranchPolynomial(n, Poly(n, {m: qq(c) for m, c in terms.items()}))


def box_factor(nvars, i):
    """t_i^2 - 4 as a polynomial in nvars variables."""
    sq = tuple(2 if j == i else 0 for j in range(nvars))
    return Poly(nvars, {sq: QONE, (0,) * nvars: qq(-4)})


def branch_critical_ideal(p):
    """Generators (t_i^2 - 4) * df/dt_i, one per unpinned variable."""
    g, keep = branch._substitute(p.f.poly, dict(p.pins))
    m = len(keep)
    gens = []
    for k in range(m):
        d = g.diff(k)
        if d:
            gens.append(box_factor(m, k) * d)
    return Ideal.of(m, gens)


G2_SHORT = bpoly(2, {(2, 0): 1, (1, 1): 1, (0, 0): -1})


@pytest.fixture(scope="module")
def g2_problem():
    return branch.adjoint_problem(build_root_datum("G", 2))


@pytest.fixture(scope="module")
def f4_problem():
    return branch.adjoint_problem(build_root_datum("F", 4))


def test_single_variable_ideal():
    # f = t1^2: the lone generator (t1^2-4)*2t1 vanishes exactly on {0,+-2}
    p = branch.BranchProblem.of(bpoly(1, {(2,): 1}))
    ideal = branch_critical_ideal(p)
    assert len(ideal.gens) == 1
    g = ideal.gens[0]
    for t, expect_zero in [(0, True), (2, True), (-2, True), (1, False)]:
        assert (not g.evaluate([qq(t)])) is expect_zero


def test_constant_gives_zero_ideal():
    p = branch.BranchProblem.of(bpoly(2, {(0, 0): 5}))
    assert branch_critical_ideal(p).gens == ()
    r = branch.branch_minimize(p)
    assert r.minimum.as_rational() == 5
    assert [w.as_rational() for w in r.witness] == [0, 0]


def test_pins_validated():
    f = bpoly(2, {(2, 0): 1})
    with pytest.raises(ValueError):
        branch.BranchProblem.of(f, {0: 1})
    with pytest.raises(ValueError):
        branch.BranchProblem.of(f, {5: 2})


def test_pin_substituted_before_ideal():
    # f = t1*t2 pinned at t1 = 2 leaves the univariate (t2^2-4)*2
    p = branch.BranchProblem.of(bpoly(2, {(1, 1): 1}), {0: 2})
    ideal = branch_critical_ideal(p)
    assert ideal.nvars == 1
    assert len(ideal.gens) == 1
    assert max(m[0] for m in ideal.gens[0].terms) == 2


def test_g2_adjoint_minimum(g2_problem):
    r = branch.branch_minimize(g2_problem)
    assert r.minimum.is_rational() and r.minimum.as_rational() == -2
    # the witness is a genuine box point where every generator vanishes
    assert all(abs(w.approx()) <= 2 + 1e-12 for w in r.witness)


def test_g2_critical_ideal_contains_witness(g2_problem):
    r = branch.branch_minimize(g2_problem)
    ideal = branch_critical_ideal(g2_problem)
    assert all(w.is_rational() for w in r.witness)
    vals = [qq(w.as_rational()) for w in r.witness]
    for g in ideal.gens:
        assert not g.evaluate(vals)


def test_f4_adjoint_minimum(f4_problem):
    r = branch.branch_minimize(f4_problem)
    assert r.minimum.is_rational() and r.minimum.as_rational() == -4


def test_g2_short_root_polynomial():
    r = branch.branch_minimize(branch.BranchProblem.of(G2_SHORT))
    assert r.minimum.as_rational() == -2


def test_identity_corner_is_dimension(g2_problem, f4_problem):
    for p, dim in [(g2_problem, 14), (f4_problem, 52)]:
        v = p.f.poly.evaluate([qq(2)] * p.n)
        assert v == dim


def test_f4_full_negative_pattern(f4_problem):
    # all four A1 traces at -2: an involution class; integer >= -rank
    v = f4_problem.f.poly.evaluate([qq(-2)] * 4)
    assert v.denominator == 1 and v >= -4


def test_pinning_never_beats_unpinned(g2_problem, f4_problem):
    for p in (g2_problem, f4_problem):
        base = branch.branch_minimize(p)
        for pin in ({0: 2}, {0: -2}, {p.n - 1: 2}):
            r = branch.branch_minimize(branch.BranchProblem.of(p.f, pin))
            assert r.minimum.cmp(base.minimum) >= 0


def test_agrees_with_derivation_pipeline():
    for letter, rank in [("G", 2), ("F", 4)]:
        datum = build_root_datum(letter, rank)
        rep = compactcert.extremum(datum, compactcert.adjoint_objective(datum))
        r = branch.branch_minimize(branch.adjoint_problem(datum))
        assert r.minimum.cmp(rep.minimum) == 0


def test_non_zero_dimensional_rejected():
    # f = (t1^2-4)*t2 has df/dt2 = t1^2-4, so the whole line t1 = 2 is
    # critical and the full system is not finite; split into the faces
    # t_i = +-2 and the interior, every case is, and the minimum is exact
    f = bpoly(2, {(2, 1): 1, (0, 1): -4})
    r = branch.branch_minimize(branch.BranchProblem.of(f))
    assert r.minimum.as_rational() == -8
    assert [w.as_rational() for w in r.witness] == [0, 2]


def test_points_on_several_faces_count_once():
    # f = t1^2 has df/dt1 = 2 t1, and its interior case finds only t1 = 0;
    # f = (t1 - 2)^2 puts its interior critical point on the face t1 = 2
    r = branch.branch_minimize(branch.BranchProblem.of(bpoly(1, {(2,): 1})))
    assert r.candidates == 3
    shifted = bpoly(1, {(2,): 1, (1,): -4, (0,): 4})
    r = branch.branch_minimize(branch.BranchProblem.of(shifted))
    assert r.candidates == 2
    assert r.minimum.as_rational() == 0
    assert r.witness[0].as_rational() == 2


def test_free_variable_cap():
    f = bpoly(7, {tuple(2 if j == i else 0 for j in range(7)): 1 for i in range(7)})
    with pytest.raises(ValueError):
        branch.branch_minimize(branch.BranchProblem.of(f))
    # pinning below the cap unlocks it
    r = branch.branch_minimize(
        branch.BranchProblem.of(f, {0: 2, 1: 2})
    )
    assert r.minimum.as_rational() == 8  # 4 + 4 + five free squares at 0


def test_result_json_shape(g2_problem):
    j = branch.branch_minimize(g2_problem).to_json()
    assert j["n"] == 2
    assert j["minimum"]["decimal"] == -2.0
    assert len(j["witness"]) == 2


@pytest.fixture
def solved(monkeypatch):
    """The ideals branch hands to solve_zero_dim, in order."""
    real = branch.solve_zero_dim
    seen = []
    monkeypatch.setattr(branch, "solve_zero_dim",
                        lambda ideal, **kw: seen.append(ideal) or real(ideal, **kw))
    return seen


@pytest.mark.parametrize("name, systems", [
    ("G2", 5), ("B3", 3), ("C3", 6), ("D4", 7), ("B4", 17),
])
def test_each_distinct_face_polynomial_is_solved_once(name, systems, solved):
    # the restricted trace is symmetric under permuting and negating the
    # t_i, so of the 3^n - 2^n faces with a free variable (5 for rank 2,
    # 19 for rank 3, 65 for rank 4) only a few differ
    branch.branch_minimize(branch.adjoint_problem(build_root_datum(name[0], int(name[1:]))))
    assert len(solved) == systems
    assert len({(i.nvars, i.gens) for i in solved}) == systems


def test_faces_sharing_a_polynomial_keep_their_own_points(solved):
    # f = t1^2 + t2^2: the four edges restrict to t^2 + 4, one system with
    # the one critical point t = 0, which lands at (+-2, 0) and (0, +-2);
    # with the four corners and the centre that is nine candidates
    f = bpoly(2, {(2, 0): 1, (0, 2): 1})
    found = branch._split_candidates(f.poly, branch.DEFAULT_PAIR_CAP)
    assert len(solved) == 2
    points = {tuple(c.as_rational() for c in coords): v.as_rational()
              for v, coords in found}
    assert len(found) == len(points) == 9
    for t in ((2, 0), (-2, 0), (0, 2), (0, -2)):
        assert points[t] == 4
    r = branch.branch_minimize(branch.BranchProblem.of(f))
    assert r.minimum.as_rational() == 0
    assert [w.as_rational() for w in r.witness] == [0, 0]


def test_roots_sharing_a_minimal_polynomial_are_both_kept():
    # f = t^4 - 6 t^2 has the interior critical points 0 and +-sqrt 3, the
    # last two roots of t^2 - 3 with the one value -9; the faces t = +-2
    # give -8
    f = bpoly(1, {(4,): 1, (2,): -6})
    found = branch._split_candidates(f.poly, branch.DEFAULT_PAIR_CAP)
    root3 = sorted(coords[0].approx() for _, coords in found
                   if coords[0].minpoly == (-3, 0, 1))
    assert root3 == [-math.sqrt(3), math.sqrt(3)]
    r = branch.branch_minimize(branch.BranchProblem.of(f))
    assert r.candidates == 5
    assert r.minimum.as_rational() == -9
    assert r.witness[0].minpoly == (-3, 0, 1)
