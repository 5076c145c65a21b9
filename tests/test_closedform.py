"""Closed-form bound table, toral formulas, and the folding cross-check."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from charbounds import closedform as cf
from charbounds.algsolve import cyclotomic_field
from charbounds.polynomials import qq
from closedform_oracle import (
    acts_as_minus_one,
    min_quadratic_box,
    outer_reduction,
    toral_trace,
)


def test_adjoint_bounds_a_type():
    for n in range(1, 9):
        e = cf.trace_bounds("A", n, 1)
        assert e.bounds() == (-1, n * n + 2 * n)


def test_adjoint_bounds_spec_rows():
    assert cf.trace_bounds("D", 5, 2).bounds() == (-5, 27)
    assert cf.trace_bounds("D", 7, 2).bounds() == (-7, 65)
    assert cf.trace_bounds("E", 6, 2).bounds() == (-6, 26)
    assert cf.trace_bounds("E", 6, 1).bounds() == (-3, 78)
    assert cf.trace_bounds("D", 4, 3).bounds() == (-2, 7)
    assert cf.trace_bounds("D", 6, 2).bounds() == (-4, 44)
    assert cf.trace_bounds("A", 4, 2).bounds() == (-4, 4)
    assert cf.trace_bounds("A", 5, 2).bounds() == (-5, 7)


def test_minus_one_components_hit_minus_rank():
    for letter, rank in [
        ("A", 1), ("B", 4), ("C", 3), ("D", 6), ("E", 7), ("E", 8),
        ("F", 4), ("G", 2),
    ]:
        e = cf.trace_bounds(letter, rank, 1)
        assert acts_as_minus_one(letter, rank, 1)
        assert e.lower == -rank
        assert e.upper == cf._dim(letter, rank)
    for letter, rank in [("A", 4), ("D", 5), ("E", 6)]:
        assert acts_as_minus_one(letter, rank, 2)
        assert cf.trace_bounds(letter, rank, 2).lower == -rank


def test_bound_entry_invariants_all_ranks():
    for e in cf.bounds_table(8):
        dim = cf._dim(e.letter, e.rank)
        assert -dim <= e.lower <= e.upper <= dim
        if acts_as_minus_one(e.letter, e.rank, e.s):
            assert e.lower == -e.rank
        if e.s == 1:
            assert e.upper == dim


def test_invalid_outer_order_rejected():
    for letter, rank, s in [("B", 3, 2), ("G", 2, 2), ("A", 1, 2),
                            ("D", 5, 3), ("E", 7, 2), ("F", 4, 3)]:
        with pytest.raises(ValueError):
            cf.trace_bounds(letter, rank, s)
    with pytest.raises(ValueError):
        cf.trace_bounds("H", 4, 1)


def test_short_root_table():
    for n in range(2, 6):
        assert cf.short_root_min("B", n) == (1 - 2 * n, 2 * n + 1)
    assert cf.short_root_min("C", 4) == (-5, 27)
    assert cf.short_root_min("C", 3) == (-2, 14)
    assert cf.short_root_min("C", 6) == (-7, 65)
    assert cf.short_root_min("F", 4) == (-6, 26)
    assert cf.short_root_min("G", 2) == (-2, 7)
    for letter, rank in [("A", 3), ("D", 4), ("E", 6)]:
        with pytest.raises(ValueError):
            cf.short_root_min(letter, rank)


def test_min_quadratic_box_small():
    assert min_quadratic_box(1) == 0
    assert min_quadratic_box(2) == -1
    assert min_quadratic_box(3) == -1
    assert min_quadratic_box(4) == -2


def test_min_quadratic_box_brute_force():
    # q is multilinear, so the box minimum sits on a vertex; sweeping
    # {-1,0,1}^n covers the vertices and the degenerate faces
    for n in range(1, 11):
        best = min(
            sum(
                qq(t[i]) * t[j]
                for i in range(n)
                for j in range(i + 1, n)
            )
            for t in product((-1, 0, 1), repeat=n)
        )
        assert best == min_quadratic_box(n)


def test_toral_trace_identity_element():
    for n in range(2, 7):
        v = toral_trace("D", n, "adjoint", [2] * n)
        assert v == 2 * n * n - n
        assert toral_trace("C", n, "adjoint", [2] * n) == n * (2 * n + 1)
        assert toral_trace("B", n, "adjoint", [2] * n) == n * (2 * n + 1)


def test_toral_trace_short_root_rows():
    for n in range(2, 7):
        assert toral_trace("B", n, "short-root", [-2] * n) == 1 - 2 * n
        assert toral_trace("C", n, "short-root", [2] * n) == (
            cf.short_root_min("C", n)[1]
        )


def test_c_short_root_minimum_witnessed():
    # the quadratic-box construction scaled by 2 attains the table value
    for n in range(2, 8):
        a = n // 2
        ts = [2] * a + [-2] * (n - a)
        assert toral_trace("C", n, "short-root", ts) == (
            cf.short_root_min("C", n)[0]
        )


def test_unsupported_toral_formula():
    with pytest.raises(ValueError):
        toral_trace("D", 4, "short-root", [0] * 4)
    with pytest.raises(ValueError):
        toral_trace("A", 3, "adjoint", [0] * 3)
    with pytest.raises(ValueError):
        toral_trace("B", 3, "adjoint", [0] * 4)


def test_a_type_adjoint_norm_identity():
    # SU(n) diagonal with root-of-unity eigenvalues: Tr Ad picks up one
    # summand per root pair, and equals |Tr g|^2 - 1 exactly
    for m, exps in [(12, (1, 3, 8)), (5, (1, 2, 2)), (8, (1, 1, 6)),
                    (7, (3, 3, 1))]:
        zs = [cyclotomic_field(m).generator() ** e for e in exps]
        det = zs[0]
        for z in zs[1:]:
            det = det * z
        zs.append(det.conjugate())  # force determinant 1
        tr = zs[0]
        for z in zs[1:]:
            tr = tr + z
        ad = cyclotomic_field(m).from_rational(len(zs) - 1)
        for i in range(len(zs)):
            for j in range(len(zs)):
                if i != j:
                    ad = ad + zs[i] * zs[j].conjugate()
        assert ad == tr * tr.conjugate() - 1
        assert ad.is_real()
        assert ad.approx().real >= -1 - 1e-9


@given(
    st.integers(2, 6),
    st.lists(st.integers(-8, 8), min_size=6, max_size=6),
)
def test_c_short_root_never_below_table(n, quarters):
    ts = [qq(q, 4) for q in quarters[:n]]
    assert toral_trace("C", n, "short-root", ts) >= (
        cf.short_root_min("C", n)[0]
    )


def test_outer_reduction_matches_table():
    pairs = (
        [("A", n, 2) for n in range(2, 9)]
        + [("D", n, 2) for n in range(4, 9)]
        + [("D", 4, 3), ("E", 6, 2)]
    )
    for letter, rank, s in pairs:
        red = outer_reduction(letter, rank, s)
        tab = cf.trace_bounds(letter, rank, s)
        assert red.bounds() == tab.bounds()
        assert red.provenance == "reduction-computed"
        assert tab.provenance == "table-row"


def test_outer_reduction_uncovered_pairs():
    for letter, rank, s in [("B", 3, 2), ("E", 7, 2), ("G", 2, 2),
                            ("A", 4, 1)]:
        with pytest.raises(ValueError):
            outer_reduction(letter, rank, s)


def test_d_lemma_linkage():
    for n in range(4, 11):
        v = 4 * min_quadratic_box(n) + n
        assert v == cf.trace_bounds("D", n, 1).lower
        assert v == (-n if n % 2 == 0 else 2 - n)


def test_provenance_tags():
    assert cf.trace_bounds("B", 3, 1).provenance == "theorem-case"
    assert cf.trace_bounds("E", 8, 1).provenance == "theorem-case"
    assert cf.trace_bounds("E", 6, 2).provenance == "table-row"
    assert cf.trace_bounds("A", 2, 1).provenance == "table-row"


def test_d4_triality_row_value():
    assert cf.trace_bounds("D", 4, 3).lower == -2


def test_json_shape():
    j = cf.trace_bounds("E", 6, 2).to_json()
    assert j == {
        "type": "E6", "s": 2, "min": "-6", "max": "26",
        "provenance": "table-row",
    }
