import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datum_oracle
from charbounds import rootdata
from charbounds.polynomials import qq
from charbounds.rootdata import (
    EnumerationCapError,
    InvalidTypeError,
    build_root_datum,
    cartan_matrix,
    corners,
    weyl_elements,
    weyl_min_trace,
    weyl_orbit,
    weyl_stabilizer_order,
)

ALL_SMALL = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
    ("D", 4), ("G", 2), ("F", 4),
]


def test_invalid_types():
    with pytest.raises(InvalidTypeError):
        build_root_datum("B", 1)
    with pytest.raises(InvalidTypeError):
        build_root_datum("E", 9)
    with pytest.raises(InvalidTypeError):
        build_root_datum("H", 4)
    with pytest.raises(InvalidTypeError):
        build_root_datum("G", 3)


def test_cartan_g2_convention():
    # alpha_1 short: the -3 sits in row 1 (0-indexed row 0)
    assert cartan_matrix("G", 2) == ((2, -3), (-1, 2))


def test_form_A_frozen_values():
    a1 = build_root_datum("A", 1)
    assert a1.form_A == ((qq(2),),)
    g2 = build_root_datum("G", 2)
    assert g2.form_A == ((qq(4), qq(6)), (qq(6), qq(12)))
    b2 = build_root_datum("B", 2)
    assert b2.form_A == ((qq(8), qq(4)), (qq(4), qq(4)))
    a2 = build_root_datum("A", 2)
    assert a2.form_A == ((qq(4), qq(2)), (qq(2), qq(4)))


def test_short_root_normalization():
    # pairing(alpha, alpha) = 2 |P/Q| on short roots
    for letter, rank in ALL_SMALL:
        d = build_root_datum(letter, rank)
        shortest = min(d.norm2(r) for r in d.positive_roots)
        assert shortest == 2 * d.fundamental_group_order


def test_classification_counts():
    expected = {
        ("A", 1): (3, 2, 2), ("A", 2): (8, 6, 3), ("A", 3): (15, 24, 4),
        ("B", 2): (10, 8, 2), ("B", 3): (21, 48, 2), ("C", 3): (21, 48, 2),
        ("D", 4): (28, 192, 4), ("G", 2): (14, 12, 1), ("F", 4): (52, 1152, 1),
    }
    for (letter, rank), (dim, worder, pq) in expected.items():
        d = build_root_datum(letter, rank)
        assert d.dim == dim
        assert d.weyl_order == worder
        assert d.fundamental_group_order == pq
        assert 2 * len(d.positive_roots) + rank == dim


def test_exceptional_structure():
    e6 = build_root_datum("E", 6)
    assert (e6.dim, e6.weyl_order, e6.fundamental_group_order) == (78, 51840, 3)
    e7 = build_root_datum("E", 7)
    assert (e7.dim, e7.weyl_order, e7.fundamental_group_order) == (133, 2903040, 2)
    e8 = build_root_datum("E", 8)
    assert (e8.dim, e8.weyl_order, e8.fundamental_group_order) == (248, 696729600, 1)
    assert e8.a_coeffs == (2, 3, 4, 6, 5, 4, 3, 2)
    assert e8.highest_root == (0, 0, 0, 0, 0, 0, 0, 1)
    f4 = build_root_datum("F", 4)
    assert f4.a_coeffs == (2, 3, 4, 2)
    g2 = build_root_datum("G", 2)
    assert g2.a_coeffs == (3, 2)
    assert g2.highest_root == (0, 1)


def test_root_lengths():
    g2 = build_root_datum("G", 2)
    assert sorted({int(g2.norm2(r)) for r in g2.positive_roots}) == [2, 6]
    b2 = build_root_datum("B", 2)
    assert sorted({int(b2.norm2(r)) for r in b2.positive_roots}) == [4, 8]
    f4 = build_root_datum("F", 4)
    longs = [r for r in f4.positive_roots if f4.norm2(r) == 4]
    assert len(longs) == 12


def test_orbit_sizes():
    g2 = build_root_datum("G", 2)
    assert len(weyl_orbit(g2, g2.highest_root)) == 6
    assert len(weyl_orbit(g2, (1, 0))) == 6
    assert len(weyl_orbit(g2, (1, 1))) == 12
    a2 = build_root_datum("A", 2)
    assert len(weyl_orbit(a2, (1, 0))) == 3


def test_stabilizer_orders():
    f4 = build_root_datum("F", 4)
    assert weyl_stabilizer_order(f4, (0, 0, 0, 0)) == 1152
    assert weyl_stabilizer_order(f4, (1, 1, 1, 1)) == 1
    e8 = build_root_datum("E", 8)
    # zero set of the highest root leaves an E7 diagram
    assert weyl_stabilizer_order(e8, e8.highest_root) == 2903040
    e6 = build_root_datum("E", 6)
    # dropping the branch-top node leaves an A5 chain
    assert weyl_stabilizer_order(e6, (0, 1, 0, 0, 0, 0)) == 720
    d4 = build_root_datum("D", 4)
    # dropping the central node leaves three isolated A1's
    assert weyl_stabilizer_order(d4, (0, 1, 0, 0)) == 8


@pytest.mark.parametrize(
    "letter, rank",
    [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)],
)
def test_orbit_sizes_match_macdonald_orders(letter, rank):
    # the orbit search is the independent oracle for |W| / |W_J|
    d = build_root_datum(letter, rank)
    for w in itertools.product((0, 1), repeat=rank):
        assert d.weyl_order // weyl_stabilizer_order(d, w) == len(weyl_orbit(d, w))


def test_minus_w0():
    assert build_root_datum("A", 2).minus_w0 == (1, 0)
    assert build_root_datum("A", 3).minus_w0 == (2, 1, 0)
    assert build_root_datum("G", 2).minus_w0 == (0, 1)
    assert build_root_datum("B", 3).minus_w0 == (0, 1, 2)
    assert build_root_datum("D", 4).minus_w0 == (0, 1, 2, 3)
    e6 = build_root_datum("E", 6)
    assert e6.minus_w0 == (5, 1, 4, 3, 2, 0)


def test_minus_one_in_weyl():
    yes = [("A", 1), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
    no = [("A", 2), ("A", 3), ("D", 5), ("E", 6)]
    for letter, rank in yes:
        assert build_root_datum(letter, rank).minus_one_in_weyl()
    for letter, rank in no:
        assert not build_root_datum(letter, rank).minus_one_in_weyl()


@given(st.sampled_from([("A", 2), ("B", 2), ("G", 2), ("A", 3)]),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_pairing_reflection_invariant(tp, u, v, i):
    d = build_root_datum(*tp)
    u = tuple(u[: d.rank])
    v = tuple(v[: d.rank])
    i = i % d.rank
    assert d.pairing(u, v) == d.pairing(d.reflect(i, u), d.reflect(i, v))


def test_pairing_positive_definite():
    for letter, rank in ALL_SMALL:
        d = build_root_datum(letter, rank)
        for w in d.fundamental_weights:
            assert d.norm2(w) > 0


def test_weyl_elements_counts_and_signs():
    for tp in [("A", 2), ("B", 2), ("G", 2)]:
        d = build_root_datum(*tp)
        els, signs = weyl_elements(d, with_sign=True)
        assert len(els) == d.weyl_order
        assert sum(signs) == 0
        assert sorted(signs)[0] == -1


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


@pytest.mark.parametrize("letter, rank", [("A", 2), ("B", 3), ("G", 2), ("F", 4)])
def test_weyl_elements_form_the_group(letter, rank):
    d = build_root_datum(letter, rank)
    els, signs = weyl_elements(d, with_sign=True)
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    assert els[0] == ident and signs[0] == 1
    assert len(set(els)) == len(els) == d.weyl_order
    for w, sign in zip(els, signs):
        assert _det(w) == sign
    group = set(els)
    for i in range(rank):
        # s_i fixes every fundamental weight but omega_i, which it sends
        # to omega_i - alpha_i; the columns are the images
        alpha = d.simple_roots[i]
        s_i = tuple(
            tuple(int(k == j) - (alpha[k] if j == i else 0) for j in range(rank))
            for k in range(rank)
        )
        for w in els:
            prod = tuple(
                tuple(sum(w[r][k] * s_i[k][c] for k in range(rank)) for c in range(rank))
                for r in range(rank)
            )
            assert prod in group


def test_weyl_min_trace_values():
    assert weyl_min_trace(build_root_datum("G", 2)) == -2
    assert weyl_min_trace(build_root_datum("A", 2)) == -1
    assert weyl_min_trace(build_root_datum("B", 2)) == -2
    assert weyl_min_trace(build_root_datum("F", 4)) == -4
    assert weyl_min_trace(build_root_datum("A", 1)) == -1


def test_weyl_enumeration_cap():
    e8 = build_root_datum("E", 8)
    with pytest.raises(EnumerationCapError, match="refused"):
        weyl_min_trace(e8, cap=1000)


def test_a1_corners():
    a1 = build_root_datum("A", 1)
    cs = corners(a1)
    assert len(cs) == 2
    assert cs[0].order == 1
    vals = sorted(int(c.values[0].as_rational()) for c in cs)
    assert vals == [-2, 2]


def test_corner_column_subset():
    g2 = build_root_datum("G", 2)
    cs = corners(g2, columns=[2])
    got = sorted(int(c.values[0].as_rational()) for c in cs)
    assert got == [-2, 5, 14]
    with pytest.raises(ValueError):
        corners(g2, columns=[3])


ALL_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


@pytest.mark.parametrize("form_scale", [1, 3])
@pytest.mark.parametrize("letter, rank", ALL_TYPES)
def test_integer_datum_matches_rational_oracle(letter, rank, form_scale):
    d = rootdata._build_root_datum(letter, rank, form_scale)
    want = datum_oracle.rational_datum(letter, rank, form_scale)
    det = d.fundamental_group_order
    assert det == want["det"]
    assert tuple(tuple(qq(x, det) for x in row) for row in d.cartan_adj) == (
        want["cartan_inv"])
    assert d.positive_roots == want["positive_roots"]
    assert d.positive_root_coords == want["positive_root_coords"]
    assert d.form_A == want["form_A"]
    assert all(type(x) is int and x % 2 == 0 for row in d.form_A for x in row)


def test_form_scale_hook():
    g2 = build_root_datum("G", 2, form_scale=3)
    base = build_root_datum("G", 2)
    assert g2.form_A == tuple(
        tuple(3 * x for x in row) for row in base.form_A
    )
    assert g2.content_hash() != base.content_hash()


# -- the datum's exact checks raise, so they still run under python -O -------

def _breaks(match):
    return pytest.raises(rootdata.RootDatumError, match=match)


def test_non_symmetrizable_cartan_matrix_is_refused(monkeypatch):
    real = rootdata.cartan_matrix
    monkeypatch.setattr(rootdata, "cartan_matrix",
                        lambda letter, rank: tuple(zip(*real(letter, rank))))
    with _breaks("not symmetric"):
        rootdata._build_root_datum("B", 2)


def test_non_integral_root_coordinates_are_refused(monkeypatch):
    # twice det C over the same adjugate halves every root's coordinates
    real = rootdata._adjugate
    monkeypatch.setattr(rootdata, "_adjugate", lambda m: (
        2 * real(m)[0], real(m)[1]))
    with _breaks("non-integral"):
        rootdata._build_root_datum("G", 2)


def test_root_count_against_the_classification(monkeypatch):
    monkeypatch.setitem(rootdata._DIM_FORMULAS, "G", {2: 16})
    with _breaks("root count"):
        rootdata._build_root_datum("G", 2)


def test_a_reducible_system_has_no_highest_root(monkeypatch):
    # A1 x A1 passed off as A2, with its own dimension 6
    monkeypatch.setattr(rootdata, "cartan_matrix", lambda letter, rank: ((2, 0), (0, 2)))
    monkeypatch.setitem(rootdata._DIM_FORMULAS, "A", lambda n: 6)
    with _breaks("highest root"):
        rootdata._build_root_datum("A", 2)


def test_non_integral_cartan_determinant_is_refused(monkeypatch):
    real = rootdata._adjugate
    monkeypatch.setattr(rootdata, "_adjugate", lambda m: (qq(1, 2), real(m)[1]))
    with _breaks("determinant 1/2"):
        rootdata._build_root_datum("G", 2)


def test_vanishing_leading_minor_is_refused(monkeypatch):
    # the elimination divides by each leading minor in turn
    monkeypatch.setattr(rootdata, "cartan_matrix", lambda letter, rank: ((0, 1), (1, 0)))
    with _breaks("leading minor"):
        rootdata._build_root_datum("A", 2)


def test_minus_w0_must_permute_fundamental_weights(monkeypatch):
    monkeypatch.setattr(rootdata.RootDatum, "dominantize",
                        lambda self, n: tuple(0 for _ in n))
    with _breaks("-w0"):
        rootdata._build_root_datum("A", 2)


def test_weyl_elements_against_the_group_order():
    g2 = dataclasses.replace(build_root_datum("G", 2), weyl_order=13)
    with _breaks("12 Weyl elements, not"):
        weyl_elements(g2)
