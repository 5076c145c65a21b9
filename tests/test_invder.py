import dataclasses
import itertools
import json
from pathlib import Path

import pytest

import ring_oracle
from charbounds import charring as ch
from charbounds import invder
from charbounds.algsolve import CertificateError
from charbounds.compactcert import is_compact_point
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import (
    EnumerationCapError,
    build_root_datum,
    corners,
)
from points import rank_at, rational_point

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
G2 = build_root_datum("G", 2)


def ipoly(nvars, terms):
    return Poly(nvars, {tuple(m): qq(c) for m, c in terms.items()})


# frozen from the worked 2x2 example: entries of M for the G2 datum
G2_M11 = ipoly(2, {(2, 0): 4, (0, 1): -4, (1, 0): -16, (0, 0): -28})
G2_M12 = ipoly(2, {(1, 1): 6, (2, 0): -14, (0, 1): 14, (1, 0): -16, (0, 0): 14})
G2_M22 = ipoly(
    2,
    {(3, 0): -12, (0, 2): 12, (1, 1): 24, (2, 0): -20, (0, 1): 8, (1, 0): 44,
     (0, 0): -28},
)


def test_apply_DA_a1():
    e1 = ch.CharacterElement(A1, {(1,): 1})
    assert ring_oracle.apply_DA(A1, e1).mult == {(1,): 1}
    e2 = ch.CharacterElement(A1, {(2,): 1})
    assert ring_oracle.apply_DA(A1, e2).mult == {(2,): 4}
    triv = ch.trivial_character(A1)
    assert ring_oracle.apply_DA(A1, triv).is_zero()


def test_apply_CA_a1():
    out = ring_oracle.apply_CA(A1, {(1,): 1})
    assert out == {(1,): 3}
    assert ring_oracle.apply_CA(A1, {(0,): 5}) == {}


def test_biderivation_kills_constants():
    f1 = ch.irreducible_character(G2, (1, 0))
    one = ch.trivial_character(G2)
    assert ring_oracle.biderivation(G2, f1, one).poly.is_zero()


def test_biderivation_a1():
    f1 = ch.irreducible_character(A1, (1,))
    m11 = ring_oracle.biderivation(A1, f1, f1)
    assert m11.poly == ipoly(1, {(2,): 2, (0,): -8})


def test_g2_matrix_exact(tmp_path):
    m = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    assert m.entry(0, 0) == G2_M11
    assert m.entry(0, 1) == G2_M12
    assert m.entry(1, 0) == G2_M12
    assert m.entry(1, 1) == G2_M22


def test_g2_matrix_matches_ring_strategies(tmp_path):
    fast = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    slow = ring_oracle.derivation_entries(G2, strategy="subtract")
    assert fast.entries == slow


# cache files written by the earlier r^2 rational route; E7's is also the
# warm fixture of the E7 solver test in test_cli
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["G2", "B3", "C4", "F4", "E6", "E7"])
def test_cold_matrix_reproduces_golden_cache_bytes(tmp_path, name):
    datum = build_root_datum(name[0], int(name[1:]))
    invder.derivation_matrix(datum, cache_dir=str(tmp_path), allow_large=True)
    (written,) = tmp_path.iterdir()
    assert written.read_bytes() == (GOLDEN / ("matrix-%s.json" % name)).read_bytes()


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C3", "D4", "G2"])
def test_integer_route_matches_r2_rational_oracle(name):
    datum = build_root_datum(name[0], int(name[1:]))
    assert invder._entries_qeval(datum) == ring_oracle.derivation_entries_r2(datum)


def test_fractional_form_is_refused(tmp_path):
    # every q-coefficient is an integer only when form_A is; the check
    # must hold on a cache hit too
    third = dataclasses.replace(
        G2, form_A=tuple(tuple(qq(x, 3) for x in row) for row in G2.form_A)
    )
    invder.derivation_matrix(G2, cache_dir=tmp_path)
    for cache_dir in (tmp_path, tmp_path / "empty"):
        with pytest.raises(CertificateError, match="not integral"):
            invder.derivation_matrix(third, cache_dir=cache_dir)
    assert not (tmp_path / "empty").exists()


def test_casimir_route_agrees():
    # D_A and C_A induce the same biderivation
    for datum in (A1, A2, G2):
        funds = ch.fundamental_characters(datum)
        for f, g in itertools.combinations_with_replacement(funds, 2):
            da = ring_oracle.biderivation(datum, f, g, operator="DA")
            ca = ring_oracle.biderivation(datum, f, g, operator="CA")
            assert da.poly == ca.poly


@pytest.mark.slow
def test_casimir_route_agrees_f4():
    f4 = build_root_datum("F", 4)
    funds = ch.fundamental_characters(f4)
    da = ring_oracle.biderivation(f4, funds[0], funds[3], operator="DA")
    ca = ring_oracle.biderivation(f4, funds[0], funds[3], operator="CA")
    assert da.poly == ca.poly


def test_matrix_cache_round_trip(tmp_path):
    cold = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    assert not cold.cache_hit
    warm = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    assert warm.cache_hit
    assert warm.entries == cold.entries
    assert json.dumps(warm.to_json(), sort_keys=True) == json.dumps(
        cold.to_json(), sort_keys=True
    )


def test_matrix_cache_corruption_recovers(tmp_path):
    cold = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    path = invder._cache_path(G2, str(tmp_path))
    data = json.load(open(path))
    data["hash"] = "0" * 16
    json.dump(data, open(path, "w"))
    again = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    assert not again.cache_hit
    assert again.entries == cold.entries


def test_matrix_cache_entry_out_of_range_is_a_miss(tmp_path):
    cold = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    path = invder._cache_path(G2, str(tmp_path))
    data = json.load(open(path))
    data["entries"][0][0] = G2.rank
    json.dump(data, open(path, "w"))
    assert not invder.is_cached(G2, str(tmp_path))
    again = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    assert not again.cache_hit
    assert again.entries == cold.entries
    assert invder.is_cached(G2, str(tmp_path))


@pytest.mark.parametrize("letter, rank", [("F", 4), ("A", 3)])
def test_each_distinct_entry_is_evaluated_once(letter, rank, tmp_path, monkeypatch):
    datum = build_root_datum(letter, rank)
    m = invder.derivation_matrix(datum, cache_dir=tmp_path)
    msig = invder.sigma_matrix(m)
    evaluated = []
    real = Poly.evaluate
    monkeypatch.setattr(
        Poly, "evaluate", lambda p, *a, **k: evaluated.append(p) or real(p, *a, **k)
    )
    # fixed by -w0, where the sigma matrix is symmetric
    point = rational_point([qq(1, k + datum.minus_w0[k] + 2) for k in range(rank)])
    for matrix in (m, msig):
        evaluated.clear()
        is_compact_point(matrix, point)
        assert len(evaluated) == len({id(p) for p in evaluated})
        assert {id(p) for p in evaluated} == {id(e) for row in matrix.entries for e in row}
    r = rank
    if letter == "F":
        assert msig.entries == m.entries and len(evaluated) == r * (r + 1) // 2
    else:
        # -w0 permutes the rows of A3: (0, 1) and (1, 0) of the sigma matrix
        # are two Polys, both evaluated, so the symmetry check compares two
        # values
        a, b = msig.entries[0][1], msig.entries[1][0]
        assert a is not b and {id(a), id(b)} <= {id(p) for p in evaluated}


def test_cold_matrix_walks_each_orbit_once(monkeypatch):
    # one walk per dominant weight of each fundamental character gives
    # both its plain and its nu_k-weighted q-images
    real = ch.weyl_orbit
    walked = []
    monkeypatch.setattr(ch, "weyl_orbit",
                        lambda datum, w: walked.append(w) or real(datum, w))
    b3 = build_root_datum("B", 3)
    invder._entries_qeval(b3)
    funds = ch.fundamental_characters(b3)
    assert sorted(walked) == sorted(w for f in funds for w in f.mult)


def test_rank_cap(tmp_path):
    e7 = build_root_datum("E", 7)
    with pytest.raises(EnumerationCapError, match="refused"):
        invder.derivation_matrix(e7, cache_dir=tmp_path)


def test_sigma_matrix_g2_identity(tmp_path):
    m = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    ms = invder.sigma_matrix(m)
    assert ms.entries == m.entries


def test_sigma_matrix_a2_swaps(tmp_path):
    m = invder.derivation_matrix(A2, cache_dir=str(tmp_path))
    ms = invder.sigma_matrix(m)
    assert ms.entries[0] == m.entries[1]
    assert ms.entries[1] == m.entries[0]


def test_hermitian_law(tmp_path):
    # (M^sigma)^T = sigma(M^sigma), sigma permuting both rows and variables
    for tp in [("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        d = build_root_datum(*tp)
        m = invder.derivation_matrix(d, cache_dir=str(tmp_path))
        ms = invder.sigma_matrix(m)
        r = d.rank
        for i in range(r):
            for j in range(r):
                lhs = ms.entries[j][i]
                rhs = invder.permute_variables(ms.entries[i][j], d.minus_w0)
                assert lhs == rhs


def test_corner_vanishing(tmp_path):
    for tp in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G", 2)]:
        d = build_root_datum(*tp)
        m = invder.derivation_matrix(d, cache_dir=str(tmp_path))
        for c in corners(d):
            vals = invder.evaluate_matrix(m, c.values)
            assert all(not v for row in vals for v in row)
            assert rank_at(m, c.values) == 0


def test_identity_corner_is_dims(tmp_path):
    m = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    point = (qq(7), qq(14))
    vals = invder.evaluate_matrix(m, point)
    assert all(not v for row in vals for v in row)


def test_g2_special_point_rank(tmp_path):
    m = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    point = (qq(7, 9), qq(10, 27))
    vals = invder.evaluate_matrix(m, point)
    assert vals[0][0] == qq(-3200, 81)
    assert not vals[0][1] and not vals[1][0] and not vals[1][1]
    assert rank_at(m, point) == 1


def test_rank_at_regular_point(tmp_path):
    m = invder.derivation_matrix(A2, cache_dir=str(tmp_path))
    # a regular element: distinct generic eigenvalues
    assert rank_at(m, (qq(31, 6), qq(41, 6))) == 2


def test_scaling_invariance(tmp_path):
    base = invder.derivation_matrix(G2, cache_dir=str(tmp_path))
    scaled_datum = build_root_datum("G", 2, form_scale=5)
    scaled = invder.derivation_matrix(scaled_datum, cache_dir=str(tmp_path))
    for i in range(2):
        for j in range(2):
            assert scaled.entries[i][j] == base.entries[i][j].scale(qq(5))
    point = (qq(7, 9), qq(10, 27))
    assert rank_at(scaled, point) == rank_at(base, point)


def test_gl2_fixture_convention():
    # reductive rank-2 fixture in explicit torus coordinates x, y with the
    # identity pairing: pins the Jacobian convention M = J^T A J
    import sympy

    x, y = sympy.symbols("x y")
    f1 = x + y
    f2 = x * y
    sf1 = 1 / x + 1 / y
    sf2 = 1 / (x * y)

    def m_a(u, v):
        return sympy.simplify(
            x * sympy.diff(u, x) * x * sympy.diff(v, x)
            + y * sympy.diff(u, y) * y * sympy.diff(v, y)
        )

    # D_1 = M(f1, -): coefficients on the basis (d/df1, d/df2)
    assert sympy.simplify(m_a(f1, f1) - (f1**2 - 2 * f2)) == 0
    assert sympy.simplify(m_a(f1, f2) - f1 * f2) == 0
    assert sympy.simplify(m_a(f2, f2) - 2 * f2**2) == 0

    # M^sigma rows use the conjugate characters sigma(f_i)
    expected = [[-2, -f1], [-f1 / f2, -2]]
    got = [[m_a(sf1, f1), m_a(sf1, f2)], [m_a(sf2, f1), m_a(sf2, f2)]]
    for i in range(2):
        for j in range(2):
            assert sympy.simplify(got[i][j] - expected[i][j]) == 0


def test_cache_misses_on_another_form(tmp_path):
    # the cache file name hashes the Cartan data, not form_A, so a datum
    # with a replaced form finds the plain form's file and must refuse it
    invder.derivation_matrix(G2, cache_dir=tmp_path)
    doubled = dataclasses.replace(
        G2, form_A=tuple(tuple(2 * x for x in row) for row in G2.form_A)
    )
    assert doubled.content_hash() == G2.content_hash()
    got = invder.derivation_matrix(doubled, cache_dir=tmp_path)
    assert not got.cache_hit
    fresh = invder.derivation_matrix(doubled, cache_dir=tmp_path / "fresh")
    assert got.entries == fresh.entries
    plain = invder.derivation_matrix(G2, cache_dir=tmp_path / "plain")
    assert got.entries != plain.entries


def test_asymmetric_form_is_refused(tmp_path):
    # entries are stored once for (i, j) and (j, i), which needs a
    # symmetric form; the check must hold on a cache hit too
    A = [list(row) for row in G2.form_A]
    A[0][1] += 1
    bad = dataclasses.replace(G2, form_A=tuple(tuple(row) for row in A))
    invder.derivation_matrix(G2, cache_dir=tmp_path)
    for cache_dir in (tmp_path, tmp_path / "empty"):
        with pytest.raises(CertificateError, match="not symmetric"):
            invder.derivation_matrix(bad, cache_dir=cache_dir)
