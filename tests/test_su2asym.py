"""SU(2) minima, the limit constant, and identities of X."""

import cmath
import math
import os
import subprocess
import sys
from functools import cmp_to_key
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charbounds import su2asym
from charbounds.algsolve import (
    AlgValue,
    CertificateError,
    FieldElement,
    Ideal,
    cyclotomic_field,
    solve_zero_dim,
)
from charbounds.charring import irreducible_character
from charbounds.polynomials import Poly, qq
from charbounds.rootdata import (
    EnumerationCapError,
    build_root_datum,
    weyl_elements,
)
from charbounds.su2asym import (
    ConditioningError,
    chebyshev_character,
    eval_X,
    limit_constant,
    su2_min,
)
from closedform_oracle import chebyshev_value

A1 = build_root_datum("A", 1)
A2 = build_root_datum("A", 2)
B2 = build_root_datum("B", 2)
SMALL_RANK = (A1, A2, B2)


def _pairing_matrix(datum):
    return np.array([[float(x) for x in row] for row in datum.form_A])


def _random_regular(datum, rng, scale=1.5):
    A = _pairing_matrix(datum)
    roots = np.array([[float(x) for x in r] for r in datum.positive_roots])
    while True:
        v = rng.uniform(-scale, scale, datum.rank) + 1j * rng.uniform(
            -1.0, 1.0, datum.rank
        )
        if np.all(np.abs(roots @ A @ v / 2.0) > 1e-6):
            return tuple(v)


# ---------------------------------------------------------------------------
# Chebyshev characters


def test_small_polynomials():
    assert chebyshev_character(0).coeffs == (1,)
    assert chebyshev_character(1).coeffs == (0, 1)
    assert chebyshev_character(2).coeffs == (-1, 0, 1)
    assert chebyshev_character(3).coeffs == (0, -2, 0, 1)


def test_endpoint_values():
    for d in range(31):
        ch = chebyshev_character(d)
        assert ch.evaluate(qq(2)) == d + 1
        assert ch.evaluate(qq(-2)) == (-1) ** d * (d + 1)


def test_zero_set_brackets():
    # each closed-form zero is certified by an exact rational sign change
    # across a width-2e-10 bracket; d disjoint brackets on a degree-d
    # polynomial pin the whole zero set
    eps = qq(1, 10**10)
    for d in range(1, 31):
        ch = chebyshev_character(d)
        zeros = ch.zeros()
        assert len(zeros) == d
        assert all(zeros[i] > zeros[i + 1] for i in range(d - 1))
        prev_lo = None
        for z in zeros:
            lo, hi = qq(z) - eps, qq(z) + eps
            assert prev_lo is None or hi < prev_lo
            prev_lo = lo
            a, b = ch.evaluate(lo), ch.evaluate(hi)
            assert a * b < 0
    assert chebyshev_character(2).zeros() == pytest.approx((1.0, -1.0))
    assert abs(chebyshev_character(3).zeros()[0] - math.sqrt(2)) < 1e-12


def test_zeros_vanish_in_cyclotomic_field():
    # 2 cos(pi k/(d+1)) is zeta + zeta-bar for zeta of order 2(d+1)
    for d in range(1, 11):
        ch = chebyshev_character(d)
        m = 2 * (d + 1)
        zeta = cyclotomic_field(m).generator()
        for k in range(1, d + 1):
            z = zeta**k + zeta ** (m - k)
            assert not ch.evaluate(z)


def test_recurrence_evaluation_matches_coefficients():
    for d in range(13):
        ch = chebyshev_character(d)
        for x in (qq(0), qq(1), qq(-3, 2), qq(7, 3)):
            assert chebyshev_value(d, x) == ch.evaluate(x)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.15, max_value=2.99),
)
def test_sine_quotient_formula(d, theta):
    lhs = chebyshev_value(d, 2.0 * math.cos(theta)) * math.sin(theta)
    rhs = math.sin((d + 1) * theta)
    assert abs(lhs - rhs) < 1e-9 * (d + 1)


# ---------------------------------------------------------------------------
# exact minima


def su2_critical_points(d):
    """The critical points of chi_d on [-2, 2], from the points route:
    solve chi_d' = 0 and keep the points in the interval."""
    ch = chebyshev_character(d)
    deriv = {(k - 1,): k * c for k, c in enumerate(ch.coeffs) if k and c}
    gen = Poly(1, deriv)
    if gen.total_degree() < 1:
        return []
    return [p for p in solve_zero_dim(Ideal.of(1, [gen]))
            if (p.coords[0] - 2).sign() <= 0 and (p.coords[0] + 2).sign() >= 0]


def su2_min_oracle(d):
    """The least of the endpoint value and chi_d at each critical point.
    The values' intervals are refined until one is below all the others,
    and only what survives pays for a minimal polynomial."""
    ch = chebyshev_character(d)
    full = Poly(1, {(k,): c for k, c in enumerate(ch.coeffs) if c})
    entries = [min(ch.evaluate(qq(2)), ch.evaluate(qq(-2)))]
    entries += [p.value_of(full) for p in su2_critical_points(d)]

    def box(e):
        return e.interval() if isinstance(e, FieldElement) else (e, e)

    for _ in range(64):
        least_upper = min(box(e)[1] for e in entries)
        entries = [e for e in entries if box(e)[0] <= least_upper]
        if len(entries) == 1:
            break
        for e in entries:
            if isinstance(e, FieldElement):
                e.field.root.refine()
    values = [AlgValue.from_field_element(e) if isinstance(e, FieldElement)
              else AlgValue.from_rational(e) for e in entries]
    return min(values, key=cmp_to_key(lambda a, b: a.cmp(b)))


def test_odd_minimum_is_endpoint():
    for d in range(1, 22, 2):
        m = su2_min(d)
        assert m.is_rational() and m.as_rational() == -(d + 1)


def test_minimum_matches_the_critical_point_route():
    for d in range(1, 31):
        got, want = su2_min(d), su2_min_oracle(d)
        assert got.minpoly == want.minpoly
        assert got.cmp(want) == 0
        assert got.to_json() == want.to_json()


def test_minimum_d2():
    m = su2_min(2)
    assert m.is_rational() and m.as_rational() == -1
    pts = su2_critical_points(2)
    assert len(pts) == 1 and pts[0].coords[0].sign() == 0


def test_minimum_d6_frozen():
    # value -(7/27)(1 + 2 sqrt 7), attained at t^2 = (5 + sqrt 7)/3
    m = su2_min(6)
    assert m.minpoly == (-49, 14, 27)
    assert abs(m.approx() - (-(7.0 / 27.0) * (1.0 + 2.0 * math.sqrt(7.0)))) < 1e-12
    ch = chebyshev_character(6)
    full = Poly(1, {(k,): c for k, c in enumerate(ch.coeffs) if c})
    witnesses = []
    for p in su2_critical_points(6):
        if AlgValue.from_field_element(p.value_of(full)).cmp(m) == 0:
            witnesses.append(p.coords[0])
    assert len(witnesses) == 2
    for c in witnesses:
        assert (3 * c * c * c * c - 10 * c * c + 6).is_zero()
        assert abs(abs(c.approx()) - 1.59643) < 1e-4


def test_critical_point_outside_the_interval_is_rejected(monkeypatch):
    # t^3 - 27 t has its critical points at +-3: Rolle's count on (-2, 2]
    # must find them missing and raise, not assert, so python -O keeps it
    def wide(d):
        return su2asym.ChebyshevCharacter(d, (0, -27, 0, 1))

    monkeypatch.setattr(su2asym, "chebyshev_character", wide)
    with pytest.raises(CertificateError, match="outside"):
        su2_min(3)
    probe = "\n".join([
        "from charbounds import su2asym",
        "from charbounds.algsolve import CertificateError",
        "su2asym.chebyshev_character = (",
        "    lambda d: su2asym.ChebyshevCharacter(d, (0, -27, 0, 1)))",
        "try:",
        "    su2asym.su2_min(3)",
        "except CertificateError:",
        "    raise SystemExit(0)",
        "raise SystemExit('no CertificateError')",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_even_band():
    c, _ = limit_constant()
    for d in range(2, 25, 2):
        r = su2_min(d).approx() / (d + 1)
        assert -1.0 <= r <= -c + 0.02


def test_limit_constant():
    c, theta0 = limit_constant()
    assert abs(c - 0.2172) < 1e-4
    assert abs(theta0 - 4.493) < 1e-3
    assert abs(math.tan(theta0) - theta0) < 1e-9
    assert abs(c + math.sin(theta0) / theta0) < 1e-15


# ---------------------------------------------------------------------------
# the X function


def test_X_at_rho_zero():
    for datum in (A1, A2, B2, build_root_datum("G", 2)):
        ev = eval_X(datum, datum.rho, (0.0,) * datum.rank)
        assert ev.method == "rho-product"
        assert abs(ev.value - 1.0) < 1e-14


def test_X_symmetry_and_scaling():
    rng = np.random.default_rng(2026)
    for datum in SMALL_RANK:
        for _ in range(40):
            s = _random_regular(datum, rng)
            t = _random_regular(datum, rng)
            a = eval_X(datum, s, t)
            assert a.method == "Weyl-sum"
            b = eval_X(datum, t, s)
            assert abs(a.value - b.value) < 1e-9
            u = 0.37 + 0.21j
            c1 = eval_X(datum, s, tuple(u * z for z in t)).value
            c2 = eval_X(datum, tuple(u * z for z in s), t).value
            assert abs(c1 - c2) < 1e-9


@pytest.mark.parametrize("scaled_first", [True, False])
def test_X_form_scale_is_a_scaling_of_t(monkeypatch, scaled_first):
    # scaling the form by k scales every pairing by k, so X for the scaled
    # G2 at (s, t) is X for the plain G2 at (s, k t), in either call order
    monkeypatch.setattr(su2asym, "_GEOMETRY", {})
    monkeypatch.setattr(su2asym, "_WEYL", {})
    plain = build_root_datum("G", 2)
    scaled = build_root_datum("G", 2, form_scale=5)
    s, t = (0.3, 0.7), (0.2, -0.4)
    calls = [
        lambda: eval_X(scaled, s, t).value,
        lambda: eval_X(plain, s, tuple(5 * z for z in t)).value,
    ]
    if not scaled_first:
        calls.reverse()
    a, b = (call() for call in calls)
    assert abs(a - b) <= 1e-9 * abs(b)


def test_X_weyl_invariance():
    rng = np.random.default_rng(11)
    for datum in SMALL_RANK:
        mats = weyl_elements(datum)
        for _ in range(25):
            s = _random_regular(datum, rng)
            t = _random_regular(datum, rng)
            base = eval_X(datum, s, t).value
            w = mats[int(rng.integers(len(mats)))]
            wt = tuple((np.array(w) @ np.array(t)).tolist())
            assert abs(eval_X(datum, s, wt).value - base) < 1e-9


def test_X_zero_argument_is_one():
    rng = np.random.default_rng(5)
    for datum in SMALL_RANK:
        t = _random_regular(datum, rng)
        assert eval_X(datum, (0,) * datum.rank, t).value == 1.0
        assert eval_X(datum, t, (0,) * datum.rank).value == 1.0


def test_character_ratio_identity():
    # normalized character values against the X ratio, at random torus
    # directions and random dominant weights
    rng = np.random.default_rng(40)
    for datum in SMALL_RANK:
        A = _pairing_matrix(datum)
        for _ in range(10):
            lam = tuple(int(x) for x in rng.integers(0, 6, datum.rank))
            tvec = rng.uniform(-1.0, 1.0, datum.rank)
            ch = irreducible_character(datum, lam)
            val = 0j
            for w, mult in ch.full_expansion().items():
                inner = np.array(w, dtype=float) @ A @ tvec / 2.0
                val += mult * cmath.exp(1j * inner)
            lhs = val / ch.dimension()
            shifted = tuple(l + 1 for l in lam)
            it = tuple(1j * tvec)
            num = eval_X(datum, shifted, it).value
            den = eval_X(datum, datum.rho, it).value
            assert abs(lhs - num / den) < 1e-9


def test_su2_limit_matches_X():
    # chi_200 near the identity lands on sin(t)/t, which is X(rho, it) on A1
    for tau in (1.0, 2.0, 4.0):
        ratio = chebyshev_value(200, 2.0 * math.cos(tau / 200.0)) / 201.0
        x_val = eval_X(A1, (1,), (1j * tau,)).value
        assert abs(x_val - math.sin(tau) / tau) < 1e-12
        assert abs(ratio - x_val) < 1e-2


def test_wall_fallback():
    t = (0.3 + 0.1j, -0.7 + 0.2j)
    on_wall = eval_X(A2, (0.0, 2.0), t)
    assert on_wall.method == "limit-fallback"
    assert on_wall.error < 1e-3
    near = eval_X(A2, (1e-5, 2.0), t)
    assert abs(on_wall.value - near.value) < 1e-4


def test_cancelling_weyl_sum_is_rejected():
    # terms up to 58 cancel to about 1.2: far below double precision
    f4 = build_root_datum("F", 4)
    with pytest.raises(ConditioningError):
        eval_X(f4, (-0.9, 1, 0.9, -0.8), (-0.2, 0.8, -1.1, -0.4))


def test_weyl_cap():
    B5 = build_root_datum("B", 5)
    with pytest.raises(EnumerationCapError):
        eval_X(B5, (1, 2, 3, 4, 5), (0.1, 0.2, 0.3, 0.4, 0.5))
    ev = eval_X(B5, (1, 2, 3, 4, 5), (0.1, 0.2, 0.3, 0.4, 0.5), cap=4000)
    assert ev.method == "Weyl-sum" and math.isfinite(abs(ev.value))
    F4 = build_root_datum("F", 4)
    ev = eval_X(F4, (1, 2, 1, 2), (0.1j, 0.2j, 0.3j, 0.4j))
    assert ev.method == "Weyl-sum" and math.isfinite(abs(ev.value))


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        eval_X(A2, (1.0,), (0.5, 0.5))


def test_evaluation_json():
    ev = eval_X(A1, (1,), (2j,))
    js = ev.to_json()
    assert js["datum"] == "A1"
    assert js["method"] == "rho-product"
    assert js["s"] == [[1.0, 0.0]] and js["t"] == [[0.0, 2.0]]
    assert js["error"] == 0.0
    assert abs(complex(*js["value"]) - ev.value) == 0.0


def test_minimum_json_shape():
    js = su2_min(6).to_json()
    assert js["minpoly"] == [-49, 14, 27]
    assert js["decimal"] == pytest.approx(-1.63113, abs=1e-4)
