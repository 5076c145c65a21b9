"""SU(2) character asymptotics and the limit function X.

The trace of SU(2) in its (d+1)-dimensional irreducible representation
is a polynomial in the fundamental trace t: chi_d(2 cos a) equals
sin((d+1)a)/sin(a).  The minimum of chi_d/(d+1) over the group tends to
-c as d grows, where c is the negative of the least value of sin(a)/a.
Both the exact per-degree minima and the limit constant are computed
here.  A minimum is read off values, as in compactcert: the endpoint
value, and the roots of the eliminant of chi_d on <chi_d'>, all of them
values inside (-2, 2) by Rolle's theorem, certified with one Sturm
count.  In higher rank the analogous limits are values of the function

    X(s, t) = (prod over positive roots r of (r, rho)/((r, s)(r, t)))
              * sum over W of sgn(w) exp((s, w t)),

which depends only on the Weyl group and is evaluated numerically.
"""

import cmath
import math
from dataclasses import dataclass, field

from .algsolve import (
    AlgValue,
    CertificateError,
    Ideal,
    eliminant,
    real_roots_by_factor,
    sturm_chain,
    sturm_count,
)
from .polynomials import Poly, qq
from .rootdata import EnumerationCapError, weyl_elements

__all__ = [
    "ChebyshevCharacter",
    "ConditioningError",
    "XEvaluation",
    "chebyshev_character",
    "eval_X",
    "limit_constant",
    "su2_min",
]

# every rank <= 4 Weyl group fits under this (F4 has order 1152)
DEFAULT_WEYL_CAP = 1152
# a root pairing within this of zero puts the argument on a wall
_WALL_TOL = 1e-8


class ConditioningError(RuntimeError):
    """An X evaluation sat too close to a wall to be trusted."""


# ---------------------------------------------------------------------------
# Chebyshev characters of SU(2)


@dataclass(frozen=True)
class ChebyshevCharacter:
    """chi_d as an integer polynomial in the fundamental trace t.

    Satisfies chi_d(2) = d + 1, chi_d(-2) = (-1)^d (d + 1), and has d
    simple real zeros 2 cos(pi k/(d+1)), k = 1..d.
    """

    d: int
    coeffs: tuple  # ascending powers of t

    def evaluate(self, x):
        """Horner evaluation; exact for exact scalar types."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def zeros(self):
        """The closed-form zeros 2 cos(pi k/(d+1)) as floats, decreasing."""
        n = self.d + 1
        return tuple(2.0 * math.cos(math.pi * k / n) for k in range(1, n))

    def to_json(self):
        return {"d": self.d, "coeffs": list(self.coeffs)}


_CHEB = [(1,), (0, 1)]


def chebyshev_character(d):
    """chi_d from the recurrence chi_d = t chi_{d-1} - chi_{d-2}."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    while len(_CHEB) <= d:
        shifted = [0] + list(_CHEB[-1])
        for i, c in enumerate(_CHEB[-2]):
            shifted[i] -= c
        _CHEB.append(tuple(shifted))
    return ChebyshevCharacter(d, _CHEB[d])


def su2_min(d):
    """Exact minimum of chi_d over t in [-2, 2].

    The candidates are the endpoint value (+-1)^d (d+1) and the critical
    values, the real roots of the eliminant of chi_d on <chi_d'> (the
    values route of compactcert).  chi_d has d simple zeros in (-2, 2),
    so by Rolle all d - 1 roots of chi_d' lie there too; one Sturm count
    on (-2, 2] certifies that, so every root of the eliminant is a value
    attained inside the interval.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    ch = chebyshev_character(d)
    best = AlgValue.from_rational(min(ch.evaluate(qq(2)), ch.evaluate(qq(-2))))
    deriv = [k * c for k, c in enumerate(ch.coeffs)][1:]
    if len(deriv) < 2:
        return best
    if sturm_count(sturm_chain(deriv), qq(-2), qq(2)) != len(deriv) - 1:
        raise CertificateError(
            "chi_%d' has a root outside (-2, 2]: Rolle's count failed" % d
        )
    full, crit = (
        Poly(1, {(k,): c for k, c in enumerate(coeffs) if c})
        for coeffs in (ch.coeffs, deriv)
    )
    e, _, _ = eliminant(Ideal.of(1, [crit]), full)
    for _, roots in real_roots_by_factor(e):
        if roots and roots[0].cmp(best) < 0:
            best = roots[0]
    return best


def limit_constant():
    """(c, theta0) with c = -sin(theta0)/theta0 and tan(theta0) = theta0.

    theta0 is the unique solution on (pi, 3 pi/2); there sin(theta)/theta
    attains its least value -c.  Bisection to 1e-12.
    """
    lo = math.pi + 1e-9
    hi = 1.5 * math.pi - 1e-9
    # tan(theta) - theta runs from about -pi up to +huge on this window
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if math.tan(mid) - mid < 0.0:
            lo = mid
        else:
            hi = mid
    theta0 = (lo + hi) / 2.0
    return -math.sin(theta0) / theta0, theta0


# ---------------------------------------------------------------------------
# the limit function X


@dataclass(frozen=True)
class XEvaluation:
    """One numerical evaluation of X with its provenance.

    method is "Weyl-sum" for the direct alternating sum, "rho-product"
    for the hyperbolic-sine product available at s = rho, and
    "limit-fallback" when a wall forced perturbation averaging (then
    error carries the observed spread).
    """

    datum: object
    s: tuple
    t: tuple
    value: complex
    method: str
    error: float = field(default=0.0)

    def to_json(self):
        return {
            "datum": self.datum.name(),
            "s": [[z.real, z.imag] for z in self.s],
            "t": [[z.real, z.imag] for z in self.t],
            "value": [self.value.real, self.value.imag],
            "method": self.method,
            "error": self.error,
        }


# both caches depend on the form, so they are keyed by the content hash
_GEOMETRY = {}


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _geometry(datum):
    """The rows of v -> (r, v) over the positive roots r, and the values
    (r, rho)."""
    key = datum.content_hash()
    got = _GEOMETRY.get(key)
    if got is None:
        A = [[float(x) for x in row] for row in datum.form_A]
        pairing = [
            [_dot(r, col) / 2.0 for col in zip(*A)] for r in datum.positive_roots
        ]
        got = (pairing, [sum(row) for row in pairing])
        _GEOMETRY[key] = got
    return got


_WEYL = {}


def _weyl(datum, cap):
    key = datum.content_hash()
    got = _WEYL.get(key)
    if got is None:
        # (w t, s) = s . (A w / 2) t; A is integral, so A w / 2 is exact
        A = [[float(x) for x in row] for row in datum.form_A]
        elements, signs = weyl_elements(datum, cap=cap, with_sign=True)
        got = [
            ([[_dot(row, col) / 2.0 for col in zip(*w)] for row in A], sign)
            for w, sign in zip(elements, signs)
        ]
        _WEYL[key] = got
    return got


def _root_pairings(datum, v):
    pairing, _ = _geometry(datum)
    return [_dot(row, v) for row in pairing]


def _sinhc_half(z):
    # 2 sinh(z/2)/z, extended by 1 across z = 0
    if abs(z) < 1e-3:
        z2 = z * z
        return 1.0 + z2 / 24.0 + z2 * z2 / 1920.0
    return (cmath.exp(z / 2.0) - cmath.exp(-z / 2.0)) / z


def _rho_product(datum, tv):
    value = 1.0 + 0.0j
    for z in _root_pairings(datum, tv):
        value *= _sinhc_half(z)
    return value


def _weyl_sum(datum, sv, tv, cap):
    _, root_rho = _geometry(datum)
    terms = [
        sign * cmath.exp(_dot(sv, [_dot(row, tv) for row in form]))
        for form, sign in _weyl(datum, cap)
    ]
    # exact rounding of the cancelling sum, independent of the Weyl order
    alternating = complex(
        math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
    )
    # each term carries a rounding error up to 2^-52 of its size
    if math.fsum(abs(z) for z in terms) * 2.0**-52 > 1e-8 * abs(alternating):
        raise ConditioningError(
            "the alternating Weyl sum cancels below double precision"
        )
    prefactor = 1.0
    for rr, rs, rt in zip(
        root_rho, _root_pairings(datum, sv), _root_pairings(datum, tv)
    ):
        prefactor *= rr / (rs * rt)
    return prefactor * alternating


def _is_rho(v):
    return all(z == 1.0 for z in v)


def _is_regular(datum, v):
    return all(abs(z) > _WALL_TOL for z in _root_pairings(datum, v))


def _averaged(datum, sv, tv, s_regular, t_regular, cap):
    """Symmetric perturbation average off a wall.

    Shifting the singular argument by +-eps rho and averaging cancels
    the first-order term, so the bias is O(eps^2); the spread of the
    pair is kept as an error estimate.
    """
    for scale in (1e-4, 1e-3, 1e-2):
        pair = []
        for eps in (scale, -scale):
            ss = sv if s_regular else [z + eps for z in sv]
            tt = tv if t_regular else [z + eps for z in tv]
            if not (_is_regular(datum, ss) and _is_regular(datum, tt)):
                break
            try:
                pair.append(_weyl_sum(datum, ss, tt, cap))
            except ConditioningError:
                break
        if len(pair) < 2:
            continue
        value = (pair[0] + pair[1]) / 2.0
        spread = abs(pair[0] - pair[1]) / 2.0
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            continue
        if spread <= 1e-3 * (1.0 + abs(value)):
            return value, spread
    raise ConditioningError(
        "argument lies on a wall that perturbation averaging cannot clear"
    )


def eval_X(datum, s, t, *, cap=DEFAULT_WEYL_CAP):
    """Evaluate X(s, t) in double precision.

    s and t are weight-basis coordinate vectors (real or complex
    entries).  Regular pairs go through the alternating Weyl sum; s or
    t exactly equal to rho switches to the product over positive roots,
    which has no wall restrictions; anything else is perturbed off the
    wall and averaged, or rejected with ConditioningError when that
    fails.  A Weyl sum whose terms cancel so far that their rounding
    could exceed 1e-8 of the sum also raises ConditioningError.  While
    averaging off a wall, such a sum only rejects its perturbation scale,
    and the next scale is tried.  An identically zero argument forces
    X = 1 by the scaling symmetry, so that case returns 1 exactly.  A
    value that is not a finite double raises OverflowError.
    """
    sv = [complex(z) for z in s]
    tv = [complex(z) for z in t]
    if len(sv) != datum.rank or len(tv) != datum.rank:
        raise ValueError("argument length must equal the rank")
    if datum.weyl_order > cap:
        raise EnumerationCapError(
            "enumeration refused: |W| = %d exceeds cap %d"
            % (datum.weyl_order, cap)
        )
    err = 0.0
    if _is_rho(sv):
        value, method = _rho_product(datum, tv), "rho-product"
    elif _is_rho(tv):
        value, method = _rho_product(datum, sv), "rho-product"
    elif not any(sv) or not any(tv):
        # X(u s, t) = X(s, u t) at u = 0, hence constant 1
        value, method = 1.0 + 0.0j, "limit-fallback"
    else:
        s_regular = _is_regular(datum, sv)
        t_regular = _is_regular(datum, tv)
        if s_regular and t_regular:
            value, method = _weyl_sum(datum, sv, tv, cap), "Weyl-sum"
        else:
            value, err = _averaged(datum, sv, tv, s_regular, t_regular, cap)
            method = "limit-fallback"
    if not cmath.isfinite(value):
        raise OverflowError("X(s, t) = %r is not a finite double" % value)
    return XEvaluation(datum, tuple(sv), tuple(tv), value, method, err)
