"""Certified extrema of characters on the compact form.

The critical locus of an invariant objective f is cut out by the
derivation matrix applied to its gradient.  Every extremum is a corner
value or a critical value, and every critical value is a root of e(T),
the squarefree generator of the radical of <crit, T - f> intersected
with Q[T] (algsolve.eliminant).  So the extrema are decided from values
first: the candidates are the real roots of e strictly below the least
real corner value, or strictly above the greatest, and inside the window
[-f(1), f(1)] when f is a true character.  For the minimum they are
taken from the least upward, for the maximum from the greatest downward.
The fibre of crit over the irreducible factor e_c of a candidate,
crit + <e_c(f)>, is solved exactly.  When crit is zero-dimensional its
quotient algebra is A / e_c(f) A, read off crit's algebra A with no
second Groebner basis; otherwise it comes from a Groebner basis seeded
with crit's.  Either way its points are certified on crit's own
generators and e_c(f).  Each real point is tested for reality of the
compact-form coordinates (the -w0 permutation must fix the coordinate
vector) and for membership in the compact image, decided exactly by
negative semidefiniteness of the row-permuted matrix in one
fraction-free symmetric elimination.  The first compact point found is
the extremum; otherwise the corner value is.  The report carries an
exact witness for both; its full list of critical points is built only
when read, as the JSON report does.

The corner classes depend on the root datum alone, so a process keeps
them, in a dict that extremum hands to rootdata.corners as its memo,
keyed by the datum's value: one entry per datum met, from its first
extremum on.  A datum that dataclasses.replace changed is another key.
Called without a memo, as the corners command calls it, rootdata.corners
still computes afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key

from .algsolve import (
    DEFAULT_PAIR_CAP,
    AlgValue,
    CertificateError,
    Ideal,
    _Quotient,
    cyc_to_algvalue,
    cyclotomic_field,
    eliminant,
    groebner,
    real_roots_by_factor,
    solve_zero_dim,
)
from .charring import (
    DEFAULT_ORBIT_CAP,
    FundamentalPolynomial,
    OrbitCapError,
    decompose,
    expand,
    irreducible_character,
    to_fundamental_polynomial,
)
from .invder import (
    DEFAULT_RANK_CAP,
    derivation_matrix,
    evaluate_matrix,
    permute_variables,
    sigma_matrix,
)
from .polynomials import Poly, qq
from .rootdata import corners

# orders AlgValues by their exact real value
_BY_VALUE = cmp_to_key(AlgValue.cmp)

# rootdata.corners' memo for extremum (see the module docstring)
_CORNERS = {}


class NonRealObjectiveError(ValueError):
    """The objective is not fixed by -w0, so it is not real on the group."""


def real_part(objective):
    """(f + f o sigma) / 2, where sigma permutes the f_i by -w0."""
    poly = objective.poly
    conj = permute_variables(poly, objective.datum.minus_w0)
    return FundamentalPolynomial(objective.datum, (poly + conj).scale(qq(1, 2)))


def critical_ideal(m, objective):
    """Generators sum_j M[i][j] * d(objective)/d f_j, one per row.

    For objective = f_i this is exactly the i-th column of M.
    """
    if objective.datum.content_hash() != m.datum.content_hash():
        raise ValueError("objective belongs to a different datum")
    r = m.datum.rank
    derivs = [objective.poly.diff(j) for j in range(r)]
    gens = []
    for i in range(r):
        g = None
        for j in range(r):
            if derivs[j]:
                term = m.entries[i][j] * derivs[j]
                g = term if g is None else g + term
        if g is not None and g:
            gens.append(g)
    return Ideal.of(r, gens)


def sigma_reality(m, point):
    """True when the coordinates are fixed by the -w0 index permutation."""
    perm = m.datum.minus_w0
    for i, pi in enumerate(perm):
        if pi != i and (point.coords[i] - point.coords[pi]):
            return False
    return True


def is_compact_point(m, point):
    """Exact negative semidefiniteness of the evaluated matrix.

    Pass the sigma variant of the matrix.  A = -M(p) is positive
    semidefinite exactly when fraction-free symmetric elimination on A
    meets no negative pivot, and a zero pivot only with the rest of its
    row zero.  A positive pivot a_kk replaces the trailing block by
    a_kk a_ij - a_ik a_kj, a positive multiple of the Schur complement,
    which has the same inertia: O(r^3) field products.
    """
    r = m.datum.rank
    grid = evaluate_matrix(m, list(point.coords))
    a = [[-grid[i][j] for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i):
            if a[i][j] - a[j][i]:
                raise CertificateError("matrix not symmetric here")
    for k in range(r):
        pivot = a[k][k]
        sign = pivot.sign()
        if sign < 0 or (sign == 0 and any(a[k][k + 1:])):
            return False
        if sign == 0:
            continue
        for i in range(k + 1, r):
            for j in range(i, r):
                a[i][j] = a[j][i] = pivot * a[i][j] - a[i][k] * a[k][j]
    return True


@dataclass
class CriticalPointRecord:
    point: object          # AlgebraicPoint
    value: AlgValue
    sigma_real: bool
    compact: bool
    in_min_window: bool
    in_max_window: bool

    def to_json(self):
        return {
            "point": self.point.to_json(),
            "value": self.value.to_json(),
            "sigma_real": self.sigma_real,
            "compact": self.compact,
            "in_min_window": self.in_min_window,
            "in_max_window": self.in_max_window,
        }


@dataclass
class ExtremumReport:
    datum: object
    objective: object
    corner_values: tuple   # (CornerClass, cyclotomic value, AlgValue or None)
    window: tuple          # (lower, upper) AlgValue bounds, or None
    minimum: AlgValue
    maximum: AlgValue
    min_witness: object    # CornerClass or AlgebraicPoint
    max_witness: object
    list_points: object = field(repr=False, compare=False)  # () -> records

    @cached_property
    def points(self):
        """CriticalPointRecord per non-corner critical point: all of them
        for a zero-dimensional critical ideal, else those of the fibres
        decided.  Built on first access."""
        return self.list_points()

    def to_json(self):
        def witness_json(w):
            if hasattr(w, "kac_coordinates"):
                return {
                    "kind": "corner",
                    "kac_coordinates": list(w.kac_coordinates),
                    "order": w.order,
                }
            return {"kind": "critical_point", **w.to_json()}

        return {
            "type": "%s%d" % (self.datum.letter, self.datum.rank),
            "objective": self.objective.to_str(),
            "corners": [
                {
                    "kac_coordinates": list(c.kac_coordinates),
                    "order": c.order,
                    "value": str(v),
                    "real": a is not None,
                    "decimal": a.approx() if a is not None else None,
                }
                for c, v, a in self.corner_values
            ],
            "critical_points": [p.to_json() for p in self.points],
            "window": (
                [self.window[0].to_json(), self.window[1].to_json()]
                if self.window
                else None
            ),
            "minimum": self.minimum.to_json(),
            "maximum": self.maximum.to_json(),
            "min_witness": witness_json(self.min_witness),
            "max_witness": witness_json(self.max_witness),
        }


def _corner_value(objective, corner):
    lift = cyclotomic_field(corner.order).from_rational
    return objective.poly.evaluate(list(corner.values), convert=lift)


def _is_true_character(objective, cap):
    """Nonnegative combination of irreducible characters, decided exactly."""
    try:
        parts = decompose(expand(objective, cap=cap))
    except OrbitCapError:
        return False
    return all(c >= 0 for c in parts.values())


def adjoint_objective(datum):
    """The adjoint trace as a polynomial in fundamental characters."""
    ad = irreducible_character(datum, datum.highest_root)
    return to_fundamental_polynomial(ad)


def _record(m, msig, objective, window, p, low, high):
    """The CriticalPointRecord of a real critical point p; low and high
    are the corner extremes its window flags compare with."""
    sreal = sigma_reality(m, p)
    compact = bool(sreal and is_compact_point(msig, p))
    value = AlgValue.from_field_element(p.value_of(objective.poly))
    in_min = value.cmp(low) < 0 and (window is None or value.cmp(window[0]) >= 0)
    in_max = value.cmp(high) > 0 and (window is None or value.cmp(window[1]) <= 0)
    return CriticalPointRecord(p, value, sreal, compact, in_min, in_max)


def extremum(
    datum,
    objective,
    *,
    cache_dir=None,
    rank_cap=DEFAULT_RANK_CAP,
    allow_large=False,
    pair_cap=DEFAULT_PAIR_CAP,
    expand_cap=DEFAULT_ORBIT_CAP,
):
    """Certified minimum and maximum of an invariant objective.

    Raises NonRealObjectiveError for an objective that -w0 does not fix:
    it takes complex values on the group, so it has no extrema there.
    """
    real = real_part(objective)
    if real.poly != objective.poly:
        raise NonRealObjectiveError(
            "objective %s is not real-valued on the compact form of %s "
            "(-w0 does not fix it); its real part is %s"
            % (objective.to_str().replace(" ", ""), datum.name(),
               real.to_str().replace(" ", ""))
        )
    matrix_options = dict(cache_dir=cache_dir, rank_cap=rank_cap,
                          allow_large=allow_large)
    m = derivation_matrix(datum, **matrix_options)
    msig = sigma_matrix(m)
    corner_classes = corners(datum, memo=_CORNERS)

    corner_values = []
    rational_corner_coords = set()
    for c in corner_classes:
        v = _corner_value(objective, c)
        alg = cyc_to_algvalue(v) if v.is_real() else None
        corner_values.append((c, v, alg))
        if all(x.is_rational() for x in c.values):
            rational_corner_coords.add(
                tuple(x.as_rational() for x in c.values)
            )

    real_corner_values = [(c, a) for c, v, a in corner_values if a is not None]
    if not real_corner_values:
        raise CertificateError("no real corner value (identity missing?)")
    corner_min = min((a for _, a in real_corner_values), key=_BY_VALUE)
    corner_max = max((a for _, a in real_corner_values), key=_BY_VALUE)

    window = None
    if _is_true_character(objective, expand_cap):
        dims = next((c for c in corner_classes if c.order == 1), None)
        if dims is None:
            raise CertificateError("no identity corner")
        at_identity = _corner_value(objective, dims)
        if not at_identity.is_rational():
            raise CertificateError("character value at the identity is not rational")
        bound = at_identity.as_rational()
        window = (AlgValue.from_rational(-bound), AlgValue.from_rational(bound))

    # Every critical value is a root of e.  Only the roots beyond the corner
    # extremes, and inside the window, can be extrema.
    crit = critical_ideal(m, objective)
    e, basis, quot = eliminant(crit, objective.poly, pair_cap=pair_cap)
    below, above = [], []
    for fac, roots in real_roots_by_factor(e):
        for v in roots:
            if v.cmp(corner_min) < 0 and (window is None or v.cmp(window[0]) >= 0):
                below.append((v, fac))
            elif v.cmp(corner_max) > 0 and (window is None or v.cmp(window[1]) <= 0):
                above.append((v, fac))
    below.sort(key=lambda t: _BY_VALUE(t[0]))
    above.sort(key=lambda t: _BY_VALUE(t[0]), reverse=True)

    fibres = {}  # factor -> records of the points where it vanishes on f

    def decide(candidates, fallback):
        """The first candidate value a compact critical point attains."""
        for v, fac in candidates:
            if fac not in fibres:
                # the fibre crit + <e_c(f)>: its quotient is A / e_c(f) A
                # when crit is zero-dimensional; else it needs a Groebner
                # basis, seeded with crit's, which is normal already
                e_c = Ideal.of(crit.nvars, [_substitute(fac, objective.poly)])
                if quot is not None:
                    fq = quot.fibre(objective.poly, fac)
                else:
                    fq = _Quotient(groebner(
                        Ideal(crit.nvars, basis.gens + e_c.gens), pair_cap,
                        known=len(basis.gens),
                    ))
                points = solve_zero_dim(
                    Ideal(crit.nvars, crit.gens + e_c.gens), quot=fq
                )
                fibres[fac] = [
                    _record(m, msig, objective, window, p, corner_min, corner_max)
                    for p in points
                ]
            for rec in fibres[fac]:
                if rec.compact and rec.value.cmp(v) == 0:
                    return v, rec.point
        return fallback

    def at_corner(a):
        return a, next(c for c, b in real_corner_values if b is a)

    min_value, min_witness = decide(below, at_corner(corner_min))
    max_value, max_witness = decide(above, at_corner(corner_max))
    # for a zero-dimensional crit the list is every critical point, solved
    # again when read: a report that kept its matrix and quotient for it
    # raised the peak memory of many small requests by about 4%
    decided = None if quot is not None else [
        rec for recs in fibres.values() for rec in recs
    ]

    def list_points():
        records = decided
        if records is None:
            m = derivation_matrix(datum, **matrix_options)
            msig = sigma_matrix(m)
            records = [
                _record(m, msig, objective, window, p, corner_min, corner_max)
                for p in solve_zero_dim(critical_ideal(m, objective), pair_cap)
                if not (p.is_rational()
                        and p.rational_coords() in rational_corner_coords)
            ]
        candidates = [(a, c) for c, a in real_corner_values]
        for rec in records:
            if rec.compact:
                candidates.append((rec.value, rec.point))
                # characters never escape [-f(1), f(1)] on the compact form
                if window is not None and (
                    rec.value.cmp(window[0]) < 0 or rec.value.cmp(window[1]) > 0
                ):
                    raise CertificateError(
                        "compact critical value outside [-f(1), f(1)]"
                    )
        lo = hi = candidates[0]
        for cand in candidates[1:]:
            if cand[0].cmp(lo[0]) < 0:
                lo = cand
            if cand[0].cmp(hi[0]) > 0:
                hi = cand
        for (value, witness), (v, w) in ((lo, (min_value, min_witness)),
                                         (hi, (max_value, max_witness))):
            same = witness is w if hasattr(w, "kac_coordinates") else (
                not hasattr(witness, "kac_coordinates") and value.cmp(v) == 0
            )
            if not same:
                raise CertificateError(
                    "the critical-point list and the critical values disagree"
                )
        return tuple(records)

    return ExtremumReport(
        datum=datum,
        objective=objective,
        corner_values=tuple(corner_values),
        window=window,
        minimum=min_value,
        maximum=max_value,
        min_witness=min_witness,
        max_witness=max_witness,
        list_points=list_points,
    )


def _substitute(upoly, poly):
    """upoly(poly) for an ascending coefficient list, by Horner."""
    acc = Poly.const(poly.nvars, upoly[-1])
    for c in reversed(upoly[:-1]):
        acc = acc * poly + c
    return acc
