"""Extreme values of restricted traces on products of A1 subgroups.

Restricting a character to n pairwise orthogonal A1 copies yields a
polynomial f(t_1..t_n) on the box |t_i| <= 2 (each t_i the trace of an
SU(2) element).  Its extreme values obey (t_i^2 - 4) df/dt_i = 0 per
variable: either the coordinate sits on the boundary or the partial
vanishes.  Solving that system exactly gives an oracle for the torus
pipeline that knows nothing about derivation matrices.

The factored generators are split by cases t_i in {2, -2, interior}
instead of being fed to the solver whole; the union of the subsystem
varieties is exactly the original variety, and each subsystem is far
shallower.
"""

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import product

from .algsolve import DEFAULT_PAIR_CAP, AlgValue, Ideal, solve_zero_dim
from .charring import (
    DEFAULT_ORBIT_CAP,
    irreducible_character,
    restrict_to_A1n,
)
from .polynomials import Poly, coefficient

_PIN_VALUES = (2, -2)
# unpinned eliminations beyond this many variables are out of desk range
_FREE_CAP = 6


@dataclass(frozen=True)
class BranchProblem:
    """A restricted trace polynomial plus optional variable pins."""

    f: object  # BranchPolynomial
    pins: tuple  # sorted ((index, value), ...), values in {2, -2}

    @staticmethod
    def of(f, pins=None):
        items = []
        for i, v in (pins or {}).items():
            i = int(i)
            v = coefficient(v)
            if not 0 <= i < f.n:
                raise ValueError("pin index %d out of range" % i)
            if v not in _PIN_VALUES:
                raise ValueError("pins must take the value 2 or -2")
            items.append((i, v))
        return BranchProblem(f, tuple(sorted(items)))

    @property
    def n(self):
        return self.f.n


@dataclass(frozen=True)
class BranchResult:
    problem: BranchProblem
    minimum: AlgValue
    witness: tuple  # one AlgValue per original variable
    candidates: int  # box-surviving critical values compared

    def to_json(self):
        return {
            "n": self.problem.n,
            "polynomial": self.problem.f.to_str(),
            "pins": [
                {"variable": i, "value": str(int(v))}
                for i, v in self.problem.pins
            ],
            "minimum": self.minimum.to_json(),
            "witness": [w.to_json() for w in self.witness],
            "candidates": self.candidates,
        }


def _substitute(poly, assignment):
    """Pin some variables to rationals; returns (poly over rest, rest)."""
    n = poly.nvars
    keep = [i for i in range(n) if i not in assignment]
    pos = {v: k for k, v in enumerate(keep)}
    terms = {}
    for mono, c in poly.terms.items():
        coeff = c
        new = [0] * len(keep)
        for i, e in enumerate(mono):
            if not e:
                continue
            if i in assignment:
                coeff = coeff * assignment[i] ** e
            else:
                new[pos[i]] = e
        if coeff:
            key = tuple(new)
            s = terms.get(key, 0) + coeff
            if s:
                terms[key] = s
            else:
                del terms[key]
    return Poly(len(keep), terms), keep


def _in_box(point):
    for c in point.coords:
        if (c - 2).sign() > 0 or (c + 2).sign() < 0:
            return False
    return True


def _split_candidates(g, pair_cap):
    """Case decomposition t_i in {2, -2, interior} over all variables.

    Exact: every generator factors as (t_i - 2)(t_i + 2) * d_i g, so the
    variety is the union over choices of which factor vanishes.  A point
    on several faces is kept once, where it is first found.

    A restricted trace is symmetric under permuting and negating the t_i,
    so many faces restrict to one polynomial; each distinct one is solved
    once, and every face adds its points with its own pinned coordinates.
    """
    m = g.nvars
    out = []
    solved = {}  # face polynomial -> [(value, point values)] in the box

    def add(val, coords):
        # equal algebraic numbers have equal primitive minimal polynomials
        if not any(all(a.minpoly == b.minpoly and a.cmp(b) == 0
                       for a, b in zip(coords, seen))
                   for _, seen in out):
            out.append((val, coords))

    for sigma in product(_PIN_VALUES + (None,), repeat=m):
        fixed = {i: v for i, v in enumerate(sigma) if v is not None}
        h, free = _substitute(g, fixed)
        # interior variables the restricted polynomial no longer sees can
        # sit anywhere; put them at 0
        unused = {k: 0 for k in range(len(free)) if k not in h.used_vars()}
        h2, live = _substitute(h, unused)
        if not live:
            val = AlgValue.from_rational(h2.constant())
            coords = {i: AlgValue.from_rational(v) for i, v in fixed.items()}
            for k, j in enumerate(free):
                coords[j] = AlgValue.from_rational(0)
            add(val, tuple(coords[i] for i in range(m)))
            continue
        if h2 not in solved:
            gens = [h2.diff(k) for k in range(len(live))]
            pts = solve_zero_dim(Ideal.of(len(live), gens), pair_cap=pair_cap)
            solved[h2] = [
                (AlgValue.from_field_element(pt.value_of(h2)), pt.values)
                for pt in pts if _in_box(pt)
            ]
        for val, values in solved[h2]:
            coords = {i: AlgValue.from_rational(v) for i, v in fixed.items()}
            for k, j in enumerate(free):
                if k in unused:
                    coords[j] = AlgValue.from_rational(0)
                else:
                    coords[j] = values[live.index(k)]
            add(val, tuple(coords[i] for i in range(m)))
    return out


def branch_minimize(p, *, pair_cap=DEFAULT_PAIR_CAP):
    """Exact minimum of the restricted trace over the compact box."""
    pins = dict(p.pins)
    g0, keep = _substitute(p.f.poly, pins)
    # variables the polynomial does not mention contribute nothing
    unused = {k: 0 for k in range(len(keep)) if k not in g0.used_vars()}
    g, live = _substitute(g0, unused)
    if len(live) > _FREE_CAP:
        raise ValueError(
            "%d free variables exceeds the unpinned limit (%d); "
            "supply pinning assignments" % (len(live), _FREE_CAP)
        )

    found = _split_candidates(g, pair_cap)
    if not found:
        raise ValueError("no critical point survived the box filter")

    found.sort(key=cmp_to_key(lambda a, b: a[0].cmp(b[0])))
    best_val, best_coords = found[0]

    # stitch the witness back together in original variable order
    witness = [None] * p.n
    for i, v in pins.items():
        witness[i] = AlgValue.from_rational(v)
    solved = dict(zip(live, best_coords))
    for k, orig in enumerate(keep):
        if k in unused:
            witness[orig] = AlgValue.from_rational(0)
        else:
            witness[orig] = solved[k]
    return BranchResult(p, best_val, tuple(witness), len(found))


def adjoint_problem(datum, pins=None, cap=DEFAULT_ORBIT_CAP):
    """The adjoint trace of the given group restricted to A1^rank."""
    adj = irreducible_character(datum, datum.highest_root)
    return BranchProblem.of(restrict_to_A1n(adj, cap=cap), pins)
