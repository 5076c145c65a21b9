"""Closed forms the library's tables and SU(2) characters are checked
against.

The toral trace formulas of the classical types, the quadratic-box lemma
they reduce to, which components contain -1, the bounds of an outer
component recomputed from the subquotient its diagram automorphism fixes,
and the SU(2) character by its three-term recurrence.  Each is a lookup
or a one-line evaluation, independent of the solver pipelines.
"""

from charbounds.closedform import BoundEntry, _validate, trace_bounds
from charbounds.polynomials import qq


def acts_as_minus_one(letter, rank, s):
    """Whether the component of s contains -1 on the root system.

    -1 lies in the Weyl group except for types A_n (n >= 2), D_odd and
    E6, where the nontrivial diagram flip supplies it instead.
    """
    inner = not (
        (letter == "A" and rank >= 2)
        or (letter == "D" and rank % 2 == 1)
        or (letter == "E" and rank == 6)
    )
    return s == 1 if inner else s == 2


def min_quadratic_box(n):
    """Minimum of sum_{i<j} t_i t_j over the cube [-1, 1]^n."""
    n = int(n)
    if n < 1:
        raise ValueError("need at least one variable")
    return qq(-n, 2) if n % 2 == 0 else qq(1 - n, 2)


def toral_trace(letter, rank, rep, ts):
    """Trace at a classical-type torus element with coordinates t_j.

    t_j = s_j + 1/s_j for the diagonal eigenvalue pairs; the compact
    range is t_j in [-2, 2] (not enforced here).
    """
    letter = str(letter).upper()
    rank = int(rank)
    if rank < 1:
        raise ValueError("rank must be positive")
    if len(ts) != rank:
        raise ValueError("expected %d coordinates" % rank)
    ts = [qq(t) for t in ts]
    n = rank
    e1 = sum(ts, qq(0))
    e2 = sum(ts[i] * ts[j] for i in range(n) for j in range(i + 1, n))
    p2 = sum(t * t for t in ts)
    if rep == "adjoint":
        if letter == "D":
            return n + e2
        if letter == "C":
            return -n + p2 + e2
        if letter == "B":
            return n + e1 + e2
    elif rep == "short-root":
        if letter == "C":
            return e2 + n - 1
        if letter == "B":
            return 1 + e1
    raise ValueError("no formula for (%s, %s)" % (letter, rep))


# Subquotient fixed by a nontrivial diagram automorphism, with the
# correction Tr(Ad(w)|_t) - rank H.  A1^m factors are marked by rank m
# with letter "A1^"; their adjoint trace per factor spans [-1, 3].
def _folding(letter, rank, s):
    if letter == "A" and s == 2 and rank >= 2:
        if rank % 2 == 0:
            m = rank // 2
            return ("A1^", m, -m)
        m = (rank + 1) // 2
        return ("A1^", m, 1 - m)
    if letter == "D" and s == 2 and rank >= 4:
        return ("D", rank - 1, -1)
    if letter == "D" and s == 3 and rank == 4:
        return ("A", 2, -1)
    if letter == "E" and rank == 6 and s == 2:
        return ("D", 4, -2)
    return None


def outer_reduction(letter, rank, s):
    """Bounds on the s-component recomputed from the fixed subquotient."""
    letter, rank = _validate(letter, rank)
    got = _folding(letter, rank, int(s))
    if got is None:
        raise ValueError(
            "no diagram-automorphism reduction for (%s%d, s=%s)"
            % (letter, rank, s)
        )
    hletter, hrank, corr = got
    if hletter == "A1^":
        lo, hi = -hrank, 3 * hrank
    else:
        lo, hi = trace_bounds(hletter, hrank, 1).bounds()
    return BoundEntry(
        letter, rank, int(s), qq(lo + corr), qq(hi + corr),
        "reduction-computed",
    )


def chebyshev_value(d, x):
    """chi_d(x) by the three-term recurrence.

    Numerically stable on [-2, 2] where expanded coefficients are not,
    so this is the right path for large d at floating-point arguments.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if d == 0:
        return 1
    a, b = 1, x
    for _ in range(d - 1):
        a, b = b, x * b - a
    return b
