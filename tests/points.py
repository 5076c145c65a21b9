"""Algebraic points with given rational coordinates, for tests that probe
compactness and reality at hand-picked points."""

from charbounds.algsolve import AlgebraicPoint, NumberField, upoly_primitive_int
from charbounds.polynomials import QONE, qq


def rational_point(values):
    """A simple AlgebraicPoint with the given exact rational coordinates."""
    values = [qq(v) for v in values]
    field = NumberField((0, 1))  # QQ presented as Q[x]/(x)
    coords = [field.from_rational(v) for v in values]
    minpolys = tuple(tuple(upoly_primitive_int([-v, QONE])) for v in values)
    return AlgebraicPoint(len(values), field, coords, minpolys, 1)
