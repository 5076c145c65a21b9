"""Algebraic points with given rational coordinates, for tests that probe
compactness and reality at hand-picked points, and the rank of the
derivation matrix at an exact point."""

from charbounds.algsolve import AlgebraicPoint, AlgValue, NumberField
from charbounds.invder import evaluate_matrix
from charbounds.polynomials import qq


def rational_point(values):
    """A simple AlgebraicPoint with the given exact rational coordinates."""
    values = [qq(v) for v in values]
    field = NumberField((0, 1))  # QQ presented as Q[x]/(x)
    coords = [field.from_rational(v) for v in values]
    algs = tuple(AlgValue.from_rational(v) for v in values)
    return AlgebraicPoint(len(values), field, coords, algs, 1)


def rank_at(m, point):
    """Rank of M at an exact point, by fraction-free Gaussian elimination."""
    grid = evaluate_matrix(m, point)
    n = len(grid)
    rank = 0
    row = 0
    for col in range(n):
        pivot = None
        for i in range(row, n):
            if grid[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        grid[row], grid[pivot] = grid[pivot], grid[row]
        pv = grid[row][col]
        for i in range(row + 1, n):
            ci = grid[i][col]
            if ci:
                grid[i] = [
                    pv * grid[i][k] - ci * grid[row][k] for k in range(n)
                ]
        row += 1
        rank += 1
        if row == n:
            break
    return rank
