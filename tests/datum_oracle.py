"""The rational construction of a root datum, kept as the reference for
the library's integer one.

The library builds each datum from det C and the integer adjugate adj C
of one fraction-free elimination.  Here C^-1 comes from Gauss-Jordan and
det C from Gaussian elimination with one rational per entry, the roots
are the closure of the simple roots under the simple reflections, their
root-basis coordinates are C^-1 root, and the form is
det C * form_scale * 2 C^-T (D C) C^-1.  Every quantity is unique, so the
two constructions must agree exactly.
"""

import functools

from charbounds.polynomials import QQ, QZERO, qq
from charbounds.rootdata import cartan_matrix, symmetrizers


def qmat_inv(M):
    n = len(M)
    A = [[qq(M[i][j]) for j in range(n)] + [QQ(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return tuple(tuple(row[n:]) for row in A)


def qmat_det(M):
    n = len(M)
    A = [[qq(x) for x in row] for row in M]
    det = QQ(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col]), None)
        if piv is None:
            return QZERO
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det *= A[col][col]
        inv = 1 / A[col][col]
        for r in range(col + 1, n):
            if A[r][col]:
                f = A[r][col] * inv
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return det


def qmat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return tuple(
        tuple(sum((qq(A[i][t]) * qq(B[t][j]) for t in range(k)), QZERO)
              for j in range(m))
        for i in range(n)
    )


@functools.cache
def _inverse(cartan):
    return qmat_inv(cartan)


def root_coords(datum, n):
    """Root-basis coordinates of a weight-basis vector, as rationals."""
    Ci = _inverse(datum.cartan)
    return tuple(sum((Ci[i][j] * x for j, x in enumerate(n) if x), QZERO)
                 for i in range(datum.rank))


def rational_datum(letter, rank, form_scale=1):
    """det C, C^-1, the positive roots in both bases (ordered by height,
    then root-basis coordinates) and form_A, all on rationals."""
    C = cartan_matrix(letter, rank)
    d = symmetrizers(letter, rank, C)
    Ci = qmat_inv(C)
    r = rank
    simple = [tuple(C[k][i] for k in range(r)) for i in range(r)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(r):
                img = tuple(root[k] - root[i] * C[k][i] for k in range(r))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    positives = []
    for root in seen:
        rc = tuple(sum((Ci[i][j] * root[j] for j in range(r)), QZERO)
                   for i in range(r))
        if all(x >= 0 for x in rc):
            positives.append((rc, root))
    positives.sort(key=lambda p: (sum(p[0]), p[0]))
    det = qmat_det(C)
    Db = tuple(tuple(QQ(d[i] * C[i][j]) for j in range(r)) for i in range(r))
    gram = qmat_mul(qmat_mul(tuple(zip(*Ci)), Db), Ci)
    return {
        "det": det,
        "cartan_inv": Ci,
        "positive_roots": tuple(p[1] for p in positives),
        "positive_root_coords": tuple(p[0] for p in positives),
        "form_A": tuple(tuple(2 * det * form_scale * x for x in row) for row in gram),
    }
