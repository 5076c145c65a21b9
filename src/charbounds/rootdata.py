"""Root-system and Weyl-group data for the simple types A through G.

Weights live in the fundamental-weight basis with exact integer
coordinates, and every datum is built on integers from det C and the
adjugate adj C of the Cartan matrix: a root's root-basis coordinates are
adj C root / det C.  The stored invariant form A is the single source of
inner products: the even integer matrix 2 form_scale adj(C)^T D, with D
the symmetrizers, and pairing(u, v) = u^T A v / 2, normalized so that
(alpha, alpha) equals 2 |P/Q| form_scale on short roots, which makes
A = (2) for type A1.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass

from .polynomials import qq


class InvalidTypeError(ValueError):
    pass


class EnumerationCapError(RuntimeError):
    """Raised when a requested enumeration exceeds the configured cap."""


class RootDatumError(RuntimeError):
    """An exact consistency check of a root datum failed."""


_DIM_FORMULAS = {
    "A": lambda n: n * (n + 2),
    "B": lambda n: n * (2 * n + 1),
    "C": lambda n: n * (2 * n + 1),
    "D": lambda n: n * (2 * n - 1),
    "E": {6: 78, 7: 133, 8: 248},
    "F": {4: 52},
    "G": {2: 14},
}

def validate_type(letter, rank):
    ok = (
        (letter == "A" and rank >= 1)
        or (letter in ("B", "C") and rank >= 2)
        or (letter == "D" and rank >= 4)
        or (letter == "E" and rank in (6, 7, 8))
        or (letter == "F" and rank == 4)
        or (letter == "G" and rank == 2)
    )
    if not ok:
        raise InvalidTypeError("no simple type %s%s" % (letter, rank))


def cartan_matrix(letter, rank):
    """Cartan matrix with C[i][j] = <alpha_j, alpha_i-coroot>, Bourbaki
    numbering; for G2 the first node is the short root (so omega_1 is the
    highest short root)."""
    validate_type(letter, rank)
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B" and n >= 2:
            bond(n - 2, n - 1, -1, -2)
        if letter == "C" and n >= 2:
            bond(n - 2, n - 1, -2, -1)
    elif letter == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif letter == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]
        for a, b in edges:
            if a <= n and b <= n:
                bond(a - 1, b - 1)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -3, -1)
    return tuple(tuple(row) for row in C)


def symmetrizers(letter, rank, C):
    """d_i with d_i C[i][j] symmetric and min d_i = 1; b(a_i,a_i) = 2 d_i."""
    n = rank
    d = [1] * n
    if letter == "B":
        d = [2] * (n - 1) + [1]
    elif letter == "C":
        d = [1] * (n - 1) + [2]
    elif letter == "F":
        d = [2, 2, 1, 1]
    elif letter == "G":
        d = [1, 3]
    for i in range(n):
        for j in range(n):
            if d[i] * C[i][j] != d[j] * C[j][i]:
                raise RootDatumError("d C is not symmetric")
    return tuple(d)


def _adjugate(C):
    """det C and the integer adjugate adj C = det C * C^-1, by one
    fraction-free Gauss-Jordan elimination of [C | I] (Bareiss, Math.
    Comp. 22, 1968): after the step on column k every entry is a minor of
    order k + 1, so each division by the previous pivot is exact, the
    last pivot is det C and the right half is adj C."""
    n = len(C)
    M = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(C)]
    prev = 1
    for k in range(n):
        pivot = M[k][k]
        if not pivot:
            raise RootDatumError("a leading minor of the Cartan matrix vanishes")
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(pivot * x - f * y) // prev for x, y in zip(M[i], M[k])]
        prev = pivot
    return prev, tuple(tuple(row[n:]) for row in M)


@dataclass(frozen=True)
class CornerClass:
    """Torsion class where the derivation matrix vanishes."""

    kac_coordinates: tuple
    order: int
    values: tuple   # exact cyclotomic value per requested column


@dataclass(frozen=True)
class RootDatum:
    """Immutable description of a simple simply connected type."""

    letter: str
    rank: int
    cartan: tuple
    cartan_adj: tuple         # det C * C^-1, integers
    simple_roots: tuple       # columns of the Cartan matrix, weight basis
    positive_roots: tuple     # weight-basis coordinates
    positive_root_coords: tuple  # the same roots in the root basis
    highest_root: tuple
    a_coeffs: tuple
    fundamental_group_order: int
    form_A: tuple             # 2 form_scale adj(C)^T D, even integers
    form_scale: int
    minus_w0: tuple           # permutation of {0..r-1}
    weyl_order: int
    dim: int

    # -- basic geometry ------------------------------------------------------
    def pairing(self, u, v):
        """Invariant inner product u A v / 2 of two weight-basis vectors:
        an integer, as A is even."""
        A = self.form_A
        return sum(ui * sum(map(operator.mul, A[i], v))
                   for i, ui in enumerate(u) if ui) // 2

    def norm2(self, u):
        return self.pairing(u, u)

    def reflect(self, i, n):
        C = self.cartan
        ni = n[i]
        if not ni:
            return tuple(n)
        return tuple(n[k] - ni * C[k][i] for k in range(self.rank))

    def is_dominant(self, n):
        return all(x >= 0 for x in n)

    def dominantize(self, n):
        n = tuple(n)
        while True:
            for i, x in enumerate(n):
                if x < 0:
                    n = self.reflect(i, n)
                    break
            else:
                return n

    def scaled_root_coords(self, n):
        """det C times the root-basis coordinates of a weight-basis vector:
        adj C n, integers for every weight."""
        return tuple(sum(map(operator.mul, row, n)) for row in self.cartan_adj)

    def coroot_pairing(self, mu, beta):
        """<mu, beta-coroot> for a root beta, both in the weight basis."""
        return qq(2 * self.pairing(mu, beta), self.norm2(beta))

    @functools.cached_property
    def root_covectors(self):
        """A alpha for each positive root alpha, so that
        2 (nu, alpha) = nu . A alpha."""
        return tuple(tuple(sum(map(operator.mul, row, alpha)) for row in self.form_A)
                     for alpha in self.positive_roots)

    @property
    def rho(self):
        return (1,) * self.rank

    @property
    def fundamental_weights(self):
        r = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(r)) for i in range(r))

    def minus_one_in_weyl(self):
        return all(self.minus_w0[i] == i for i in range(self.rank))

    # -- identity ------------------------------------------------------------
    def content_hash(self):
        blob = json.dumps(
            {
                "letter": self.letter,
                "rank": self.rank,
                "cartan": [list(r) for r in self.cartan],
                "form_scale": self.form_scale,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def name(self):
        return "%s%d" % (self.letter, self.rank)

    def to_json(self):
        return {
            "schema": "charbounds/1",
            "kind": "root_datum",
            "type": self.letter,
            "rank": self.rank,
            "cartan": [list(r) for r in self.cartan],
            "dim": self.dim,
            "weyl_order": self.weyl_order,
            "fundamental_group_order": self.fundamental_group_order,
            "highest_root": list(self.highest_root),
            "a_coeffs": list(self.a_coeffs),
            "positive_roots": [list(r) for r in self.positive_roots],
            "form_A": [[str(x) for x in row] for row in self.form_A],
            "minus_w0": [i + 1 for i in self.minus_w0],
        }


_DATUM_CACHE = {}


def build_root_datum(letter, rank, form_scale=1):
    """Construct the full RootDatum; raises InvalidTypeError on bad input.

    Equal arguments return the same object, so cached characters built
    from one call interoperate with data built from another.
    """
    key = (str(letter).upper(), int(rank), form_scale)
    cached = _DATUM_CACHE.get(key)
    if cached is not None:
        return cached
    datum = _build_root_datum(letter, rank, form_scale)
    _DATUM_CACHE[key] = datum
    return datum


def _build_root_datum(letter, rank, form_scale=1):
    letter = letter.upper()
    rank = int(rank)
    validate_type(letter, rank)
    if form_scale < 1:
        raise ValueError("form_scale must be a positive integer")
    C = cartan_matrix(letter, rank)
    d = symmetrizers(letter, rank, C)
    det, adj = _adjugate(C)
    if det < 1:
        raise RootDatumError("Cartan determinant %s is not a positive integer" % det)
    r = rank

    simple_roots = tuple(tuple(C[k][i] for k in range(r)) for i in range(r))

    # closure of the simple roots under the simple reflections
    def reflect(i, n):
        ni = n[i]
        if not ni:
            return n
        return tuple(n[k] - ni * C[k][i] for k in range(r))

    seen = set(simple_roots)
    frontier = list(simple_roots)
    while frontier:
        nxt = []
        for root in frontier:
            for i in range(r):
                img = reflect(i, root)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt

    # a root's coordinates are adj C root / det C
    positives = []
    for root in seen:
        rc = [sum(map(operator.mul, row, root)) for row in adj]
        if min(rc) >= 0:
            if any(x % det for x in rc):
                raise RootDatumError("a root has non-integral coordinates")
            positives.append((tuple(x // det for x in rc), root))
    positives.sort(key=lambda p: (sum(p[0]), p[0]))
    pos_rc = tuple(p[0] for p in positives)
    pos_roots = tuple(p[1] for p in positives)

    dim_formula = _DIM_FORMULAS[letter]
    dim = dim_formula[rank] if isinstance(dim_formula, dict) else dim_formula(rank)
    if len(seen) != dim - r:
        raise RootDatumError("root count disagrees with the classification")

    highest = pos_roots[-1]
    a_coeffs = pos_rc[-1]
    if any(sum(rc) >= sum(a_coeffs) for rc in pos_rc[:-1]):
        raise RootDatumError("no unique highest root")

    # the basic form b (short roots have b-length^2 two) has the Gram matrix
    # 2 C^-T D on the fundamental weights; A is det C form_scale times it
    form_A = tuple(tuple(2 * form_scale * adj[j][i] * d[j] for j in range(r))
                   for i in range(r))

    datum = RootDatum(
        letter=letter,
        rank=rank,
        cartan=C,
        cartan_adj=adj,
        simple_roots=simple_roots,
        positive_roots=pos_roots,
        positive_root_coords=pos_rc,
        highest_root=highest,
        a_coeffs=a_coeffs,
        fundamental_group_order=det,
        form_A=form_A,
        form_scale=form_scale,
        minus_w0=(),
        weyl_order=_parabolic_order(pos_rc, range(r)),
        dim=dim,
    )
    # -w0 sends omega_i to -omega_{pi(i)}; read the permutation off
    # dominantizations of the negated fundamental weights.
    perm = []
    for i in range(r):
        neg = tuple(-1 if j == i else 0 for j in range(r))
        img = datum.dominantize(neg)
        if sum(img) != 1 or any(x not in (0, 1) for x in img):
            raise RootDatumError("-w0 does not permute the fundamental weights")
        perm.append(img.index(1))
    object.__setattr__(datum, "minus_w0", tuple(perm))
    return datum


def weyl_orbit(datum, weight):
    """Full Weyl orbit of a weight-basis vector, as a set of tuples."""
    start = tuple(int(x) for x in weight)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(datum.rank):
                img = datum.reflect(i, w)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def corners(datum, columns=None, memo=None):
    """The r+1 torsion classes where the derivation matrix vanishes.

    columns selects which fundamental characters get evaluated (1-based;
    default all).  Pass a shorter list for large types whose non-adjoint
    fundamentals are out of reach.  memo, a dict, keeps the classes per
    (datum, columns) for a caller that asks again; without one they are
    built afresh.
    """
    from . import charring  # local import; charring depends on this module

    r = datum.rank
    if columns is None:
        columns = tuple(range(1, r + 1))
    else:
        columns = tuple(int(j) for j in columns)
        if any(j < 1 or j > r for j in columns):
            raise ValueError("columns must be between 1 and %d" % r)
    key = (datum, columns)
    if memo is not None and key in memo:
        return memo[key]
    fundamentals = [
        charring.irreducible_character(datum, datum.fundamental_weights[j - 1])
        for j in columns
    ]
    classes = []
    for i in range(r + 1):
        # the functional u with <mu, v> = u . (weight coords of mu)
        if i == 0:
            point = (0,) * r
        else:
            den = datum.fundamental_group_order * datum.a_coeffs[i - 1]
            point = tuple(qq(x, den) for x in datum.cartan_adj[i - 1])
        classes.append((point, math.lcm(*(int(x.denominator) for x in point))))
    # values[j][i]: fundamental j at corner i, one orbit walk per character
    values = [charring.evaluate_at_torsions(f, classes) for f in fundamentals]
    found = tuple(
        CornerClass(
            kac_coordinates=tuple(1 if j == i else 0 for j in range(r + 1)),
            order=order,
            values=tuple(v[i] for v in values),
        )
        for i, (_, order) in enumerate(classes)
    )
    if memo is not None:
        memo[key] = found
    return found


_STAB_CACHE = {}


def weyl_stabilizer_order(datum, weight):
    """Order of the stabilizer of a dominant weight: the parabolic
    subgroup generated by the simple reflections fixing the weight."""
    zeros = tuple(i for i, x in enumerate(weight) if x == 0)
    key = (datum.letter, datum.rank, zeros)
    hit = _STAB_CACHE.get(key)
    if hit is None:
        hit = _STAB_CACHE[key] = _parabolic_order(
            datum.positive_root_coords, zeros
        )
    return hit


def _parabolic_order(positive_root_coords, nodes):
    """|W_J| for the simple reflections J = nodes, by Macdonald's formula:
    the product of (ht a + 1) / ht a over the positive roots a (in the
    root basis) supported on J."""
    num = den = 1
    for rc in positive_root_coords:
        if all(i in nodes for i, c in enumerate(rc) if c):
            ht = sum(rc)
            num *= ht + 1
            den *= ht
    return num // den


def weyl_elements(datum, cap=10_000_000, with_sign=False):
    """All Weyl elements as integer tuple-of-tuples matrices on the weight
    basis.

    Breadth-first closure: each frontier is multiplied on the right by
    every simple reflection in turn, and new products are kept in that
    generator-major discovery order.
    """
    if datum.weyl_order > cap:
        raise EnumerationCapError(
            "enumeration refused: |W| = %d exceeds cap %d"
            % (datum.weyl_order, cap)
        )
    r = datum.rank
    # the simple reflection s_i fixes every fundamental weight but omega_i,
    # which it sends to omega_i - alpha_i (alpha_i is column i of the Cartan
    # matrix); so w s_i is w with column i replaced by w (e_i - alpha_i)
    columns = [
        tuple(int(k == i) - datum.cartan[k][i] for k in range(r)) for i in range(r)
    ]
    ident = tuple(tuple(int(k == j) for j in range(r)) for k in range(r))
    seen = {ident}
    elements = [ident]
    signs = [1]
    frontier = [(ident, 1)]
    while frontier:
        grown = []
        for i, col in enumerate(columns):
            for w, sign in frontier:
                v = tuple(
                    row[:i] + (sum(map(operator.mul, row, col)),) + row[i + 1:]
                    for row in w
                )
                if v not in seen:
                    seen.add(v)
                    grown.append((v, -sign))
        frontier = grown
        elements.extend(w for w, _ in grown)
        signs.extend(sign for _, sign in grown)
    if len(elements) != datum.weyl_order:
        raise RootDatumError("%d Weyl elements, not |W| = %d"
                             % (len(elements), datum.weyl_order))
    if with_sign:
        return elements, signs
    return elements


def weyl_min_trace(datum, cap=10_000_000):
    """Minimum trace of Weyl elements on the reflection representation."""
    elements = weyl_elements(datum, cap=cap)
    return min(sum(w[k][k] for k in range(datum.rank)) for w in elements)
