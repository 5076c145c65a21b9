"""Reference values that do not come from charbounds.

Everything here is either a published value (the F4 and E8 corner
tables, the worked G2 matrix, the F4 minima) or a classical fact
recomputed from scratch (root systems, the Weyl dimension formula, the
SU(2) character sin((d+1)x)/sin(x)).  The sources are listed in
perfbench/README.md.  Nothing imports charbounds.
"""

import functools
import math
from fractions import Fraction as F


def gram_matrix(letter, rank):
    """(alpha_i, alpha_j) for the simple roots, Bourbaki numbering."""
    n = rank
    g = [[F(0)] * n for _ in range(n)]

    def link(i, j, v):
        g[i - 1][j - 1] = g[j - 1][i - 1] = F(v)

    if letter in ("A", "D", "E"):
        for i in range(n):
            g[i][i] = F(2)
        if letter == "A":
            for i in range(1, n):
                link(i, i + 1, -1)
        elif letter == "D":
            for i in range(1, n - 1):
                link(i, i + 1, -1)
            link(n - 2, n, -1)
        else:
            for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
                if j <= n:
                    link(i, j, -1)
    elif letter == "B":
        for i in range(n):
            g[i][i] = F(2 if i < n - 1 else 1)
        for i in range(1, n):
            link(i, i + 1, -1)
    elif letter == "C":
        for i in range(n):
            g[i][i] = F(1 if i < n - 1 else 2)
        for i in range(1, n - 1):
            link(i, i + 1, F(-1, 2))
        link(n - 1, n, -1)
    elif letter == "F":
        g[0][0] = g[1][1] = F(2)
        g[2][2] = g[3][3] = F(1)
        link(1, 2, -1)
        link(2, 3, -1)
        link(3, 4, F(-1, 2))
    elif letter == "G":
        g[0][0], g[1][1] = F(2), F(6)
        link(1, 2, -3)
    else:
        raise ValueError("no type %s%d" % (letter, rank))
    return g


class RootSystem:
    """Positive roots in the simple-root basis, by closure under reflections."""

    def __init__(self, letter, rank):
        self.rank = rank
        self.gram = g = gram_matrix(letter, rank)
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        roots, frontier = set(simple), list(simple)
        while frontier:
            nxt = []
            for a in frontier:
                for i in range(rank):
                    # s_i(a) = a - 2 (a, alpha_i) / (alpha_i, alpha_i) alpha_i
                    k = 2 * sum(a[j] * g[j][i] for j in range(rank)) / g[i][i]
                    b = tuple(a[j] - (k if j == i else 0) for j in range(rank))
                    b = tuple(int(x) for x in b)
                    if b not in roots:
                        roots.add(b)
                        nxt.append(b)
            frontier = nxt
        self.positive = sorted(r for r in roots if all(x >= 0 for x in r))

    def _pair(self, weight, root):
        # (sum l_j omega_j, sum c_j alpha_j) = sum c_j l_j (alpha_j, alpha_j)/2
        return sum(
            F(c * l) * self.gram[j][j] / 2
            for j, (c, l) in enumerate(zip(root, weight))
        )

    def dimension(self, weight):
        """Weyl dimension formula for the highest weight sum l_j omega_j."""
        shifted = [l + 1 for l in weight]
        rho = [1] * self.rank
        out = F(1)
        for a in self.positive:
            out *= self._pair(shifted, a) / self._pair(rho, a)
        assert out.denominator == 1
        return int(out)

    def highest_root_weight(self):
        theta = max(self.positive, key=sum)
        g = self.gram
        return tuple(
            int(2 * sum(theta[j] * g[j][i] for j in range(self.rank)) / g[i][i])
            for i in range(self.rank)
        )

    def fundamental(self, i):
        """Highest weight of the i-th fundamental representation (1-based)."""
        return tuple(int(j == i - 1) for j in range(self.rank))


_ROOT_SYSTEMS = {}


def root_system(letter, rank):
    key = (letter, rank)
    if key not in _ROOT_SYSTEMS:
        _ROOT_SYSTEMS[key] = RootSystem(letter, rank)
    return _ROOT_SYSTEMS[key]


def dimension(letter, rank, objective):
    """Degree of 'adjoint' or 'fK' for the given type."""
    rs = root_system(letter, rank)
    if objective == "adjoint":
        return rs.dimension(rs.highest_root_weight())
    return rs.dimension(rs.fundamental(int(objective[1:])))


def minus_one_in_weyl(letter, rank):
    """-1 lies in W exactly outside A_n (n >= 2), D_odd and E6."""
    return not (
        (letter == "A" and rank >= 2)
        or (letter == "D" and rank % 2 == 1)
        or (letter == "E" and rank == 6)
    )


def adjoint_minimum(letter, rank):
    """Serre's bound: -rank when -1 is in W; -1 for A_n, 2-n for D_odd, -3 for E6."""
    if minus_one_in_weyl(letter, rank):
        return -rank
    if letter == "A":
        return -1
    if letter == "D":
        return 2 - rank
    return -3


# Minima of the objectives the benchmark asks for, besides the adjoint.
#   "vector": the B_n vector representation, minimum 1 - 2n.
#   "central": a central element acts by -1, so the minimum is -degree.
#   "short-root": the highest-short-root representation (C_n, G2).
# F4 f2 is the one irrational value; it is checked separately.
MINIMUM_RULES = {
    ("A", 1, "f1"): "central",
    ("A", 3, "f2"): "central",   # SU(4) -> SO(6), the vector of SO(6)
    ("B", 2, "f1"): "vector",
    ("B", 2, "f2"): "central",   # spin representation of Spin(5)
    ("B", 3, "f1"): "vector",
    ("B", 3, "f2"): "adjoint",
    ("B", 4, "f1"): "vector",
    ("B", 4, "f2"): "adjoint",
    ("C", 3, "f1"): "central",
    ("C", 3, "f2"): "short-root",
    ("C", 3, "f3"): "central",
    ("C", 4, "f1"): "central",
    ("C", 4, "f3"): "central",
    ("D", 4, "f1"): "central",
    ("D", 4, "f2"): "adjoint",
    ("D", 4, "f3"): "central",
    ("D", 4, "f4"): "central",
    ("G", 2, "f1"): "short-root",
    ("G", 2, "f2"): "adjoint",
    ("F", 4, "f1"): "adjoint",
    ("F", 4, "f3"): "published",
    ("F", 4, "f4"): "published",
}

F4_PUBLISHED_MINIMA = {"f1": -4, "f3": -15, "f4": -6}
# the F4 f2 minimum is the negative root of 27 x^2 - 196 x - 9604
F4_F2_MINPOLY = (-9604, -196, 27)
F4_F2_MINIMUM = 98.0 / 27.0 * (1.0 - 2.0 * math.sqrt(7.0))


def reference_minimum(letter, rank, objective):
    """Exact rational minimum, or None for the irrational F4 f2 value."""
    if objective == "adjoint":
        return adjoint_minimum(letter, rank)
    if (letter, rank, objective) == ("F", 4, "f2"):
        return None
    rule = MINIMUM_RULES[(letter, rank, objective)]
    if rule == "central":
        return -dimension(letter, rank, objective)
    if rule == "vector":
        return 1 - 2 * rank
    if rule == "adjoint":
        return adjoint_minimum(letter, rank)
    if rule == "short-root":
        return short_root_minimum(letter, rank)
    return F4_PUBLISHED_MINIMA[objective]


def short_root_minimum(letter, rank):
    """Minimum on the highest-short-root representation."""
    n = rank
    if letter == "B":
        return 1 - 2 * n
    if letter == "C":
        return 1 - n if n % 2 else -1 - n
    return {"F": -6, "G": -2}[letter]


SHORT_ROOT_WEIGHT = {"B": 1, "C": 2, "F": 4, "G": 1}  # which fundamental


# Published corner tables: Kac coordinates -> fundamental character values.
G2_CORNERS = {(7, 14), (-2, 5), (-1, -2)}
F4_CORNERS = {
    (1, 0, 0, 0, 0): (52, 1274, 273, 26),
    (0, 1, 0, 0, 0): (-4, -14, -7, 2),
    (0, 0, 1, 0, 0): (-2, 5, 3, -1),
    (0, 0, 0, 1, 0): (0, -10, 5, -2),
    (0, 0, 0, 0, 1): (20, 154, -15, -6),
}
E8_ADJOINT_COLUMN = sorted([248, -8, 24, -4, 5, -4, -2, -3, 0])

# The worked G2 derivation matrix in f1/f2 coordinates: (i, j) -> {monomial: c}
G2_MATRIX = {
    (0, 0): {(2, 0): 4, (0, 1): -4, (1, 0): -16, (0, 0): -28},
    (0, 1): {(1, 1): 6, (2, 0): -14, (0, 1): 14, (1, 0): -16, (0, 0): 14},
    (1, 1): {(3, 0): -12, (0, 2): 12, (1, 1): 24, (2, 0): -20, (0, 1): 8,
             (1, 0): 44, (0, 0): -28},
}

WEYL_ORDER = {("F", 4): 1152}

# min over x of sin(x)/x is -c, attained where tan(x) = x on (pi, 3pi/2)
LIMIT_THETA0 = 4.493409457909064
LIMIT_CONSTANT = -math.sin(LIMIT_THETA0) / LIMIT_THETA0


@functools.lru_cache(maxsize=None)
def su2_minimum(d):
    """Minimum of sin((d+1)x)/sin(x) over [0, pi], by grid and bisection.

    The endpoints give d+1 and (-1)^d (d+1).  Interior minima are found
    on a grid and polished by ternary search, to about 1e-13.
    """
    def chi(x):
        return math.sin((d + 1) * x) / math.sin(x)

    best = min(d + 1, (-1) ** d * (d + 1))
    steps = 4000
    h = math.pi / steps
    xs = [k * h for k in range(1, steps)]
    ys = [chi(x) for x in xs]
    for k in range(1, len(xs) - 1):
        if ys[k] <= ys[k - 1] and ys[k] <= ys[k + 1]:
            lo, hi = xs[k - 1], xs[k + 1]
            for _ in range(200):
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if chi(m1) < chi(m2):
                    hi = m2
                else:
                    lo = m1
            best = min(best, chi((lo + hi) / 2))
    return best
