"""Literal character-ring routes, kept as references for the fast paths.

The library converts characters to polynomials in the fundamental
characters by an exact q-evaluation, and builds the derivation matrix in
that q-evaluation shadow.  The routes here do the same work literally in
the character ring: leading-dominant-term subtraction, the biderivation
M_A(f, g) = D(fg) - f D(g) - D(f) g of the pseudo-Casimir D_A, and the
Casimir C_A, which induces the same biderivation.  The library finds the
dominant weights below a highest weight by a walk down positive roots;
the routes here enumerate the whole box of root coordinates under it.
They are slow, and every result they give is unique, so the fast paths
must agree exactly.
"""

from charbounds import charring
from charbounds.charring import (
    CharacterElement,
    DEFAULT_ORBIT_CAP,
    FundamentalPolynomial,
    fundamental_characters,
    multiply,
    trivial_character,
)
from charbounds.polynomials import QZERO, Poly

from datum_oracle import root_coords


def box_character(datum, lam):
    """Weight multiplicities of the irreducible with highest weight lam:
    Freudenthal's recursion over the dominant leaves of the box
    0 <= c_i <= (root coordinates of lam)_i of mu = lam - sum c_i alpha_i,
    each alpha-string cut where it leaves the box."""
    rank = datum.rank
    bounds = [int(x) for x in root_coords(datum, lam)]
    by_level = {}
    C = datum.cartan

    def descend(i, c, coords):
        if i == rank:
            if all(x >= 0 for x in coords):
                by_level.setdefault(sum(c), []).append((tuple(c), coords))
            return
        cur = list(coords)
        for ci in range(bounds[i] + 1):
            if ci:
                for k in range(rank):
                    cur[k] -= C[k][i]
            descend(i + 1, c + [ci], tuple(cur))

    descend(0, [], tuple(lam))

    mult = {}
    rho = datum.rho
    n_lam_rho = datum.norm2(tuple(a + b for a, b in zip(lam, rho)))
    for level in sorted(by_level):
        for c, mu in by_level[level]:
            if level == 0:
                mult[mu] = 1
                continue
            acc = QZERO
            for alpha, alpha_rc in zip(
                datum.positive_roots, datum.positive_root_coords
            ):
                k = 1
                while all(k * a <= ct for a, ct in zip(alpha_rc, c)):
                    nu = tuple(m + k * a for m, a in zip(mu, alpha))
                    acc += mult.get(datum.dominantize(nu), 0) * datum.pairing(nu, alpha)
                    k += 1
            if acc:
                mu_rho = tuple(a + b for a, b in zip(mu, rho))
                val = 2 * acc / (n_lam_rho - datum.norm2(mu_rho))
                assert val.denominator == 1 and val > 0
                mult[mu] = int(val)
    return mult


def box_cone(datum, tops):
    """Exponent vectors m with sum m_i omega_i below some top in dominance,
    from the box of m whose root-coordinate budget stays nonnegative."""
    rank = datum.rank
    omega_rc = [root_coords(datum, w) for w in datum.fundamental_weights]
    found = set()
    for top in tops:

        def descend(i, m, budget):
            if i == rank:
                if all(x >= 0 and x.denominator == 1 for x in budget):
                    found.add(tuple(m))
                return
            mi = 0
            cur = list(budget)
            while all(x >= 0 for x in cur):
                descend(i + 1, m + [mi], tuple(cur))
                mi += 1
                for k in range(rank):
                    cur[k] -= omega_rc[i][k]

        descend(0, [], root_coords(datum, top))
    return sorted(found)


def to_fundamental_polynomial(c, strategy="qeval", cap=DEFAULT_ORBIT_CAP):
    """The library's q-evaluation ("qeval") or literal subtraction
    ("subtract")."""
    if strategy == "subtract" and not c.is_zero():
        return convert_subtract(c, cap)
    return charring.to_fundamental_polynomial(c)


def convert_subtract(c, cap=DEFAULT_ORBIT_CAP):
    """Repeated leading-dominant-term subtraction in the character ring."""
    datum = c.datum
    funds = fundamental_characters(datum)
    work = dict(c.mult)
    out = {}
    power_cache = {}

    def height(w):
        return sum(root_coords(datum, w))

    while work:
        lam = max(work, key=lambda w: (height(w), w))
        coeff = work[lam]
        out[lam] = coeff
        if lam not in power_cache:
            prod = trivial_character(datum)
            for i, e in enumerate(lam):
                for _ in range(e):
                    prod = multiply(prod, funds[i], cap=cap)
            power_cache[lam] = prod
        for w, c2 in power_cache[lam].mult.items():
            s = work.get(w, 0) - coeff * c2
            if s:
                work[w] = s
            else:
                work.pop(w, None)
    return FundamentalPolynomial(datum, Poly(datum.rank, out))


def apply_DA(datum, c):
    """D_A: scale each weight by its square length (orbit-constant)."""
    out = {}
    for w, m in c.mult.items():
        v = m * datum.norm2(w)
        if v:
            out[w] = v
    return CharacterElement(datum, out)


def apply_CA(datum, combo):
    """Casimir on an irreducible-basis combination {lambda: coeff}.

    Eigenvalue on chi_lambda is A(lambda+rho) - A(rho).
    """
    rho = datum.rho
    n_rho = datum.norm2(rho)
    out = {}
    for lam, coeff in combo.items():
        shifted = tuple(a + b for a, b in zip(lam, rho))
        eig = datum.norm2(shifted) - n_rho
        v = coeff * eig
        if v:
            out[lam] = v
    return out


def ca_element(datum, c):
    """C_A applied to a CharacterElement, back in weight coordinates."""
    combo = apply_CA(datum, charring.decompose(c))
    acc = CharacterElement(datum, {})
    for lam, coeff in combo.items():
        acc = acc.add(charring.irreducible_character(datum, lam).scale(coeff))
    return acc


def biderivation(datum, f, g, strategy="qeval", operator="DA"):
    """M_A(f, g) as a polynomial in the fundamental characters."""
    op = apply_DA if operator == "DA" else ca_element
    m = op(datum, multiply(f, g)).sub(multiply(f, op(datum, g))).sub(
        multiply(op(datum, f), g)
    )
    return to_fundamental_polynomial(m, strategy=strategy)


def derivation_entries(datum, strategy):
    """The entries M_A(f_i, f_j) of the derivation matrix, one biderivation
    at a time."""
    r = datum.rank
    funds = fundamental_characters(datum)
    grid = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            poly = biderivation(datum, funds[i], funds[j], strategy=strategy).poly
            grid[i][j] = poly
            grid[j][i] = poly
    return tuple(tuple(row) for row in grid)


def derivation_entries_r2(datum):
    """The derivation matrix by r^2 rational convolutions per entry:
    M(f_i, f_j) = sum_kl A[k][l] G_k^i G_l^j, the double sum over form_A
    taken term by term with its rational entries."""
    r = datum.rank
    funds = fundamental_characters(datum)
    tops = sorted({
        tuple(a + b for a, b in zip(datum.fundamental_weights[i],
                                    datum.fundamental_weights[j]))
        for i in range(r) for j in range(i, r)
    })
    ctx = charring.QevalContext(datum, tops)
    A = datum.form_A
    weighted = [ctx.weighted_qpolys(f)[1] for f in funds]
    grid = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            acc = {}
            for k in range(r):
                for l in range(r):
                    a = A[k][l]
                    if not a:
                        continue
                    conv = charring.qconv(weighted[i][k], weighted[j][l])
                    for p, v in conv.items():
                        s = acc.get(p, 0) + a * v
                        if s:
                            acc[p] = s
                        else:
                            acc.pop(p, None)
            poly = Poly(r, ctx.solve(acc))
            grid[i][j] = poly
            grid[j][i] = poly
    return tuple(tuple(row) for row in grid)
