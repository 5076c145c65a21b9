"""Exact arithmetic in the W-invariant weight-lattice ring.

Characters are stored by dominant-weight multiplicities; conversion to
polynomials in the fundamental characters runs leading-term subtraction
on exact q-evaluations, which gives the literal subtraction's output far
faster.  The value at a torsion class of order m is an element of
algsolve.cyclotomic_field(m).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from collections import defaultdict
from dataclasses import dataclass

from .algsolve import CertificateError, cyclotomic_field
from .polynomials import QQ, Poly, qq, qq_str
from .rootdata import RootDatum, weyl_orbit, weyl_stabilizer_order

DEFAULT_ORBIT_CAP = 10_000_000


class OrbitCapError(RuntimeError):
    """Raised when an orbit expansion, or the orbits a derivation matrix
    would expand, exceed the cap."""


class CharacterElement:
    """W-invariant element of the weight-lattice group ring."""

    __slots__ = ("datum", "mult", "_dim")

    def __init__(self, datum, mult, dim=None):
        self.datum = datum
        clean = {}
        for w, c in mult.items():
            w = tuple(int(x) for x in w)
            if not datum.is_dominant(w):
                raise ValueError("non-dominant key %s" % (w,))
            c = c if isinstance(c, int) else qq(c)
            if c:
                clean[w] = clean.get(w, 0) + c
        self.mult = {w: c for w, c in clean.items() if c}
        self._dim = dim

    def __eq__(self, other):
        return (
            isinstance(other, CharacterElement)
            and self.datum is other.datum
            and self.mult == other.mult
        )

    def __hash__(self):
        return hash(frozenset(self.mult.items()))

    def is_zero(self):
        return not self.mult

    def add(self, other):
        out = dict(self.mult)
        for w, c in other.mult.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return CharacterElement(self.datum, out)

    def scale(self, c):
        if not c:
            return CharacterElement(self.datum, {})
        return CharacterElement(self.datum, {w: v * c for w, v in self.mult.items()})

    def sub(self, other):
        return self.add(other.scale(-1))

    def dimension(self):
        """Sum of multiplicities over full orbits (exact, via stabilizers)."""
        if self._dim is not None:
            return self._dim
        total = 0
        for w, c in self.mult.items():
            orbit = self.datum.weyl_order // weyl_stabilizer_order(self.datum, w)
            total += c * orbit
        self._dim = total
        return total

    def tops(self):
        """Maximal elements of the dominant support under dominance order."""
        keys = list(self.mult)
        out = []
        for w in keys:
            if not any(v != w and _dominance_geq(self.datum, v, w) for v in keys):
                out.append(w)
        return sorted(out)

    def orbit_walk(self, cap=DEFAULT_ORBIT_CAP):
        """(weight, multiplicity) over the whole Weyl orbit expansion, one
        orbit at a time; the orbits of distinct dominant weights are
        disjoint, so each weight comes once.  OrbitCapError, before any
        weight, when there are more than cap of them."""
        datum = self.datum
        if orbit_count(datum, self.mult) > cap:
            raise OrbitCapError(
                "orbit expansion refused: more than %d weights" % cap
            )
        return ((v, c) for w, c in self.mult.items()
                for v in weyl_orbit(datum, w))

    def full_expansion(self, cap=DEFAULT_ORBIT_CAP):
        """Map weight -> multiplicity over the whole Weyl orbit expansion."""
        return dict(self.orbit_walk(cap))

    def to_json(self):
        return {
            "datum": self.datum.name(),
            "mult": [[list(w), qq_str(c)] for w, c in sorted(self.mult.items())],
        }

    def __repr__(self):
        return "CharacterElement(%s, %s)" % (self.datum.name(), self.mult)


def _dominance_geq(datum, v, w):
    """v >= w in dominance order (difference in the positive root cone)."""
    det = datum.fundamental_group_order
    rc = datum.scaled_root_coords(tuple(map(operator.sub, v, w)))
    return all(x >= 0 and not x % det for x in rc)


def trivial_character(datum):
    return CharacterElement(datum, {(0,) * datum.rank: 1}, dim=1)


# ---------------------------------------------------------------------------
# irreducible characters

_IRR_CACHE = {}


def dominant_below(datum, top):
    """Map each dominant mu <= top to its depth ht(top - mu).

    A walk mu -> mu - alpha down the positive roots alpha that keeps only
    dominant weights reaches every dominant mu <= top (Stembridge, Adv.
    Math. 136, 1998); each step adds ht alpha to the depth.
    """
    top = tuple(int(x) for x in top)
    steps = [(alpha, sum(rc)) for alpha, rc in
             zip(datum.positive_roots, datum.positive_root_coords)]
    depth = {top: 0}
    stack = [top]
    while stack:
        mu = stack.pop()
        for alpha, ht in steps:
            nu = tuple(map(operator.sub, mu, alpha))
            if min(nu) >= 0 and nu not in depth:
                depth[nu] = depth[mu] + ht
                stack.append(nu)
    return depth


def irreducible_character(datum, lam):
    """Weight multiplicities of the irreducible with highest weight lam.

    Freudenthal recursion over the dominant weights below lam, level by
    level (Moody and Patera, Bull. AMS 7, 1982).  Each alpha-string
    mu + k alpha runs up to the first weight whose dominant representative
    has no multiplicity yet: weight strings are unbroken, and every
    higher level is done.  Each multiplicity is checked to be a positive
    integer, and the dimension against the Weyl dimension formula, on
    every construction.
    """
    lam = tuple(int(x) for x in lam)
    if not datum.is_dominant(lam):
        raise ValueError("highest weight must be dominant, got %s" % (lam,))
    key = (datum.content_hash(), lam)
    hit = _IRR_CACHE.get(key)
    if hit is not None:
        return hit

    depth = dominant_below(datum, lam)
    # 2 (nu, alpha) = nu . A alpha: one integer covector per positive root
    n_lam_rho = datum.norm2(tuple(a + b for a, b in zip(lam, datum.rho)))
    mult = {lam: 1}
    for mu in sorted(depth, key=depth.get)[1:]:
        acc = 0
        for alpha, g in zip(datum.positive_roots, datum.root_covectors):
            nu = tuple(map(operator.add, mu, alpha))
            while mv := mult.get(datum.dominantize(nu)):
                acc += mv * sum(map(operator.mul, nu, g))
                nu = tuple(map(operator.add, nu, alpha))
        mu_rho = tuple(a + b for a, b in zip(mu, datum.rho))
        gap = n_lam_rho - datum.norm2(mu_rho)
        val, rest = divmod(acc, gap)
        if rest or val <= 0:
            raise CertificateError(
                "Freudenthal multiplicity %s at %s in %s is not a "
                "positive integer" % (qq_str(qq(acc, gap)), mu, lam)
            )
        mult[mu] = val

    dim = _weyl_dimension(datum, lam)
    check = 0
    for w, c in mult.items():
        check += c * (datum.weyl_order // weyl_stabilizer_order(datum, w))
    if check != dim:
        raise CertificateError(
            "Freudenthal dimension %d at %s disagrees with the Weyl formula "
            "(%d)" % (check, lam, dim)
        )
    out = CharacterElement(datum, mult, dim=dim)
    _IRR_CACHE[key] = out
    return out


def _weyl_dimension(datum, lam):
    """prod (lam + rho) . A alpha / prod rho . A alpha over the positive
    roots alpha, on integers."""
    lam_rho = tuple(a + b for a, b in zip(lam, datum.rho))
    num = den = 1
    for g in datum.root_covectors:
        num *= sum(map(operator.mul, lam_rho, g))
        den *= sum(g)
    val, rest = divmod(num, den)
    if rest:
        raise CertificateError("Weyl dimension of %s is not an integer" % (lam,))
    return val


def fundamental_characters(datum):
    return [irreducible_character(datum, w) for w in datum.fundamental_weights]


def decompose(c):
    """Coefficients of an invariant element in the irreducible basis.

    Peels maximal dominant weights; valid for virtual (rational)
    combinations as well.
    """
    datum = c.datum
    work = dict(c.mult)
    out = {}

    def height(w):
        # det C times the height: the same order
        return sum(datum.scaled_root_coords(w))

    while work:
        lam = max(work, key=lambda w: (height(w), w))
        coeff = work[lam]
        out[lam] = coeff
        for w, m in irreducible_character(datum, lam).mult.items():
            s = work.get(w, 0) - coeff * m
            if s:
                work[w] = s
            else:
                work.pop(w, None)
    return out


# ---------------------------------------------------------------------------
# ring operations

def multiply(a, b, cap=DEFAULT_ORBIT_CAP):
    """Product in the invariant ring via convolution against dominant
    representatives of the larger factor."""
    if a.datum is not b.datum:
        raise ValueError("datum mismatch")
    datum = a.datum
    if a.is_zero() or b.is_zero():
        return CharacterElement(datum, {})
    small, large = ((a, b) if orbit_count(datum, a.mult) <= orbit_count(datum, b.mult)
                    else (b, a))
    full_small = small.full_expansion(cap=cap)
    dom_large = large.mult

    candidates = set()
    for nu in full_small:
        for kappa in dom_large:
            s = tuple(x + y for x, y in zip(nu, kappa))
            candidates.add(datum.dominantize(s))

    out = {}
    for delta in candidates:
        acc = 0
        for nu, cn in full_small.items():
            rest = datum.dominantize(tuple(d - x for d, x in zip(delta, nu)))
            cl = dom_large.get(rest)
            if cl:
                acc += cn * cl
        if acc:
            out[delta] = acc
    dim = None
    if a._dim is not None and b._dim is not None:
        dim = a._dim * b._dim
    return CharacterElement(datum, out, dim=dim)


def orbit_count(datum, weights):
    """The number of weights in the Weyl orbits of the dominant weights."""
    return sum(datum.weyl_order // weyl_stabilizer_order(datum, w) for w in weights)


@dataclass(frozen=True)
class FundamentalPolynomial:
    """Polynomial in the coordinates f_1..f_r of T/W."""

    datum: RootDatum
    poly: Poly

    def to_str(self):
        return self.poly.to_str()

    def to_json(self):
        return {"datum": self.datum.name(), "terms": self.poly.to_json()}


def expand(fp, cap=DEFAULT_ORBIT_CAP):
    """Expand a FundamentalPolynomial back into the invariant ring."""
    datum = fp.datum
    funds = fundamental_characters(datum)
    power_cache = {}

    def monomial_char(mono):
        out = trivial_character(datum)
        for i, e in enumerate(mono):
            for _ in range(e):
                out = multiply(out, funds[i], cap=cap)
        return out

    acc = CharacterElement(datum, {})
    for mono, coeff in sorted(fp.poly.terms.items()):
        if mono not in power_cache:
            power_cache[mono] = monomial_char(mono)
        acc = acc.add(power_cache[mono].scale(coeff))
    return acc


# ---------------------------------------------------------------------------
# q-evaluation: exact leading-term subtraction in a one-variable shadow

class QevalContext:
    """Shared state for converting invariant elements below fixed tops.

    The functional u is a strictly dominant integer covector (positive on
    every simple root), injective on the candidate monomial cone; seeded
    from the datum hash for reproducibility.
    """

    def __init__(self, datum, tops):
        self.datum = datum
        # sum m_i omega_i has weight coordinates m: the cone is the
        # dominant weights below the tops
        self.cone = sorted(set().union(*(dominant_below(datum, t) for t in tops)))
        self.u = self._pick_functional()
        self.lookup = {}
        for m in self.cone:
            p = sum(a * b for a, b in zip(m, self.u))
            if p in self.lookup:
                raise CertificateError(
                    "the functional %s is not injective on the cone" % (self.u,)
                )
            self.lookup[p] = m
        self._mono_cache = {(0,) * datum.rank: {0: 1}}

    @functools.cached_property
    def fund_qpolys(self):
        return [self.char_qpoly(f) for f in fundamental_characters(self.datum)]

    def _pick_functional(self):
        datum = self.datum
        rng = random.Random(int(datum.content_hash()[:12], 16))
        adj = datum.cartan_adj
        for _ in range(64):
            w = [rng.randint(1, 60) for _ in range(datum.rank)]
            # u = w^T adj C pairs positively with every simple root
            u = [
                sum(adj[i][k] * w[i] for i in range(datum.rank))
                for k in range(datum.rank)
            ]
            vals = {sum(a * b for a, b in zip(m, u)) for m in self.cone}
            if len(vals) == len(self.cone):
                return tuple(u)
        raise RuntimeError("no injective functional found")

    def pvalue(self, weight):
        return sum(a * b for a, b in zip(weight, self.u))

    def char_qpoly(self, char):
        """Sparse q-image."""
        full = char.full_expansion()
        out = {}
        for nu, c in full.items():
            p = self.pvalue(nu)
            s = out.get(p, 0) + c
            if s:
                out[p] = s
            else:
                out.pop(p, None)
        return out

    def weighted_qpolys(self, char):
        """The q-image of char and its q-images with each e^nu weighted by
        nu_k, k < rank, from one orbit expansion."""
        plain = defaultdict(int)
        outs = [defaultdict(int) for _ in range(self.datum.rank)]
        for nu, c in char.orbit_walk():
            p = self.pvalue(nu)
            plain[p] += c
            for out, x in zip(outs, nu):
                if x:
                    out[p] += c * x
        return ({p: v for p, v in plain.items() if v},
                [{p: v for p, v in out.items() if v} for out in outs])

    def monomial_qpoly(self, mono):
        cached = self._mono_cache.get(mono)
        if cached is not None:
            return cached
        i = max(k for k, e in enumerate(mono) if e)
        parent = tuple(e - (1 if k == i else 0) for k, e in enumerate(mono))
        out = qconv(self.monomial_qpoly(parent), self.fund_qpolys[i])
        top = self.pvalue(mono)
        if max(out) != top or out[top] != 1:
            raise CertificateError(
                "q-image of the monomial %s does not lead with q^%d" % (mono, top)
            )
        self._mono_cache[mono] = out
        return out

    def solve(self, qvalue):
        """Peel leading q-terms; returns the monomial->coefficient map.
        Every monomial image leads with coefficient 1 (monomial_qpoly
        checks it), so an integer q-value peels on integers."""
        rem = dict(qvalue)
        out = {}
        while rem:
            e = max(rem)
            mono = self.lookup.get(e)
            if mono is None:
                raise CertificateError("leading exponent %d outside cone" % e)
            c = rem.pop(e)
            out[mono] = c
            for p, v in self.monomial_qpoly(mono).items():
                if p == e:
                    continue
                s = rem.get(p, 0) - c * v
                if s:
                    rem[p] = s
                else:
                    rem.pop(p, None)
        return out


def qconv(a, b):
    """Exact convolution of exponent->coefficient maps with integer
    coefficients."""
    return qdot((a,), (b,))


def qdot(lefts, rights):
    """sum_k lefts[k] * rights[k], convolutions of exponent->coefficient
    maps with integer coefficients, by Kronecker substitution.

    Every exponent lies in lo + g Z.  A map is the integer
    sum c 2^(8 w (p - min) / g), its slots w bytes wide, enough for every
    input coefficient and every coefficient of the sum; so the
    convolutions are integer products, added up shifted to the least
    exponent, and read back one slot at a time after a bias of
    2^(8 w - 1) per slot."""
    pairs = [(a, b) for a, b in zip(lefts, rights) if a and b]
    if not pairs:
        return {}
    lo = min(min(a) + min(b) for a, b in pairs)
    hi = max(max(a) + max(b) for a, b in pairs)
    g = math.gcd(*(min(a) + min(b) - lo for a, b in pairs))
    for m in itertools.chain.from_iterable(pairs):
        least = min(m)
        g = math.gcd(g, *(p - least for p in m))
    g = g or 1
    peaks = [(max(map(abs, a.values())), max(map(abs, b.values()))) for a, b in pairs]
    bound = sum(min(len(a), len(b)) * x * y for (a, b), (x, y) in zip(pairs, peaks))
    w = max(bound, *itertools.chain.from_iterable(peaks)).bit_length() // 8 + 1
    total = 0
    for a, b in pairs:
        shift = (min(a) + min(b) - lo) // g
        total += (_kronecker(a, w, g) * _kronecker(b, w, g)) << (8 * w * shift)
    slots = (hi - lo) // g + 1
    total += int.from_bytes((bytes(w - 1) + b"\x80") * slots, "little")
    raw = total.to_bytes(w * slots, "little")
    half = 1 << (8 * w - 1)
    out = {}
    for i in range(slots):
        v = int.from_bytes(raw[i * w:(i + 1) * w], "little") - half
        if v:
            out[lo + g * i] = v
    return out


def _kronecker(a, w, g):
    """The integer sum c 2^(8 w (p - min a) / g) over the terms of a map."""
    lo = min(a)
    size = w * ((max(a) - lo) // g + 1)
    pos, neg = bytearray(size), bytearray(size)
    for p, c in a.items():
        k = w * ((p - lo) // g)
        if c > 0:
            pos[k:k + w] = c.to_bytes(w, "little")
        else:
            neg[k:k + w] = (-c).to_bytes(w, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def qsum(coeffs, maps):
    """sum_l coeffs[l] * maps[l] for exponent->coefficient maps."""
    out = defaultdict(int)
    for c, m in zip(coeffs, maps):
        if c:
            for p, v in m.items():
                out[p] += c * v
    return {p: v for p, v in out.items() if v}


_QCTX_CACHE = {}


def to_fundamental_polynomial(c):
    """Express an invariant element as a polynomial in f_1..f_r.

    Repeated leading-dominant-term subtraction, done on exact
    q-evaluations.
    """
    datum = c.datum
    if c.is_zero():
        return FundamentalPolynomial(datum, Poly.zero(datum.rank))
    tops = tuple(c.tops())
    key = (datum.content_hash(), tops)
    ctx = _QCTX_CACHE.get(key)
    if ctx is None:
        ctx = QevalContext(datum, tops)
        _QCTX_CACHE[key] = ctx
    coeffs = ctx.solve(ctx.char_qpoly(c))
    poly = Poly(datum.rank, coeffs)
    return FundamentalPolynomial(datum, poly)


# ---------------------------------------------------------------------------
# torsion evaluation

def evaluate_at_torsion(c, point, m):
    """Exact value of an invariant element at exp(2 pi i v).

    point is the covector of v: <mu, v> is the dot product with mu's
    weight-basis coordinates.  Returns an element of cyclotomic_field(m).
    """
    return evaluate_at_torsions(c, [(point, m)])[0]


def evaluate_at_torsions(c, classes):
    """evaluate_at_torsion(c, point, m) for each (point, m) of classes, in
    one walk over the Weyl orbits of c's dominant weights, with one
    residue-count vector per class."""
    setup = []
    for point, m in classes:
        m = int(m)
        if m < 1:
            raise ValueError("order must be positive")
        # <nu, v> = (ints . nu) / den
        point = [p if isinstance(p, (int, QQ)) else qq(p) for p in point]
        den = math.lcm(*(p.denominator for p in point))
        ints = [p.numerator * (den // p.denominator) for p in point]
        setup.append((ints, den, m, [0] * m))
    for nu, mu_c in c.orbit_walk():
        for ints, den, m, counts in setup:
            t = m * sum(map(operator.mul, ints, nu))
            if t % den:
                raise ValueError(
                    "pairing %s of weight %s is not integral at order %d"
                    % (qq_str(qq(t // m, den)), nu, m)
                )
            counts[t // den % m] += mu_c
    return [cyclotomic_field(m).reduce(counts) for _, _, m, counts in setup]


# ---------------------------------------------------------------------------
# restriction to a product of orthogonal A1 subgroups

@dataclass(frozen=True)
class BranchPolynomial:
    """Integer polynomial in the A1-traces t_1..t_n."""

    n: int
    poly: Poly

    def to_str(self):
        return self.poly.to_str(names=["t%d" % (i + 1) for i in range(self.n)])

    def to_json(self):
        return {"n": self.n, "terms": self.poly.to_json()}


def find_a1n_coroots(datum, count=None):
    """A deterministic pairwise-orthogonal set of roots of size count.

    Tries long roots first (the paper's tables arise from long-root
    copies of A1 whenever enough of them are orthogonal), then falls back
    to all roots sorted short-first.
    """
    if count is None:
        count = datum.rank
    norms = {datum.norm2(b) for b in datum.positive_roots}
    long_norm = max(norms)
    coords = dict(zip(datum.positive_roots, datum.positive_root_coords))

    def ordered(roots):
        return sorted(roots, key=lambda b: (sum(coords[b]), coords[b]))

    longs = ordered([b for b in datum.positive_roots if datum.norm2(b) == long_norm])
    everything = sorted(
        datum.positive_roots,
        key=lambda b: (datum.norm2(b), sum(coords[b]), coords[b]),
    )

    def search(candidates):
        chosen = []

        def dfs(start):
            if len(chosen) == count:
                return True
            for idx in range(start, len(candidates)):
                beta = candidates[idx]
                if all(datum.pairing(beta, g) == 0 for g in chosen):
                    chosen.append(beta)
                    if dfs(idx + 1):
                        return True
                    chosen.pop()
            return False

        return list(chosen) if dfs(0) else None

    for pool in (longs, everything):
        got = search(pool)
        if got:
            return tuple(got)
    raise ValueError(
        "no %d pairwise orthogonal roots in %s" % (count, datum.name())
    )


def restrict_to_A1n(c, coroots=None, cap=DEFAULT_ORBIT_CAP):
    """Restrict to the chosen A1^n torus and rewrite in t_i = s_i + 1/s_i."""
    datum = c.datum
    if coroots is None:
        coroots = find_a1n_coroots(datum)
    betas = [tuple(int(x) for x in b) for b in coroots]
    root_set = set(datum.positive_roots) | {
        tuple(-x for x in r) for r in datum.positive_roots
    }
    for b in betas:
        if b not in root_set:
            raise ValueError("%s is not a root" % (b,))
    for i in range(len(betas)):
        for j in range(i + 1, len(betas)):
            if datum.pairing(betas[i], betas[j]) != 0:
                raise ValueError("chosen coroots are not orthogonal")

    laurent = {}
    for nu, mu_c in c.full_expansion(cap=cap).items():
        key = []
        for b in betas:
            k = datum.coroot_pairing(nu, b)
            if k.denominator != 1:
                raise CertificateError(
                    "weight %s pairs to %s with the coroot %s" % (nu, k, b)
                )
            key.append(int(k))
        key = tuple(key)
        laurent[key] = laurent.get(key, 0) + mu_c
    laurent = {k: v for k, v in laurent.items() if v}
    return BranchPolynomial(len(betas), _laurent_to_chebyshev(laurent, len(betas)))


def _laurent_to_chebyshev(laurent, n):
    """Rewrite a per-variable symmetric Laurent map in t_i = s_i + 1/s_i."""
    work = dict(laurent)
    out = {}
    while work:
        k = max(work, key=lambda t: (sum(abs(x) for x in t), tuple(abs(x) for x in t), t))
        m = tuple(abs(x) for x in k)
        coeff = work[k]
        out[m] = out.get(m, 0) + coeff
        for e, binom in _t_power_expansion(m):
            s = work.get(e, 0) - coeff * binom
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    out = {m: c for m, c in out.items() if c}
    return Poly(n, out)


def _t_power_expansion(m):
    """Laurent support of prod (s_i + 1/s_i)^{m_i} with coefficients."""
    axes = []
    for mi in m:
        axes.append([(mi - 2 * j, math.comb(mi, j)) for j in range(mi + 1)])
    out = [((), 1)]
    for axis in axes:
        nxt = []
        for prefix, c in out:
            for e, b in axis:
                nxt.append((prefix + (e,), c * b))
        out = nxt
    return out
