"""Exact solving of zero-dimensional polynomial systems over Q, and the
values of a polynomial on a zero set.

One Groebner basis (Buchberger, sugar strategy) in grevlex, the only term
order here, gives the quotient algebra A of dimension D.  Ideal.of makes
each generator a primitive integer polynomial with a positive leading
coefficient, once; Groebner and the normal forms then run on integers:
S-polynomials are integer cross-multiples, and a normal form
pseudo-reduces to an integer remainder and multiplier.  A Poly holds an
integral coefficient as an int, so a generator's terms enter the kernel
as they are, and the basis leaves it as int Polys.

Inside Groebner and the normal forms a monomial is one int: its
exponents in 16-bit fields, the last variable's highest, minus its degree
times 2^(16 n).  A product is a sum; the least int is the grevlex-largest
monomial, so a min-heap pops leading terms; and a divides b exactly when
b - a has no field's top bit set.  Grevlex is degree-compatible, so no
exponent exceeds the degree of the input it came from: every input,
S-pair lcm and Krylov product is checked to have degree below 2^15, or
MonomialWidthError is raised, and no field wraps.  Poly and the
staircase keep exponent tuples.

All linear algebra on A runs on integer rows.  Multiplication by x_i is
an integer matrix N_i times one rational scale, built once from the
normal forms.  A vector is a primitive integer list carried with a
separate rational scale; every matrix product and every elimination step
divides out the row's content with one gcd, and the echelon eliminates
fraction-free (a * vec - b * row).

The points are read off a rational univariate representation (Rouillier,
AAECC 1999), which needs only traces on A, radical or not.  The trace
functional tau(v) = Tr(M_v) is one integer row; the rank of the trace
form Tr(M_uv) is d, the number of distinct points.  For the linear forms
u_t = sum_k t^(n-1-k) x_k, t = 0, 1, 2, ..., the power sums Tr(u^k) give
the characteristic polynomial of u by Newton's identities, and u
separates the points exactly when its squarefree part f has degree d.
Then g_v(T) = sum_k Tr(v u^k) Q_k(T) gives every coordinate as
x_i = g_{x_i}(u) / g_1(u) at each root of f.  Each irreducible factor of
f is one number field; its coordinates are certified by substituting
them into every original generator, and a failed certificate raises
CertificateError.  Real roots are isolated with Sturm sequences.  As
Tr(u^k) = sum_alpha mu_alpha alpha^k over the roots alpha of f, where
mu_alpha is the multiplicity of the point at alpha,
g_1(T) = sum_alpha mu_alpha f(T) / (T - alpha), so that
mu_alpha = g_1(alpha) / f'(alpha).  Each irreducible factor must give one
positive integer mu, and the mu, counted over all roots, must add up to D.

The values of a polynomial p on the zero set of an ideal are the roots
of e(T), the squarefree generator of the radical of <ideal, T - p>
intersected with Q[T].  For a zero-dimensional ideal e is the squarefree
part of the characteristic polynomial of M_p, from the power sums
Tr(p^k) by the same Newton identities.  Otherwise e is read off the
first linear dependency among the normal forms of 1, p, p^2, ... modulo
the grevlex basis, each the previous remainder times p, reduced.

A fibre of a zero-dimensional ideal, the ideal plus <p>, has the
quotient algebra A / pA, read off A with no second Groebner basis.  pA is
the column span of M_p; a fraction-free echelon of those columns,
pivoting on the grevlex-largest monomial, leaves the fibre's staircase,
and reducing x_i b by the pivot rows gives the same integer columns and
scales as the fibre's own normal forms.

Every real algebraic number here, a coordinate, a critical value or a
corner value, is an element v of a number field Q[alpha] with alpha one
isolated real root: an integer vector over one denominator on the power
basis, reduced by pseudo-division modulo the primitive integer minimal
polynomial of alpha (Cohen, GTM 138, 3.1 and 4.2).  The minimal
polynomial of v is the first linear dependence among the numerators of
1, v, v^2, ...; the same polynomial gives 1/v.  A value is its minimal
polynomial with one RootInterval, exact for a rational root, and prints
from these alone: the least isolating dyadic cell of width at most
2^-40, and the nearest double.

The real-root layer decides on integers: Sturm chains of primitive
pseudo-remainders, and the sign of p(a / b), b > 0, from the homogeneous
sum sum p_i a^i b^(n-i).  The endpoints stay the rationals the rational
arithmetic gives, so every decision is the same.  Fractions remain
only for values that need not be integral: the power sums, the
characteristic polynomials and the g_v, the rational scales of the
quotient layer, and the endpoints of isolating intervals.

Factoring f or e over Q first takes off every rational root: p-adic
lifting, rational reconstruction and an exact evaluation.  A rest of
degree 2 or 3 is then irreducible.  A rest of degree >= 4 is factored by
Zassenhaus's method in the module zassenhaus, imported on that first
use: modulo a small prime that keeps it squarefree, by distinct-degree
and then equal-degree factorization; the modular factors are
Hensel-lifted past the Mignotte bound, and subsets of them are
recombined, a candidate kept only when it divides exactly over Z.
The squarefree parts f and e are primitive integer polynomials with a
positive lead, p / gcd(p, p'): the gcd is the heuristic GCDHEU, with a
primitive PRS on pseudo-remainders behind it, and the quotient an exact
division in Z[x].

A character value at a torsion class of order m is an element of the
cyclotomic field Q(zeta_m), cyclotomic_field(m): the same arithmetic
modulo the monic Phi_m, so integer vectors keep denominator 1, with the
embedding zeta = exp(2 pi i / m) for decimals and conjugation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .polynomials import (
    QQ,
    Poly,
    QONE,
    cyclotomic_polynomial,
    grevlex_key,
    monomial_divides,
    qq,
    qq_str,
)


class SolveError(RuntimeError):
    pass


class NotZeroDimensionalError(SolveError):
    pass


class PairCapError(SolveError):
    pass


DEFAULT_PAIR_CAP = 200_000


class UndecidedSignError(SolveError):
    pass


class CertificateError(SolveError):
    """An exact check of a computed result failed."""


class MonomialWidthError(SolveError):
    """A degree too large for the packed exponent fields."""


# ---------------------------------------------------------------------------
# dense univariate polynomials (ascending coefficient lists): rational
# where they come from traces, primitive integer from the squarefree part on

def upoly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def upoly_deriv(p):
    return [c * i for i, c in enumerate(p)][1:]


# evaluation points tried by _int_gcd before the primitive PRS
_HEU_TRIES = 6


def _int_gcd(a, b):
    """The primitive gcd, with positive lead, of two primitive integer
    polynomials, by the heuristic gcd GCDHEU (Char, Geddes and Gonnet,
    J. Symbolic Comput. 1989).

    gamma = gcd(a(xi), b(xi)), written in symmetric xi-adic digits, is
    H(xi) with |H| <= xi / 2, and h = pp(H).  If h divides a and b, then
    gcd(a, b) = h k with k(xi) dividing the content of H; as
    xi >= 2 + 2 |a| / |lc a|, every root of a lies further than xi / 2
    from xi, so |k(xi)| > xi / 2 unless k is a constant."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    na, nb = max(map(abs, a)), max(map(abs, b))
    bound = 2 * min(na, nb) + 29
    xi = max(min(bound, 99 * math.isqrt(bound)),
             2 * min(-(-na // a[-1]), -(-nb // b[-1])) + 2)
    for _ in range(_HEU_TRIES):
        gamma = math.gcd(_int_eval(a, xi), _int_eval(b, xi))
        digits = []
        while gamma:
            d = gamma % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            gamma = (gamma - d) // xi
        if digits:
            h = upoly_primitive_int(digits)
            if _int_exquo(a, h) is not None and _int_exquo(b, h) is not None:
                return h
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    while b:  # primitive PRS
        a, b = b, upoly_primitive_int(_pseudo_rem(a, b))
    return a


def _int_eval(p, x, mod=0):
    """p(x) for an integer polynomial, modulo mod when it is nonzero."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
        if mod:
            acc %= mod
    return acc


def _int_exquo(a, b):
    """a / b in Z[x], or None when b does not divide a there."""
    a, db = list(a), len(b) - 1
    q = []
    for shift in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(a[shift + db], b[-1])
        if r:
            return None
        q.append(c)
        for j, y in enumerate(b):
            a[shift + j] -= c * y
    return None if any(a[:db]) else q[::-1]


def upoly_primitive_int(p):
    """Scale to primitive integer coefficients with positive lead."""
    ints = _int_row(p)[0]
    return [-c for c in ints] if ints and ints[-1] < 0 else ints


def upoly_squarefree(p):
    """p / gcd(p, p') for a primitive integer polynomial with positive
    lead, in the same form."""
    g = _int_gcd(p, _primitive(upoly_deriv(p))[0])
    if len(g) <= 1:
        return list(p)
    q = _int_exquo(p, g)
    if q is None:
        raise CertificateError("gcd does not divide its polynomial")
    return q


def sturm_chain(p):
    """The Sturm chain of p as primitive integer polynomials: p and p',
    then minus each remainder, every entry a positive multiple of the
    rational chain's, so the sign variations are the same."""
    p = _int_row(p)[0]
    chain = [p, _primitive(upoly_deriv(p))[0]]
    while chain[-1]:
        r = _pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r])[0])
    return chain


def _pseudo_rem(a, b):
    """A positive multiple of the remainder of a by b, for integer
    polynomials: each step scales by |lc b| / g, never by a negative."""
    a, db = list(a), len(b) - 1
    lc = abs(b[-1])
    s = 1 if b[-1] > 0 else -1
    while len(a) - 1 >= db:
        c = a.pop()
        g = math.gcd(c, lc)
        m, q = lc // g, s * (c // g)
        shift = len(a) - db
        if m != 1:
            a = [m * x for x in a]
        for j in range(db):
            a[shift + j] -= q * b[j]
        upoly_trim(a)
    return a


def _hom_eval(p, a, b):
    """sum p_i a^i b^(n - i), for an integer polynomial p of degree n:
    b^n p(a / b), so with b > 0 it has the sign of p(a / b)."""
    acc, bpow = 0, 1
    for c in reversed(p):
        acc = acc * a + c * bpow
        bpow *= b
    return acc


def _at(x):
    """A rational as (numerator, denominator > 0) integers."""
    return int(x.numerator), int(x.denominator)


def _variations(chain, x):
    a, b = _at(x)
    prev = 0
    count = 0
    for p in chain:
        v = _hom_eval(p, a, b)
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s and prev and s != prev:
            count += 1
        if s:
            prev = s
    return count


def sturm_count(chain, lo, hi):
    """Number of distinct real roots in (lo, hi]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _nonzero_at(p, x):
    return bool(_hom_eval(p, *_at(x)))


def _split_point(p, lo, hi):
    """The first of lo + (hi - lo) / 2^k, k = 1 .. 38, that is not a root
    of the integer polynomial p."""
    mid = (lo + hi) / 2
    for k in range(2, 40):
        if _nonzero_at(p, mid):
            return mid
        mid = lo + (hi - lo) * qq(1, 2**k)
    raise SolveError("could not find a non-root split point")


class RootInterval:
    """One real root of a squarefree integer polynomial, bisection-
    refinable.  A rational root is exact, lo == hi, and refining it does
    nothing."""

    __slots__ = ("poly", "chain", "lo", "hi")

    def __init__(self, poly, chain, lo, hi):
        self.poly, self.chain, self.lo, self.hi = poly, chain, lo, hi

    def refine(self):
        if self.lo == self.hi:
            return
        mid = _split_point(self.poly, self.lo, self.hi)
        if sturm_count(self.chain, self.lo, mid) == 1:
            self.hi = mid
        else:
            self.lo = mid

    def refine_to(self, width):
        while self.hi - self.lo > width:
            self.refine()


def isolate_real_roots(p):
    """Disjoint isolating intervals for a squarefree polynomial over QQ,
    sorted ascending."""
    p = _int_row(p)[0]
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
    bound = QONE + qq(max(map(abs, p[:-1])), abs(p[-1]))  # Cauchy's
    lo, hi = -bound, bound
    while not _nonzero_at(p, lo):
        lo -= 1
    while not _nonzero_at(p, hi):
        hi += 1
    out = []
    stack = [(lo, hi, sturm_count(chain, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append(RootInterval(p, chain, a, b))
            continue
        mid = _split_point(p, a, b)
        nl = sturm_count(chain, a, mid)
        stack.append((a, mid, nl))
        stack.append((mid, b, n - nl))
    out.sort(key=lambda r: (r.lo, r.hi))
    return out


def upoly_interval(p, box):
    """Interval image over a closed interval, by interval Horner with
    exact rational endpoints.  The endpoints and coefficients share one
    denominator D, so after k steps the bounds are integers over D^k."""
    lo_b, hi_b = box
    den = math.lcm(int(lo_b.denominator), int(hi_b.denominator),
                   *(int(c.denominator) for c in p))
    x0, x1 = _times_den(lo_b, den), _times_den(hi_b, den)
    lo = hi = 0
    scale = 1  # D^k
    for c in reversed(p):
        ends = (lo * x0, lo * x1, hi * x0, hi * x1)
        c = _times_den(c, den) * scale
        lo, hi = min(ends) + c, max(ends) + c
        scale *= den
    return qq(lo, scale), qq(hi, scale)


# ---------------------------------------------------------------------------
# ideals and Groebner bases

@dataclass(frozen=True)
class Ideal:
    nvars: int
    gens: tuple  # primitive integer, grevlex leading coefficient > 0

    @staticmethod
    def of(nvars, gens):
        """The one place a generator is brought to that form; zero
        generators are dropped."""
        cleaned = []
        for g in gens:
            if not isinstance(g, Poly):
                raise TypeError("generators must be Poly")
            if g.nvars != nvars:
                raise ValueError("variable count mismatch")
            if g:
                cleaned.append(_normalize(g))
        return Ideal(nvars, tuple(cleaned))


def _basis_entries(basis_ideal):
    """(lm, lc, tail) of each generator, for normal_form."""
    return [_basis_entry(_int_terms(g)) for g in basis_ideal.gens]


def _normalize(p):
    _, prim = p.content_primitive()
    if prim.terms[prim.leading_monomial()] < 0:
        prim = -prim
    return prim


_W = 16  # bits per packed exponent field
_LIMIT = 1 << (_W - 1)


def _fits(degree):
    if degree >= _LIMIT:
        raise MonomialWidthError(
            "degree %d does not fit the packed exponent fields (limit %d)"
            % (degree, _LIMIT - 1))


class _Packing:
    def __init__(self, nvars):
        self.shift = _W * nvars
        self.offsets = range(0, self.shift, _W)
        self.guard = sum(_LIMIT << s for s in self.offsets)

    def pack(self, mono):
        _fits(sum(mono))
        return sum(e << s for e, s in zip(mono, self.offsets)) - (sum(mono) << self.shift)

    def unpack(self, r):
        return tuple((r >> s) & (2 * _LIMIT - 1) for s in self.offsets)

    def degree(self, r):
        return -(r >> self.shift)

    def lcm(self, a, b):
        return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))


_packing = lru_cache(maxsize=None)(_Packing)


def _int_terms(p):
    """The integer terms {packed monomial: int} of a generator of an Ideal."""
    if any(c.denominator != 1 for c in p.terms.values()):
        raise CertificateError("generator with a non-integral coefficient")
    pack = _packing(p.nvars).pack
    return {pack(m): c for m, c in p.terms.items()}


def _primitive_terms(terms):
    """Integer terms over their content, grevlex leading coefficient > 0."""
    g = math.gcd(*terms.values())
    if terms[min(terms)] < 0:
        g = -g
    return {m: c // g for m, c in terms.items()}


def _basis_entry(terms):
    """(lm, lc, tail) of integer terms; tail holds the other terms."""
    lm = min(terms)
    return lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm]


def normal_form(p, basis, guard, reducers=None):
    """Full fraction-free reduction of integer terms p by basis entries
    (lm, lc, tail), on packed monomials with the guard bits of their
    _Packing: (rem, mult) with mult * p = rem modulo the basis and
    gcd(mult, content of rem) = 1, so rem / mult is the rational normal
    form.  Where lc does not divide the coefficient c, all terms are
    scaled by lc / gcd(c, lc), then divided by their content with mult.
    reducers, a dict kept by the caller across calls on a basis that is
    only appended to, remembers for each monomial (entry, n): the first
    entry that reduces it, or None when none of the first n entries does,
    so that only the entries added since are scanned again.

    The largest remaining monomial, the least int, comes off a heap;
    reduction brings in only smaller ones, so the terms passed over are
    the remainder, and a monomial queued twice pops twice in a row."""
    terms = dict(p)  # mult * p modulo the basis
    heap = list(terms)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    reducers = {} if reducers is None else reducers
    mult, last, n = 1, None, len(basis)
    while heap:
        m = pop(heap)
        if m == last or m not in terms:
            continue
        last = m
        entry, start = reducers.get(m, (None, 0))
        if entry is None and start < n:
            entry = next((basis[k] for k in range(start, n)
                          if not (m - basis[k][0]) & guard), None)
            reducers[m] = (entry, n)
        if entry is None:
            continue  # a term of the remainder
        lm, lc, tail = entry
        c = terms.pop(m)
        g = math.gcd(c, lc)
        a, b = lc // g, -c // g
        if a != 1:
            mult *= a
            terms = {k: a * v for k, v in terms.items()}
        shift = m - lm
        for mq, cq in tail:
            mm = mq + shift
            old = terms.get(mm)
            if old is None:
                terms[mm] = b * cq
                push(heap, mm)
            else:
                s = old + b * cq
                if s:
                    terms[mm] = s
                else:
                    del terms[mm]
        if a != 1:
            terms, mult = _divide_content(terms, mult)
    return _divide_content(terms, mult)


def _divide_content(terms, mult):
    """Integer terms and mult over their common gcd."""
    g = math.gcd(mult, *terms.values())
    return {m: c // g for m, c in terms.items()}, mult // g


def _spoly(f, g, lmf, lmg, l):
    """(lc_g/h) (l/lm_f) f - (lc_f/h) (l/lm_g) g for integer terms, h =
    gcd(lc_f, lc_g) and l the lcm of the packed lm_f, lm_g."""
    h = math.gcd(f[lmf], g[lmg])
    out = {}
    for p, lm, c in ((f, lmf, g[lmg] // h), (g, lmg, -(f[lmf] // h))):
        shift = l - lm
        for m, v in p.items():
            mm = m + shift
            out[mm] = out.get(mm, 0) + c * v
    return {m: v for m, v in out.items() if v}


def groebner(ideal, pair_cap=DEFAULT_PAIR_CAP, known=0):
    """Reduced Groebner basis (deterministic), sugar pair selection, on
    integer terms; each new element is divided by its content, with a
    positive leading coefficient.  The first `known` generators may
    already form a Groebner basis: the pairs among them reduce to zero, so
    they are not formed.  The zero ideal has the empty basis."""
    pk = _packing(ideal.nvars)
    guard, deg = pk.guard, pk.degree
    # each element of G as terms, (lm, lc, tail) for normal_form, sugar, lm
    G, basis, sugars, lms = [], [], [], []

    def add_elem(terms, sugar):
        G.append(terms)
        basis.append(_basis_entry(terms))
        sugars.append(sugar)
        lms.append(basis[-1][0])

    for g in ideal.gens:
        add_elem(_int_terms(g), g.total_degree())

    pairs, done = {}, set()
    reducers = {}  # normal_form's memo; basis is only appended to

    def push_pair(i, j):
        if i > j:
            i, j = j, i
        if (i, j) in done or (i, j) in pairs:
            return
        l = pk.lcm(lms[i], lms[j])
        # product criterion
        if l == lms[i] + lms[j]:
            done.add((i, j))
            return
        # least sugar first, then the grevlex-least lcm: the greatest int
        sugar = max(sugars[i] - deg(lms[i]), sugars[j] - deg(lms[j])) + deg(l)
        pairs[(i, j)] = (sugar, -l, i, j)

    n0 = len(G)
    done.update((i, j) for j in range(known) for i in range(j))
    for i in range(n0):
        for j in range(max(i + 1, known), n0):
            push_pair(i, j)

    processed = 0
    while pairs:
        processed += 1
        if processed > pair_cap:
            raise PairCapError("pair-queue limit %d exceeded; refusing silent "
                               "truncation" % pair_cap)
        best = min(pairs, key=pairs.get)
        sugar, l, i, j = pairs.pop(best)
        l = -l
        done.add(best)
        # chain criterion
        if any(k not in (i, j) and not (l - lms[k]) & guard
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k in range(len(G))):
            continue
        r, _ = normal_form(_spoly(G[i], G[j], lms[i], lms[j], l), basis, guard,
                           reducers)
        if r:
            t = len(G)
            add_elem(_primitive_terms(r), max(sugar, deg(min(r))))
            for u in range(t):
                push_pair(u, t)

    # minimalize and inter-reduce; no kept leading monomial divides
    # another, so each element keeps its leading monomial
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and not (lm - lms[j]) & guard and (lms[j] != lm or j < i)
                       for j in range(len(G)))]
    reduced = []
    for i in keep:
        r, _ = normal_form(G[i], [basis[j] for j in keep if j != i], guard)
        if not r:
            raise CertificateError("minimal basis element reduced away")
        reduced.append(_basis_entry(_primitive_terms(r)))
    reduced.sort(key=lambda e: -e[0])

    for g in G[:n0]:
        if normal_form(g, reduced, guard)[0]:
            raise CertificateError("generator fails membership in its basis")
    unpack = pk.unpack
    gens = (Poly(ideal.nvars, {unpack(lm): lc, **{unpack(m): c for m, c in tail}},
                 _trusted=True)
            for lm, lc, tail in reduced)
    return Ideal(ideal.nvars, tuple(gens))


def staircase(lms, nvars):
    """Monomials below the staircase of these leading monomials, in
    ascending grevlex order; None when infinite."""
    bounds = [None] * nvars
    for lm in lms:
        nz = [i for i, e in enumerate(lm) if e]
        if len(nz) == 0:
            return []  # ideal contains a constant: empty variety
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    if any(b is None for b in bounds):
        return None
    out = []

    def descend(i, mono):
        if i == nvars:
            m = tuple(mono)
            if not any(monomial_divides(lm, m) for lm in lms):
                out.append(m)
            return
        for e in range(bounds[i]):
            descend(i + 1, mono + [e])

    descend(0, [])
    out.sort(key=grevlex_key)
    return out


# ---------------------------------------------------------------------------
# exact linear algebra on integer rows
#
# A rational vector is a primitive integer list together with a rational
# scale: the vector is scale * ints.  Every product or elimination step
# divides out the content with one math.gcd over the row, so no entry
# ever carries a denominator of its own.

def _primitive(ints):
    """(ints / content, content); the zero vector has content 1."""
    g = math.gcd(*ints)
    if g > 1:
        ints = [c // g for c in ints]
    return ints, g or 1


def _times_den(c, den):
    """The rational c times den, a multiple of its denominator, as an int."""
    return int(c.numerator) * (den // int(c.denominator))


def _int_row(vals):
    """A rational list as (primitive integer list, rational scale)."""
    den = math.lcm(*(int(c.denominator) for c in vals))
    ints, g = _primitive([_times_den(c, den) for c in vals])
    return ints, qq(g, den)


def _eliminate(vec, row, piv):
    """vec - (vec[piv] / row[piv]) * row (row[piv] != 0), up to a nonzero
    factor, with the content divided out."""
    a, b = row[piv], vec[piv]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    return _primitive([a * x - b * y for x, y in zip(vec, row)])[0]


class _Echelon:
    """Incremental fraction-free row reduction with dependency extraction.

    A row is an integer vector followed by its combo: one slot per tag
    0 .. ntags - 1 giving the row as a combination of the inserted
    vectors.  The pivot is the row's first nonzero vector entry; each
    elimination divides the whole row by its content.  A longer vector or
    a new tag widens the stored rows with zeros."""

    def __init__(self, ntags=0):
        self.width = 0
        self.ntags = ntags
        self.rows = {}  # pivot index -> row

    def _widen(self, width, ntags):
        w = self.width
        pad, extra = [0] * (width - w), [0] * (ntags - self.ntags)
        for piv, row in self.rows.items():
            self.rows[piv] = row[:w] + pad + row[w:] + extra
        self.width, self.ntags = width, ntags

    def insert(self, vec, tag=None):
        """Reduce the integer vector vec; returns None if independent (row
        stored), else the dependency combo, a list with
        sum combo[t] * (vector inserted under tag t) = 0.  An untagged
        vector carries no combo."""
        ntags = self.ntags if tag is None else max(self.ntags, tag + 1)
        if len(vec) > self.width or ntags > self.ntags:
            self._widen(max(len(vec), self.width), ntags)
        dim = self.width
        row = vec + [0] * (dim - len(vec) + ntags)
        if tag is not None:
            row[dim + tag] = 1
        for piv in range(dim):
            if not row[piv]:
                continue
            other = self.rows.get(piv)
            if other is None:
                self.rows[piv] = row
                return None
            row = _eliminate(row, other, piv)
        return row[dim:]


def _row_times(row, cols):
    """row * N for an integer row vector and N given by sparse columns."""
    return [sum(c * row[k] for k, c in col) for col in cols]


class _Quotient:
    """Multiplication structure and trace of a zero-dimensional quotient.

    M_{x_i} is held as an integer matrix N_i and a rational scale,
    M_{x_i} = scale_i * N_i, built once from the normal forms of
    x_i * b_j for the staircase monomials b_j; b_0 = 1.

    tau, the trace functional v -> Tr(M_v), is sum_j e_j^T M_{b_j}, since
    M_v e_j = M_{b_j} v; it is kept as a primitive integer row and the
    scale that makes tau(1) = dim.  The rows tau * M_{b_m} make up the
    trace form Tr(M_{b_m b_k}), whose rank npoints, computed on first
    use, is the number of distinct complex points (Stickelberger)."""

    def __init__(self, basis_ideal):
        n = basis_ideal.nvars
        pk = _packing(n)
        basis = _basis_entries(basis_ideal)
        mons = staircase([pk.unpack(lm) for lm, _, _ in basis], n)
        if mons is None:
            raise NotZeroDimensionalError(
                "leading terms admit no pure power in some variable"
            )
        index = {pk.pack(m): i for i, m in enumerate(mons)}
        reducers = {}
        cols, dens = [], []
        for i in range(n):
            # (rem, mult) of x_i * b_j
            qcols = [normal_form({pk.pack(m[:i] + (m[i] + 1,) + m[i + 1:]): 1},
                                 basis, pk.guard, reducers)
                     for m in mons]
            den = math.lcm(*(mult for _, mult in qcols))
            cols.append([[(index[mm], c * (den // mult)) for mm, c in r.items()]
                         for r, mult in qcols])
            dens.append(den)
        self._setup(n, mons, cols, dens)

    def _setup(self, nvars, mons, cols, dens):
        """N_i = cols[i] / dens[i], for sparse integer columns, kept over
        the least denominator with entries sorted by row: the canonical
        form of the rational normal forms, whichever route gave them."""
        self.nvars = nvars
        self.monomials = mons
        self.index = {m: i for i, m in enumerate(mons)}
        self.dim = D = len(mons)
        # sparse columns [(row, coeff), ...] and scale of each N_i
        self.cols = []
        self.scales = []
        for icols, den in zip(cols, dens):
            g = math.gcd(den, *(c for col in icols for _, c in col))
            self.cols.append([sorted((k, c // g) for k, c in col) for col in icols])
            self.scales.append(qq(1, den // g))
        if not D:
            return
        # tau = sum_j scale_j * row_j with row_j = e_j^T prod N_i^{m_i}
        parts = []
        for j, mono in enumerate(mons):
            row = [0] * D
            row[j] = 1
            scale = QONE
            for i, e in enumerate(mono):
                for _ in range(e):
                    row, g = _primitive(_row_times(row, self.cols[i]))
                    scale *= g * self.scales[i]
            parts.append((scale, row))
        den = math.lcm(*(int(s.denominator) for s, _ in parts))
        weights = [_times_den(s, den) for s, _ in parts]
        tau = _primitive([
            sum(w * row[k] for w, (_, row) in zip(weights, parts))
            for k in range(D)
        ])[0]
        self.tau = (tau, qq(D, tau[0]))

    @cached_property
    def npoints(self):
        if not self.dim:
            return 0
        # rows of the trace form, each up to a nonzero factor, which the
        # rank ignores; staircase monomials ascend by degree, so parents
        # come first
        ech = _Echelon(0)
        brows = [self.tau[0]]
        for mono in self.monomials[1:]:
            i, parent = self._parent(mono)
            brows.append(_primitive(_row_times(brows[parent], self.cols[i]))[0])
        for row in brows:
            ech.insert(row)
        return len(ech.rows)

    def _parent(self, mono):
        """(i, index of mono / x_i) for the first variable x_i in mono."""
        i = next(k for k in range(self.nvars) if mono[k])
        return i, self.index[mono[:i] + (mono[i] - 1,) + mono[i + 1:]]

    def fibre(self, poly, upoly):
        """The quotient A / pA for p = upoly(poly), upoly an ascending
        integer list: the quotient algebra of the ideal plus <p>,
        with no Groebner basis.  pA is spanned by the columns p b_j,
        eliminated fraction-free with the grevlex-largest monomial as
        pivot; the pivots are the leading monomials of the larger ideal
        inside the staircase, so the fibre's staircase is the rest.  The
        normal form of x_i b there is that of A, projected through the
        fully reduced pivot rows."""
        D = self.dim
        mat = self.matrix(poly)
        # p = upoly(M_poly) 1 by Horner, as scale * vec
        vec, scale = [upoly[-1]] + [0] * (D - 1), QONE
        for c in reversed(upoly[:-1]):
            vec, scale = self.times(mat, vec, scale)
            a, b = int(scale.numerator), int(scale.denominator)
            vec = [a * x for x in vec]
            vec[0] += b * c
            vec, g = _primitive(vec)
            scale = qq(g, b)
        # p b_j = x_i (p b_parent); reversed, so the pivot is the largest
        pcols = [vec]
        for mono in self.monomials[1:]:
            i, parent = self._parent(mono)
            col = self._times_x(i, dict(enumerate(pcols[parent])))
            pcols.append(_primitive([col.get(k, 0) for k in range(D)])[0])
        ech = _Echelon()
        for col in pcols:
            ech.insert(col[::-1])
        reduced = {}  # back-substituted: zero at every other pivot
        for t in sorted(ech.rows, reverse=True):
            row = ech.rows[t]
            for u, other in reduced.items():
                if row[u]:
                    row = _eliminate(row, other, u)
            reduced[t] = row
        piv = {D - 1 - t: row[::-1] for t, row in reduced.items()}
        keep = [k for k in range(D) if k not in piv]
        mons = [self.monomials[k] for k in keep]
        if not mons:
            raise CertificateError("the fibre polynomial is a unit")
        kept = set(mons)
        if any(e and m[:i] + (e - 1,) + m[i + 1:] not in kept
               for m in mons for i, e in enumerate(m)):
            raise CertificateError("the fibre staircase is not an order ideal")
        # L times the projection of e_k, over the fibre's indices: the pivot
        # rows scaled to pivot entry L
        new = {k: j for j, k in enumerate(keep)}
        L = math.lcm(*(row[k] for k, row in piv.items()))
        proj = {k: [(new[k], L)] for k in keep}
        for k, row in piv.items():
            m = L // row[k]
            proj[k] = [(new[kk], -m * row[kk]) for kk in keep if row[kk]]
        cols = []
        for icols in self.cols:
            cols.append([])
            for k in keep:
                acc = {}
                for kk, c in icols[k]:
                    for j, v in proj[kk]:
                        acc[j] = acc.get(j, 0) + c * v
                cols[-1].append([(j, v) for j, v in acc.items() if v])
        out = _Quotient.__new__(_Quotient)
        # every scale of A is 1 / den
        out._setup(self.nvars, mons, cols,
                   [L * int(s.denominator) for s in self.scales])
        return out

    def matrix(self, poly):
        """M_p for a Poly p, as (sparse integer rows, scale).  A term c x^m
        is the integer matrix prod N_i^(m_i), whose column j is x^m b_j,
        times c prod scale_i^(m_i)."""
        terms = []
        for mono, c in poly.terms.items():
            cols = [{j: 1} for j in range(self.dim)]
            for i, e in enumerate(mono):
                for _ in range(e):
                    cols = [self._times_x(i, col) for col in cols]
                    c = c * self.scales[i]
            terms.append((c, cols))
        den = math.lcm(*(int(c.denominator) for c, _ in terms))
        rows = [{} for _ in range(self.dim)]
        for c, cols in terms:
            f = _times_den(c, den)
            for j, col in enumerate(cols):
                for k, v in col.items():
                    rows[k][j] = rows[k].get(j, 0) + f * v
        rows = [[(j, v) for j, v in r.items() if v] for r in rows]
        g = math.gcd(*(v for r in rows for _, v in r)) or 1
        rows = [[(j, v // g) for j, v in r] for r in rows]
        return rows, qq(g, den)

    def _times_x(self, i, col):
        """N_i * col for a sparse integer column {row: value}."""
        out = {}
        for k, v in col.items():
            for r, c in self.cols[i][k]:
                out[r] = out.get(r, 0) + c * v
        return out

    def one(self):
        """The unit 1 = b_0 as (integer vector, scale)."""
        return [1] + [0] * (self.dim - 1), QONE

    def times(self, mat, vec, scale):
        """u * (scale * vec) as (primitive integer vector, scale)."""
        rows, mscale = mat
        out, g = _primitive([sum(c * vec[j] for j, c in r) for r in rows])
        return out, scale * mscale * g


# The name predates the RUR; the benchmark's per-layer timer wraps it by name.
def fglm_lex(quot, form):
    """Rational univariate representation for u = sum form[k] x_k.

    Returns (f, g_1, [g_{x_1}..g_{x_n}]) as ascending coefficient lists:
    f is the primitive integer squarefree part of the characteristic
    polynomial of u, and x_i = g_{x_i}(u) / g_1(u) at every point, where
    g_1 is a unit modulo f.  Returns None when u does not separate the
    points, which is exactly when deg f < quot.npoints."""
    n = quot.nvars
    tau, tscale = quot.tau
    # v -> Tr(v), and v -> Tr(x_i v) = tau * M_{x_i} v
    funcs = [(tau, tscale)] + [
        (_row_times(tau, cols), tscale * s)
        for cols, s in zip(quot.cols, quot.scales)
    ]
    u = Poly(n, {tuple(int(i == k) for i in range(n)): c
                 for k, c in enumerate(form) if c})
    # traces[k] = [Tr(u^k), Tr(x_1 u^k), ...]; the x_i only for k < npoints
    traces = _power_traces(quot, quot.matrix(u), funcs, quot.npoints)
    f = upoly_squarefree(upoly_primitive_int(_charpoly([t[0] for t in traces])))
    deg = len(f) - 1
    if deg < quot.npoints:
        return None

    def g(v):
        # sum_{k < deg} Tr(v u^k) Q_k(T), Q_k(T) = sum_{j > k} f_j T^(j-1-k)
        return upoly_trim([
            sum(traces[k][v] * f[m + 1 + k] for k in range(deg - m))
            for m in range(deg)
        ])

    return f, g(0), [g(1 + i) for i in range(quot.nvars)]


def _power_traces(quot, mat, funcs, full):
    """[s * (row . u^k) for (row, s) in funcs] for k = 0 .. D, where mat
    is M_u; only the first functional once k >= full."""
    vec, scale = quot.one()
    out = []
    for k in range(quot.dim + 1):
        if k:
            vec, scale = quot.times(mat, vec, scale)
        out.append([
            s * scale * sum(a * b for a, b in zip(row, vec))
            for row, s in (funcs if k < full else funcs[:1])
        ])
    return out


def _charpoly(sums):
    """The characteristic polynomial, ascending, from the power sums
    Tr(u^k), k = 0 .. D, by Newton's identities."""
    chi = [QONE]
    for k in range(1, len(sums)):
        chi.append(-sum(chi[k - i] * sums[i] for i in range(1, k + 1)) / k)
    return chi[::-1]


# ---------------------------------------------------------------------------
# the values of a polynomial on a zero set

def eliminant(ideal, poly, pair_cap=DEFAULT_PAIR_CAP):
    """e(T), the squarefree generator of the radical of <ideal, T - poly>
    intersected with Q[T]: its roots are the values of poly on the complex
    zero set of the ideal.

    Returns (e, basis, quot): e primitive integer, ascending; basis the
    reduced grevlex basis of the ideal; quot its _Quotient, or None when
    the ideal is not zero-dimensional.  With a quotient, e is the
    squarefree part of the characteristic polynomial of M_poly, from the
    power sums Tr(poly^k).  Without one, e comes from the first linear
    dependency among the normal forms of 1, poly, poly^2, ..., which
    exists when poly takes finitely many values on the zero set."""
    basis = groebner(ideal, pair_cap=pair_cap)
    try:
        quot = _Quotient(basis)
    except NotZeroDimensionalError:
        quot = None
    if quot is None:
        e = _krylov_minpoly(_basis_entries(basis), poly)
    elif quot.dim:
        traces = _power_traces(quot, quot.matrix(poly), [quot.tau], 0)
        e = _charpoly([t[0] for t in traces])
    else:
        e = [QONE]
    return upoly_squarefree(upoly_primitive_int(e)), basis, quot


def _krylov_minpoly(basis, poly):
    """The first linear dependency among the normal forms of 1, p, p^2,
    ... modulo basis entries, ascending.  Each normal form is the previous
    remainder times p, reduced; v_k = scale_k * rem_k."""
    pk = _packing(poly.nvars)
    den = math.lcm(*(int(c.denominator) for c in poly.terms.values()))
    p = [(pk.pack(m), _times_den(c, den)) for m, c in poly.terms.items()]
    rem, mult = normal_form({0: 1}, basis, pk.guard)  # 1 packs to 0
    scale = qq(1, mult)
    index, scales, ech, reducers = {}, [], _Echelon(), {}
    for k in itertools.count():
        for m in rem:
            index.setdefault(m, len(index))
        vec = [0] * len(index)
        for m, c in rem.items():
            vec[index[m]] = c
        scales.append(scale)
        combo = ech.insert(vec, k)
        if combo is not None:
            return [qq(combo[j]) / scales[j] for j in range(k + 1)]
        _fits(pk.degree(min(rem)) + poly.total_degree())
        prod = {}
        for m, c in rem.items():
            for mp, cp in p:
                prod[m + mp] = prod.get(m + mp, 0) + c * cp
        rem, mult = normal_form({m: c for m, c in prod.items() if c}, basis,
                                pk.guard, reducers)
        scale = scale / (den * mult)


def real_roots_by_factor(e):
    """[(factor, roots)] over the irreducible factors of the squarefree
    polynomial e: each factor primitive integer, ascending, with the
    AlgValue of each of its real roots, ascending."""
    out = []
    for fac in _factors(e):
        if len(fac) == 2:
            roots = [AlgValue.from_rational(qq(-fac[0], fac[1]))]
        else:
            roots = [AlgValue(fac, r) for r in isolate_real_roots(fac)]
        out.append((tuple(fac), roots))
    return out


def _factors(f):
    """The irreducible factors over Q of a squarefree polynomial, primitive
    integer with positive lead, ascending, ordered by degree, then by
    coefficients from the top.

    A zero root and then every rational root come off exactly.  What is
    left has no rational root, so in degree 2 or 3 it is irreducible; a
    rest of degree >= 4, or one that _rational_roots could not serve, is
    factored by zassenhaus.factor, which is imported on that first use."""
    rest = upoly_primitive_int(f)
    out = []
    if len(rest) > 1 and not rest[0]:
        out.append([0, 1])
        rest = rest[1:]
    roots = _rational_roots(rest)
    for a, b in roots or ():
        rest = _int_exquo(rest, [-a, b])
        if rest is None:
            raise CertificateError("a rational root does not divide out")
        out.append([-a, b])
    if len(rest) > 4 or (roots is None and len(rest) > 2):
        from .zassenhaus import factor

        out += factor(rest)
    elif len(rest) > 1:
        out.append(rest)
    return sorted(out, key=lambda fac: (len(fac), fac[::-1]))


def _odd_primes(limit=1 << 16):
    for ell in range(3, limit, 2):
        if all(ell % d for d in range(3, math.isqrt(ell) + 1, 2)):
            yield ell


def _rational_roots(e):
    """The rational roots (a, b), a / b in lowest terms with b > 0, of a
    squarefree primitive integer polynomial e with e(0) != 0; None when no
    odd prime below 1024 serves.

    The first prime l that does not divide the lead and modulo which every
    root of e is simple serves.  Each root mod l lifts by Newton's
    iteration to a root r modulo some M > 2 |e_0| |e_n|.  A rational root
    a / b has a | e_0 and b | e_n, and at most one fraction with
    |a| <= |e_0| and 0 < b <= |e_n| is r modulo M; the Euclidean remainders
    of (M, r) find it.  It is kept when sum e_i a^i b^(n-i) is zero."""
    de = upoly_deriv(e)
    for ell in _odd_primes(1024):
        if e[-1] % ell == 0:
            continue
        roots = [r for r in range(ell) if not _int_eval(e, r, ell)]
        if all(_int_eval(de, r, ell) for r in roots):
            break
    else:
        return None
    bound, mod = 2 * abs(e[0]) * e[-1], ell
    while mod <= bound:
        mod *= mod
        roots = [(r - _int_eval(e, r, mod) * pow(_int_eval(de, r, mod), -1, mod))
                 % mod for r in roots]
    out = []
    for r in roots:
        # the first Euclidean remainder <= |e_0|, over its cofactor t
        r0, r1, t0, t1 = mod, r, 0, 1
        while r1 > abs(e[0]):
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if not t1 or abs(t1) > e[-1]:
            continue
        g = math.gcd(r1, t1) * (1 if t1 > 0 else -1)
        a, b = r1 // g, t1 // g
        if not _hom_eval(e, a, b):
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# algebraic numbers and points

class NumberField:
    """QQ[alpha] for alpha a designated real root of an irreducible integer
    polynomial minpoly.

    root is the RootInterval of alpha, or None for a field used only for
    arithmetic; in degree 1 the field makes the exact root itself."""

    def __init__(self, minpoly_int, root=None):
        self.minpoly = tuple(int(c) for c in minpoly_int)
        self.degree = len(self.minpoly) - 1
        if self.degree == 1:
            a = qq(-self.minpoly[0], self.minpoly[1])
            root = RootInterval(list(self.minpoly), None, a, a)
        self.root = root

    def reduce(self, vec):
        """Reduce a dense list of rationals modulo the minimal polynomial."""
        den = math.lcm(*(c.denominator for c in vec))
        return self._reduce([c.numerator * (den // c.denominator) for c in vec], den)

    def _reduce(self, vec, den):
        """The element vec / den, for an integer list vec (consumed) and an
        integer den >= 1.  vec is pseudo-divided by the minimal polynomial:
        a step on the coefficient c first scales vec by lead / gcd(c, lead),
        and den takes up the scale, so a monic minpoly never scales."""
        p, d = self.minpoly, self.degree
        lead = p[-1]
        for i in range(len(vec) - 1, d - 1, -1):
            c = vec[i]
            if c:
                g = math.gcd(c, lead) if lead > 0 else -math.gcd(c, lead)
                s, c = lead // g, c // g
                if s != 1:
                    for k in range(i):
                        vec[k] *= s
                    den *= s
                for j in range(d):
                    vec[i - d + j] -= c * p[j]
        return FieldElement(self, vec[:d] + [0] * (d - len(vec)), den)

    def from_rational(self, c):
        q = c if isinstance(c, (int, QQ)) else qq(c)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def generator(self):
        return self.reduce([0, 1])

    def approx(self, elem):
        return AlgValue.from_field_element(elem).approx()

    def conjugate(self, elem):
        # alpha is real, so the embedding commutes with complex conjugation
        return elem

    def repr(self, elem):
        return "FieldElement(%s)" % (elem.coefficient_strs(),)


class CyclotomicField(NumberField):
    """Q(zeta_m) on the power basis modulo Phi_m, embedded by
    zeta = exp(2 pi i / m); use the cached cyclotomic_field(m).  Phi_m is
    monic, so reduction never scales and integer vectors keep den = 1."""

    def __init__(self, m):
        super().__init__(cyclotomic_polynomial(m))
        self.m = m

    def approx(self, elem):
        """The complex value, as the doubles nearest its exact real and
        imaginary parts (cyclotomic_parts)."""
        return complex(*(part.approx() for part in cyclotomic_parts(elem)))

    def conjugate(self, elem):
        # zeta^i -> zeta^(-i) = zeta^(m - i)
        vec = [0] * self.m
        for i, c in enumerate(elem.vec):
            vec[-i % self.m] = c
        return self._reduce(vec, elem.den)

    def repr(self, elem):
        if elem.is_rational():
            return "Cyc(%s)" % qq_str(elem.as_rational())
        return "Cyc(m=%d, %s)" % (self.m, elem.coefficient_strs())


@lru_cache(maxsize=None)
def cyclotomic_field(m):
    """The one CyclotomicField of order m, so that its elements compare."""
    return CyclotomicField(m)


def cyc_to_algvalue(v):
    """Exact value of a real cyclotomic number v of order m.

    v = (a_0 + sum_k a_k zeta^k) / den equals its real part
    (2 a_0 + sum_k a_k D_k(c)) / (2 den), where c = zeta + zeta^-1 =
    2 cos(2 pi / m), D_0 = 2, D_1 = c and D_k = c D_{k-1} - D_{k-2}; c is
    the largest real root of its minimal polynomial, so v is an element
    of a real number field."""
    if not v.is_real():
        raise ValueError("not a real cyclotomic number: %r" % (v,))
    if v.is_rational():
        return AlgValue.from_rational(v.as_rational())
    z = v.field.generator()
    psi = _minpoly_of_value(z + z.conjugate())
    c = NumberField(psi, isolate_real_roots(psi)[-1]).generator()
    prev, cur = c.field.from_rational(2), c
    value = c.field.from_rational(2 * v.vec[0])
    for a in v.vec[1:]:
        value = value + cur * a
        prev, cur = cur, c * cur - prev
    return AlgValue.from_field_element(value * qq(1, 2 * v.den))


def cyclotomic_parts(v):
    """Re v and Im v of a cyclotomic number v of order m, as AlgValues.

    Re v = (v + conj v) / 2 is real in Q(zeta_m).  Im v = (conj v - v) i / 2
    needs i, so v is lifted into Q(zeta_N), N = lcm(m, 4), where
    zeta_m = zeta_N^(N/m) and i = zeta_N^(N/4)."""
    if v.is_real():
        return cyc_to_algvalue(v), AlgValue.from_rational(0)
    m = v.field.m
    n = math.lcm(m, 4)
    big = cyclotomic_field(n)
    vec = [0] * n
    vec[::n // m] = v.vec + (0,) * (m - len(v.vec))
    w = big._reduce(vec, v.den)
    i = big._reduce([0] * (n // 4) + [1], 1)
    half = qq(1, 2)
    return (cyc_to_algvalue((v + v.conjugate()) * half),
            cyc_to_algvalue((w.conjugate() - w) * i * half))


class FieldElement:
    """(vec[0] + vec[1] alpha + ... + vec[d-1] alpha^(d-1)) / den in the
    field's power basis, for d ints vec and an int den >= 1, kept with
    gcd(vec..., den) = 1, so equal values have equal vec, den and hash."""

    __slots__ = ("field", "vec", "den")

    def __init__(self, field, vec, den=1):
        if den != 1:
            g = math.gcd(den, *vec)
            if g != 1:
                vec, den = [c // g for c in vec], den // g
        self.field, self.vec, self.den = field, tuple(vec), den

    def is_zero(self):
        return not any(self.vec)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self):
        return not any(self.vec[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not rational: %r" % (self,))
        return qq(self.vec[0], self.den)

    def coefficient_strs(self):
        return [qq_str(qq(c, self.den)) for c in self.vec]

    def conjugate(self):
        return self.field.conjugate(self)

    def is_real(self):
        return self == self.conjugate()

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field is other.field and (self.vec, self.den) == (other.vec, other.den)
        q = other if isinstance(other, (int, QQ)) else qq(other)
        return self.is_rational() and (self.vec[0], self.den) == (q.numerator, q.denominator)

    def __hash__(self):
        # a rational element hashes as the rational it equals
        return hash(self.as_rational() if self.is_rational() else (self.vec, self.den))

    def __add__(self, other, sign=1):
        o = other if isinstance(other, FieldElement) else self.field.from_rational(other)
        den = math.lcm(self.den, o.den)
        sa, sb = den // self.den, sign * (den // o.den)
        return FieldElement(self.field, [a * sa + b * sb for a, b in zip(self.vec, o.vec)], den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.vec), self.den)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            q = other if isinstance(other, (int, QQ)) else qq(other)
            return FieldElement(self.field, [a * q.numerator for a in self.vec],
                                self.den * q.denominator)
        prod = [0] * (2 * self.field.degree - 1)
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(other.vec):
                    if b:
                        prod[i + j] += a * b
        return self.field._reduce(prod, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = self.field.from_rational(1)
        base = self
        k = int(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self):
        """From the minimal polynomial sum_k c_k v^k = 0 of v, where
        c_0 != 0: 1/v = -(c_1 + c_2 v + ... + c_k v^(k-1)) / c_0."""
        if self.is_zero():
            raise ZeroDivisionError
        c = _minpoly_of_value(self)
        acc = self.field.from_rational(c[-1])
        for ck in reversed(c[1:-1]):
            acc = acc * self + ck
        s = -1 if c[0] > 0 else 1
        return FieldElement(self.field, [s * a for a in acc.vec], acc.den * abs(c[0]))

    def sign(self):
        """Exact sign at the designated root: that of the integer
        numerator, as den > 0."""
        if self.is_zero():
            return 0
        # nonzero mod an irreducible polynomial never vanishes at alpha
        root = self.field.root
        for _ in range(512):
            lo, hi = upoly_interval(list(self.vec), (root.lo, root.hi))
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1
            root.refine()
        raise UndecidedSignError("sign refinement exhausted for %s" % (self,))

    def interval(self):
        lo, hi = upoly_interval(list(self.vec), (self.field.root.lo, self.field.root.hi))
        return lo / self.den, hi / self.den

    def approx(self):
        return self.field.approx(self)

    def __repr__(self):
        return self.field.repr(self)


class AlgebraicPoint:
    """A real solution with coordinates in one number field."""

    def __init__(self, nvars, field, coords, values, multiplicity):
        self.nvars = nvars
        self.field = field
        self.coords = coords          # FieldElement per variable
        self.values = values          # AlgValue per variable
        self.multiplicity = multiplicity  # dimension of the local algebra

    @property
    def minpolys(self):
        return tuple(v.minpoly for v in self.values)

    def value_of(self, poly):
        return poly.evaluate(self.coords, convert=self.field.from_rational)

    def is_rational(self):
        return self.field.degree == 1

    def rational_coords(self):
        if not self.is_rational():
            raise ValueError(
                "not a rational point: field degree %d" % self.field.degree
            )
        return tuple(c.as_rational() for c in self.coords)

    def approx(self):
        return tuple(v.approx() for v in self.values)

    def sort_key(self):
        out = []
        for c in self.coords:
            lo, hi = c.interval()
            out.append((lo + hi) / 2)
        return tuple(out)

    def to_json(self):
        return {
            "coordinates": [v.to_json() for v in self.values],
            "field_degree": self.field.degree,
            "multiplicity": self.multiplicity,
        }

    def __repr__(self):
        return "AlgebraicPoint(%s)" % (self.approx(),)


# ---------------------------------------------------------------------------
# the zero-dimensional solver

def solve_zero_dim(ideal, pair_cap=DEFAULT_PAIR_CAP, quot=None):
    """All real points of a zero-dimensional system, certified exactly on
    its generators.  quot is the _Quotient of the ideal, when the caller
    has it; otherwise it comes from the ideal's Groebner basis."""
    if not ideal.gens:
        raise NotZeroDimensionalError("zero ideal has no finite solution set")
    if quot is None:
        quot = _Quotient(groebner(ideal, pair_cap=pair_cap))
    if quot.dim == 0:
        return []

    # u_0 = x_last.  Two distinct points agree on u_t for at most n - 1
    # values of t, so some t <= (n - 1) * C(npoints, 2) separates them all.
    n = ideal.nvars
    for t in itertools.count():
        rur = fglm_lex(quot, [t ** (n - 1 - k) for k in range(n)])
        if rur is not None:
            break

    points = _assemble_points(ideal, rur, quot.dim)
    points.sort(key=lambda p: p.sort_key())
    return points


def _assemble_points(orig_ideal, rur, dim):
    """The real points of a rational univariate representation
    (f, g_1, [g_{x_i}]) of a quotient of dimension dim, worked out once
    per irreducible factor of f."""
    f, g_one, g_coords = rur
    n = orig_ideal.nvars
    factors = _factors(f)
    f_deriv = upoly_deriv(f)
    points = []
    total = 0
    for fac in factors:
        field = NumberField(fac, None)
        mu = _multiplicity(field, g_one, f_deriv)
        total += (len(fac) - 1) * mu
        roots = isolate_real_roots(fac)
        if not roots:
            continue
        # x_i = g_{x_i}(alpha) / g_1(alpha) in QQ[alpha]/(fac)
        inv = field.reduce(g_one).inverse()
        coords = [field.reduce(g) * inv for g in g_coords]
        # certificate: every original generator vanishes identically
        for gen in orig_ideal.gens:
            if not gen.evaluate(coords, convert=field.from_rational).is_zero():
                raise CertificateError("solution fails generator certificate")
        # minimal polynomials depend on the field element, not the root
        minpolys = tuple(tuple(_minpoly_of_value(c)) for c in coords)
        chains = [sturm_chain(cand) for cand in minpolys]
        for root in roots:
            at = NumberField(fac, root)
            at_coords = [FieldElement(at, c.vec, c.den) for c in coords]
            # isolating each coordinate refines the root, and the points
            # are sorted on that refinement
            values = tuple(AlgValue.from_field_element(c, cand, chain)
                           for cand, chain, c in zip(minpolys, chains, at_coords))
            points.append(AlgebraicPoint(n, at, at_coords, values, mu))
    if total != dim:
        raise CertificateError(
            "multiplicities add up to %d, not the quotient dimension %d"
            % (total, dim)
        )
    return points


def _multiplicity(field, g_one, f_deriv):
    """The multiplicity mu of the points at the roots of the irreducible
    factor of f that defines field, from g_1 = mu * f' in the field; f is
    squarefree, so f' is a unit there."""
    num, den = field.reduce(g_one), field.reduce(f_deriv)
    i = next((i for i, c in enumerate(den.vec) if c), 0)
    # num.vec[i] / num.den = mu * den.vec[i] / den.den
    mu, rest = (divmod(num.vec[i] * den.den, den.vec[i] * num.den)
                if den.vec[i] else (0, 0))
    if mu < 1 or rest or den * mu != num:
        raise CertificateError(
            "g_1 / f' is not a positive integer modulo a factor"
        )
    return mu


def _minpoly_of_value(value):
    """Primitive integer minimal polynomial of a field element.

    First linear dependence among 1, v, v^2, ... over the power basis of
    the field; minimality makes the result irreducible, so no factoring
    or resultants are needed.  The rows are the integer numerators
    v^k * den_k, so a dependence sum c_k v^k * den_k = 0 gives the
    coefficients c_k * den_k."""
    field = value.field
    if value.is_rational():
        return [-value.vec[0], value.den]
    ech = _Echelon(field.degree + 1)
    power = field.from_rational(1)
    dens = []
    for k in range(field.degree + 1):
        dens.append(power.den)
        combo = ech.insert(list(power.vec), k)
        if combo is not None:
            return upoly_primitive_int([c * d for c, d in zip(combo, dens)])
        power = power * value
    raise CertificateError("no dependence within the field degree")


def _isolate_among(cand, chain, value):
    """Interval around a FieldElement containing exactly one root of the
    squarefree integer polynomial cand (which the element is a root of)."""
    eps = qq(1, 2**10)
    for _ in range(512):
        lo, hi = value.interval()
        lo2, hi2 = lo - eps, hi + eps
        step = eps / 16
        while not _nonzero_at(cand, lo2):
            lo2 -= step
        while not _nonzero_at(cand, hi2):
            hi2 += step
        if sturm_count(chain, lo2, hi2) == 1:
            return (lo2, hi2)
        value.field.root.refine()
        eps = eps / 16
    raise UndecidedSignError("coordinate isolation exhausted")


# ---------------------------------------------------------------------------
# exact comparison of algebraic values

class AlgValue:
    """A real algebraic number as (irreducible minpoly, isolating root)."""

    __slots__ = ("minpoly", "root")

    def __init__(self, minpoly, root):
        self.minpoly = tuple(int(c) for c in minpoly)
        self.root = root  # RootInterval; exact when the minpoly is linear

    @staticmethod
    def from_rational(c):
        c = qq(c)
        p = (-int(c.numerator), int(c.denominator))
        return AlgValue(p, RootInterval(list(p), None, c, c))

    @staticmethod
    def from_field_element(elem, minpoly=None, chain=None):
        """The value of elem; pass its minimal polynomial, and that
        polynomial's Sturm chain, when they are known."""
        cand = minpoly or tuple(_minpoly_of_value(elem))
        if len(cand) == 2:
            return AlgValue.from_rational(qq(-cand[0], cand[1]))
        chain = chain or sturm_chain(cand)
        lo, hi = _isolate_among(cand, chain, elem)
        return AlgValue(cand, RootInterval(cand, chain, lo, hi))

    def is_rational(self):
        return len(self.minpoly) == 2

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not rational: root of %s" % (list(self.minpoly),))
        return qq(-self.minpoly[0], self.minpoly[1])

    def box(self):
        return (self.root.lo, self.root.hi)

    def interval(self):
        """The printed interval, a function of the value alone: [x, x] for
        a rational x, else the dyadic cell [k, k + 1] / 2^j that holds the
        value, at the least j >= 40 where one Sturm count finds no other
        root of the minimal polynomial in it.  The minimal polynomial has
        no rational root, so no cell ends on one."""
        r = self.root
        if r.lo == r.hi:
            return r.lo, r.hi
        j = 40
        while True:
            r.refine_to(qq(1, 2**j))
            # (lo, hi) holds no more than one grid point
            k = math.floor(r.lo * 2**j)
            edge = qq(k + 1, 2**j)
            if edge < r.hi and sturm_count(r.chain, r.lo, edge) == 0:
                k += 1
            lo, hi = qq(k, 2**j), qq(k + 1, 2**j)
            if sturm_count(r.chain, lo, hi) == 1:
                return lo, hi
            j += 1

    def approx(self):
        """The double nearest the value.  Rounding is monotone, so once both
        ends of the isolating interval round to one double, so does the
        value; an irrational value is never a tie between two doubles."""
        r = self.root
        while float(r.lo) != float(r.hi):
            r.refine()
        return float(r.lo)

    def cmp(self, other):
        if self.minpoly == other.minpoly:
            if self._same_root(other):
                return 0
        for _ in range(512):
            a = self.box()
            b = other.box()
            if a[1] < b[0]:
                return -1
            if b[1] < a[0]:
                return 1
            self.root.refine()
            other.root.refine()
        raise UndecidedSignError("comparison refinement exhausted")

    def _same_root(self, other):
        if len(self.minpoly) == 2:
            return True  # one rational root
        # both isolate a root of the same squarefree polynomial with
        # non-root endpoints: the roots agree iff the overlap holds one
        a, b = self.box(), other.box()
        lo, hi = max(a[0], b[0]), min(a[1], b[1])
        if lo >= hi:
            return False
        return sturm_count(self.root.chain, lo, hi) >= 1

    def to_json(self):
        lo, hi = self.interval()
        return {
            "minpoly": list(self.minpoly),
            "interval": [qq_str(lo), qq_str(hi)],
            "decimal": self.approx(),
        }

    def __repr__(self):
        return "AlgValue(%s ~ %.6f)" % (list(self.minpoly), self.approx())
