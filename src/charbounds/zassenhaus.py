"""Factoring squarefree integer polynomials over Q by Zassenhaus's method
(Knuth, TAOCP vol. 2, 4.6.2; von zur Gathen and Gerhard, Modern
Computer Algebra, ch. 15): factor modulo a small prime, Hensel-lift the
factors, recombine them.

Dense polynomials modulo m are ascending lists of residues in [0, m),
trimmed.  algsolve imports this module on the first rest of degree >= 4
it factors, so a run that never needs it never loads it.
"""

from __future__ import annotations

import itertools
import math
import random

from .algsolve import (
    CertificateError,
    SolveError,
    _int_exquo,
    _odd_primes,
    upoly_deriv,
    upoly_primitive_int,
    upoly_trim,
)

# the first prime that gives fewer than _FEW_FACTORS modular factors is
# kept, or else the one with the fewest of the first _ZASSENHAUS_PRIMES
_FEW_FACTORS = 15
_ZASSENHAUS_PRIMES = 5
# subsets of modular factors tried in recombination before giving up
_RECOMBINATION_CAP = 100_000


class RecombinationCapError(SolveError):
    pass


def _mod_trim(p, m):
    return upoly_trim([c % m for c in p])


def _mod_add(a, b, m):
    return _mod_trim([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)], m)


def _mod_sub(a, b, m):
    return _mod_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)], m)


def _mod_mul(a, b, m):
    """a b modulo m for residue lists, by one integer product: the
    coefficients, packed into byte slots wide enough for every sum of
    products, are the digits of a and b at 2^(8 k)."""
    if not a or not b:
        return []
    bits = max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
    k = bits // 8 + 1
    prod = (int.from_bytes(b"".join(c.to_bytes(k, "little") for c in a), "little")
            * int.from_bytes(b"".join(c.to_bytes(k, "little") for c in b), "little"))
    raw = prod.to_bytes(k * (len(a) + len(b) - 1), "little")
    return upoly_trim([int.from_bytes(raw[i:i + k], "little") % m
                       for i in range(0, len(raw), k)])


def _mod_divmod(a, b, m):
    """(q, r) with a = q b + r modulo m; the lead of b is a unit mod m."""
    a, db = list(a), len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(a) - 1 - db, -1, -1):
        c = a[shift + db] * inv % m
        if c:
            q[shift] = c
            for j in range(db):
                a[shift + j] -= c * b[j]
    return upoly_trim(q), _mod_trim(a[:db], m)


def _mod_monic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _mod_gcd(a, b, p):
    while b:
        a, b = b, _mod_divmod(a, b, p)[1]
    return _mod_monic(a, p)


def _mod_gcdex(a, b, p):
    """(s, t) with s a + t b = 1 mod p, deg s < deg b and deg t < deg a,
    for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _mod_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod_sub(s0, _mod_mul(q, s1, p), p)
        t0, t1 = t1, _mod_sub(t0, _mod_mul(q, t1, p), p)
    if len(r0) != 1:
        raise CertificateError("Hensel factors are not coprime modulo %d" % p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _mod_powmod(a, e, f, p):
    out, a = [1], _mod_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _mod_divmod(_mod_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _mod_divmod(_mod_mul(a, a, p), f, p)[1]
    return out


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the irreducible factors of degree d of a
    monic squarefree f mod p.  h = x^(p^d) mod f steps by the Frobenius
    map, the rows x^(p j) mod f, as the coefficients of h lie in F_p."""
    n = len(f) - 1
    frob, row = [], [1] + [0] * (n - 1)
    for k in range(p * (n - 1) + 1):
        if k % p == 0:
            frob.append(row)
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [(c - top * fc) % p for c, fc in zip(row, f)]
    out, rest, h = [], f, [0, 1] + [0] * (n - 2)
    d = 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        acc = [0] * n
        for c, fr in zip(h, frob):
            if c:
                for j, y in enumerate(fr):
                    acc[j] += c * y
        h = [c % p for c in acc]
        g = _mod_gcd(rest, _mod_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = _mod_divmod(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """The monic irreducible factors of g mod p, all of degree d
    (Cantor and Zassenhaus, Math. Comp. 1981)."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = _mod_trim([rng.randrange(p) for _ in range(len(g) - 1)], p)
        if len(a) < 2:
            continue
        b = _mod_sub(_mod_powmod(a, (p**d - 1) // 2, g, p), [1], p)
        h = _mod_gcd(g, b, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_mod_divmod(g, h, p)[0], d, p, rng))


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h, s g + t h = 1 from modulo m to modulo m^2, h monic
    (von zur Gathen and Gerhard, Modern Computer Algebra, Alg. 15.10)."""
    mm = m * m
    e = _mod_sub(f, _mod_mul(g, h, mm), mm)
    q, r = _mod_divmod(_mod_mul(s, e, mm), h, mm)
    g = _mod_add(g, _mod_add(_mod_mul(t, e, mm), _mod_mul(q, g, mm), mm), mm)
    h = _mod_add(h, r, mm)
    b = _mod_sub(_mod_add(_mod_mul(s, g, mm), _mod_mul(t, h, mm), mm), [1], mm)
    c, d = _mod_divmod(_mod_mul(s, b, mm), h, mm)
    s = _mod_sub(s, d, mm)
    t = _mod_sub(t, _mod_add(_mod_mul(t, b, mm), _mod_mul(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(f, facs, p, big):
    """The monic factors of f modulo big = p^(2^k) that reduce to the
    monic factors facs of f modulo p, by a factor tree."""
    if len(facs) == 1:
        return [_mod_monic(_mod_trim(f, big), big)]
    k = len(facs) // 2
    g = [1]
    for fac in facs[:k]:
        g = _mod_mul(g, fac, p)
    g = [c * f[-1] % p for c in g]
    h = [1]
    for fac in facs[k:]:
        h = _mod_mul(h, fac, p)
    s, t = _mod_gcdex(g, h, p)
    m = p
    while m < big:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, facs[:k], p, big) + _hensel_lift(h, facs[k:], p, big)


def factor(f):
    """The irreducible factors of a squarefree primitive integer polynomial
    f with positive lead.

    Primes that do not divide the lead and keep f squarefree are tried in
    turn, up to a few, until one gives few factors of f modulo it; the one
    with the fewest is kept.  Those factors come from distinct-degree,
    then equal-degree factorization, and are lifted modulo P = p^(2^k) > 2 B,
    with B the Mignotte bound sqrt(n + 1) 2^n |f| lc(f) on the coefficients
    of lc(f) / lc(g) g for any factor g.  Subsets of the lifted factors,
    smallest first, give candidates pp(lc(f) prod) in symmetric residues;
    a candidate is kept only when it divides f exactly in Z[x], and a
    subset whose constant term cannot divide lc(f) f(0) is skipped."""
    best = None
    df = upoly_deriv(f)
    tries = 0
    for p in _odd_primes():
        if f[-1] % p == 0:
            continue
        fp = _mod_monic(_mod_trim(f, p), p)
        if len(_mod_gcd(fp, _mod_trim(df, p), p)) > 1:
            continue
        split = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in split)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, split)
        tries += 1
        if count < _FEW_FACTORS or tries == _ZASSENHAUS_PRIMES:
            break
    if best is None:
        raise CertificateError("no prime keeps the polynomial squarefree")
    _, p, split = best
    rng = random.Random(p)
    facs = sorted(fac for g, d in split for fac in _equal_degree(g, d, p, rng))
    n = len(f) - 1
    bound = (math.isqrt(n + 1) + 1) * 2**n * max(map(abs, f)) * f[-1]
    big = p
    while big <= 2 * bound:
        big *= big
    lifts = _hensel_lift(f, facs, p, big)
    out, size, tried = [], 1, 0
    while 2 * size <= len(lifts):
        for subset in itertools.combinations(range(len(lifts)), size):
            tried += 1
            if tried > _RECOMBINATION_CAP:
                raise RecombinationCapError(
                    "recombining %d modular factors of a degree-%d polynomial "
                    "passed %d subsets" % (len(lifts), n, _RECOMBINATION_CAP)
                )
            lead = f[-1]
            c0 = lead
            for i in subset:
                c0 = c0 * lifts[i][0] % big
            c0 = c0 - big if 2 * c0 > big else c0
            if c0 and (lead * f[0]) % c0:
                continue
            g = [lead]
            for i in subset:
                g = _mod_mul(g, lifts[i], big)
            g = upoly_primitive_int([c - big if 2 * c > big else c for c in g])
            q = _int_exquo(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            lifts = [x for i, x in enumerate(lifts) if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out
