"""Reference quotient-algebra linear algebra with one rational per entry.

This is the straightforward exact method the solver's integer-row path
must agree with: multiplication by x_i applied column by column to
sparse rational vectors, a rational echelon normalised to pivot 1, the
full multiplication tensor for the trace form, and a rational
Gauss-Jordan kernel.  Every quantity it returns (the reduced dimension, g
and the h_i) is unique, so the two paths must agree exactly.

The Groebner basis and normal forms are the same Buchberger run with one
rational per coefficient: S-polynomials of monic leading terms and
division by the leading coefficient.  The reduced basis is unique, so
the solver's fraction-free groebner must return the same Ideal, and each
fraction-free normal form rem / mult must equal the rational one.

The real-root layer is Sturm isolation with one rational per coefficient
and per value: the chain by rational remainders, signs from p(x) by
Horner, and interval Horner on rational endpoints.  The solver's integer
layer must take every decision the same way, so its bisection points,
isolating intervals and interval images must equal these exactly.
"""

import heapq
import operator

from charbounds import algsolve
from charbounds.algsolve import (
    CertificateError,
    Ideal,
    NotZeroDimensionalError,
    PairCapError,
    _normalize,
    staircase,
    upoly_deriv,
    upoly_primitive_int,
    upoly_trim,
)
from charbounds.polynomials import (
    QQ,
    Poly,
    QONE,
    QZERO,
    grevlex_key,
    monomial_divides,
    monomial_mul,
    qq,
)


def monomial_div(a, b):
    """a / b, assuming divisibility."""
    return tuple(map(operator.sub, a, b))


def monomial_lcm(a, b):
    return tuple(map(max, a, b))


def _heap_key(m):
    """A min-heap key whose order is the reverse of grevlex_key."""
    return (-sum(m), m[::-1])


class Kernel:
    """The solver's integer normal forms on exponent tuples, for tests:
    monomials are packed on the way in, and remainders unpacked on the way
    out.  Memo keys and basis entries stay packed."""

    def __init__(self, nvars):
        self.packing = algsolve._packing(nvars)

    def mono(self, m):
        return self.packing.pack(m)

    def entry(self, terms):
        """The basis entry (lm, lc, tail) of tuple-keyed integer terms."""
        return algsolve._basis_entry({self.mono(m): c for m, c in terms.items()})

    def normal_form(self, p, basis, reducers=None):
        rem, mult = algsolve.normal_form({self.mono(m): c for m, c in p.items()}, basis,
                                         self.packing.guard, reducers)
        return {self.packing.unpack(m): c for m, c in rem.items()}, mult


def normal_form(p, basis):
    """Full reduction over QQ; basis entries are (lm, lc, poly).

    The largest remaining monomial comes off a heap.  A monomial that
    cancels stays queued and is skipped when popped; if a later step
    brings it back it is queued again, and the extra entry is skipped the
    same way."""
    work = dict(p.terms)
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue
        hit = None
        for lm, lc, q in basis:
            if monomial_divides(lm, m):
                hit = (lm, lc, q)
                break
        if hit is None:
            rem[m] = c
            continue
        lm, lc, q = hit
        shift = monomial_div(m, lm)
        factor = QQ(c, lc)
        for mq, cq in q.terms.items():
            if mq == lm:
                continue
            mm = monomial_mul(mq, shift)
            old = work.get(mm)
            if old is None:
                work[mm] = -factor * cq
                heapq.heappush(heap, (_heap_key(mm), mm))
            else:
                s = old - factor * cq
                if s:
                    work[mm] = s
                else:
                    del work[mm]
    return Poly(p.nvars, rem, _trusted=True)


def _spoly(f, g, lmf, lmg):
    l = monomial_lcm(lmf, lmg)
    mf = monomial_div(l, lmf)
    mg = monomial_div(l, lmg)
    pf = Poly(f.nvars, {monomial_mul(m, mf): c for m, c in f.terms.items()}, _trusted=True)
    pg = Poly(g.nvars, {monomial_mul(m, mg): c for m, c in g.terms.items()}, _trusted=True)
    return pf.scale(QQ(1, f.terms[lmf])) - pg.scale(QQ(1, g.terms[lmg]))


def groebner(ideal, pair_cap=200_000):
    """Reduced Groebner basis over QQ (deterministic), sugar pair
    selection, with the pair loop of the solver's integer groebner."""
    G = []
    sugars = []
    lms = []

    def add_elem(p, sugar):
        G.append(p)
        sugars.append(sugar)
        lms.append(max(p.terms, key=grevlex_key))

    for g in ideal.gens:
        add_elem(g, g.total_degree())
    if not G:
        raise NotZeroDimensionalError("zero ideal has no finite solution set")

    pairs = {}
    done = set()

    def pair_sugar(i, j):
        l = monomial_lcm(lms[i], lms[j])
        si = sugars[i] + sum(monomial_div(l, lms[i]))
        sj = sugars[j] + sum(monomial_div(l, lms[j]))
        return max(si, sj)

    def push_pair(i, j):
        if i > j:
            i, j = j, i
        if (i, j) in done or (i, j) in pairs:
            return
        # product criterion
        if monomial_mul(lms[i], lms[j]) == monomial_lcm(lms[i], lms[j]):
            done.add((i, j))
            return
        pairs[(i, j)] = (pair_sugar(i, j), grevlex_key(monomial_lcm(lms[i], lms[j])),
                         i, j)

    n0 = len(G)
    for i in range(n0):
        for j in range(i + 1, n0):
            push_pair(i, j)

    processed = 0
    while pairs:
        processed += 1
        if processed > pair_cap:
            raise PairCapError(
                "pair-queue limit %d exceeded; refusing silent truncation"
                % pair_cap
            )
        best = min(pairs, key=pairs.get)
        sugar, _, i, j = pairs.pop(best)
        done.add(best)
        # chain criterion
        l = monomial_lcm(lms[i], lms[j])
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if monomial_divides(lms[k], l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        basis = [(lms[t], G[t].terms[lms[t]], G[t]) for t in range(len(G))]
        r = normal_form(_spoly(G[i], G[j], lms[i], lms[j]), basis)
        if r:
            r = _normalize(r)
            t = len(G)
            add_elem(r, max(sugar, r.total_degree()))
            for u in range(t):
                push_pair(u, t)

    # minimalize and inter-reduce; no kept leading monomial divides
    # another, so each element keeps its leading monomial
    keep = []
    for i, lm in enumerate(lms):
        if not any(
            j != i and monomial_divides(lms[j], lm)
            and (lms[j] != lm or j < i)
            for j in range(len(G))
        ):
            keep.append(i)
    reduced = []
    for i in keep:
        others = [(lms[j], G[j].terms[lms[j]], G[j]) for j in keep if j != i]
        r = normal_form(G[i], others)
        if not r:
            raise CertificateError("minimal basis element reduced away")
        r = _normalize(r)
        reduced.append((lms[i], r.terms[lms[i]], r))
    reduced.sort(key=lambda e: grevlex_key(e[0]))

    for g in ideal.gens:
        if normal_form(g, reduced):
            raise CertificateError("generator fails membership in its basis")
    return Ideal(ideal.nvars, tuple(r for _, _, r in reduced))


class Echelon:
    """Incremental row reduction with dependency extraction."""

    def __init__(self):
        self.rows = {}  # pivot index -> (vector dict, combo dict)

    def insert(self, vec, tag):
        """Reduce vec; returns None if independent (row stored under tag),
        else the dependency combo {tag: coeff}."""
        vec = dict(vec)
        combo = {tag: QONE}
        while vec:
            piv = min(vec)
            if piv not in self.rows:
                inv = QQ(1, vec[piv])
                vec = {k: v * inv for k, v in vec.items()}
                combo = {k: v * inv for k, v in combo.items()}
                self.rows[piv] = (vec, combo)
                return None
            rvec, rcombo = self.rows[piv]
            c = vec[piv]
            for k, v in rvec.items():
                s = vec.get(k, QZERO) - c * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
            for k, v in rcombo.items():
                s = combo.get(k, QZERO) - c * v
                if s:
                    combo[k] = s
                else:
                    combo.pop(k, None)
        return combo


class Quotient:
    """Multiplication structure of a zero-dimensional quotient algebra."""

    def __init__(self, basis_ideal):
        self.nvars = basis_ideal.nvars
        self.basis = []
        for g in basis_ideal.gens:
            lm = g.leading_monomial()
            self.basis.append((lm, g.terms[lm], g))
        self.monomials = staircase([lm for lm, _, _ in self.basis], self.nvars)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self._mult_cache = {}

    def nf_vec(self, poly):
        r = normal_form(poly, self.basis)
        return {self.index[m]: c for m, c in r.terms.items()}

    def mult_column(self, var, j):
        got = self._mult_cache.get((var, j))
        if got is None:
            m = self.monomials[j]
            shifted = m[:var] + (m[var] + 1,) + m[var + 1:]
            got = self.nf_vec(Poly(self.nvars, {shifted: QONE}, _trusted=True))
            self._mult_cache[(var, j)] = got
        return got

    def mult_apply(self, var, vec):
        out = {}
        for j, c in vec.items():
            for k, v in self.mult_column(var, j).items():
                s = out.get(k, QZERO) + c * v
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out


class ReducedQuotient:
    """The quotient modulo the kernel of the trace form B(u, v) = Tr(M_uv),
    from the full multiplication tensor T[m][j] = NF(b_m * b_j)."""

    def __init__(self, quot):
        self.base = quot
        self.nvars = quot.nvars
        D = quot.dim
        index = quot.index
        T = [None] * D
        T[index[(0,) * self.nvars]] = [{j: QONE} for j in range(D)]
        for mi in sorted(range(D), key=lambda m: sum(quot.monomials[m])):
            mono = quot.monomials[mi]
            if sum(mono) == 0:
                continue
            i = next(k for k in range(self.nvars) if mono[k])
            pj = index[mono[:i] + (mono[i] - 1,) + mono[i + 1:]]
            T[mi] = [quot.mult_apply(i, T[pj][j]) for j in range(D)]
        traces = [
            sum((T[m][j].get(j, QZERO) for j in range(D)), QZERO)
            for m in range(D)
        ]
        kernel_rows = nullspace([
            [
                sum((c * traces[m] for m, c in T[j][k].items()), QZERO)
                for k in range(D)
            ]
            for j in range(D)
        ])
        # fully reduced echelon of the nilradical
        self._nil = {}
        for row in kernel_rows:
            vec = self._project({i: c for i, c in enumerate(row) if c})
            if not vec:
                continue
            piv = min(vec)
            inv = QQ(1, vec[piv])
            vec = {k: v * inv for k, v in vec.items()}
            for other in self._nil.values():
                c = other.get(piv)
                if not c:
                    continue
                for k, v in vec.items():
                    s = other.get(k, QZERO) - c * v
                    if s:
                        other[k] = s
                    else:
                        other.pop(k, None)
            self._nil[piv] = vec
        self.dim = D - len(self._nil)

    def _project(self, vec):
        vec = dict(vec)
        for piv in sorted(set(vec) & set(self._nil)):
            c = vec.get(piv)
            if not c:
                continue
            for k, v in self._nil[piv].items():
                s = vec.get(k, QZERO) - c * v
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        return vec

    def nf_vec(self, poly):
        return self._project(self.base.nf_vec(poly))

    def mult_apply(self, var, vec):
        return self._project(self.base.mult_apply(var, vec))


def nullspace(matrix):
    """Kernel basis of an exact rational matrix (rows of the kernel)."""
    n = len(matrix)
    rows = [list(r) for r in matrix]
    pivots = {}
    for col in range(n):
        hit = None
        for i in range(len(rows)):
            if i not in pivots.values() and rows[i][col]:
                hit = i
                break
        if hit is None:
            continue
        pivots[col] = hit
        inv = QQ(1, rows[hit][col])
        rows[hit] = [c * inv for c in rows[hit]]
        for i in range(len(rows)):
            if i != hit and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[hit])]
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [QZERO] * n
        v[fc] = QONE
        for col, i in pivots.items():
            v[col] = -rows[i][fc]
        out.append(v)
    return out


def first_dependency(quot, times_u):
    """Run 1, u, u^2, ... through an echelon until the first dependency;
    returns the echelon and the monic minimal polynomial of u."""
    ech = Echelon()
    vec = quot.nf_vec(Poly.const(quot.nvars, 1))
    k = 0
    while True:
        combo = ech.insert(vec, k)
        if combo is not None:
            return ech, [combo.get(j, QZERO) for j in range(k + 1)]
        vec = times_u(vec)
        k += 1
        assert k <= quot.dim, "no dependency within the quotient dimension"


def fglm_lex(quot, form):
    """(g, [h_1..h_n]) for u = sum form[k] x_k, or None when deg g < dim."""
    def times_u(vec):
        out = {}
        for var, c in enumerate(form):
            if not c:
                continue
            for k, v in quot.mult_apply(var, vec).items():
                s = out.get(k, QZERO) + qq(c) * v
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return out

    ech, g = first_dependency(quot, times_u)
    deg = len(g) - 1
    if deg < quot.dim:
        return None
    h_polys = []
    for i in range(quot.nvars):
        combo = ech.insert(quot.nf_vec(Poly.variable(quot.nvars, i)), "x")
        h_polys.append(upoly_trim([-combo.get(j, QZERO) for j in range(deg)]))
    return g, h_polys


def upoly_mul(a, b):
    """Product of two dense QQ lists (ascending)."""
    if not a or not b:
        return []
    out = [QZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return upoly_trim(out)


def upoly_sub(a, b):
    """Difference of two dense QQ lists (ascending)."""
    out = [QZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return upoly_trim(out)


def upoly_rem(a, b):
    """Remainder of a by b over QQ, dividing by the lead of b."""
    a = [qq(c) for c in a]
    db = len(b) - 1
    inv = QONE / b[-1]
    while len(a) - 1 >= db:
        c = a[-1] * inv
        shift = len(a) - 1 - db
        for j in range(db + 1):
            a[shift + j] -= c * b[j]
        upoly_trim(a)
    return a


def upoly_eval(p, x):
    acc = QZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sturm_chain(p):
    chain = [[qq(c) for c in p], [qq(c) for c in upoly_deriv(p)]]
    while chain[-1]:
        r = [-c for c in upoly_rem(chain[-2], chain[-1])]
        if not r:
            break
        # primitive rescale keeps signs and controls growth
        ints = upoly_primitive_int(r)
        sign = 1 if (r[-1] > 0) == (ints[-1] > 0) else -1
        chain.append([qq(sign * c) for c in ints])
    return chain


def _variations(chain, x):
    prev = 0
    count = 0
    for p in chain:
        v = upoly_eval(p, x)
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s and prev and s != prev:
            count += 1
        if s:
            prev = s
    return count


def sturm_count(chain, lo, hi):
    return _variations(chain, lo) - _variations(chain, hi)


def refine(p, chain, lo, hi):
    """One bisection step of an isolating interval, as (lo, hi)."""
    if lo == hi:
        return lo, hi
    width = hi - lo
    mid = (lo + hi) / 2
    for k in range(2, 40):
        if upoly_eval(p, mid):
            break
        mid = lo + width * qq(1, 2**k)
    else:
        raise AssertionError("could not find a non-root split point")
    if sturm_count(chain, lo, mid) == 1:
        return lo, mid
    return mid, hi


def isolate_real_roots(p):
    """[(lo, hi)] isolating the real roots of a squarefree polynomial."""
    p = [qq(c) for c in p]
    if len(p) <= 1:
        return []
    chain = sturm_chain(p)
    bound = QONE + max(abs(c) for c in p[:-1]) / abs(p[-1])
    lo, hi = -bound, bound
    while not upoly_eval(p, lo):
        lo -= 1
    while not upoly_eval(p, hi):
        hi += 1
    out = []
    stack = [(lo, hi, sturm_count(chain, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        k = 2
        while not upoly_eval(p, mid):
            mid = a + (b - a) * qq(1, 2**k)
            k += 1
        nl = sturm_count(chain, a, mid)
        stack.append((a, mid, nl))
        stack.append((mid, b, n - nl))
    return sorted(out)


def upoly_interval(p, box):
    lo = hi = QZERO
    for c in reversed(p):
        ends = (lo * box[0], lo * box[1], hi * box[0], hi * box[1])
        lo, hi = min(ends) + c, max(ends) + c
    return lo, hi


# ---------------------------------------------------------------------------
# number fields with one rational per power-basis coefficient


class FractionField:
    """QQ[x] / (minpoly), reduced modulo the monic rational copy of the
    minimal polynomial: the arithmetic the solver's integer elements,
    vec / den reduced by pseudo-division, must agree with exactly."""

    def __init__(self, minpoly):
        self.monic = tuple(qq(c, minpoly[-1]) for c in minpoly)
        self.degree = len(minpoly) - 1

    def reduce(self, vec):
        """A dense QQ list modulo the monic minimal polynomial, as a tuple
        of degree entries."""
        vec = [qq(c) for c in vec]
        d = self.degree
        for i in range(len(vec) - 1, d - 1, -1):
            c = vec[i]
            if c:
                for j in range(d):
                    vec[i - d + j] -= c * self.monic[j]
            vec[i] = QZERO
        return tuple(vec[:d] + [QZERO] * (d - len(vec)))

    def mul(self, a, b):
        prod = [QZERO] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self.reduce(prod)

    def pow(self, a, k):
        out = self.reduce([QONE])
        for _ in range(k):
            out = self.mul(out, a)
        return out


def cyclotomic_conjugate(field, m, vec):
    """zeta^i -> zeta^(m - i) on a vector of Q(zeta_m), reduced."""
    out = [QZERO] * m
    for i, c in enumerate(vec):
        out[-i % m] = c
    return field.reduce(out)
