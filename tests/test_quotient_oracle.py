"""The integer-row quotient layer against the rational reference in
fraction_oracle: the number of distinct points must agree exactly, form
by form the rational univariate representation (f, g_1, g_{x_i}) must
give the oracle's minimal polynomial g and its coordinates x_i = h_i(u),
and each point's multiplicity must be the multiplicity of u(p) as a root
of the characteristic polynomial of the oracle's M_u."""

import itertools
import math

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
from charbounds import algsolve, branch, compactcert, su2asym
from charbounds.algsolve import (
    Ideal,
    NotZeroDimensionalError,
    groebner,
    upoly_primitive_int,
    upoly_squarefree,
)
from charbounds.charring import FundamentalPolynomial
from charbounds.compactcert import adjoint_objective, critical_ideal, extremum
from charbounds.invder import derivation_matrix
from charbounds.polynomials import QZERO, Poly, qq
from charbounds.rootdata import build_root_datum


def charpoly_factors(quot, form):
    """[(ascending integer factor, exponent)] of the characteristic
    polynomial of M_u, u = sum form[k] x_k, on the oracle's quotient."""
    rows = [[QZERO] * quot.dim for _ in range(quot.dim)]
    for j in range(quot.dim):
        for var, c in enumerate(form):
            for k, v in quot.mult_apply(var, {j: qq(1)}).items():
                rows[k][j] += c * v
    mat = sympy.Matrix([
        [sympy.Rational(int(v.numerator), int(v.denominator)) for v in row]
        for row in rows
    ])
    chi = mat.charpoly(sympy.Symbol("T"))
    return [
        ([int(c) for c in reversed(fac.all_coeffs())], e)
        for fac, e in chi.factor_list()[1]
    ]


def assert_same_quotient_layer(ideal):
    """Run the solver's quotient steps on both paths and compare; returns
    the separating t and the real points."""
    gb = groebner(Ideal.of(ideal.nvars, ideal.gens))
    fast = algsolve._Quotient(gb)
    assert_same_as_normal_forms(gb, fast)
    ref = oracle.Quotient(gb)
    assert fast.dim == ref.dim
    # e(T) of the sum of the variables, from integer and rational power sums
    total = sum((Poly.variable(ideal.nvars, i) for i in range(ideal.nvars)),
                Poly.const(ideal.nvars, 0))
    assert_same_charpoly(fast, total, algsolve._int_power_sums(fast, total, [fast.tau[0]]))
    assert algsolve.eliminant(ideal, total)[0] == upoly_squarefree(
        upoly_primitive_int(oracle.eliminant_charpoly(fast, total)))
    reduced = oracle.ReducedQuotient(ref)
    assert fast.npoints == reduced.dim
    n = ideal.nvars
    for t in itertools.count():
        form = [qq(t ** (n - 1 - k)) for k in range(n)]
        rur = algsolve.fglm_lex(fast, form)
        assert rur == oracle.rur(fast, form)
        shape = oracle.fglm_lex(reduced, form)
        assert (rur is None) == (shape is None)
        if rur is not None:
            f, g_one, g_coords = rur
            g, h_polys = shape
            assert f == upoly_primitive_int(g)
            for g_x, h in zip(g_coords, h_polys, strict=True):
                diff = oracle.upoly_sub(g_x, oracle.upoly_mul(h, g_one))
                assert oracle.upoly_rem(diff, f) == []
            points = algsolve._assemble_points(ideal, rur, fast.dim)
            factors = charpoly_factors(ref, form)
            for p in points:
                u = sum((c * x for c, x in zip(form, p.coords)), QZERO)
                # the exponent of the one factor of chi that vanishes at u(p)
                mus = []
                for fac, e in factors:
                    acc = QZERO
                    for c in reversed(fac):
                        acc = acc * u + c
                    if acc.is_zero():
                        mus.append(e)
                assert mus == [p.multiplicity]
            return t, points


def assert_same_as_normal_forms(gb, fast):
    """The border recurrence and tau = T(1) give the columns, scales and
    trace functional of the per-monomial normal forms, exactly."""
    ref = oracle.NormalFormQuotient(gb)
    assert (fast.monomials, fast.cols, fast.scales, fast.tau) == (
        ref.monomials, ref.cols, ref.scales, ref.tau)


def assert_same_charpoly(quot, poly, got):
    """_int_power_sums' chi is b^D times the rational characteristic
    polynomial of M_poly, b the denominator of M_poly's scale."""
    chi, (a, b), _ = got
    scale = quot.matrix(poly)[1]
    assert (a, b) == (scale.numerator, scale.denominator)
    assert chi == [b ** quot.dim * c for c in oracle.eliminant_charpoly(quot, poly)]


# a factor x_i - c - sum_{j < i} a_j x_j; a repeated factor gives a
# repeated point, and every system is triangular, hence zero-dimensional
factor = st.tuples(st.integers(-3, 3), st.lists(st.integers(-2, 2), min_size=2, max_size=2))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3),
    st.booleans(),
)
def test_integer_path_matches_rational_oracle(factors, repeat):
    # the quotient dimension is the product of the factor counts; the
    # oracle's multiplication tensor grows as its fourth power
    dim = math.prod(len(fs) + repeat for fs in factors)
    assume(dim <= 16)
    n = len(factors)
    xs = [Poly.variable(n, i) for i in range(n)]
    gens = []
    for i, fs in enumerate(factors):
        if repeat:
            fs = fs + fs[:1]
        p = Poly.const(n, 1)
        for c, coeffs in fs:
            lin = xs[i] - c
            for j in range(i):
                lin = lin - coeffs[j] * xs[j]
            p = p * lin
        gens.append(p)
    # every point is rational, hence real, so the multiplicities of the
    # returned points add up to the quotient dimension
    _, points = assert_same_quotient_layer(Ideal.of(n, gens))
    assert sum(p.multiplicity for p in points) == dim


def test_f4_f3_matches_rational_oracle(tmp_path):
    f4 = build_root_datum("F", 4)
    m = derivation_matrix(f4, cache_dir=tmp_path)
    crit = critical_ideal(m, FundamentalPolynomial(f4, Poly.variable(4, 2)))
    assert algsolve._Quotient(groebner(crit)).dim == 16
    assert assert_same_quotient_layer(crit)[0] == 1


def critical(letter, rank, objective, cache_dir):
    datum = build_root_datum(letter, rank)
    if objective == "adjoint":
        fp = adjoint_objective(datum)
    else:
        fp = FundamentalPolynomial(datum, Poly.variable(rank, int(objective[1:]) - 1))
    return critical_ideal(derivation_matrix(datum, cache_dir=cache_dir), fp)


@pytest.mark.parametrize("letter,rank,objective,zero_dim", [
    ("G", 2, "adjoint", True),
    ("B", 3, "f1", True),
    ("C", 3, "f3", True),
    ("D", 4, "adjoint", True),
    ("F", 4, "f2", True),
    ("C", 3, "f2", False),
], ids=lambda v: str(v))
def test_fraction_free_groebner_matches_rational_oracle(letter, rank, objective, zero_dim,
                                                        tmp_path):
    crit = critical(letter, rank, objective, tmp_path)
    gb = groebner(crit)
    assert gb == oracle.groebner(crit)
    # the fraction-free normal form rem / mult of every monomial of
    # degree <= 3 is the rational normal form, with mult in lowest terms
    basis = algsolve._basis_entries(gb)
    kernel = oracle.Kernel(gb.nvars)
    ref_basis = [(g.leading_monomial(), g.terms[g.leading_monomial()], g) for g in gb.gens]
    for mono in itertools.product(range(4), repeat=gb.nvars):
        if sum(mono) > 3:
            continue
        rem, mult = kernel.normal_form({mono: 1}, basis)
        assert math.gcd(mult, *rem.values()) == 1
        ref = oracle.normal_form(Poly(gb.nvars, {mono: qq(1)}), ref_basis)
        assert {m: qq(c, mult) for m, c in rem.items()} == ref.terms
    if not zero_dim:
        with pytest.raises(NotZeroDimensionalError):
            algsolve._Quotient(gb)
        return
    # each column of M_{x_i} = scale_i * N_i is the rational normal form
    # of x_i * b_j
    fast = algsolve._Quotient(gb)
    ref = oracle.Quotient(gb)
    assert fast.monomials == ref.monomials
    for var, (cols, scale) in enumerate(zip(fast.cols, fast.scales)):
        for j, col in enumerate(cols):
            assert {k: scale * c for k, c in col} == ref.mult_column(var, j)
    # tau(b_m) = Tr(M_{b_m}), the trace of the oracle's rational tensor:
    # the diagonal of b_m b_j over j
    tau, scale = fast.tau
    for m, mono in enumerate(ref.monomials):
        diag = QZERO
        for j in range(ref.dim):
            vec = {j: qq(1)}
            for var, e in enumerate(mono):
                for _ in range(e):
                    vec = ref.mult_apply(var, vec)
            diag += vec.get(j, QZERO)
        assert scale * tau[m] == diag


# the extrema, branch routes and su2 minima of the benchmark's solve and
# sweep request lists (perfbench/workloads.py); A3 adjoint and C3 f2 are
# not zero-dimensional and raise before any quotient
SOLVE = (("F", 4, "f1"), ("F", 4, "f2"), ("F", 4, "f3"), ("F", 4, "f4"),
         ("D", 4, "adjoint"), ("B", 4, "f2"), ("C", 4, "f3"))
SWEEP = (("A", 1, "adjoint"), ("A", 1, "f1"), ("A", 2, "adjoint"), ("A", 3, "f2"),
         ("B", 2, "adjoint"), ("B", 2, "f1"), ("B", 2, "f2"),
         ("B", 3, "adjoint"), ("B", 3, "f1"), ("B", 3, "f2"), ("B", 4, "f1"),
         ("C", 3, "f1"), ("C", 3, "f3"), ("C", 4, "f1"),
         ("G", 2, "adjoint"), ("G", 2, "f1"), ("G", 2, "f2"),
         ("D", 4, "adjoint"), ("D", 4, "f1"), ("D", 4, "f2"), ("D", 4, "f3"),
         ("D", 4, "f4"))


@pytest.mark.parametrize("workload", ["solve", "sweep"])
def test_benchmark_quotients_match_the_fraction_oracle(workload, monkeypatch, tmp_path):
    """Every quotient the requests build, fibres included, has the
    per-monomial columns, scales and tau; every characteristic polynomial
    from integer power sums, e(T) among them, is b^D times the rational
    one; and every RUR is the rational one."""
    built, setups, sums, rurs = [], [], [], []
    real_init, real_setup = algsolve._Quotient.__init__, algsolve._Quotient._setup
    real_sums, real_rur = algsolve._int_power_sums, algsolve.fglm_lex

    def init(self, basis_ideal):
        real_init(self, basis_ideal)
        built.append((basis_ideal, self))

    def setup(self, *args):
        real_setup(self, *args)
        setups.append(self)

    def power_sums(quot, poly, rows, full=0):
        out = real_sums(quot, poly, rows, full)
        sums.append((quot, poly, out))
        return out

    def rur(quot, form):
        out = real_rur(quot, form)
        rurs.append((quot, form, out))
        return out

    monkeypatch.setattr(algsolve._Quotient, "__init__", init)
    monkeypatch.setattr(algsolve._Quotient, "_setup", setup)
    monkeypatch.setattr(algsolve, "_int_power_sums", power_sums)
    monkeypatch.setattr(algsolve, "fglm_lex", rur)
    for letter, rank, objective in SOLVE if workload == "solve" else SWEEP:
        datum = build_root_datum(letter, rank)
        if objective == "adjoint":
            fp = adjoint_objective(datum)
        else:
            fp = FundamentalPolynomial(datum, Poly.variable(rank, int(objective[1:]) - 1))
        extremum(datum, fp, cache_dir=tmp_path)
    if workload == "sweep":
        for letter, rank in (("G", 2), ("B", 3)):
            branch.branch_minimize(branch.adjoint_problem(build_root_datum(letter, rank)))
        for d in range(1, 13):
            su2asym.su2_min(d)
    assert built and len(setups) > len(built) and sums and rurs
    for basis_ideal, quot in built:
        assert_same_as_normal_forms(basis_ideal, quot)
    for quot in filter(lambda q: q.dim, setups):
        assert quot.tau == oracle.monomial_tau(quot.monomials, quot.cols, quot.scales)
    for quot, poly, got in sums:
        assert_same_charpoly(quot, poly, got)
    for quot, form, got in rurs:
        assert got == oracle.rur(quot, form)
