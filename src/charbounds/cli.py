"""Command-line surface: datum facts, corner tables, extrema, reports.

Everything here is presentation and plumbing; the mathematics lives in
the library modules.  Each command builds one Output, its values each
formatted once, and _emit prints it as text, CSV or JSON.  Output is
deterministic for a fixed configuration
and cache state: JSON is emitted with sorted keys, CSV with a header
row and fixed line endings, and the derivation-matrix cache is keyed by
datum content hash (directory from --cache or CHARBOUNDS_CACHE).

Exit codes: 0 ok, 2 infeasible or over a cap, 3 undecided numerical or
sign result, 4 usage, 5 critical locus not zero-dimensional.
"""

import argparse
import cmath
import csv
import io
import json
import math
import re
import sys
from typing import NamedTuple

from . import branch, closedform
from .algsolve import (
    DEFAULT_PAIR_CAP,
    NotZeroDimensionalError,
    SolveError,
    UndecidedSignError,
)
from .charring import (
    DEFAULT_ORBIT_CAP,
    FundamentalPolynomial,
    OrbitCapError,
)
from .compactcert import NonRealObjectiveError, adjoint_objective, extremum
from .invder import DEFAULT_RANK_CAP, derivation_matrix, is_cached
from .polynomials import Poly, qq, qq_str
from .rootdata import (
    EnumerationCapError,
    build_root_datum,
    corners,
    weyl_min_trace,
)
from .su2asym import (
    DEFAULT_WEYL_CAP,
    ConditioningError,
    chebyshev_character,
    eval_X,
    limit_constant,
    su2_min,
)

JSON_VERSION = "charbounds/2"

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNDECIDED = 3
EXIT_USAGE = 4
EXIT_NOT_ZERO_DIM = 5


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# parsing helpers; the argparse type= callables raise UsageError directly


def _parse_type(text):
    m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", text or "")
    if not m:
        raise UsageError(
            "--type wants a letter and rank like G2 or D5, got %r" % text
        )
    try:
        return build_root_datum(m.group(1).upper(), int(m.group(2)))
    except ValueError as e:
        raise UsageError(str(e))


def _parse_columns(text):
    if not text:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError("--columns wants integers like 1,2,8")


def _positive_int(message):
    def parse(text):
        value = int(text)
        if value < 1:
            raise UsageError(message)
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _coefficient(text):
    try:
        return qq(text)
    except ZeroDivisionError:
        raise UsageError("objective coefficient %s divides by zero" % text)


def parse_objective(datum, text):
    """Linear combinations 'c1*f1 + c2*f2 - f3' plus the word 'adjoint'."""
    s = (text or "").replace(" ", "")
    if not s:
        raise UsageError("empty objective")
    if s == "adjoint":
        return adjoint_objective(datum)
    if s[0] not in "+-":
        s = "+" + s
    pieces = re.findall(r"[+-][^+-]+", s)
    if "".join(pieces) != s:
        raise UsageError("cannot parse objective %r" % text)
    r = datum.rank
    terms = {}
    for piece in pieces:
        sign = 1 if piece[0] == "+" else -1
        body = piece[1:]
        m = re.fullmatch(r"(?:(\d+(?:/\d+)?)\*)?f(\d+)", body)
        if m:
            coeff = _coefficient(m.group(1)) if m.group(1) else 1
            k = int(m.group(2))
            if not 1 <= k <= r:
                raise UsageError(
                    "objective uses f%d but the rank is %d" % (k, r)
                )
            mono = tuple(1 if i == k - 1 else 0 for i in range(r))
        elif re.fullmatch(r"\d+(?:/\d+)?", body):
            coeff = _coefficient(body)
            mono = (0,) * r
        else:
            raise UsageError("cannot parse objective term %r" % piece)
        terms[mono] = terms.get(mono, 0) + sign * coeff
    return FundamentalPolynomial(datum, Poly(r, terms))


def _parse_pins(text, n):
    pins = {}
    if not text:
        return pins
    for part in text.split(","):
        m = re.fullmatch(r"\s*(\d+)\s*=\s*(-?2)\s*", part)
        if not m:
            raise UsageError(
                "pins look like '1=2,3=-2' (1-based variables), got %r" % part
            )
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise UsageError("pin variable %d out of range 1..%d" % (i, n))
        if i - 1 in pins:
            raise UsageError("pin variable %d given twice" % i)
        pins[i - 1] = int(m.group(2))
    return pins


def _parse_vector(text, rank, flag):
    try:
        items = tuple(complex(tok) for tok in (text or "").split(","))
    except ValueError:
        raise UsageError("%s wants comma-separated numbers, got %r" % (flag, text))
    if not all(map(cmath.isfinite, items)):
        raise UsageError("%s wants finite numbers, got %r" % (flag, text))
    if len(items) != rank:
        raise UsageError("%s needs %d entries" % (flag, rank))
    return items


# ---------------------------------------------------------------------------
# rendering helpers


def _fmt_float(x, precision):
    return "%.*g" % (precision, x)


def _fmt_alg(v, precision):
    """Exact when rational, decimal plus defining equation otherwise."""
    if v.is_rational():
        return qq_str(v.as_rational())
    return "%s (root of %s = 0)" % (
        _fmt_float(v.approx(), precision),
        _poly_eq(v.minpoly),
    )


def _poly_eq(minpoly):
    parts = []
    for e in range(len(minpoly) - 1, -1, -1):
        c = minpoly[e]
        if not c:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            var = "v" if e == 1 else "v^%d" % e
            body = var if abs(c) == 1 else "%d*%s" % (abs(c), var)
        parts.append(("- " if c < 0 else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _fmt_cyc(v, z, precision):
    """The cyclotomic number v exact when rational, else z = v.approx(),
    the nearest doubles of its parts."""
    if v.is_rational():
        return qq_str(v.as_rational())
    if v.is_real():
        return _fmt_float(z.real, precision)
    return _fmt_complex(z, precision)


def _fmt_complex(z, precision):
    sign = "-" if z.imag < 0 else "+"
    return "%s%s%si" % (
        _fmt_float(z.real, precision),
        sign,
        _fmt_float(abs(z.imag), precision),
    )


def _witness_text(w, precision):
    if hasattr(w, "kac_coordinates"):
        return "corner (%s)" % ", ".join(
            _fmt_cyc(v, v.approx(), precision) for v in w.values
        )
    coords = ", ".join(_fmt_float(x, precision) for x in w.approx())
    return "critical point (%s)" % coords


class Output(NamedTuple):
    """One command's result, from which _emit prints any format: the JSON
    payload (library objects are serialised there through their to_json),
    the CSV header and rows, and the text lines."""

    payload: dict
    header: list
    rows: list
    lines: list
    status: int = EXIT_OK


def _emit(args, out):
    """The one format dispatch."""
    if args.format == "json":
        doc = {"version": JSON_VERSION, "command": args.command, **out.payload}
        return json.dumps(doc, sort_keys=True, indent=2,
                          default=lambda o: o.to_json()) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows)
        return buf.getvalue()
    return "".join(line + "\n" for line in out.lines)


# ---------------------------------------------------------------------------
# command handlers; each returns its Output


def _cmd_datum(args):
    d = args.datum
    facts = [
        ("type", d.name()),
        ("rank", d.rank),
        ("dimension", d.dim),
        ("weyl_order", d.weyl_order),
        ("positive_roots", len(d.positive_roots)),
        ("fundamental_group", d.fundamental_group_order),
        ("minus_one_in_weyl", d.minus_one_in_weyl()),
        ("highest_root", "(%s)" % ", ".join(str(x) for x in d.highest_root)),
    ]
    return Output({"datum": d}, ["fact", "value"], facts,
                  ["%s: %s" % fact for fact in facts])


def _cmd_corners(args):
    d = args.datum
    cols = args.columns or tuple(range(1, d.rank + 1))
    if any(j < 1 or j > d.rank for j in cols):
        raise UsageError("--columns must lie between 1 and %d" % d.rank)
    try:
        found = corners(d, columns=cols)
    except OrbitCapError as e:
        raise OrbitCapError("%s; pass --columns J1,J2,... to evaluate only "
                            "those fundamental characters" % e) from e
    # each value's parts once: exact parts cost far more than formatting
    approx = [[(v, v.approx()) for v in c.values] for c in found]
    payload = {
        "type": d.name(),
        "columns": list(cols),
        "corners": [
            {
                "kac_coordinates": list(c.kac_coordinates),
                "order": c.order,
                "values": [_fmt_cyc(v, z, 17) for v, z in values],
                "decimals": [[z.real, z.imag] for _, z in values],
            }
            for c, values in zip(found, approx)
        ],
    }
    rows = [
        ["".join(str(x) for x in c.kac_coordinates), c.order]
        + [_fmt_cyc(v, z, args.precision) for v, z in values]
        for c, values in zip(found, approx)
    ]
    lines = ["corner %s (order %s): %s" % (row[0], row[1], ", ".join(row[2:]))
             for row in rows]
    return Output(payload, ["kac", "order"] + ["f%d" % j for j in cols], rows, lines)


def _cmd_matrix(args):
    m = derivation_matrix(
        args.datum,
        cache_dir=args.cache,
        rank_cap=args.rank_cap,
        allow_large=args.long_running,
    )
    r = args.datum.rank
    rows = [
        (i + 1, j + 1, m.entry(i, j).to_str())
        for i in range(r)
        for j in range(i, r)
    ]
    lines = ["cache: %s" % ("hit" if m.cache_hit else "computed")]
    lines += ["M[%d,%d] = %s" % row for row in rows]
    return Output({"cache_hit": m.cache_hit, "matrix": m}, ["i", "j", "entry"],
                  rows, lines)


def _cmd_extremize(args):
    maximize = args.command == "maximize"
    objective = parse_objective(args.datum, args.objective)
    report = extremum(
        args.datum,
        objective,
        cache_dir=args.cache,
        rank_cap=args.rank_cap,
        allow_large=args.long_running,
        pair_cap=args.pair_cap,
        expand_cap=args.orbit_cap,
    )
    value = report.maximum if maximize else report.minimum
    witness = report.max_witness if maximize else report.min_witness
    tag = "max" if maximize else "min"
    text = _fmt_alg(value, args.precision)
    at = _witness_text(witness, args.precision)
    row = (objective.to_str(), text, _fmt_float(value.approx(), args.precision), at)
    return Output({"report": report}, ["objective", tag, "decimal", "witness"],
                  [row], ["%s = %s at %s" % (tag, text, at)])


def _cmd_branch_minimize(args):
    pins = _parse_pins(args.pins, args.datum.rank)
    try:
        problem = branch.adjoint_problem(args.datum, pins=pins, cap=args.orbit_cap)
        result = branch.branch_minimize(problem, pair_cap=args.pair_cap)
    except ValueError as e:
        # too many free variables without pins, or too few orthogonal roots
        # for the A1^rank subgroup, is a feasibility refusal
        raise EnumerationCapError(str(e))
    text = _fmt_alg(result.minimum, args.precision)
    at = ", ".join(_fmt_alg(w, args.precision) for w in result.witness)
    return Output({"result": result}, ["polynomial", "min", "witness"],
                  [(problem.f.to_str(), text, at)],
                  ["min = %s at t = (%s)" % (text, at)])


def _cmd_table(args):
    if args.family == "short-root":
        header = ["type", "minimum", "dimension"]
        types = [(letter, n) for letter in "BC" for n in range(2, args.max_rank + 1)]
        types += [(letter, n) for letter, n in (("F", 4), ("G", 2)) if n <= args.max_rank]
        rows = []
        for letter, n in types:
            low, dim = closedform.short_root_min(letter, n)
            rows.append(("%s%d" % (letter, n), qq_str(low), dim))
        return Output(
            {"family": "short-root", "rows": [dict(zip(header, r)) for r in rows]},
            header, rows,
            ["%s: min = %s on the %s-dimensional representation" % r for r in rows],
        )
    entries = closedform.bounds_table(max_rank=args.max_rank)
    rows = [
        ("%s%d" % (e.letter, e.rank), e.s, str(e.lower), str(e.upper), e.provenance)
        for e in entries
    ]
    return Output({"family": "simple", "rows": entries},
                  ["type", "component", "lower", "upper", "provenance"], rows,
                  ["%s s=%s: [%s, %s] (%s)" % r for r in rows])


def _cmd_su2(args):
    degrees = (
        [args.degree] if args.degree is not None else list(range(1, args.max_degree + 1))
    )
    rows = []
    for d in degrees:
        m = su2_min(d)
        dec = m.approx()
        rows.append(
            {
                "d": d,
                "minpoly": list(m.minpoly),
                "exact": (
                    qq_str(m.as_rational())
                    if m.is_rational()
                    else "root of %s = 0" % _poly_eq(m.minpoly)
                ),
                "min": dec,
                "ratio": dec / (d + 1),
            }
        )
    c, theta0 = limit_constant()
    p = args.precision
    lines = ["d=%d: min = %s, min/(d+1) = %s"
             % (r["d"], r["exact"], _fmt_float(r["ratio"], p)) for r in rows]
    lines.append("limit: min/(d+1) -> -c = %s (theta0 = %s)"
                 % (_fmt_float(-c, p), _fmt_float(theta0, p)))
    return Output(
        {"rows": rows, "limit_constant": c, "theta0": theta0},
        ["d", "min", "ratio", "exact"],
        [(r["d"], _fmt_float(r["min"], p), _fmt_float(r["ratio"], p), r["exact"])
         for r in rows],
        lines,
    )


def _cmd_xfun(args):
    rank = args.datum.rank
    s_vec = _parse_vector(args.s, rank, "--s")
    t_vec = _parse_vector(args.t, rank, "--t")
    cap = 10_000_000 if args.long_running else DEFAULT_WEYL_CAP
    ev = eval_X(args.datum, s_vec, t_vec, cap=cap)
    line = "X(s, t) = %s  [%s]" % (_fmt_complex(ev.value, args.precision), ev.method)
    if ev.error:
        line += "  error<=%.1e" % ev.error
    return Output({"evaluation": ev}, ["re", "im", "method", "error"],
                  [(ev.value.real, ev.value.imag, ev.method, ev.error)], [line])


def _selfcheck_battery(args):
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    g2 = build_root_datum("G", 2)

    def g2_corner_set():
        got = {
            tuple(v.as_rational() for v in c.values)
            for c in corners(g2)
        }
        return got == {(7, 14), (-2, 5), (-1, -2)}

    check("G2 corner values", g2_corner_set)

    def g2_extremum():
        rep = extremum(g2, adjoint_objective(g2), cache_dir=args.cache)
        return (
            rep.minimum.is_rational()
            and rep.minimum.as_rational() == -2
            and rep.maximum.as_rational() == 14
        )

    check("G2 adjoint extremum", g2_extremum)

    def g2_branch():
        res = branch.branch_minimize(branch.adjoint_problem(g2))
        return res.minimum.is_rational() and res.minimum.as_rational() == -2

    check("G2 branch oracle", g2_branch)

    check("G2 Weyl trace bound", lambda: weyl_min_trace(g2) == -2)

    check(
        "SU(2) degree-6 minimum",
        lambda: su2_min(6).minpoly == (-49, 14, 27),
    )

    def constant_ok():
        c, theta0 = limit_constant()
        return abs(c - 0.2172) < 1e-4 and abs(theta0 - 4.493) < 1e-3

    check("limit constant", constant_ok)

    check(
        "closed-form rows",
        lambda: closedform.trace_bounds("E", 6, 2).bounds() == (-6, 26)
        and closedform.short_root_min("C", 4) == (-5, 27),
    )

    def x_identities():
        a1 = build_root_datum("A", 1)
        v = eval_X(a1, (1,), (2j,)).value
        if abs(v - math.sin(2.0) / 2.0) > 1e-12:
            return False
        a2 = build_root_datum("A", 2)
        s, t = (0.7 + 0.2j, 1.3), (0.4, -1.1 + 0.5j)
        return (
            abs(eval_X(a2, s, t).value - eval_X(a2, t, s).value) < 1e-9
        )

    check("X identities", x_identities)

    def zeros_bracket():
        ch = chebyshev_character(8)
        eps = qq(1, 10**10)
        for z in ch.zeros():
            if ch.evaluate(qq(z) - eps) * ch.evaluate(qq(z) + eps) >= 0:
                return False
        return True

    check("Chebyshev zero brackets", zeros_bracket)

    def deterministic():
        argv = ["corners", "--type", "G2", "--format", "csv"]
        return run(build_parser().parse_args(argv)) == run(build_parser().parse_args(argv))

    check("deterministic emission", deterministic)

    e7 = build_root_datum("E", 7)
    if is_cached(e7, args.cache):  # a cold E7 matrix takes seconds

        def e7_extremum():
            rep = extremum(e7, adjoint_objective(e7), cache_dir=args.cache,
                           allow_large=True)
            return ((rep.minimum.as_rational(), rep.maximum.as_rational())
                    == closedform.trace_bounds("E", 7).bounds())

        check("E7 adjoint extremum against the table", e7_extremum)

    return checks


def _cmd_selfcheck(args):
    results = []
    for name, fn in _selfcheck_battery(args):
        try:
            ok = bool(fn())
        except Exception as e:  # a broken check is a failed check
            ok = False
            name = "%s (%s)" % (name, e)
        results.append({"check": name, "ok": ok})
    failures = sum(not r["ok"] for r in results)
    lines = ["%s - %s" % ("ok" if r["ok"] else "FAIL", r["check"]) for r in results]
    lines.append(
        "selfcheck %s (%d checks, %d failures)"
        % ("passed" if not failures else "FAILED", len(results), failures)
    )
    return Output({"results": results, "failures": failures}, ["check", "ok"],
                  [(r["check"], r["ok"]) for r in results], lines,
                  1 if failures else EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def option_named(self, token):
        """The option argparse reads token as: itself, or the one long
        option it abbreviates; None for an unknown or ambiguous token."""
        names = self._option_string_actions
        if token in names:
            return token
        hits = [n for n in names if token.startswith("--") and n.startswith(token)]
        return hits[0] if len(hits) == 1 else None


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--cache", default=None, metavar="DIR")
    common.add_argument(
        "--precision", type=_positive_int("precision must be at least 1"), default=6
    )
    common.add_argument(
        "--rank-cap", type=_positive_int("rank_cap must be positive"),
        default=DEFAULT_RANK_CAP,
    )
    common.add_argument(
        "--orbit-cap",
        type=_positive_int("orbit_cap must be positive"),
        default=DEFAULT_ORBIT_CAP,
    )
    common.add_argument(
        "--pair-cap", type=_positive_int("pair_cap must be positive"),
        default=DEFAULT_PAIR_CAP,
    )
    common.add_argument("--long-running", action="store_true")

    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument(
        "--type", dest="datum", type=_parse_type, required=True, metavar="LETTER+RANK"
    )

    p = _Parser(prog="charbounds", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datum", parents=[common, typed]).set_defaults(handler=_cmd_datum)
    c = sub.add_parser("corners", parents=[common, typed])
    c.add_argument("--columns", type=_parse_columns, default=None, metavar="J1,J2,...")
    c.set_defaults(handler=_cmd_corners)
    sub.add_parser("matrix", parents=[common, typed]).set_defaults(handler=_cmd_matrix)
    for name in ("minimize", "maximize"):
        m = sub.add_parser(name, parents=[common, typed])
        m.add_argument("--objective", default="adjoint")
        m.set_defaults(handler=_cmd_extremize)
    b = sub.add_parser("branch-minimize", parents=[common, typed])
    b.add_argument("--pins", default="", metavar="I=V,...")
    b.set_defaults(handler=_cmd_branch_minimize)
    t = sub.add_parser("table", parents=[common])
    t.add_argument("--family", choices=("simple", "short-root"), default="simple")
    t.add_argument(
        "--max-rank", type=_positive_int("max_rank must be positive"), default=8
    )
    t.set_defaults(handler=_cmd_table)
    s = sub.add_parser("su2", parents=[common])
    s.add_argument(
        "--max-degree", type=_positive_int("max_degree must be positive"), default=12
    )
    s.add_argument(
        "--degree", type=_positive_int("degrees must be positive"), default=None
    )
    s.set_defaults(handler=_cmd_su2)
    x = sub.add_parser("xfun", parents=[common, typed])
    x.add_argument("--s", required=True, metavar="A1,A2,...")
    x.add_argument("--t", required=True, metavar="B1,B2,...")
    x.set_defaults(handler=_cmd_xfun)
    sub.add_parser("selfcheck", parents=[common]).set_defaults(handler=_cmd_selfcheck)
    p.commands = sub.choices
    return p


def run(args):
    """Dispatch parsed arguments; returns (exit_status, report text)."""
    try:
        out = args.handler(args)
        return out.status, _emit(args, out)
    except (UsageError, NonRealObjectiveError) as e:
        return EXIT_USAGE, "usage error: %s\n" % e
    except (UndecidedSignError, ConditioningError) as e:
        return EXIT_UNDECIDED, "undecided: %s\n" % e
    except NotZeroDimensionalError as e:
        return EXIT_NOT_ZERO_DIM, "not zero-dimensional: %s\n" % e
    except (
        EnumerationCapError,
        OrbitCapError,
        SolveError,
        OverflowError,
    ) as e:
        return EXIT_INFEASIBLE, "infeasible: %s\n" % e


def _join_signed_values(argv, parser):
    """--objective -f2 as --objective=-f2, and the same for --s and --t,
    spelt out or abbreviated as the command's parser resolves them:
    argparse would take a value that starts with one minus for an option."""
    command = None
    out = []
    for a in argv:
        if (command is not None and a.startswith("-") and not a.startswith("--")
                and command.option_named(out[-1]) in ("--objective", "--s", "--t")):
            out[-1] += "=" + a
        else:
            if command is None:
                command = parser.commands.get(a)
            out.append(a)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        args = parser.parse_args(_join_signed_values(argv, parser))
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    status, text = run(args)
    stream = sys.stdout if status == EXIT_OK else sys.stderr
    stream.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
