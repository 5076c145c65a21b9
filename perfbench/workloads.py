"""The three workloads: their request lists, set-up and output checks.

A request is one call a user would make.  Set-up builds every input a
request needs (root data, objectives, branch problems, the run's private
derivation-matrix cache), so the timed call does only the request's own
work.  Checks run after the timed phase and compare each output with
the independent values in references.py.
"""

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import references as R

HERE = os.path.dirname(os.path.abspath(__file__))

# (letter, rank, objective); F4 f2 is about 90% of a pass
SOLVE = (
    ("F", 4, "f1"),
    ("F", 4, "f2"),
    ("F", 4, "f3"),
    ("F", 4, "f4"),
    ("D", 4, "adjoint"),
    ("B", 4, "f2"),
    ("C", 4, "f3"),
)

# the adjoint and each fundamental fixed by -w0; B3 f3 is left out
# because it fails for the same reason as the two known faults below
SWEEP_EXTREMA = (
    ("A", 1, "adjoint"), ("A", 1, "f1"),
    ("A", 2, "adjoint"),
    ("A", 3, "adjoint"), ("A", 3, "f2"),
    ("B", 2, "adjoint"), ("B", 2, "f1"), ("B", 2, "f2"),
    ("B", 3, "adjoint"), ("B", 3, "f1"), ("B", 3, "f2"),
    ("B", 4, "f1"),
    ("C", 3, "f1"), ("C", 3, "f2"), ("C", 3, "f3"),
    ("C", 4, "f1"),
    ("G", 2, "adjoint"), ("G", 2, "f1"), ("G", 2, "f2"),
    ("D", 4, "adjoint"), ("D", 4, "f1"), ("D", 4, "f2"), ("D", 4, "f3"),
    ("D", 4, "f4"),
)

# Requests that fail on every run today: the critical locus is not
# zero-dimensional, so solve_zero_dim raises.  They stay in the list,
# counted as failed, and are checked against their closed-form minima
# (-1 and -2) once they succeed.
KNOWN_FAULTS = {
    "extremum A3 adjoint": "NotZeroDimensionalError",
    "extremum C3 f2": "NotZeroDimensionalError",
}

SWEEP_BRANCH = (("G", 2), ("B", 3))
SWEEP_SU2_DEGREES = tuple(range(1, 13))
SWEEP_CORNERS = (("G", 2), ("B", 3), ("D", 4), ("E", 6))

# the three requests that share the F4 matrix: the first one in a pass
# computes it and writes the cache, the other two read it
COLD_CLI = (
    ("datum", "--type", "F4"),
    ("table",),
    ("corners", "--type", "G2"),
    ("matrix", "--type", "F4"),
    ("matrix", "--type", "F4"),
    ("minimize", "--type", "F4", "--objective", "f4"),
    ("minimize", "--type", "G2"),
    ("corners", "--type", "E8", "--columns", "8"),
    ("su2",),
)
COLD_F4_WRITER = 3
COLD_F4_READERS = (4, 5)
CHILD_TIMEOUT_S = 120


@dataclass
class Request:
    name: str
    call: object   # () -> result; the timed part
    check: object  # result -> list of problems found


class Context:
    """Where a run keeps its files, and the environment its children get."""

    def __init__(self, root, work):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        self.cache = os.path.join(work, "cache")
        self.traced_children = False
        self.pass_index = 0
        self.child_counters = []  # per-layer dicts written by traced children
        self.child_peak_kb = 0  # largest request child, by peak RSS
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = self.src
        self.env["CHARBOUNDS_CACHE"] = self.cache

    def pass_cache(self):
        return os.path.join(self.work, "cache-pass%d" % self.pass_index)


# ---------------------------------------------------------------------------
# helpers shared by the checks


def _poly_float(poly, point):
    total = 0j
    for mono, c in poly.terms.items():
        term = complex(float(c))
        for x, e in zip(point, mono):
            if e:
                term *= x ** e
        total += term
    return total


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _rational_of_json(v):
    """Exact value of a JSON AlgValue with a linear minimal polynomial."""
    mp = v["minpoly"]
    if len(mp) != 2:
        return None
    return Fraction(-mp[0], mp[1])


def _check_value(label, got_rational, expected):
    if got_rational is None or got_rational != expected:
        return ["%s is %s, expected %s" % (label, got_rational, expected)]
    return []


def _check_bounds_rows(rows):
    """Rows (letter, rank, s, lower, upper) of the simple-family table."""
    problems = []
    inner = set()
    for letter, rank, s, lo, hi in rows:
        dim = R.dimension(letter, rank, "adjoint")
        tag = "table %s%d s=%d" % (letter, rank, s)
        if s == 1:
            inner.add((letter, rank))
            problems += _check_value(tag + " min", lo, R.adjoint_minimum(letter, rank))
            problems += _check_value(tag + " max", hi, dim)
        elif not (lo < 0 < hi < dim):
            problems.append("%s: [%s, %s] not inside (-%d, %d)" % (tag, lo, hi, dim, dim))
    expected = {(l, n) for l in "ABCD" for n in range(1, 9)
                if (l == "A") or (l in "BC" and n >= 2) or (l == "D" and n >= 4)}
    expected |= {("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)}
    if inner != expected:
        problems.append("table types differ: %s" % sorted(inner ^ expected))
    return problems


def _f4_corner_points():
    return [tuple(Fraction(x) for x in v) for v in R.F4_CORNERS.values()]


# ---------------------------------------------------------------------------
# in-process requests


def _objective(cb, datum, objective):
    if objective == "adjoint":
        return cb.compactcert.adjoint_objective(datum)
    k = int(objective[1:]) - 1
    return cb.charring.FundamentalPolynomial(
        datum, cb.polynomials.Poly.variable(datum.rank, k)
    )


def _witness_point(witness):
    if hasattr(witness, "kac_coordinates"):
        return [complex(v.approx()) for v in witness.values]
    return [complex(x) for x in witness.approx()]


def _check_extremum(letter, rank, objective, fp, rep):
    problems = []
    lo, hi = rep.minimum, rep.maximum
    if lo.cmp(hi) > 0:
        problems.append("min > max")
    ref = R.reference_minimum(letter, rank, objective)
    if ref is None:
        mp = tuple(lo.minpoly)
        if mp not in (R.F4_F2_MINPOLY, tuple(-c for c in R.F4_F2_MINPOLY)) or not _close(
            lo.approx(), R.F4_F2_MINIMUM
        ):
            problems.append("min %s ~ %r, expected the negative root of 27x^2-196x-9604"
                            % (mp, lo.approx()))
    else:
        got = Fraction(str(lo.as_rational())) if lo.is_rational() else None
        problems += _check_value("min", got, ref)
    got = Fraction(str(hi.as_rational())) if hi.is_rational() else None
    problems += _check_value("max (the degree)", got, R.dimension(letter, rank, objective))
    for label, value, witness in (("min", lo, rep.min_witness), ("max", hi, rep.max_witness)):
        at = _poly_float(fp.poly, _witness_point(witness))
        if abs(at.imag) > 1e-9 or not _close(at.real, value.approx()):
            problems.append("%s witness gives %r, reported %r" % (label, at, value.approx()))
    return problems


def _extremum_request(cb, cache, letter, rank, objective):
    datum = cb.rootdata.build_root_datum(letter, rank)
    fp = _objective(cb, datum, objective)
    cb.invder.derivation_matrix(datum, cache_dir=cache)
    return Request(
        "extremum %s%d %s" % (letter, rank, objective),
        lambda: cb.compactcert.extremum(datum, fp, cache_dir=cache),
        lambda rep: _check_extremum(letter, rank, objective, fp, rep),
    )


def _branch_request(cb, letter, rank):
    problem = cb.branch.adjoint_problem(cb.rootdata.build_root_datum(letter, rank))

    def check(res):
        problems = _check_value(
            "branch min",
            Fraction(str(res.minimum.as_rational())) if res.minimum.is_rational() else None,
            R.adjoint_minimum(letter, rank),
        )
        point = [w.approx() for w in res.witness]
        if any(abs(t) > 2 + 1e-12 for t in point):
            problems.append("branch witness %r leaves the box" % (point,))
        at = _poly_float(problem.f.poly, point).real
        if not _close(at, res.minimum.approx()):
            problems.append("branch witness gives %r, reported %r" % (at, res.minimum.approx()))
        return problems

    return Request(
        "branch_minimize %s%d adjoint" % (letter, rank),
        lambda: cb.branch.branch_minimize(problem),
        check,
    )


def _su2_request(cb, d):
    def check(v):
        ref = R.su2_minimum(d)
        if not _close(v.approx(), ref):
            return ["su2 d=%d min %r, expected %r" % (d, v.approx(), ref)]
        return []

    return Request("su2_min %d" % d, lambda: cb.su2asym.su2_min(d), check)


def _corners_check(letter, rank, found):
    problems = []
    if len(found) != rank + 1:
        return ["%d corners, expected %d" % (len(found), rank + 1)]
    dims = [R.dimension(letter, rank, "f%d" % j) for j in range(1, rank + 1)]
    for i, c in enumerate(found):
        if tuple(c.kac_coordinates) != tuple(int(j == i) for j in range(rank + 1)):
            problems.append("corner %d has Kac coordinates %s" % (i, c.kac_coordinates))
        for v, dim in zip(c.values, dims):
            if abs(complex(v.approx())) > dim + 1e-9:
                problems.append("corner %d value %r exceeds the degree %d" % (i, v.approx(), dim))
    identity = [Fraction(str(v.as_rational())) for v in found[0].values]
    if identity != dims:
        problems.append("identity corner %s, expected the degrees %s" % (identity, dims))
    if (letter, rank) == ("G", 2):
        got = {tuple(int(v.as_rational()) for v in c.values) for c in found}
        if got != R.G2_CORNERS:
            problems.append("G2 corners %s" % sorted(got))
    return problems


def _corners_request(cb, letter, rank):
    datum = cb.rootdata.build_root_datum(letter, rank)
    return Request(
        "corners %s%d" % (letter, rank),
        lambda: cb.rootdata.corners(datum),
        lambda found: _corners_check(letter, rank, found),
    )


def _closedform_requests(cb):
    def bounds_check(entries):
        rows = [(e.letter, e.rank, e.s, Fraction(str(e.lower)), Fraction(str(e.upper)))
                for e in entries]
        return _check_bounds_rows(rows)

    short_types = [("B", n) for n in range(2, 9)] + [("C", n) for n in range(2, 9)]
    short_types += [("F", 4), ("G", 2)]

    def short_check(rows):
        problems = []
        for (letter, rank), (lo, dim) in zip(short_types, rows):
            tag = "short-root %s%d" % (letter, rank)
            problems += _check_value(tag + " min", Fraction(str(lo)), R.short_root_minimum(letter, rank))
            fund = "f%d" % R.SHORT_ROOT_WEIGHT[letter]
            problems += _check_value(tag + " degree", dim, R.dimension(letter, rank, fund))
        return problems

    return [
        Request("closedform bounds_table", lambda: cb.closedform.bounds_table(max_rank=8),
                bounds_check),
        Request("closedform short_root_min",
                lambda: [cb.closedform.short_root_min(l, n) for l, n in short_types],
                short_check),
    ]


def _check_g2_matrix(cb, cache):
    m = cb.invder.derivation_matrix(cb.rootdata.build_root_datum("G", 2), cache_dir=cache)
    problems = []
    for (i, j), terms in R.G2_MATRIX.items():
        got = {tuple(k): Fraction(str(c)) for k, c in m.entry(i, j).terms.items()}
        if got != {k: Fraction(c) for k, c in terms.items()}:
            problems.append("G2 matrix entry (%d, %d) differs from the worked example"
                            % (i + 1, j + 1))
    return problems


# ---------------------------------------------------------------------------
# cold-cli: one process per request


def _wait_child(proc):
    """Reap the child with its resource usage; kill it after the timeout."""
    box = []
    waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(CHILD_TIMEOUT_S)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _cli_call(ctx, args, index):
    def call():
        cache = ctx.pass_cache()
        argv = list(args) + ["--format", "json", "--cache", cache]
        out = os.path.join(ctx.work, "child-%d.out" % index)
        err = os.path.join(ctx.work, "child-%d.err" % index)
        trace_out = os.path.join(ctx.work, "child-%d.trace" % index)
        if ctx.traced_children:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_out] + argv
        else:
            cmd = [sys.executable, "-m", "charbounds.cli"] + argv
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=ctx.env, cwd=ctx.root)
            status, usage = _wait_child(proc)
        ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
        with open(out) as fh:
            text = fh.read()
        if status != 0:
            with open(err) as fh:
                raise RuntimeError("exit %d: %s" % (status, fh.read().strip()[-300:]))
        if ctx.traced_children:
            with open(trace_out) as fh:
                ctx.child_counters.append(json.load(fh))
        return json.loads(text)

    return call


def _cold_check(index, doc):
    cmd = COLD_CLI[index]
    if cmd[0] == "datum":
        d, rs = doc["datum"], R.root_system("F", 4)
        want = {"dim": R.dimension("F", 4, "adjoint"), "rank": 4,
                "weyl_order": R.WEYL_ORDER[("F", 4)], "positive_roots": len(rs.positive)}
        got = {"dim": d["dim"], "rank": d["rank"], "weyl_order": d.get("weyl_order"),
               "positive_roots": len(d["positive_roots"])}
        return [] if got == want else ["datum F4 %s, expected %s" % (got, want)]
    if cmd[0] == "table":
        rows = []
        for r in doc["rows"]:
            letter, rank = r["type"][0], int(r["type"][1:])
            rows.append((letter, rank, r["s"], Fraction(r["min"]), Fraction(r["max"])))
        return _check_bounds_rows(rows)
    if cmd[0] == "corners" and cmd[2] == "G2":
        got = {tuple(int(Fraction(v)) for v in c["values"]) for c in doc["corners"]}
        return [] if got == R.G2_CORNERS else ["G2 corners %s" % sorted(got)]
    if cmd[0] == "corners":
        got = sorted(int(Fraction(c["values"][0])) for c in doc["corners"])
        return [] if got == R.E8_ADJOINT_COLUMN else ["E8 column %s" % got]
    if cmd[0] == "matrix":
        problems = []
        if doc["cache_hit"] != (index in COLD_F4_READERS):
            problems.append("cache_hit %s on request %d" % (doc["cache_hit"], index))
        for i, j, terms in doc["matrix"]["entries"]:
            for point in _f4_corner_points():
                v = Fraction(0)
                for mono, c in terms:
                    t = Fraction(c)
                    for x, e in zip(point, mono):
                        t *= x ** e
                    v += t
                if v:
                    problems.append("M[%d,%d] = %s at F4 corner %s" % (i, j, v, point))
        return problems
    if cmd[0] == "minimize":
        letter, rank = cmd[2][0], int(cmd[2][1:])
        objective = cmd[4] if len(cmd) > 4 else "adjoint"
        rep = doc["report"]
        problems = _check_value("min", _rational_of_json(rep["minimum"]),
                                R.reference_minimum(letter, rank, objective))
        problems += _check_value("max", _rational_of_json(rep["maximum"]),
                                 R.dimension(letter, rank, objective))
        wit = rep["min_witness"]
        if wit["kind"] == "corner":
            at = [c["decimal"] for c in rep["corners"]
                  if c["kac_coordinates"] == wit["kac_coordinates"]]
            if at != [rep["minimum"]["decimal"]]:
                problems.append("min witness value %s, reported %s"
                                % (at, rep["minimum"]["decimal"]))
        return problems
    # su2
    problems = []
    for row in doc["rows"]:
        if not _close(row["min"], R.su2_minimum(row["d"])):
            problems.append("su2 d=%d min %r" % (row["d"], row["min"]))
    if [r["d"] for r in doc["rows"]] != list(range(1, 13)):
        problems.append("su2 degrees %s" % [r["d"] for r in doc["rows"]])
    if not (_close(doc["theta0"], R.LIMIT_THETA0) and _close(doc["limit_constant"], R.LIMIT_CONSTANT)):
        problems.append("limit constant %r at %r" % (doc["limit_constant"], doc["theta0"]))
    return problems


def cold_order(rng):
    """A seeded order in which the first F4 request is the cache writer."""
    order = list(range(len(COLD_CLI)))
    rng.shuffle(order)
    shared = (COLD_F4_WRITER,) + COLD_F4_READERS
    slots = [k for k, i in enumerate(order) if i in shared]
    readers = [i for i in order if i in COLD_F4_READERS]
    for k, i in zip(slots, (COLD_F4_WRITER,) + tuple(readers)):
        order[k] = i
    return order


# ---------------------------------------------------------------------------
# set-up


def setup(workload, ctx):
    """Build the workload's requests; everything here is set-up time."""
    if workload == "cold-cli":
        # one start-up so the children find compiled bytecode, as installed code does
        subprocess.run([sys.executable, "-c", "import charbounds.cli"],
                       env=ctx.env, cwd=ctx.root, check=True, timeout=CHILD_TIMEOUT_S)
        return [Request(" ".join(args), _cli_call(ctx, args, i),
                        lambda doc, i=i: _cold_check(i, doc))
                for i, args in enumerate(COLD_CLI)]

    import sympy  # noqa: F401  -- compactcert imports it on first use

    import charbounds.branch
    import charbounds.charring
    import charbounds.closedform
    import charbounds.compactcert
    import charbounds.invder
    import charbounds.polynomials
    import charbounds.rootdata
    import charbounds.su2asym

    cb = sys.modules["charbounds"]
    if workload == "solve":
        return [_extremum_request(cb, ctx.cache, *spec) for spec in SOLVE]
    if workload != "sweep":
        raise ValueError("unknown workload %r" % workload)
    requests = [_extremum_request(cb, ctx.cache, *spec) for spec in SWEEP_EXTREMA]
    requests += [_branch_request(cb, *t) for t in SWEEP_BRANCH]
    requests += [_su2_request(cb, d) for d in SWEEP_SU2_DEGREES]
    requests += _closedform_requests(cb)
    requests += [_corners_request(cb, *t) for t in SWEEP_CORNERS]
    return requests


def setup_checks(workload, ctx):
    """Checks on what set-up built, run once per run outside the timed phase."""
    if workload == "sweep":
        return _check_g2_matrix(sys.modules["charbounds"], ctx.cache)
    return []
