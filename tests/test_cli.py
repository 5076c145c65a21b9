"""End-to-end checks of the command-line surface and its exit codes."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from charbounds import algsolve, branch, charring, cli, compactcert, invder
from charbounds.algsolve import sturm_chain, sturm_count
from charbounds.compactcert import adjoint_objective
from charbounds.polynomials import qq
from charbounds.rootdata import build_root_datum, corners


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cap_defaults_are_one_constant_each():
    # a library call and a CLI call must read the same caps
    args = cli.build_parser().parse_args(["minimize", "--type", "G2"])
    assert args.rank_cap == invder.DEFAULT_RANK_CAP
    assert args.orbit_cap == charring.DEFAULT_ORBIT_CAP
    assert args.pair_cap == algsolve.DEFAULT_PAIR_CAP
    defaults = [
        (invder.DEFAULT_RANK_CAP, compactcert.extremum, "rank_cap"),
        (invder.DEFAULT_RANK_CAP, invder.derivation_matrix, "rank_cap"),
        (charring.DEFAULT_ORBIT_CAP, compactcert.extremum, "expand_cap"),
        (charring.DEFAULT_ORBIT_CAP, branch.adjoint_problem, "cap"),
        (charring.DEFAULT_ORBIT_CAP, charring.expand, "cap"),
        (charring.DEFAULT_ORBIT_CAP, charring.multiply, "cap"),
        (charring.DEFAULT_ORBIT_CAP, charring.restrict_to_A1n, "cap"),
        (algsolve.DEFAULT_PAIR_CAP, compactcert.extremum, "pair_cap"),
        (algsolve.DEFAULT_PAIR_CAP, branch.branch_minimize, "pair_cap"),
        (algsolve.DEFAULT_PAIR_CAP, algsolve.groebner, "pair_cap"),
        (algsolve.DEFAULT_PAIR_CAP, algsolve.eliminant, "pair_cap"),
        (algsolve.DEFAULT_PAIR_CAP, algsolve.solve_zero_dim, "pair_cap"),
    ]
    for value, fn, name in defaults:
        assert inspect.signature(fn).parameters[name].default == value, fn


def test_short_root_table_has_one_row_per_type(capsys):
    code, out, _ = run_main(capsys, "table", "--family", "short-root", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "type,minimum,dimension"
    # B2..B8 and C2..C8 at the default --max-rank 8, then F4 and G2
    assert len(lines) == 1 + 7 + 7 + 2
    assert "F4,-6,26" in lines
    assert "G2,-2,7" in lines
    assert "B5,-9,11" in lines and "C4,-5,27" in lines
    code, out, _ = run_main(capsys, "table", "--family", "short-root",
                            "--max-rank", "3", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1:] == ["B2,-3,5", "B3,-5,7", "C2,-3,5",
                                           "C3,-2,14", "G2,-2,7"]


def test_f4_corner_csv_shape(capsys, tmp_path):
    code, out, _ = run_main(
        capsys, "corners", "--type", "F4", "--format", "csv",
        "--cache", str(tmp_path),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kac,order,f1,f2,f3,f4"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    assert all(len(r) == 6 for r in rows)
    assert rows[0] == ["10000", "1", "52", "1274", "273", "26"]
    # adjoint column, all five conjugacy classes
    assert sorted(r[2] for r in rows) == ["-2", "-4", "0", "20", "52"]


@pytest.mark.parametrize("letter, rank", [
    ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 5), ("E", 6),
])
def test_corner_decimals_are_the_nearest_doubles_of_the_exact_parts(capsys, letter, rank):
    # sympy is the independent oracle: Re and Im of sum_k c_k e^(2 pi i k/m) / den
    sympy = pytest.importorskip("sympy")
    name = "%s%d" % (letter, rank)
    code, out, _ = run_main(capsys, "corners", "--type", name, "--format", "json")
    assert code == 0
    printed = json.loads(out)["corners"]
    found = corners(build_root_datum(letter, rank))
    assert [c["kac_coordinates"] for c in printed] == [list(c.kac_coordinates) for c in found]
    for c, doc in zip(found, printed):
        for v, pair in zip(c.values, doc["decimals"]):
            m = v.field.m
            z = sum(sympy.Rational(a, v.den) * sympy.exp(2 * sympy.pi * sympy.I * k / m)
                    for k, a in enumerate(v.vec))
            assert pair == [float(sympy.N(sympy.re(z), 50)), float(sympy.N(sympy.im(z), 50))]
    # no rounding residue of a zero part, at any precision
    code, out, _ = run_main(capsys, "corners", "--type", name, "--precision", "17")
    assert code == 0 and not re.search(r"e-1[0-9]", out)


def test_corner_text_cells_are_the_json_decimals(capsys):
    code, text, _ = run_main(capsys, "corners", "--type", "D5")
    assert code == 0
    code, out, _ = run_main(capsys, "corners", "--type", "D5", "--format", "json")
    assert code == 0
    lines = []
    for c in json.loads(out)["corners"]:
        cells = []
        for re_part, im_part in c["decimals"]:
            cell = "%.6g" % re_part
            if im_part:
                cell += "%s%.6gi" % ("-" if im_part < 0 else "+", abs(im_part))
            cells.append(cell)
        lines.append("corner %s (order %d): %s" % (
            "".join(map(str, c["kac_coordinates"])), c["order"], ", ".join(cells)))
    assert text == "".join(line + "\n" for line in lines)
    assert "0+16i, 0-16i" in text


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_text_and_csv_extremum_never_serialise_the_report(capsys, monkeypatch, tmp_path, fmt):
    # the JSON report builds the critical-point list; text and CSV read the
    # minimum and its witness alone
    def refuse(self):
        raise AssertionError("the report was serialised")

    monkeypatch.setattr(compactcert.ExtremumReport, "to_json", refuse)
    code, out, err = run_main(capsys, "minimize", "--type", "F4", "--objective", "f2",
                              "--format", fmt, "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    assert "27*v^2 - 196*v - 9604" in out


def test_g2_minimize_text(capsys, tmp_path):
    code, out, _ = run_main(
        capsys, "minimize", "--type", "G2", "--objective", "f2",
        "--cache", str(tmp_path),
    )
    assert code == 0
    assert out == "min = -2 at corner (-1, -2)\n"


@pytest.mark.parametrize("command", ["minimize", "maximize"])
def test_non_real_objective_is_a_usage_error(capsys, tmp_path, command):
    code, out, err = run_main(
        capsys, command, "--type", "A2", "--objective", "f1",
        "--cache", str(tmp_path),
    )
    assert code == 4
    assert out == ""
    assert "its real part is 1/2*f1+1/2*f2" in err


def test_real_a2_objective_still_solves(capsys, tmp_path):
    code, out, _ = run_main(
        capsys, "minimize", "--type", "A2", "--objective", "f1+f2",
        "--cache", str(tmp_path),
    )
    assert code == 0
    assert out.startswith("min = -3 ")


def test_g2_adjoint_json_report(capsys, tmp_path):
    code, out, _ = run_main(
        capsys, "minimize", "--type", "G2", "--format", "json",
        "--cache", str(tmp_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "charbounds/2"
    assert doc["command"] == "minimize"
    report = doc["report"]
    assert report["minimum"]["minpoly"] == [2, 1]
    assert report["maximum"]["minpoly"] == [-14, 1]


def test_irrational_corner_values_json(capsys, tmp_path):
    # the exact value of each corner prints through its repr
    code, out, _ = run_main(
        capsys, "minimize", "--type", "A4", "--objective", "f1+f4",
        "--format", "json", "--cache", str(tmp_path),
    )
    assert code == 0
    corners = json.loads(out)["report"]["corners"]
    low = "Cyc(m=5, ['-5', '0', '-5', '-5'])"
    high = "Cyc(m=5, ['0', '0', '5', '5'])"
    assert [(c["value"], c["real"], c["decimal"]) for c in corners] == [
        ("Cyc(10)", True, 10.0),
        (low, True, 3.090169943749474),
        (high, True, -8.090169943749475),
        (high, True, -8.090169943749475),
        (low, True, 3.090169943749474),
    ]
    # the minimum is the irrational corner value -(5 + 5 sqrt 5) / 2, a root
    # of T^2 + 5 T - 25, decided exactly through the real cyclotomic subfield
    minimum = json.loads(out)["report"]["minimum"]
    assert minimum["minpoly"] == [-25, 5, 1]
    assert minimum["decimal"] == -8.090169943749475
    assert_printed_form(minimum)


def test_matrix_cache_flag_and_byte_identical_reruns(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("CHARBOUNDS_CACHE", raising=False)
    argv = ("matrix", "--type", "G2", "--format", "json", "--cache", str(tmp_path))
    code, cold, _ = run_main(capsys, *argv)
    assert code == 0
    assert json.loads(cold)["cache_hit"] is False
    code, warm1, _ = run_main(capsys, *argv)
    code2, warm2, _ = run_main(capsys, *argv)
    assert code == code2 == 0
    assert json.loads(warm1)["cache_hit"] is True
    assert warm1 == warm2
    # the payload under the flag is unchanged by the cache round trip
    strip = lambda s: s.replace('"cache_hit": false', '"cache_hit": true')
    assert strip(cold) == warm1
    # a cold run into a second fresh directory repeats the first
    fresh = tmp_path / "fresh"
    code, cold2, _ = run_main(capsys, *argv[:-1], str(fresh))
    assert code == 0
    assert cold2 == cold


def test_matrix_env_cache_honored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CHARBOUNDS_CACHE", str(tmp_path))
    code, _, _ = run_main(capsys, "matrix", "--type", "G2", "--format", "json")
    assert code == 0
    assert list(tmp_path.glob("matrix-*.json"))


@pytest.mark.parametrize("command", ["matrix", "minimize"])
def test_unwritable_cache_is_skipped(capsys, tmp_path, command):
    # the cache is best-effort: a path below a regular file cannot be made
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run_main(capsys, command, "--type", "G2",
                              "--cache", str(blocker / "sub"))
    assert code == 0 and err == ""
    if command == "matrix":
        assert out.startswith("cache: computed\n")
    else:
        assert out == "min = -2 at corner (-1, -2)\n"
    assert blocker.read_text() == ""


def test_xfun_cancelling_weyl_sum_exits_3(capsys):
    code, out, err = run_main(
        capsys, "xfun", "--type", "F4",
        "--s=-0.9,1,0.9,-0.8", "--t=-0.2,0.8,-1.1,-0.4",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("undecided:")


def test_objective_grammar():
    g2 = build_root_datum("G", 2)
    p = cli.parse_objective(g2, "2*f1 - 1/2*f2 + 3").poly
    assert p.terms[(1, 0)] == 2
    assert p.terms[(0, 1)] == qq(-1, 2)
    assert p.terms[(0, 0)] == 3
    assert cli.parse_objective(g2, "f2").poly.terms == {(0, 1): 1}
    adj = cli.parse_objective(g2, "adjoint")
    assert adj.poly.terms == adjoint_objective(g2).poly.terms
    for bad in ("", "f0", "f3", "2**f1", "f1++f2", "f1*f2", "q"):
        with pytest.raises(cli.UsageError):
            cli.parse_objective(g2, bad)


@pytest.mark.parametrize("option, argv", [
    ("--objective", ("minimize", "--type", "G2", "--objective", "-f2", "--format", "json")),
    ("--s", ("xfun", "--type", "A2", "--s", "-0.3,0.5", "--t", "0.2,0.4")),
    ("--t", ("xfun", "--type", "A2", "--s", "0.3,0.5", "--t", "-0.2,0.4")),
    # argparse reads an unambiguous prefix as the option
    ("--obj", ("minimize", "--type", "G2", "--obj", "-f2", "--format", "json")),
    ("--ob", ("minimize", "--type", "G2", "--ob", "-f2", "--format", "json")),
])
def test_a_value_that_starts_with_a_minus_is_read_as_the_value(capsys, tmp_path,
                                                               option, argv):
    argv = argv + ("--cache", str(tmp_path))
    code, out, err = run_main(capsys, *argv)
    assert code == 0 and err == "" and out
    k = argv.index(option)
    joined = argv[:k] + ("%s=%s" % (option, argv[k + 1]),) + argv[k + 2:]
    assert run_main(capsys, *joined) == (0, out, "")
    # a following option is still not taken for the value
    code, out, err = run_main(capsys, *argv[:k + 1], "--format", "json")
    assert code == 4 and out == "" and "usage error" in err


@pytest.mark.parametrize("prefix", ["--o", "--objx"])
def test_an_ambiguous_or_unknown_prefix_is_a_usage_error(capsys, tmp_path, prefix):
    code, out, err = run_main(capsys, "minimize", "--type", "G2", prefix, "-f2",
                              "--cache", str(tmp_path))
    assert code == 4 and out == "" and err.startswith("usage error: ")


def test_pin_parsing():
    assert cli._parse_pins("1=2,3=-2", 4) == {0: qq(2) * 1, 2: -2}
    assert cli._parse_pins("", 4) == {}
    for bad in ("0=2", "5=2", "1=3", "x", "1="):
        with pytest.raises(cli.UsageError):
            cli._parse_pins(bad, 4)


def test_usage_exit_codes(capsys):
    for argv in (
        ("corners", "--type", "Z9"),
        ("minimize", "--type", "G2", "--objective", "f9"),
        ("frobnicate",),
        ("su2", "--degree", "0"),
        ("xfun", "--type", "A2", "--s", "1", "--t", "1,1"),
        ("corners", "--type", "A2", "--precision", "0"),
        ("corners", "--type", "G2", "--columns", "3"),
        ("corners", "--type", "G2", "--columns", "0,1"),
        ("minimize", "--type", "G2", "--objective", "1/0*f1"),
        ("minimize", "--type", "G2", "--objective", "3/0"),
        ("branch-minimize", "--type", "G2", "--pins", "1=2,1=-2"),
        ("table", "--max-rank", "0"),
        ("su2", "--max-degree", "0"),
        ("xfun", "--type", "A2", "--s", "nan,1", "--t", "1,1"),
        ("xfun", "--type", "A2", "--s", "1,1", "--t", "1,inf"),
    ):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == 4, argv
        assert captured.out == ""
        assert "usage error" in captured.err


def test_infeasible_exit_codes(capsys):
    code, out, err = run_main(
        capsys, "xfun", "--type", "B5", "--s", "1,1,1,1,1", "--t", "1,2,3,4,5"
    )
    assert code == 2 and out == "" and "infeasible" in err
    # the double-precision value is not finite, through either method
    for s in ("1,1", "0.3,0.7"):
        code, out, err = run_main(
            capsys, "xfun", "--type", "A2", "--s", s, "--t", "1e308,1e308"
        )
        assert code == 2 and out == "" and "not a finite double" in err
    # three E8 columns: the identity row is their Weyl dimensions
    code, out, err = run_main(capsys, "corners", "--type", "E8",
                              "--columns", "1,7,8", "--format", "csv")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert rows[0][2:] == ["3875", "30380", "248"]
    assert [int(row[4]) for row in rows] == [248, -8, -4, -4, -3, -2, 0, 5, 24]
    # E8 restricted trace has too many free variables without pins
    code, out, err = run_main(capsys, "branch-minimize", "--type", "E8")
    assert code == 2 and "pin" in err
    # A3 has no subgroup A1^3 on pairwise orthogonal roots
    code, out, err = run_main(capsys, "branch-minimize", "--type", "A3")
    assert (code, out) == (2, "")
    assert err == "infeasible: no 3 pairwise orthogonal roots in A3\n"


def test_not_zero_dimensional_has_its_own_exit_code(capsys, tmp_path):
    code, out, err = run_main(
        capsys, "minimize", "--type", "A3", "--objective", "adjoint",
        "--cache", str(tmp_path),
    )
    assert code == 5 and out == ""
    assert err.startswith("not zero-dimensional: ")


def test_optimized_interpreter_gives_the_same_report(tmp_path):
    # python -O strips assert statements, so no check a report relies on
    # may be one
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "charbounds.cli", "minimize",
             "--type", "G2", "--cache", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        for flags in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[1].stdout == runs[0].stdout != ""


def test_cli_import_loads_no_numpy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, charbounds.cli; assert 'numpy' not in sys.modules"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_rational_eliminants_load_no_sympy(tmp_path):
    # G2 and F4 f4 split into linear factors; su2 and F4 f2 send rests of
    # degree >= 4 to the package's Zassenhaus factoring.  A None entry in
    # sys.modules makes any import of sympy fail loudly.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "\n".join([
        "import sys",
        "sys.modules['sympy'] = None",
        "from charbounds import cli",
        "cache = sys.argv[1]",
        "assert cli.main(['minimize', '--type', 'G2', '--cache', cache]) == 0",
        "assert cli.main(['minimize', '--type', 'F4', '--objective', 'f4',",
        "                 '--format', 'json', '--cache', cache]) == 0",
        "assert cli.main(['su2', '--cache', cache]) == 0",
        "assert cli.main(['minimize', '--type', 'F4', '--objective', 'f2',",
        "                 '--format', 'json', '--cache', cache]) == 0",
    ])
    run = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 0, run.stderr


def test_e8_adjoint_column_works(capsys):
    code, out, _ = run_main(
        capsys, "corners", "--type", "E8", "--columns", "8", "--format", "csv"
    )
    assert code == 0
    values = sorted(int(line.split(",")[2]) for line in out.strip().split("\n")[1:])
    assert values == [-8, -4, -4, -3, -2, 0, 5, 24, 248]


def test_xfun_text_and_json(capsys):
    code, out, _ = run_main(capsys, "xfun", "--type", "A1", "--s", "1", "--t", "2j")
    assert code == 0
    assert out == "X(s, t) = 0.454649+0i  [rho-product]\n"
    code, out, _ = run_main(
        capsys, "xfun", "--type", "A1", "--s", "1", "--t", "2j",
        "--format", "json",
    )
    doc = json.loads(out)
    ev = doc["evaluation"]
    assert ev["method"] == "rho-product"
    assert abs(ev["value"][0] - 0.4546487134128409) < 1e-12
    assert ev["value"][1] == 0.0


def test_su2_csv_rows(capsys):
    code, out, _ = run_main(
        capsys, "su2", "--max-degree", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,min,ratio,exact"
    assert len(lines) == 9
    d7 = lines[7].split(",")
    assert d7[0] == "7" and d7[1] == "-8" and d7[2] == "-1"
    assert "27*v^2 + 14*v - 49" in lines[6]


def test_branch_minimize_text(capsys):
    # (-2, 2) attains -2 too; the faces are tried t_i = 2 first
    code, out, _ = run_main(capsys, "branch-minimize", "--type", "G2")
    assert code == 0
    assert out == "min = -2 at t = (2, -2)\n"


def test_branch_minimize_pins_json(capsys):
    code, out, _ = run_main(
        capsys, "branch-minimize", "--type", "F4", "--pins", "1=2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["minimum"]["minpoly"] == [4, 1]


def test_datum_facts(capsys):
    code, out, _ = run_main(capsys, "datum", "--type", "E8", "--format", "json")
    assert code == 0
    doc = json.loads(out)["datum"]
    assert doc["weyl_order"] == 696729600
    assert doc["dim"] == 248
    code, out, _ = run_main(capsys, "datum", "--type", "C3")
    assert "positive_roots: 9" in out


def test_selfcheck_passes(capsys, tmp_path):
    code, out, _ = run_main(capsys, "selfcheck", "--cache", str(tmp_path))
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("ok - ") for line in lines[:-1])
    assert lines[-1].startswith("selfcheck passed")
    # with no E7 matrix in the cache the E7 row neither runs nor builds one
    assert lines[-1] == "selfcheck passed (10 checks, 0 failures)" and "E7" not in out
    e7 = build_root_datum("E", 7)
    assert not (tmp_path / ("matrix-%s.json" % e7.content_hash())).exists()


def test_precision_flag(capsys):
    _, out6, _ = run_main(capsys, "su2", "--degree", "6", "--format", "csv")
    _, out2, _ = run_main(
        capsys, "su2", "--degree", "6", "--format", "csv", "--precision", "2"
    )
    assert "-1.63113" in out6
    assert "-1.6" in out2 and "-1.63113" not in out2


def test_table_simple_matches_closed_form(capsys):
    code, out, _ = run_main(
        capsys, "table", "--max-rank", "4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    by_key = {(r["type"], r["s"]): (r["min"], r["max"]) for r in rows}
    assert by_key[("G2", 1)] == ("-2", "14")
    assert by_key[("A2", 2)] == ("-2", "2")
    assert by_key[("D4", 3)] == ("-2", "7")


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@pytest.mark.parametrize(
    "letter_rank,objective,minimum,degree",
    [
        # the least real root of e is a corner value: no fibre to decide
        ("C3", "f2", "-2", "14"),
        ("B3", "f3", "-8", "8"),
        # one fibre below the corners, whose sigma-real points are not
        # compact (the E6 matrix takes a few seconds cold)
        ("D5", "adjoint", "-3", "45"),
        ("E6", "adjoint", "-3", "78"),
    ],
)
def test_positive_dimensional_critical_locus_is_decided(
    capsys, shared_cache, letter_rank, objective, minimum, degree
):
    for command, value in (("minimize", minimum), ("maximize", degree)):
        code, out, err = run_main(
            capsys, command, "--type", letter_rank, "--objective", objective,
            "--cache", shared_cache,
        )
        assert code == 0, err
        tag = "min" if command == "minimize" else "max"
        assert out.startswith("%s = %s at corner" % (tag, value)), out


def test_text_extremum_assembles_only_its_fibre(capsys, monkeypatch, tmp_path):
    from charbounds import algsolve

    calls = []
    real = algsolve._assemble_points
    monkeypatch.setattr(
        algsolve, "_assemble_points",
        lambda *a: calls.append(a[2]) or real(*a),
    )
    code, out, err = run_main(
        capsys, "minimize", "--type", "F4", "--objective", "f2",
        "--cache", str(tmp_path),
    )
    assert code == 0 and out.startswith("min = -15.5766 (root of 27*v^2")
    # one quadratic fibre, 27 T^2 - 196 T - 9604, not the D = 37 quotient
    assert len(calls) == 1 and calls[0] < 37


@pytest.mark.parametrize("objective", ["3", "0*f1", "f1-f1"])
def test_constant_objective_is_attained_at_the_identity(capsys, shared_cache, objective):
    # the critical ideal is zero, so e(T) = T - c comes from the empty basis
    value = "3" if objective == "3" else "0"
    for command in ("minimize", "maximize"):
        code, out, err = run_main(
            capsys, command, "--type", "G2", "--objective", objective,
            "--cache", shared_cache,
        )
        assert code == 0, err
        tag = "min" if command == "minimize" else "max"
        assert out == "%s = %s at corner (7, 14)\n" % (tag, value)


def test_maximum_is_decided_by_its_fibre(capsys, tmp_path):
    # -f2 on F4 mirrors the f2 minimum: its greatest critical value lies
    # above every corner value and is attained at a compact critical point
    argv = ("maximize", "--type", "F4", "--objective=-f2", "--cache", str(tmp_path))
    code, out, err = run_main(capsys, *argv)
    assert code == 0, err
    assert out.startswith(
        "max = 15.5766 (root of 27*v^2 + 196*v - 9604 = 0) at critical point ("
    )
    code, out, err = run_main(capsys, *argv, "--format", "json")
    assert code == 0, err
    report = json.loads(out)["report"]
    assert report["max_witness"]["kind"] == "critical_point"
    assert report["maximum"]["minpoly"] == [-9604, 196, 27]
    # the F4 f2 minimum is (98 / 27) (1 - 2 sqrt 7)
    assert abs(report["maximum"]["decimal"] + (98 / 27) * (1 - 2 * 7**0.5)) < 1e-9


# Reports whose bytes are pinned.  Every printed interval and decimal is a
# function of the value alone, so only a change of a value, a minimal
# polynomial or the report's shape shows here.  Regenerate a file only for
# an intended change of the report.
GOLDEN = Path(__file__).parent / "golden"


def assert_nearest_double(minpoly, lo, hi, decimal):
    """The one root of minpoly in (lo, hi] rounds to decimal: it lies
    between the midpoints from decimal to its neighbouring doubles."""
    chain = sturm_chain(list(minpoly))
    below = (qq(decimal) + qq(math.nextafter(decimal, -math.inf))) / 2
    above = (qq(decimal) + qq(math.nextafter(decimal, math.inf))) / 2
    assert sturm_count(chain, max(lo, below), min(hi, above)) == 1


def assert_printed_form(doc):
    """A rational prints [x, x] and float(x); any other value prints a
    dyadic cell of width at most 2^-40 holding one root of its minimal
    polynomial, and the double nearest that root."""
    lo, hi = (qq(x) for x in doc["interval"])
    if len(doc["minpoly"]) == 2:
        c0, c1 = doc["minpoly"]
        assert lo == hi == qq(-c0, c1) and doc["decimal"] == float(lo)
        return
    j = (hi - lo).denominator.bit_length() - 1
    assert hi - lo == qq(1, 2 ** j) and j >= 40 and (lo * 2 ** j).denominator == 1
    assert sturm_count(sturm_chain(list(doc["minpoly"])), lo, hi) == 1
    assert_nearest_double(doc["minpoly"], lo, hi, doc["decimal"])


def printed_values(doc):
    if isinstance(doc, dict):
        if {"minpoly", "interval", "decimal"} <= doc.keys():
            yield doc
        for v in doc.values():
            yield from printed_values(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from printed_values(v)


def test_printed_intervals_isolate_and_decimals_are_nearest(capsys, tmp_path):
    code, out, _ = run_main(capsys, "minimize", "--type", "F4", "--objective", "f2",
                            "--format", "json", "--cache", str(tmp_path))
    assert code == 0
    printed = list(printed_values(json.loads(out)))
    assert len(printed) > 40
    assert any(len(doc["minpoly"]) > 2 for doc in printed)
    for doc in printed:
        assert_printed_form(doc)
    code, out, _ = run_main(capsys, "su2", "--format", "json")
    assert code == 0
    for row in json.loads(out)["rows"]:
        if len(row["minpoly"]) == 2:
            assert row["min"] == float(qq(-row["minpoly"][0], row["minpoly"][1]))
        else:
            # a root of the minimal polynomial rounds to the printed double
            eps = qq(1, 2 ** 30)
            assert_nearest_double(row["minpoly"], qq(row["min"]) - eps,
                                  qq(row["min"]) + eps, row["min"])


@pytest.mark.parametrize("argv, golden", [
    (["minimize", "--type", "F4", "--objective", "f2", "--format", "json"],
     "minimize_F4_f2.json"),
    (["su2", "--format", "json"], "su2.json"),
    # the minimum -2 is attained at a critical point of a fibre read off
    # the critical quotient algebra
    (["minimize", "--type", "B2", "--format", "json"], "minimize_B2.json"),
    # faces whose restricted polynomials agree are solved once: every
    # candidate, its count and the witness are as when each face was
    # solved on its own
    (["branch-minimize", "--type", "G2", "--format", "json"], "branch_minimize_G2.json"),
    (["branch-minimize", "--type", "B3", "--format", "json"], "branch_minimize_B3.json"),
    (["branch-minimize", "--type", "C3", "--format", "json"], "branch_minimize_C3.json"),
    (["branch-minimize", "--type", "D4", "--format", "json"], "branch_minimize_D4.json"),
    (["branch-minimize", "--type", "B4", "--format", "json"], "branch_minimize_B4.json"),
    (["branch-minimize", "--type", "F4", "--pins", "1=2", "--format", "json"],
     "branch_minimize_F4_pin1.json"),
])
def test_json_report_bytes_are_pinned(capsys, tmp_path, argv, golden):
    code, out, err = run_main(capsys, *argv, "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null"])
def test_cache_file_that_is_not_an_object_is_rebuilt(capsys, tmp_path, text):
    g2 = build_root_datum("G", 2)
    path = Path(invder._cache_path(g2, str(tmp_path)))
    path.write_text(text)
    assert not invder.is_cached(g2, str(tmp_path))
    code, out, err = run_main(capsys, "matrix", "--type", "G2", "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.startswith("cache: computed\n")
    assert path.read_bytes() == (GOLDEN / "matrix-G2.json").read_bytes()
    assert invder.is_cached(g2, str(tmp_path))


def test_selfcheck_compares_e7_with_the_table_from_a_cached_matrix(capsys, tmp_path):
    e7 = build_root_datum("E", 7)
    (tmp_path / ("matrix-%s.json" % e7.content_hash())).write_bytes(
        (GOLDEN / "matrix-E7.json").read_bytes())
    code, out, _ = run_main(capsys, "selfcheck", "--cache", str(tmp_path))
    lines = out.strip().split("\n")
    assert code == 0 and "ok - E7 adjoint extremum against the table" in lines
    assert lines[-1] == "selfcheck passed (11 checks, 0 failures)"


def test_e8_matrix_is_refused_even_when_long_running(capsys, tmp_path, monkeypatch):
    # the orbits of the weights below omega_i + omega_j pass the orbit cap,
    # counted before any character is built; the table is the only E8
    # source
    def no_character(*args):
        raise AssertionError("a character was built")

    monkeypatch.setattr(charring, "irreducible_character", no_character)
    code, out, err = run_main(capsys, "matrix", "--type", "E8", "--long-running",
                              "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("infeasible: derivation matrix of E8 refused: 583856401 "
                   "weights in the orbits of its cone, more than the orbit cap "
                   "10000000\n")
    assert not list(tmp_path.iterdir())


def test_e7_adjoint_minimum_from_the_committed_matrix(capsys, tmp_path):
    # the committed E7 matrix as a warm cache; test_invder checks that a
    # cold build writes the same bytes
    e7 = build_root_datum("E", 7)
    (tmp_path / ("matrix-%s.json" % e7.content_hash())).write_bytes(
        (GOLDEN / "matrix-E7.json").read_bytes())
    code, out, err = run_main(capsys, "minimize", "--type", "E7", "--long-running",
                              "--cache", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.startswith("min = -7 at corner (")
    assert len(list(tmp_path.iterdir())) == 1
