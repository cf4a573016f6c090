import dataclasses
import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from newton_circle import iw, suites
from newton_circle.cli import USAGE_ERROR, build_parser, run_command
from newton_circle.ergodic import FiniteFunction


def run(tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code = run_command(list(argv) + ["--json", str(path), "--stable-runtime"])
    doc = json.loads(path.read_text()) if path.exists() else None
    return code, doc


def test_newton_command(tmp_path):
    code, doc = run(tmp_path, "newton", "--poly", "m1^3*m2 + m1*m2^3")
    assert code == 0
    assert doc["results"][0]["vertices"] == [[1, 3], [3, 1]]
    assert doc["results"][0]["normals"] == [[0, 1], [1, 1], [1, 0]]


def test_newton_rejects_constant_term(tmp_path, capsys):
    code = run_command(["newton", "--poly", "m1*m2 + 1"])
    assert code == 2
    assert "P(0,0)" in capsys.readouterr().err


def test_sectors_command(tmp_path, capsys):
    code, doc = run(tmp_path, "sectors", "--poly", "m1^2*m2^3", "--j", "1")
    assert code == 0
    assert doc["results"] and all(r["M1"] and r["M2"] for r in doc["results"])
    assert [(c["name"], c["pass"]) for c in doc["checks"]] == [("grid_nonempty", True)]
    assert run_command(["sectors", "--poly", "m1^2*m2^3 + 1"]) == USAGE_ERROR
    assert "P(0,0)" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["newton", "--poly", "m1*m2 + 1"],
     "polynomial has nonzero constant term 1; averages and diagrams require P(0,0) = 0"),
    (["expsum", "--m1", "4"], "expsum needs --poly or --weyl"),
])
def test_usage_errors_found_after_parsing_exit_2(capsys, argv, message):
    assert run_command(argv) == USAGE_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_syntax_error_exit_code(capsys):
    assert run_command(["expsum", "--poly", "bogus("]) == 2
    # an exponent past Python's integer-string limit is a syntax error too
    assert run_command(["expsum", "--poly", "m1^" + "1" * 4301 + "*m2"]) == 2
    assert "integer exceeds 4300 digits (at position 3)" in capsys.readouterr().err


def test_unknown_flag_exit_code():
    assert run_command(["newton", "--nope"]) == 2


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one parser serves every call of the process; a parse leaves no state
    # behind, so repeated calls give byte-identical reports and a usage
    # error between them still exits 2
    assert build_parser() is build_parser()
    argv = ("verify", "--suite", "iw", "--rho", "1/2", "--lmax", "3")
    first = run(tmp_path, *argv, name="a.json")
    assert run_command(["verify", "--suite", "nope"]) == USAGE_ERROR
    assert "invalid choice" in capsys.readouterr().err
    second = run(tmp_path, *argv, name="b.json")
    assert first[0] == second[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert build_parser.cache_info().currsize == 1


def test_expsum_double_sum(tmp_path):
    code, doc = run(tmp_path, "expsum", "--poly", "m1*m2", "--xi", "1/2",
                    "--m1", "2", "--m2", "2")
    assert code == 0
    row = doc["results"][0]
    assert row["mode"] == "exact"
    assert row["re"] == pytest.approx(2.0)
    # a coefficient past the largest float scales exactly under a float xi
    code, doc = run(tmp_path, "expsum", "--poly", "1" + "0" * 400 + "*m1*m2", "--xi", "0.5",
                    "--m1", "2", "--m2", "2")
    assert code == 0
    assert doc["results"][0]["re"] == pytest.approx(4.0)


@pytest.mark.parametrize("axis", [1, 2])
def test_expsum_abs_axis(tmp_path, axis):
    from fractions import Fraction

    from newton_circle.expsum import double_sum_abs
    from newton_circle.poly import parse_poly, scale
    code, doc = run(tmp_path, "expsum", "--poly", "m1^2*m2^3 + m1*m2", "--xi", "3/7",
                    "--k1", "2", "--m1", "12", "--k2", "1", "--m2", "9", "--abs-axis", str(axis))
    assert code == 0
    want = double_sum_abs(scale(parse_poly("m1^2*m2^3 + m1*m2"), Fraction(3, 7)), 2, 12, 1, 9, axis)
    assert doc["results"] == [{"kind": "absolute_double_sum", "value": want}]
    assert [(c["name"], c["pass"]) for c in doc["checks"]] == [("nonnegative", True)]


def test_expsum_weyl(tmp_path):
    code, doc = run(tmp_path, "expsum", "--weyl", "1/2", "--n", "4")
    assert code == 0
    assert abs(complex(doc["results"][0]["re"], doc["results"][0]["im"])) < 1e-9


@pytest.mark.parametrize("weyl, bad", [("1/3,x", "x"), ("1/0", "1/0")])
def test_expsum_weyl_rejects_non_real(tmp_path, capsys, weyl, bad):
    code, doc = run(tmp_path, "expsum", "--weyl", weyl)
    assert code == 2 and doc is None
    assert capsys.readouterr().err == f"error: not a real number: {bad!r}\n"
    # the report keeps the raw --weyl text
    code, doc = run(tmp_path, "expsum", "--weyl", "1/3,0,1/5")
    assert code == 0 and doc["params"]["weyl"] == "1/3,0,1/5"


def test_vinogradov_command(tmp_path):
    code, doc = run(tmp_path, "vinogradov", "--s", "2", "--k", "2", "--n", "3")
    assert code == 0
    assert doc["results"][0]["count"] == "15"


@pytest.mark.parametrize("argv, message", [
    (["vinogradov", "--s", "1", "--k", "2", "--n", "3", "--lam", "1,x"], "not an integer: 'x'"),
    (["osc", "--values", "1,zz"], "not a complex number: 'zz'"),
    (["osc", "--values", "1,2", "--seq", "0,q"], "not an integer: 'q'"),
])
def test_malformed_list_entry_is_a_usage_error(tmp_path, capsys, argv, message):
    code, doc = run(tmp_path, *argv)
    assert code == USAGE_ERROR and doc is None
    assert capsys.readouterr().err == f"error: {message}\n"


def test_vinogradov_lam_of_wrong_length_fails(capsys):
    # well-formed entries, but not k of them: a failed command, not a usage error
    assert run_command(["vinogradov", "--s", "1", "--k", "2", "--n", "3", "--lam", "1,2,3"]) == 1
    assert capsys.readouterr().err == "error: lambda must have length k=2\n"


def test_gauss_sweep_rows(tmp_path):
    code, doc = run(tmp_path, "gauss", "--poly", "m1^2*m2^3", "--qmax", "50")
    assert code == 0
    sweep = [r for r in doc["results"] if "q" in r]
    assert len(sweep) == 50
    assert set(sweep[0]) == {"q", "a_count", "max_abs_G"}
    assert any("fitted_decay_exponent" in r for r in doc["results"])


def test_gauss_sweeps_once(tmp_path, monkeypatch):
    from newton_circle import complete
    from newton_circle.poly import parse_poly

    P = parse_poly("m1^2*m2^3")
    # the report as it was assembled with two sweeps: the rows over
    # 1 <= q <= 40, then the fit over a second sweep of 2 <= q <= 40
    rows = complete.gauss_sum_sweep(P, range(1, 41))
    refit = complete._decay_fit(complete.gauss_sum_sweep(P, range(2, 41)))
    two_sweeps = rows + [{"fitted_decay_exponent": refit}]
    sweep, calls = complete.gauss_sum_sweep, []

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(complete, "gauss_sum_sweep", counted)
    code, doc = run(tmp_path, "gauss", "--poly", "m1^2*m2^3", "--qmax", "40")
    assert code == 0
    assert len(calls) == 1
    text = (tmp_path / "out.json").read_text()
    assert text == json.dumps({**doc, "results": two_sweeps}, indent=2) + "\n"


@pytest.mark.parametrize("flags", [["--q", "0"], ["--q", "-3"], ["--qmax", "0"]])
def test_gauss_rejects_nonpositive_moduli(flags, capsys):
    assert run_command(["gauss", "--poly", "m1*m2"] + flags) == 2
    assert "positive integer" in capsys.readouterr().err


def test_iw_command(tmp_path):
    code, doc = run(tmp_path, "iw", "--rho", "1/2", "--l", "2")
    assert code == 0
    assert doc["results"][0]["denominators"] == 36


def test_iw_command_counts_a_missing_initial_member(tmp_path, monkeypatch):
    real = iw.build_p_le

    def without_3(params):
        sets = real(params)
        return dataclasses.replace(sets, p_le=tuple(q for q in sets.p_le if q != 3))

    monkeypatch.setattr(iw, "build_p_le", without_3)
    code, doc = run(tmp_path, "iw", "--rho", "1/2", "--l", "2")
    assert code == 1
    assert [(c["name"], c["lhs"], c["rhs"], c["pass"]) for c in doc["checks"]] == [
        ("initial_segment_contained", 1.0, 0.0, False)]


def test_osc_command(tmp_path):
    code, doc = run(tmp_path, "osc", "--values", "0,1,0", "--seq", "0,2")
    assert code == 0
    assert doc["checks"][0]["pass"]


@pytest.mark.parametrize("rho", ["nan", "inf", "0.5"])
def test_osc_rho_must_be_finite_and_at_least_one(tmp_path, capsys, rho):
    code, doc = run(tmp_path, "osc", "--values", "1,2,3", "--rho", rho)
    assert code == USAGE_ERROR and doc is None
    assert f"argument --rho: must be a finite number >= 1, got {rho}" in capsys.readouterr().err


def test_osc_variation_past_sixteen_points(tmp_path):
    values = ",".join(["0", "1"] * 8 + ["0"])
    code, doc = run(tmp_path, "osc", "--values", values, "--rho", "3")
    assert code == 0
    assert doc["results"][0]["variation"] == pytest.approx(16 ** (1 / 3))


def test_average_command(tmp_path):
    fpath = tmp_path / "f.json"
    fpath.write_text(FiniteFunction.delta(0).to_json())
    code, doc = run(tmp_path, "average", "--poly", "m1*m2", "--f", str(fpath),
                    "--x", "1", "--m1", "2", "--m2", "2")
    assert code == 0
    assert doc["results"][0]["re"] == pytest.approx(0.25)


def test_arcs_command(tmp_path):
    code, doc = run(tmp_path, "arcs", "--poly", "m1^2*m2^3", "--xi", "0.5",
                    "--m1", "16", "--m2", "16")
    assert code == 0
    assert doc["results"][0]["kind"] == "major"


# the message of each command's bad input below: it names the input, and for
# a float past its range the limit
_BAD_INPUT_MESSAGES = {
    "average": "error: a finite function must be a JSON object",
    "arcs": "error: M1**2 * M2**3 at M1 = 1e+300, M2 = 1e+300 exceeds the largest float, "
            "1.798e+308",
    "osc": "error: the rho-sum of increments at rho = 1e+308 exceeds the largest float, "
           "1.798e+308",
    "sectors": "error: sector index must lie in [1, 1], got 99",
}


@pytest.mark.parametrize("argv, f_json", [
    (["average", "--poly", "m1*m2", "--m1", "4", "--m2", "4", "--x", "0"], '{"0": 5}'),
    (["average", "--poly", "m1*m2", "--m1", "4", "--m2", "4", "--x", "0"], "[1, 2]"),
    (["arcs", "--poly", "m1^2*m2^3", "--xi", "0.3", "--m1", "1e300", "--m2", "1e300"], None),
    (["osc", "--values", "1,2,3", "--rho", "1e308"], None),
    (["sectors", "--poly", "m1*m2", "--j", "99", "--bound", "0.5"], None),
    (["average", "--poly", "m1*m2", "--m1", "4", "--m2", "4", "--x", "0"], '{"0": [NaN, 0]}'),
])
def test_bad_input_exits_1_with_a_message(tmp_path, capsys, argv, f_json):
    # run_command returns, so nothing escaped it as a traceback
    if f_json is not None:
        (tmp_path / "f.json").write_text(f_json)
        argv = argv + ["--f", str(tmp_path / "f.json")]
    assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith(_BAD_INPUT_MESSAGES[argv[0]])


def test_verify_exit_codes(tmp_path):
    code, doc = run(tmp_path, "verify", "--suite", "iw")
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])


def test_verify_iw_with_flags(tmp_path):
    code, doc = run(tmp_path, "verify", "--suite", "iw", "--rho", "1/2", "--lmax", "3")
    assert code == 0
    assert any("rho_1_2" in c["name"] for c in doc["checks"])


def test_suites_take_only_cli_settable_parameters():
    for name, fn in suites.SUITES.items():
        assert set(inspect.signature(fn).parameters) <= {"trials", "seed", "rhos", "l_max"}, name


def test_verify_trials_reaches_every_sampling_suite(tmp_path, monkeypatch):
    names = ("moment", "newton", "osc", "factorization")
    calls = []

    def recording(name):
        def stub(trials=100, seed=1):
            calls.append((name, trials))
            return []
        return stub

    for name in names:
        monkeypatch.setitem(suites.SUITES, name, recording(name))
    argv = ["verify", "--trials", "3"] + [a for name in names for a in ("--suite", name)]
    code, _ = run(tmp_path, *argv)
    assert code == 0
    assert calls == [(name, 3) for name in names]


@pytest.mark.parametrize("suite, flags, kind", [
    ("newton", ["--trials", "0"], "a positive integer"),  # would sample nothing
    ("moment", ["--trials", "-3"], "a positive integer"),  # failed inside numpy
    ("iw", ["--lmax", "-2"], "a non-negative integer"),  # would check no level
])
def test_verify_rejects_vacuous_sample_settings(tmp_path, capsys, suite, flags, kind):
    # a run that checks nothing must not report its rows as passing
    code, doc = run(tmp_path, "verify", "--suite", suite, *flags)
    assert code == 2 and doc is None
    assert f"must be {kind}, got {flags[1]}" in capsys.readouterr().err


def test_failing_check_gives_exit_1(tmp_path):
    # the gauss suite carries the honest spec-defect failure, so exit is 1
    code, doc = run(tmp_path, "verify", "--suite", "gauss")
    assert code == 1
    assert any(not c["pass"] for c in doc["checks"])


def test_reports_byte_stable(tmp_path):
    _, _ = run(tmp_path, "newton", "--poly", "m1*m2 + m2^4", name="a.json")
    _, _ = run(tmp_path, "newton", "--poly", "m1*m2 + m2^4", name="b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_csv_output(tmp_path):
    path = tmp_path / "out.csv"
    code = run_command(["gauss", "--poly", "m1*m2", "--qmax", "5",
                        "--csv", str(path), "--stable-runtime"])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("command,kind,name")
    # plot-ready sweep block carries literal columns
    assert any(line.startswith("command,kind,q,a_count,max_abs_G") for line in lines)
    assert sum(1 for line in lines if ",result," in line) == 5


def test_io_failure_exit_code(tmp_path, capsys):
    code = run_command(["newton", "--poly", "m1*m2",
                        "--json", str(tmp_path / "no" / "such" / "dir" / "o.json")])
    assert code == 1
    assert "cannot write report" in capsys.readouterr().err


def test_expsum_reports_reproducible(tmp_path):
    _, a = run(tmp_path, "expsum", "--poly", "m1^2*m2", "--xi", "3/7",
               "--m1", "30", "--m2", "11", name="a.json")
    _, b = run(tmp_path, "expsum", "--poly", "m1^2*m2", "--xi", "3/7",
               "--m1", "30", "--m2", "11", name="b.json")
    assert a["results"] == b["results"]


def _readme_commands():
    """(argv, documented exit status) of each line of the README's "Command
    line" block: 0 unless the line's comment says "exits N"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        status = re.search(r"exits (\d+)", comment)
        out.append((shlex.split(command)[1:], int(status.group(1)) if status else 0))
    return out


def test_readme_commands_exit_as_documented(tmp_path, capsys):
    # the block's average example reads f.json
    (tmp_path / "f.json").write_text(FiniteFunction.delta(0).to_json())
    commands = _readme_commands()
    assert len(commands) >= 12
    for argv, status in commands:
        argv = [str(tmp_path / a) if a == "f.json" else a for a in argv]
        code = run_command(argv)
        out, err = capsys.readouterr()
        assert code == status, (argv, err)
        # every row's verdict is its own inequality
        for c in json.loads(out)["checks"]:
            assert c["pass"] == (c["lhs"] <= c["rhs"] + c["tolerance"]), (argv, c)
