import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import detdiff
from detdiff import CASES, cli
from detdiff.cli import main, parse_algebraic
from detdiff.errors import MapDefinitionError, RootSolveError, exit_code

EXAMPLE_SYSTEM = {
    "unknowns": ["xi"],
    "equations": [
        {"lhs": "xi", "target": {"const": 0.5}},
        {"lhs": "half", "target": {"const": 2, "coef": -1, "ref": "xi"}},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# algebraic constants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("3", 3.0),
    ("2.5", 2.5),
    ("sqrt(2)", math.sqrt(2)),
    ("2+sqrt(3)", 2 + math.sqrt(3)),
    ("1-2*sqrt(5)", 1 - 2 * math.sqrt(5)),
    ("3+sqrt(6)", 3 + math.sqrt(6)),
    (" 2 + sqrt(7) ", 2 + math.sqrt(7)),
])
def test_parse_algebraic_accepts(text, value):
    assert parse_algebraic(text) == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("text", [
    "2+sqrt(3)+1", "sqrt(3)*2", "2*3", "os.system('x')", "sqrt(-3)", "2 sqrt(3)",
])
def test_parse_algebraic_rejects(text):
    with pytest.raises(ValueError):
        parse_algebraic(text)


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------


def test_diffusion_closed_form(capsys):
    code, out, _ = run(capsys, "diffusion", "--map",
                       '{"type":"linear","lambda":3}', "--method", "closed-form")
    assert code == 0
    report = json.loads(out)
    assert report["methods"]["closed-form"]["d"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["provenance"]["version"]


def test_diffusion_spectral_with_partition_system(capsys, tmp_path):
    system_file = tmp_path / "example-1.json"
    system_file.write_text(json.dumps(EXAMPLE_SYSTEM))
    code, out, _ = run(capsys, "diffusion", "--map", "linear", "lambda=2+sqrt(3)",
                       "--partition-system", str(system_file), "--method", "spectral")
    assert code == 0
    report = json.loads(out)
    assert report["methods"]["spectral"]["d"] == pytest.approx(
        math.sqrt(3) / 6, abs=1e-8)
    assert report["methods"]["spectral"]["alpha"][1] == pytest.approx(
        (3 + math.sqrt(3)) / 6, abs=1e-8)


@pytest.mark.parametrize("name", ["one-plus-sqrt3", "two-plus-sqrt2", "even-4"])
def test_diffusion_spectral_adds_zero_to_a_solved_partition(capsys, name):
    # a solved partition is tried as given, then with 0 added, like the map
    # breakpoints; these three catalog partitions hold 0
    case = CASES[name]
    code, out, err = run(capsys, "diffusion", "--map", json.dumps({"type": "linear",
                                                                  "lambda": case.lam}),
                         "--partition-system", json.dumps(case.system.to_dict()),
                         "--method", "spectral")
    assert (code, err) == (0, "")
    spectral = json.loads(out)["methods"]["spectral"]
    assert spectral["partition"] == pytest.approx(case.partition().breakpoints, abs=1e-15)
    assert spectral["alpha"] == pytest.approx(case.alpha, abs=1e-8)


def test_diffusion_reports_a_partition_that_fits_neither_way(capsys):
    code, out, err = run(capsys, "diffusion", "--map", '{"type":"linear","lambda":3}',
                         "--partition-system", json.dumps(EXAMPLE_SYSTEM),
                         "--method", "spectral")
    assert (code, out) == (2, "")
    assert err == ("error[validation]: no consistent partition found from the solved "
                   "--partition-system, as given or with 0 added; pass --partition\n")


def test_diffusion_all_methods(capsys):
    code, out, _ = run(capsys, "diffusion", "--map",
                       '{"type":"linear","lambda":3}', "--method", "all",
                       "--N", "20000")
    assert code == 0
    report = json.loads(out)
    methods = report["methods"]
    assert set(methods) == {"closed-form", "spectral", "heuristic", "omega", "mc"}
    for name in ("closed-form", "spectral", "omega", "mc"):
        assert "error" not in methods[name]
    assert report["deltas"]["closed-form|spectral"] < 1e-8
    assert methods["mc"]["method"] == "monte-carlo"


# slopes 4 and 2: drift 1/4 and D = lim Var(x_n)/(2n) = 3/32, where the raw
# second moment rate -Re z''(0)/2 is 1/8 = 3/32 + drift^2/2
_DRIFT_MAP = ('{"type":"pieces","breakpoints":[-0.5,0,0.5],'
              '"values":[[-0.5,1.5],[-0.5,0.5]]}')


def test_diffusion_all_compares_centred_d_on_a_drifting_map(capsys):
    code, out, _ = run(capsys, "diffusion", "--map", _DRIFT_MAP, "--method", "all",
                       "--N", "20000", "--n", "20")
    assert code == 0
    report = json.loads(out)
    closed, spectral, mc = (report["methods"][k] for k in ("closed-form", "spectral", "mc"))
    # every method reports the same D, so the deltas compare the d fields as given
    assert (closed["d"], closed["drift"]) == (3 / 32, 0.25)
    assert (spectral["d"], spectral["drift"]) == pytest.approx((3 / 32, 0.25), abs=1e-14)
    assert report["deltas"]["closed-form|mc"] == abs(closed["d"] - mc["d"]) < 0.01
    assert report["deltas"]["mc|spectral"] == abs(mc["d"] - spectral["d"])
    assert report["deltas"]["closed-form|spectral"] == 0.0


def test_evolve_profile_of_a_drifting_map_converges(capsys):
    # the Gaussian's width is the spread about the mean, so the distance decays
    code, out, _ = run(capsys, "evolve", "--map", _DRIFT_MAP, "--checkpoints", "500,2000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].endswith(" d_spectral=0.09375")
    dist = dict(map(float, line.split(",")) for line in lines[2:])
    assert dist[2000] < 0.0025 and dist[2000] <= 0.6 * dist[500], dist


# the first piece's ends, -0.5 and -0.4999999999, are not both on the
# half-integer grid, though within 1e-9 of one
_FLAT_PIECE = ('{"type":"pieces","breakpoints":[-0.5,0.0,0.5],'
               '"values":[[-0.5,-0.4999999999],[0.5,1.5]]}')


def test_diffusion_closed_form_rejects_a_flat_piece(capsys):
    code, out, err = run(capsys, "diffusion", "--map", _FLAT_PIECE, "--method", "closed-form")
    assert code == 2
    assert out == ""
    assert err.startswith("error[validation]:")
    assert len(err.splitlines()) == 1


def test_diffusion_all_records_the_flat_piece(capsys):
    code, out, _ = run(capsys, "diffusion", "--map", _FLAT_PIECE, "--method", "all",
                       "--N", "2000", "--n", "10")
    assert code == 0
    error = json.loads(out)["methods"]["closed-form"]["error"]
    assert error == ("HalfIntegerValueError: closed form requires half-integer "
                     "values at all piece endpoints")


def test_diffusion_heuristic_rejected_for_zigzag(capsys):
    code, _, err = run(capsys, "diffusion", "--map",
                       '{"type":"zigzag","p":1,"xi":0.25}', "--method", "heuristic")
    assert code == 2
    assert err.startswith("error[validation]:")


def test_diffusion_unknown_map_type(capsys):
    code, _, err = run(capsys, "diffusion", "--map", '{"type":"bogus"}')
    assert code == 2
    assert err.startswith("error[validation]:")


def test_diffusion_inconsistent_partition(capsys):
    code, _, err = run(capsys, "diffusion", "--map",
                       '{"type":"linear","lambda":3.7}', "--method", "spectral")
    assert code == 2
    assert "error[validation]:" in err


def test_diffusion_explicit_inconsistent_partition(capsys):
    code, out, err = run(capsys, "diffusion", "--map", '{"type":"linear","lambda":4}',
                         "--method", "spectral", "--partition", "[-0.5, 0.5]")
    assert code == 2
    assert out == ""
    assert err.startswith("error[validation]:")
    assert "cell segment" in err


def test_diffusion_rejects_a_nan_partition_breakpoint(capsys):
    # named as a bad breakpoint, not "cannot convert float NaN to integer"
    code, out, err = run(capsys, "diffusion", "--map", '{"type":"linear","lambda":3}',
                         "--partition", '[-0.5, "nan", 0.5]', "--method", "spectral")
    assert (code, out) == (2, "")
    assert err == "error[validation]: partition breakpoints (-0.5, nan, 0.5) are not all finite\n"


@pytest.mark.parametrize("command", ["diffusion", "evolve"])
def test_at_most_one_partition_source(capsys, command):
    # two sources of one partition: neither may be dropped without a word
    code, out, err = run(capsys, command, "--map", "linear", "lambda=2+sqrt(3)",
                         "--partition", "[-0.5, 0.5]",
                         "--partition-system", json.dumps(EXAMPLE_SYSTEM))
    assert (code, out) == (2, "")
    assert err == ("error[validation]: pass at most one of --partition "
                   "or --partition-system\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--map", "linear", "lambda=1e160", "--N", "2000", "--n", "10"],
    ["diffusion", "--map", "linear", "lambda=1e160", "--method", "mc",
     "--N", "2000", "--n", "10"],
    ["billiard", "--lambda", "1e160", "--N", "2000", "--n", "50"],
])
def test_overflow_is_a_numerical_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error[numerical]:")
    assert len(err.splitlines()) == 1


def test_an_overflowing_analytic_estimate_is_a_numerical_error(capsys):
    # not "d":Infinity, which strict JSON parsers reject
    for method in ("omega", "heuristic"):
        code, out, err = run(capsys, "diffusion", "--map", "linear", "lambda=1e160",
                             "--method", method)
        assert (code, out) == (3, "")
        assert err == f"error[numerical]: {method} estimate of D overflows double precision\n"


def test_billiard_rejects_an_infinite_slope(capsys):
    code, out, err = run(capsys, "billiard", "--lambda", "inf", "--N", "2000", "--n", "50")
    assert (code, out) == (2, "")
    assert err == "error[validation]: --lambda must be a finite number, not inf\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_channel_position_overflow_is_a_numerical_error(capsys, monkeypatch, threads):
    # the velocity passes 1.8e308 within a few steps; three chunks, so two
    # threads run the overflow on pool workers, each under its own error state
    monkeypatch.setenv("DETDIFF_THREADS", threads)
    for n_samples in ("2000", "70000"):
        code, out, err = run(capsys, "billiard", "--lambda", "1e307",
                             "--N", n_samples, "--n", "50")
        assert (code, out) == (3, "")
        assert err == "error[numerical]: ensemble position overflows double precision\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lifting_map_position_overflow_is_a_numerical_error(capsys, monkeypatch, threads):
    # the cells pass 1.8e308 within about 18 steps; three chunks, as above
    monkeypatch.setenv("DETDIFF_THREADS", threads)
    huge = '{"type":"pieces","breakpoints":[-0.5,0.5],"values":[[9.9e306,1.01e307]]}'
    code, out, err = run(capsys, "simulate", "--map", huge, "--N", "70000", "--n", "40")
    assert (code, out) == (3, "")
    assert err == "error[numerical]: ensemble position overflows double precision\n"


@pytest.mark.parametrize("exc,code", [
    (OverflowError(), 3), (RootSolveError(), 3), (MapDefinitionError(), 2),
    (ValueError(), 2), (KeyError("k"), 2), (OSError(), 2),
    (TypeError(), None), (ZeroDivisionError(), None),
])
def test_exit_code_classifies_each_failure(exc, code):
    assert exit_code(exc) == code


def test_huge_but_finite_moments_are_reported(capsys):
    # a variance past 1e154 has no finite square, yet it, D and its stderr are finite
    code, out, err = run(capsys, "simulate", "--map", "linear", "lambda=1e80",
                         "--N", "2000", "--n", "10")
    assert (code, err) == (0, "")
    assert all(math.isfinite(float(v)) for v in out.splitlines()[2].split(","))
    code, out, err = run(capsys, "billiard", "--lambda", "1e100", "--N", "2000", "--n", "50")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[2:]]
    assert len(rows) == 4
    assert all(math.isfinite(float(v)) for row in rows for v in row[:3])
    assert math.isfinite(float(rows[-1][3]))


def test_diffusion_all_records_overflow_per_method(capsys):
    # the ensemble variance overflows, while (lam - 1)^2 / 24 is still finite
    code, out, _ = run(capsys, "diffusion", "--map", "linear", "lambda=1e154",
                       "--method", "all", "--N", "2000", "--n", "10")
    assert code == 0
    methods = json.loads(out)["methods"]
    assert methods["mc"]["error"].startswith("OverflowError:")
    assert methods["closed-form"]["error"].startswith("HalfIntegerValueError:")
    assert math.isfinite(methods["omega"]["d"])


def test_diffusion_all_names_each_error_when_every_method_fails(capsys):
    # at lam = 1e160 no estimate is finite, so none is reported as D
    code, out, err = run(capsys, "diffusion", "--map", "linear", "lambda=1e160",
                         "--method", "all", "--N", "2000", "--n", "10")
    # closed-form and spectral do not apply, and the rest overflow: exit 3
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error[numerical]: every method failed: closed-form: ")
    assert "; omega: OverflowError: omega estimate of D overflows double precision;" in err
    assert "; mc: OverflowError: " in err


def test_simulate_rejects_an_infinite_zigzag_p(capsys):
    code, out, err = run(capsys, "simulate", "--map",
                         '{"type":"zigzag","p":Infinity,"xi":0.25}')
    assert (code, out) == (2, "")
    assert err == "error[validation]: p must be an integer >= 1, not inf\n"


def test_diffusion_rejects_a_non_integer_zigzag_p(capsys):
    # not truncated to the D of p = 2 under the spec hash of p = 2.7
    code, out, err = run(capsys, "diffusion", "--map", '{"type":"zigzag","p":2.7,"xi":0.25}',
                         "--method", "closed-form")
    assert (code, out) == (2, "")
    assert err == "error[validation]: p must be an integer >= 1, not 2.7\n"
    for spec in (['{"type":"zigzag","p":2,"xi":0.25}'], ["zigzag", "p=2", "xi=0.25"]):
        code, out, _ = run(capsys, "diffusion", "--map", *spec, "--method", "closed-form")
        assert code == 0
        assert json.loads(out)["methods"]["closed-form"]["d"] == 1.125


def test_solver_failure_exit_code(capsys):
    system = {"unknowns": [], "equations": [{"lhs": "half", "target": {"const": 0}}]}
    code, _, err = run(capsys, "solve-partition", "--system", json.dumps(system))
    assert code == 3
    assert err.startswith("error[numerical]:")


# ---------------------------------------------------------------------------
# solve-partition
# ---------------------------------------------------------------------------


def test_solve_partition_system_inline(capsys):
    code, out, _ = run(capsys, "solve-partition", "--system",
                       json.dumps(EXAMPLE_SYSTEM))
    assert code == 0
    report = json.loads(out)
    assert report["lambda"] == pytest.approx(2 + math.sqrt(3), abs=1e-12)
    assert report["polynomial"] == [1, -4, 1]
    assert report["residual"] < 1e-13


@pytest.mark.parametrize("field", ['"const":0.3', '"const":0.5,"coef":-1.7,"ref":"xi"',
                                   '"const":"1/2"', '"const":0.5,"coef":"-1","ref":"xi"',
                                   '"const":true'])
def test_solve_partition_rejects_non_integer_fields(capsys, field):
    system = ('{"unknowns":["xi"],"equations":[{"lhs":"xi","target":{' + field + '}},'
              '{"lhs":"half","target":{"const":2,"coef":-1,"ref":"xi"}}]}')
    code, out, err = run(capsys, "solve-partition", "--system", system)
    assert code == 2
    assert out == ""
    assert err.startswith("error[validation]:")


def test_system_hash_does_not_depend_on_how_numbers_are_spelled(capsys):
    spelled = {"unknowns": ["xi"], "equations": [
        {"lhs": "xi", "target": {"const": 0.5, "coef": 0}},
        {"lhs": "half", "target": {"const": 2.0, "coef": -1.0, "ref": "xi"}}]}
    reports = []
    for system in (EXAMPLE_SYSTEM, spelled):
        code, out, _ = run(capsys, "solve-partition", "--system", json.dumps(system))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["provenance"]["system_hash"] == "5264dfb0385c1a25"


def test_solve_partition_three_interval(capsys):
    code, out, _ = run(capsys, "solve-partition", "--three-interval", "1,2,1,-1")
    assert code == 0
    report = json.loads(out)
    assert report["lambda"] == pytest.approx((3 + math.sqrt(33)) / 2, abs=1e-12)


def test_solve_partition_three_interval_with_r_beyond_the_double_range(capsys):
    # the slope 1.6e308 is a double though a coefficient of R is not, and the
    # three-cell family reports no residual
    code, out, err = run(capsys, "solve-partition", "--three-interval",
                         f"{4 * 10 ** 307},{8 * 10 ** 307},-1,1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["lambda"], report["xi"]) == (1.6e308, 0.25)


def test_solve_partition_requires_one_input(capsys):
    code, _, err = run(capsys, "solve-partition")
    assert code == 2


_LIN3 = '{"type":"linear","lambda":3}'


@pytest.mark.parametrize("argv", [
    ["solve-partition", "--system", json.dumps({"unknowns": ["xi"], "equations": [
        {"lhs": "xi", "target": {"const": 0.5}},
        {"lhs": "half", "target": {"const": 2, "coef": -1, "ref": ["xi"]}}]})],
    ["solve-partition", "--system", json.dumps({"unknowns": [1], "equations": [
        {"lhs": 1, "target": {"const": 0.5}},
        {"lhs": "half", "target": {"const": 2, "coef": -1, "ref": "1"}}]})],
    ["diffusion", "--map", _LIN3, "--method", "spectral", "--partition-system",
     '{"unknowns":["xi"],"equations":[{"lhs":"xi","target":5}]}'],
    ["diffusion", "--map", _LIN3, "--method", "spectral", "--partition", "5"],
    ["simulate", "--map", '{"type":"pieces","breakpoints":[-0.5,0.5],"values":[1.5]}',
     "--N", "100", "--n", "2"],
    ["simulate", "--map", '{"type":"pieces","breakpoints":[-0.5,0.5],"values":5}',
     "--N", "100", "--n", "2"],
    ["simulate", "--map", '{"type":"pieces","breakpoints":5,"values":[[-1.5,1.5]]}',
     "--N", "100", "--n", "2"],
], ids=["list-ref", "number-names", "number-target", "number-partition", "unpaired-values",
        "number-values", "number-breakpoints"])
def test_malformed_json_input_is_one_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error[validation]:")


_HUGE = "1" + "0" * 400      # an integer that no double holds


@pytest.mark.parametrize("argv", [
    ["diffusion", "--map", f'{{"type":"linear","lambda":{_HUGE}}}'],
    ["simulate", "--map", f'{{"type":"pieces","breakpoints":[-0.5,0.5],'
     f'"values":[[-1.5,{_HUGE}]]}}', "--N", "100", "--n", "2"],
    ["simulate", "--map", f'{{"type":"pieces","breakpoints":[-0.5,{_HUGE}],'
     '"values":[[-1.5,1.5]]}', "--N", "100", "--n", "2"],
    ["simulate", "--map", f'{{"type":"zigzag","p":{_HUGE},"xi":0.25}}', "--N", "100", "--n", "2"],
    ["simulate", "--map", f'{{"type":"zigzag","p":1,"xi":{_HUGE}}}', "--N", "100", "--n", "2"],
    ["diffusion", "--map", _LIN3, "--method", "spectral", "--partition", f"[-0.5, {_HUGE}]"],
], ids=["linear-lambda", "pieces-values", "pieces-breakpoints", "zigzag-p", "zigzag-xi",
        "partition"])
def test_a_json_integer_beyond_the_doubles_is_one_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error[validation]: integer of 401 characters is too large for a double\n"


# ---------------------------------------------------------------------------
# the CLI contract: one row per case, its exit code and a fragment of its one
# stderr line (a clean exit writes no stderr line)
# ---------------------------------------------------------------------------


def _system(xi_target, half_target):
    return json.dumps({"unknowns": ["xi"], "equations": [
        {"lhs": "xi", "target": xi_target}, {"lhs": "half", "target": half_target}]})


_TRANSIENT_MAP = json.dumps({"type": "pieces", "breakpoints": [-0.5, -1 / 6, 1 / 6, 0.5],
                             "values": [[-1.5, -0.5], [1 / 6, 0.5], [-7 / 6, -5 / 6]]})

_CONTRACT = [
    pytest.param(["diffusion", "--map", f'{{"type":"linear","lambda":{_HUGE}}}'],
                 2, "integer of 401 characters is too large for a double", id="huge-integer"),
    pytest.param(["scan", "--from", "3", "--to", "1e300", "--step", "1e-300", "--N", "10",
                  "--n", "2"], 2, "scan grid of inf points exceeds 10000", id="scan-unbounded"),
    # lam xi = 7 + xi and lam / 2 = 8 - xi: the root puts xi on 1/2, a cell end
    pytest.param(["solve-partition", "--system",
                  _system({"const": 7, "coef": 1, "ref": "xi"},
                          {"const": 8, "coef": -1, "ref": "xi"})],
                 2, "solved breakpoint xi = 0.5 lies outside (0, 1/2)", id="boundary-breakpoint"),
    # the input is at fault, not a method: exit 2, not 3
    pytest.param(["solve-partition", "--three-interval", f"1,{_HUGE},1,1"],
                 2, "the largest real root exceeds the largest double", id="three-interval-huge"),
    # lam / 2 = 1e308 - xi: the slope is no double
    pytest.param(["solve-partition", "--system",
                  _system({"const": 0.5}, {"const": 1e308, "coef": -1, "ref": "xi"})],
                 2, "the largest real root exceeds the largest double", id="system-beyond"),
    # maps and partitions share one breakpoint rule: a NaN end is not snapped to -1/2
    pytest.param(["diffusion", "--method", "closed-form", "--map",
                  '{"type":"pieces","breakpoints":[NaN,0.0,0.5],'
                  '"values":[[-1.5,1.5],[-1.5,1.5]]}'],
                 2, "map breakpoints (nan, 0.0, 0.5) are not all finite", id="nan-map"),
    pytest.param(["solve-partition", "--system",
                  _system({"const": "1/2"}, {"const": 2, "coef": -1, "ref": "xi"})],
                 2, "constant '1/2' is neither integer nor half-integer", id="string-constant"),
    pytest.param(["diffusion", "--map", "linear", "lambda=2+sqrt(3)", "--partition",
                  "[-0.5,0.5]", "--partition-system", json.dumps(EXAMPLE_SYSTEM),
                  "--method", "spectral"],
                 2, "pass at most one of --partition or --partition-system", id="two-partitions"),
    pytest.param(["scan", "--lambda-grid", ",", "--N", "100", "--n", "5"],
                 2, "--lambda-grid ',' holds no point", id="empty-grid"),
    # the lambda = 2 + sqrt(3) partition rounded to 10 digits loses mass
    pytest.param(["diffusion", "--map", "linear", "lambda=2+sqrt(3)", "--partition",
                  "[-0.5,-0.1339745962,0.1339745962,0.5]", "--method", "spectral"],
                 2, "mass conservation violated by", id="ten-digits"),
    # the ends miss the half-integer grid by 4e-10, and are not snapped onto it
    pytest.param(["diffusion", "--map", "linear", "lambda=3.0000000008", "--method",
                  "closed-form"],
                 2, "closed form requires half-integer values at all piece endpoints",
                 id="off-grid"),
    pytest.param(["scan", "--from", "nan", "--to", "5", "--N", "10", "--n", "2"],
                 2, "--from must be a finite number, not nan", id="scan-nan"),
    # the finite-number rule of real options runs before numpy loads, like the counts'
    pytest.param(["scan", "--from", "inf", "--to", "5"],
                 2, "--from must be a finite number, not inf", id="scan-inf"),
    pytest.param(["billiard", "--lambda", "nan"],
                 2, "--lambda must be a finite number, not nan", id="billiard-nan-lambda"),
    # f(x) = x does not diffuse: the Gaussian profile has no width
    pytest.param(["evolve", "--map", "linear", "lambda=1", "--checkpoints", "10"],
                 2, "the map's spectral D is 0.0: evolve needs D > 0", id="evolve-no-diffusion"),
    pytest.param(["solve-partition", "--three-interval", "1,100000,1,1"], 0, "",
                 id="three-interval-large-n"),
    # evolve and billiard share one --checkpoints rule; '' is no list, not the default
    pytest.param(["evolve", "--map", "linear", "lambda=3", "--checkpoints", ""],
                 2, "--checkpoints '' is not a list of positive step counts",
                 id="evolve-checkpoints-empty"),
    pytest.param(["billiard", "--lambda", "3", "--checkpoints", ""],
                 2, "--checkpoints '' is not a list of positive step counts",
                 id="billiard-checkpoints-empty"),
    pytest.param(["evolve", "--map", "linear", "lambda=3", "--checkpoints", "10,0"],
                 2, "--checkpoints '10,0' is not a list of positive step counts",
                 id="evolve-checkpoints-zero"),
    pytest.param(["billiard", "--lambda", "3", "--checkpoints", "0"],
                 2, "--checkpoints '0' is not a list of positive step counts",
                 id="billiard-checkpoints-zero"),
    # seeds and counts obey one integer rule, checked before the command runs
    pytest.param(["simulate", "--map", "linear", "lambda=3", "--N", "1"],
                 2, "--N must be an integer >= 2, not 1", id="simulate-one-sample"),
    pytest.param(["simulate", "--map", "linear", "lambda=3", "--n", "0"],
                 2, "--n must be an integer >= 1, not 0", id="simulate-no-step"),
    pytest.param(["billiard", "--lambda", "3", "--checkpoints", "0,5"],
                 2, "--checkpoints '0,5' is not a list of positive step counts",
                 id="billiard-checkpoint-zero-of-two"),
    # a scan of one sample no longer writes a NaN row
    pytest.param(["scan", "--from", "3", "--to", "3", "--N", "1", "--n", "5"],
                 2, "--N must be an integer >= 2, not 1", id="scan-one-sample"),
    # nor does --method all report the Monte Carlo failure of one sample
    pytest.param(["diffusion", "--map", "linear", "lambda=3", "--method", "all", "--N", "1"],
                 2, "--N must be an integer >= 2, not 1", id="diffusion-one-sample"),
    pytest.param(["billiard", "--lambda", "3", "--seed", "-1"],
                 2, "seed must be an integer >= 0, not -1", id="negative-seed"),
    # no cell maps into cell 0, so the stationary density vanishes there
    pytest.param(["diffusion", "--map", _TRANSIENT_MAP, "--method", "spectral"],
                 3, "cell 0 cannot be reached from cell 1; the transfer matrix is reducible",
                 id="transient-cell"),
    # the usage errors of --map, --three-interval and the scan grid
    pytest.param(["diffusion", "--map", '{"type":"linear","lambda":3}', "extra"],
                 2, "unexpected extra tokens after JSON map spec", id="map-extra-token"),
    pytest.param(["diffusion", "--map", "linear", "lambda3"],
                 2, "map argument 'lambda3' is not key=value", id="map-not-key-value"),
    pytest.param(["solve-partition", "--three-interval", "1,2,x"],
                 2, "--three-interval expects 'm,n,eps1,eps2'", id="three-interval-not-integer"),
    pytest.param(["scan", "--from", "3", "--to", "5", "--step", "0"],
                 2, "--step must be positive", id="scan-zero-step"),
    pytest.param(["scan", "--to", "5"],
                 2, "pass --lambda-grid or both --from and --to", id="scan-no-from"),
    # every field of a map spec but its type is a number, and a bool is none
    pytest.param(["simulate", "--map", '{"type":"zigzag","p":true,"xi":0.25}'],
                 2, "p must be an integer >= 1, not True", id="zigzag-bool-p"),
    pytest.param(["simulate", "--map", "zigzag", "p=1.0", "xi=0.25"],
                 2, "p must be an integer >= 1, not 1.0", id="zigzag-float-p"),
    pytest.param(["simulate", "--map", '{"type":"zigzag","p":1,"xi":false}'],
                 2, "xi must be a finite number, not False", id="zigzag-bool-xi"),
    pytest.param(["simulate", "--map", '{"type":"linear","lambda":true}'],
                 2, "lam must be a finite number, not True", id="linear-bool-lambda"),
    pytest.param(["simulate", "--map", '{"type":"pieces","breakpoints":[-0.5,0.5],'
                  '"values":[[-1.5,true]]}'],
                 2, "map value must be a finite number, not True", id="pieces-bool-value"),
    pytest.param(["simulate", "--map", '{"type":"pieces","breakpoints":[-0.5,false,0.5],'
                  '"values":[[-1.5,1.5],[-1.5,1.5]]}'],
                 2, "map breakpoints must be real numbers, not [-0.5, False, 0.5]",
                 id="pieces-bool-breakpoint"),
    pytest.param(["simulate", "--map", '{"type":"linear","lambda":3,"name":"three"}'],
                 2, "cannot parse algebraic constant 'three'", id="map-text-field"),
    pytest.param(["diffusion", "--map", "linear", "lambda=3", "--method", "spectral",
                  "--partition", "[-0.5,false,0.5]"],
                 2, "partition breakpoints must be real numbers, not [-0.5, False, 0.5]",
                 id="partition-bool"),
    pytest.param(["diffusion", "--map", "linear", "lambda=3", "--method", "spectral",
                  "--partition", "5"],
                 2, "partition breakpoints must be real numbers, not 5", id="partition-number"),
]


@pytest.mark.parametrize("argv,code,fragment", _CONTRACT)
def test_cli_contract(capsys, argv, code, fragment):
    got, out, err = run(capsys, *argv)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error[numerical]: " if code == 3 else "error[validation]: ")
        assert err.count("\n") == 1 and fragment in err
    else:
        assert (err, out.endswith("\n")) == ("", True)


# ---------------------------------------------------------------------------
# scan / simulate / evolve / billiard
# ---------------------------------------------------------------------------


def test_scan_grid_rows(capsys):
    code, out, _ = run(capsys, "scan", "--from", "3", "--to", "5", "--step", "0.25",
                       "--N", "500", "--n", "10")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# detdiff=")
    assert lines[1] == "lambda,d_mc,stderr,d_heuristic,d_omega,ks"
    assert len(lines) == 2 + 9


@pytest.mark.parametrize("lo,to,step,count", [
    ("3", "5", "0.3", 7),        # 3 + 7 * 0.3 = 5.1 passes --to
    ("3", "3.6", "1", 1),        # 3 + 1 = 4 passes --to
    ("3", "4.2", "0.1", 13),     # span 12.000000000000002
    ("0.1", "0.3", "0.1", 3),    # span 1.9999999999999996 keeps its end point
    ("3", "5", "0.25", 9),
])
def test_scan_grid_stays_inside_to(capsys, lo, to, step, count):
    code, out, _ = run(capsys, "scan", "--from", lo, "--to", to, "--step", step,
                       "--N", "200", "--n", "3")
    assert code == 0
    lams = [float(line.split(",")[0]) for line in out.strip().split("\n")[2:]]
    assert len(lams) == count
    assert lams[-1] == float(lo) + (count - 1) * float(step)
    assert lams[-1] <= float(to) + 1e-12


def test_scan_rejects_a_descending_range(capsys):
    code, out, err = run(capsys, "scan", "--from", "5", "--to", "3", "--N", "500", "--n", "10")
    assert code == 2
    assert out == ""
    assert err == "error[validation]: --to 3.0 is below --from 5.0\n"
    code, out, _ = run(capsys, "scan", "--from", "3", "--to", "3", "--N", "500", "--n", "10")
    assert code == 0
    assert out.strip().split("\n")[2].startswith("3.0,")
    assert len(out.strip().split("\n")) == 3


@pytest.mark.parametrize("to,step,count", [("1e300", "1e-300", "inf"), ("1e12", "1e-3", "1e+15")])
def test_scan_rejects_a_grid_past_the_point_limit(capsys, monkeypatch, to, step, count):
    def no_grid(*_):
        pytest.fail("the grid was built")

    monkeypatch.setattr(cli, "range", no_grid, raising=False)   # shadows the builtin in cli
    code, out, err = run(capsys, "scan", "--from", "3", "--to", to, "--step", step,
                         "--N", "10", "--n", "2")
    assert code == 2
    assert out == ""
    assert err == f"error[validation]: scan grid of {count} points exceeds 10000\n"


@pytest.mark.parametrize("bounds,message", [
    (["--from", "nan", "--to", "5"], "--from must be a finite number, not nan"),
    (["--from=-inf", "--to", "5"], "--from must be a finite number, not -inf"),
    (["--from", "3", "--to", "nan"], "--to must be a finite number, not nan"),
    (["--from", "3", "--to", "inf"], "--to must be a finite number, not inf"),
    (["--from", "3", "--to", "5", "--step", "nan"], "--step must be a finite number, not nan"),
    (["--from", "3", "--to", "5", "--step", "inf"], "--step must be a finite number, not inf"),
], ids=["from-nan", "from-minus-inf", "to-nan", "to-inf", "step-nan", "step-inf"])
def test_scan_rejects_a_non_finite_bound(capsys, bounds, message):
    # NaN passed every range check, and a step of inf made a NaN lambda
    code, out, err = run(capsys, "scan", *bounds, "--N", "10", "--n", "2")
    assert (code, out) == (2, "")
    assert err == f"error[validation]: {message}\n"


@pytest.mark.parametrize("argv", [
    ["scan", "--from", "-1e3", "--to", "-999", "--step", "0.5", "--N", "200", "--n", "3"],
    ["scan", "--from", "-inf", "--to", "5"],
    ["scan", "--lambda-grid", "-3,-2.5", "--N", "200", "--n", "3"],
    ["billiard", "--lambda", "-1e2", "--N", "200", "--n", "10"],
    ["billiard", "--lambda", "-2-sqrt(3)", "--N", "200", "--n", "10"],
], ids=["from-exponent", "from-minus-inf", "negative-grid", "lambda-exponent", "lambda-surd"])
def test_a_negative_option_value_reads_as_with_equals(capsys, argv):
    # argparse alone takes '-1e3' or '-inf' for an option, not a value
    joined = [*argv[:1], f"{argv[1]}={argv[2]}", *argv[3:]]
    spaced = run(capsys, *argv)
    assert spaced == run(capsys, *joined)
    assert spaced[0] == 0 or spaced == (
        2, "", "error[validation]: --from must be a finite number, not -inf\n")


@pytest.mark.parametrize("grid", [",", " , ,"])
def test_scan_rejects_an_empty_grid(capsys, grid):
    # a header-only CSV is no scan
    code, out, err = run(capsys, "scan", "--lambda-grid", grid, "--N", "100", "--n", "5")
    assert (code, out) == (2, "")
    assert err == f"error[validation]: --lambda-grid {grid!r} holds no point\n"


def test_scan_explicit_grid(capsys):
    code, out, _ = run(capsys, "scan", "--lambda-grid", "3,2+sqrt(3)",
                       "--N", "500", "--n", "10")
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_scan_reports_an_overflowing_point_as_nan(capsys):
    code, out, err = run(capsys, "scan", "--lambda-grid", "3,1e160", "--N", "2000", "--n", "10")
    assert code == 0
    assert err == ("error[numerical]: scan point lambda=1e+160: "
                   "OverflowError: ensemble moments overflow double precision\n")
    lines = out.strip().split("\n")
    assert lines[3] == "1e+160,nan,nan,nan,nan,nan"
    code, alone, _ = run(capsys, "scan", "--lambda-grid", "3", "--N", "2000", "--n", "10")
    assert alone.strip().split("\n") == lines[:3]


def test_scan_rejects_a_bad_thread_count(tmp_path, capsys, monkeypatch):
    out = tmp_path / "scan.csv"
    for env, shown in (("abc", "'abc'"), ("0", "0")):
        monkeypatch.setenv("DETDIFF_THREADS", env)
        code, _, err = run(capsys, "scan", "--from", "3", "--to", "3.5", "--N", "1000",
                           "--n", "5", "--out", str(out))
        assert code == 2
        assert err == f"error[validation]: DETDIFF_THREADS must be an integer >= 1, not {shown}\n"
        assert not out.exists()


def test_simulate_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--map", '{"type":"linear","lambda":3}',
                       "--N", "2000", "--n", "20")
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[1].split(",")
    assert header == ["n_samples", "n_steps", "mean", "variance", "d_estimate",
                      "drift_estimate", "d_stderr", "ks_statistic"]
    values = lines[2].split(",")
    assert int(values[0]) == 2000


def test_simulate_a_zero_variance_ensemble_warns_nothing():
    # every sample stays at 0: the KS statistic is NaN, with no warning
    # that -W error would turn into a traceback
    src = str(Path(detdiff.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "detdiff.cli", "simulate",
         "--map", "linear", "lambda=1e-300", "--N", "100", "--n", "5"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[2].endswith(",nan")


def test_evolve_trace_and_snapshots(capsys, tmp_path):
    prefix = tmp_path / "run"
    code, out, _ = run(capsys, "evolve", "--map", '{"type":"linear","lambda":3}',
                       "--checkpoints", "5,20", "--out", str(prefix))
    assert code == 0
    trace = (tmp_path / "run-trace.csv").read_text()
    lines = trace.strip().split("\n")
    assert lines[1] == "n,kolmogorov_distance"
    d5 = float(lines[2].split(",")[1])
    d20 = float(lines[3].split(",")[1])
    assert d20 < d5
    snap = (tmp_path / "run-n5.csv").read_text()
    assert snap.splitlines()[1] == "k,j,density,mass"
    masses = [float(r.split(",")[3]) for r in snap.splitlines()[2:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)


def test_billiard_csv(capsys):
    code, out, _ = run(capsys, "billiard", "--lambda", "2", "--N", "2000",
                       "--n", "80", "--seed", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "checkpoint,variance,theoretical_variance,exponent_so_far"
    last = lines[-1].split(",")
    assert int(last[0]) == 80
    assert 1.5 < float(last[3]) < 4.0


# ---------------------------------------------------------------------------
# determinism of written reports
# ---------------------------------------------------------------------------


def test_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "simulate", "--map", '{"type":"linear","lambda":3}',
                         "--N", "3000", "--n", "15", "--seed", "4",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for path in (c, d):
        code, _, _ = run(capsys, "diffusion", "--map",
                         '{"type":"linear","lambda":5}', "--method", "all",
                         "--N", "3000", "--n", "15", "--out", str(path))
        assert code == 0
    assert c.read_bytes() == d.read_bytes()


# the detdiff modules loaded in a fresh interpreter: `import detdiff.cli`
# loads only what every subcommand needs, and each subcommand adds its own
_CLI_MODULES = {"cli", "errors", "reports"}
_LIST_MODULES = "print(*sorted(m[8:] for m in sys.modules if m.startswith('detdiff.')))"


def test_cli_import_does_not_load_scipy(fresh_python, tmp_path):
    out = fresh_python(
        "import sys, detdiff.cli; print(*[m for m in "
        "('scipy', 'concurrent.futures', 'logging', '_hashlib') if m in sys.modules])")
    # nor the thread pool's modules: only a run on several workers imports
    # them; nor OpenSSL's _hashlib: only a command that hashes its input does
    assert out.strip() == ""
    assert fresh_python("import sys, detdiff; " + _LIST_MODULES).split() == []
    assert set(fresh_python("import sys, detdiff.cli; " + _LIST_MODULES).split()) \
        == _CLI_MODULES
    assert fresh_python(
        "import sys; from detdiff.cli import main; "
        "assert main(sys.argv[1:]) == 0; print('_hashlib' in sys.modules)",
        "solve-partition", "--three-interval", "1,2,1,-1",
        "--out", str(tmp_path / "out")).strip() == "False"


# argument lists that end main() before any numeric import: in argparse, at
# the integer rule of seeds, counts and checkpoints, or at a usage error; each
# exits 0 if it asks for --help, else 2
_PARSE_ONLY = [
    ["--help"],
    *([command, "--help"] for command in
      ("solve-partition", "diffusion", "scan", "evolve", "simulate", "billiard")),
    ["scan", "--N", "abc"],
    ["billiard", "--lambda", "3", "--seed", "-1"],
    ["simulate", "--map", "linear", "lambda=3", "--N", "1"],
    ["simulate", "--map", "linear", "lambda=3", "--n", "0"],
    ["billiard", "--lambda", "3", "--checkpoints", "0,5"],
    ["scan", "--from", "3", "--to", "3", "--N", "1", "--n", "5"],
    ["scan", "--from", "inf", "--to", "5"],
    ["billiard", "--lambda", "nan"],
    ["solve-partition"],
    ["solve-partition", "--three-interval", "1,2,1,-1", "--system", "{}"],
    ["solve-partition", "--three-interval", "1,2"],
    ["solve-partition", "--system", "{"],
]


def test_cli_front_end_does_not_load_numpy(fresh_python):
    # numpy loads with the first command that computes, not with the front end
    out = fresh_python(
        "import contextlib, io, json, sys\n"
        "import detdiff.cli\n"
        "print('numpy' in sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            code = detdiff.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code, 'numpy' in sys.modules)\n",
        json.dumps(_PARSE_ONLY))
    assert out.splitlines() == ["False"] + [f"{0 if '--help' in argv else 2} False"
                                            for argv in _PARSE_ONLY]


def test_checkpoints_are_checked_before_any_numeric_import(fresh_python):
    out = fresh_python(
        "import sys; from detdiff.cli import main\n"
        "assert main(['evolve', '--map', 'linear', 'lambda=3', '--checkpoints', '0']) == 2\n"
        "assert main(['billiard', '--lambda', '3', '--checkpoints', '']) == 2\n"
        "print('numpy' in sys.modules)\n")
    assert out.split() == ["False"]


@pytest.mark.parametrize("seed,valid", [
    (-1, False), (0, True), ((1 << 128) - 1, True), (1 << 128, False),
])
def test_seed_range_is_checked_at_parse_time(capsys, seed, valid):
    # lambda = 4 is dithered: its dither key seed ^ _DITHER_KEY_SALT must fit too
    argv = ["simulate", "--map", "linear", "lambda=4", "--N", "50", "--n", "30",
            "--seed", str(seed)]
    code, out, err = run(capsys, *argv)
    if valid:
        assert code == 0
        assert out.startswith("# detdiff=1.0.0 map=") and f" seed={seed}\n" in out
    else:
        # checked with the counts, before the command runs, in the contract's one line
        assert (code, out) == (2, "")
        assert err == ("error[validation]: seed must be an integer >= 0, not -1\n" if seed < 0
                       else f"error[validation]: seed must be in [0, 2**128), not {seed}\n")


# the eight README commands at small N
_README_COMMANDS = [
    ["diffusion", "--map", '{"type":"linear","lambda":3}', "--method", "all",
     "--N", "1000", "--n", "5"],
    ["diffusion", "--map", "linear", "lambda=2+sqrt(3)",
     "--partition-system", json.dumps(EXAMPLE_SYSTEM), "--method", "spectral"],
    ["solve-partition", "--three-interval", "1,2,1,-1"],
    ["solve-partition", "--system", json.dumps(EXAMPLE_SYSTEM)],
    ["scan", "--from", "3", "--to", "5", "--step", "0.25", "--N", "1000", "--n", "5"],
    ["evolve", "--map", '{"type":"linear","lambda":3}', "--checkpoints", "10,50,100,500"],
    ["simulate", "--map", '{"type":"zigzag","p":1,"xi":0.25}', "--N", "1000", "--n", "5"],
    ["billiard", "--lambda", "3", "--N", "1000", "--n", "20"],
]


def test_matrices_and_commands_do_not_load_numpy_ma(fresh_python, tmp_path):
    # np.unique, behind np.union1d, imports numpy.ma: 15-23 ms cold
    out = fresh_python(
        "import json, sys; import detdiff as dd; from detdiff.cli import main\n"
        "case = dd.CASES['two-plus-sqrt3']\n"
        "dd.build_transition_matrices(case.lift_map(), case.partition())\n"
        "print('numpy.ma' in sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main([*argv, '--out', sys.argv[2]]) == 0, argv\n"
        "    print('numpy.ma' in sys.modules)\n",
        json.dumps(_README_COMMANDS), str(tmp_path / "out"))
    assert out.split() == ["False"] * (1 + len(_README_COMMANDS))


@pytest.mark.parametrize("argv,modules", [
    (["solve-partition", "--three-interval", "1,2,1,-1"], {"partition"}),
    (["solve-partition", "--system", json.dumps(EXAMPLE_SYSTEM)], {"partition"}),
    (["simulate", "--map", '{"type":"zigzag","p":1,"xi":0.25}', "--N", "1000", "--n", "5"],
     {"maps", "montecarlo", "rng"}),
    (["billiard", "--lambda", "3", "--N", "1000", "--n", "5"],
     {"maps", "montecarlo", "billiard", "rng"}),
    (["scan", "--from", "3", "--to", "3.5", "--N", "1000", "--n", "5"],
     {"maps", "montecarlo", "density", "rng"}),
    (["evolve", "--map", '{"type":"linear","lambda":3}', "--checkpoints", "10"],
     {"maps", "partition", "transfer", "density"}),
    (["diffusion", "--map", '{"type":"linear","lambda":3}', "--N", "1000", "--n", "5"],
     {"maps", "partition", "transfer", "density", "montecarlo", "rng"}),
], ids=["solve-partition", "solve-partition-system", "simulate", "billiard", "scan", "evolve",
        "diffusion"])
def test_command_loads_only_its_modules(fresh_python, tmp_path, argv, modules):
    out = fresh_python(
        "import sys; from detdiff.cli import main; "
        "assert main(sys.argv[1:]) == 0; " + _LIST_MODULES + "; print('numpy' in sys.modules)",
        *argv, "--out", str(tmp_path / "out"))
    listed, numpy_loaded = out.splitlines()
    assert set(listed.split()) == _CLI_MODULES | modules
    # the exact partition layer alone runs without numpy
    assert numpy_loaded == str(modules != {"partition"})


def test_exact_layer_loads_no_numpy(fresh_python):
    out = fresh_python("import sys, detdiff.partition; " + _LIST_MODULES
                       + "; print('numpy' in sys.modules)")
    assert out.splitlines() == ["errors partition reports", "False"]


def test_exact_layer_imports_nothing_above_reports():
    # every import of the partition module, at module level or inside a function
    tree = ast.parse(Path(detdiff.partition.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "dataclasses", "fractions", "math", "sys", "typing",
                        ".", ".errors", ".reports"}
