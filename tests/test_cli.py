import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mlerisk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_risk_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "risk", "--error", "normal", "--xpreset", "normal", "--p", "10",
        "--alpha", "-1", "--n", "120",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q_exact"] == ["137/8", "145/12", "-185/8"]
    assert payload["ed"] == pytest.approx(6 / 120 - 217 / (12 * 120**2), rel=1e-14)
    assert payload["moments"] == {"p": 10, "M2a": 0.0, "M2b": 0.0, "M1": 120.0}


def test_risk_roundtrip_via_aggregated_moments(capsys):
    code, out, _ = run_cli(capsys, "risk", "--error", "t:3", "--xpreset", "pareto", "--p", "10")
    first = json.loads(out)
    m = first["moments"]
    code, out, _ = run_cli(
        capsys,
        "risk", "--error", "t:3", "--p", "10",
        "--aggregated", f"M2a={m['M2a']},M2b={m['M2b']},M1={m['M1']}",
    )
    second = json.loads(out)
    assert second["q"] == pytest.approx(first["q"], rel=1e-12)
    assert second["validity_n_min"] == first["validity_n_min"]


def test_exactly_one_moment_source_enforced(capsys):
    code, _, err = run_cli(
        capsys,
        "risk", "--error", "normal", "--p", "10",
        "--xpreset", "normal", "--homogeneous", "m4=3,m22=1",
    )
    assert code == 2
    assert "exactly one moment source" in json.loads(err)["error"]
    code, _, err = run_cli(capsys, "risk", "--error", "normal", "--p", "10")
    assert code == 2


def test_bad_error_model_is_config_error(capsys):
    code, _, err = run_cli(capsys, "risk", "--error", "laplace", "--xpreset", "normal", "--p", "3")
    assert code == 2
    assert json.loads(err)["kind"] == "config"


def test_numeric_failure_exit_code(capsys):
    # Pareto benchmark cannot be matched with the benchmark cap this low
    code, _, err = run_cli(
        capsys,
        "rss", "--error", "normal", "--xpreset", "pareto", "--p", "10", "--k-max", "30",
    )
    assert code == 3
    assert json.loads(err)["kind"] == "numeric"


def test_ide_star_rendering(capsys):
    code, out, _ = run_cli(capsys, "ide", "--error", "normal", "--xpreset", "normal", "--p", "10")
    payload = json.loads(out)
    assert payload["ide"] == "*"


def test_rss_output(capsys):
    code, out, _ = run_cli(capsys, "rss", "--error", "normal", "--xpreset", "normal", "--p", "10")
    payload = json.loads(out)
    assert payload["rss"]["n"] == 111 and payload["rss"]["k"] == 10


def test_coin_equiv(capsys):
    code, out, _ = run_cli(
        capsys,
        "coin-equiv", "--error", "normal", "--p", "11",
        "--aggregated", "M2a=0.000326899,M2b=0.000230836,M1=0.116967",
        "--n-actual", "4898",
    )
    payload = json.loads(out)
    assert payload["coin_equiv"] in (376, 377)


def test_eta_dump(capsys):
    code, out, _ = run_cli(capsys, "eta", "dump", "--error", "t:3")
    payload = json.loads(out)
    assert payload["0,0,2,0"]["value"] == pytest.approx(2 / 3)
    assert payload["0,0,2,0"]["exact"] == "2/3"
    assert payload["0,0,2,0"]["method"] == "closed_form"


def test_moments_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 2))
    lines = ["a,b"] + [f"{u},{v}" for u, v in x]
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "moments", str(path))
    payload = json.loads(out)
    assert payload["n"] == 50 and payload["p"] == 2
    from mlerisk.data_moments import load_csv, standardize
    from sample_oracles import aggregates_brute_force

    std = standardize(load_csv(path))
    slow = aggregates_brute_force(std.scores)
    for key in ("M2a", "M2b", "M1"):
        assert payload[key] == pytest.approx(slow[key], rel=1e-10)


def test_series_csv_contract(capsys):
    code, out, _ = run_cli(
        capsys,
        "series", "--error", "normal", "--xpreset", "normal", "--p", "10",
        "--k-min", "5", "--k-max", "30",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "k,ed_regression,ed_binomial"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows[0][0] == 5 and rows[-1][0] == 30
    # regression column decreasing beyond the validity region (here everywhere >= k=5?)
    ks = [r[0] for r in rows]
    eds = {k: e for k, e, _ in rows}
    from mlerisk.expansion import risk_expansion
    from mlerisk.eta import build_eta_table
    from mlerisk.error_models import normal_error
    from mlerisk.moments import x_preset

    exp = risk_expansion(build_eta_table(normal_error()), x_preset("normal", 10))
    valid_ks = [k for k in ks if 12 * k >= exp.validity_n_min]
    series = [eds[k] for k in valid_ks]
    assert all(a > b for a, b in zip(series, series[1:]))
    # spot value: k=10 -> n=120
    assert eds[10] == pytest.approx(6 / 120 - 217 / (12 * 120**2), rel=1e-12)


def test_risk_flags_n_below_validity(capsys):
    argv = ["risk", "--error", "normal", "--xpreset", "t", "--p", "10", "--alpha", "-1"]
    n_min = json.loads(run_cli(capsys, *argv)[1])["validity_n_min"]
    for n, below in ((n_min - 1, True), (n_min, False)):
        code, out, _ = run_cli(capsys, *argv, "--n", str(n))
        assert code == 0
        assert json.loads(out)["below_validity"] is below


@pytest.mark.parametrize("preset", ["table1", "table2", "table3", "table4", "table5"])
def test_table_output_does_not_depend_on_the_coefficient_error(capsys, monkeypatch, preset):
    from mlerisk import cli

    code, without, _ = run_cli(capsys, "table", "--preset", preset)
    assert code == 0
    full = cli.risk_expansion
    monkeypatch.setattr(cli, "risk_expansion", lambda table, moments, **_: full(table, moments, with_error=True))
    assert run_cli(capsys, "table", "--preset", preset) == (0, without, "")


def test_table1(capsys):
    code, out, _ = run_cli(capsys, "table", "--preset", "table1")
    payload = json.loads(out)
    got = [(r["ide"], r["rss"], r["benchmark_k"]) for r in payload["rows"]]
    assert got[0] == ("*", 111, 10)
    assert got[2][1] in (112, 113) and got[2][2] == 10
    assert got[3] == ("*", 741, 110)


def test_validate_smoke(capsys):
    code, out, _ = run_cli(
        capsys,
        "validate", "--error", "normal", "--xdist", "normal", "--p", "1",
        "--n", "60", "--alpha", "-1", "--reps", "60", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["replications_used"] == 60
    assert payload["mc_mean"] > 0
    assert payload["expansion"] > 0
    assert abs(payload["z"]) < 6


def test_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "mlerisk.cli", "risk", "--error", "normal",
         "--xpreset", "controlled", "--p", "2", "--compact"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 2


@pytest.mark.parametrize(
    "argv,name",
    [
        (["rss", "--xpreset", "t", "--k-step", "0"], "k_step"),
        (["rss", "--xpreset", "t", "--k-step", "-10"], "k_step"),
        (["series", "--xpreset", "normal", "--k-min", "10", "--k-max", "5"], "--k-max"),
        (["series", "--xpreset", "normal", "--k-min", "0"], "--k-min"),
        (["rss", "--xpreset", "normal", "--k-max", "5"], "k_max"),
    ],
)
def test_empty_or_endless_k_range_is_config_error(argv, name):
    proc = subprocess.run(
        [sys.executable, "-m", "mlerisk.cli", *argv, "--error", "normal", "--p", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert name in json.loads(proc.stderr)["error"]


@pytest.mark.parametrize(
    "logf",
    ["(" * 400 + "-y^2/2" + ")" * 400, "-y^2/2" + " + 0*y" * 1500],
    ids=["400-nested-parentheses", "1500-terms"],
)
@pytest.mark.parametrize(
    "argv", [["risk", "--xpreset", "normal", "--p", "3"], ["eta", "dump"]], ids=["risk", "eta"]
)
def test_pathological_custom_density_is_config_error(tmp_path, logf, argv):
    path = tmp_path / "density.txt"
    path.write_text(f"logf = {logf}\nd1 = -y\nd2 = -1\nd3 = 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mlerisk.cli", *argv, "--error", f"custom:{path}"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    error = json.loads(proc.stderr)
    assert error["kind"] == "config"
    assert "line 1" in error["error"]


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_delimiter_must_be_one_character(tmp_path, capsys, delimiter):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,5\n4,4\n")
    code, out, err = run_cli(capsys, "moments", str(path), "--delimiter", delimiter)
    assert code == 2
    assert out == ""
    assert "delimiter" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "source,name",
    [
        (["--xpreset", "normal:5"], "normal"),
        (["--xpreset", "controlled:7"], "controlled"),
        (["--aggregated", "M2a=1,M2a=0,M2b=0,M1=4"], "M2a"),
        (["--homogeneous", "m4=3,m22=1,m4=2"], "m4"),
    ],
)
def test_moment_source_input_is_not_dropped(capsys, source, name):
    code, out, err = run_cli(capsys, "risk", "--error", "normal", "--p", "2", *source)
    assert code == 2
    assert out == ""
    assert name in json.loads(err)["error"]


def test_missing_tokens_default_and_explicit_empty(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n3,?\n4,4\n2,7\n5,1\n")
    code, out, _ = run_cli(capsys, "moments", str(path))
    assert code == 0
    assert json.loads(out)["dropped_rows"] == 1
    # an explicit empty list asks for no missing tokens: '?' is then a bad value
    code, out, err = run_cli(capsys, "moments", str(path), "--missing", "")
    assert code == 2
    assert out == ""
    assert "non-numeric value '?'" in json.loads(err)["error"]


def test_unknown_drop_column_is_config_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("a,b,c\n1,2,0\n3,5,1\n4,4,0\n2,7,2\n5,1,1\n")
    code, out, err = run_cli(capsys, "moments", str(path), "--drop", "b,nosuch")
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert "'nosuch'" in error["error"] and "'b'" not in error["error"]


@pytest.mark.parametrize(
    "argv,kind,name",
    [
        (["risk", "--p", "10", "--aggregated", "M2a=0,M2b=0,M1=inf"], "config", "M1 must be finite"),
        (["risk", "--p", "10", "--aggregated", "M2a=0,M2b=inf,M1=200"], "config", "M2b must be finite"),
        (["risk", "--p", "10", "--homogeneous", "m4=inf,m22=1"], "config", "m4 must be finite"),
        (["risk", "--p", "10", "--aggregated", "M2a=0,M2b=1e308,M1=1e308"], "numeric", "validity region"),
        (["risk", "--p", "10", "--xpreset", "normal", "--alpha", "nan"], "config", "--alpha"),
        (["ide", "--p", "10", "--xpreset", "normal", "--alpha", "inf"], "config", "--alpha"),
        (["rss", "--p", "10", "--xpreset", "normal", "--alpha", "nan"], "config", "--alpha"),
        (["series", "--p", "10", "--xpreset", "normal", "--alpha=-inf"], "config", "--alpha"),
        (["validate", "--xdist", "normal", "--p", "1", "--n", "50", "--reps", "5", "--alpha", "nan"],
         "config", "--alpha"),
    ],
    ids=["M1-inf", "M2b-inf", "m4-inf", "validity-beyond-cap", "risk-alpha-nan", "ide-alpha-inf",
         "rss-alpha-nan", "series-alpha-minus-inf", "validate-alpha-nan"],
)
def test_non_finite_input_ends_in_a_clean_exit(argv, kind, name):
    proc = subprocess.run(
        [sys.executable, "-m", "mlerisk.cli", *argv, "--error", "normal"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == {"config": 2, "numeric": 3}[kind]
    assert proc.stdout == ""
    error = json.loads(proc.stderr)
    assert error["kind"] == kind
    assert name in error["error"]


@pytest.mark.parametrize(
    "argv,name",
    [
        (["risk", "--error", "skew-normal:3", "--xpreset", "normal", "--p", "3", "--tol", "nan"],
         "argument --tol: the value must be finite (a number such as 3, 4.2 or 21/5), got 'nan'"),
        (["risk", "--error", "skew-normal:3", "--xpreset", "normal", "--p", "3", "--tol", "inf"],
         "argument --tol: the value must be finite (a number such as 3, 4.2 or 21/5), got 'inf'"),
        (["risk", "--error", "skew-normal:3", "--xpreset", "normal", "--p", "3", "--tol", "0"], "tol"),
        (["eta", "dump", "--error", "skew-normal:3", "--tol", "nan"],
         "argument --tol: the value must be finite (a number such as 3, 4.2 or 21/5), got 'nan'"),
        (["risk", "--error", "normal", "--homogeneous", "m4=3,m22=1,m3=1e200", "--p", "10"], "m3_squared"),
        (["risk", "--error", "normal", "--aggregated", "M2a=1e400,M2b=0,M1=121", "--p", "10"], "M2a"),
        (["validate", "--error", "normal", "--xdist", "normal", "--p", "1", "--n", "50", "--reps", "5",
          "--divergence-sample", "0"], "divergence_sample"),
    ],
    ids=["tol-nan", "tol-inf", "tol-zero", "eta-tol-nan", "m3-squared-overflows", "M2a-overflows",
         "divergence-sample-zero"],
)
def test_out_of_range_input_is_refused_by_name(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert error["error"].startswith(name)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["validate", "--sigma", "nan"], "argument --sigma"),
        (["validate", "--sigma", "inf"], "argument --sigma"),
        (["validate", "--beta", "nan,0"], "argument --beta"),
        (["validate", "--xdist", "t", "--xdist-param", "nan"], "argument --xdist-param"),
        (["validate", "--xdist", "pareto", "--xdist-param", "inf"], "argument --xdist-param"),
        (["validate", "--p", "0", "--beta", "0", "--xdist", "t", "--xdist-param", "nan"],
         "argument --xdist-param"),
        (["risk", "--error", "skew-normal:nan", "--xpreset", "normal", "--p", "3"], "skew-normal shape b"),
        (["risk", "--error", "skew-normal:inf", "--xpreset", "normal", "--p", "3"], "skew-normal shape b"),
        (["risk", "--error", "skew-normal:1/0", "--xpreset", "normal", "--p", "3"], "skew-normal shape b"),
        (["risk", "--error", "t:1/0", "--xpreset", "normal", "--p", "3"], "t degrees of freedom nu"),
        (["risk", "--error", "t:nan", "--xpreset", "normal", "--p", "3"], "t degrees of freedom nu"),
        (["risk", "--error", "t:inf", "--xpreset", "normal", "--p", "3"], "t degrees of freedom nu"),
        (["risk", "--error", "normal", "--xpreset", "t:1/0", "--p", "3"], "t preset nu"),
        (["risk", "--error", "normal", "--xpreset", "t:nan", "--p", "3"], "t preset nu"),
        (["risk", "--error", "normal", "--xpreset", "pareto:1/0", "--p", "3"], "Pareto preset index b"),
        (["validate", "--error", "t:nan"], "t degrees of freedom nu"),
    ],
    ids=["sigma-nan", "sigma-inf", "beta-nan", "t-nu-nan", "pareto-b-inf", "p0-x-param-nan",
         "skew-normal-nan", "skew-normal-inf", "skew-normal-zero-denominator", "error-t-zero-denominator",
         "error-t-nan", "error-t-inf", "xpreset-t-zero-denominator", "xpreset-t-nan",
         "xpreset-pareto-zero-denominator", "validate-error-t-nan"],
)
def test_non_finite_parameter_is_refused_before_any_work(capsys, monkeypatch, argv, name):
    from mlerisk import cli

    def unreachable(*_, **__):
        raise AssertionError("a refused input reached the simulation or the eta quadrature")

    monkeypatch.setattr(cli, "estimate_risk", unreachable)
    monkeypatch.setattr(cli, "build_eta_table", unreachable)
    if argv[0] == "validate":
        argv = ["validate", "--error", "normal", "--xdist", "normal", "--p", "1", "--n", "50", "--reps", "5",
                *argv[1:]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert error["error"].startswith(name)


@pytest.mark.parametrize(
    "argv",
    [
        ["moments", "{missing}"],
        ["moments", "{directory}"],
        ["risk", "--error", "normal", "--csv", "{missing}"],
        ["eta", "dump", "--error", "custom:{missing}"],
        ["eta", "dump", "--error", "custom:{directory}"],
    ],
    ids=["moments-missing", "moments-directory", "risk-csv-missing", "custom-missing", "custom-directory"],
)
def test_unreadable_input_file_is_config_error(tmp_path, capsys, argv):
    paths = {"missing": str(tmp_path / "absent.csv"), "directory": str(tmp_path)}
    argv = [a.format(**paths) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert error["error"].startswith(argv[-1].removeprefix("custom:") + ": cannot read")


@pytest.mark.parametrize(
    "threshold,name",
    [("nan", "argument --threshold"), ("-0.5", "correlation_threshold"), ("2", "correlation_threshold")],
    ids=["nan", "-0.5", "2"],
)
def test_correlation_threshold_outside_the_unit_interval_is_config_error(tmp_path, capsys, threshold, name):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,5\n4,4\n2,7\n5,1\n")
    code, out, err = run_cli(capsys, "moments", str(path), "--threshold", threshold)
    assert code == 2
    assert out == ""
    assert name in json.loads(err)["error"]


@pytest.mark.parametrize(
    "tol,message",
    [("nan", "argument --tol: the value must be finite"), ("0", "tol must be positive and finite"),
     ("inf", "argument --tol: the value must be finite")],
    ids=["nan", "0", "inf"],
)
def test_validate_checks_the_eta_tolerance_before_the_simulation(capsys, monkeypatch, tol, message):
    from mlerisk import cli

    def unreachable(*_, **__):
        raise AssertionError("an invalid --tol reached the Monte-Carlo run")

    monkeypatch.setattr(cli, "estimate_risk", unreachable)
    code, out, err = run_cli(
        capsys, "validate", "--error", "normal", "--xdist", "normal", "--p", "1", "--n", "50",
        "--reps", "3000", "--tol", tol,
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert error["error"].startswith(message)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["risk", "--error", "normal", "--xpreset", "normal", "--p", "abc"],
         "argument --p: invalid int value: 'abc'"),
        (["validate", "--error", "normal", "--xdist", "t", "--xdist-param", "1/0", "--p", "1", "--n", "50",
          "--reps", "2"],
         "argument --xdist-param: the value must be finite (a number such as 3, 4.2 or 21/5), got '1/0'"),
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        (["risk", "--xpreset", "normal", "--p", "3"], "the following arguments are required: --error"),
        (["ide", "--error", "normal", "--xpreset", "normal", "--p", "3", "--alpha", "1e400"],
         "argument --alpha: the value must be finite (a number such as 3, 4.2 or 21/5), got '1e400'"),
        (["risk", "--error", "normal", "--xpreset", "normal", "--p", "3", "--alpha", "x"],
         "argument --alpha: the value must be finite (a number such as 3, 4.2 or 21/5), got 'x'"),
        (["eta", "dump", "--error", "skew-normal:3", "--tol", "1e-999999999"],
         "argument --tol: the value has an exponent beyond the range of a double, got '1e-999999999'"),
    ],
    ids=["p-not-an-int", "xdist-param-zero-denominator", "unknown-subcommand", "missing-error",
         "alpha-beyond-a-double", "alpha-not-a-number", "tol-exponent-beyond-a-double"],
)
def test_command_line_usage_error_is_a_json_config_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "config"
    assert error["error"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["validate", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mlerisk")
    assert captured.err == ""


@pytest.mark.parametrize("value", ["-1e-3", "-1/3", "-.5E+0"])
def test_negative_number_with_exponent_or_denominator_is_a_value(capsys, value):
    argv = ["risk", "--error", "t:5", "--xpreset", "normal", "--p", "3", "--n", "200"]
    spaced = run_cli(capsys, *argv, "--alpha", value)
    joined = run_cli(capsys, *argv, f"--alpha={value}")
    assert spaced == joined
    assert spaced[0] == 0 and "q_at_alpha" in json.loads(spaced[1])


def test_negative_tolerance_with_exponent_reaches_the_tolerance_check(capsys):
    code, out, err = run_cli(capsys, "risk", "--error", "normal", "--xpreset", "normal", "--p", "3",
                             "--tol", "-1e-10")
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "tol must be positive and finite, got -1e-10", "kind": "config"}


@pytest.mark.parametrize("command", ["risk", "ide", "rss", "coin-equiv", "series"])
def test_p_with_csv_is_refused_before_the_file_is_read(tmp_path, capsys, monkeypatch, command):
    from mlerisk import cli

    monkeypatch.setattr(cli, "load_csv", lambda *_: pytest.fail("--p with --csv reached the data"))
    extra = ["--n-actual", "500"] if command == "coin-equiv" else []
    code, out, err = run_cli(capsys, command, "--error", "normal", "--csv", str(tmp_path / "x.csv"), "--p", "7",
                             *extra)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "--p cannot be given with --csv, which takes p from the data",
                               "kind": "config"}


@pytest.mark.parametrize(
    "source,message",
    [
        (["--homogeneous", "bogus=1"], "unknown key 'bogus' (allowed: m4, m22, m3, m21, m111)"),
        (["--homogeneous", "m4=3,m22"], "expected key=value, got 'm22'"),
        (["--homogeneous", "m4=3,m22=x"], "m22 must be finite (a number such as 3, 4.2 or 21/5), got 'x'"),
        (["--homogeneous", "m4=3"], "--homogeneous is missing ['m22']"),
        (["--aggregated", "M2a=1,M2a=2"], "key 'M2a' given twice"),
        (["--aggregated", "M2a=1"], "--aggregated is missing ['M1', 'M2b']"),
        (["--homogeneous", "m4=3,m22=1"], "--p is required with --homogeneous"),
        (["--aggregated", "M2a=1,M2b=0,M1=3"], "--p is required with --aggregated"),
        (["--xpreset", "normal"], "--p is required with --xpreset"),
    ],
)
def test_moment_source_names_a_bad_key_before_a_missing_p(capsys, source, message):
    code, out, err = run_cli(capsys, "risk", "--error", "normal", *source)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message, "kind": "config"}


def test_validate_takes_a_fractional_alpha(capsys):
    argv = ["validate", "--error", "normal", "--xdist", "normal", "--p", "1", "--n", "60", "--reps", "20"]
    half = run_cli(capsys, *argv, "--alpha", "1/2")
    assert half[0] == 0
    assert half == run_cli(capsys, *argv, "--alpha", "0.5")


def test_validate_reads_every_number_option_exactly(capsys):
    argv = ["validate", "--error", "normal", "--xdist", "pareto", "--p", "1", "--n", "60", "--reps", "20"]
    exact = run_cli(capsys, *argv, "--xdist-param", "21/5", "--sigma", "1/2", "--beta", "1/4,-3/2",
                    "--tol", "1/10000000000")
    assert exact[0] == 0
    assert exact == run_cli(capsys, *argv, "--xdist-param", "4.2", "--sigma", "0.5", "--beta", "0.25,-1.5",
                            "--tol", "1e-10")
    # the same expansion as the exact preset parameter
    code, out, _ = run_cli(capsys, "risk", "--error", "normal", "--xpreset", "pareto:21/5", "--p", "1",
                           "--alpha", "-1", "--n", "60")
    assert code == 0
    assert json.loads(exact[1])["expansion"] == pytest.approx(json.loads(out)["ed"], rel=1e-14)


def test_threshold_is_read_exactly(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,5\n4,4\n2,7\n5,1\n")
    fraction = run_cli(capsys, "moments", str(path), "--threshold", "99/100")
    assert fraction[0] == 0
    assert fraction == run_cli(capsys, "moments", str(path))


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize(
    "xdist,param,message",
    [
        ("normal", "5", "'normal' x preset takes no parameter"),
        ("controlled", "7", "'controlled' x preset takes no parameter"),
        ("t", "3", "t preset needs nu > 4"),
        ("pareto", "4", "Pareto preset needs index b > 4"),
    ],
)
def test_validate_refuses_an_x_parameter_at_every_p(capsys, monkeypatch, p, xdist, param, message):
    from mlerisk import cli

    monkeypatch.setattr(cli, "estimate_risk", lambda *_: pytest.fail("a refused --xdist-param reached the simulation"))
    code, out, err = run_cli(
        capsys, "validate", "--error", "normal", "--xdist", xdist, "--xdist-param", param, "--p", str(p),
        "--beta", ",".join(["0"] * (p + 1)), "--n", "50", "--reps", "5",
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(message)


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_moments_reads_standard_input_as_it_reads_a_file(tmp_path):
    """A quoted body takes the csv.reader fallback, which reads what the first read took."""
    text = 'a,b\n"1",2\n3,4\n5,7\n6,1\n'
    path = tmp_path / "quoted.csv"
    path.write_text(text)
    runs = [
        subprocess.run([sys.executable, "-m", "mlerisk.cli", "moments", name, "--compact"],
                       input=text, capture_output=True, text=True, timeout=60)
        for name in (str(path), "/dev/stdin")
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "")] * 2
    assert runs[1].stdout == runs[0].stdout
    assert json.loads(runs[0].stdout)["n"] == 4


def test_non_finite_cell_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("a,b\n1,inf\n3,4\n5,7\n8,1\n2,2\n")
    for argv in (["moments", str(path)], ["risk", "--error", "normal", "--csv", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"{path}: line 2: non-finite value inf in column 'b'", "kind": "config"}


def test_overflowing_data_end_in_a_numeric_error(tmp_path, capsys):
    # finite cells whose squares overflow the covariance; no NaN may be printed and no warning raised
    path = tmp_path / "big.csv"
    path.write_text("a,b\n+.5,5.\n-0,1e300\n 7 ,1E-5\n-.25e+2,3\n")
    for argv in (["moments", str(path)], ["risk", "--error", "normal", "--csv", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        error = json.loads(err)
        assert error["kind"] == "numeric"
        assert error["error"].startswith(f"{path}: overflow encountered")


NOT_FINITE = {"error": "a result is not finite (NaN or infinity); nothing was printed", "kind": "numeric"}
HUGE_ALPHA = ("--alpha", "1e300")


@pytest.mark.parametrize(
    "argv",
    [
        ("risk", "--n", "50"),
        ("ide",),
        ("rss",),
        ("coin-equiv", "--n-actual", "200"),
        ("series",),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("error", ["normal", "skew-normal:3"])
def test_an_exact_overflow_is_reported_as_the_float_one_is(capsys, argv, error):
    # alpha = 1e300 is exact: q(alpha) is a Fraction beyond a double on the normal table, and an
    # infinity on the skew-normal one; both end in the same diagnostic
    code, out, err = run_cli(capsys, *argv, "--error", error, "--xpreset", "normal", "--p", "3", *HUGE_ALPHA)
    assert (code, out, json.loads(err)) == (3, "", NOT_FINITE)


def test_a_table_with_an_exact_overflow_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "table", "--preset", "table1", *HUGE_ALPHA)
    assert (code, out, json.loads(err)) == (3, "", NOT_FINITE)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_series_row_that_is_not_finite_is_never_printed(capsys, fmt):
    # at alpha = 6e153 ED is an infinity on the float skew-normal table, the binomial column finite
    code, out, err = run_cli(capsys, "series", "--error", "skew-normal:3", "--xpreset", "normal", "--p", "3",
                             "--alpha", "6e153", "--format", fmt)
    assert (code, out, json.loads(err)) == (3, "", NOT_FINITE)


def test_a_non_finite_result_is_never_printed(tmp_path, capsys, monkeypatch):
    from mlerisk import cli

    monkeypatch.setattr(cli, "sample_aggregates", lambda std: {"M2a": float("nan"), "M2b": 0.0, "M1": 2.0})
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,5\n4,4\n2,7\n5,1\n")
    for argv in (["moments", str(path)], ["moments", str(path), "--compact"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "a result is not finite (NaN or infinity); nothing was printed",
                                   "kind": "numeric"}
