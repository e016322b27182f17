"""The CLI's frozen output, and the module attributes its library calls go through.

``cli_golden.json`` maps a command line to the exact stdout it must print.
Every pinned command uses exact arithmetic (normal and t(3) errors, rational
presets and alpha) or prints rounded indicators, so the strings do not depend
on the platform.

The benchmark's tracer wraps library functions at the attributes their
callers look up (``mlerisk.cli.build_eta_table``, ...); a CLI that captured a
function at import time would run untraced, so the lookups are pinned too.
"""

import argparse
import importlib
import importlib.util
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mlerisk import benchmarks, cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_is_byte_identical_to_the_pinned_golden(capsys, command):
    assert run_cli(capsys, *command.split()) == (0, GOLDEN[command], "")


USAGE_ERROR = (2, "", json.dumps({"error": "argument --p: invalid int value: 'abc'", "kind": "config"}) + "\n")


def test_one_process_replays_every_golden_around_usage_errors_and_help(capsys):
    """The parser is shared by every call: a failed parse or a --help between
    commands leaves nothing behind, in either order of the goldens."""
    helps = {}
    for command in [*GOLDEN, *reversed(GOLDEN)]:
        name = command.split()[0]
        assert run_cli(capsys, "risk", "--p", "abc") == USAGE_ERROR
        with pytest.raises(SystemExit) as exc:
            cli.main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: mlerisk " + name)
        assert helps.setdefault(name, out) == out
        assert run_cli(capsys, *command.split()) == (0, GOLDEN[command], ""), command


def test_a_warm_process_builds_no_parser(capsys, monkeypatch):
    built = Counter()
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built["parsers"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    command = next(iter(GOLDEN)).split()
    assert run_cli(capsys, *command)[0] == 0
    built.clear()
    assert run_cli(capsys, *command)[0] == 0
    assert built["parsers"] == 0


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses resolve annotations through it
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


CLI_LIBRARY_CALLS = (
    "error_model_from_spec", "build_eta_table", "risk_expansion", "rss", "ide",
    "coin_equivalent", "load_csv", "standardize", "sample_aggregates",
)
MODEL = ("error_model_from_spec", "build_eta_table", "risk_expansion")
DATA = ("load_csv", "standardize", "sample_aggregates")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["table", "--preset", "table1"],
         {"error_model_from_spec": 1, "build_eta_table": 1, "risk_expansion": 4, "rss": 4, "ide": 4}),
        (["table", "--preset", "table5", "--format", "csv"],
         {"error_model_from_spec": 3, "build_eta_table": 3, "risk_expansion": 3, "rss": 3, "ide": 3}),
        (["ide", "--error", "t:3", "--xpreset", "t", "--p", "4"], {**dict.fromkeys(MODEL, 1), "ide": 1}),
        (["rss", "--error", "normal", "--xpreset", "normal", "--p", "4"], {**dict.fromkeys(MODEL, 1), "rss": 1}),
        (["coin-equiv", "--error", "normal", "--xpreset", "pareto", "--p", "4", "--n-actual", "500"],
         {**dict.fromkeys(MODEL, 1), "coin_equivalent": 1}),
        (["moments", "{csv}"], dict.fromkeys(DATA, 1)),
        (["risk", "--error", "normal", "--csv", "{csv}"], dict.fromkeys(MODEL + DATA, 1)),
        (["series", "--error", "normal", "--xpreset", "normal", "--p", "4", "--k-max", "9"],
         {**dict.fromkeys(MODEL, 1), "binomial_risk": 5}),
    ],
    ids=["table1", "table5", "ide", "rss", "coin-equiv", "moments", "risk-csv", "series"],
)
def test_library_calls_go_through_module_attributes(tmp_path, capsys, monkeypatch, argv, expected):
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in CLI_LIBRARY_CALLS:
        counting(cli, name)
    if argv[0] == "series":  # series imports it from mlerisk.benchmarks when it runs
        counting(benchmarks, "binomial_risk")
    rows = np.random.default_rng(1).standard_normal((40, 3))
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    code, _, err = run_cli(capsys, *(arg.format(csv=path) for arg in argv))
    assert (code, err) == (0, "")
    assert dict(calls) == expected


# Every subcommand's options: dest -> (option strings, default, required, choices).
_LOADER = {
    "delimiter": (("--delimiter",), ",", False, None),
    "no_header": (("--no-header",), False, False, None),
    "missing": (("--missing",), None, False, None),
    "drop": (("--drop",), None, False, None),
    "missing_strategy": (("--missing-strategy",), "drop_rows", False, ("drop_rows", "drop_columns")),
    "threshold": (("--threshold",), 0.99, False, None),
}
_MODEL = {
    "compact": (("--compact",), False, False, None),
    "error": (("--error",), None, True, None),
    "p": (("--p",), None, False, None),
    "xpreset": (("--xpreset",), None, False, None),
    "homogeneous": (("--homogeneous",), None, False, None),
    "aggregated": (("--aggregated",), None, False, None),
    "csv": (("--csv",), None, False, None),
    **_LOADER,
    "tol": (("--tol",), 1e-10, False, None),
    "alpha": (("--alpha",), Fraction(-1), False, None),
}
OPTIONS = {
    "risk": {**_MODEL, "alpha": (("--alpha",), None, False, None), "n": (("--n",), None, False, None)},
    "ide": _MODEL,
    "rss": {**_MODEL, "k_start": (("--k-start",), 10, False, None), "k_step": (("--k-step",), 10, False, None),
            "k_max": (("--k-max",), 1000, False, None)},
    "coin-equiv": {**_MODEL, "n_actual": (("--n-actual",), None, True, None)},
    "moments": {"compact": (("--compact",), False, False, None), "csv": ((), None, True, None), **_LOADER},
    "eta": {
        "compact": (("--compact",), False, False, None),
        "action": ((), None, True, ("dump",)),
        "error": (("--error",), None, True, None),
        "tol": (("--tol",), 1e-10, False, None),
    },
    "validate": {
        "compact": (("--compact",), False, False, None),
        "error": (("--error",), None, True, None),
        "xdist": (("--xdist",), None, True, ("normal", "t", "controlled", "pareto")),
        "xdist_param": (("--xdist-param",), None, False, None),
        "p": (("--p",), None, True, None),
        "n": (("--n",), None, True, None),
        "alpha": (("--alpha",), -1.0, False, None),
        "reps": (("--reps",), 1000, False, None),
        "seed": (("--seed",), 0, False, None),
        "beta": (("--beta",), None, False, None),
        "sigma": (("--sigma",), 1.0, False, None),
        "divergence_sample": (("--divergence-sample",), 10000, False, None),
        "tol": (("--tol",), 1e-10, False, None),
    },
    "series": {**_MODEL, "k_min": (("--k-min",), 5, False, None), "k_max": (("--k-max",), 100, False, None),
               "format": (("--format",), "csv", False, ("csv", "json"))},
    "table": {
        "compact": (("--compact",), False, False, None),
        "preset": (("--preset",), None, True, ("table1", "table2", "table3", "table4", "table5")),
        "alpha": (("--alpha",), Fraction(-1), False, None),
        "format": (("--format",), "json", False, ("csv", "json")),
        "tol": (("--tol",), 1e-10, False, None),
    },
}


def test_every_subcommand_keeps_its_options():
    (commands,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(OPTIONS)
    for name, parser in commands.choices.items():
        got = {
            a.dest: (tuple(a.option_strings), a.default, a.required, a.choices)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        assert got == OPTIONS[name], name
        # the one difference from the option table before parent parsers: validate's --alpha was float
        assert all(a.type is cli._parse_number for a in parser._actions if a.dest == "alpha"), name
