"""Command-line surface.

Subcommands
-----------
risk        assemble the risk expansion for an error model and moment source
ide         indicator of the difficulty of estimation (binomial-matching m)
rss         required sample size against the fair-coin benchmark
coin-equiv  fair-coin sample size equivalent to a given actual sample size
moments     aggregated sample moments of a CSV dataset (PCA-whitened)
eta         dump the error-moment table as JSON
validate    Monte-Carlo risk estimate vs. the expansion
series      (k, ED(alpha, (p+2)k)) rows plus the fair-coin benchmark column
table       regenerate the indicator tables for the reference configurations

Exactly one moment source may be given: --xpreset, --homogeneous,
--aggregated or --csv.  --csv takes p from the data; the others need --p.
Numbers are parsed exactly ('1/3', '4.2').  Exit codes: 0 success,
2 configuration error, 3 numeric failure; errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial

from ._quadrature import QuadratureError
from .benchmarks import _NOT_FINITE, _finite, coin_equivalent, ide, rss
from .data_moments import LoadOptions, load_csv, sample_aggregates, standardize
from .error_models import error_model_from_spec
from .eta import EtaTableError, build_eta_table
from .expansion import risk_expansion
from .mc import SimConfig, estimate_risk
from .moments import X_PRESET_NAMES, AggregatedMoments, HomogeneousMoments, to_aggregated, x_preset
from .moments import _exact_param

__all__ = ["main"]

# Published reference aggregates for the two real datasets analysed with this
# pipeline (UCI white-wine quality, 4898 x 11; UCI communities-and-crime
# unnormalized, cleaned to 2215 x 99).  Used by `table --preset table4/5`
# when the raw CSVs are not at hand.
WINE_REFERENCE = {"p": 11, "n": 4898, "M2a": 0.000326899, "M2b": 0.000230836, "M1": 0.116967}
CRIME_REFERENCE = {"p": 99, "n": 2215, "M2a": 1708.97, "M2b": 1749.28, "M1": 2604.5}


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Command-line usage errors raise ConfigError, so they reach stderr as JSON."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # '-1e-3' and '-1/3' are values, not options as argparse's own pattern has them
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(/\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _parse_number(text: str) -> Fraction:
    """A number option as an exact rational ('-1', '4.2', '8129/21'); no NaN, infinity or overflow."""
    try:
        return _exact_param(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_float(text: str) -> float:
    """A number option read as ``_parse_number`` reads it, then rounded once to a double."""
    return float(_parse_number(text))


def _parse_floats(text: str) -> tuple[float, ...]:
    """A comma-separated list option, each entry read by ``_parse_float``."""
    return tuple(_parse_float(entry) for entry in text.split(","))


# The key=value moment sources: their keys, the keys they need, the summary they build.
_KEY_VALUE_SOURCES = {
    "homogeneous": (("m4", "m22", "m3", "m21", "m111"), {"m4", "m22"}, HomogeneousMoments),
    "aggregated": (("M2a", "M2b", "M1"), {"M2a", "M2b", "M1"}, AggregatedMoments),
}


def _moment_source(args):
    """(moments, source record) of the one moment source given.

    --csv takes p from the data and refuses --p.  Every other source needs
    --p, and a key=value source names a bad or missing key before that.
    """
    given = [name for name in ("xpreset", "homogeneous", "aggregated", "csv") if getattr(args, name)]
    if len(given) != 1:
        raise ConfigError(
            f"exactly one moment source required (--xpreset | --homogeneous | "
            f"--aggregated | --csv); got {given or 'none'}"
        )
    source = given[0]
    text = getattr(args, source)
    if source == "csv":
        if args.p is not None:
            raise ConfigError("--p cannot be given with --csv, which takes p from the data")
        dataset, _, agg = _csv_moments(args)
        return AggregatedMoments(p=dataset.p, **agg), {"csv": text, "n": dataset.n, "p": dataset.p}
    if source in _KEY_VALUE_SOURCES:
        allowed, required, summary = _KEY_VALUE_SOURCES[source]
        kv = {}
        for piece in filter(None, map(str.strip, text.split(","))):
            key, eq, value = map(str.strip, piece.partition("="))
            if not eq:
                raise ConfigError(f"expected key=value, got {piece!r}")
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} (allowed: {', '.join(allowed)})")
            if key in kv:
                raise ConfigError(f"key {key!r} given twice")
            kv[key] = _exact_param(value, key)
        missing = required - kv.keys()
        if missing:
            raise ConfigError(f"--{source} is missing {sorted(missing)}")
    if args.p is None:
        raise ConfigError(f"--p is required with --{source}")
    if source == "xpreset":
        name, _, param = text.partition(":")
        return x_preset(name, args.p, param or None), {source: text, "p": args.p}
    return summary(p=args.p, **kv), {source: {key: float(v) for key, v in kv.items()}, "p": args.p}


def _csv_moments(args):
    """Load --csv with the loader options, whiten it: (dataset, whitened, aggregates)."""
    missing = {}  # without --missing, the LoadOptions default holds
    if args.missing is not None:  # '' asks for no missing tokens at all
        missing["missing_tokens"] = tuple(args.missing.split(",")) if args.missing else ()
    options = LoadOptions(
        delimiter=args.delimiter,
        header=not args.no_header,
        drop_columns=tuple(filter(None, (args.drop or "").split(","))),
        missing_strategy=args.missing_strategy,
        correlation_threshold=args.threshold,
        **missing,
    )
    try:  # the data path raises on overflow (a cell near 1e300); name the file
        dataset = load_csv(args.csv, options)
        std = standardize(dataset)
        return dataset, std, sample_aggregates(std)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{args.csv}: {exc} in the moments of the data") from None


def _expansion_from_args(args):
    model = error_model_from_spec(args.error)
    moments, source_info = _moment_source(args)
    table = build_eta_table(model, tol=args.tol)
    exp = risk_expansion(table, moments)
    agg = to_aggregated(moments)
    payload = exp.to_jsonable()
    payload["moments"] = {
        "p": agg.p,
        "M2a": float(agg.M2a),
        "M2b": float(agg.M2b),
        "M1": float(agg.M1),
    }
    payload["source"] = source_info
    return exp, payload


def _emit(args, payload) -> None:
    try:
        text = json.dumps(payload, indent=None if args.compact else 2, allow_nan=False)
    except ValueError:  # a NaN or an infinity, which JSON cannot hold
        raise ArithmeticError(_NOT_FINITE) from None
    sys.stdout.write(text + "\n")


def _emit_indicator(args, payload, fields) -> None:
    """The indicator commands' envelope: their own fields, then alpha and the expansion."""
    _emit(args, {**fields, "alpha": float(args.alpha), "expansion": payload})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlerisk",
        description="Second-order estimation-risk expansions and sample-size indicators "
        "for regression models under alpha-divergence.",
    )
    add = parser.add_subparsers(dest="command", required=True, parser_class=_Parser).add_parser
    shared = partial(argparse.ArgumentParser, add_help=False)  # parents: each shared option declared once

    compact = shared()
    compact.add_argument("--compact", action="store_true", help="single-line JSON output")
    error = shared()
    error.add_argument("--error", required=True, help="normal | t:<nu> | skew-normal:<b> | custom:<file>")
    tol = shared()
    tol.add_argument("--tol", type=_parse_float, default=1e-10, help="eta quadrature tolerance")
    # risk evaluates q at alpha only when --alpha is given; every other command defaults to -1
    alpha, risk_alpha = shared(), shared()
    for parent, default in ((alpha, Fraction(-1)), (risk_alpha, None)):
        parent.add_argument("--alpha", type=_parse_number, default=default,
                            help="divergence order, an exact number such as -1, 0.5 or 1/3")
    csv_options = shared()
    csv_options.add_argument("--delimiter", default=",")
    csv_options.add_argument("--no-header", action="store_true")
    csv_options.add_argument(
        "--missing",
        help="comma-separated missing tokens, '' for none "
        f"(default {','.join(LoadOptions().missing_tokens)!r})",
    )
    csv_options.add_argument("--drop", help="comma-separated column names to drop")
    csv_options.add_argument(
        "--missing-strategy",
        dest="missing_strategy",
        choices=("drop_rows", "drop_columns"),
        default="drop_rows",
    )
    csv_options.add_argument("--threshold", type=_parse_float, default=0.99, help="correlation flag threshold")
    source = shared()
    source.add_argument("--p", type=int, help="number of explanatory variables")
    source.add_argument("--xpreset", help="x moments preset: normal | t[:nu] | controlled | pareto[:b]")
    source.add_argument("--homogeneous", help="homogeneous moments, e.g. m4=3,m22=1,m3=0")
    source.add_argument("--aggregated", help="aggregated moments, e.g. M2a=0,M2b=0,M1=120")
    source.add_argument("--csv", help="dataset path; moments computed after whitening (p from the data)")
    model = shared(parents=[compact, error, source, csv_options, tol])  # an error model and one moment source

    sp = add("risk", parents=[model, risk_alpha], help="assemble the risk expansion")
    sp.add_argument("--n", type=int, help="evaluate ED(alpha, n)")

    add("ide", parents=[model, alpha], help="indicator of the difficulty of estimation")

    sp = add("rss", parents=[model, alpha], help="required sample size vs. fair-coin benchmark")
    sp.add_argument("--k-start", type=int, default=10)
    sp.add_argument("--k-step", type=int, default=10)
    sp.add_argument("--k-max", type=int, default=1000)

    sp = add("coin-equiv", parents=[model, alpha], help="fair-coin equivalent of an actual sample size")
    sp.add_argument("--n-actual", type=int, required=True)

    sp = add("moments", parents=[compact, csv_options], help="aggregated moments of a CSV dataset")
    sp.add_argument("csv")

    sp = add("eta", parents=[compact, error, tol], help="dump the eta table")
    sp.add_argument("action", choices=("dump",))

    sp = add("validate", parents=[compact, error, alpha, tol], help="Monte-Carlo risk vs. expansion")
    sp.add_argument("--xdist", required=True, choices=X_PRESET_NAMES)
    sp.add_argument("--xdist-param", type=_parse_number)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--beta", type=_parse_floats, help="comma-separated true beta (default zeros)")
    sp.add_argument("--sigma", type=_parse_float, default=1.0)
    sp.add_argument("--divergence-sample", type=int, default=10_000)

    sp = add("series", parents=[model, alpha], help="risk series over k at n = (p+2) k")
    sp.add_argument("--k-min", type=int, default=5)
    sp.add_argument("--k-max", type=int, default=100)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("table", parents=[compact, alpha, tol], help="regenerate the reference indicator tables")
    sp.add_argument("--preset", required=True, choices=("table1", "table2", "table3", "table4", "table5"))
    sp.add_argument("--format", choices=("csv", "json"), default="json")

    return parser


def _cmd_risk(args):
    exp, payload = _expansion_from_args(args)
    if args.alpha is not None:
        payload["q_at_alpha"] = float(exp.q(args.alpha))
        if args.n is not None:
            payload["ed"] = float(exp.evaluate(args.alpha, args.n))
            payload["n"] = args.n
            payload["below_validity"] = args.n < exp.validity_n_min
    _emit(args, payload)


def _cmd_ide(args):
    exp, payload = _expansion_from_args(args)
    result = ide(exp, args.alpha)
    _emit_indicator(args, payload, {
        "ide": "*" if result.no_real_root else round(result.m, 6),
        "roots": list(result.roots) if result.roots else None,
        "M": float(result.M) if result.M is not None else None,
    })


def _cmd_rss(args):
    exp, payload = _expansion_from_args(args)
    result = rss(exp, args.alpha, k_start=args.k_start, k_step=args.k_step, k_max=args.k_max)
    _emit_indicator(args, payload, {
        "rss": {"n": result.n, "k": result.benchmark_k, "n_unrounded": result.n_unrounded},
    })


def _cmd_coin_equiv(args):
    exp, payload = _expansion_from_args(args)
    n = coin_equivalent(exp, args.alpha, args.n_actual)
    _emit_indicator(args, payload, {"coin_equiv": n, "n_actual": args.n_actual})


def _cmd_moments(args):
    dataset, std, agg = _csv_moments(args)
    _emit(
        args,
        {
            "n": dataset.n,
            "p": dataset.p,
            **agg,
            "dropped_columns": list(dataset.dropped_columns),
            "dropped_rows": dataset.dropped_row_count,
            "flagged_correlations": [list(t) for t in dataset.flagged_pairs],
            "condition_number": std.condition_number,
        },
    )


def _cmd_eta(args):
    table = build_eta_table(error_model_from_spec(args.error), tol=args.tol)
    _emit(args, table.to_jsonable())


def _cmd_validate(args):
    model = error_model_from_spec(args.error)
    beta = args.beta or (0.0,) * (args.p + 1)
    if len(beta) != args.p + 1:
        raise ConfigError(f"--beta needs p+1 = {args.p + 1} entries")
    alpha = float(args.alpha)  # the simulation and its expansion value are float throughout
    moments = x_preset(args.xdist, args.p, args.xdist_param) if args.p else None
    config = SimConfig(
        model=model,
        x_dist=args.xdist,
        beta=beta,
        sigma=args.sigma,
        n=args.n,
        replications=args.reps,
        alpha=alpha,
        seed=args.seed,
        x_dist_param=args.xdist_param,
        divergence_sample=args.divergence_sample,
    )
    if moments is None:  # p = 0 draws no x, yet its parameter is checked as at p >= 1
        x_preset(args.xdist, 1, args.xdist_param)
        moments = AggregatedMoments(p=0, M2a=0, M2b=0, M1=0)
    exp = risk_expansion(build_eta_table(model, tol=args.tol), moments, with_error=False)
    expansion_value = float(exp.evaluate(alpha, args.n))
    est = estimate_risk(config)
    z = None
    if est.std_error:
        z = (est.mean - expansion_value) / est.std_error
    _emit(
        args,
        {
            "mc_mean": est.mean,
            "mc_se": est.std_error,
            "replications_used": est.replications_used,
            "fit_failures": est.fit_failures,
            "divergence_failures": est.divergence_failures,
            "expansion": expansion_value,
            "z": z,
        },
    )


def _cmd_series(args):
    if args.k_min < 1:
        raise ValueError(f"--k-min must be a positive integer, got {args.k_min}")
    if args.k_max < args.k_min:
        raise ValueError(f"--k-max ({args.k_max}) must not be below --k-min ({args.k_min})")
    exp, payload = _expansion_from_args(args)
    from .benchmarks import binomial_risk

    rows = []
    for k in range(args.k_min, args.k_max + 1):
        n = (exp.p + 2) * k
        rows.append(
            (k, _finite(exp.evaluate(args.alpha, n)), binomial_risk(0.5, args.alpha, k))
        )
    if args.format == "csv":
        sys.stdout.write("k,ed_regression,ed_binomial\n")
        for k, a, b in rows:
            sys.stdout.write(f"{k},{a!r},{b!r}\n")
    else:
        _emit(args, {"rows": [list(r) for r in rows], "expansion": payload})


_TABLE_ERRORS = {"table1": "normal", "table2": "t:3", "table3": "skew-normal:3"}


def _cmd_table(args):
    """One row per (label key, label, error spec, moments); each spec's eta table is built once."""
    if args.preset in _TABLE_ERRORS:
        spec = _TABLE_ERRORS[args.preset]
        sources = (("x", name, spec, x_preset(name, 10)) for name in X_PRESET_NAMES)
    else:
        ref = WINE_REFERENCE if args.preset == "table4" else CRIME_REFERENCE
        agg = AggregatedMoments(p=ref["p"], M2a=ref["M2a"], M2b=ref["M2b"], M1=ref["M1"])
        sources = (("error", spec, spec, agg) for spec in ("normal", "t:3", "skew-normal:3"))
    tables, rows = {}, []
    for key, label, spec, moments in sources:
        if spec not in tables:
            tables[spec] = build_eta_table(error_model_from_spec(spec), tol=args.tol)
        exp = risk_expansion(tables[spec], moments, with_error=False)
        r = rss(exp, args.alpha)
        d = ide(exp, args.alpha)
        ide_m = "*" if d.no_real_root else round(d.m, 2)
        rows.append({key: label, "ide": ide_m, "rss": r.n, "benchmark_k": r.benchmark_k})
    if args.format == "csv":
        keys = list(rows[0].keys())
        sys.stdout.write(",".join(keys) + "\n")
        for row in rows:
            sys.stdout.write(",".join(str(row[key]) for key in keys) + "\n")
    else:
        _emit(args, {"preset": args.preset, "alpha": float(args.alpha), "rows": rows})


_COMMANDS = {
    "risk": _cmd_risk,
    "ide": _cmd_ide,
    "rss": _cmd_rss,
    "coin-equiv": _cmd_coin_equiv,
    "moments": _cmd_moments,
    "eta": _cmd_eta,
    "validate": _cmd_validate,
    "series": _cmd_series,
    "table": _cmd_table,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _COMMANDS[args.command](args)
    except ValueError as exc:
        json.dump({"error": str(exc), "kind": "config"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ArithmeticError, EtaTableError, QuadratureError) as exc:
        # an exact result beyond a double's range is reported as its float, an infinity, would be
        message = _NOT_FINITE if isinstance(exc, OverflowError) else str(exc)
        json.dump({"error": message, "kind": "numeric"}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
