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
--aggregated or --csv.  Exit codes: 0 success, 2 configuration error,
3 numeric failure; errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from ._quadrature import QuadratureError
from .benchmarks import coin_equivalent, ide, rss
from .data_moments import LoadOptions, load_csv, sample_aggregates, standardize
from .error_models import error_model_from_spec
from .eta import EtaTableError, build_eta_table
from .expansion import risk_expansion
from .mc import SimConfig, estimate_risk
from .moments import X_PRESET_NAMES, AggregatedMoments, HomogeneousMoments, to_aggregated, x_preset

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

    def error(self, message):
        raise ConfigError(message)


def _parse_number(text: str):
    """Exact rational when possible ('-1', '4.2', '8129/21'), float otherwise."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _parse_kv(text: str, allowed) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"expected key=value, got {piece!r}")
        key, val = piece.split("=", 1)
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} (allowed: {', '.join(allowed)})")
        if key in out:
            raise ConfigError(f"key {key!r} given twice")
        out[key] = _parse_number(val.strip())
    return out


def _moment_source(args):
    sources = [
        name
        for name in ("xpreset", "homogeneous", "aggregated", "csv")
        if getattr(args, name)
    ]
    if len(sources) != 1:
        raise ConfigError(
            f"exactly one moment source required (--xpreset | --homogeneous | "
            f"--aggregated | --csv); got {sources or 'none'}"
        )
    source = sources[0]
    if source == "xpreset":
        if args.p is None:
            raise ConfigError("--p is required with --xpreset")
        name, _, param = args.xpreset.partition(":")
        return x_preset(name, args.p, param or None), {"xpreset": args.xpreset, "p": args.p}
    if source == "homogeneous":
        kv = _parse_kv(args.homogeneous, ("m4", "m22", "m3", "m21", "m111"))
        if args.p is None:
            raise ConfigError("--p is required with --homogeneous")
        if "m4" not in kv or "m22" not in kv:
            raise ConfigError("--homogeneous needs at least m4=… and m22=…")
        return HomogeneousMoments(p=args.p, **kv), {"homogeneous": kv, "p": args.p}
    if source == "aggregated":
        kv = _parse_kv(args.aggregated, ("M2a", "M2b", "M1"))
        missing = {"M2a", "M2b", "M1"} - set(kv)
        if missing:
            raise ConfigError(f"--aggregated is missing {sorted(missing)}")
        if args.p is None:
            raise ConfigError("--p is required with --aggregated")
        return AggregatedMoments(p=args.p, **kv), {"aggregated": kv, "p": args.p}
    dataset, _, agg = _csv_moments(args)
    return AggregatedMoments(p=dataset.p, **agg), {"csv": args.csv, "n": dataset.n, "p": dataset.p}


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
    dataset = load_csv(args.csv, options)
    std = standardize(dataset)
    return dataset, std, sample_aggregates(std)


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


def _json_default(obj):
    if isinstance(obj, Fraction):
        return float(obj)
    raise TypeError(f"not JSON serializable: {obj!r}")


def _emit(args, payload) -> None:
    json.dump(payload, sys.stdout, indent=None if args.compact else 2, default=_json_default)
    sys.stdout.write("\n")


def _emit_indicator(args, payload, fields) -> None:
    """The indicator commands' envelope: their own fields, then alpha and the expansion."""
    _emit(args, {**fields, "alpha": float(args.alpha), "expansion": payload})


def _add_model_and_moments(sub):
    sub.add_argument("--error", required=True, help="normal | t:<nu> | skew-normal:<b> | custom:<file>")
    sub.add_argument("--p", type=int, help="number of explanatory variables")
    sub.add_argument("--xpreset", help="x moments preset: normal | t[:nu] | controlled | pareto[:b]")
    sub.add_argument("--homogeneous", help="homogeneous moments, e.g. m4=3,m22=1,m3=0")
    sub.add_argument("--aggregated", help="aggregated moments, e.g. M2a=0,M2b=0,M1=120")
    sub.add_argument("--csv", help="dataset path; moments computed after whitening")
    _add_csv_options(sub)
    sub.add_argument("--tol", type=float, default=1e-10, help="eta quadrature tolerance")


def _add_alpha(sub):
    sub.add_argument("--alpha", type=_parse_number, default=Fraction(-1))


def _add_csv_options(sub):
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--no-header", action="store_true")
    sub.add_argument(
        "--missing",
        help="comma-separated missing tokens, '' for none "
        f"(default {','.join(LoadOptions().missing_tokens)!r})",
    )
    sub.add_argument("--drop", help="comma-separated column names to drop")
    sub.add_argument(
        "--missing-strategy",
        dest="missing_strategy",
        choices=("drop_rows", "drop_columns"),
        default="drop_rows",
    )
    sub.add_argument("--threshold", type=float, default=0.99, help="correlation flag threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlerisk",
        description="Second-order estimation-risk expansions and sample-size indicators "
        "for regression models under alpha-divergence.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--compact", action="store_true", help="single-line JSON output")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = subs.add_parser("risk", parents=[common], help="assemble the risk expansion")
    _add_model_and_moments(sp)
    sp.add_argument("--alpha", type=_parse_number, help="evaluate q at this alpha")
    sp.add_argument("--n", type=int, help="evaluate ED(alpha, n)")

    sp = subs.add_parser("ide", parents=[common], help="indicator of the difficulty of estimation")
    _add_model_and_moments(sp)
    _add_alpha(sp)

    sp = subs.add_parser("rss", parents=[common], help="required sample size vs. fair-coin benchmark")
    _add_model_and_moments(sp)
    _add_alpha(sp)
    sp.add_argument("--k-start", type=int, default=10)
    sp.add_argument("--k-step", type=int, default=10)
    sp.add_argument("--k-max", type=int, default=1000)

    sp = subs.add_parser("coin-equiv", parents=[common], help="fair-coin equivalent of an actual sample size")
    _add_model_and_moments(sp)
    _add_alpha(sp)
    sp.add_argument("--n-actual", type=int, required=True)

    sp = subs.add_parser("moments", parents=[common], help="aggregated moments of a CSV dataset")
    sp.add_argument("csv")
    _add_csv_options(sp)

    sp = subs.add_parser("eta", parents=[common], help="dump the eta table")
    sp.add_argument("action", choices=("dump",))
    sp.add_argument("--error", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = subs.add_parser("validate", parents=[common], help="Monte-Carlo risk vs. expansion")
    sp.add_argument("--error", required=True)
    sp.add_argument("--xdist", required=True, choices=X_PRESET_NAMES)
    sp.add_argument("--xdist-param", type=float)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=-1.0)
    sp.add_argument("--reps", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--beta", help="comma-separated true beta (default zeros)")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--divergence-sample", type=int, default=10_000)
    sp.add_argument("--tol", type=float, default=1e-10)

    sp = subs.add_parser("series", parents=[common], help="risk series over k at n = (p+2) k")
    _add_model_and_moments(sp)
    _add_alpha(sp)
    sp.add_argument("--k-min", type=int, default=5)
    sp.add_argument("--k-max", type=int, default=100)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = subs.add_parser("table", parents=[common], help="regenerate the reference indicator tables")
    sp.add_argument("--preset", required=True, choices=("table1", "table2", "table3", "table4", "table5"))
    _add_alpha(sp)
    sp.add_argument("--format", choices=("csv", "json"), default="json")
    sp.add_argument("--tol", type=float, default=1e-10)

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
            "M2a": agg["M2a"],
            "M2b": agg["M2b"],
            "M1": agg["M1"],
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
    beta = tuple(float(b) for b in args.beta.split(",")) if args.beta else (0.0,) * (args.p + 1)
    if len(beta) != args.p + 1:
        raise ConfigError(f"--beta needs p+1 = {args.p + 1} entries")
    if args.p >= 1:
        moments = x_preset(args.xdist, args.p, args.xdist_param)
    else:
        moments = AggregatedMoments(p=0, M2a=0, M2b=0, M1=0)
    config = SimConfig(
        model=model,
        x_dist=args.xdist,
        beta=beta,
        sigma=args.sigma,
        n=args.n,
        replications=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        x_dist_param=args.xdist_param,
        divergence_sample=args.divergence_sample,
    )
    exp = risk_expansion(build_eta_table(model, tol=args.tol), moments, with_error=False)
    expansion_value = float(exp.evaluate(args.alpha, args.n))
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
            (k, float(exp.evaluate(args.alpha, n)), float(binomial_risk(0.5, args.alpha, k)))
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
        alpha = getattr(args, "alpha", None)
        if alpha is not None and not -math.inf < alpha < math.inf:
            raise ConfigError(f"--alpha must be finite, got {alpha}")
        _COMMANDS[args.command](args)
    except ValueError as exc:
        json.dump({"error": str(exc), "kind": "config"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (ArithmeticError, EtaTableError, QuadratureError) as exc:
        json.dump({"error": str(exc), "kind": "numeric"}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
