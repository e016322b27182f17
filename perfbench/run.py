"""mlerisk benchmark: one workload per invocation, timed from outside the library.

    python3 perfbench/run.py --workload {oneshot,sweep,csv,mc} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  Workloads, their op mixes and
their output checks are described in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: the median and 90th-percentile
op latency and ops per second of the timed phase, set-up time (import, input
generation and a warm-up that runs one op of every kind on fixed inputs) and
peak resident memory, plus the failed-op ratio (also carried by the
``attempted``/``failed`` fields).  Set-up time is the median over the worker
processes (see WORKERS) and peak memory the smallest of their peaks: one
process's peak jumps by 50% when a rare Monte-Carlo divergence refines
unusually deep, and a memory regression raises every process's peak.

``--trace 1`` runs every op twice, once with spans around the library's
public functions and once without (order alternating), and reports the
per-layer metrics and the tracing overhead; for ``mc`` it also times the fits
in a second process with a single BLAS thread.
``--smoke`` runs one schedule cycle regardless of ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
repeat every metric with its unit, the environment record, the sample counts
and (traced) the self-time breakdown; the same record is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
# An untraced run is split over this many worker processes, one after the
# other, each setting up and timing 1/WORKERS of the ops: the speed of the same
# op differs by up to 40% between processes on a shared 2-vCPU machine, and pooling
# processes averages that out.
WORKERS = 3
BUDGET_S = 170.0  # a run must end within 180 s; children share this budget
WORKLOAD_NAMES = ("oneshot", "sweep", "csv", "mc")
END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "error_models.spec_ms": "ms",
    "eta.build_ms": "ms",
    "eta.quad_calls": "count",
    "quadrature.level_mean": "level",
    "expansion.risk_ms": "ms",
    "expansion.l_terms_calls": "count",
    "expansion.l_terms_ms": "ms",
    "benchmarks.indicators_ms": "ms",
    "benchmarks.rss_k_steps": "count",
    "data_moments.load_csv_ms": "ms",
    "data_moments.standardize_ms": "ms",
    "data_moments.aggregates_ms": "ms",
    "data_moments.rows_per_s": "1/s",
    "mc.simulate_ms": "ms",
    "mc.fit_ms": "ms",
    "mc.fit_iterations": "count",
    "mc.fit_unconverged": "count",
    "mc.divergence_ms": "ms",
    "mc.divergence_uncertified": "count",
    "mc.fit_ms_1thread": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}
SINGLE_THREAD_ENV = {
    "MLERISK_THREADS": "1",
    # the library maps MLERISK_THREADS onto these only when mlerisk.cli is
    # imported before numpy, which a package import never does; set them too
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one schedule cycle, for self-tests")
    parser.add_argument("--role", choices=("main", "worker"), default="main", help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--parts", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- worker process ---------------------------------------------------------------


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    max_threads = re.search(r"MAX_THREADS=(\d+)", config)
    tasks = Path("/proc/self/task")
    return {
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "configuration": config},
        "blas_build_max_threads": int(max_threads.group(1)) if max_threads else None,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "MLERISK_THREADS"},
        "process_threads": len(os.listdir(tasks)) if tasks.is_dir() else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def timed_phase(wl, seconds: float, first: int, smoke_ops: int | None, tracer=None) -> dict:
    """Closed loop: generate op i, run it (timed), check it (untimed).

    Ops start at index ``first`` and run until their times add up to
    ``seconds``, or for exactly ``smoke_ops`` ops.  With a tracer every op runs
    twice, traced and untraced, the order alternating between ops so that
    neither side always meets warm caches.
    """
    from workloads import CheckError

    plain, traced, failures = [], [], []
    attempted = failed = 0
    i = first
    while True:
        op = wl.make_op(i)
        sides = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for with_trace in sides:
            error = None
            if with_trace:
                tracer.op = i
                tracer.install()
            start = time.perf_counter()
            try:
                if with_trace:
                    with tracer.span("op"):
                        out = wl.run_op(op)
                else:
                    out = wl.run_op(op)
            except Exception as exc:  # an op that raises is a failed op, not a dead run
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if with_trace:
                tracer.uninstall()
            if error is None:
                try:
                    wl.check(op, out)
                except CheckError as exc:
                    error = str(exc)
                except (KeyError, ValueError, TypeError, IndexError) as exc:  # malformed output
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            (traced if with_trace else plain).append(elapsed)
            attempted += 1
            if error is not None:
                failed += 1
                failures.append(f"op {i}: {error}")
        i += 1
        if smoke_ops is not None:
            if i - first >= smoke_ops:
                break
        elif sum(plain) + sum(traced) >= seconds and (tracer is None or i - first >= wl.cycle):
            break
    return {"plain": plain, "traced": traced, "attempted": attempted, "failed": failed,
            "failures": failures[:10], "ops": list(range(first, i))}


def worker(args) -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import resource

    import mlerisk
    import workloads

    if Path(mlerisk.__file__).resolve().parent != SRC / "mlerisk":
        raise SystemExit(f"imported mlerisk from {mlerisk.__file__}, not from {SRC}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = time.perf_counter() - start
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        # part k of K starts k/K of the way into a schedule cycle, on inputs of
        # its own, so the parts together cover the cycle evenly
        offset = args.part * wl.cycle // args.parts
        smoke_ops = (args.part + 1) * wl.cycle // args.parts - offset if args.smoke else None
        first = args.part * 10**6 * wl.cycle + offset
        result = timed_phase(wl, args.seconds, first, smoke_ops, tracer)
        result.update(
            setup_s=setup_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(args.seed),
            report=wl.report(),
        )
        if tracer is not None:
            result.update(trace_summary(tracer, result, wl.cycle))
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    for s in tracer.spans:
                        fh.write(json.dumps([s.op, s.name, s.parent, s.start, s.end, s.attrs]) + "\n")
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_summary(tracer, result: dict, cycle: int) -> dict:
    from tracing import layer_metrics, self_time_breakdown

    ops = result["ops"]
    layers = layer_metrics(tracer.spans, ops, cycle)
    plain, traced = sum(result["plain"]), sum(result["traced"])
    layers["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    by_latency = sorted(range(len(ops)), key=lambda k: result["traced"][k])
    k = by_latency[len(by_latency) // 2]
    return {
        "layers": layers,
        "breakdown": self_time_breakdown(tracer.spans, ops),
        "median_op": [ops[k], result["traced"][k], self_time_breakdown(tracer.spans, [ops[k]])],
    }


# --- main process --------------------------------------------------------------------


def spawn(args, deadline: float, seconds: float, part=0, parts=1, extra_env=None, spans=None) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", "worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace),
            "--part", str(part), "--parts", str(parts)]
    if args.smoke:
        argv.append("--smoke")
    if spans:
        argv += ["--spans", str(spans)]
    env = dict(os.environ, **(extra_env or {}))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise SystemExit("time budget exhausted before all processes ran")
    # subprocess.run kills and reaps the child if it overruns
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise SystemExit(f"worker process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_reports(results) -> list[str]:
    """Pool each group's (mean, SE) estimates over all worker processes."""
    groups = {}
    for res in results:
        for label, group in res["report"].items():
            groups.setdefault(label, {"target": group["target"], "estimates": []})
            groups[label]["estimates"] += group["estimates"]
    lines = []
    for label, group in sorted(groups.items()):
        estimates, k = group["estimates"], len(group["estimates"])
        if not k:
            continue
        mean = sum(m for m, _ in estimates) / k
        se = math.sqrt(sum(s * s for _, s in estimates)) / k
        lines.append(f"{label}: pooled mean {mean:.6g} over {k} batches, SE {se:.3g}, "
                     f"expansion {group['target']:.6g}, z {(mean - group['target']) / se:+.2f}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mlerisk" / "__init__.py").is_file():
        print(f"error: no mlerisk package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.role == "worker":
        worker(args)
        return 0
    deadline = time.monotonic() + BUDGET_S
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    lines = []
    if args.trace:
        results = [spawn(args, deadline, args.seconds, spans=stem.with_suffix(".spans.jsonl"))]
        res = results[0]
        metrics = dict(res["layers"])
        metrics["mc.fit_ms_1thread"] = 0.0
        if args.workload == "mc":
            single = spawn(args, deadline, args.seconds / 2, extra_env=SINGLE_THREAD_ENV)
            metrics["mc.fit_ms_1thread"] = single["layers"]["mc.fit_ms"]
            lines.append(f"single-thread fit process: {json.dumps(single['env']['threads_env'])}, "
                         f"{single['env']['process_threads']} threads")
        units = LAYER_UNITS
        lines.append(f"traced ops {len(res['ops'])} (each also run untraced); "
                     f"untraced {sum(res['plain']):.2f} s, traced {sum(res['traced']):.2f} s")
        lines.append("self time by span, share of all op time:")
        lines += [f"  {name:32s} {t:9.3f} s {share:7.1%}" for name, t, share in res["breakdown"]]
        op, latency, rows = res["median_op"]
        lines.append(f"median traced op {op} ({latency * 1e3:.1f} ms), self time by span:")
        lines += [f"  {name:32s} {t * 1e3:9.2f} ms {share:7.1%}" for name, t, share in rows]
    else:
        results = [spawn(args, deadline, args.seconds / WORKERS, part, WORKERS) for part in range(WORKERS)]
        lat = [1e3 * t for res in results for t in res["plain"]]
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        metrics = {
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": p90,
            "ops_per_s": len(lat) / sum(sum(res["plain"]) for res in results),
            "peak_rss_mb": min(res["peak_rss_mb"] for res in results),
            "setup_s": statistics.median(res["setup_s"] for res in results),
        }
        units = END_TO_END_UNITS
        setup_s = ", ".join(f"{res['setup_s']:.3f}" for res in results)
        peaks = ", ".join(f"{res['peak_rss_mb']:.1f}" for res in results)
        lines.append(f"ops {len(lat)} ({sum(1 for v in lat if v > p90)} beyond p90); "
                     f"per worker: set-up {setup_s} s, peak RSS {peaks} MB")
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    lines.append(f"failed_ratio {failed / attempted:.6g} - ({failed} of {attempted})")
    lines += [f"failure: {msg}" for res in results for msg in res["failures"]]
    lines += merge_reports(results)
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    env = results[0]["env"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": metrics, "failed_ratio": failed / attempted, "notes": lines}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    print(f"env: {json.dumps(env)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
