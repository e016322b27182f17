"""Self-test of the benchmark: checks catch corrupted outputs, counts repeat.

    python3 -m pytest perfbench/tests -q

Runs in about a minute: every workload once in smoke mode (one schedule
cycle), each workload's checks against a deliberately corrupted output, and
the traced counts twice.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

COUNT_METRICS = (
    "eta.quad_calls",
    "quadrature.level_mean",
    "expansion.l_terms_calls",
    "benchmarks.rss_k_steps",
    "mc.fit_unconverged",
    "mc.divergence_uncertified",
)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload):
    res = last_json(run_bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"latency_p50_ms", "latency_p90_ms", "ops_per_s", "peak_rss_mb", "setup_s"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def _ran(wl, i):
    op = wl.make_op(i)
    out = wl.run_op(op)
    wl.check(op, out)  # the untouched output passes
    return op, out


def _caught(wl, op, out):
    with pytest.raises(workloads.CheckError):
        wl.check(op, out)


def _edit_json(out, edit):
    code, stdout, stderr = out
    res = json.loads(stdout)
    edit(res)
    return code, json.dumps(res), stderr


def test_corrupted_sweep_output_is_caught(tmp_path):
    wl = workloads.Sweep(5, tmp_path)
    wl.setup()
    for i in range(wl.cycle):  # exact and quadrature tables alike
        op, (exp, indicators, series) = _ran(wl, i)
        bumped = dataclasses.replace(exp, qc=exp.qc * (1 + Fraction(1, 10**6)) + Fraction(1, 10**6))
        _caught(wl, op, (bumped, indicators, series))
        _caught(wl, op, (exp, indicators, series[:-1] + [series[-1] * 1.000001]))
        r, d, c = indicators[0]
        _caught(wl, op, (exp, [(dataclasses.replace(r, benchmark_k=r.benchmark_k + 10), d, c)] + indicators[1:],
                         series))


def test_corrupted_cli_outputs_are_caught(tmp_path):
    wl = workloads.OneShot(5, tmp_path)
    wl.setup()
    for i in range(wl.cycle):
        op, out = _ran(wl, i)
        if op["cmd"] == "table":
            _caught(wl, op, _edit_json(out, lambda res: res["rows"][-1].update(rss=res["rows"][-1]["rss"] + 3)))
        elif op["cmd"] == "series":
            code, stdout, stderr = out
            _caught(wl, op, (code, stdout.replace("\n10,", "\n10,1", 1), stderr))
        else:
            def bump(res):
                payload = res.get("expansion", res)
                payload["q"][2] *= 1 + 1e-6
                if "q_exact" in payload:
                    payload["q_exact"][2] = str(Fraction(payload["q_exact"][2]) * (1 + Fraction(1, 10**6)))

            _caught(wl, op, _edit_json(out, bump))
        _caught(wl, op, (3, "", '{"error": "numeric"}'))


def test_corrupted_csv_and_mc_outputs_are_caught(tmp_path):
    (tmp_path / "csv").mkdir()
    wl = workloads.Csv(5, tmp_path / "csv")
    wl.setup()
    op, out = _ran(wl, 1)
    _caught(wl, op, _edit_json(out, lambda res: res.update(M2a=res["M2a"] * (1 + 1e-6))))
    _caught(wl, op, _edit_json(out, lambda res: res.update(dropped_columns=[])))

    wl = workloads.MonteCarlo(5, tmp_path)
    wl.setup()
    op, est = _ran(wl, 0)
    _caught(wl, op, dataclasses.replace(est, fit_failures=1))
    _caught(wl, op, dataclasses.replace(est, divergence_failures=2))


def _probe_counts():
    """Traced counts of the reference probes: one table build, two expansions."""
    import mlerisk
    from mlerisk import normal_error, skew_normal_error, x_preset

    tracer = Tracer()
    tracer.install()
    try:  # called through the module attributes the tracer wraps
        tracer.op = 0
        sn3 = mlerisk.eta.build_eta_table(skew_normal_error(3.0))
        tracer.op = 1
        mlerisk.expansion.risk_expansion(mlerisk.eta.build_eta_table(normal_error()), x_preset("pareto", 10))
        tracer.op = 2
        mlerisk.expansion.risk_expansion(sn3, x_preset("pareto", 10))
    finally:
        tracer.uninstall()
    return [layer_metrics(tracer.spans, [op], cycle=3) for op in range(3)]


def test_traced_counts_repeat_exactly():
    first, second = _probe_counts(), _probe_counts()
    assert first[0]["eta.quad_calls"] == second[0]["eta.quad_calls"] == 136
    assert first[1]["expansion.l_terms_calls"] == second[1]["expansion.l_terms_calls"] == 1
    assert first[2]["expansion.l_terms_calls"] == second[2]["expansion.l_terms_calls"] == 110

    args = ("--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    runs = [last_json(run_bench(*args))["metrics"] for _ in range(2)]
    assert [runs[0][k]["value"] for k in COUNT_METRICS] == [runs[1][k]["value"] for k in COUNT_METRICS]
    assert runs[0]["expansion.l_terms_calls"]["value"] > 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
