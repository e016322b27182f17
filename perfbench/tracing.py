"""Spans around the library's public functions, recorded from outside it.

A :class:`Tracer` replaces functions at the module attributes their callers
look up (``mlerisk.cli.build_eta_table``, ``mlerisk.expansion.l_terms``, ...)
with wrappers that record a span: name, start, end, parent span and the op it
belongs to.  Nothing under ``src/`` changes; :meth:`Tracer.uninstall` puts the
original functions back, so untraced ops run the library exactly as shipped.

A span's self time is its duration minus the durations of its direct
children.  Spans are kept in memory and summarised or written out at the end.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _level(res):
    return {"level": res.level, "converged": bool(res.converged)}


def _fit(res):
    return {"iterations": res.iterations, "converged": bool(res.converged)}


def _divergence(res):
    return {"uncertified": res[1]}


def _rows(res):
    return {"rows": res.n}


# (module, attribute, span name, annotate(result) -> dict or None).  A name is
# patched in every module whose callers look it up, so both the CLI path and
# direct library calls are covered.
TARGETS = (
    ("mlerisk.cli", "main", "cli.main", None),
    ("mlerisk.cli", "error_model_from_spec", "error_models.spec", None),
    ("mlerisk.cli", "build_eta_table", "eta.build", None),
    ("mlerisk.cli", "risk_expansion", "expansion.risk", None),
    ("mlerisk.cli", "rss", "benchmarks.rss", None),
    ("mlerisk.cli", "ide", "benchmarks.ide", None),
    ("mlerisk.cli", "coin_equivalent", "benchmarks.coin_equivalent", None),
    ("mlerisk.cli", "load_csv", "data_moments.load_csv", _rows),
    ("mlerisk.cli", "standardize", "data_moments.standardize", None),
    ("mlerisk.cli", "sample_aggregates", "data_moments.aggregates", None),
    ("mlerisk.error_models", "integrate_real_line", "quadrature.custom_check", _level),
    ("mlerisk.eta", "build_eta_table", "eta.build", None),
    ("mlerisk.eta", "integrate_real_line", "quadrature.eta", _level),
    ("mlerisk.expansion", "risk_expansion", "expansion.risk", None),
    ("mlerisk.expansion", "l_terms", "expansion.l_terms", None),
    ("mlerisk.benchmarks", "rss", "benchmarks.rss", None),
    ("mlerisk.benchmarks", "ide", "benchmarks.ide", None),
    ("mlerisk.benchmarks", "coin_equivalent", "benchmarks.coin_equivalent", None),
    ("mlerisk.benchmarks", "solve_rss_at_k", "benchmarks.solve_rss_at_k", None),
    ("mlerisk.benchmarks", "binomial_risk", "benchmarks.binomial_risk", None),
    ("mlerisk.mc", "estimate_risk", "mc.estimate_risk", None),
    ("mlerisk.mc", "draw_regressors", "mc.draw", None),
    ("mlerisk.mc", "draw_errors", "mc.draw", None),
    ("mlerisk.mc", "mle_fit", "mc.fit", _fit),
    ("mlerisk.mc", "divergence", "mc.divergence", _divergence),
    ("mlerisk.mc", "integrate_real_line", "quadrature.mc", _level),
)


@dataclass
class Span:
    op: int
    name: str
    parent: int | None  # index of the parent span, None for the op's root
    start: float
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def install(self) -> None:
        for module_name, attr, name, annotate in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, annotate))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as an op's root."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.op, name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_time += span.duration
        return span

    def _wrap(self, fn, name, annotate):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if annotate is not None:
                span.attrs.update(annotate(result))
            return result

        traced.__wrapped__ = fn
        return traced


def layer_metrics(spans: list[Span], ops: list[int], cycle: int) -> dict:
    """Per-layer numbers of one traced run, in the units named in BENCHMARK.json.

    Busy times are per op: the median over ``ops`` of the time spent in the
    layer's spans.  Counts are taken over the first schedule cycle, whose ops
    depend only on the seed, so they repeat exactly for a given seed.
    """
    by_op = {op: [] for op in ops}
    for span in spans:
        if span.op in by_op:
            by_op[span.op].append(span)
    first = [s for op in ops if op < cycle for s in by_op[op]]
    n_first = len({op for op in ops if op < cycle}) or 1

    def busy_ms(*names, own=False):
        return 1e3 * statistics.median(
            sum(s.self_time if own else s.duration for s in by_op[op] if s.name in names) for op in ops
        )

    def named(name, pool=first):
        return [s for s in pool if s.name == name]

    def per(children, parents):
        return len(children) / len(parents) if parents else 0.0

    quad = named("quadrature.eta")
    builds_with_quad = {s.parent for s in quad}
    rss_calls = named("benchmarks.rss")
    # each rss call solves once at k_start, then once per escalation of k
    solves = named("benchmarks.solve_rss_at_k")
    k_steps = sum(1 for s in solves if s.parent is not None and spans[s.parent].name == "benchmarks.rss")
    k_steps -= len(rss_calls)
    fits = named("mc.fit")
    loads = [s for op in ops for s in by_op[op] if s.name == "data_moments.load_csv"]
    load_time = sum(s.duration for s in loads)
    return {
        "error_models.spec_ms": busy_ms("error_models.spec"),
        "eta.build_ms": busy_ms("eta.build"),
        "eta.quad_calls": per(quad, builds_with_quad),
        "quadrature.level_mean": sum(s.attrs["level"] for s in quad) / len(quad) if quad else 0.0,
        "expansion.risk_ms": busy_ms("expansion.risk"),
        "expansion.l_terms_calls": per(named("expansion.l_terms"), named("expansion.risk")),
        "expansion.l_terms_ms": busy_ms("expansion.l_terms"),
        "benchmarks.indicators_ms": busy_ms("benchmarks.rss", "benchmarks.ide", "benchmarks.coin_equivalent"),
        "benchmarks.rss_k_steps": k_steps / len(rss_calls) if rss_calls else 0.0,
        "data_moments.load_csv_ms": busy_ms("data_moments.load_csv"),
        "data_moments.standardize_ms": busy_ms("data_moments.standardize"),
        "data_moments.aggregates_ms": busy_ms("data_moments.aggregates"),
        "data_moments.rows_per_s": sum(s.attrs["rows"] for s in loads) / load_time if load_time else 0.0,
        "mc.simulate_ms": busy_ms("mc.estimate_risk", own=True),
        "mc.fit_ms": busy_ms("mc.fit"),
        "mc.fit_iterations": sum(s.attrs["iterations"] for s in fits) / len(fits) if fits else 0.0,
        "mc.fit_unconverged": sum(not s.attrs["converged"] for s in fits) / n_first,
        "mc.divergence_ms": busy_ms("mc.divergence"),
        "mc.divergence_uncertified": sum(s.attrs["uncertified"] for s in named("mc.divergence")) / n_first,
        "cli.self_ms": busy_ms("cli.main", own=True),
    }


def self_time_breakdown(spans: list[Span], ops: list[int]) -> list[tuple[str, float, float]]:
    """(span name, total self seconds, share of total op time) over ``ops``.

    The op's root span is named ``op``; its self time is the benchmark's own
    glue plus library code between the wrapped functions.  The shares add up
    to 1 because every span's self time lies inside exactly one op.
    """
    wanted = set(ops)
    totals: dict[str, float] = {}
    op_time = 0.0
    for span in spans:
        if span.op not in wanted:
            continue
        totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        if span.name == "op":
            op_time += span.duration
    return sorted(((name, t, t / op_time) for name, t in totals.items()), key=lambda row: -row[1])
