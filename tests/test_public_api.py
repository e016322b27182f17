import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

MODULES = [
    "mlerisk",
    "mlerisk.benchmarks",
    "mlerisk.cli",
    "mlerisk.data_moments",
    "mlerisk.error_models",
    "mlerisk.eta",
    "mlerisk.expansion",
    "mlerisk.expr",
    "mlerisk.mc",
    "mlerisk.moments",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_surface_is_pinned():
    """A name added to or dropped from the package surface must be deliberate."""
    import mlerisk

    assert mlerisk.__all__ == [
        "AggregatedMoments", "Dataset", "ErrorModel", "EtaTable", "HomogeneousMoments", "IdeResult",
        "LTerms", "LoadOptions", "MLEFit", "ModelKind", "RiskEstimate", "RiskExpansion", "RssResult",
        "SimConfig", "StandardizedMatrix", "binomial_risk", "build_eta_table", "coin_equivalent",
        "custom_error", "divergence", "error_model_from_spec", "estimate_risk", "eta_normal",
        "eta_quadrature", "eta_t", "ide", "l_terms", "load_csv", "mle_fit", "normal_error",
        "risk_expansion", "rss", "sample_aggregates", "simulate", "skew_normal_error", "solve_rss_at_k",
        "standardize", "student_t_error", "to_aggregated", "x_preset",
    ]


def test_perfbench_tracer_targets_resolve(monkeypatch):
    """Every (module, attribute) the benchmark's tracer patches must exist.

    ``perfbench/tracing.py`` imports only the standard library, so it loads by
    path; a renamed or removed target would break every traced benchmark run.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.TARGETS
    assert missing == []


def test_the_readme_library_example_gives_its_commented_results():
    """The first python block of the README runs and gives the results its comments show."""
    block = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```python\n")[1]
    block = block.split("```")[0]
    lines, namespace, shown = block.splitlines(), {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            shown[lines[node.lineno - 1].partition("#")[2].strip()] = repr(value)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert shown["Fraction(-217, 12)"] == "Fraction(-217, 12)"
    assert shown["RssResult(n=111, benchmark_k=10, ...)"].startswith("RssResult(n=111, benchmark_k=10, ")
    assert shown["True"] == "True"
