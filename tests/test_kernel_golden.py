"""The expansion kernel K and the L terms against values recorded from the
Fraction-by-Fraction arithmetic they replaced.

``kernel_golden.json`` holds, per error model, K (exact tables as Fractions,
float tables as float hex) and ``l_terms`` on every ``exact_cases`` source and
one float source, each value tagged with its type.  The kernel's own route and
``l_terms`` both take the integer pass now, so only these values compare them
with the arithmetic of one reduction per operation.

Regenerate (only on purpose, from the commit whose arithmetic is the
reference) with ``PYTHONPATH=src python tests/test_kernel_golden.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import exact_cases
from mlerisk.error_models import normal_error, skew_normal_error, student_t_error
from mlerisk.eta import build_eta_table
from mlerisk.expansion import _kernel, l_terms
from mlerisk.moments import HomogeneousMoments

PATH = Path(__file__).with_name("kernel_golden.json")
MODELS = {
    "normal": normal_error,
    "t(3)": lambda: student_t_error(3),
    "t(21/5)": lambda: student_t_error(Fraction(21, 5)),
    "t(7/2)": lambda: student_t_error(Fraction(7, 2)),
    "t(4.2)": lambda: student_t_error(4.2),
    "skew-normal(0.5)": lambda: skew_normal_error(0.5),
    "skew-normal(3)": lambda: skew_normal_error(3.0),
}


def _sources():
    yield from exact_cases.sources()
    yield HomogeneousMoments(p=10, m4=3.5, m22=1.0, m3=0.2)  # float moments: the float pass on every table


def _tag(x) -> str:
    """A value with its type, a float in its bits."""
    return f"{type(x).__name__}:{x.hex() if isinstance(x, float) else x}"


def record(name: str) -> dict:
    table = build_eta_table(MODELS[name]())
    return {
        "kernel": [[_tag(k) for k in row] for row in _kernel(table)],
        "l_terms": {repr(m): [_tag(v) for v in vars(l_terms(table, m)).values()] for m in _sources()},
    }


@pytest.mark.parametrize("name", list(MODELS))
def test_kernel_and_l_terms_keep_their_recorded_type_and_bits(name):
    golden = json.loads(PATH.read_text())[name]
    got = record(name)
    assert got["kernel"] == golden["kernel"]
    assert got["l_terms"].keys() == golden["l_terms"].keys()
    for source, values in golden["l_terms"].items():
        assert got["l_terms"][source] == values, source


if __name__ == "__main__":
    PATH.write_text(json.dumps({name: record(name) for name in MODELS}, indent=1) + "\n")
