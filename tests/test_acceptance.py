"""Acceptance gate: run every documented verification criterion.

Each criterion prints one PASS/FAIL line per measured check (visible
with ``pytest -rA`` or on failure) and the test asserts that every
check meets its stated tolerance.
"""

import importlib.util
from pathlib import Path

import pytest

from cknet import checks
from cknet.errors import ConfigError

CRITERIA = [num for num, _ in checks.ALL_CRITERIA]


def test_criteria_catalogue_is_complete():
    assert CRITERIA == list(range(1, 12))
    with pytest.raises(ConfigError, match="no criterion 99"):
        checks.run_all({99})


@pytest.mark.parametrize("number", CRITERIA)
def test_criterion(number):
    results = checks.run_all({number})
    assert results, f"criterion {number} produced no checks"
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} "
             f"residual={r.max_residual:.3e} tol={r.tolerance:.1e}"
             for r in results]
    print("\n".join(lines))
    failed = [line for line, r in zip(lines, results) if not r.passed]
    assert not failed, "failed acceptance checks:\n" + "\n".join(failed)


def test_traced_functions_exist():
    # perfbench/run.py --trace 1 wraps every function named in TRACED by getattr
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"cknet.{layer}"), name, None))]
    assert missing == []
