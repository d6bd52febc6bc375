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


def clear_fixtures():
    for fixture in vars(checks).values():
        if hasattr(fixture, "cache_clear"):
            fixture.cache_clear()


def entries(results):
    return [(r.name, r.max_residual.hex(), r.tolerance) for r in results]


@pytest.fixture(scope="module")
def full_run():
    clear_fixtures()
    return entries(checks.run_all())


@pytest.mark.parametrize("number", CRITERIA)
def test_criterion_alone_matches_the_full_run(number, full_run):
    """A shared fixture is built by the first criterion that reads it, so any criterion run
    alone from cold caches builds what it needs and gives its entries of the full run bit
    for bit."""
    clear_fixtures()
    alone = entries(checks.run_all({number}))
    assert alone == [e for e in full_run if e[0].startswith(f"c{number:02d}_")]


def test_traced_functions_exist():
    # perfbench/run.py --trace 1 wraps every function named in TRACED by getattr
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"cknet.{layer}"), name, None))]
    assert missing == []
