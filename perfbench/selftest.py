"""Self-test of the benchmark: its verifier rejects broken jobs, its generators repeat.

Run on its own with ``python3 perfbench/selftest.py``; ``run.py`` runs it
before every measurement and refuses to measure when it fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import workloads
from verify import verify
from workloads import Job

_GOOD_REPORT = '{"checks": [{"name": "a", "max_residual": 1e-16, "tolerance": 1e-9, "pass": true}]}'
_GOOD_OBJ = "# 1 x 2\nv 0 0 0\nv 1 0 0\nvn 0 0 1\nvn 0 0 1\n"


def _verifier_problems(tmp: Path) -> list:
    job = Job("selftest", 0, "double", (), shape=(1, 2), required_entries=("a",))
    mesh, report = tmp / "m.obj", tmp / "r.json"

    def outcome(obj=_GOOD_OBJ, doc=_GOOD_REPORT, code=0, stderr=""):
        mesh.write_text(obj, encoding="utf-8")
        report.write_text(doc, encoding="utf-8")
        return verify(job, code, stderr, mesh, report)

    problems = []
    if not outcome().ok:
        problems.append(f"a well-formed job is rejected: {outcome()}")
    planted = {
        "NaN coordinate in the OBJ": outcome(obj=_GOOD_OBJ.replace("v 1 0 0", "v 1 nan 0")),
        "bare NaN in the report": outcome(doc=_GOOD_REPORT.replace("1e-16", "NaN")),
        "bare Infinity in the report": outcome(doc=_GOOD_REPORT.replace("1e-16", "Infinity")),
        "missing vn line": outcome(obj=_GOOD_OBJ.rsplit("vn", 1)[0]),
        "FAIL entry": outcome(doc=_GOOD_REPORT.replace("true", "false")),
        "nonzero exit code": outcome(code=3, stderr="error: stage=backlund: NoRoot: x\n"),
        "exit 1 with a failing entry": outcome(code=1, doc=_GOOD_REPORT.replace("true", "false")),
        "exit 1 with all entries passing": outcome(code=1),
        "report without a required entry": outcome(doc=_GOOD_REPORT.replace('"a"', '"b"')),
    }
    problems += [f"{what} passes verification" for what, o in planted.items() if o.ok]
    staged = planted["nonzero exit code"]
    if (staged.stage, staged.error, staged.classified) != ("backlund", "NoRoot", True):
        problems.append(f"stage line misread: {staged}")
    if not planted["exit 1 with a failing entry"].classified:
        problems.append("a reported invariant failure is taken for a wrong answer")
    wrong = ("exit 1 with all entries passing", "NaN coordinate in the OBJ", "FAIL entry")
    if any(planted[w].classified for w in wrong):
        problems.append("a wrong answer is classified as a documented failure")
    return problems + _dropped_entry_problems(report)


def _dropped_entry_problems(report: Path) -> list:
    """Every workload's jobs require entries, and a report that lacks any one fails."""
    problems = []
    for name in workloads.NAMES:
        job = dataclasses.replace(workloads.cycle(name, 7, 0)[0], shape=None)
        if not job.required_entries:
            problems.append(f"{name}: jobs require no report entries")
        for dropped in job.required_entries:
            kept = [{"name": p + "x", "pass": True} for p in job.required_entries
                    if not p.startswith(dropped)]
            report.write_text(json.dumps({"checks": kept}), encoding="utf-8")
            if verify(job, 0, "", report, report).ok:
                problems.append(f"{name}: a report without {dropped!r} passes verification")
    return problems


def _generator_problems() -> list:
    problems = []
    for name in workloads.NAMES:
        first = [workloads.cycle(name, 7, n) for n in range(3)]
        again = [workloads.cycle(name, 7, n) for n in range(3)]
        if first != again:
            problems.append(f"{name}: seed 7 gives two different job lists")
        if name != "catalogue" and first == [workloads.cycle(name, 8, n) for n in range(3)]:
            problems.append(f"{name}: seeds 7 and 8 give the same job list")
    return problems


def problems() -> list:
    """Every way the verifier or the generators misbehave (empty when sound)."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-",
                                     dir=Path(__file__).resolve().parent.parent) as tmp:
        return _verifier_problems(Path(tmp)) + _generator_problems()


if __name__ == "__main__":
    found = problems()
    for p in found:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: ok" if not found else f"selftest: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
