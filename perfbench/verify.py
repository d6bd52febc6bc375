"""Check one job's exit code and artifacts; classify its failure.

A job has failed when its exit code is not 0, when any report entry is
not a pass, when the report is not strict JSON (RFC 8259 has no NaN or
Infinity), when it lacks an entry the job requires, or when the OBJ has
the wrong number of ``v``/``vn`` lines or a non-finite coordinate.  A failure is *classified* when the CLI says so
itself: exit 2 or 3 (config or numeric) with the stage named on stderr,
or exit 1 (an invariant failed) with a valid report that marks the failing
entry.  Every other failure, exit 0 with a bad artifact above all, is a
wrong answer.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

STAGE_LINE = re.compile(r"^error: stage=(\S+): (\w+):", re.MULTILINE)
EXIT_INVARIANT = 1
CLASSIFIED_EXITS = (2, 3)


@dataclass(frozen=True)
class Outcome:
    ok: bool
    classified: bool = False
    stage: str = ""
    error: str = ""
    reason: str = ""


PASSED = Outcome(True)


def _reject_constant(token):
    raise ValueError(f"bare {token} is not JSON")


def load_strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _failed(stage, error, reason):
    return Outcome(False, False, stage, error, reason)


def _report_entries(report: Path) -> tuple:
    """(check entries, "") of a strict-JSON report, or (None, why not)."""
    try:
        doc = load_strict_json(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, str(exc)
    entries = doc.get("checks") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        return None, "report has no check entries"
    return entries, ""


def _failing(entries: list) -> list:
    return [e.get("name") if isinstance(e, dict) else repr(e) for e in entries
            if not isinstance(e, dict) or e.get("pass") is not True]


def check_obj(path: Path, nj: int, nk: int) -> str:
    """Empty string when the OBJ has nj*nk finite v and vn lines, else why not."""
    counts = {"v": 0, "vn": 0}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                tag, _, rest = line.partition(" ")
                if tag not in counts:
                    continue
                counts[tag] += 1
                coords = rest.split()
                if len(coords) != 3:
                    return f"{tag} line with {len(coords)} numbers"
                if not all(math.isfinite(float(c)) for c in coords):
                    return f"non-finite {tag} line: {line.strip()}"
    except (OSError, ValueError) as exc:
        return f"unreadable OBJ: {exc}"
    want = nj * nk
    if counts["v"] != want or counts["vn"] != want:
        return f"OBJ has {counts['v']} v and {counts['vn']} vn lines, expected {want}"
    return ""


def verify(job, code: int, stderr: str, mesh: Path, report: Path) -> Outcome:
    """Outcome of one finished job, from its exit code, stderr and artifacts."""
    if code != 0:
        m = STAGE_LINE.search(stderr)
        if m:
            return Outcome(False, code in CLASSIFIED_EXITS, m.group(1), m.group(2), f"exit {code}")
        entries, _ = _report_entries(report)
        failing = _failing(entries) if entries else []
        if code == EXIT_INVARIANT and failing:
            return Outcome(False, True, "report", "FAIL", f"exit 1, failing entries {failing[:3]}")
        return _failed("unknown", "exit", f"exit {code} without a stage line or a failing entry")
    entries, why = _report_entries(report)
    if entries is None:
        return _failed("report", "InvalidReport", why)
    failing = _failing(entries)
    if failing:
        return _failed("report", "FAIL", f"exit 0 with failing entries {failing[:3]}")
    names = [str(e.get("name")) for e in entries]
    missing = [p for p in job.required_entries if not any(n.startswith(p) for n in names)]
    if missing:
        return _failed("report", "MissingCheck", f"missing entries {missing}")
    if job.shape is not None:
        why = check_obj(mesh, *job.shape)
        if why:
            return _failed("mesh", "BadOBJ", why)
    return PASSED
