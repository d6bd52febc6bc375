"""Set-up cost every CLI process pays: ``import cknet.cli`` in a fresh interpreter.

On a shared virtual machine the same import takes 0.32-0.62 s depending
on how fast the host runs at the moment, and the host holds one speed for
tens of seconds, so medians of separate sets of runs drift apart by a
quarter.  Each fresh interpreter therefore also times a fixed pure-Python
reference loop just before and just after the import, and the set-up time
is the import time in units of that loop, scaled back to seconds on a
machine where the loop takes ``NOMINAL_LOOP_S``.  The raw seconds are
returned alongside.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

NOMINAL_LOOP_S = 0.075   # the reference loop's median on a 2-vCPU x86-64 VM

_TIMED_IMPORT = """\
import gc, sys, time

def loop():
    gc.disable()
    start = time.perf_counter()
    table = {}
    for i in range(150000):
        table[str(i)] = i * i
    sum(table.values())
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds

before = loop()
start = time.perf_counter()
import cknet.cli
seconds = time.perf_counter() - start
after = loop()
sys.stdout.write(f"{seconds!r} {before!r} {after!r}")
"""

# Packages whose import time is reported on its own; the rest of the
# import of cknet.cli (its own modules and the stdlib they pull in) is
# reported as cknet.
THIRD_PARTY = ("numpy", "scipy")


def _python(args: list, src: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def import_seconds(src: Path, cwd: Path, runs: int) -> tuple:
    """(set-up seconds at nominal speed, raw seconds) of ``import cknet.cli``,
    each the median over ``runs`` fresh interpreters."""
    scaled, raw = [], []
    for _ in range(runs):
        seconds, before, after = map(float, _python(["-c", _TIMED_IMPORT], src, cwd).stdout.split())
        scaled.append(seconds / ((before + after) / 2.0) * NOMINAL_LOOP_S)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def parse_importtime(text: str) -> dict:
    """Milliseconds per package from ``python -X importtime`` stderr.

    A package's time is the cumulative time of its imports that no other
    third-party import encloses, so numpy modules that scipy pulls in count
    as scipy.  ``cknet`` is the top-level total minus the third-party part.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    out = {pkg: 0.0 for pkg in THIRD_PARTY}
    total = 0.0
    ancestors = []   # (depth, package) of the enclosing imports; rows are post-order
    for depth, cumulative, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        pkg = name.split(".", 1)[0]
        if depth == 0 and pkg == "cknet":
            total += cumulative / 1e3
        if pkg in out and all(a[1] not in out for a in ancestors):
            out[pkg] += cumulative / 1e3
        ancestors.append((depth, pkg))
    out["cknet"] = total - sum(out[p] for p in THIRD_PARTY)
    return {f"import.{pkg}_ms": ms for pkg, ms in out.items()}


def importtime_breakdown(src: Path, cwd: Path, runs: int) -> dict:
    """Median over fresh interpreters of each ``import.*_ms`` figure."""
    samples = [parse_importtime(_python(["-X", "importtime", "-c", "import cknet.cli"],
                                        src, cwd).stderr) for _ in range(runs)]
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
