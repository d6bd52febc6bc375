"""Stage times of the cknet CLI at fixed grid tiers, written as one JSON document.

    python bench/tiers.py --out BENCH.json [--tier desk|61x200|121x800|long ...] [--repeat N]

Every stage of every subcommand runs through ``cli._stage``, which the
subcommands look up as a module global, so wrapping it times each stage with
no change to ``src/``.  Each job runs ``cli.main`` in this interpreter: once
to warm up, ``--repeat`` times timed (medians and quartiles of the job, of
each stage and of the unstaged remainder, which holds the checks taken
outside a stage and the report entries), and once more under tracemalloc for
its allocation peak.  Meshes and reports go to a temporary directory, so the
``export`` and ``report`` stages run as they do for a user.  perfbench's reference kernel
(``reference_kernel`` of ``perfbench/run.py``) runs just before and just after each timed
repeat, and each job, stage and remainder is also given as a ratio to the mean of the two
kernel times, the unit of perfbench's ``job_ref_p50``: on a shared host whose speed moves
within a run, the ratios hold still where the raw ms do not.  The cold
``import cknet.cli`` is timed in fresh interpreters, and the document
records what the numbers depend on: Python and numpy versions, numpy's
active SIMD features, the CPU count, the git commit and
``PYTHONDONTWRITEBYTECODE``.  No timing is checked: the numbers are for
reading and comparing, on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cknet import cli  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
from run import reference_kernel  # noqa: E402

# the desk keys: elliptic kappa = 0.6, K = -1, j0 = 4, k0 = 6; a tier sets the rows and columns
KEYS = ["--surface.kind", "elliptic", "--surface.kappa", "0.6", "--surface.K_sign", "-1",
        "--surface.j0", "4", "--rotation.k0", "6"]
TIERS = {"desk": (3, 26), "61x200": (30, 200), "121x800": (60, 800), "long": (3000, 8)}
JOBS = {
    "generate": ["generate"],
    "double_real": ["double", "--backlund.alpha", "1.0"],
    "double_complex": ["double", "--backlund.alpha", "(1.5707963267948966+0.8j)",
                       "--backlund.seed", "(0.9+0.6j)"],
    "backlund": ["backlund", "--backlund.alpha", "1.0"],
    "search": ["search", "--backlund.N0", "9"],
}
COLD_IMPORTS = 7


UNIT = ("ratio to the mean wall time of perfbench/run.py's reference_kernel, run just before "
        "and just after each timed repeat")


def quartiles(values: list, scale: float = 1e3) -> dict:
    """Median and quartiles of ``values`` times ``scale`` (default: ms of seconds)."""
    scaled = [scale * v for v in values]
    q1, median, q3 = (statistics.quantiles(scaled, n=4, method="inclusive") if len(scaled) > 1
                      else scaled * 3)
    return {"median": median, "q1": q1, "q3": q3}


def timed_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def run_once(argv: list) -> tuple:
    """(exit code, wall seconds, {stage: seconds}) of one in-process ``cli.main`` call."""
    stages, stage = {}, cli._stage

    def timed(name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return stage(name, fn, *args, **kwargs)
        finally:
            stages[name] = stages.get(name, 0.0) + time.perf_counter() - start

    cli._stage = timed
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
    finally:
        cli._stage = stage
    return code, seconds, stages


def measure(argv: list, repeat: int) -> dict:
    run_once(argv)   # warm: the digit tables, caches and code paths of the first call
    reference_kernel()   # and the kernel's
    runs, refs = [], []
    for _ in range(repeat):
        before = timed_kernel()
        runs.append(run_once(argv))
        refs.append((before + timed_kernel()) / 2.0)
    names = list(dict.fromkeys(name for *_, stages in runs for name in stages))
    ratios = lambda seconds: quartiles([s / ref for s, ref in zip(seconds, refs)], 1.0)
    tracemalloc.start()
    try:
        run_once(argv)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    total = [s for _, s, _ in runs]
    stages = {n: [st.get(n, 0.0) for *_, st in runs] for n in names}
    unstaged = [s - sum(st.values()) for _, s, st in runs]
    return {
        "exit": runs[0][0],
        "repeats": repeat,
        "total_ms": quartiles(total),
        "stages_ms": {n: quartiles(v) for n, v in stages.items()},
        "unstaged_ms": quartiles(unstaged),
        "ref_ms": quartiles(refs),
        "total_ref": ratios(total),
        "stages_ref": {n: ratios(v) for n, v in stages.items()},
        "unstaged_ref": ratios(unstaged),
        "peak_alloc_mb": peak,
    }


def cold_import_seconds() -> list:
    probe = ("import time; start = time.perf_counter(); import cknet.cli; "
             "print(time.perf_counter() - start)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return [float(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                 text=True, check=True).stdout) for _ in range(COLD_IMPORTS)]


def provenance() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
        simd = sorted(name for name, on in features.items() if on)
    except ImportError:
        simd = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"python": platform.python_version(), "numpy": np.__version__, "simd": simd,
            "cpu_count": os.cpu_count(), "machine": platform.machine(), "git_commit": commit,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--tier", action="append", choices=sorted(TIERS),
                    help="a tier to run (repeatable; default: all)")
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per job")
    args = ap.parse_args(argv)
    jobs = []
    with tempfile.TemporaryDirectory() as work:
        mesh = ["--output.mesh", str(Path(work) / "mesh.obj")]   # search and check write none
        report = ["--output.report", str(Path(work) / "report.json")]
        for tier in args.tier or list(TIERS):
            half, columns = TIERS[tier]
            grid = ["--surface.j_lo", str(-half), "--surface.j_hi", str(half),
                    "--rotation.k_count", str(columns)]
            listed = [(name, [job[0], *KEYS, *grid, *job[1:]]) for name, job in JOBS.items()]
            if tier == "desk":   # the catalogue builds its own fixtures
                listed.append(("check", ["check"]))
            for name, command in listed:
                outputs = report if command[0] in ("search", "check") else mesh + report
                result = measure(command + outputs, args.repeat)
                jobs.append({"tier": tier, "job": name, "argv": command, **result})
                print(f"{tier:8} {name:15} exit {result['exit']}  "
                      f"{result['total_ms']['median']:8.2f} ms  "
                      f"{result['total_ref']['median']:7.3f} ref  " + "  ".join(
                          f"{n} {v['median']:.2f}" for n, v in result["stages_ms"].items()))
    imports = cold_import_seconds()
    document = {"provenance": provenance(), "unit": UNIT,
                "cold_import_cknet_cli_s": {"median": statistics.median(imports),
                                            "runs": imports},
                "jobs": jobs}
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"import cknet.cli: median {statistics.median(imports):.3f} s of {COLD_IMPORTS} "
          f"cold interpreters; written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
