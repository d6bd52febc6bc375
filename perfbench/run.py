"""Benchmark of the cknet CLI: seeded workloads of real jobs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports cknet from ``src/``.  Each
job is one ``cknet.cli.main([...])`` call in this warm interpreter, run as
a closed loop with one client: the next job starts when the previous one
has finished and been verified, as a CLI user waits for each report.  The
load is this single process; BLAS is held to one thread.

A run takes a fixed, seeded list of jobs: as many as ``--seconds`` holds
at nominal speed (``workloads.job_count``), so the jobs it runs, and the
ones that fail, depend on the seed alone, never on the machine's speed.
``--trace 0`` times those jobs and prints the end-to-end metrics: job cost
in reference units (median and p75 over the verified jobs, see
``reference_kernel``), the import cost every CLI process pays
(``setup_s``, from fresh interpreters, see ``startup``) and the allocation
peak of one job re-run under tracemalloc.  The raw wall-time median and
p90 and the raw import seconds are printed on the lines before.
``--trace 1`` runs half as many jobs (at least one whole cycle), each once
untraced and once traced, and prints the per-layer metrics: self time and
calls of the wrapped functions, errors per layer, the import breakdown
from ``python -X importtime`` and the tracing overhead.  The spans are
written to ``.perfbench-out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the measured jobs (the timed pass, or the untraced and traced runs);
the warm-up job and the tracemalloc re-run count only towards ``correct``,
which is false when any
job produced a wrong answer (see ``verify``): exit 0 with a failing check
or a bad artifact, or a crash.  A job that ends in one of the CLI's
documented failures (exit 1 with the failing entry in its report, exit 2
or 3 with its stage) counts in ``failed`` but is not a wrong answer.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy loads: one process, no extra threads

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import provenance
import selftest
import startup
import tracer as tracing
import workloads
from verify import Outcome, verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK_PREFIX = ".perfbench-work-"   # job artifacts, removed when the run ends
SETUP_RUNS = 7

# Job cost is wall time divided by the mean wall time of a fixed reference
# kernel run just before and just after the job.  On a shared 2-vCPU virtual machine the same job
# flips between two speeds about 1.7x apart for 5-40 s at a time, so a 30 s
# run's wall-time median lands in either level (IQR/median 0.44 over ten
# runs); the kernel slows with the job and the ratio stays put (0.03-0.06).
# The tail is p75, the highest percentile that still leaves several
# verified samples above it in a 25 s run of the slowest workload (30 jobs,
# a quarter of them or more failing).
END_TO_END = {"job_ref_p50": "1", "job_ref_p75": "1", "setup_s": "s", "peak_alloc_mb": "MB"}

# Per-layer metrics in the result line: those every workload exercises, so
# none of them reads 0 by construction on some workload.  The traced run
# prints every span's figures on the lines before it.
_ALL_WORKLOADS_SPANS = (
    "backlund.propagate", "backlund.double_backlund",
    "connect.rotational_frames", "connect.gauge_to_hs", "connect.build_ck_connection",
    "lattice.gauge", "lattice.gauge_frame", "lattice.flatness_residual",
    "nets.sym", "nets.curvature_report", "nets.face_normal",
    "quat.inv", "quat.coords_complex", "revolution.profile_elliptic",
    "cli.main", "cli.report_json",
)
PER_LAYER = {
    **{f"import.{p}_ms": "ms" for p in ("scipy", "numpy", "cknet")},
    **{f"{layer}.self_ms": "ms" for layer in tracing.LAYERS if layer != "checks"},
    **{f"{span}.self_ms": "ms" for span in _ALL_WORKLOADS_SPANS},
    "backlund.build_abcd.calls": "count", "nets.face_normal.calls": "count",
    "nets.vertices": "count",
    **{f"{layer}.errors": "count" for layer in tracing.LAYERS},
    "fail_ratio": "1",
    "trace.overhead_ms": "ms", "trace.unattributed_ms": "ms",
}
# Counts come from the first traced cycle, a pure function of the seed:
# these as the median per job, errors as the cycle's total.
COUNTS = ("backlund.build_abcd.calls", "nets.face_normal.calls", "nets.vertices")
# Phases whose jobs count in attempted, failed and fail_ratio.
MEASURED_PHASES = ("timed", "untraced", "traced")

_ROTATION = np.array([[0.8, 0.6j], [0.6j, 0.8]])
_GRID = np.linspace(0.0, 1.0, 60000)


def reference_kernel() -> int:
    """A fixed mix of the work a job does: 2x2 complex products in a Python
    loop, elementwise passes over a large array and float formatting."""
    a = np.eye(2, dtype=complex)
    for _ in range(1500):
        a = a @ _ROTATION
        a = a / np.sqrt(np.linalg.det(a))
    x = _GRID
    for _ in range(10):
        x = np.sqrt(x * x + 1.0) - 0.5
    return len(" ".join(format(float(v), ".17g") for v in x[:6000]))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@dataclass(frozen=True)
class Sample:
    job: workloads.Job
    seconds: float       # wall time of the cli.main call
    ref_seconds: float   # mean wall time of the reference kernel run just before and after it
    outcome: Outcome


class Runner:
    """Runs the jobs of one workload in this interpreter and logs each outcome."""

    def __init__(self, workload: str, work: Path):
        import cknet.checks
        import cknet.cli

        self.cli = cknet.cli
        self.caches = [f for f in vars(cknet.checks).values() if hasattr(f, "cache_clear")]
        self.config, self.mesh, self.report = work / "job.ini", work / "mesh.obj", work / "report.json"
        workloads.write_config(workload, self.config)
        self.log = []   # (phase, Sample) of every job run

    def run(self, job, phase: str) -> Sample:
        """One job, timed around the cli.main call only, then verified."""
        self.mesh.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        for fixture in self.caches:     # a fresh `cknet check` process rebuilds them
            fixture.cache_clear()
        argv = job.argv(self.config, self.mesh, self.report)
        ref_before = _timed(reference_kernel)
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()   # the peak is the job's alone
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a CLI user would see this traceback
                crash = exc
            seconds = time.perf_counter() - start
        # The kernel's arrays would raise a small job's tracemalloc peak.
        ref_seconds = ref_before if tracemalloc.is_tracing() else (
            ref_before + _timed(reference_kernel)) / 2.0
        if crash is not None:
            outcome = Outcome(False, False, "uncaught", type(crash).__name__,
                              "".join(traceback.format_exception(crash)).strip())
        else:
            outcome = verify(job, code, err.getvalue(), self.mesh, self.report)
        sample = Sample(job, seconds, ref_seconds, outcome)
        self.log.append((phase, sample))
        return sample

    def peak_mb(self, job) -> float:
        """tracemalloc peak of one run of ``job``, in MB."""
        tracemalloc.start()
        try:
            self.run(job, "alloc")
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()


def verified(samples: list) -> list:
    return [s for s in samples if s.outcome.ok]


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, name: str, seed: int, seconds: float) -> dict:
    done = [runner.run(job, "timed")
            for job in workloads.job_list(name, seed, workloads.job_count(name, seconds))]
    ok = verified(done)
    if len(ok) < 2:
        raise SystemExit(f"only {len(ok)} verified job(s) in the timed pass; nothing to measure")
    cost = [s.seconds / s.ref_seconds for s in ok]
    ms = [1e3 * s.seconds for s in ok]
    print(f"timed pass: {len(done)} jobs, {len(ok)} verified, "
          f"{sum(c > percentile(cost, 75) for c in cost)} above p75; wall time "
          f"job_ms_p50 = {statistics.median(ms):.6g} ms, "
          f"job_ms_p90 = {percentile(ms, 90):.6g} ms, "
          f"reference kernel median {1e3 * statistics.median(s.ref_seconds for s in done):.4g} ms")
    largest = max((s.job for s in ok), key=lambda j: j.shape[0] * j.shape[1] if j.shape else 0)
    setup, raw_setup = startup.import_seconds(SRC, ROOT, SETUP_RUNS)
    print(f"import cknet.cli: {raw_setup:.6g} s raw, {setup:.6g} s at nominal speed")
    return {
        "job_ref_p50": statistics.median(cost),
        "job_ref_p75": percentile(cost, 75),
        "setup_s": setup,
        "peak_alloc_mb": runner.peak_mb(largest),
    }


def per_layer(runner: Runner, name: str, seed: int, seconds: float) -> tuple:
    """(metrics, spans document) from jobs run untraced and traced.

    The jobs are the first half of the timed pass's list, first cycle in full.

    The two runs of a job are back to back, in alternating order, so a
    change in machine speed during the run cancels out of the overhead.
    """
    tracer = tracing.Tracer()
    wall, untraced, traced = {}, [], []
    first_cycle = [j.index for j in workloads.cycle(name, seed, 0)]
    count = max(len(first_cycle), workloads.job_count(name, seconds) // 2)
    for job in workloads.job_list(name, seed, count):
        for with_spans in ((False, True) if job.index % 2 == 0 else (True, False)):
            if not with_spans:
                untraced.append(runner.run(job, "untraced"))
                continue
            with tracer.recording(job.index):
                sample = runner.run(job, "traced")
            wall[job.index] = sample.seconds
            traced.append(sample)
    rows = tracing.per_job(tracer, wall)
    names = tracing.all_names(list(rows.values()))
    errors = [n for n in names if ".errors" in n]
    spans = tracing.medians(list(rows.values()), [n for n in names if n not in errors])
    first = [rows[i] for i in first_cycle]
    spans.update(tracing.medians(first, COUNTS))
    spans.update({n: sum(r.get(n, 0) for r in first) for n in errors})
    spans["trace.overhead_ms"] = 1e3 * (statistics.median(s.seconds for s in verified(traced))
                                        - statistics.median(s.seconds for s in verified(untraced)))
    spans.update(startup.importtime_breakdown(SRC, ROOT, SETUP_RUNS))
    for key in sorted(spans):
        print(f"layer {key} = {spans[key]:.6g}")
    return spans, {
        "span_fields": ["name", "start", "end", "parent", "job", "error"],
        "spans": tracer.spans,
        "per_job": {str(k): dict(v) for k, v in rows.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cknet" / "cli.py").is_file():
        print(f"error: no cknet sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    broken = selftest.problems()
    if broken:
        print("error: benchmark self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=ROOT) as work:
        runner = Runner(args.workload, Path(work))
        prov = provenance.collect(ROOT, args.workload, args.seed)
        runner.run(workloads.cycle(args.workload, args.seed, 0)[0], "warmup")
        if args.trace:
            values, trace_doc = per_layer(runner, args.workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            values = end_to_end(runner, args.workload, args.seed, args.seconds)
            units = END_TO_END

    measured = [s for phase, s in runner.log if phase in MEASURED_PHASES]
    failed = sum(not s.outcome.ok for s in measured)
    attempted = len(measured)
    values["fail_ratio"] = failed / attempted
    prov["loadavg_end"] = os.getloadavg()
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"provenance": prov, **trace_doc}), encoding="utf-8")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    for phase, s in runner.log:
        o = s.outcome
        if o.ok:
            continue
        last = o.reason.splitlines()[-1] if o.reason else ""
        print(f"failed {phase} job {s.job.index}: stage={o.stage} error={o.error} "
              f"classified={o.classified} {dict(s.job.overrides)} {last}")
    print(f"jobs attempted={attempted} failed={failed} fail_ratio={values['fail_ratio']:.4f}")
    for key, unit in units.items():
        print(f"{key} = {values[key]:.6g} {unit}")
    print(json.dumps({
        "correct": all(s.outcome.ok or s.outcome.classified for _, s in runner.log),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
