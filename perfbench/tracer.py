"""Spans around the calls into each cknet layer, kept in memory.

``Tracer.install`` replaces the public functions listed in ``TRACED`` with
timing wrappers, everywhere a cknet module holds a reference to them:
module globals (so ``from .nets import sym`` in ``cli`` is caught too)
and module-level registries such as ``checks.ALL_CRITERIA``.  Nothing in
the package's source is edited; ``uninstall`` puts the originals back.

Each span is ``(name, start, end, parent, job, error)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``error`` the exception
class that first left the program through this span, if any.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("quat", "lattice", "nets", "revolution", "connect", "backlund", "checks", "cli")

# Public functions that another module or the CLI calls, plus the two
# counted intra-module workers (nets.face_normal, backlund.build_abcd).
# Hot intra-module helpers such as backlund.moebius (about 48k calls per
# 61x200 job) stay unwrapped so the tracing overhead stays small.
TRACED = {
    "quat": ("inv", "coords_complex", "embed", "parts", "qconj", "quat", "conjugate_rotate"),
    "lattice": ("gauge", "gauge_frame", "flatness_residual", "jet_residual", "admissible_gauge"),
    "nets": ("sym", "sym_arrays", "curvature_report", "face_normal", "validate_ec",
             "rigid_align", "singular_vertices"),
    "revolution": ("profile_elliptic", "profile_trig", "profile_hyp", "build_rcnet",
                   "conservation_drift", "edge_residuals", "gauss_from_profile",
                   "elliptic_theta", "jacobi", "validate_profile"),
    "connect": ("build_ck_connection", "build_cmc_connection", "gauge_to_hs",
                "rotational_frames", "closing_residual", "hs_lax"),
    "backlund": ("build_abcd", "propagate", "single_backlund", "double_backlund",
                 "find_periodic_alpha", "linearize"),
    "checks": ("run_all",) + tuple(f"criterion_{i}" for i in range(1, 12)),
    "cli": ("main", "export_obj", "report_json"),
}


def span_name(layer: str, func: str) -> str:
    if func.startswith("criterion_"):
        return f"{layer}.criterion_{int(func.rsplit('_', 1)[1]):02d}"
    return f"{layer}.{func}"


SPAN_NAMES = tuple(span_name(layer, f) for layer, funcs in TRACED.items() for f in funcs)


class Tracer:
    """Records spans of the wrapped functions and vertices of every net built."""

    def __init__(self):
        self.spans = []
        self.vertices = defaultdict(int)   # job -> vertices of ContactElementNets built
        self.job = None
        self._stack = []
        self._last_error = None
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:   # count it where it first left a span
                    self._last_error = exc
                    error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, error)

        return traced

    def install(self) -> None:
        table = {}
        for layer, funcs in TRACED.items():
            mod = importlib.import_module(f"cknet.{layer}")
            for func in funcs:
                fn = getattr(mod, func)
                table[id(fn)] = (fn, self._wrap(span_name(layer, func), fn))

        def swap(value):
            hit = table.get(id(value))
            if hit is not None and hit[0] is value:
                return hit[1]
            if isinstance(value, tuple):
                new = tuple(swap(v) for v in value)
                if any(a is not b for a, b in zip(new, value)):
                    return new
            return value

        for modname, mod in list(sys.modules.items()):
            if modname != "cknet" and not modname.startswith("cknet."):
                continue
            for attr, value in list(vars(mod).items()):
                new = swap(value)
                if new is not value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, new)

        net_cls = importlib.import_module("cknet.nets").ContactElementNet
        post_init = net_cls.__post_init__
        vertices = self.vertices

        def counted_post_init(net):
            post_init(net)
            vertices[self.job] += net.x.shape[0] * net.x.shape[1]

        self._patched.append((net_cls, "__post_init__", post_init))
        net_cls.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, value = self._patched.pop()
            setattr(obj, attr, value)

    @contextlib.contextmanager
    def recording(self, job):
        """Wrappers installed and spans attributed to ``job`` for the block."""
        self.job = job
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.job = None
            self._last_error = None   # drop the traceback and the arrays it holds


def per_job(tracer: Tracer, wall: dict) -> dict:
    """job -> {metric: value}: self time, calls and errors per span and layer.

    ``wall`` maps each traced job to its wall time in seconds; the part of
    it no top-level span covers is the job's unattributed time.
    """
    out = {job: defaultdict(float) for job in wall}
    durations = [s[2] - s[1] for s in tracer.spans]
    self_time = list(durations)
    for i, (name, start, end, parent, job, error) in enumerate(tracer.spans):
        if parent >= 0:
            self_time[parent] -= durations[i]
    for i, (name, start, end, parent, job, error) in enumerate(tracer.spans):
        m = out.get(job)
        if m is None:
            continue
        layer = name.split(".", 1)[0]
        m[f"{name}.self_ms"] += 1e3 * self_time[i]
        m[f"{name}.calls"] += 1
        m[f"{layer}.self_ms"] += 1e3 * self_time[i]
        if parent < 0:
            m["covered_ms"] += 1e3 * durations[i]
        if error:
            m[f"{layer}.errors"] += 1
            m[f"{layer}.errors.{error}"] += 1
    for job, m in out.items():
        m["trace.unattributed_ms"] = 1e3 * wall[job] - m.pop("covered_ms", 0.0)
        m["nets.vertices"] = tracer.vertices.get(job, 0)
    return out


def medians(rows: list, names) -> dict:
    """Median over jobs of each named metric; a job without it counts 0."""
    return {n: statistics.median(r.get(n, 0.0) for r in rows) for n in names}


def all_names(rows: list) -> list:
    base = [f"{n}.{kind}" for n in SPAN_NAMES for kind in ("self_ms", "calls")]
    base += [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_ms", "errors")]
    seen = {k for r in rows for k in r}
    return base + sorted(seen - set(base))
