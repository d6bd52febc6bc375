"""Memory bounds of the long-grid stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call, with its inputs built before tracing starts, is what the call adds
on top of them.  The inputs are fixed: one profile, angle and seed, and a
net drawn from a seeded generator.
"""

import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np

from cknet import cli
from cknet.backlund import double_backlund
from cknet.connect import build_ck_connection, gauge_to_hs
from cknet.nets import ContactElementNet, curvature_report
from cknet.revolution import column_angles, profile_elliptic

MiB = 2 ** 20


def added_mib(fn, *args, **kwargs):
    """tracemalloc peak of one call of ``fn``, in MiB, after a warm-up call."""
    fn(*args, **kwargs)
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def wide_grid():
    """Normal-form data and column angles of the 61 x 200 grid of the benchmark's wide jobs."""
    p = profile_elliptic(0.6, -1, (-30, 30), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / 6.0)
    return gauge_to_hs(conn, data), column_angles(200, k0=6)


def test_double_transform_memory_is_the_net_and_one_block():
    """The result (0.56 MiB of real coordinates), the propagated scalar fields and one block
    of rows.  A complex angle propagates s~ alone (s^ is conj(s~) per block) and measures
    1.18 MiB; a real angle propagates s^ too (0.19 MiB more) and measures 1.37 MiB.  Each
    bound is that peak plus 0.1 MiB.  Storing the composed field and packing every block's
    transform into a (..., 2, 2) jet took 1.83 MiB, and whole-grid intermediates 5.6 MiB."""
    grid = wide_grid()
    assert added_mib(double_backlund, *grid, np.pi / 2.0 + 0.5j, 1.2 + 0.5j) <= 1.28
    assert added_mib(double_backlund, *grid, 1.2) <= 1.47


@lru_cache(maxsize=None)
def seeded_net():
    """A 121 x 2000 net of seeded random positions and unit normals."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0, 3.0, size=(121, 2000, 3))
    n = rng.normal(size=x.shape)
    return ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))


def test_curvature_report_memory_is_one_block():
    """Every reduction of the loop at once over a net and a transform of it: one block of
    rows (0.56 MiB), where the report's arrays alone took 49 bytes a face (11.2 MiB here)."""
    net = seeded_net()
    other = ContactElementNet(net.x[::-1].copy(), net.n[::-1].copy())
    assert added_mib(curvature_report, net, -1, edge=True, period=6,
                     base=other, alpha=1.0) <= 1.0


def verify_net(p, net):
    """The checks of ``cknet generate`` on ``net``."""
    worst, _ = curvature_report(net, p.K_sign, edge=True, period=6)
    return cli.net_report_entries(p, net, worst)


def verify_transform(base, net):
    """The checks of ``cknet backlund`` on ``net``, a transform of ``base`` at angle 1."""
    worst, _ = curvature_report(net, base=base, alpha=1.0)
    return cli.backlund_report_entries(worst)


def test_report_entries_add_one_block():
    """The entries of a net and of a single transform add one block of rows over their
    inputs, where whole-grid residuals added 15.1 and 18.5 MiB."""
    net = seeded_net()
    other = ContactElementNet(net.x[::-1].copy(), net.n[::-1].copy())
    p = profile_elliptic(0.6, -1, (-60, 60), j0=4)
    assert added_mib(verify_net, p, net) <= 2.0
    assert added_mib(verify_transform, net, other) <= 2.0


def test_obj_export_memory_does_not_grow_with_the_grid(tmp_path):
    """121 x 2000 vertices: the writer holds one chunk of lines at a time (about 1 MiB),
    where one list of Python ints for the whole face block took 57 MiB."""
    net = seeded_net()
    degenerate = np.zeros((120, 1999), dtype=bool)
    degenerate[::17, ::301] = True
    degenerate = np.flatnonzero(degenerate)
    assert added_mib(cli.export_obj, net, str(tmp_path / "mesh.obj"), degenerate) <= 2.0


def test_cold_digit_tables_build_within_a_quarter_megabyte():
    """The OBJ writer's tables, built once per process on the first export: 0.145 MB at the
    peak for 0.118 MB kept, in a fresh interpreter, where int64 digit arrays and a matmul
    peaked at 1.15 MB.  The bound leaves 105 kB of margin."""
    probe = ("import tracemalloc; tracemalloc.start(); from cknet import cli; "
             "tracemalloc.reset_peak(); base = tracemalloc.get_traced_memory()[0]; "
             "cli._digit_tables(); print(tracemalloc.get_traced_memory()[1] - base)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert int(done.stdout) <= 250_000
