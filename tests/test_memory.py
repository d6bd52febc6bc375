"""Memory bounds of the long-grid stages, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call, with its inputs built before tracing starts, is what the call adds
on top of them.  The inputs are fixed: one profile, angle and seed, and a
net drawn from a seeded generator.
"""

import tracemalloc
from functools import lru_cache

import numpy as np

from cknet import cli
from cknet.backlund import BacklundParams, double_backlund
from cknet.connect import build_ck_connection, gauge_to_hs, rotational_frames
from cknet.lattice import gauge_frame
from cknet.nets import ContactElementNet, CurvatureReport, curvature_report
from cknet.revolution import profile_elliptic

MiB = 2 ** 20


def added_mib(fn, *args):
    """tracemalloc peak of one call of ``fn``, in MiB, after a warm-up call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def wide_frames():
    """Gauged frames and normal-form data of the 61 x 200 grid of the benchmark's wide jobs."""
    p = profile_elliptic(0.6, -1, (-30, 30), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / 6.0, 200)
    hs = gauge_to_hs(conn, data)
    return gauge_frame(rotational_frames(conn, a0=p.a[0], b0=p.b[0]), hs.gauge), hs


def test_double_transform_memory_is_the_net_and_one_block():
    """The result (0.56 MiB of real coordinates), two scalar fields (0.37 MiB) and one block
    of rows: 1.83 MiB in all, where whole-grid intermediates took 5.6 MiB."""
    frames, hs = wide_frames()
    params = BacklundParams(np.pi / 2.0 + 0.5j, s_tilde0=1.2 + 0.5j)
    assert added_mib(double_backlund, frames, hs, params) <= 2.75


@lru_cache(maxsize=None)
def seeded_net():
    """A 121 x 2000 net of seeded random positions and unit normals."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0, 3.0, size=(121, 2000, 3))
    n = rng.normal(size=x.shape)
    return ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))


def test_curvature_report_memory_is_its_arrays_and_one_block():
    """The report's own arrays (K, H, det_x, degenerate and the normals: 49 bytes a face,
    11.2 MiB here) and one block of face rows, where the whole-grid pass added about 55 MiB."""
    net = seeded_net()
    faces = (net.shape[0] - 1) * (net.shape[1] - 1)
    assert added_mib(curvature_report, net) <= 49 * faces / MiB + 1.5


def test_report_entries_run_their_residuals_before_the_curvature_report():
    """The whole-grid residuals (validate_ec alone adds 14.75 MiB here) run before the
    curvature report (11.2 MiB) exists, so their temporaries never sit on top of it: 15.1 MiB
    for a net and 18.5 MiB for a single transform, where 26.0 and 29.7 MiB did."""
    net = seeded_net()
    other = ContactElementNet(net.x[::-1].copy(), net.n[::-1].copy())
    p = profile_elliptic(0.6, -1, (-60, 60), j0=4)
    assert added_mib(cli.net_report_entries, p, net, 6) <= 16.5
    assert added_mib(cli.backlund_report_entries, net, other, 1.0) <= 20.0


def test_obj_export_memory_does_not_grow_with_the_grid(tmp_path):
    """121 x 2000 vertices: the writer holds one chunk of lines at a time (about 1 MiB),
    where one list of Python ints for the whole face block took 57 MiB."""
    net = seeded_net()
    degenerate = np.zeros((120, 1999), dtype=bool)
    degenerate[::17, ::301] = True
    blank = np.zeros(degenerate.shape)
    rep = CurvatureReport(blank, blank, blank, degenerate, np.zeros(degenerate.shape + (3,)))
    assert added_mib(cli.export_obj, net, str(tmp_path / "mesh.obj"), rep) <= 2.0
