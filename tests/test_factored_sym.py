"""The factored Sym formula against frames formed vertex by vertex.

``nets.sym_arrays`` applies the adjoint maps of the row and column frame
factors and reads only the transform jet per vertex; ``oracles.dense_sym``
materialises Phi, multiplies the gauge and the transform onto it and
inverts the result on every vertex, as the pipeline did before the frames
were factored.  Both must give the same positions and normals.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cknet.backlund import build_abcd, double_backlund, propagate, single_backlund
from cknet.connect import build_ck_connection, build_cmc_connection, gauge_to_hs, rotational_frames
from cknet.lattice import gauge_frame
from cknet.nets import sym_arrays
from cknet.revolution import profile_elliptic, profile_trig
from oracles import composed_field, dense_sym, v_jet, w_jet

TOL = 1e-13
THETA = np.pi / 6.0


def worst(got, want):
    """Largest coordinate difference; the dense imaginary parts are rounding noise."""
    return max(float(np.max(np.abs(g - w.real))) for g, w in zip(got, want))


@lru_cache(maxsize=None)
def ck_grid(nj=7, nk=15, theta=THETA):
    """Ungauged frames, normal-form data and gauged frames of a K = -1 profile of nj rows."""
    j_lo = -(nj // 2)
    p = profile_elliptic(0.6, -1, (j_lo, j_lo + nj - 1), j0=4)
    conn, data = build_ck_connection(p, theta, nk)
    hs = gauge_to_hs(conn, data)
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0])
    return frames, hs, gauge_frame(frames, hs.gauge)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_base_nets_match_dense_frames(case, tau):
    if case == 3:
        frames = ck_grid()[0]
        xi = 2.0
    else:
        p = profile_trig(np.full(6, -np.tan(0.05)), 0.6 if case == 1 else 1.4, 0.0, j_lo=-3)
        conn, _ = build_cmc_connection(p, THETA, 15)
        frames = rotational_frames(conn, p.a[0], p.b[0])
        xi = -2.0
    assert frames.rows.shape[1] == 1
    x, n = sym_arrays(frames, xi)
    assert worst((x + tau * n, n), dense_sym(frames, xi, tau)) <= TOL   # the parallel net x + tau n


def test_gauged_base_net_matches_dense_frames():
    frames, hs, frames_hs = ck_grid()
    assert frames_hs.rows.shape == (7, 1, 2, 2)
    assert worst(sym_arrays(frames_hs, 2.0), dense_sym(frames, 2.0, G=hs.gauge)) <= TOL


@pytest.mark.parametrize("alpha", [np.pi / 3.0, 2.0])
def test_single_transforms_match_dense_frames(alpha):
    frames, hs, frames_hs = ck_grid()
    net = single_backlund(frames_hs, hs, alpha, np.exp(0.7j))
    s_tilde = propagate(*build_abcd(hs, alpha), np.exp(0.7j), hs.domain.nk)
    T = w_jet(alpha, s_tilde, hs.s, frames.t0)
    x, n = dense_sym(frames, 2.0, G=hs.gauge, T=T)
    assert worst((net.x, net.n), (x, n)) <= TOL
    assert max(np.max(np.abs(x.imag)), np.max(np.abs(n.imag))) <= TOL


def dense_double(frames, hs, alpha, seed):
    """Dense (x, n) of V W Phi: V at -alpha from the composed field over the W-transformed net."""
    s_tilde, shat_tilde = composed_field(hs, alpha, seed)
    W = w_jet(alpha, s_tilde, hs.s, frames.t0)
    V = v_jet(-alpha, shat_tilde, s_tilde, frames.t0)
    return dense_sym(frames, 2.0, G=hs.gauge, T=V @ W)


@pytest.mark.parametrize("alpha, seed", [
    (np.pi / 3.0, np.exp(0.4j)),
    (2.4, np.exp(-1.1j)),
    (np.pi / 2.0 + 0.5j, 1.3 * np.exp(0.4j)),
    (np.pi / 2.0 + 1.4j, 0.8 * np.exp(2.0j)),
])
def test_double_transforms_match_dense_frames(alpha, seed):
    frames, hs, frames_hs = ck_grid()
    net, _ = double_backlund(frames_hs, hs, alpha, seed)
    assert worst((net.x, net.n), dense_double(frames, hs, alpha, seed)) <= TOL


@settings(max_examples=6, deadline=None, derandomize=True)
@given(nj=st.integers(2, 121), nk=st.integers(2, 2000), real=st.booleans(),
       angle=st.floats(0.1, np.pi - 0.1), y=st.floats(0.05, 1.0),
       radius=st.floats(0.7, 1.5), phase=st.floats(-np.pi, np.pi))
@example(nj=121, nk=2000, real=False, angle=1.0, y=0.5, radius=1.3, phase=0.4)
def test_double_transform_matches_dense_frames_on_any_grid(nj, nk, real, angle, y, radius, phase):
    frames, hs, frames_hs = ck_grid(nj, nk, np.pi / 3.0)
    alpha = angle if real else np.pi / 2.0 + 1j * y
    seed = np.exp(1j * phase) * (1.0 if real else radius)
    net, _ = double_backlund(frames_hs, hs, alpha, seed)
    assert worst((net.x, net.n), dense_double(frames, hs, alpha, seed)) <= TOL
