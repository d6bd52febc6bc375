"""The Sym formula through frame factors and in explicit form, against frames formed vertex
by vertex.

``reference.sym_arrays`` applies the adjoint maps of the row and column frame factors;
``oracles.dense_sym`` materialises Phi, multiplies the gauge and the transform onto it and
inverts the result on every vertex, as the pipeline did before the frames were factored.  Both
must give the same positions and normals, to ``TOL``.  The transforms form no frame: they
evaluate the Sym formula in ``build_rcnet``'s frame, and ``oracles.sym_frame`` moves their nets
into the Sym frame by the exact rigid motion of the initial frame.  That compares two
constructions, so the bound is ``EXPLICIT_TOL``.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cknet.backlund import build_abcd, double_backlund, propagate, single_backlund
from cknet.connect import build_ck_connection, gauge_to_hs
from cknet.reference import build_cmc_connection, gauge_frame, rotational_frames, sym_arrays
from cknet.revolution import column_angles, profile_elliptic, profile_hyp, profile_trig
from oracles import composed_field, dense_sym, sym_frame, v_jet, w_jet

TOL = 1e-13
# The explicit nets, moved by the initial frame's motion, differ from the dense oracles by at
# most 1.1e-14 on 7 x 15, 2.2e-13 on 61 x 200 and 2.0e-12 on 121 x 2000, over x and n, single
# and double transforms, alpha in {1.0, 2.4} and pi/2 + {0.5, 1.16, 1.4}i, and three row
# ranges each, odd and even j_lo.  They grow with the grid as the base Sym net's own distance
# from build_rcnet does (2.2e-15, 2.3e-14, 4.3e-13): the gap is the rounding of the frame
# products.  The bound is that worst, 2.0e-12, times 2.
EXPLICIT_TOL = 4e-12
THETA = np.pi / 6.0


def worst(got, want):
    """Largest coordinate difference; the dense imaginary parts are rounding noise."""
    return max(float(np.max(np.abs(g - w.real))) for g, w in zip(got, want))


@lru_cache(maxsize=None)
def ck_grid(nj=7, nk=15, theta=THETA, j_lo=None, family=("elliptic", 0.6, 4)):
    """Profile, ungauged frames, normal-form data, gauged frames and column angles of a
    K = -1 profile of nj rows from j_lo (by default -(nj // 2)): ("elliptic", kappa, j0) or
    ("hyp", c, A, B).  The frames are seeded at the meridian the connection is built from,
    the mirrored one when f < 0."""
    j_lo = -(nj // 2) if j_lo is None else j_lo
    if family[0] == "elliptic":
        p = profile_elliptic(family[1], -1, (j_lo, j_lo + nj - 1), j0=family[2])
    else:
        p = profile_hyp(np.full(nj - 1, family[1]), *family[2:], j_lo=j_lo)
    conn, data = build_ck_connection(p, theta)
    hs = gauge_to_hs(conn, data)
    seed = p.mirrored() if p.f[0] < 0 else p
    frames = rotational_frames(conn, a0=seed.a[0], b0=seed.b[0], nk=nk)
    return p, frames, hs, gauge_frame(frames, hs.gauge), column_angles(nk, theta=theta)


@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_base_nets_match_dense_frames(case, tau):
    if case == 3:
        frames = ck_grid()[1]
        xi = 2.0
    else:
        p = profile_trig(np.full(6, -np.tan(0.05)), 0.6 if case == 1 else 1.4, 0.0, j_lo=-3)
        conn, _ = build_cmc_connection(p, THETA)
        frames = rotational_frames(conn, p.a[0], p.b[0], 15)
        xi = -2.0
    assert frames.rows.shape[1] == 1
    x, n = sym_arrays(frames, xi)
    assert worst((x + tau * n, n), dense_sym(frames, xi, tau)) <= TOL   # the parallel net x + tau n


def test_gauged_base_net_matches_dense_frames():
    _, frames, hs, frames_hs, _ = ck_grid()
    assert frames_hs.rows.shape == (7, 1, 2, 2)
    assert worst(sym_arrays(frames_hs, 2.0), dense_sym(frames, 2.0, G=hs.gauge)) <= TOL


def dense_single(frames, hs, alpha, seed):
    """Dense (x, n) of W Phi."""
    s_tilde = propagate(*build_abcd(hs, alpha), seed, frames.shape[1])
    return dense_sym(frames, 2.0, G=hs.gauge, T=w_jet(alpha, s_tilde, hs.s, frames.t0))


@pytest.mark.parametrize("alpha", [np.pi / 3.0, 2.0])
def test_single_transforms_match_dense_frames(alpha):
    _, frames, hs, _, ang = ck_grid()
    net = single_backlund(hs, ang, alpha, np.exp(0.7j))
    x, n = dense_single(frames, hs, alpha, np.exp(0.7j))
    assert worst(sym_frame(net, hs), (x, n)) <= EXPLICIT_TOL
    assert max(np.max(np.abs(x.imag)), np.max(np.abs(n.imag))) <= TOL


def dense_double(frames, hs, alpha, seed):
    """Dense (x, n) of V W Phi: V at -alpha from the composed field over the W-transformed net."""
    s_tilde, shat_tilde = composed_field(hs, frames.shape[1], alpha, seed)
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
    _, frames, hs, _, ang = ck_grid()
    net, _ = double_backlund(hs, ang, alpha, seed)
    assert worst(sym_frame(net, hs), dense_double(frames, hs, alpha, seed)) <= EXPLICIT_TOL


@settings(max_examples=6, deadline=None, derandomize=True)
@given(nj=st.integers(2, 121), nk=st.integers(2, 2000), shift=st.integers(-5, 5),
       real=st.booleans(), single=st.booleans(), angle=st.floats(0.1, np.pi - 0.1),
       y=st.floats(0.05, 1.0), radius=st.floats(0.7, 1.5), phase=st.floats(-np.pi, np.pi))
@example(nj=121, nk=2000, shift=0, real=False, single=False, angle=1.0, y=0.5, radius=1.3,
         phase=0.4)
@example(nj=61, nk=200, shift=13, real=True, single=True, angle=1.0, y=0.5, radius=1.0,
         phase=0.4)
@example(nj=61, nk=200, shift=13, real=False, single=False, angle=1.0, y=0.5, radius=1.3,
         phase=0.4)
def test_double_transform_matches_dense_frames_on_any_grid(nj, nk, shift, real, single, angle,
                                                           y, radius, phase):
    """Rows from j_lo = shift - nj // 2, where the initial frame's motion also turns the net
    (the last two examples start at the odd j_lo = -17); a real angle drawn with ``single``
    checks the single transform instead."""
    _, frames, hs, _, ang = ck_grid(nj, nk, np.pi / 3.0, shift - nj // 2)
    alpha = angle if real else np.pi / 2.0 + 1j * y
    seed = np.exp(1j * phase) * (1.0 if real else radius)
    if real and single:
        net, want = single_backlund(hs, ang, alpha, seed), dense_single(frames, hs, alpha, seed)
    else:
        net = double_backlund(hs, ang, alpha, seed)[0]
        want = dense_double(frames, hs, alpha, seed)
    assert worst(sym_frame(net, hs), want) <= EXPLICIT_TOL


@settings(max_examples=8, deadline=None, derandomize=True)
@given(hyp=st.booleans(), kappa=st.floats(1.1, 2.5), j0=st.integers(4, 24),
       c=st.floats(0.005, 0.05), nj=st.integers(2, 61), start=st.floats(0.0, 1.0),
       below=st.booleans(), nk=st.integers(2, 400), real=st.booleans(), single=st.booleans(),
       angle=st.floats(0.1, np.pi - 0.1), y=st.floats(0.05, 1.2), radius=st.floats(0.7, 1.5),
       phase=st.floats(-np.pi, np.pi))
@example(hyp=False, kappa=1.5552, j0=16, c=0.01, nj=11, start=0.4, below=True, nk=181,
         real=False, single=False, angle=1.0, y=1.1072757482117086, radius=1.154,
         phase=2.959)
@example(hyp=True, kappa=1.5, j0=4, c=0.0475, nj=5, start=0.1, below=True, nk=13, real=True,
         single=True, angle=1.0, y=0.5, radius=1.0, phase=0.0)
def test_negative_radius_transforms_match_dense_frames(hyp, kappa, j0, c, nj, start, below, nk,
                                                       real, single, angle, y, radius, phase):
    """Meridians with f < 0 on every row: elliptic with kappa > 1 on rows j0 < |j| < 3 j0,
    and hyp with A, B < 0 on rows that leave out label 0 (|b| <= 1 while the running product
    stays below 1.8), below or above 0.  The examples are the rows of the two jobs that read
    transformed_gauss 39.5 and 1.41 before the connection was built from the mirrored
    meridian."""
    if hyp:
        nj = min(nj, 1 + int(0.59 / np.log((1.0 + c) / (1.0 - c))))
        first, family = 1 + round(20 * start), ("hyp", c, -0.4333, -0.6801)
    else:
        nj = min(nj, 2 * j0 - 1)
        first, family = j0 + 1 + round(start * (2 * j0 - 1 - nj)), ("elliptic", kappa, j0)
    _, frames, hs, _, ang = ck_grid(nj, nk, np.pi / 3.0, -(first + nj - 1) if below else first,
                                    family)
    assert np.all(hs.profile.f < 0)
    alpha = angle if real else np.pi / 2.0 + 1j * y
    seed = np.exp(1j * phase) * (1.0 if real else radius)
    if real and single:
        net, want = single_backlund(hs, ang, alpha, seed), dense_single(frames, hs, alpha, seed)
    else:
        net = double_backlund(hs, ang, alpha, seed)[0]
        want = dense_double(frames, hs, alpha, seed)
    assert worst(sym_frame(net, hs), want) <= EXPLICIT_TOL
