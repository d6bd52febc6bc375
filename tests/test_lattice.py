"""Tests for jets, connections, frames, and gauging."""

from functools import lru_cache

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cknet import reference as ref
from cknet.connect import build_ck_connection, gauge_to_hs
from cknet.lattice import ConnectionFamily, MatJet, flatness_residual, jet_residual
from cknet.reference import (FrameFamily, admissible_gauge, gauge, gauge_frame, initial_frame,
                             rotational_frames)
from cknet.revolution import profile_elliptic
from oracles import NotFlat, integrate_frame

EYE = np.eye(2, dtype=complex)


def random_unit_quat(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return ref.quat(*v)


@lru_cache(maxsize=None)
def ck_connection():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, np.pi / 6.0)
    return p, conn, data   # frames on 8 columns


def random_jets(rng, shape, scale=False):
    """Random unit quaternions (times a random size when ``scale``) with random derivatives."""
    val = np.empty(shape + (2, 2), dtype=complex)
    dot = np.empty_like(val)
    for idx in np.ndindex(shape):
        val[idx] = random_unit_quat(rng) * (rng.uniform(0.5, 2.0) if scale else 1.0)
        dot[idx] = val[idx] @ ref.embed(0.1 * rng.normal(size=3))
    return MatJet(val, dot)


@lru_cache(maxsize=None)
def random_flat_connection():
    """Flat by construction from random row frames P(j) and a random D:
    L(j) = P(j+1) P(j)^{-1} and M(j) = P(j) D P(j)^{-1}, whose parallel frames are P(j) D^k."""
    rng = np.random.default_rng(100)
    nj, nk = 4, 5
    P, D = random_jets(rng, (nj, 1), scale=True), random_jets(rng, ())
    Pi = P.inv()
    Dk = [MatJet.constant(EYE)]
    for _ in range(nk - 1):
        Dk.append(D @ Dk[-1])
    conn = ConnectionFamily(P[1:] @ Pi[:-1], P @ D @ Pi)
    cols = MatJet(np.stack([m.val for m in Dk]), np.stack([m.dot for m in Dk]))
    return conn, FrameFamily(P, cols=cols)


# ---------------------------------------------------------------------------
# jets


def test_matjet_product_rule():
    rng = np.random.default_rng(1)
    a = MatJet(random_unit_quat(rng), random_unit_quat(rng))
    b = MatJet(random_unit_quat(rng), random_unit_quat(rng))
    prod = a @ b
    np.testing.assert_array_equal(prod.val, a.val @ b.val)
    assert_allclose(prod.dot, a.val @ b.dot + a.dot @ b.val, atol=1e-15)


def test_matjet_inv_matches_finite_differences():
    rng = np.random.default_rng(2)
    a = MatJet(random_unit_quat(rng), 0.3 * random_unit_quat(rng))
    inv = a.inv()
    assert_allclose(inv.val @ a.val, EYE, atol=1e-14)
    h = 1e-6
    fd = (np.linalg.inv(a.val + h * a.dot) - np.linalg.inv(a.val - h * a.dot)) / (2.0 * h)
    assert_allclose(inv.dot, fd, atol=1e-8)


def test_matjet_constant_has_zero_derivative():
    c = MatJet.constant(ref.quat(1.0, 0.5, 0.0, -0.3))
    assert np.all(c.dot == 0)


def test_jet_residual_covers_both_layers():
    a = MatJet.constant(EYE)
    b = MatJet(EYE, 1e-3 * EYE)
    assert abs(jet_residual(a, b) - 1e-3) < 1e-18


def test_connection_shape_validation():
    eye = lambda *shape: MatJet.constant(np.broadcast_to(EYE, shape + (2, 2)).copy())
    # one edge jet per profile row is the only form, M giving the rows: dense and mixed
    # families are refused
    conn = ConnectionFamily(eye(2, 1), eye(3, 1))
    for L, M in ((eye(2, 4), eye(3, 3)), (eye(2, 1), eye(3, 3)), (eye(2, 4), eye(3, 1)),
                 (eye(3, 4), eye(3, 3)), (eye(2, 3), eye(3, 3)), (eye(2, 4), eye(3, 4)),
                 (eye(1, 4), eye(3, 3)), (eye(2, 4), eye(3)), (eye(4), eye(3, 3)),
                 (eye(3, 1), eye(3, 1)), (eye(2, 1), eye(2, 1)), (eye(2), eye(3)),
                 (eye(2, 1, 1), eye(3, 1, 1))):
        with pytest.raises(ValueError, match="one edge jet per profile row"):
            ConnectionFamily(L, M)
    # so is a gauge that is not one jet per profile row
    for G in (eye(3, 4), eye(3), eye(2, 1), eye(4, 1), eye(1, 1), eye(3, 1, 1)):
        with pytest.raises(ValueError, match="one jet per profile row"):
            gauge(conn, G)


# ---------------------------------------------------------------------------
# flatness and integration


def identity_connection(nj):
    L = MatJet.constant(np.broadcast_to(EYE, (nj - 1, 1, 2, 2)).copy())
    M = MatJet.constant(np.broadcast_to(EYE, (nj, 1, 2, 2)).copy())
    return ConnectionFamily(L, M)


def test_identity_connection_is_flat():
    conn = identity_connection(3)
    assert flatness_residual(conn) == 0.0
    frames = integrate_frame(conn, MatJet.constant(EYE), 3)
    assert np.max(np.abs(frames.Phi.val - EYE)) == 0.0
    assert np.max(np.abs(frames.Phi.dot)) == 0.0


def test_single_edge_defect_breaks_flatness():
    # row 1 of M turned: M(1) L(0) and L(0) M(0) no longer agree
    conn = identity_connection(2)
    mval = conn.M.val.copy()
    mval[1, 0] = np.diag([np.exp(0.1j), np.exp(-0.1j)])
    broken = ConnectionFamily(conn.L, MatJet(mval, conn.M.dot))
    assert flatness_residual(broken) > 0.09
    with pytest.raises(NotFlat):
        integrate_frame(broken, MatJet.constant(EYE), 2)


def test_constant_connection_two_steps():
    g = ref.quat(1.0, 0.2, -0.4, 0.3)
    L = MatJet.constant(np.broadcast_to(g, (1, 1, 2, 2)).copy())
    M = MatJet.constant(np.broadcast_to(g, (2, 1, 2, 2)).copy())
    conn = ConnectionFamily(L, M)
    assert flatness_residual(conn) < 1e-15
    frames = integrate_frame(conn, MatJet.constant(EYE), 2)
    assert_allclose(frames.Phi.val[1, 1], g @ g, atol=1e-14)


def test_random_flat_connection_round_trip():
    conn, frames = random_flat_connection()
    assert flatness_residual(conn) < 1e-13
    got = integrate_frame(conn, frames.Phi[0, 0], frames.shape[1])
    assert jet_residual(got.Phi, frames.Phi) < 1e-12


def test_perturbed_connection_detected():
    conn, _ = random_flat_connection()
    lval = conn.L.val.copy()
    lval[1, 0] = lval[1, 0] + 1e-3
    broken = ConnectionFamily(MatJet(lval, conn.L.dot), conn.M)
    assert flatness_residual(broken) > 1e-4
    with pytest.raises(NotFlat):
        integrate_frame(broken, MatJet.constant(EYE), 5)


def test_integration_matches_eigen_factorized_frames():
    p, conn, data = ck_connection()
    assert flatness_residual(conn) < 1e-11
    phi00 = initial_frame(p.a[0], p.b[0])
    direct = integrate_frame(conn, MatJet.constant(phi00), 8)
    factorized = rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=8)
    assert jet_residual(direct.Phi, factorized.Phi) < 1e-10


def test_rotational_frames_keep_row_and_column_factors():
    p, conn, data = ck_connection()
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=8)
    assert frames.rows.shape == (7, 1, 2, 2) and frames.cols.shape == (8, 2, 2)
    assert frames.shape == (7, 8)
    # the normal-form gauge is one matrix per profile row: it multiplies the row factor only
    hs = gauge_to_hs(conn, data)
    assert hs.gauge.shape == (7, 1, 2, 2)
    gauged = gauge_frame(frames, hs.gauge)
    assert gauged.rows.shape == (7, 1, 2, 2) and gauged.cols is frames.cols
    assert jet_residual(gauged.Phi, hs.gauge @ frames.Phi) < 1e-14
    # the same gauge held densely gives a dense row factor over the same columns
    grid = lambda a: np.broadcast_to(a, (7, 8, 2, 2)).copy()
    dense = gauge_frame(frames, MatJet(grid(hs.gauge.val), grid(hs.gauge.dot)))
    assert dense.rows.shape == (7, 8, 2, 2) and dense.cols is frames.cols
    assert jet_residual(dense.Phi, gauged.Phi) < 1e-14


def test_frame_factor_shapes_must_make_the_grid():
    # the two factors give the grid: rows (nj, 1 or nk, 2, 2) and columns (nk, 2, 2)
    eye = lambda *shape: MatJet.constant(np.broadcast_to(EYE, shape + (2, 2)).copy())
    for factors in ((eye(3, 4),), (eye(3, 1), 0.0, eye(4)), (eye(3, 4), 0.0, eye(4))):
        frames = FrameFamily(*factors)
        assert frames.shape == (3, 4) and frames.Phi.shape == (3, 4, 2, 2)
    assert FrameFamily(eye(3, 1)).shape == (3, 1)
    for factors in ((eye(3, 4), 0.0, eye(3)), (eye(3, 2, 2), 0.0, eye(4)), (eye(3), 0.0, eye(4)),
                    (eye(3, 1), 0.0, eye(1, 4)), (eye(3, 1), 0.0, eye())):
        with pytest.raises(ValueError):
            FrameFamily(*factors)


def test_connection_derivative_layer_matches_finite_differences():
    _, conn, _ = ck_connection()
    h = 1e-4
    for jet_at in ("L", "M"):
        plus = getattr(conn.at(h), jet_at).val
        minus = getattr(conn.at(-h), jet_at).val
        fd = (plus - minus) / (2.0 * h)
        assert np.max(np.abs(fd - getattr(conn, jet_at).dot)) < 1e-6


# ---------------------------------------------------------------------------
# gauging


def random_vertex_gauge(conn, seed, unitary=True):
    """One random gauge jet per profile row of the connection."""
    return random_jets(np.random.default_rng(seed), conn.M.shape[:2], scale=not unitary)


def test_gauge_identity_leaves_connection_unchanged():
    conn, _ = random_flat_connection()
    G = MatJet.constant(np.broadcast_to(EYE, conn.M.shape).copy())
    gauged = gauge(conn, G)
    assert jet_residual(gauged.L, conn.L) == 0.0
    assert jet_residual(gauged.M, conn.M) == 0.0


def test_gauge_round_trip():
    conn, _ = random_flat_connection()
    G = random_vertex_gauge(conn, 41, unitary=False)
    back = gauge(gauge(conn, G), G.inv())
    assert jet_residual(back.L, conn.L) < 1e-13
    assert jet_residual(back.M, conn.M) < 1e-13


def test_unitary_gauge_preserves_flatness():
    conn, _ = random_flat_connection()
    G = random_vertex_gauge(conn, 42)
    assert flatness_residual(gauge(conn, G)) < 1e-12


def test_gauged_frames_are_parallel_for_gauged_connection():
    conn, frames = random_flat_connection()
    G = random_vertex_gauge(conn, 43)
    gconn = gauge(conn, G)
    gframes = gauge_frame(frames, G)
    phi = gframes.Phi
    trans_j = MatJet(phi.val[1:], phi.dot[1:]) @ MatJet(phi.val[:-1], phi.dot[:-1]).inv()
    trans_k = MatJet(phi.val[:, 1:], phi.dot[:, 1:]) @ MatJet(phi.val[:, :-1], phi.dot[:, :-1]).inv()
    assert jet_residual(trans_j, gconn.L) < 1e-12
    assert jet_residual(trans_k, gconn.M) < 1e-12


def test_admissible_gauge_entries():
    rng = np.random.default_rng(5)
    c_val = rng.normal(size=(3, 4))
    c_dot = rng.normal(size=(3, 4))
    y = rng.normal(size=(3, 4))
    G = admissible_gauge(c_val, c_dot, y)
    expected = np.zeros((3, 4, 2, 2), dtype=complex)
    expected[..., 0, 0] = np.exp(c_val + 1j * y)
    expected[..., 1, 1] = np.exp(c_val - 1j * y)
    assert_allclose(G.val, expected, atol=1e-15)
    assert_allclose(G.dot, c_dot[..., None, None] * expected, atol=1e-15)
