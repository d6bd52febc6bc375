"""Tests for the 2x2 complex quaternion model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from cknet import quat
from cknet.errors import Singular
from oracles import det, membership_residual, project

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def random_member(rng, scale=1.0):
    return quat.quat(*(scale * rng.uniform(-1.0, 1.0, size=4)))


def test_project_identity_is_zero():
    assert_allclose(project(quat.quat(1.0, 0.0, 0.0, 0.0)), np.zeros(3))
    assert_allclose(project(np.eye(2, dtype=complex)), np.zeros(3))


def test_embed_basis_matrices():
    np.testing.assert_array_equal(quat.embed(E1), np.array([[0.0, -1.0j], [-1.0j, 0.0]]))
    np.testing.assert_array_equal(quat.embed(E2), np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex))
    np.testing.assert_array_equal(quat.embed(E3), np.array([[-1.0j, 0.0], [0.0, 1.0j]]))


def test_embed_project_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.uniform(-2.0, 2.0, size=3)
        np.testing.assert_array_equal(project(quat.embed(v)), v)


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_parts_round_trip(w, x, y, z):
    got = quat.parts(quat.quat(w, x, y, z))
    assert tuple(float(g) for g in got) == (w, x, y, z)


def test_det_embed_is_squared_norm():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.uniform(-3.0, 3.0, size=3)
        d = det(quat.embed(v))
        assert abs(d.imag) < 1e-14
        assert abs(d.real - float(v @ v)) < 1e-13


def test_det_and_norm2_on_members():
    rng = np.random.default_rng(4)
    for _ in range(100):
        w, x, y, z = rng.uniform(-2.0, 2.0, size=4)
        m = quat.quat(w, x, y, z)
        n2 = w * w + x * x + y * y + z * z
        assert abs(det(m) - n2) < 1e-13


def test_membership_residual_values():
    assert membership_residual(quat.quat(0.3, -1.0, 2.0, 0.5)) < 1e-15
    assert membership_residual(quat.sigma1) == 2.0
    assert membership_residual(quat.embed(E2)) == 0.0


def test_membership_closed_under_products_and_inverses():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_member(rng)
        b = random_member(rng)
        assert membership_residual(a @ b) < 1e-12
        assert membership_residual(a + b) < 1e-12
        if abs(det(a)) > 1e-6:
            assert membership_residual(quat.inv(a)) < 1e-12


def test_inv_left_and_right():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_member(rng)
        if abs(det(a)) < 1e-3:
            continue
        assert_allclose(quat.inv(a) @ a, np.eye(2), atol=1e-13)
        assert_allclose(a @ quat.inv(a), np.eye(2), atol=1e-13)


def test_inv_singular_raises():
    with pytest.raises(Singular):
        quat.inv(np.zeros((2, 2), dtype=complex))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inv_non_finite_raises(bad):
    # a NaN determinant fails every comparison and an inf one passes |det| > tol
    m = np.stack([np.eye(2, dtype=complex), np.full((2, 2), bad, dtype=complex)])
    with pytest.raises(Singular, match="non-finite"):
        quat.inv(m)
    with pytest.raises(Singular):
        quat.inv(np.diag([bad, 1.0]).astype(complex))


def test_qconj_gives_norm():
    rng = np.random.default_rng(14)
    a = random_member(rng)
    prod = a @ quat.qconj(a)
    assert_allclose(prod, det(a).real * np.eye(2), atol=1e-13)


def test_conjugate_rotate_identity():
    rng = np.random.default_rng(15)
    v = rng.uniform(-1.0, 1.0, size=3)
    assert_allclose(quat.conjugate_rotate(np.eye(2, dtype=complex), v), v, atol=1e-15)


def test_conjugate_rotate_preserves_norm():
    rng = np.random.default_rng(16)
    for _ in range(100):
        r = random_member(rng)
        n = np.sqrt(det(r).real)
        if n < 1e-3:
            continue
        r = r / n
        v = rng.uniform(-2.0, 2.0, size=3)
        out = quat.conjugate_rotate(r, v)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12


def test_conjugate_rotate_diagonal_rotor_by_direct_arithmetic():
    # R = diag(e^{i t/2}, e^{-i t/2}) at t = pi/2, acting on e1: compute
    # R^{-1} (embed e1) R with raw numpy and compare both routes.
    t = np.pi / 2.0
    R = np.diag([np.exp(1j * t / 2.0), np.exp(-1j * t / 2.0)])
    X = np.array([[0.0, -1.0j], [-1.0j, 0.0]])
    M = np.diag([np.exp(-1j * t / 2.0), np.exp(1j * t / 2.0)]) @ X @ R
    direct = np.array([
        -(M[0, 1] + M[1, 0]).imag / 2.0,
        (M[1, 0] - M[0, 1]).real / 2.0,
        (M[1, 1] - M[0, 0]).imag / 2.0,
    ])
    got = quat.conjugate_rotate(R, E1)
    assert_allclose(got, direct, atol=1e-15)
    assert_allclose(got, E2, atol=1e-15)


def rodrigues(v, axis, angle):
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * (axis @ v) * (1.0 - c)


def test_conjugate_rotate_matches_rodrigues():
    rng = np.random.default_rng(17)
    for _ in range(300):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        t = rng.uniform(-np.pi, np.pi)
        v = rng.uniform(-2.0, 2.0, size=3)
        rotor = quat.quat(np.cos(t / 2.0), *(-np.sin(t / 2.0) * axis))
        assert_allclose(quat.conjugate_rotate(rotor, v), rodrigues(v, axis, t), atol=1e-12)


def test_coords_complex_real_on_members():
    m = quat.quat(0.2, -0.7, 1.1, 0.4)
    coords = quat.coords_complex(m)
    assert np.max(np.abs(np.asarray(coords).imag)) < 1e-15
    assert_allclose(np.asarray(coords).real, [-0.7, 1.1, 0.4], atol=1e-15)
