"""Tests for rotational flat connections, frames, and the gauged normal form."""

from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from cknet import quat
from cknet.connect import (build_ck_connection, build_cmc_connection, closing_residual,
                           gauge_to_hs, hs_lax, initial_frame, rotational_frames)
from cknet.errors import CaseMismatch, CknetError, ConfigError, InvalidProfile
from cknet import lattice
from cknet.lattice import (ConnectionFamily, MatJet, admissible_gauge,
                           flatness_residual, gauge, gauge_frame, jet_residual)
from cknet.nets import rigid_align, sym
from cknet.revolution import build_rcnet, profile_elliptic, profile_hyp, profile_trig
from oracles import cross_ratio, integrate_frame

THETA = np.pi / 6.0


@lru_cache(maxsize=None)
def ck_fixture():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, THETA, 15)
    return p, conn, data


@lru_cache(maxsize=None)
def cmc_fixture(case):
    kappa = 0.6 if case == 1 else 1.4
    p = profile_trig(np.full(6, -np.tan(0.05)), kappa, 0.0, j_lo=-3)
    conn, data = build_cmc_connection(p, THETA, 15)
    return p, conn, data


@lru_cache(maxsize=None)
def hs_fixture():
    p, conn, data = ck_fixture()
    hs = gauge_to_hs(conn, data)
    conn_gauged = gauge(conn, hs.gauge)
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0])
    return p, conn, data, hs, conn_gauged, frames


# ---------------------------------------------------------------------------
# case-(3) connection


def test_edge_scalars_are_unitary():
    _, _, data = ck_fixture()
    assert np.max(np.abs(np.abs(data.u) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(data.v) - 1.0)) < 1e-12
    assert np.all(data.u.real > 1e-12)


def test_edge_angle_functions():
    p, _, data = ck_fixture()
    kappa = p.kappa
    assert np.max(np.abs(data.beta0 - 2.0 * kappa / np.sin(THETA / 2.0))) < 1e-12
    # alpha^2 = |v_frak|^2 - 2 Re(u^2) + 2 and beta^2 = |h_frak|^2 - 2 Re(v^2) + 2
    alpha_sq = np.abs(data.v_frak) ** 2 - 2.0 * (data.u**2).real + 2.0
    assert np.max(np.abs(data.alpha0**2 - alpha_sq)) < 1e-12
    beta_sq = np.abs(data.h_frak) ** 2 - 2.0 * (data.v**2).real + 2.0
    assert np.max(np.abs(data.beta0**2 - beta_sq)) < 1e-12


def test_seed_reproduces_profile_normal():
    p, _, data = ck_fixture()
    kappa = p.kappa
    par = np.where(p.js % 2 == 0, 1.0, -1.0)
    assert_allclose(par * data.v.imag, -kappa * p.a, atol=1e-12)
    assert_allclose(data.h_frak.imag, 2.0 * kappa * p.b, atol=1e-12)
    assert_allclose(data.h_frak.real, 2.0 * kappa / np.tan(THETA / 2.0), atol=1e-12)
    assert_allclose(data.u**2, data.v[:-1] * data.v[1:], atol=1e-12)


def test_flatness_along_parameter():
    _, conn, _ = ck_fixture()
    for t in (-0.5, 0.0, 0.5):
        assert flatness_residual(conn.at(t)) < 1e-11


def test_face_equations_per_face():
    # every face satisfies M(j+1,k) L(j,k) = L(j,k+1) M(j,k) on both jet layers;
    # the family is held once per row, so L(j,k+1) = L(j,k)
    _, conn, _ = ck_fixture()
    L, M = conn.L, conn.M
    for j in range(conn.domain.nj - 1):
        lhs = M[j + 1, 0] @ L[j, 0]
        rhs = L[j, 0] @ M[j, 0]
        assert jet_residual(lhs, rhs) < 1e-12


def test_perturbed_scalar_breaks_flatness():
    _, conn, _ = ck_fixture()
    lval = conn.L.val.copy()
    lval[0, :, 0, 0] *= 1.0 + 1e-3
    broken = type(conn)(conn.domain, MatJet(lval, conn.L.dot), conn.M, conn.t0)
    assert flatness_residual(broken) > 1e-5


def test_invalid_inputs():
    p, _, _ = ck_fixture()
    trig = profile_trig(np.full(4, -0.1), 0.6, 0.0, j_lo=-2)
    with pytest.raises(InvalidProfile):
        build_ck_connection(trig, THETA, 8)
    with pytest.raises(ConfigError):
        build_ck_connection(p, 3.5, 8)
    with pytest.raises(ConfigError):
        build_ck_connection(p, THETA, 1)


# ---------------------------------------------------------------------------
# constant-mean-curvature cases


def test_cmc_case_ranges():
    # kappa picks the construction; kappa = 1 is covered by neither
    sphere = profile_trig(np.full(6, -np.tan(0.05)), 1.0, 0.0, j_lo=-3)
    for p in (sphere, replace(sphere, kappa=np.nan)):
        with pytest.raises(CaseMismatch):
            build_cmc_connection(p, THETA, 8)
    hyp_like = profile_elliptic(0.6, -1, (-2, 2), j0=3)
    with pytest.raises(InvalidProfile):
        build_cmc_connection(hyp_like, THETA, 8)


def test_cmc_flatness():
    for case in (1, 2):
        _, conn, _ = cmc_fixture(case)
        for t in (-0.5, 0.0, 0.5):
            assert flatness_residual(conn.at(t)) < 1e-11


def test_cmc_case2_seeding_identities():
    p, _, data = cmc_fixture(2)
    q = np.sqrt(p.kappa**2 - 1.0)
    assert_allclose(q * (data.v - 1.0 / data.v).real / 2.0, p.a, atol=1e-10)
    assert_allclose(q * data.h_frak.imag / 2.0, p.b, atol=1e-10)
    assert_allclose(data.h_frak.real, 2.0 / (q * np.tan(THETA / 2.0)), atol=1e-12)


def test_cmc_case1_seeding_identities():
    p, _, data = cmc_fixture(1)
    q = np.sqrt(1.0 - p.kappa**2)
    assert_allclose(q * (data.u + 1.0 / data.u).real / 2.0, p.a, atol=1e-10)
    assert_allclose(q * data.v_frak.imag / 2.0, p.b, atol=1e-10)
    assert np.max(np.abs(data.alpha0 - 2.0 / (q * np.sin(THETA / 2.0)))) < 1e-12


def zigzag_profile(phases, kappa):
    """K=+1 profile whose normals pass through the phases phi(j): c = -tan(dphi/2) turns
    each edge by dphi, so phases of opposite sign give mirrored normals b(j+1) = -b(j)."""
    phases = np.asarray(phases)
    return profile_trig(-np.tan(np.diff(phases) / 2.0), kappa, phases[0])


ZIGZAG_PHASES = [(-0.1, 0.1, -0.1), (-0.1, 0.1, -0.1, 0.25), (0.05, -0.1, 0.1, -0.1, 0.25)]
MIRRORED_PROFILES = {f"trig_{len(phases)}_rows_kappa_{kappa}": partial(zigzag_profile, phases, kappa)
                     for phases in ZIGZAG_PHASES for kappa in (0.6, 1.4)}
# A = B(1+c)/(1-c) gives b(1) = -b(0): the K=-1 profile edge at label 0 is mirrored
MIRRORED_PROFILES["hyp"] = partial(profile_hyp, np.full(5, 0.05), 0.5526315789473685, 0.5, j_lo=-2)
for rel in (1e-5, -1e-5, 1e-8, -1e-8):   # the same edge nearly mirrored
    MIRRORED_PROFILES[f"hyp_A_off_{rel:+g}"] = partial(
        profile_hyp, np.full(5, 0.05), 0.5526315789473685 * (1.0 + rel), 0.5, j_lo=-2)
# short profile edges, where the closing scalar is a ratio of two small differences
FINE_PROFILES = {"trig_kappa_1.05": partial(profile_trig, [0.01, 0.01], 1.05, 0.01, j_lo=-1),
                 "hyp_c_1e-05": partial(profile_hyp, np.full(10, 1e-5), 0.6, 0.3, j_lo=-5)}


def build_rotational(p, theta):
    if p.K_sign == -1:
        return build_ck_connection(p, theta, 15)
    return build_cmc_connection(p, theta, 15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(MIRRORED_PROFILES) + sorted(FINE_PROFILES))
def test_mirrored_profile_edges_close_flat(name):
    # one closed form closes mirrored, nearly mirrored and short profile edges to rounding
    p = {**MIRRORED_PROFILES, **FINE_PROFILES}[name]()
    if name in MIRRORED_PROFILES:
        assert np.min(np.abs(p.b[1:] + p.b[:-1])) < 2e-5
    for theta in (THETA, 3.0, -3.0):
        conn, _ = build_rotational(p, theta)
        for t in (-0.5, 0.0, 0.5):
            assert flatness_residual(conn.at(t)) < 1e-13


@st.composite
def profile_recipes(draw):
    """A profile builder with its arguments: trig, hyp, or elliptic of either sign; trig and
    elliptic take kappa in (0.2, 0.95) or (1.05, 2)."""
    rows = draw(st.integers(3, 13))
    j_lo = -(rows // 2)
    kappa = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 2.0)))
    kind = draw(st.sampled_from(["trig", "hyp", "elliptic"]))
    cs = np.array(draw(st.lists(st.one_of(st.floats(-0.15, -1e-6), st.floats(1e-6, 0.15)),
                                min_size=rows - 1, max_size=rows - 1)))
    if kind == "trig":
        return partial(profile_trig, cs, kappa, draw(st.floats(-0.5, 0.5)), j_lo=j_lo)
    if kind == "hyp":
        return partial(profile_hyp, cs, draw(st.floats(0.05, 0.8)), draw(st.floats(-0.2, 0.8)),
                       j_lo=j_lo)
    return partial(profile_elliptic, kappa, draw(st.sampled_from([-1, 1])),
                   (j_lo, j_lo + rows - 1), j0=draw(st.integers(2, 8)))


def _mirrored_examples(test):
    for recipe in MIRRORED_PROFILES.values():
        test = example(recipe, THETA)(test)
    return test


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(recipe=profile_recipes(),
       theta=st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)))
@_mirrored_examples
def test_connections_are_flat_or_refused(recipe, theta):
    # a profile or connection the constructions cannot serve is a CknetError, never a crash
    try:
        conn, _ = build_rotational(recipe(), theta)
    except CknetError:
        return
    for t in (-0.5, 0.0, 0.5):
        assert flatness_residual(conn.at(t)) < 1e-11


def test_sym_matches_rcnet_all_cases():
    p3, conn3, _ = ck_fixture()
    p1, conn1, _ = cmc_fixture(1)
    p2, conn2, _ = cmc_fixture(2)
    for p, conn, xi in ((p3, conn3, 2.0), (p1, conn1, -2.0), (p2, conn2, -2.0)):
        frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0])
        net = sym(frames, xi)
        ref = build_rcnet(p, conn.domain.nk, theta=THETA)
        assert rigid_align(net, ref).residual < 1e-8


def test_cmc_isothermic_cross_ratios():
    # the shifted nets factorize face cross ratios through the edge angles
    _, conn2, d2 = cmc_fixture(2)
    fr2 = rotational_frames(conn2, a0=cmc_fixture(2)[0].a[0], b0=cmc_fixture(2)[0].b[0])
    for tau in (1.0, -1.0):
        net = sym(fr2, -2.0, tau)
        for j in range(net.shape[0] - 1):
            for k in (0, 4, 9):
                z, _ = cross_ratio(net, (j, k))
                expected = -d2.beta0[j] ** 2 / d2.alpha0[j] ** 2
                assert abs(z.real - expected) < 1e-10 * abs(expected)
                assert abs(z.imag) < 1e-12
    p1, conn1, d1 = cmc_fixture(1)
    fr1 = rotational_frames(conn1, a0=p1.a[0], b0=p1.b[0])
    for tau in (1.0, -1.0):
        net = sym(fr1, -2.0, tau)
        for j in range(net.shape[0] - 1):
            z, _ = cross_ratio(net, (j, 3))
            # case 1 exchanges the edge data: alpha0 belongs to the rotation edges
            expected = -d1.alpha0[0] ** 2 / d1.beta0[j] ** 2
            assert abs(z.real - expected) < 1e-10 * abs(expected)


# ---------------------------------------------------------------------------
# eigenstructure and frames


def test_rotation_eigenvalues_constant():
    _, conn, _ = ck_fixture()
    vals = []
    for j in range(conn.domain.nj):
        w = np.linalg.eigvals(conn.M.val[j, 0])
        vals.append(w[np.argmax(w.imag)])
    assert np.max(np.abs(np.diff(vals))) < 1e-12


def test_initial_frame_values():
    f = initial_frame(0.0, 1.0)
    assert_allclose(f, (1j / 2.0) * np.array([[2.0, 0.0], [0.0, -2.0]]), atol=1e-14)
    flip = initial_frame(0.0, -1.0)
    assert_allclose(flip, np.array([[0.0, 1j], [1j, 0.0]]), atol=1e-14)


def test_rotational_frames_row_normals():
    p, conn, _ = ck_fixture()
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0])
    net = sym(frames, 2.0)
    expected = np.stack([p.a, np.zeros_like(p.a), p.b], axis=-1)
    assert np.max(np.abs(net.n[:, 0] - expected)) < 1e-10


def test_rotational_frames_column_transport():
    p, conn, _ = ck_fixture()
    phi00 = initial_frame(p.a[0], p.b[0])
    D = np.linalg.inv(phi00) @ conn.M.val[0, 0] @ phi00
    val = rotational_frames(conn, p.a[0], p.b[0]).Phi.val
    for k in range(3):
        assert np.max(np.abs(val[:4, k + 1] - val[:4, k] @ D)) < 1e-12


def test_rotational_frames_unit_with_flipped_seed():
    _, conn, _ = ck_fixture()
    frames = rotational_frames(conn, a0=0.0, b0=-1.0)
    prod = np.einsum("jkab,jkac->jkbc", frames.Phi.val.conj(), frames.Phi.val)
    assert np.max(np.abs(prod - np.eye(2))) < 1e-10


def test_rotational_frames_requires_seed_and_invariance():
    _, conn, _ = ck_fixture()
    with pytest.raises(TypeError):
        rotational_frames(conn)
    _, conn1, _ = cmc_fixture(1)
    with pytest.raises(ValueError):
        rotational_frames(materialised(conn1), a0=0.0, b0=1.0)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_rotational_frames_match_product_loop_and_integration(case):
    if case == 3:
        p, conn, _ = ck_fixture()
    else:
        p, conn, _ = cmc_fixture(case)
    phi00 = MatJet.constant(initial_frame(p.a[0], p.b[0]))
    Phi = rotational_frames(conn, p.a[0], p.b[0]).Phi
    scale = max(1.0, np.max(np.abs(Phi.val)), np.max(np.abs(Phi.dot)))
    D = phi00.inv() @ conn.M[0, 0] @ phi00
    P = phi00
    for j in range(conn.domain.nj):
        if j > 0:
            P = conn.L[j - 1, 0] @ P
        Dk = MatJet.constant(np.eye(2))
        for k in range(conn.domain.nk):
            ref = P @ Dk
            assert_allclose(Phi.val[j, k], ref.val, rtol=0.0, atol=1e-13 * scale)
            assert_allclose(Phi.dot[j, k], ref.dot, rtol=0.0, atol=1e-13 * scale)
            Dk = D @ Dk
    assert jet_residual(Phi, integrate_frame(conn, phi00).Phi) <= 1e-13 * scale


@pytest.mark.parametrize("case", [1, 2, 3])
def test_invariant_connections_are_views_of_edge_data(case):
    # one edge jet per profile row, the same for every column: L (nj-1, 1), M (nj, 1)
    p, conn, _ = ck_fixture() if case == 3 else cmc_fixture(case)
    nj = conn.domain.nj
    assert conn.L.shape == (nj - 1, 1, 2, 2) and conn.M.shape == (nj, 1, 2, 2)
    for t in (0.0, 0.5):
        family = conn.at(t)
        assert family.L.shape == conn.L.shape and family.M.shape == conn.M.shape
    assert flatness_residual(conn) < 1e-11
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0])
    assert np.all(np.isfinite(frames.Phi.val)) and np.all(np.isfinite(frames.Phi.dot))
    hs = hs_fixture()[3]
    for family in (hs_lax(hs, 0.0), gauge(ck_fixture()[1], hs.gauge)):
        assert family.L.shape == (hs.domain.nj - 1, 1, 2, 2)
        assert family.M.shape == (hs.domain.nj, 1, 2, 2)


def materialised(conn):
    """The family with L and M broadcast to every edge of the grid and copied."""
    nj, nk = conn.domain.nj, conn.domain.nk
    grid = lambda jet, shape: MatJet(np.broadcast_to(jet.val, shape).copy(),
                                     np.broadcast_to(jet.dot, shape).copy())
    return ConnectionFamily(conn.domain, grid(conn.L, (nj - 1, nk, 2, 2)),
                            grid(conn.M, (nj, nk - 1, 2, 2)), conn.t0)


def full_grid_flatness(conn):
    """M_rq L_qp - L_rs M_sp formed on every face of the materialised family, the
    residual's definition."""
    dense = materialised(conn)
    L, M = dense.L, dense.M
    a = MatJet(M.val[1:, :], M.dot[1:, :]) @ MatJet(L.val[:, :-1], L.dot[:, :-1])
    b = MatJet(L.val[:, 1:], L.dot[:, 1:]) @ MatJet(M.val[:-1, :], M.dot[:-1, :])
    return jet_residual(a, b)


def bent_column(jet, column):
    """A copy of a dense edge family with one column turned by a unit quaternion."""
    val = jet.val.copy()
    val[:, column] = val[:, column] @ quat.quat(np.cos(0.1), np.sin(0.1), 0.0, 0.0)
    return MatJet(val, jet.dot)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_flatness_of_invariant_views_forms_one_line_of_faces(case, monkeypatch):
    # an invariant family forms one column of faces; its dense copy forms all of them
    conn = ck_fixture()[1] if case == 3 else cmc_fixture(case)[1]
    shapes = []
    real = lattice.jet_residual
    monkeypatch.setattr(lattice, "jet_residual", lambda a, b: shapes.append(a.shape) or real(a, b))
    dense = materialised(conn)
    got = flatness_residual(conn)
    assert got == flatness_residual(dense) == full_grid_flatness(conn)
    nj, nk = conn.domain.nj, conn.domain.nk
    assert shapes == [(nj - 1, 1, 2, 2), (nj - 1, nk - 1, 2, 2)]


def test_flatness_of_non_invariant_families_covers_every_face():
    _, conn, _, _, conn_gauged, _ = hs_fixture()
    assert flatness_residual(conn_gauged) == full_grid_flatness(conn_gauged)
    # L stays one jet per row while one column of a dense M is bent (and the
    # other way round): the bent faces must count, so no single column may
    # stand in for the rest.
    dense = materialised(conn)
    for L, M in ((conn.L, bent_column(dense.M, -1)), (bent_column(dense.L, 1), conn.M)):
        bent = ConnectionFamily(conn.domain, L, M, conn.t0)
        assert flatness_residual(bent) == full_grid_flatness(bent) > 1e-3


def test_invariance_check_of_invariant_views_is_zero_and_keeps_nan():
    # only a family held once per row has rotational frames: its dense copy is
    # refused, including one with a NaN in column 1
    p, conn, _ = ck_fixture()
    rotational_frames(conn, a0=p.a[0], b0=p.b[0])
    dense = materialised(conn)
    dense.L.val[2, 1, 0, 0] = np.nan
    for family in (materialised(conn), dense):
        with pytest.raises(ValueError, match="not invariant"):
            rotational_frames(family, a0=p.a[0], b0=p.b[0])


def test_non_invariant_dense_family_has_no_rotational_frames():
    p, conn, _ = ck_fixture()
    dense = materialised(conn)
    bent = ConnectionFamily(conn.domain, dense.L, bent_column(dense.M, -1), conn.t0)
    assert flatness_residual(bent) > 1e-3
    with pytest.raises(ValueError, match="not invariant"):
        rotational_frames(bent, a0=p.a[0], b0=p.b[0])


def test_closing_residual():
    p, _, _ = ck_fixture()
    closed, _ = build_ck_connection(p, 2.0 * np.pi / 12.0, 15)
    assert closing_residual(closed, 12) < 1e-10
    open_conn, _ = build_ck_connection(p, 1.0, 15)
    assert closing_residual(open_conn, 12) > 1e-3
    with pytest.raises(ConfigError):
        closing_residual(closed, 2)


def test_closed_connection_gives_periodic_net():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, _ = build_ck_connection(p, 2.0 * np.pi / 12.0, 15)
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0])
    net = sym(frames, 2.0)
    assert np.max(np.abs(net.x[:, 12:] - net.x[:, :3])) < 1e-8
    assert np.max(np.abs(net.n[:, 12:] - net.n[:, :3])) < 1e-8


# ---------------------------------------------------------------------------
# gauged normal form


def test_gauged_normal_form_entrywise():
    # the unit gauge leaves the real edge factors alpha0 (profile) and beta0 (rotation)
    _, _, data, hs, conn_gauged, _ = hs_fixture()
    built = hs_lax(hs, 0.0)
    assert jet_residual(conn_gauged.L * data.alpha0[:, None, None, None], built.L) < 1e-11
    assert jet_residual(conn_gauged.M * data.beta0[:, None, None, None], built.M) < 1e-11


def test_gauged_entries_from_scalars():
    # dual route: rebuild a sample of gauged entries from the scalar data
    _, _, data, hs, conn_gauged, _ = hs_fixture()
    ct1, tn1 = 1.0 / np.tan(hs.delta1 / 2.0), np.tan(hs.delta1 / 2.0)
    ct2, tn2 = 1.0 / np.tan(hs.delta2 / 2.0), np.tan(hs.delta2 / 2.0)
    s = hs.s
    for j in (0, 2, 4):
        L = conn_gauged.L.val[j, 0] * data.alpha0[j]
        assert abs(L[0, 0] - hs.ell[j] * (ct1[j] / s[j] + tn1[j] * s[j + 1])) < 1e-11
        assert abs(L[1, 1] - (s[j] * ct1[j] + tn1[j] / s[j + 1]) / hs.ell[j]) < 1e-11
        assert abs(L[0, 1] - 1j * (1.0 - s[j] * s[j + 1])) < 1e-11
        assert abs(L[1, 0] - 1j * (1.0 - 1.0 / (s[j] * s[j + 1]))) < 1e-11
        dot = conn_gauged.L.dot[j, 0, 0, 1] * data.alpha0[j]
        assert abs(dot - 1j * (1.0 + s[j] * s[j + 1])) < 1e-11
        M = conn_gauged.M.val[j, 0] * data.beta0[j]
        assert abs(M[0, 0] - hs.m[j] * (ct2 / s[j] + tn2 * s[j])) < 1e-11
        assert abs(M[1, 1] - (s[j] * ct2 + tn2 / s[j]) / hs.m[j]) < 1e-11
        assert abs(M[0, 1] - 1j * (1.0 - s[j] ** 2)) < 1e-11


def test_hs_angle_identities():
    _, _, data, hs, _, _ = hs_fixture()
    assert np.max(np.abs(np.sin(hs.delta1) - 2.0 / data.alpha0)) < 1e-12
    assert abs(np.sin(hs.delta2) - 2.0 / data.beta0[0]) < 1e-12
    # the gauge's square-root chain pairs adjacent vertex scalars into the edge scalar
    sqrt_s = hs.gauge.val[:, 0, 0, 0] * np.exp(1j * np.pi / 4.0)
    assert np.max(np.abs(sqrt_s[1:] * sqrt_s[:-1] - hs.u)) < 1e-12
    assert abs(sqrt_s[0] ** 2 - hs.s[0]) < 1e-12
    assert np.max(np.abs(np.abs(hs.s) - 1.0)) < 1e-12


def test_hs_unit_edge_eigenscalars():
    _, _, data, hs, _, _ = hs_fixture()
    if np.max(np.abs(np.sin(hs.delta1).imag)) < 1e-12:
        assert np.max(np.abs(np.abs(hs.ell) - 1.0)) < 1e-12
    if abs(np.sin(hs.delta2).imag) < 1e-12:
        assert np.max(np.abs(np.abs(hs.m) - 1.0)) < 1e-12


def test_gauge_to_hs_case_restrictions():
    _, conn1, d1 = cmc_fixture(1)
    with pytest.raises(CaseMismatch):
        gauge_to_hs(conn1, d1)


def test_admissible_gauge_keeps_net():
    p, conn, _, hs, _, frames = hs_fixture()
    rng = np.random.default_rng(30)
    nj, nk = conn.domain.nj, conn.domain.nk
    G = admissible_gauge(rng.uniform(-0.3, 0.3, (nj, nk)),
                         rng.uniform(-0.3, 0.3, (nj, nk)),
                         rng.uniform(-0.5, 0.5, (nj, nk)))
    base = sym(frames, 2.0)
    moved = sym(gauge_frame(frames, G), 2.0)
    assert np.max(np.abs(moved.x - base.x)) < 1e-11
    assert np.max(np.abs(moved.n - base.n)) < 1e-11
    gauged = gauge(conn, G)
    assert flatness_residual(gauged) < 1e-11


def test_profile_edge_data_from_connection_scalars():
    # c(j)^2 = (2 Re u(j))^2 / |v_frak(j)|^2
    p, _, data = ck_fixture()
    assert_allclose(p.c**2, (2.0 * data.u.real) ** 2 / np.abs(data.v_frak) ** 2,
                    atol=1e-12)


def rotation_edge_combination(net, sign):
    """|dx|^2/4 + sign * <dx, n>^2/|dx|^2 over the rotational (k) edges."""
    dx = net.x[:, 1:] - net.x[:, :-1]
    n = net.n[:, :-1]
    nrm2 = np.einsum("...i,...i->...", dx, dx)
    proj = np.einsum("...i,...i->...", dx, n)
    return nrm2 / 4.0 + sign * proj**2 / nrm2


def test_kappa_identification_identities():
    s2 = np.sin(THETA / 2.0) ** 2
    p3, _, d3, _, _, frames3 = hs_fixture()
    val3 = rotation_edge_combination(sym(frames3, 2.0), +1.0)
    assert np.max(np.abs(val3 - s2 / p3.kappa**2)) < 1e-9
    assert np.max(np.abs(val3 - 4.0 / d3.beta0[0] ** 2)) < 1e-9

    p2, conn2, d2 = cmc_fixture(2)
    net2 = sym(rotational_frames(conn2, a0=p2.a[0], b0=p2.b[0]), -2.0)
    val2 = rotation_edge_combination(net2, -1.0)
    assert np.max(np.abs(val2 - (p2.kappa**2 - 1.0) * s2)) < 1e-9
    assert np.max(np.abs(val2 - 4.0 / d2.beta0[0] ** 2)) < 1e-9

    p1, conn1, d1 = cmc_fixture(1)
    net1 = sym(rotational_frames(conn1, a0=p1.a[0], b0=p1.b[0]), -2.0)
    val1 = -rotation_edge_combination(net1, -1.0)
    assert np.max(np.abs(val1 - (1.0 - p1.kappa**2) * s2)) < 1e-9
    assert np.max(np.abs(val1 - 4.0 / d1.alpha0[0] ** 2)) < 1e-9

