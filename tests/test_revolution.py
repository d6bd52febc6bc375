"""Tests for elliptic functions and constant-curvature profiles.

Independent oracles: mpmath.ellipfun / ellipk / ellipe (parameter
m = kappa^2) and direct quadrature of sn^2 via mpmath.quad.  am, sn, cn,
dn, K and the integral of sn^2 all come from one AGM/Landen ladder, the
last through the Jacobi zeta function; the E(am u | m) that it implies is
held to mpmath.ellipe, and on every profile amplitude of the sweep to the
Carlson form of oracles.ellipeinc, itself held to mpmath.ellipe.
"""

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from cknet.errors import (ConfigError, DegenerateEdge, InvalidProfile,
                          ModulusOutOfRange)
from cknet.nets import curvature_report
from cknet.reference import gauss_from_profile, validate_profile
from cknet.revolution import (_amplitude, build_rcnet, column_angles, conservation_drift,
                              edge_residuals, elliptic_K, elliptic_theta, int_sn2, jacobi,
                              profile_elliptic, profile_hyp, profile_trig)
from oracles import cross_ratio, ellipeinc, rebuilt


# ---------------------------------------------------------------------------
# elliptic functions


def ellipj(u, m):
    """sn, cn, dn and am = atan2(sn, cn) of each u at parameter m, from mpmath; the
    amplitude is right for |u| < 2 K(m)."""
    sn, cn, dn = (np.array([float(mpmath.ellipfun(kind, v, m=m)) for v in np.ravel(u)])
                  for kind in ("sn", "cn", "dn"))
    return sn, cn, dn, np.arctan2(sn, cn)


def quad_sn2(u, m, kappa=1.0):
    """Integral over [0, u] of (sn(kappa w | m) / kappa)^2 by mpmath quadrature, and its
    error estimate."""
    value, err = mpmath.quad(lambda w: (mpmath.ellipfun("sn", kappa * w, m=m) / kappa) ** 2,
                             [0.0, u], error=True)
    return float(value), float(err)


def test_jacobi_at_zero():
    for kappa in (0.0, 0.3, 1.0, 1.7):
        sn, cn, dn = jacobi(0.0, kappa)
        assert (sn, cn, dn) == (0.0, 1.0, 1.0)


def test_jacobi_degenerate_moduli():
    u = np.linspace(-2.0, 2.0, 9)
    sn, cn, dn = jacobi(u, 0.0)
    assert_allclose(sn, np.sin(u), atol=1e-14)
    assert_allclose(cn, np.cos(u), atol=1e-14)
    assert_allclose(dn, np.ones_like(u), atol=1e-14)
    sn, cn, dn = jacobi(u, 1.0)
    assert_allclose(sn, np.tanh(u), atol=1e-14)
    assert_allclose(cn, 1.0 / np.cosh(u), atol=1e-14)
    assert_allclose(dn, 1.0 / np.cosh(u), atol=1e-14)


def test_jacobi_squared_identities():
    u = np.linspace(-3.0, 3.0, 25)
    for kappa in (0.3, 0.9, 1.8):
        sn, cn, dn = jacobi(u, kappa)
        assert np.max(np.abs(sn**2 + cn**2 - 1.0)) < 1e-12
        assert np.max(np.abs(dn**2 + kappa**2 * sn**2 - 1.0)) < 1e-12


def test_jacobi_matches_scipy():
    u = np.linspace(-2.5, 2.5, 21)
    for kappa in (0.25, 0.5, 0.7, 0.95):
        sn, cn, dn = jacobi(u, kappa)
        ref_sn, ref_cn, ref_dn, _ = ellipj(u, kappa**2)
        assert_allclose(sn, ref_sn, atol=1e-12)
        assert_allclose(cn, ref_cn, atol=1e-12)
        assert_allclose(dn, ref_dn, atol=1e-12)


def test_jacobi_quarter_period():
    # dn(K) = sqrt(1 - kappa^2); the value and its neighbourhood must not
    # suffer the 0/0 of the amplitude-ladder recovery
    for kappa in (0.3, 0.6, 0.95):
        K = elliptic_K(kappa)
        u = np.array([K, -K, 3.0 * K, K * (1.0 + 1e-13), K * (1.0 - 1e-13)])
        sn, cn, dn = jacobi(u, kappa)
        ref_sn, ref_cn, ref_dn, _ = ellipj(u, kappa**2)
        assert_allclose(dn, ref_dn, atol=1e-13)
        assert_allclose(dn[:3], np.sqrt(1.0 - kappa**2), atol=1e-13)
        assert_allclose(sn, ref_sn, atol=1e-13)
        assert_allclose(cn, ref_cn, atol=1e-13)


def test_jacobi_reciprocal_modulus_transform():
    u = np.linspace(-1.5, 1.5, 13)
    kappa = 1.8
    sn, cn, dn = jacobi(u, kappa)
    rs, rc, rd, _ = ellipj(kappa * u, 1.0 / kappa**2)
    assert_allclose(sn, rs / kappa, atol=1e-12)
    assert_allclose(cn, rd, atol=1e-12)
    assert_allclose(dn, rc, atol=1e-12)


def test_jacobi_rejects_negative_modulus():
    with pytest.raises(ModulusOutOfRange):
        jacobi(0.5, -0.1)


def test_amplitude_matches_scipy_phase():
    u = np.linspace(-3.0, 3.0, 25)
    ref_sn, _, _, ph = ellipj(u, 0.64)   # |u| <= 3 < 2 K(0.64) = 3.99
    phi = _amplitude(u, 0.8)[0]
    assert_allclose(phi, ph, atol=1e-10)
    assert_allclose(np.sin(phi), ref_sn, atol=1e-12)


def test_elliptic_K_values():
    assert abs(elliptic_K(0.0) - np.pi / 2.0) < 1e-15
    for kappa in (0.2, 0.6, 0.9, 0.99):
        assert abs(elliptic_K(kappa) - float(mpmath.ellipk(kappa**2))) < 1e-12
    assert elliptic_K(1.0) == np.inf
    with pytest.raises(ModulusOutOfRange):
        elliptic_K(1.2)


def test_int_sn2_matches_quadrature():
    for kappa in (0.3, 0.9):
        for u in (0.5, 1.5):
            ref, err = quad_sn2(u, kappa**2)
            assert err < 1e-12
            assert abs(int_sn2(u, kappa) - ref) < 1e-10


def test_int_sn2_large_modulus_matches_quadrature():
    kappa = 1.8
    for u in (0.4, 1.1):
        ref, err = quad_sn2(u, 1.0 / kappa**2, kappa)
        assert err < 1e-12
        assert abs(int_sn2(u, kappa) - ref) < 1e-10


def test_int_sn2_degenerate_moduli():
    u = 1.3
    assert abs(int_sn2(u, 0.0) - (u / 2.0 - np.sin(2.0 * u) / 4.0)) < 1e-13
    assert abs(int_sn2(u, 1.0) - (u - np.tanh(u))) < 1e-13


@pytest.mark.parametrize("kappa", [1e-8, 1e-4, 1e-2])
def test_int_sn2_small_modulus_matches_quadrature(kappa):
    # the zeta form never subtracts u and E(am u), so nothing cancels as kappa -> 0
    for u in (0.5, 1.5, 3.0):
        ref, err = quad_sn2(u, kappa**2)
        assert err < 1e-13
        assert abs(int_sn2(u, kappa) - ref) < 2e-14


def ellipeinc_from_int_sn2(u, kappa):
    """E(am u | kappa^2) = u - kappa^2 * (integral of sn^2 over [0, u])."""
    return u - kappa * kappa * int_sn2(u, kappa)


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.6, 0.9, 0.99])
def test_ellipeinc_matches_scipy_on_profile_amplitudes(kappa):
    """E(am u | m) on every profile amplitude u = Theta j out to |j| = 2000, against the
    Carlson form of oracles.ellipeinc; that oracle, and E(am u | m) itself, against
    mpmath.ellipe on every 125th j (125 is prime to 2 j0, so these meet every residue of
    j mod 2 j0, that is every position within the period 2 K, from near and far)."""
    m = kappa * kappa
    for j0 in (2, 4, 16):
        u = elliptic_theta(kappa, j0) * np.arange(-2000, 2001)
        phi = _amplitude(u, kappa)[0]
        got = ellipeinc_from_int_sn2(u, kappa)
        ref = ellipeinc(phi, m)
        assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref))), (j0, got - ref)
        exact = np.array([float(mpmath.ellipe(p, m)) for p in phi[::125].tolist()])
        scale = np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(ref[::125] - exact) <= 1e-15 * scale), (j0, ref[::125] - exact)
        assert np.all(np.abs(got[::125] - exact) <= 2e-15 * scale), (j0, got[::125] - exact)


def test_ellipeinc_where_a_landen_step_lands_on_three_half_pi():
    # am(5 K(0.99) / 4) = 1.703221544034659, where 1 - b tan^2 of a Landen step of
    # E(phi | m) is -1.3e-15, so a ladder over phi can count one pi-branch too many (Cephes,
    # behind scipy's ellipeinc, returns 0.7924); the zeta form has no branch to count
    kappa = 0.99
    u = 5.0 * elliptic_theta(kappa, 4)
    phi = _amplitude(u, kappa)[0]
    assert abs(phi - 1.703221544034659) < 1e-14
    for sign in (1.0, -1.0):
        got = ellipeinc_from_int_sn2(sign * u, kappa)
        assert abs(got - sign * float(mpmath.ellipe(phi, kappa * kappa))) <= 1e-13


def test_elliptic_theta_period_rule():
    assert abs(elliptic_theta(0.6, 4) - elliptic_K(0.6) / 4.0) < 1e-14
    assert abs(elliptic_theta(1.4, 4) - elliptic_K(1.0 / 1.4) / (1.4 * 4.0)) < 1e-14
    assert elliptic_theta(1.0, 4) == 0.5
    with pytest.raises(ConfigError):
        elliptic_theta(0.6, 0)
    with pytest.raises(ModulusOutOfRange):
        elliptic_theta(-0.5, 4)


# ---------------------------------------------------------------------------
# trigonometric profiles


def test_trig_profile_eighth_turn():
    p = profile_trig(np.full(2, -np.tan(np.pi / 8.0)), 1.0, 0.0, j_lo=-1)
    assert_allclose(p.f, np.cos(np.pi * p.js / 4.0), atol=1e-12)
    assert_allclose(p.b, np.sin(np.pi * p.js / 4.0), atol=1e-12)
    assert p.kappa == 1.0 and p.K_sign == +1


def test_trig_profile_satisfies_recurrence():
    rng = np.random.default_rng(8)
    c = rng.uniform(-0.2, -0.05, size=7)
    p = profile_trig(c, 0.8, 0.3, j_lo=-3)
    f2 = ((1.0 - c**2) * p.f[:-1] + 2.0 * c * p.b[:-1]) / (1.0 + c**2)
    b2 = (-2.0 * c * p.f[:-1] + (1.0 - c**2) * p.b[:-1]) / (1.0 + c**2)
    assert_allclose(p.f[1:], f2, atol=1e-14)
    assert_allclose(p.b[1:], b2, atol=1e-14)
    assert edge_residuals(p) < 1e-12
    assert conservation_drift(p) < 1e-12
    validate_profile(p)


def test_trig_profile_from_elliptic_halves():
    # half-step edge data reproduces the K=+1 jacobi profile
    kappa, j0 = 0.7, 3
    Theta = elliptic_K(kappa) / j0
    js = np.arange(-2, 3)
    je = js[:-1]
    sn_h, cn_h, dn_h = jacobi(Theta / 2.0, kappa)
    dn_mid = jacobi((2.0 * je + 1.0) * Theta / 2.0, kappa)[2]
    c = -sn_h * dn_mid / cn_h
    p = profile_trig(c, kappa, 0.0, j_lo=-2)
    sn, cn, dn = jacobi(Theta * js, kappa)
    assert_allclose(p.f, kappa * cn, atol=1e-10)
    assert_allclose(p.b, kappa * sn, atol=1e-10)
    assert_allclose(p.a, dn, atol=1e-10)


def test_trig_profile_matches_profile_elliptic():
    kappa = 0.7
    pe = profile_elliptic(kappa, +1, (-2, 2), j0=3)
    pt = profile_trig(pe.c, kappa, 0.0, j_lo=-2)
    assert_allclose(pt.f, pe.f, atol=1e-12)
    assert_allclose(pt.b, pe.b, atol=1e-12)


# ---------------------------------------------------------------------------
# hyperbolic profiles


def test_hyp_profile_catenary_like():
    p = profile_hyp(np.full(4, 0.2), 0.3, 0.3, j_lo=-2)
    r = 1.5 ** p.js.astype(float)
    assert_allclose(p.f, 0.6 * np.cosh(p.js * np.log(1.5)), atol=1e-13)
    assert_allclose(p.b, 0.3 * (r - 1.0 / r), atol=1e-13)
    assert p.K_sign == -1
    assert abs(p.kappa - 1.0 / np.sqrt(1.0 + 4.0 * 0.09)) < 1e-14


def test_hyp_profile_satisfies_recurrence():
    rng = np.random.default_rng(9)
    c = rng.uniform(0.05, 0.2, size=6)
    p = profile_hyp(c, 0.5, 0.4, j_lo=-3)
    f2 = ((1.0 + c**2) * p.f[:-1] + 2.0 * c * p.b[:-1]) / (1.0 - c**2)
    b2 = (2.0 * c * p.f[:-1] + (1.0 + c**2) * p.b[:-1]) / (1.0 - c**2)
    assert_allclose(p.f[1:], f2, atol=1e-13)
    assert_allclose(p.b[1:], b2, atol=1e-13)
    assert edge_residuals(p) < 1e-12
    validate_profile(p)


def test_hyp_profile_degenerate_coefficients():
    c = np.full(3, 0.1)
    pa = profile_hyp(c, 0.0, 0.4)
    assert_allclose(pa.f, pa.b, atol=1e-14)
    assert pa.kappa == 1.0
    pb = profile_hyp(c, 0.7, 0.0)
    assert_allclose(pb.f, -pb.b, atol=1e-14)
    assert pb.kappa == 1.0


def test_hyp_profile_invalid_inputs():
    with pytest.raises(InvalidProfile):
        profile_hyp(np.array([0.1, 1.0, 0.1]), 0.5, 0.5)
    with pytest.raises(InvalidProfile):
        profile_hyp(np.full(3, 0.1), 0.5, -0.5)


@pytest.mark.parametrize("make, A, B", [(profile_trig, 1.5, 1.0), (profile_trig, -1e300, 1.0),
                                        (profile_hyp, 1.5, 0.3), (profile_hyp, 1e200, 0.3)])
def test_profile_with_b_beyond_one_is_refused(make, A, B):
    # warnings are errors here, so an overflowing b * b would fail too
    with pytest.raises(InvalidProfile, match=r"axial normal component exceeds 1: max \|b\| = "):
        make(np.full(4, 0.1), A, B, j_lo=-2)


# ---------------------------------------------------------------------------
# elliptic profiles


def test_elliptic_profile_negative_curvature_structure():
    kappa = 0.6
    p = profile_elliptic(kappa, -1, (-3, 3), j0=4)
    Theta = elliptic_theta(kappa, 4)
    sn, cn, dn, _ = ellipj(Theta * p.js, kappa**2)
    assert_allclose(p.f, dn / kappa, atol=1e-10)
    assert_allclose(p.a, sn, atol=1e-10)
    assert_allclose(p.b, cn, atol=1e-10)
    assert conservation_drift(p) < 1e-12
    assert edge_residuals(p) < 1e-12
    assert p.h[-p.j_lo] == 0.0


def test_elliptic_profile_positive_curvature_structure():
    kappa = 1.4
    p = profile_elliptic(kappa, +1, (-3, 3), j0=4)
    Theta = elliptic_theta(kappa, 4)
    sn, cn, dn = jacobi(Theta * p.js, kappa)
    assert_allclose(p.f, kappa * cn, atol=1e-10)
    assert_allclose(p.a, dn, atol=1e-10)
    assert_allclose(p.b, kappa * sn, atol=1e-10)
    assert conservation_drift(p) < 1e-12
    assert edge_residuals(p) < 1e-12


def test_elliptic_profile_conserved_combinations():
    for kappa, K_sign, combo in (
        (0.6, -1, lambda p: p.f**2 + p.a**2),
        (1.4, -1, lambda p: p.f**2 + p.a**2),
        (0.7, +1, lambda p: p.f**2 - p.a**2),
        (1.4, +1, lambda p: p.f**2 - p.a**2),
    ):
        p = profile_elliptic(kappa, K_sign, (-2, 2), j0=3)
        vals = combo(p)
        assert np.max(np.abs(vals - vals[0])) < 1e-12


def test_negative_curvature_profiles_keep_their_relations_across_moduli():
    # heights come from the integral of sn^2 on every vertex; the worst edge
    # residual of this sweep is 2.0e-14 (kappa = 0.01, j0 = 5), and 1.6e-13
    # when the heights took u - E(am u) (kappa = 0.01, j0 = 4)
    for kappa in np.arange(0.01, 1.0, 0.007):
        for j0 in (2, 3, 4, 5, 6, 8, 16):
            p = profile_elliptic(kappa, -1, (-2 * j0, 4 * j0), j0=j0)
            assert edge_residuals(p) <= 5e-14, (kappa, j0)
    # 121 rows at small moduli: 3.8e-15 and 4.6e-15 (1.2e-13 and 3.2e-14 by u - E(am u))
    for kappa in (0.05, 0.1):
        p = profile_elliptic(kappa, -1, (-60, 60), j0=4)
        assert edge_residuals(p) <= 1e-14, kappa


def test_elliptic_profile_unit_modulus_is_tractrix():
    p = profile_elliptic(1.0, -1, (-3, 3))
    assert_allclose(p.f, 1.0 / np.cosh(0.5 * p.js), atol=1e-12)
    assert_allclose(p.a, np.tanh(0.5 * p.js), atol=1e-12)


# ---------------------------------------------------------------------------
# curvature from profiles


def test_gauss_from_profile_signs():
    trig = profile_trig(np.full(5, -0.1), 0.9, 0.2, j_lo=-2)
    assert np.max(np.abs(gauss_from_profile(trig) - 1.0)) < 1e-12
    hyp = profile_hyp(np.full(5, 0.1), 0.4, 0.5, j_lo=-2)
    assert np.max(np.abs(gauss_from_profile(hyp) + 1.0)) < 1e-12
    assert abs(gauss_from_profile(hyp)[-hyp.j_lo] + 1.0) < 1e-12


def test_gauss_expressions_agree():
    # the edge value also equals the ratio of squared-sequence differences
    for p in (profile_elliptic(0.6, -1, (-3, 3), j0=4),
              profile_elliptic(1.4, +1, (-3, 3), j0=4)):
        K = gauss_from_profile(p)
        alt = (p.a[1:] ** 2 - p.a[:-1] ** 2) / (p.f[1:] ** 2 - p.f[:-1] ** 2)
        assert_allclose(K, alt, atol=1e-9)


def test_gauss_from_profile_degenerate_edge():
    bad = rebuilt(
        profile_trig(np.full(2, -0.1), 1.0, 0.0, j_lo=-1),
        f=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DegenerateEdge):
        gauss_from_profile(bad)


def test_validate_profile_detects_corruption():
    p = profile_elliptic(0.6, -1, (-2, 2), j0=3)
    bad = rebuilt(p, b=p.b + 1e-3)
    with pytest.raises(InvalidProfile):
        validate_profile(bad)


# ---------------------------------------------------------------------------
# rotational nets


def test_build_rcnet_constant_curvature():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    net = build_rcnet(p, column_angles(10, theta=np.pi / 6.0))
    worst, degenerate = curvature_report(net, p.K_sign)
    assert degenerate.size == 0 and worst["gauss"] < 1e-9
    z, embedded = cross_ratio(net, (2, 3))
    assert abs(z.imag) < 1e-10 * abs(z)
    assert embedded


@pytest.mark.parametrize("p", [
    profile_elliptic(1.5552, -1, (-35, -25), j0=16),
    profile_hyp(np.full(4, 0.0475), -0.4333, -0.6801, j_lo=-7),
    profile_elliptic(0.6, -1, (-3, 3), j0=4),
], ids=["elliptic", "hyp", "desk"])
def test_mirrored_profile_sweeps_the_net_turned_by_pi(p):
    q = p.mirrored()
    assert edge_residuals(q) == edge_residuals(p)
    assert conservation_drift(q) == conservation_drift(p)
    ang = column_angles(13, theta=np.pi / 6.0)
    net, turned = build_rcnet(p, ang), build_rcnet(q, ang)
    turn = np.array([-1.0, -1.0, 1.0])
    np.testing.assert_array_equal(turned.x, net.x * turn)
    np.testing.assert_array_equal(turned.n, net.n * turn)


def test_build_rcnet_exact_closure():
    p = profile_trig(np.full(4, -0.08), 0.8, 0.1, j_lo=-2)
    net = build_rcnet(p, column_angles(15, k0=12))
    np.testing.assert_array_equal(net.x[:, 12:], net.x[:, :3])
    np.testing.assert_array_equal(net.n[:, 12:], net.n[:, :3])


def test_build_rcnet_vertex_radii_match_profile():
    p = profile_elliptic(1.0, -1, (-2, 2))
    net = build_rcnet(p, column_angles(9, theta=0.5))
    radii = np.hypot(net.x[..., 0], net.x[..., 1])
    assert_allclose(radii, np.broadcast_to(p.f[:, None], radii.shape), atol=1e-12)
    assert_allclose(net.x[..., 2], np.broadcast_to(p.h[:, None], radii.shape), atol=1e-12)


def test_build_rcnet_argument_validation():
    # build_rcnet sweeps the profile to the angles it is given, one column each; column_angles
    # refuses a step or count that makes no grid
    p = profile_trig(np.full(3, -0.1), 1.0, 0.0, j_lo=-1)
    assert build_rcnet(p, column_angles(3, theta=0.5, k_lo=2)).shape == (4, 3)
    for args in ({}, {"theta": 0.5, "k0": 6}, {"k0": 2}, {"k0": 6.5}, {"theta": 3.5},
                 {"theta": 0.0}):
        with pytest.raises(ConfigError):
            column_angles(10, **args)
    with pytest.raises(ConfigError):
        column_angles(1, theta=0.5)
