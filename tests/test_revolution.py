"""Tests for elliptic functions and constant-curvature profiles.

Independent oracles: scipy.special.ellipj / ellipk / ellipeinc (parameter
m = kappa^2) and direct quadrature of sn^2 and of sqrt(1 - m sin^2) via
scipy.integrate.quad.  am, sn, cn, dn, K and the integral of sn^2 all come
from one AGM/Landen ladder, the last through the Jacobi zeta function; the
E(am u | m) that it implies is held to scipy.special.ellipeinc, except where
a Landen step of the Cephes routine behind ellipeinc lands on an odd
multiple of pi/2: there Cephes takes the wrong pi-branch (at least 1e-6 off
the quadrature) and the zeta form must match the quadrature within 1e-13.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

from cknet.errors import (ConfigError, DegenerateEdge, InvalidProfile,
                          ModulusOutOfRange)
from cknet.nets import curvature_report
from cknet.revolution import (_amplitude, build_rcnet, conservation_drift,
                              edge_residuals, elliptic_K, elliptic_theta,
                              gauss_from_profile, int_sn2, jacobi,
                              profile_elliptic, profile_hyp, profile_trig,
                              validate_profile)
from oracles import cross_ratio


# ---------------------------------------------------------------------------
# elliptic functions


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
        ref_sn, ref_cn, ref_dn, _ = scipy.special.ellipj(u, kappa**2)
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
        ref_sn, ref_cn, ref_dn, _ = scipy.special.ellipj(u, kappa**2)
        assert_allclose(dn, ref_dn, atol=1e-13)
        assert_allclose(dn[:3], np.sqrt(1.0 - kappa**2), atol=1e-13)
        assert_allclose(sn, ref_sn, atol=1e-13)
        assert_allclose(cn, ref_cn, atol=1e-13)


def test_jacobi_reciprocal_modulus_transform():
    u = np.linspace(-1.5, 1.5, 13)
    kappa = 1.8
    sn, cn, dn = jacobi(u, kappa)
    rs, rc, rd, _ = scipy.special.ellipj(kappa * u, 1.0 / kappa**2)
    assert_allclose(sn, rs / kappa, atol=1e-12)
    assert_allclose(cn, rd, atol=1e-12)
    assert_allclose(dn, rc, atol=1e-12)


def test_jacobi_rejects_negative_modulus():
    with pytest.raises(ModulusOutOfRange):
        jacobi(0.5, -0.1)


def test_amplitude_matches_scipy_phase():
    u = np.linspace(-3.0, 3.0, 25)
    ph = scipy.special.ellipj(u, 0.64)[3]
    phi = _amplitude(u, 0.8)[0]
    assert_allclose(phi, ph, atol=1e-10)
    assert_allclose(np.sin(phi), scipy.special.ellipj(u, 0.64)[0], atol=1e-12)


def test_elliptic_K_values():
    assert abs(elliptic_K(0.0) - np.pi / 2.0) < 1e-15
    for kappa in (0.2, 0.6, 0.9, 0.99):
        assert abs(elliptic_K(kappa) - scipy.special.ellipk(kappa**2)) < 1e-12
    assert elliptic_K(1.0) == np.inf
    with pytest.raises(ModulusOutOfRange):
        elliptic_K(1.2)


def test_int_sn2_matches_quadrature():
    for kappa in (0.3, 0.9):
        for u in (0.5, 1.5):
            ref, err = scipy.integrate.quad(
                lambda w: scipy.special.ellipj(w, kappa**2)[0] ** 2, 0.0, u)
            assert err < 1e-12
            assert abs(int_sn2(u, kappa) - ref) < 1e-10


def test_int_sn2_large_modulus_matches_quadrature():
    kappa = 1.8
    for u in (0.4, 1.1):
        ref, err = scipy.integrate.quad(
            lambda w: (scipy.special.ellipj(kappa * w, 1.0 / kappa**2)[0] / kappa) ** 2,
            0.0, u)
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
        ref, err = scipy.integrate.quad(lambda w: scipy.special.ellipj(w, kappa**2)[0] ** 2,
                                        0.0, u, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-13
        assert abs(int_sn2(u, kappa) - ref) < 2e-14


def quad_ellipeinc(phi, m):
    """E(phi | m) by adaptive quadrature of sqrt(1 - m sin^2)."""
    value, _ = scipy.integrate.quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, phi,
                                    epsabs=1e-13, epsrel=1e-13)
    return value


def ellipeinc_from_int_sn2(u, kappa):
    """E(am u | kappa^2) = u - kappa^2 * (integral of sn^2 over [0, u])."""
    return u - kappa * kappa * int_sn2(u, kappa)


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.6, 0.9, 0.99])
def test_ellipeinc_matches_scipy_on_profile_amplitudes(kappa):
    m = kappa * kappa
    for j0 in (2, 4, 16):
        u = elliptic_theta(kappa, j0) * np.arange(-2000, 2001)
        phi = _amplitude(u, kappa)[0]
        got = ellipeinc_from_int_sn2(u, kappa)
        ref = scipy.special.ellipeinc(phi, m)
        off = np.abs(got - ref) > 2e-15 * np.maximum(1.0, np.abs(ref))
        for i in np.flatnonzero(off):
            exact = quad_ellipeinc(phi[i], m)
            assert abs(ref[i] - exact) >= 1e-6 and abs(got[i] - exact) <= 1e-13, (phi[i], m)


def test_ellipeinc_where_a_landen_step_lands_on_three_half_pi():
    # am(5 K(0.99) / 4) = 1.703221544034659, where 1 - b tan^2 of a Cephes
    # Landen step is -1.3e-15: scipy's ellipeinc counts one pi-branch too many
    # there and returns 0.7924; the zeta form has no branch to count
    kappa = 0.99
    u = 5.0 * elliptic_theta(kappa, 4)
    phi = _amplitude(u, kappa)[0]
    assert abs(phi - 1.703221544034659) < 1e-14
    for sign in (1.0, -1.0):
        got = ellipeinc_from_int_sn2(sign * u, kappa)
        assert abs(got - sign * quad_ellipeinc(phi, kappa * kappa)) <= 1e-13


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


# ---------------------------------------------------------------------------
# elliptic profiles


def test_elliptic_profile_negative_curvature_structure():
    kappa = 0.6
    p = profile_elliptic(kappa, -1, (-3, 3), j0=4)
    Theta = elliptic_theta(kappa, 4)
    sn, cn, dn, _ = scipy.special.ellipj(Theta * p.js, kappa**2)
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
    bad = dataclasses.replace(
        profile_trig(np.full(2, -0.1), 1.0, 0.0, j_lo=-1),
        f=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DegenerateEdge):
        gauss_from_profile(bad)


def test_validate_profile_detects_corruption():
    p = profile_elliptic(0.6, -1, (-2, 2), j0=3)
    bad = dataclasses.replace(p, b=p.b + 1e-3)
    with pytest.raises(InvalidProfile):
        validate_profile(bad)


# ---------------------------------------------------------------------------
# rotational nets


def test_build_rcnet_constant_curvature():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    net = build_rcnet(p, 10, theta=np.pi / 6.0)
    worst, degenerate = curvature_report(net, p.K_sign)
    assert degenerate.size == 0 and worst["gauss"] < 1e-9
    z, embedded = cross_ratio(net, (2, 3))
    assert abs(z.imag) < 1e-10 * abs(z)
    assert embedded


def test_build_rcnet_exact_closure():
    p = profile_trig(np.full(4, -0.08), 0.8, 0.1, j_lo=-2)
    net = build_rcnet(p, 15, k0=12)
    np.testing.assert_array_equal(net.x[:, 12:], net.x[:, :3])
    np.testing.assert_array_equal(net.n[:, 12:], net.n[:, :3])


def test_build_rcnet_vertex_radii_match_profile():
    p = profile_elliptic(1.0, -1, (-2, 2))
    net = build_rcnet(p, 9, theta=0.5)
    radii = np.hypot(net.x[..., 0], net.x[..., 1])
    assert_allclose(radii, np.broadcast_to(p.f[:, None], radii.shape), atol=1e-12)
    assert_allclose(net.x[..., 2], np.broadcast_to(p.h[:, None], radii.shape), atol=1e-12)


def test_build_rcnet_argument_validation():
    p = profile_trig(np.full(3, -0.1), 1.0, 0.0, j_lo=-1)
    with pytest.raises(ConfigError):
        build_rcnet(p, 10)
    with pytest.raises(ConfigError):
        build_rcnet(p, 10, theta=0.5, k0=6)
    with pytest.raises(ConfigError):
        build_rcnet(p, 10, k0=2)
    with pytest.raises(ConfigError):
        build_rcnet(p, 1, theta=0.5)
    with pytest.raises(ConfigError):
        build_rcnet(p, 10, theta=3.5)
