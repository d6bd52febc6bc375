"""Tests for elliptic functions and constant-curvature profiles.

Independent oracles: scipy.special.ellipj / ellipk (parameter m = kappa^2)
and direct quadrature of sn^2 via scipy.integrate.quad.  The private
E(phi | m) is held bit for bit to scipy.special.ellipeinc, the Cephes
routine it ports, except where a Landen step lands on an odd multiple of
pi/2: there Cephes takes the wrong pi-branch (at least 1e-6 off a
quadrature of the integrand) and the port must match the quadrature
within 1e-13.
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
from cknet.revolution import (_ellipeinc, am, build_rcnet, conservation_drift,
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
    assert_allclose(am(u, 0.8), ph, atol=1e-10)
    assert_allclose(np.sin(am(u, 0.8)), scipy.special.ellipj(u, 0.64)[0], atol=1e-12)


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


def assert_bitwise(got, ref, err_msg=""):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64), err_msg=err_msg)


def ellipeinc_port(phi, m):
    return [_ellipeinc(v, m) for v in np.ravel(phi).tolist()]


def quad_ellipeinc(phi, m):
    """E(phi | m) by adaptive quadrature of sqrt(1 - m sin^2)."""
    value, _ = scipy.integrate.quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2), 0.0, phi,
                                    epsabs=1e-13, epsrel=1e-13)
    return value


def mended_scipy_ellipeinc(phi, m):
    """scipy.special.ellipeinc, with the port's value wherever the two differ in any bit;
    at each such point scipy must be at least 1e-6 off the quadrature and the port
    within 1e-13 of it."""
    phi = np.asarray(phi, dtype=float)
    port = np.array(ellipeinc_port(phi, m)).reshape(phi.shape)
    ref = scipy.special.ellipeinc(phi, m)
    for i in np.argwhere(port.view(np.int64) != ref.view(np.int64)):
        i = tuple(i)
        exact = quad_ellipeinc(phi[i], m)
        assert abs(ref[i] - exact) >= 1e-6 and abs(port[i] - exact) <= 1e-13, (phi[i], m)
        ref[i] = port[i]
    return ref


def test_ellipeinc_matches_scipy_on_random_sweep():
    rng = np.random.default_rng(20261018)
    phi = rng.uniform(-60.0, 60.0, 20000)
    m = rng.uniform(0.0, 1.0, 20000)
    got = [_ellipeinc(p, q) for p, q in zip(phi.tolist(), m.tolist())]
    assert_bitwise(got, scipy.special.ellipeinc(phi, m))


@pytest.mark.parametrize("kappa", [0.1, 0.3, 0.6, 0.9, 0.99])
def test_ellipeinc_matches_scipy_on_profile_amplitudes(kappa):
    m = kappa * kappa
    for j0 in (2, 4, 16):
        phi = am(elliptic_theta(kappa, j0) * np.arange(-2000, 2001), kappa)
        assert_bitwise(ellipeinc_port(phi, m), mended_scipy_ellipeinc(phi, m))
    u = elliptic_theta(kappa, 4) * np.arange(-40, 41)
    assert_bitwise(int_sn2(u, kappa), (u - mended_scipy_ellipeinc(am(u, kappa), m)) / m)


def test_ellipeinc_where_a_landen_step_lands_on_three_half_pi():
    # 1 - b tan^2 is -1.3e-15 on that step, just past the cutoff; Cephes (and
    # scipy) then counts one pi-branch too many and returns 0.7924
    phi, m = 1.703221544034659, 0.99 ** 2
    for sign in (1.0, -1.0):
        assert abs(_ellipeinc(sign * phi, m) - sign * quad_ellipeinc(phi, m)) <= 1e-13


def test_ellipeinc_branches_match_scipy():
    branches = {
        "series below 0.135": [0.0, -0.0, 1e-300, 1e-8, 0.05, 0.1349],
        "amplitude transform, tan > 10": [np.arctan(10.5), np.arctan(1e3), np.pi / 2 - 1e-9],
        "ladder": [0.135, 0.8, 1.4],
        "quarter periods": [q * np.pi / 2 + d for q in (1, 2, 3, 7, 40) for d in (-0.3, 0.0, 0.3)],
        "negative": [-0.05, -0.8, -1.5, -7.0, -123.4],
    }
    for name, phi in branches.items():
        for m in (0.7, 1e-6, 0.999):
            assert_bitwise(ellipeinc_port(phi, m), scipy.special.ellipeinc(phi, m), name)
    # tan > 10, but 1/(b tan) >= 10 too: no transform, straight to the ladder
    m = 1.0 - 1e-6
    phi = [np.arctan(20.0), np.arctan(50.0)]
    assert 1.0 / (math.sqrt(1.0 - m) * 20.0) >= 10.0
    assert_bitwise(ellipeinc_port(phi, m), scipy.special.ellipeinc(phi, m))
    # the first ladder step's 1 - b tan^2 is exactly 0 here
    m = 0.01
    b = math.sqrt(1.0 - m)
    phi = math.atan(1.0 / math.sqrt(b))
    assert 1.0 - b * math.tan(phi) * math.tan(phi) == 0.0
    assert_bitwise(_ellipeinc(phi, m), scipy.special.ellipeinc(phi, m))
    phi = np.linspace(-9.0, 9.0, 37)
    assert_bitwise(ellipeinc_port(phi, 0.0), phi)
    assert_bitwise(ellipeinc_port(phi, 0.0), scipy.special.ellipeinc(phi, 0.0))


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
    # heights come from E(phi | m) on every vertex; j0 = 4, 8 and 16 put Landen
    # steps on odd multiples of pi/2 for many moduli
    for kappa in np.arange(0.01, 1.0, 0.007):
        for j0 in (2, 3, 4, 5, 6, 8, 16):
            p = profile_elliptic(kappa, -1, (-2 * j0, 4 * j0), j0=j0)
            assert edge_residuals(p) <= 1e-10, (kappa, j0)


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
