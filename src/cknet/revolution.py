"""Profiles of discrete constant-curvature surfaces of revolution.

A profile is the meridian data (f, h) (radius and height) together with
the normal components (a, b) (radial and axial) and the edge sequence c
solving

    K = +1:   -c * (f(j+1)+f(j)) = b(j+1)-b(j),   c * (b(j+1)+b(j)) = f(j+1)-f(j)
    K = -1:    c * (f(j+1)+f(j)) = b(j+1)-b(j),   c * (b(j+1)+b(j)) = f(j+1)-f(j)

with (f(j+1)-f(j), h(j+1)-h(j)) = c(j) * (b(j+1)+b(j), -(a(j+1)+a(j))).
Rotating the profile by a constant angle step produces a circular net of
constant discrete Gauss curvature.

Conserved along valid profiles:

    K = +1:  f^2 - a^2 = f^2 + b^2 - 1 = kappa^2 - 1
    K = -1:  f^2 + a^2 = f^2 - b^2 + 1 = 1 / kappa^2

Closed-form families: trigonometric (K=+1), exponential/hyperbolic
(K=-1), and elliptic (both signs) built on the Jacobi functions sn, cn,
dn, computed here by the arithmetic-geometric-mean ladder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateEdge, InvalidProfile, ModulusOutOfRange
from .nets import ContactElementNet

_LADDER_TOL = 1e-16
_LADDER_MAX = 64


# ---------------------------------------------------------------------------
# Jacobi elliptic functions (AGM ladder)


def _agm_phi(u, kappa):
    """Amplitude am(u, kappa) for 0 < kappa < 1 via the descending ladder."""
    a = [1.0]
    b = [float(np.sqrt(1.0 - kappa * kappa))]
    c = [float(kappa)]
    while abs(c[-1]) > _LADDER_TOL and len(a) < _LADDER_MAX:
        an = (a[-1] + b[-1]) / 2.0
        bn = float(np.sqrt(a[-1] * b[-1]))
        c.append((a[-1] - b[-1]) / 2.0)
        a.append(an)
        b.append(bn)
    n = len(a) - 1
    phi = (2.0 ** n) * a[n] * np.asarray(u, dtype=float)
    for i in range(n, 0, -1):
        arg = np.clip(c[i] * np.sin(phi) / a[i], -1.0, 1.0)
        phi = (phi + np.arcsin(arg)) / 2.0
    return phi


def am(u, kappa):
    """Jacobi amplitude for modulus 0 <= kappa < 1."""
    if kappa < 0 or kappa >= 1:
        raise ModulusOutOfRange(f"amplitude requires 0 <= kappa < 1, got {kappa}")
    if kappa == 0:
        return np.asarray(u, dtype=float)
    return _agm_phi(u, kappa)


def jacobi(u, kappa):
    """Jacobi sn, cn, dn at real argument u and modulus kappa >= 0.

    0 < kappa < 1 uses the AGM ladder; kappa = 0 and kappa = 1 are the
    trigonometric and hyperbolic limits; kappa > 1 uses the reciprocal
    modulus transformation.
    """
    u = np.asarray(u, dtype=float)
    if kappa < 0:
        raise ModulusOutOfRange(f"modulus must be >= 0, got {kappa}")
    if kappa == 0:
        return np.sin(u), np.cos(u), np.ones_like(u)
    if kappa == 1:
        t = np.tanh(u)
        s = 1.0 / np.cosh(u)
        return t, s, s
    if kappa > 1:
        sn, cn, dn = jacobi(kappa * u, 1.0 / kappa)
        return sn / kappa, dn, cn
    phi = _agm_phi(u, kappa)
    sn = np.sin(phi)
    cn = np.cos(phi)
    # dn as sqrt(1 - kappa^2 sn^2) rewritten without cancellation; the
    # classical cos(phi)/cos(phi_prev - phi) ladder recovery is 0/0 at
    # odd quarter periods and loses accuracy around them.
    dn = np.sqrt(1.0 - kappa * kappa + (kappa * cn) ** 2)
    return sn, cn, dn


def elliptic_K(kappa):
    """Complete elliptic integral of the first kind, modulus convention."""
    if kappa < 0:
        raise ModulusOutOfRange(f"modulus must be >= 0, got {kappa}")
    if kappa > 1:
        raise ModulusOutOfRange(f"complete integral requires kappa <= 1, got {kappa}")
    if kappa == 1:
        return np.inf
    a, b = 1.0, float(np.sqrt(1.0 - kappa * kappa))
    for _ in range(_LADDER_MAX):
        if abs(a - b) <= _LADDER_TOL * a:
            break
        a, b = (a + b) / 2.0, float(np.sqrt(a * b))
    return float(np.pi / (2.0 * a))


# ---------------------------------------------------------------------------
# E(phi | m) for 0 <= m < 1: Cephes ellie/ellpe/ellpk (S. L. Moshier, Methods
# and Programs for Mathematical Functions, 1989), the routine behind
# scipy.special.ellipeinc, cut to the branches that range reaches.  Scalar
# libm calls through ``math`` round as the C code does, so results are equal,
# except where a Landen step lands on an odd multiple of pi/2: Cephes then
# counts one pi-branch too many, and the port takes the branch that t agrees
# with (E(1.703221544034659 | 0.99^2) is 1.0496, where Cephes gives 0.7924).

_MACHEP = 1.11022302462515654042e-16
_ELLPE_P = (1.53552577301013293365e-4, 2.50888492163602060990e-3, 8.68786816565889628429e-3,
            1.07350949056076193403e-2, 7.77395492516787092951e-3, 7.58395289413514708519e-3,
            1.15688436810574127319e-2, 2.18317996015557253103e-2, 5.68051945617860553470e-2,
            4.43147180560990850618e-1, 1.00000000000000000299e0)
_ELLPE_Q = (3.27954898576485872656e-5, 1.00962792679356715133e-3, 6.50609489976927491433e-3,
            1.68862163993311317300e-2, 2.61769742454493659583e-2, 3.34833904888224918614e-2,
            4.27180926518931511717e-2, 5.85936634471101055642e-2, 9.37499997197644278445e-2,
            2.49999999999888314361e-1)
_ELLPK_P = (1.37982864606273237150e-4, 2.28025724005875567385e-3, 7.97404013220415179367e-3,
            9.85821379021226008714e-3, 6.87489687449949877925e-3, 6.18901033637687613229e-3,
            8.79078273952743772254e-3, 1.49380448916805252718e-2, 3.08851465246711995998e-2,
            9.65735902811690126535e-2, 1.38629436111989062502e0)
_ELLPK_Q = (2.94078955048598507511e-5, 9.14184723865917226571e-4, 5.94058303753167793257e-3,
            1.54850516649762399335e-2, 2.39089602715924892727e-2, 3.01204715227604046988e-2,
            3.73774314173823228969e-2, 4.88280347570998239232e-2, 7.03124996963957469739e-2,
            1.24999999999870820058e-1, 4.99999999999999999821e-1)


def _polevl(x, coef):
    return functools.reduce(lambda acc, c: acc * x + c, coef)


@functools.lru_cache(maxsize=16)
def _complete(m):
    """(E(m), E(m)/K(m)) for 0 < m < 1 by Cephes ellpe and ellpk, computed once per m."""
    x = 1.0 - m
    E = _polevl(x, _ELLPE_P) - math.log(x) * (x * _polevl(x, _ELLPE_Q))
    return E, E / (_polevl(x, _ELLPK_P) - math.log(x) * _polevl(x, _ELLPK_Q))


def _ellipeinc(phi, m):
    """E(phi | m) for real phi, reduced to |phi| <= pi/2 by quarter periods."""
    if m == 0.0 or not math.isfinite(phi):
        return phi
    npio2 = float(math.floor(phi / (math.pi / 2.0)))
    if math.fmod(abs(npio2), 2.0) == 1.0:
        npio2 += 1.0
    lphi = phi - npio2 * (math.pi / 2.0)
    E = _complete(m)[0]
    return math.copysign(_ellie_quarter(abs(lphi), m), lphi) + npio2 * E


def _ellie_quarter(lphi, m):
    """E(lphi | m) for 0 <= lphi <= pi/2."""
    if lphi < 0.135:
        m11 = (((((-7.0 / 2816.0) * m + (5.0 / 1056.0)) * m - (7.0 / 2640.0)) * m
                + (17.0 / 41580.0)) * m - (1.0 / 155925.0)) * m
        m9 = ((((-5.0 / 1152.0) * m + (1.0 / 144.0)) * m - (1.0 / 360.0)) * m + (1.0 / 5670.0)) * m
        m7 = ((-m / 112.0 + (1.0 / 84.0)) * m - (1.0 / 315.0)) * m
        m5 = (-m / 40.0 + (1.0 / 30.0)) * m
        m3 = -m / 6.0
        p2 = lphi * lphi
        return ((((m11 * p2 + m9) * p2 + m7) * p2 + m5) * p2 + m3) * p2 * lphi + lphi
    t = math.tan(lphi)
    b = math.sqrt(1.0 - m)
    if abs(t) > 10.0 and abs(1.0 / (b * t)) < 10.0:
        # near pi/2: E(phi) = E - E(e) + m sin(phi) sin(e) with tan(e) = 1/(b tan(phi))
        e = math.atan(1.0 / (b * t))
        return _complete(m)[0] + m * math.sin(lphi) * math.sin(e) - _ellipeinc(e, m)
    c, a, d, e, mod = math.sqrt(m), 1.0, 1, 0.0, 0
    while abs(c / a) > _MACHEP:   # descending Landen transformation
        temp = b / a
        lphi = lphi + math.atan(t * temp) + mod * math.pi
        denom = 1.0 - temp * t * t
        if abs(denom) > 10.0 * _MACHEP:
            t = t * (1.0 + temp) / denom
            mod = round((lphi - math.atan(t)) / math.pi)   # the branch of the updated t
        else:
            t = math.tan(lphi)
            mod = math.floor((lphi - math.atan(t)) / math.pi)
        c, a, b = (a - b) / 2.0, (a + b) / 2.0, math.sqrt(a * b)
        d += d
        e += c * math.sin(lphi)
    return _complete(m)[1] * ((math.atan(t) + mod * math.pi) / (d * a)) + e


def int_sn2(u, kappa):
    """Integral of sn(v, kappa)^2 over v in [0, u]."""
    u = np.asarray(u, dtype=float)
    if kappa < 0:
        raise ModulusOutOfRange(f"modulus must be >= 0, got {kappa}")
    if kappa == 1:
        return u - np.tanh(u)
    if kappa > 1:
        return int_sn2(kappa * u, 1.0 / kappa) / kappa ** 3
    m = kappa * kappa
    if m == 0.0:   # kappa = 0, or kappa^2 below the smallest double
        return u / 2.0 - np.sin(2.0 * u) / 4.0
    phi = am(u, kappa)
    e = np.fromiter((_ellipeinc(v, m) for v in phi.ravel().tolist()), float, phi.size)
    return (u - e.reshape(phi.shape)) / m


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Profile:
    """Meridian of a constant-curvature surface of revolution.

    Vertex sequences f, h, a, b (length nj) are indexed by the absolute
    labels j_lo .. j_lo+nj-1; the edge sequence c has length nj-1.
    ``flagged`` lists vertices with |b| = 1 (axial normal).
    """

    f: np.ndarray
    h: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    kappa: float
    K_sign: int
    j_lo: int = 0
    flagged: tuple[int, ...] = field(default=())

    @property
    def nj(self) -> int:
        return len(self.f)

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_lo + self.nj)

    def index(self, j: int) -> int:
        return int(j) - self.j_lo


def _anchor_pos(j_lo: int, n: int) -> int:
    """Position of label 0 when inside the window, else the first vertex."""
    pos = -j_lo
    return pos if 0 <= pos < n else 0


def _heights(c, a, j_lo):
    dh = -c * (a[1:] + a[:-1])
    h = np.concatenate([[0.0], np.cumsum(dh)])
    return h - h[_anchor_pos(j_lo, len(h))]


def _finalize(f, h, a, b, c, kappa, K_sign, j_lo, tol=1e-12):
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(np.abs(c) < 1e-14):
        raise InvalidProfile("edge coefficient c vanishes")
    if np.max(np.abs(b)) > 1.0 + tol:
        raise InvalidProfile(f"axial normal component exceeds 1: max |b| = {np.max(np.abs(b)):.6g}")
    if np.min(np.abs(f)) < 1e-12:
        raise InvalidProfile("radius f vanishes")
    if not (np.all(f > 0) or np.all(f < 0)):
        raise InvalidProfile("radius f changes sign")
    df, dh = f[1:] - f[:-1], h[1:] - h[:-1]
    if np.min(np.maximum(np.abs(df), np.abs(dh))) < 1e-12:
        raise InvalidProfile("a profile edge has zero length")
    sa, sb = a[1:] + a[:-1], b[1:] + b[:-1]
    if np.min(np.maximum(np.abs(sa), np.abs(sb))) < 1e-12:
        raise InvalidProfile("normal sums (sigma a, sigma b) vanish on an edge")
    flagged = tuple(int(j_lo + i) for i in np.nonzero(np.abs(np.abs(b) - 1.0) <= tol)[0])
    return Profile(f, h, a, b, c, float(kappa), int(K_sign), int(j_lo), flagged)


def _axial_from_b(b):
    """The non-negative radial normal component a = sqrt(1 - b^2)."""
    b = np.asarray(b, dtype=float)
    if np.max(np.abs(b)) > 1.0 + 1e-12:
        raise InvalidProfile(f"axial normal component exceeds 1: max |b| = {np.max(np.abs(b)):.6g}")
    return np.sqrt(np.clip(1.0 - b * b, 0.0, None))


def profile_trig(c, A, B, j_lo=0):
    """K = +1 profile from the closed trigonometric solution.

    c is the edge sequence; f(j) = A cos(phase(j) + B) and
    b(j) = A sin(phase(j) + B) where each edge turns the phase by the
    angle -2 arctan(c), with cos = (1-c^2)/(1+c^2), sin = -2c/(1+c^2).
    The curvature radius parameter is kappa = |A|.
    """
    c = np.asarray(c, dtype=float)
    if abs(A) < 1e-14:
        raise InvalidProfile("amplitude A must be nonzero")
    theta = -2.0 * np.arctan(c)
    phase = np.concatenate([[0.0], np.cumsum(theta)])
    phase = phase - phase[_anchor_pos(j_lo, len(phase))]
    f = A * np.cos(phase + B)
    b = A * np.sin(phase + B)
    a = _axial_from_b(b)
    h = _heights(c, a, j_lo)
    return _finalize(f, h, a, b, c, abs(A), +1, j_lo)


def profile_hyp(c, A, B, j_lo=0):
    """K = -1 profile from the closed exponential solution.

    f(j) = A/r(j) + B*r(j) and b(j) = -A/r(j) + B*r(j) with r the running
    product of (1+c)/(1-c) over edges; kappa = 1/sqrt(1+4AB) requires
    1 + 4AB > 0.
    """
    c = np.asarray(c, dtype=float)
    if np.any(np.abs(np.abs(c) - 1.0) < 1e-12):
        raise InvalidProfile("edge coefficient c = +-1 degenerates the exponential solution")
    if 1.0 + 4.0 * A * B <= 0:
        raise InvalidProfile(f"1 + 4AB = {1.0 + 4.0 * A * B:.6g} <= 0 admits no curvature radius")
    rho = (1.0 + c) / (1.0 - c)
    r = np.concatenate([[1.0], np.cumprod(rho)])
    r = r / r[_anchor_pos(j_lo, len(r))]
    f = A / r + B * r
    b = -A / r + B * r
    a = _axial_from_b(b)
    h = _heights(c, a, j_lo)
    kappa = 1.0 / np.sqrt(1.0 + 4.0 * A * B)
    return _finalize(f, h, a, b, c, kappa, -1, j_lo)


def elliptic_theta(kappa, j0=2):
    """Step size rule for elliptic profiles: a fraction of the real period.

    0 < kappa < 1: K(kappa)/j0;  kappa > 1: K(1/kappa)/(kappa*j0);
    kappa = 1: the period is infinite, any positive step works and 0.5
    is taken.  j0 must be an integer >= 2.
    """
    if kappa <= 0:
        raise ModulusOutOfRange(f"modulus must be > 0, got {kappa}")
    if int(j0) != j0 or j0 < 2:
        raise ConfigError(f"period divisor j0 must be an integer >= 2, got {j0}")
    if kappa == 1:
        return 0.5
    if kappa < 1:
        return elliptic_K(kappa) / j0
    return elliptic_K(1.0 / kappa) / (kappa * j0)


def profile_elliptic(kappa, K_sign, j_range, Theta=None, j0=2):
    """Elliptic profile for either curvature sign on labels j_range (inclusive).

    K = +1: f = kappa*cn(Theta*j), a = dn, b = kappa*sn, with edge
    c(j) = -sn(Theta/2) dn((2j+1)Theta/2) / cn(Theta/2).
    K = -1: f = dn(Theta*j)/kappa, a = sn, b = cn, with
    c(j) = -kappa sn(Theta/2) sn((2j+1)Theta/2), and heights from the
    integral of sn^2.  Theta defaults to the period rule elliptic_theta.
    """
    if kappa <= 0:
        raise ModulusOutOfRange(f"modulus must be > 0, got {kappa}")
    if K_sign not in (+1, -1):
        raise ConfigError(f"K_sign must be +1 or -1, got {K_sign}")
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    if j_hi <= j_lo:
        raise ConfigError(f"empty vertex range {j_range}")
    if Theta is None:
        Theta = elliptic_theta(kappa, j0)
    js = np.arange(j_lo, j_hi + 1)
    je = js[:-1]
    sn, cn, dn = jacobi(Theta * js, kappa)
    sn_h, cn_h, dn_h = jacobi(Theta / 2.0, kappa)
    if K_sign == +1:
        f = kappa * cn
        a = dn
        b = kappa * sn
        _, _, dn_mid = jacobi((2.0 * je + 1.0) * Theta / 2.0, kappa)
        c = -sn_h * dn_mid / cn_h
        h = _heights(c, a, j_lo)
    else:
        f = dn / kappa
        a = sn
        b = cn
        sn_mid, _, _ = jacobi((2.0 * je + 1.0) * Theta / 2.0, kappa)
        c = -kappa * sn_h * sn_mid
        h = kappa * (int_sn2(Theta * js, kappa) - 2.0 * js * float(int_sn2(Theta / 2.0, kappa)))
    return _finalize(f, h, a, b, c, kappa, K_sign, j_lo)


# ---------------------------------------------------------------------------
# curvature from a profile, and the rotational net


def gauss_from_profile(p: Profile, j=None):
    """Discrete Gauss curvature per edge: K = -(b(j+1)-b(j)) / (c (f(j+1)+f(j))).

    With j given (absolute label) returns that edge's value; otherwise the
    full edge array.  Raises DegenerateEdge when f(j+1) = -f(j).
    """
    sf = p.f[1:] + p.f[:-1]
    if np.any(np.abs(sf) < 1e-14):
        raise DegenerateEdge("f(j+1) = -f(j) on some edge; curvature undefined")
    K = -(p.b[1:] - p.b[:-1]) / (p.c * sf)
    if j is None:
        return K
    return float(K[p.index(j)])


def conservation_drift(p: Profile) -> float:
    """Max deviation of the two conserved combinations from their constants.

    K=+1: f^2-a^2 and f^2+b^2-1 against kappa^2-1;
    K=-1: f^2+a^2 and f^2-b^2+1 against 1/kappa^2.
    """
    if p.K_sign == +1:
        target = p.kappa ** 2 - 1.0
        d1 = p.f ** 2 - p.a ** 2 - target
        d2 = p.f ** 2 + p.b ** 2 - 1.0 - target
    else:
        target = 1.0 / p.kappa ** 2
        d1 = p.f ** 2 + p.a ** 2 - target
        d2 = p.f ** 2 - p.b ** 2 + 1.0 - target
    return float(np.maximum(np.max(np.abs(d1)), np.max(np.abs(d2))))


def edge_residuals(p: Profile) -> float:
    """Max residual of the defining edge relations of the profile."""
    df = p.f[1:] - p.f[:-1]
    db = p.b[1:] - p.b[:-1]
    dh = p.h[1:] - p.h[:-1]
    sf = p.f[1:] + p.f[:-1]
    sa = p.a[1:] + p.a[:-1]
    sb = p.b[1:] + p.b[:-1]
    r1 = np.abs(df - p.c * sb)
    r2 = np.abs(dh + p.c * sa)
    r3 = np.abs(db + p.K_sign * p.c * sf)
    return float(np.maximum.reduce([np.max(r1), np.max(r2), np.max(r3)]))


def validate_profile(p: Profile, tol: float = 1e-10) -> None:
    """Raise InvalidProfile when the defining relations drift beyond tol."""
    r = edge_residuals(p)
    unit = float(np.max(np.abs(p.a ** 2 + p.b ** 2 - 1.0)))
    drift = conservation_drift(p)
    if not (r <= tol and unit <= tol and drift <= 100 * tol):
        raise InvalidProfile(
            f"profile relations violated: edges {r:.3e}, unit normal {unit:.3e}, "
            f"conservation {drift:.3e} (tol {tol:.1e})"
        )


def build_rcnet(p: Profile, k_count: int, theta: float = None, k0: int = None,
                k_lo: int = 0) -> ContactElementNet:
    """Rotational circular net: profile swept by a constant angle step.

    Either theta (the step, in (-pi,0) or (0,pi)) or k0 (integer >= 3,
    step 2*pi/k0 with exact closure after k0 steps) must be given.
    Columns carry labels k_lo .. k_lo+k_count-1.
    """
    if (theta is None) == (k0 is None):
        raise ConfigError("exactly one of theta and k0 must be given")
    if k_count < 2:
        raise ConfigError(f"need at least two columns, got {k_count}")
    ks = np.arange(k_lo, k_lo + k_count)
    if k0 is not None:
        if int(k0) != k0 or k0 < 3:
            raise ConfigError(f"k0 must be an integer >= 3, got {k0}")
        ang = 2.0 * np.pi * np.mod(ks, k0) / k0
    else:
        if not (0.0 < abs(theta) < np.pi):
            raise ConfigError(f"rotation step must lie in (-pi,0) or (0,pi), got {theta}")
        ang = theta * ks
    cos_t, sin_t = np.cos(ang), np.sin(ang)
    x = np.stack([
        p.f[:, None] * cos_t[None, :],
        p.f[:, None] * sin_t[None, :],
        np.broadcast_to(p.h[:, None], (p.nj, k_count)).copy(),
    ], axis=-1)
    n = np.stack([
        p.a[:, None] * cos_t[None, :],
        p.a[:, None] * sin_t[None, :],
        np.broadcast_to(p.b[:, None], (p.nj, k_count)).copy(),
    ], axis=-1)
    return ContactElementNet(x, n)
