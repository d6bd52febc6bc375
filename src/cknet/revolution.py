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
dn and the integral of sn^2, all computed here from one
arithmetic-geometric-mean (Landen) ladder.
"""

from __future__ import annotations

import numpy as np

from . import _Record, _reference_shim
from .errors import ConfigError, InvalidProfile, ModulusOutOfRange
from .nets import ContactElementNet

_LADDER_TOL = 1e-16
_LADDER_MAX = 64
_UNIT_TOL = 1e-12      # how far |b| may exceed 1


# ---------------------------------------------------------------------------
# Jacobi elliptic functions and integrals: one descending AGM/Landen ladder
# (Abramowitz & Stegun 16.4 and 17.6)


def _ladder(kappa):
    """The ladder a_n, c_n, e_n (n = 0..N) from a_0 = 1, b_0 = sqrt(1 - kappa^2), c_0 = kappa.

    c_n = (a_(n-1) - b_(n-1))/2 drives the amplitude; e_n is the same
    number formed as e_(n-1)^2 / (4 a_n), which keeps its relative
    accuracy where the difference cancels (small kappa).
    """
    a, b, c, e = [1.0], float(np.sqrt(1.0 - kappa * kappa)), [float(kappa)], [float(kappa)]
    while abs(c[-1]) > _LADDER_TOL and len(a) < _LADDER_MAX:
        an = (a[-1] + b) / 2.0
        c.append((a[-1] - b) / 2.0)
        b = float(np.sqrt(a[-1] * b))
        a.append(an)
        e.append(e[-1] * e[-1] / (4.0 * an))
    return a, c, e


def _amplitude(u, kappa):
    """am(u), the Jacobi zeta Z(u) = sum_(n>=1) e_n sin(phi_n) down the ladder's phases, and e."""
    a, c, e = _ladder(kappa)
    n = len(a) - 1
    phi = (2.0 ** n) * a[n] * np.asarray(u, dtype=float)
    zeta = 0.0
    for i in range(n, 0, -1):
        s = np.sin(phi)
        zeta = zeta + e[i] * s
        phi = (phi + np.arcsin(np.clip(c[i] * s / a[i], -1.0, 1.0))) / 2.0
    return phi, zeta, e


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
    return _ladder_functions(u, kappa)[:3]


def elliptic_K(kappa):
    """Complete elliptic integral of the first kind, modulus convention: pi / (2 a_N)."""
    if kappa < 0:
        raise ModulusOutOfRange(f"modulus must be >= 0, got {kappa}")
    if kappa > 1:
        raise ModulusOutOfRange(f"complete integral requires kappa <= 1, got {kappa}")
    if kappa == 1:
        return np.inf
    return float(np.pi / (2.0 * _ladder(kappa)[0][-1]))


def int_sn2(u, kappa):
    """Integral of sn(v, kappa)^2 over v in [0, u].

    For 0 < kappa < 1 this is (u - E(am u)) / kappa^2 with
    E(am u) = u E/K + Z(u) and 1 - E/K = sum_(n>=0) 2^(n-1) e_n^2, all read
    off the ladder, so u and E(am u) are never subtracted.
    """
    u = np.asarray(u, dtype=float)
    if kappa < 0:
        raise ModulusOutOfRange(f"modulus must be >= 0, got {kappa}")
    if kappa == 1:
        return u - np.tanh(u)
    if kappa > 1:
        return int_sn2(kappa * u, 1.0 / kappa) / kappa ** 3
    return _ladder_functions(u, kappa)[3]


def _ladder_functions(u, kappa):
    """sn, cn, dn and the integral of sn^2 at u for 0 < kappa < 1, read off one ladder pass."""
    phi, zeta, e = _amplitude(u, kappa)
    cn = np.cos(phi)
    # dn as sqrt(1 - kappa^2 sn^2) rewritten without cancellation; the
    # classical cos(phi)/cos(phi_prev - phi) ladder recovery is 0/0 at
    # odd quarter periods and loses accuracy around them.
    dn = np.sqrt(1.0 - kappa * kappa + (kappa * cn) ** 2)
    if kappa <= _LADDER_TOL:   # the ladder takes no step: sn is sin to double precision
        return np.sin(phi), cn, dn, u / 2.0 - np.sin(2.0 * u) / 4.0
    s = sum(2.0 ** (n - 1) * e[n] * e[n] for n in range(1, len(e)))
    return np.sin(phi), cn, dn, (u * s - zeta) / (kappa * kappa) + u / 2.0


# ---------------------------------------------------------------------------
# profiles


class Profile(_Record):
    """Meridian of a constant-curvature surface of revolution.

    Vertex sequences f, h, a, b (length nj) are indexed by the absolute
    labels j_lo .. j_lo+nj-1; the edge sequence c has length nj-1.
    """

    __slots__ = ("f", "h", "a", "b", "c", "kappa", "K_sign", "j_lo")

    def __init__(self, f, h, a, b, c, kappa: float, K_sign: int, j_lo: int = 0):
        self._fill(f, h, a, b, c, kappa, K_sign, j_lo)

    @property
    def nj(self) -> int:
        return len(self.f)

    @property
    def js(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_lo + self.nj)

    def mirrored(self) -> "Profile":
        """The meridian turned by pi about the axis, (-f, h, -a, b, -c): its net is this
        profile's net turned by pi, with x and y negated."""
        return Profile(-self.f, self.h, -self.a, self.b, -self.c, self.kappa, self.K_sign,
                       self.j_lo)


def _anchor_pos(j_lo: int, n: int) -> int:
    """Position of label 0 when inside the window, else the first vertex."""
    pos = -j_lo
    return pos if 0 <= pos < n else 0


def _heights(c, a, j_lo):
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        h = np.concatenate([[0.0], np.cumsum(-c * (a[1:] + a[:-1]))])
        h -= h[_anchor_pos(j_lo, len(h))]
    if not np.all(np.isfinite(h)):
        raise InvalidProfile("profile heights overflow")
    return h


def _finalize(f, h, a, b, c, kappa, K_sign, j_lo):
    f = np.asarray(f, dtype=float)
    h = np.asarray(h, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(np.abs(c) < 1e-14):
        raise InvalidProfile("edge coefficient c vanishes")
    if np.max(np.abs(b)) > 1.0 + _UNIT_TOL:
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
    return Profile(f, h, a, b, c, float(kappa), int(K_sign), int(j_lo))


def _axial_from_b(b):
    """The non-negative radial normal component a = sqrt(1 - b^2), 0 where |b| > 1 (which
    _finalize refuses)."""
    b = np.clip(b, -1.0, 1.0)   # so b * b cannot overflow
    return np.sqrt(1.0 - b * b)


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
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):   # refused below
        r = np.concatenate([[1.0], np.cumprod(rho)])
        r = r / r[_anchor_pos(j_lo, len(r))]
        f, b = A / r + B * r, -A / r + B * r
    if not np.all(np.isfinite(f) & np.isfinite(b)):
        raise InvalidProfile("the exponential solution overflows on this meridian")
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
    js, n = np.arange(j_lo, j_hi + 1), j_hi - j_lo + 1
    # Theta j, Theta/2 and the edge midpoints (2j+1) Theta/2, in one pass
    u = np.concatenate([Theta * js, [Theta / 2.0], (2.0 * js[:-1] + 1.0) * Theta / 2.0])
    if kappa < 1:
        sn, cn, dn, isn2 = _ladder_functions(u, kappa)
    else:   # Theta/2 as a scalar too: numpy squares a scalar apart from an array's elements
        (sn, cn, dn), isn2 = jacobi(u, kappa), int_sn2(u, kappa)
        sn[n], cn[n], dn[n] = jacobi(Theta / 2.0, kappa)
    if K_sign == +1:
        f, a, b, c = kappa * cn[:n], dn[:n], kappa * sn[:n], -sn[n] * dn[n + 1:] / cn[n]
        h = _heights(c, a, j_lo)
    else:
        f, a, b, c = dn[:n] / kappa, sn[:n], cn[:n], -kappa * sn[n] * sn[n + 1:]
        h = kappa * (isn2[:n] - 2.0 * js * float(isn2[n]))
    return _finalize(f, h, a, b, c, kappa, K_sign, j_lo)


# ---------------------------------------------------------------------------
# profile residuals, and the rotational net


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


def _require_step(theta: float) -> None:
    """Refuse a rotation step outside (-pi,0) and (0,pi): the connections and column angles."""
    if not (0.0 < abs(theta) < np.pi):
        raise ConfigError(f"rotation step must lie in (-pi,0) or (0,pi), got {theta}")


def _require_columns(k_count: int, k0: int = None) -> None:
    """Refuse fewer than two columns, or a k0 that is no integer >= 3: the column angles and
    the CLI's rotation stage."""
    if k_count < 2:
        raise ConfigError(f"rotation.k_count must be >= 2, got {k_count}")
    if k0 is not None and int(k0) != k0:
        raise ConfigError(f"rotation.k0 must be an integer, got {k0}")
    if k0 is not None and k0 < 3:
        raise ConfigError(f"rotation.k0 must be >= 3, got {k0}")


def column_angles(k_count: int, theta: float = None, k0: int = None, k_lo: int = 0) -> np.ndarray:
    """Angles of the columns k_lo .. k_lo+k_count-1: k theta for a step theta in (-pi,0) or
    (0,pi), or 2 pi (k mod k0) / k0 for an integer k0 >= 3; exactly one must be given."""
    if (theta is None) == (k0 is None):
        raise ConfigError("exactly one of theta and k0 must be given")
    _require_columns(k_count, k0)
    ks = np.arange(k_lo, k_lo + k_count)
    if k0 is not None:
        return 2.0 * np.pi * np.mod(ks, k0) / k0
    _require_step(theta)
    return theta * ks


def build_rcnet(p: Profile, ang: np.ndarray) -> ContactElementNet:
    """Rotational circular net: the profile swept to the column angles ``ang``."""
    cos_t, sin_t = np.cos(ang), np.sin(ang)
    sweep = lambda radial, axial: np.stack(np.broadcast_arrays(
        radial[:, None] * cos_t, radial[:, None] * sin_t, axial[:, None]), axis=-1)
    return ContactElementNet(sweep(p.f, p.h), sweep(p.a, p.b))


__getattr__ = _reference_shim(__name__)   # perfbench's TRACED names (see ``cknet``)
