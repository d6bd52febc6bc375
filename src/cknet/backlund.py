"""Backlund transforms of K = -1 rotational nets in the normal Lax form.

A single transform with real angle parameter alpha moves every contact
element by the fixed distance |sin alpha| while tilting the normal by
the fixed angle alpha; it is driven by a scalar field s~ satisfying
Moebius recurrences

    s~(j+1, k) = A(j) . s~(j, k),      s~(j, k+1) = B(j) . s~(j, k),

whose coefficient matrices A, B (and C, D for the companion field s^ at
angle beta) are built from the normal-form scalars.  The field is
explicit: in the eigen-coordinate u = (s~ - zeta_r) / (zeta_a - s~) of
the fixed points of B(j), B(j) multiplies u by rho and A(j) by c(j), so
log u(j, k) = log u(0, 0) + sum_{i<j} log c(i) + k log rho, one
broadcast where iterating the maps is ill-posed (for real alpha the
field runs onto the repelling fixed point of B(j)).  The new frame is
W Phi (or V Phi) with

    W = [[cot(a/2) s~/s,  i e^t], [i e^t,  cot(a/2) s/s~]],
    V = [[1, i e^{-t} tan(b/2) s^ s], [i e^{-t} tan(b/2)/(s^ s), 1]].

Composing a pair with beta = -alpha and real sin(alpha) produces a real
net even for complex alpha = +-pi/2 + i y (then |sin alpha| > 1 and the
two scalar fields must be seeded as complex conjugates).  Periodicity in
the rotation direction is controlled by the eigenvalue ratio rho of B:
the transform closes after N0 steps when B^{N0} is proportional to the
identity, that is when rho = e^{2 pi i p / N0}, or

    tr(B)^2 / det(B) = 2 + 2 cos(2 pi p / N0).

Both sides depend on alpha only through S = sin(alpha)^2, and the left
is a Moebius function of S, so the condition is solved in closed form:
a root 0 < S <= 1 is a real angle, a root S > 1 the angle
pi/2 + i arccosh(sqrt(S)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quat
from .connect import HsLaxData, lax_jet
from .errors import (BranchFailure, ConfigError, NoRoot, PathInconsistent,
                     PoleHit, RealityViolated)
from .lattice import FrameFamily, MatJet
from .nets import ContactElementNet, sym, sym_arrays


@dataclass(frozen=True)
class BacklundParams:
    """Angle parameters and scalar seeds of a (double) Backlund transform.

    beta defaults to -alpha; s_hat0 defaults to 1 for real alpha and to
    conj(s_tilde0) when |sin alpha| > 1 (the reality condition of the
    double transform).
    """

    alpha: complex
    beta: Optional[complex] = None
    s_tilde0: complex = 1.0 + 0.0j
    s_hat0: Optional[complex] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.beta is None:
            object.__setattr__(self, "beta", -self.alpha)
        else:
            object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "s_tilde0", complex(self.s_tilde0))
        for name in ("alpha", "beta", "s_tilde0", "s_hat0"):
            value = getattr(self, name)
            if value is not None and not cmath.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.s_hat0 is None:
            if abs(np.sin(self.alpha)) > 1.0 and abs(np.sin(self.alpha).imag) < 1e-12:
                object.__setattr__(self, "s_hat0", np.conj(self.s_tilde0))
            else:
                object.__setattr__(self, "s_hat0", 1.0 + 0.0j)
        else:
            object.__setattr__(self, "s_hat0", complex(self.s_hat0))


def _require_real_angle(alpha: complex) -> float:
    if abs(alpha.imag) > 1e-12:
        raise ConfigError(f"single transform needs a real angle, got {alpha}")
    a = float(alpha.real)
    if not (0.0 < abs(a) < np.pi):
        raise ConfigError(f"angle must lie in (-pi,0) or (0,pi), got {a}")
    return a


# ---------------------------------------------------------------------------
# Moebius machinery


def moebius(mat, z):
    """Moebius action (m11 z + m12) / (m21 z + m22); PoleHit near the pole."""
    den = mat[1, 0] * z + mat[1, 1]
    if abs(den) < 1e-14:
        raise PoleHit(f"Moebius denominator vanished at z = {z}")
    return (mat[0, 0] * z + mat[0, 1]) / den


def _entries(x, w, t, angle, hat: bool = False):
    """Entries (e11, e12, e21, e22) of one recurrence matrix, broadcast over all inputs.

    (x, w, t) is (u, ell, tan(delta1/2)) along j or (s, m, tan(delta2/2))
    along k; hat selects the V form (C, D) at angle beta, whose matrix is
    the adjugate of the W form's (A, B) at the same angle.
    """
    sa, ca = np.sin(angle), np.cos(angle)
    inv = 1.0 / x
    diag1 = sa * (x / t + t / x) / w
    diag2 = sa * w * (1.0 / (x * t) + x * t)
    off1 = (inv - x) * ca
    off2 = (x - inv) * ca
    if hat:
        return diag2, off2 + x + inv, off1 + x + inv, diag1
    return diag1, off1 - x - inv, off2 - x - inv, diag2


def _matrices(x, w, t, angle, hat: bool = False) -> np.ndarray:
    """The entries of ``_entries`` packed into matrices of shape (..., 2, 2)."""
    return quat.matrix(*_entries(x, w, t, angle, hat))


def build_abcd(hs: HsLaxData, alpha: complex, beta: Optional[complex] = None):
    """Coefficient matrices of the scalar recurrences, per profile edge/column.

    A (shape (nj-1, 2, 2)) and B (shape (nj, 2, 2)) propagate s~ along j
    and k for the W transform with angle alpha; C and D do the same for
    the V transform with angle beta (default -alpha).  All four are
    independent of the spectral parameter.
    """
    if beta is None:
        beta = -alpha
    t1 = np.tan(hs.delta1 / 2.0)
    t2 = np.tan(hs.delta2 / 2.0)
    return (_matrices(hs.u, hs.ell, t1, alpha), _matrices(hs.s, hs.m, t2, alpha),
            _matrices(hs.u, hs.ell, t1, beta, hat=True), _matrices(hs.s, hs.m, t2, beta, hat=True))


def _fixed_points(M: np.ndarray):
    """Fixed points q / m21 and -m12 / q of each map in a stack (n, 2, 2): the roots of
    m21 z^2 - (m11 - m22) z - m12 = 0, formed without cancellation."""
    d = M[:, 0, 0] - M[:, 1, 1]
    root = np.sqrt(d * d + 4.0 * M[:, 0, 1] * M[:, 1, 0])
    q = (d + np.where((d.conjugate() * root).real >= 0.0, root, -root)) / 2.0
    return q / M[:, 1, 0], -M[:, 0, 1] / q


def _chordal_step(M: np.ndarray, z: np.ndarray, target: np.ndarray) -> float:
    """Largest chordal distance between M . z and target over the rows of M; finite
    at the pole of M."""
    num, den = (M[:, i, 0, None] * z + M[:, i, 1, None] for i in (0, 1))
    norm = np.hypot(np.abs(num), np.abs(den))
    norm *= np.hypot(1.0, np.abs(target))
    den *= target
    num -= den
    return 2.0 * np.max(np.abs(num) / norm, initial=0.0)


def _recurrences(hs: HsLaxData, alpha: complex, which: str, beta: Optional[complex]):
    """The pair (A, B) of the s~ field (which="tilde") or (C, D) of the s^ field."""
    if which not in ("tilde", "hat"):
        raise ConfigError(f"which must be 'tilde' or 'hat', got {which!r}")
    A, B, C, D = build_abcd(hs, alpha, beta)
    return (A, B) if which == "tilde" else (C, D)


def linearize(hs: HsLaxData, alpha: complex, which: str = "tilde",
              beta: Optional[complex] = None):
    """Per-row linear form (zeta_r, zeta_a, rho, log_c) of the recurrences of one field.

    zeta_r, zeta_a are the fixed points of B(j) (D(j) for which="hat"),
    paired through A: zeta_r(j+1) is the one nearer A(j) . zeta_r(j), since
    modulus cannot tell them apart when |rho| = 1.  rho(j) = lambda_a /
    lambda_r is the ratio of the eigenvalues m21 zeta + m22, and log_c(j)
    sums log c(i) over i < j, c(i) being the multiplier of A(i) between
    the eigen-coordinates of rows i and i+1.
    """
    return _linear_form(*_recurrences(hs, alpha, which, beta))


def _linear_form(Aj: np.ndarray, Bj: np.ndarray):
    """``linearize`` for the recurrence matrices A(j), B(j) of one field."""
    with np.errstate(divide="ignore", invalid="ignore"):   # checked by the field residuals
        z1, z2 = _fixed_points(Bj)
        lam1, lam2 = (Bj[:, 1, 0] * z + Bj[:, 1, 1] for z in (z1, z2))
        image = (Aj[:, 0, 0] * z1[:-1] + Aj[:, 0, 1]) / (Aj[:, 1, 0] * z1[:-1] + Aj[:, 1, 1])
        crossed = np.abs(image - z1[1:]) > np.abs(image - z2[1:])
        # row 0 names the repelling fixed point zeta_r; A carries the names on
        flip = np.cumsum(np.concatenate(([abs(lam1[0]) > abs(lam2[0])], crossed))) % 2 == 1
        zr, za = np.where(flip, z2, z1), np.where(flip, z1, z2)
        rho = np.where(flip, lam1 / lam2, lam2 / lam1)
        mu_r, mu_a = (Aj[:, 1, 0] * z[:-1] + Aj[:, 1, 1] for z in (zr, za))
        log_c = np.concatenate(([0.0], np.cumsum(np.log(mu_a / mu_r))))
    return zr, za, rho, log_c


def propagate(hs: HsLaxData, alpha: complex, seed: complex, which: str = "tilde",
              beta: Optional[complex] = None) -> np.ndarray:
    """Scalar field of a transform on the whole grid from its corner seed, in closed form.

    log u(j, k) = log u(0, 0) + log_c(j) + k log rho, with log rho the row
    mean (A(j) conjugates B(j) to B(j+1); one value keeps the A-residual
    from growing with k).  A value within the residual tolerance of
    infinity (|s| >= 2e11, chordal distance <= 1e-11) is PoleHit.  Both
    recurrences must hold to 1e-11 in the chordal metric: if not, fixed
    points within 0.05 make it BranchFailure (near-parabolic), and any
    other failing or non-finite residual PathInconsistent.
    """
    Aj, Bj = _recurrences(hs, alpha, which, beta)
    zr, za, rho, log_c = _linear_form(Aj, Bj)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # checked below
        w = (np.log(seed - zr[0]) - np.log(za[0] - seed) + log_c[:, None]
             + np.arange(hs.domain.nk) * (np.log(rho[0]) + np.mean(np.log(rho / rho[0]))))
        # w = u or 1/u with |w| <= 1, then s = p + (q - p) w / (1 + w) for (p, q) = (zeta_r,
        # zeta_a), swapped where u was inverted; in place, as it sets the peak memory
        outer = w.real > 0.0
        np.negative(w, out=w, where=outer)
        np.exp(w, out=w)
        w /= 1.0 + w
        w *= np.where(outer, (zr - za)[:, None], (za - zr)[:, None])
        s = np.where(outer, za[:, None], zr[:, None])
        s += w
        del w
        s[0, 0] = seed
        worst = np.maximum(_chordal_step(Aj, s[:-1], s[1:]), _chordal_step(Bj, s[:, :-1], s[:, 1:]))
        gap = np.min(np.abs(za - zr))
        poles = np.argwhere(np.abs(s) >= 2e11)
    if poles.size:
        raise PoleHit(f"scalar field reaches infinity at (j, k) = ({poles[0][0]}, {poles[0][1]})")
    if not (worst <= 1e-11):
        if not (gap >= 0.05):
            raise BranchFailure(f"rotation recurrence is near-parabolic: min |zeta_a - zeta_r| = "
                                f"{gap:.3e}, field residual {worst:.3e}")
        raise PathInconsistent(f"recurrence residual of the field is {worst:.3e} (tol 1.0e-11)")
    return s


# ---------------------------------------------------------------------------
# frame transforms


def single_backlund(frames: FrameFamily, hs: HsLaxData, params: BacklundParams,
                    which: str = "tilde") -> ContactElementNet:
    """Single Backlund transform of the net framed by ``frames``.

    Real angle only: params.alpha for the W form ("tilde"), params.beta
    for the V form ("hat").  Seeds must be unit scalars.
    """
    angle = params.alpha if which == "tilde" else params.beta
    seed = params.s_tilde0 if which == "tilde" else params.s_hat0
    a = _require_real_angle(complex(angle))
    if abs(abs(seed) - 1.0) > 1e-10:
        raise ConfigError(f"a real-angle transform needs a unit seed, got |seed| = {abs(seed):.6g}")
    s_grid = propagate(hs, params.alpha, seed, which, beta=params.beta)
    if which == "tilde":
        cot, ratio, c = 1.0 / np.tan(a / 2.0), s_grid / hs.s[:, None], 1j * np.exp(frames.t0)
        val, dot = quat.matrix(cot * ratio, c, c, cot / ratio), quat.matrix(0.0, c, c, 0.0)
    else:
        c, prod = 1j * np.exp(-frames.t0) * np.tan(a / 2.0), s_grid * hs.s[:, None]
        val = quat.matrix(1.0, c * prod, c / prod, 1.0)
        dot = quat.matrix(0.0, -c * prod, -c / prod, 0.0)
    return sym(frames, 2.0, 0.0, MatJet(val, np.broadcast_to(dot, val.shape)))


def transform_residuals(base: ContactElementNet, new: ContactElementNet, alpha: float):
    """Worst deviations of a real-angle transform from its defining geometry:
    distance |sin alpha|, normal angle alpha, and edge orthogonality to both normals."""
    dx = new.x - base.x
    dist = np.abs(np.linalg.norm(dx, axis=-1) - abs(np.sin(alpha)))
    ang = np.abs(np.einsum("...i,...i->...", base.n, new.n) - np.cos(alpha))
    orth = np.maximum(np.abs(np.einsum("...i,...i->...", dx, base.n)),
                      np.abs(np.einsum("...i,...i->...", dx, new.n)))
    return float(np.max(dist)), float(np.max(ang)), float(np.max(orth))


# ---------------------------------------------------------------------------
# double transforms


@dataclass(frozen=True)
class DoubleReport:
    """Scalar fields and reality/unitarity residues of a double transform."""

    imag_residue: float
    unit_residual: float
    s_tilde: np.ndarray
    s_hat: np.ndarray
    shat_tilde: np.ndarray


def _check_condition_c(params: BacklundParams) -> None:
    if abs(params.beta + params.alpha) > 1e-12:
        raise ConfigError("double transform requires beta = -alpha")
    sa = np.sin(params.alpha)
    if abs(sa.imag) > 1e-12:
        raise ConfigError(f"double transform requires real sin(alpha), got sin = {sa}")
    if abs(sa.real) <= 1.0:
        for name, seed in (("s_tilde0", params.s_tilde0), ("s_hat0", params.s_hat0)):
            if abs(abs(seed) - 1.0) > 1e-10:
                raise ConfigError(f"|sin alpha| <= 1 requires unit seed {name}")
    else:
        if abs(params.s_hat0 - np.conj(params.s_tilde0)) > 1e-12:
            raise ConfigError("|sin alpha| > 1 requires conjugate seeds s_hat0 = conj(s_tilde0)")


def double_backlund(frames: FrameFamily, hs: HsLaxData, params: BacklundParams):
    """Double Backlund transform with beta = -alpha and real sin(alpha).

    Returns (ContactElementNet, DoubleReport).  The composed scalar field

        s^~ = (s^ s~ - tan^2(a/2)) / (s (1 - tan^2(a/2) s^ s~))

    feeds the closed-form product frame; its coordinates must come out
    real (RealityViolated beyond 1e-6 says the seeds and angle are
    inconsistent).  When |sin alpha| > 1 the seeds are conjugate and so are
    the fields, s^ = conj(s~), which is taken as such rather than propagated.
    """
    _check_condition_c(params)
    alpha = params.alpha
    s_tilde = propagate(hs, alpha, params.s_tilde0, "tilde", beta=params.beta)
    s_hat = (np.conj(s_tilde) if abs(np.sin(alpha).real) > 1.0
             else propagate(hs, alpha, params.s_hat0, "hat", beta=params.beta))
    tn = np.tan(alpha / 2.0)
    tn2 = tn ** 2
    s_col = hs.s[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # checked below
        den = 1.0 - tn2 * s_hat * s_tilde
        shat_tilde = (s_hat * s_tilde - tn2) / (s_col * den)
    if not (np.min(np.abs(den)) >= 1e-14):
        raise PoleHit("composed scalar field hit a pole")
    if not np.all(np.isfinite(shat_tilde) & (shat_tilde != 0)):
        raise PoleHit("composed scalar field is non-finite or zero")
    unit_residual = float(np.max(np.abs(np.abs(shat_tilde) - 1.0)))
    cot = 1.0 / tn
    VW = lax_jet(s_tilde * (cot / s_col + tn * shat_tilde),
                 (cot * s_col + tn / shat_tilde) / s_tilde, s_col * shat_tilde, frames.t0)
    x, n = sym_arrays(frames, 2.0, 0.0, VW)
    imag_residue = float(np.maximum(np.max(np.abs(x.imag)), np.max(np.abs(n.imag))))
    if not (imag_residue <= 1e-6):
        raise RealityViolated(f"double transform left R^3 (residue {imag_residue:.3e})")
    net = ContactElementNet(x.real, n.real)
    return net, DoubleReport(imag_residue, unit_residual, s_tilde, s_hat, shat_tilde)


# ---------------------------------------------------------------------------
# rotational periodicity


@dataclass(frozen=True)
class PeriodicAlpha:
    """Root of the periodicity condition: angle, phase index, power residual.

    alpha is real when the recurrence closes for an ordinary transform
    angle; otherwise it lies on the line pi/2 + iy (real sin alpha with
    |sin alpha| > 1), where only the double transform yields a real net.
    """

    alpha: complex
    p: int
    residual: float


def _power_residual(mat: np.ndarray, N0: int) -> float:
    """Entrywise distance of the unit-determinant N0-th power from +-identity; inf if it diverges."""
    d = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    hat = mat / np.sqrt(d)
    eye = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.linalg.matrix_power(hat, N0)
        r = float(min(np.max(np.abs(P - eye)), np.max(np.abs(P + eye))))
    return r if np.isfinite(r) else np.inf


_Y_MAX = 8.0   # largest y of a root alpha = pi/2 + iy


def find_periodic_alpha(hs: HsLaxData, N0: int, p: Optional[int] = None) -> PeriodicAlpha:
    """Transform angle whose rotational recurrence closes after N0 steps, in closed form.

    B = B[0] closes when its eigenvalue ratio is e^{2 pi i p / N0}, that is
    tr(B)^2 / det(B) = c with c = 2 + 2 cos(2 pi p / N0).  With x = s(0),
    w = m(0), tau = tan(delta2/2) and S = sin(alpha)^2, tr(B)^2 = S P^2 and
    det(B) = S Q - 4 for

        P = (x/tau + tau/x) / w + w (1/(x tau) + x tau),
        Q = (x/tau + tau/x) (1/(x tau) + x tau) - (1/x - x)^2,

    so S = 4c / (cQ - P^2).  0 < S <= 1 gives the real root
    alpha = arcsin(sqrt(S)) in (0, pi/2]; 1 < S < cosh(8)^2 gives
    alpha = pi/2 + i arccosh(sqrt(S)), on the line where sin alpha is real
    and > 1 (the regime where only the double transform is real).  D[0] at
    -alpha is the adjugate form with the same tr^2/det, so the root closes
    both fields.  p defaults to the smallest index coprime to N0 that has a
    root.  The returned residual is the entrywise distance of the
    normalized N0-th power of B[0] from +-identity, at most 1e-9.
    """
    if N0 < 2:
        raise ConfigError(f"need N0 >= 2, got {N0}")
    ps = [p] if p is not None else [q for q in range(1, N0) if math.gcd(q, N0) == 1]
    t2 = np.tan(hs.delta2 / 2.0)
    x, w, tau = complex(hs.s[0]), complex(hs.m[0]), complex(t2)
    a, b = x / tau + tau / x, 1.0 / (x * tau) + x * tau
    P = a / w + w * b
    Q = a * b - (1.0 / x - x) * (1.0 / x - x)
    for p_try in ps:
        c = 2.0 + 2.0 * math.cos(2.0 * math.pi * p_try / N0)
        den = c * Q - P * P
        S = (4.0 * c / den).real if den != 0 else 0.0
        if 0.0 < S <= 1.0:
            alpha = complex(math.asin(math.sqrt(S)))
        elif 1.0 < S < math.cosh(_Y_MAX) ** 2:
            alpha = complex(math.pi / 2.0, math.acosh(math.sqrt(S)))
        else:
            continue
        # full rows, so the matrix is bit for bit the one build_abcd returns
        residual = _power_residual(_matrices(hs.s, hs.m, t2, alpha)[0], N0)
        if residual <= 1e-9:
            return PeriodicAlpha(alpha, int(p_try), residual)
    raise NoRoot(f"no transform angle (real, or on the line pi/2 + iy with y < {_Y_MAX:g}) "
                 f"closes the recurrence after {N0} steps for phase indices {ps}")
