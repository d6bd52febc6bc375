"""Backlund transforms of K = -1 rotational nets in the normal Lax form.

A single transform with real angle parameter alpha moves every contact
element by the fixed distance |sin alpha| while tilting the normal by
the fixed angle alpha; it is driven by a unit scalar field s~ satisfying
Moebius recurrences

    s~(j+1, k) = A(j) . s~(j, k),      s~(j, k+1) = B(j) . s~(j, k),

whose coefficient matrices A, B (and C, D for the companion transform
with angle beta) are built from the normal-form scalars.  The new frame
is W Phi (or V Phi) with

    W = [[cot(a/2) s~/s,  i e^t], [i e^t,  cot(a/2) s/s~]],
    V = [[1, i e^{-t} tan(b/2) s^ s], [i e^{-t} tan(b/2)/(s^ s), 1]].

Composing a pair with beta = -alpha and real sin(alpha) produces a real
net even for complex alpha = +-pi/2 + i y (then |sin alpha| > 1 and the
two scalar fields must be seeded as complex conjugates).  Periodicity in
the rotation direction is controlled by the eigenvalue ratio of B: the
transform closes after N0 steps when B^{N0} is proportional to the
identity, that is when the ratio is e^{2 pi i p / N0}, or

    tr(B)^2 / det(B) = 2 + 2 cos(2 pi p / N0),

a real equation in alpha solved by a one-parameter root search.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .connect import HsLaxData
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
    e = _entries(x, w, t, angle, hat)
    out = np.empty(np.broadcast(*e).shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = e
    return out


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


def propagate(hs: HsLaxData, alpha: complex, seed: complex, which: str = "tilde",
              beta: Optional[complex] = None, path_tol: float = 1e-10) -> np.ndarray:
    """Scalar field of a transform on the whole grid from its corner seed.

    Fills the first column along j, then steps every profile row along k
    at once (B_j is constant along k), then verifies the remaining
    j-edges (the two recurrences commute on consistent data): a
    vanishing denominator anywhere raises PoleHit, then deviations
    beyond path_tol, or non-finite ones, raise PathInconsistent.
    """
    A, B, C, D = build_abcd(hs, alpha, beta)
    if which == "tilde":
        Aj, Bj = A, B
    elif which == "hat":
        Aj, Bj = C, D
    else:
        raise ConfigError(f"which must be 'tilde' or 'hat', got {which!r}")
    nj, nk = hs.domain.nj, hs.domain.nk
    s = np.empty((nj, nk), dtype=complex)
    s[0, 0] = seed
    for j in range(nj - 1):
        s[j + 1, 0] = moebius(Aj[j], s[j, 0])
    # Rows 0 and 1 of w are the denominators and numerators of the k-step of
    # every profile row.  The complex products are formed on real and
    # imaginary parts, which round as the scalar product in moebius does;
    # numpy's vectorised complex multiply may differ in the last bit.
    scale, shift = Bj[:, ::-1, 0].T, Bj[:, ::-1, 1].T
    sr, si = scale.real.copy(), scale.imag.copy()
    w = np.empty_like(scale)
    den, num = w
    for k in range(nk - 1):
        z = s[:, k]
        np.subtract(sr * z.real, si * z.imag, out=w.real)
        np.add(sr * z.imag, si * z.real, out=w.imag)
        w += shift
        if np.any(np.abs(den) < 1e-14):
            raise PoleHit(f"Moebius denominator vanished on column {k}")
        np.divide(num, den, out=s[:, k + 1])
    a, rows = Aj[..., None], s[:-1, 1:]
    den = a[:, 1, 0] * rows + a[:, 1, 1]
    poles = np.nonzero(np.any(np.abs(den) < 1e-14, axis=1))[0]
    if poles.size:
        raise PoleHit(f"Moebius denominator vanished on profile row {poles[0]}")
    worst = np.max(np.abs((a[:, 0, 0] * rows + a[:, 0, 1]) / den - s[1:, 1:]), initial=0.0)
    if not (worst <= path_tol):
        raise PathInconsistent(f"recurrence paths disagree by {worst:.3e} (tol {path_tol:.1e})")
    return s


# ---------------------------------------------------------------------------
# frame transforms


def _w_jet(hs: HsLaxData, alpha: complex, s_tilde: np.ndarray, t0: float) -> MatJet:
    cot = 1.0 / np.tan(alpha / 2.0)
    ratio = s_tilde / hs.s[:, None]
    nj, nk = s_tilde.shape
    val = np.empty((nj, nk, 2, 2), dtype=complex)
    dot = np.zeros_like(val)
    et = np.exp(t0)
    val[..., 0, 0] = cot * ratio
    val[..., 1, 1] = cot / ratio
    val[..., 0, 1] = 1j * et
    val[..., 1, 0] = 1j * et
    dot[..., 0, 1] = 1j * et
    dot[..., 1, 0] = 1j * et
    return MatJet(val, dot)


def _v_jet(hs: HsLaxData, beta: complex, s_hat: np.ndarray, t0: float) -> MatJet:
    tn = np.tan(beta / 2.0)
    prod = s_hat * hs.s[:, None]
    nj, nk = s_hat.shape
    val = np.empty((nj, nk, 2, 2), dtype=complex)
    dot = np.zeros_like(val)
    emt = np.exp(-t0)
    val[..., 0, 0] = 1.0
    val[..., 1, 1] = 1.0
    val[..., 0, 1] = 1j * emt * tn * prod
    val[..., 1, 0] = 1j * emt * tn / prod
    dot[..., 0, 1] = -1j * emt * tn * prod
    dot[..., 1, 0] = -1j * emt * tn / prod
    return MatJet(val, dot)


def single_backlund(frames: FrameFamily, hs: HsLaxData, params: BacklundParams,
                    xi: float = 2.0, which: str = "tilde") -> ContactElementNet:
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
        T = _w_jet(hs, a, s_grid, frames.t0)
    else:
        T = _v_jet(hs, a, s_grid, frames.t0)
    new_frames = FrameFamily(frames.domain, T @ frames.Phi, frames.t0)
    return sym(new_frames, xi, 0.0)


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


def double_backlund(frames: FrameFamily, hs: HsLaxData, params: BacklundParams,
                    xi: float = 2.0, reality_tol: float = 1e-6):
    """Double Backlund transform with beta = -alpha and real sin(alpha).

    Returns (ContactElementNet, DoubleReport).  The composed scalar field

        s^~ = (s^ s~ - tan^2(a/2)) / (s (1 - tan^2(a/2) s^ s~))

    feeds the closed-form product frame; its coordinates must come out
    real (RealityViolated beyond reality_tol says the seeds and angle
    are inconsistent).
    """
    _check_condition_c(params)
    alpha = params.alpha
    s_tilde = propagate(hs, alpha, params.s_tilde0, "tilde", beta=params.beta)
    s_hat = propagate(hs, alpha, params.s_hat0, "hat", beta=params.beta)
    tn2 = np.tan(alpha / 2.0) ** 2
    s_col = hs.s[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # checked below
        den = 1.0 - tn2 * s_hat * s_tilde
        shat_tilde = (s_hat * s_tilde - tn2) / (s_col * den)
    if not (np.min(np.abs(den)) >= 1e-14):
        raise PoleHit("composed scalar field hit a pole")
    if not np.all(np.isfinite(shat_tilde) & (shat_tilde != 0)):
        raise PoleHit("composed scalar field is non-finite or zero")
    unit_residual = float(np.max(np.abs(np.abs(shat_tilde) - 1.0)))
    cot = 1.0 / np.tan(alpha / 2.0)
    tn = np.tan(alpha / 2.0)
    et = np.exp(frames.t0)
    emt = np.exp(-frames.t0)
    nj, nk = s_tilde.shape
    val = np.empty((nj, nk, 2, 2), dtype=complex)
    dot = np.zeros_like(val)
    val[..., 0, 0] = s_tilde * (cot / s_col + tn * shat_tilde)
    val[..., 1, 1] = (cot * s_col + tn / shat_tilde) / s_tilde
    val[..., 0, 1] = 1j * (et - emt * s_col * shat_tilde)
    val[..., 1, 0] = 1j * (et - emt / (s_col * shat_tilde))
    dot[..., 0, 1] = 1j * (et + emt * s_col * shat_tilde)
    dot[..., 1, 0] = 1j * (et + emt / (s_col * shat_tilde))
    VW = MatJet(val, dot)
    new_frames = FrameFamily(frames.domain, VW @ frames.Phi, frames.t0)
    x, n = sym_arrays(new_frames, xi, 0.0)
    imag_residue = float(np.maximum(np.max(np.abs(x.imag)), np.max(np.abs(n.imag))))
    if not (imag_residue <= reality_tol):
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


def _rotation_phase(hs: HsLaxData, alpha, which: str):
    """Folded eigenphase |arg(lam1/lam2)| in [0, pi] of B[0] (or D[0]), broadcast over alpha.

    A 2x2 matrix with eigenvalue ratio e^{i phi} has tr^2/det = 2 + 2 cos(phi);
    real eigenvalues fold to 0 (same sign) or pi (opposite signs).
    """
    hat = which == "D"
    e11, e12, e21, e22 = _entries(hs.s[0], hs.m[0], np.tan(hs.delta2 / 2.0),
                                  -alpha if hat else alpha, hat)
    tr = e11 + e22
    return np.arccos(np.clip((tr * tr / (e11 * e22 - e12 * e21)).real / 2.0 - 1.0, -1.0, 1.0))


def _power_residual(mat: np.ndarray, N0: int) -> float:
    """Entrywise distance of the unit-determinant N0-th power from +-identity; inf if it diverges."""
    d = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    hat = mat / np.sqrt(d)
    eye = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        P = np.linalg.matrix_power(hat, N0)
        r = float(min(np.max(np.abs(P - eye)), np.max(np.abs(P + eye))))
    return r if np.isfinite(r) else np.inf


def find_periodic_alpha(hs: HsLaxData, N0: int, p: Optional[int] = None,
                        which: str = "B", n_scan: int = 720,
                        phase_tol: float = 1e-12, verify_tol: float = 1e-9,
                        y_max: float = 8.0) -> PeriodicAlpha:
    """Transform angle whose rotational recurrence closes after N0 steps.

    Solves tr(M)^2 / det(M) = 2 + 2 cos(2 pi p / N0) for M = B[0] (or D[0]),
    i.e. eigenvalue ratio e^{2 pi i p / N0}, on the folded phase
    arccos(Re(tr^2/det)/2 - 1): one vectorised scan per path, then
    bisection, first for alpha on the real interval (0, pi) and then along
    the line pi/2 + iy where sin alpha is real and > 1 (the regime where
    only the double transform is real); p defaults to the smallest index
    coprime to N0 whose phase the scan reaches.  The returned residual is
    the entrywise distance of the normalized N0-th power from +-identity,
    verified against verify_tol.
    """
    if N0 < 2:
        raise ConfigError(f"need N0 >= 2, got {N0}")
    if which not in ("B", "D"):
        raise ConfigError(f"which must be 'B' or 'D', got {which!r}")
    ps = [p] if p is not None else [q for q in range(1, N0) if gcd(q, N0) == 1]
    paths = (
        lambda sigma: sigma + 0j,
        lambda sigma: np.pi / 2.0 + 1j * sigma * (y_max / np.pi),
    )
    grid = np.linspace(1e-6, np.pi - 1e-6, n_scan)
    phase_rows = [_rotation_phase(hs, path(grid), which) for path in paths]
    for p_try in ps:
        target = (2.0 * np.pi * p_try / N0) % (2.0 * np.pi)
        target = min(target, 2.0 * np.pi - target)
        for path, phases in zip(paths, phase_rows):
            f = phases - target
            for i in np.nonzero(f[:-1] * f[1:] <= 0.0)[0]:
                lo, hi = grid[int(i)], grid[int(i) + 1]
                flo = f[int(i)]
                for _ in range(200):
                    mid = (lo + hi) / 2.0
                    fm = _rotation_phase(hs, path(mid), which) - target
                    if abs(fm) < phase_tol or hi - lo < 1e-15:
                        lo = hi = mid
                        break
                    if flo * fm <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                alpha = path((lo + hi) / 2.0)
                if abs(alpha.imag) < 1e-12:
                    alpha = complex(alpha.real)
                # full rows, so the matrix is bit for bit the one build_abcd returns
                mat = _matrices(hs.s, hs.m, np.tan(hs.delta2 / 2.0),
                                -alpha if which == "D" else alpha, which == "D")[0]
                residual = _power_residual(mat, N0)
                if residual <= verify_tol:
                    return PeriodicAlpha(alpha, int(p_try), residual)
    raise NoRoot(f"no transform angle (real, or on the line pi/2 + iy with y < {y_max:g}) "
                 f"closes the recurrence after {N0} steps for phase indices {ps}")


# ---------------------------------------------------------------------------
# linear form of the recurrence


def linearize(hs: HsLaxData, params: BacklundParams, zeta_seed: Optional[complex] = None,
              pole_tol: float = 1e-14) -> np.ndarray:
    """Scalar field of the W transform via the linearized recurrence.

    Substituting S = 1/(s~ - zeta) with zeta a Moebius fixed point of B
    turns both recurrences affine:

        S(j+1,k) = (A21 zeta + A22)^2/det(A) S(j,k) + A21 (A21 zeta + A22)/det(A),

    and likewise with B along k; zeta propagates as zeta(j+1) = A(j).zeta(j)
    and is invariant along k.  Returns the reconstructed s~ grid.
    """
    A, B, _, _ = build_abcd(hs, params.alpha, params.beta)
    B0 = B[0]
    if abs(B0[1, 0]) < 1e-14:
        if abs(B0[1, 1] - B0[0, 0]) < 1e-14:
            raise BranchFailure("rotation recurrence at the base column is a pure translation")
        roots = [B0[0, 1] / (B0[1, 1] - B0[0, 0])]
    else:
        disc = np.sqrt((B0[1, 1] - B0[0, 0]) ** 2 + 4.0 * B0[1, 0] * B0[0, 1])
        roots = [((B0[0, 0] - B0[1, 1]) + disc) / (2.0 * B0[1, 0]),
                 ((B0[0, 0] - B0[1, 1]) - disc) / (2.0 * B0[1, 0])]
    if zeta_seed is None:
        lams = [B0[1, 0] * z + B0[1, 1] for z in roots]
        order = sorted(range(len(roots)),
                       key=lambda i: (-abs(lams[i]), round(roots[i].real, 12), round(roots[i].imag, 12)))
        zeta = roots[order[0]]
    else:
        zeta = complex(zeta_seed)
        resid = abs(B0[1, 0] * zeta * zeta + (B0[1, 1] - B0[0, 0]) * zeta - B0[0, 1])
        if resid > 1e-8 * max(1.0, np.max(np.abs(B0))):
            raise ConfigError(f"zeta_seed is not a fixed point of the base recurrence "
                              f"(residual {resid:.3e})")
    nj, nk = hs.domain.nj, hs.domain.nk
    if abs(params.s_tilde0 - zeta) < pole_tol:
        raise PoleHit("seed coincides with the recurrence fixed point")
    zetas = np.empty(nj, dtype=complex)
    zetas[0] = zeta
    for j in range(nj - 1):
        zetas[j + 1] = moebius(A[j], zetas[j])
    S = np.empty((nj, nk), dtype=complex)
    S[0, 0] = 1.0 / (params.s_tilde0 - zeta)
    for j in range(nj - 1):
        den = A[j][1, 0] * zetas[j] + A[j][1, 1]
        detA = A[j][0, 0] * A[j][1, 1] - A[j][0, 1] * A[j][1, 0]
        S[j + 1, 0] = (den * den / detA) * S[j, 0] + A[j][1, 0] * den / detA
    for j in range(nj):
        den = B[j][1, 0] * zetas[j] + B[j][1, 1]
        detB = B[j][0, 0] * B[j][1, 1] - B[j][0, 1] * B[j][1, 0]
        slope = den * den / detB
        offset = B[j][1, 0] * den / detB
        for k in range(nk - 1):
            S[j, k + 1] = slope * S[j, k] + offset
    if np.min(np.abs(S)) < pole_tol:
        raise PoleHit("linearized field hit a pole of the reconstruction")
    return 1.0 / S + zetas[:, None]
