"""Backlund transforms of K = -1 rotational nets in the normal Lax form.

A single transform with real angle parameter alpha moves every contact
element by the fixed distance |sin alpha| while tilting the normal by
the fixed angle alpha; it is driven by a scalar field s~ satisfying
Moebius recurrences

    s~(j+1, k) = A(j) . s~(j, k),      s~(j, k+1) = B(j) . s~(j, k),

whose coefficient matrices A, B are built from the normal-form scalars
at the angle alpha.  The field is explicit: in the eigen-coordinate
u = (s~ - zeta_r) / (zeta_a - s~) of the fixed points of B(j), B(j)
multiplies u by rho and A(j) by c(j), so
log u(j, k) = log u(0, 0) + sum_{i<j} log c(i) + k log rho, one
broadcast where iterating the maps is ill-posed (for real alpha the
field runs onto the repelling fixed point of B(j)).  The transforms
form each field one block of profile rows at a time, inside the Sym
pass, with the checks of the whole grid split over the blocks; should
the pass stop, the whole-grid field raises its error first.  The single
transform's new frame is W Phi with

    W = [[cot(a/2) s~/s,  i e^t], [i e^t,  cot(a/2) s/s~]].

A double transform composes W at alpha with the V form at beta = -alpha,

    V = [[1, i e^{-t} tan(b/2) s^ s], [i e^{-t} tan(b/2)/(s^ s), 1]],

whose scalar field s^ steps by the adjugates adj A(beta), adj B(beta):
the Moebius map of adj M is that of M^{-1}, so one field construction
serves both.  With real sin(alpha) the composed net is real even for
complex alpha = +-pi/2 + i y (then |sin alpha| > 1 and the two fields
are complex conjugates).

Neither transform forms a frame: the Sym formula of T Phi (T = W or VW)
is evaluated in the explicit gauged frame E0 = sin phi e_mer - cos phi
e_par, E1 = -cos phi e_mer - sin phi e_par, n with e^{i phi_j} = sigma_j /
s_j (``nets`` derives it), in the frame ``cknet generate`` writes; moved by
the initial frame's rigid motion it matches frames + Sym within 9.7e-13 on
121 x 2000.  Periodicity in the rotation direction is controlled by the
eigenvalue ratio rho of B: the transform closes after N0 steps when
B^{N0} is proportional to the identity, that is when rho = e^{2 pi i p / N0}, or

    tr(B)^2 / det(B) = 2 + 2 cos(2 pi p / N0).

Both sides depend on alpha only through S = sin(alpha)^2, and the left
is a Moebius function of S, so the condition is solved in closed form:
a root 0 < S <= 1 is a real angle, a root S > 1 the angle
pi/2 + i arccosh(sqrt(S)).

Each transform takes its angle and seeds as arguments and checks them
itself, so a NaN or infinite one is refused: the single transform needs
a real angle and a unit seed, the double transform real sin(alpha) and
unit seeds when |sin alpha| <= 1, conjugate seeds when |sin alpha| > 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quat
from .connect import HsLaxData, lax_entries
from .errors import BranchFailure, ConfigError, NoRoot, PathInconsistent, PoleHit
from .nets import ContactElementNet, explicit_sym


def _require_real_angle(alpha: complex) -> float:
    if not abs(alpha.imag) <= 1e-12:
        raise ConfigError(f"transform angle {alpha} is not real; only the double transform "
                          "produces a real net there (use the 'double' command)")
    a = float(alpha.real)
    if not (0.0 < abs(a) < np.pi):
        raise ConfigError(f"angle must lie in (-pi,0) or (0,pi), got {a}")
    return a


def _require_unit_seed(name: str, seed: complex) -> None:
    if not abs(abs(seed) - 1.0) <= 1e-10:
        raise ConfigError(f"|sin alpha| <= 1 requires a unit seed {name}, got |{name}| = {abs(seed):.6g}")


# ---------------------------------------------------------------------------
# Moebius machinery


def moebius(mat, z):
    """Moebius action (m11 z + m12) / (m21 z + m22); PoleHit near the pole."""
    den = mat[1, 0] * z + mat[1, 1]
    if abs(den) < 1e-14:
        raise PoleHit(f"Moebius denominator vanished at z = {z}")
    return (mat[0, 0] * z + mat[0, 1]) / den


def _matrices(x, w, t, angle) -> np.ndarray:
    """Recurrence matrices (..., 2, 2) of the W form at ``angle``, broadcast over all inputs.

    (x, w, t) is (u, ell, tan(delta1/2)) along j or (s, m, tan(delta2/2))
    along k.
    """
    sa, ca = np.sin(angle), np.cos(angle)
    inv = 1.0 / x
    return quat.matrix(sa * (x / t + t / x) / w, (inv - x) * ca - x - inv,
                       (x - inv) * ca - x - inv, sa * w * (1.0 / (x * t) + x * t))


def build_abcd(hs: HsLaxData, angle: complex):
    """Recurrence matrices A (shape (nj-1, 2, 2)) along j and B (shape (nj, 2, 2)) along k
    of the W field at ``angle``; the V field at beta steps by their adjugates at beta.
    Both are independent of the spectral parameter."""
    return (_matrices(hs.u, hs.ell, np.tan(hs.delta1 / 2.0), angle),
            _matrices(hs.s, hs.m, np.tan(hs.delta2 / 2.0), angle))


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
    norm = np.abs(num)   # real planes are reused: at most two exist beside num and den
    np.hypot(norm, np.abs(den), out=norm)
    scale = np.abs(target)
    norm *= np.hypot(1.0, scale, out=scale)
    den *= target
    num -= den
    return 2.0 * np.max(np.divide(np.abs(num, out=scale), norm, out=scale), initial=0.0)


def linearize(A: np.ndarray, B: np.ndarray):
    """Per-row linear form (zeta_r, zeta_a, rho, log_c) of the field stepped by A(j) along j
    and B(j) along k.

    zeta_r, zeta_a are the fixed points of B(j), paired through A:
    zeta_r(j+1) is the one nearer A(j) . zeta_r(j), since modulus cannot
    tell them apart when |rho| = 1.  rho(j) = lambda_a / lambda_r is the
    ratio of the eigenvalues m21 zeta + m22, and log_c(j) sums log c(i)
    over i < j, c(i) being the multiplier of A(i) between the
    eigen-coordinates of rows i and i+1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):   # checked by the field residuals
        z1, z2 = _fixed_points(B)
        lam1, lam2 = (B[:, 1, 0] * z + B[:, 1, 1] for z in (z1, z2))
        image = (A[:, 0, 0] * z1[:-1] + A[:, 0, 1]) / (A[:, 1, 0] * z1[:-1] + A[:, 1, 1])
        crossed = np.abs(image - z1[1:]) > np.abs(image - z2[1:])
        # row 0 names the repelling fixed point zeta_r; A carries the names on
        flip = np.cumsum(np.concatenate(([abs(lam1[0]) > abs(lam2[0])], crossed))) % 2 == 1
        zr, za = np.where(flip, z2, z1), np.where(flip, z1, z2)
        rho = np.where(flip, lam1 / lam2, lam2 / lam1)
        mu_r, mu_a = (A[:, 1, 0] * z[:-1] + A[:, 1, 1] for z in (zr, za))
        log_c = np.concatenate(([0.0], np.cumsum(np.log(mu_a / mu_r))))
    return zr, za, rho, log_c


def _field(A: np.ndarray, B: np.ndarray, seed: complex, nk: int):
    """``propagate``'s field on the (len(B), nk) grid as ``block(rows)``: s on each block of
    profile rows in turn (``slice(None)``: all), checked, with the A-step into its first row
    from a copy of the previous block's last row.  It raises as ``propagate`` does, but of its
    own rows only."""
    zr, za, rho, log_c = linearize(A, B)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # checked per block
        w0 = np.log(seed - zr[0]) - np.log(za[0] - seed)
        ramp = np.arange(nk) * (np.log(rho[0]) + np.mean(np.log(rho / rho[0])))
        gap = np.min(np.abs(za - zr))
    last = {}   # the previous block's last row, keyed by the row after it

    def block(rows):
        j, stop, _ = rows.indices(len(B))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # checked below
            w = w0 + log_c[rows, None] + ramp
            # w = u or 1/u with |w| <= 1, then s = p + (q - p) w / (1 + w) for (p, q) = (zeta_r,
            # zeta_a), swapped where u was inverted; in place
            outer = w.real > 0.0
            np.negative(w, out=w, where=outer)
            np.exp(w, out=w)
            w /= 1.0 + w
            w *= np.where(outer, (zr - za)[rows, None], (za - zr)[rows, None])
            s = np.where(outer, za[rows, None], zr[rows, None])
            s += w
            del w
            if j == 0:
                s[0, 0] = seed
                z, target = s[:-1], s[1:]
            else:   # from the previous block's last row; KeyError unless it came just before
                z, target = np.concatenate((last.pop(j)[None], s[:-1])), s
            worst = np.maximum(_chordal_step(A[max(j - 1, 0):stop - 1], z, target),
                               _chordal_step(B[rows], s[:, :-1], s[:, 1:]))
            last[stop] = s[-1].copy()
            poles = np.argwhere(np.abs(s) >= 2e11)
        if poles.size:
            raise PoleHit(f"scalar field reaches infinity at (j, k) = "
                          f"({j + poles[0][0]}, {poles[0][1]})")
        if not (worst <= 1e-11):
            if not (gap >= 0.05):
                raise BranchFailure(f"rotation recurrence is near-parabolic: min |zeta_a - zeta_r|"
                                    f" = {gap:.3e}, field residual {worst:.3e}")
            raise PathInconsistent(f"recurrence residual of the field is {worst:.3e} (tol 1.0e-11)")
        return s
    return block


def propagate(A: np.ndarray, B: np.ndarray, seed: complex, nk: int) -> np.ndarray:
    """Scalar field on the (len(B), nk) grid stepped by A(j) along j and B(j) along k, from
    its corner seed, in closed form.

    log u(j, k) = log u(0, 0) + log_c(j) + k log rho, with log rho the row
    mean (A(j) conjugates B(j) to B(j+1); one value keeps the A-residual
    from growing with k).  A value within the residual tolerance of
    infinity (|s| >= 2e11, chordal distance <= 1e-11) is PoleHit.  Both
    recurrences must hold to 1e-11 in the chordal metric: if not, fixed
    points within 0.05 make it BranchFailure (near-parabolic), and any
    other failing or non-finite residual PathInconsistent.
    """
    return _field(A, B, seed, nk)(slice(None))


def _explicit_transform(p, ang, fields, entries):
    """``explicit_sym`` of the transform whose ``entries(rows, s1, ...)`` take the ``_field``
    blocks of ``fields`` (``propagate``'s arguments).  Should it raise, the whole-grid
    ``propagate`` of each field in turn raises first, as when the fields came before it."""
    blocks = [_field(*args) for args in fields]
    try:
        return explicit_sym(p, ang, lambda rows: entries(rows, *(block(rows) for block in blocks)))
    except Exception:   # re-raised: a field's error comes first, whatever the Sym pass raised
        for args in fields:
            propagate(*args)
        raise


# ---------------------------------------------------------------------------
# single transforms


def single_backlund(hs: HsLaxData, ang: np.ndarray, alpha: complex,
                    s_tilde0: complex = 1.0) -> ContactElementNet:
    """Single Backlund transform, the W form at ``alpha``, of the rotational net of the
    normal-form data ``hs`` (its profile ``hs.profile``) at the column angles ``ang``.

    alpha must be real, in (-pi, 0) or (0, pi), and the seed s_tilde0 a unit scalar.
    """
    a = _require_real_angle(alpha)
    _require_unit_seed("s_tilde0", s_tilde0)
    cot = 1.0 / np.tan(a / 2.0)

    def transform(rows, s_tilde):   # the entries of W and dW at t = 0
        ratio = s_tilde / hs.s[rows, None]
        return cot * ratio, 1j, 1j, cot / ratio, 0.0, 1j, 1j, 0.0
    field = (*build_abcd(hs, complex(alpha)), complex(s_tilde0), len(ang))
    return ContactElementNet(*_explicit_transform(hs.profile, ang, [field], transform)[:2])


# ---------------------------------------------------------------------------
# double transforms


@dataclass(frozen=True)
class DoubleReport:
    """Reality and unitarity residues of a double transform."""

    imag_residue: float
    unit_residual: float


def double_backlund(hs: HsLaxData, ang: np.ndarray, alpha: complex,
                    s_tilde0: complex = 1.0, s_hat0: Optional[complex] = None):
    """Double Backlund transform with beta = -alpha and real sin(alpha), of the rotational
    net of the normal-form data ``hs`` (its profile ``hs.profile``) at the column angles ``ang``.

    Returns (ContactElementNet, DoubleReport).  sin(alpha) must be real and
    tan(alpha/2) nonzero.  When |sin alpha| <= 1 both seeds must be unit
    scalars, and an omitted s_hat0 is 1.  When |sin alpha| > 1 the seeds must
    be conjugate, s_hat0 = conj(s_tilde0) to 1e-12 (the default when omitted),
    and s_tilde0 finite.  The composed scalar field

        s^~ = (s^ s~ - tan^2(a/2)) / (s (1 - tan^2(a/2) s^ s~))

    feeds the entries of VW to the Sym formula one block of profile rows at a
    time, formed with that block's s~ and s^: each block's s^~ must stay
    off the pole (PoleHit) before its entries reach the Sym formula, and
    the coordinates must come out real (``explicit_sym`` raises
    RealityViolated: the seeds and angle are inconsistent).  When
    |sin alpha| > 1 the fields are conjugate too, s^ = conj(s~), which is
    taken as such rather than propagated; otherwise s^ steps by the
    adjugates of the recurrence matrices at -alpha.
    """
    alpha, s_tilde0 = complex(alpha), complex(s_tilde0)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite angle is refused below
        sa, tn = np.sin(alpha), np.tan(alpha / 2.0)
    if not abs(sa.imag) <= 1e-12:
        raise ConfigError(f"double transform requires real sin(alpha), got sin = {sa}")
    if not abs(tn) > 0.0:
        raise ConfigError(f"double transform requires tan(alpha/2) != 0, got alpha = {alpha}")
    beyond = abs(sa.real) > 1.0   # on the line pi/2 + iy
    s_hat0 = (s_tilde0.conjugate() if beyond else 1.0 + 0.0j) if s_hat0 is None else complex(s_hat0)
    if not beyond:
        _require_unit_seed("s_tilde0", s_tilde0)
        _require_unit_seed("s_hat0", s_hat0)
    elif not abs(s_hat0 - s_tilde0.conjugate()) <= 1e-12:   # NaN for a non-finite s_tilde0
        raise ConfigError("|sin alpha| > 1 requires conjugate seeds s_hat0 = conj(s_tilde0)")
    fields = [(*build_abcd(hs, alpha), s_tilde0, len(ang))]
    if not beyond:   # else s^ = conj(s~), formed per block
        fields.append((*map(quat.qconj, build_abcd(hs, -alpha)), s_hat0, len(ang)))
    tn2, cot = tn ** 2, 1.0 / tn
    s_col = hs.s[:, None]
    unit = []   # max ||s^~| - 1| of each block

    def vw(rows, st, sh=None):   # the entries of VW and d(VW), once s^~ has passed its checks
        sc, sh = s_col[rows], np.conj(st) if sh is None else sh
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):   # checked below
            den = 1.0 - tn2 * sh * st
            sht = (sh * st - tn2) / (sc * den)
        if not (np.min(np.abs(den)) >= 1e-14):
            raise PoleHit("composed scalar field hit a pole")
        if not np.all(np.isfinite(sht) & (sht != 0)):
            raise PoleHit("composed scalar field is non-finite or zero")
        unit.append(np.max(np.abs(np.abs(sht) - 1.0)))
        return lax_entries(st * (cot / sc + tn * sht), (cot * sc + tn / sht) / st, sc * sht, 0.0)

    x, n, imag_residue = _explicit_transform(hs.profile, ang, fields, vw)
    return ContactElementNet(x, n), DoubleReport(imag_residue, float(np.max(unit)))


# ---------------------------------------------------------------------------
# rotational periodicity


@dataclass(frozen=True)
class PeriodicAlpha:
    """Root of the periodicity condition: angle, phase index, trace residual.

    alpha is real when the recurrence closes for an ordinary transform
    angle; otherwise it lies on the line pi/2 + iy (real sin alpha with
    |sin alpha| > 1), where only the double transform yields a real net.
    residual is |tr^2/det - c| of B[0] at alpha, at most ``_CLOSE_TOL``.
    """

    alpha: complex
    p: int
    residual: float


_CLOSE_TOL = 1e-12   # largest trace residual of a root
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
    and > 1 (the regime where only the double transform is real).  The s^
    field steps by adj B[0] at -alpha, whose tr^2/det, a function of S
    alone, is that of B[0] at alpha, so the root closes both fields.  p
    defaults to the smallest index coprime to N0 that has a root the
    transforms can step; a given p must satisfy 1 <= p < N0.  A root has
    |tr^2/det - c| <= ``_CLOSE_TOL`` for B[0] from the transforms' builder,
    which checks the closed form but, at large N0, not closure (README).
    Without a given p, the float64 N0-th power of B[0] / sqrt(det) must
    also lie within 1e-9 of +-identity, which skips the near-parabolic
    indices (small p / N0) whose fields the transforms cannot close yet.
    """
    if N0 < 2:
        raise ConfigError(f"need N0 >= 2, got {N0}")
    if p is not None and not 1 <= p < N0:
        raise ConfigError(f"phase index p must satisfy 1 <= p < N0 = {N0}, got {p}")
    ps = [p] if p is not None else (q for q in range(1, N0) if math.gcd(q, N0) == 1)
    t2 = np.tan(hs.delta2 / 2.0)
    x, w, tau = complex(hs.s[0]), complex(hs.m[0]), complex(t2)
    a, b = x / tau + tau / x, 1.0 / (x * tau) + x * tau
    P = a / w + w * b
    Q = a * b - (1.0 / x - x) * (1.0 / x - x)
    eye = np.eye(2)
    for p_try in ps:
        c = 2.0 + 2.0 * math.cos(2.0 * math.pi * p_try / N0)
        den = c * Q - P * P
        S = (4.0 * c / den).real if den != 0 else 0.0
        if not 0.0 < S < math.cosh(_Y_MAX) ** 2:
            continue
        alpha = cmath.asin(math.sqrt(S))   # real for S <= 1, else pi/2 + i arccosh(sqrt(S))
        # full rows, so the matrix is bit for bit the one build_abcd returns
        (m11, m12), (m21, m22) = B = _matrices(hs.s, hs.m, t2, alpha)[0]
        det = m11 * m22 - m12 * m21
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # NaN fails below
            residual = float(abs((m11 + m22) ** 2 / det - c))
            power = np.linalg.matrix_power(B / np.sqrt(det), N0) if p is None else eye
            steps = min(np.max(np.abs(power - eye)), np.max(np.abs(power + eye)))
        if residual <= _CLOSE_TOL and steps <= 1e-9:
            return PeriodicAlpha(alpha, int(p_try), residual)
    tried = f"p = {p}" if p is not None else f"every p in 1..{N0 - 1} coprime to {N0}"
    raise NoRoot(f"no transform angle (real, or on the line pi/2 + iy with y < {_Y_MAX:g}) "
                 f"closes the recurrence after {N0} steps for {tried}")
