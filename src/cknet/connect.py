"""Flat quaternionic connections for rotational constant-curvature nets.

For a profile of constant discrete Gauss curvature, a one-parameter
family of flat connections (a Lax pair in the spectral parameter t) is
assembled edge by edge.  Edge matrices, with alpha, beta normalizers and
scalar edge data (u, v, v_frak, h_frak):

    K = -1:  L = (1/alpha) [[v_frak, e^{-t} u - e^{t}/u], [e^{t} u - e^{-t}/u, conj v_frak]]
             alpha^2 = |v_frak|^2 - u^2 - u^{-2} + e^{2t} + e^{-2t},  |u| = 1,
    K = +1:  L = (1/alpha) [[v_frak, -e^{it} u - e^{-it}/u], [e^{-it} u + e^{it}/u, conj v_frak]]
             alpha^2 = |v_frak|^2 + u^2 + u^{-2} + 2 cos 2t,  u real,

and M of the same shape built from (v, h_frak, beta) with the sign of
the cos 2t term flipped in the K = +1 case.  Three constructions cover
the parameter ranges: K=+1 with kappa < 1 (case 1), K=+1 with kappa > 1
(case 2) and K=-1 (case 3).  Every family runs the profile along j and
the rotation along k, and is invariant along k, so it is held once per
profile row: L of shape (nj-1, 1, 2, 2) and M of shape (nj, 1, 2, 2).
Case 1 exchanges the roles of the edge data: its L is the flipped form
built from (h_frak, v) and its M the L form built from (v_frak, u).

The K=-1 family can be gauged into a normal form whose entries depend
on a unit vertex function s and edge angles delta with sin(delta) =
2/alpha|_{t=0}; that form drives the Darboux-style transforms in
``backlund``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quat
from .errors import (BranchFailure, CaseMismatch, ConfigError, DivisionByZero,
                     InvalidProfile)
from .lattice import ConnectionFamily, Domain, FrameFamily, MatJet
from .revolution import Profile


_BRANCH_TOL = 1e-9   # below it a pair of edge scalars counts as equal and the mirrored branch is taken


def _check_theta(theta: float) -> None:
    if not (0.0 < abs(theta) < np.pi):
        raise ConfigError(f"rotation step must lie in (-pi,0) or (0,pi), got {theta}")


@dataclass(frozen=True)
class CkEdgeData:
    """Scalar edge data of a rotational flat connection at t = 0.

    In cases 2 and 3, u, v_frak and alpha0 live on the profile edges and
    v, h_frak on the profile vertices, whose rotation edges they build;
    beta0 is the same number for every row.  Case 1 exchanges the roles:
    u and v_frak live on the profile vertices, v, h_frak and beta0 on the
    profile edges, and alpha0 is the same number for every row.
    """

    u: np.ndarray
    v: np.ndarray
    v_frak: np.ndarray
    h_frak: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    K_sign: int
    case: int
    theta: float
    kappa: float


# ---------------------------------------------------------------------------
# edge matrices as jets


def _edge_jet_cgc(diag, u, t):
    """K=-1 edge matrix jet at parameter t from (diagonal scalar, unit u)."""
    diag = np.asarray(diag, dtype=complex)
    u = np.asarray(u, dtype=complex)
    ep, em = np.exp(t), np.exp(-t)
    alpha2 = np.abs(diag) ** 2 - 2.0 * np.real(u * u) + ep * ep + em * em
    if np.any(alpha2 <= 0):
        raise BranchFailure(f"normalizer alpha^2 <= 0 (min {np.min(alpha2):.3e})")
    alpha = np.sqrt(alpha2)
    alpha_dot = (ep * ep - em * em) / alpha
    X = quat.matrix(diag, em * u - ep / u, ep * u - em / u, np.conj(diag))
    Xd = quat.matrix(0.0, -em * u - ep / u, ep * u + em / u, 0.0)
    a = alpha[..., None, None]
    ad = alpha_dot[..., None, None]
    return MatJet(X / a, Xd / a - X * ad / (a * a)), alpha


def _edge_jet_cmc(diag, u, t, cos_sign, alpha_sign=1.0):
    """K=+1 edge matrix jet; cos_sign=+1 for the L form, -1 for the M form."""
    diag = np.asarray(diag, dtype=complex)
    u = np.asarray(u, dtype=float)
    eit = np.exp(1j * t)
    emt = np.exp(-1j * t)
    alpha2 = np.abs(diag) ** 2 + u * u + 1.0 / (u * u) + cos_sign * 2.0 * np.cos(2.0 * t)
    if np.any(alpha2 <= 0):
        raise BranchFailure(f"normalizer alpha^2 <= 0 (min {np.min(alpha2):.3e})")
    alpha = np.sign(alpha_sign) * np.sqrt(alpha2)
    alpha_dot = -cos_sign * 2.0 * np.sin(2.0 * t) / alpha
    if cos_sign > 0:
        X = quat.matrix(diag, -eit * u - emt / u, emt * u + eit / u, np.conj(diag))
        Xd = quat.matrix(0.0, -1j * eit * u + 1j * emt / u, -1j * emt * u + 1j * eit / u, 0.0)
    else:
        X = quat.matrix(diag, -1j * eit * u + 1j * emt / u, 1j * eit / u - 1j * emt * u,
                        np.conj(diag))
        Xd = quat.matrix(0.0, eit * u + emt / u, -eit / u - emt * u, 0.0)
    a = alpha[..., None, None]
    ad = alpha_dot[..., None, None]
    return MatJet(X / a, Xd / a - X * ad / (a * a)), alpha


# ---------------------------------------------------------------------------
# K = -1 (case 3)


def build_ck_connection(p: Profile, theta: float, k_count: int, k_lo: int = 0):
    """Flat K=-1 connection family for the rotational net of profile p, anchored at t = 0.

    Returns (ConnectionFamily, CkEdgeData).  The connection is invariant
    along the rotation direction k; edge scalars are seeded from the
    profile normals:

        v(j)    = (-1)^j (sqrt(1 - kappa^2 a^2) - i kappa a(j)),
        h_frak  = 2 kappa cot(theta/2) + 2 i kappa b(j),
        u(j)^2  = v(j) v(j+1)  (branch with Re u > 0),

    and v_frak(j) is the unique imaginary scalar closing the flatness
    equations on each face.
    """
    if p.K_sign != -1:
        raise InvalidProfile("K=-1 connection requires a K=-1 profile")
    _check_theta(theta)
    if k_count < 2:
        raise ConfigError(f"need at least two columns, got {k_count}")
    kappa, a, b = p.kappa, p.a, p.b
    par = np.where(p.js % 2 == 0, 1.0, -1.0)
    re2 = 1.0 - (kappa * a) ** 2
    if np.min(re2) < 1e-24:
        raise BranchFailure("Re v = 0 on some column (radius vanishes)")
    v = par * (np.sqrt(np.clip(re2, 0.0, None)) - 1j * kappa * a)
    u = np.sqrt(v[:-1] * v[1:])
    if np.min(u.real) < 1e-12:
        raise BranchFailure("u has vanishing real part on some profile edge")
    h_frak = 2.0 * kappa / np.tan(theta / 2.0) + 2j * kappa * b
    v_sum = v[:-1] + v[1:]
    db = b[1:] - b[:-1]
    sb = b[1:] + b[:-1]
    v_frak = np.empty(len(u), dtype=complex)
    generic = np.abs(v_sum) > _BRANCH_TOL
    v_frak[generic] = (u * 2j * kappa * sb / v_sum)[generic]
    if np.any(~generic):
        alt = ~generic
        if np.any(np.abs(sb[alt]) > _BRANCH_TOL) or np.any(np.abs(db[alt]) < 1e-12):
            raise BranchFailure("degenerate column pair without mirrored normals")
        uv = (u * v[:-1])[alt]
        v_frak[alt] = 2.0 * (uv + 1.0 / uv) / (2j * kappa * db[alt])
    if np.max(np.abs(v_frak.real)) > 1e-9:
        raise BranchFailure(f"edge scalar v_frak not imaginary (|Re| = {np.max(np.abs(v_frak.real)):.3e})")
    v_frak = 1j * v_frak.imag
    beta0 = 2.0 * kappa / np.sin(theta / 2.0)
    domain = Domain((p.j_lo, p.j_lo + p.nj - 1), (k_lo, k_lo + k_count - 1))

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cgc(v_frak, u, t)
        M_edge, _ = _edge_jet_cgc(h_frak, v, t)
        if beta0 < 0:
            M_edge = MatJet(-M_edge.val, -M_edge.dot)
        return ConnectionFamily(domain, L_edge[:, None], M_edge[:, None], t, assemble)

    _, alpha0 = _edge_jet_cgc(v_frak, u, 0.0)
    data = CkEdgeData(u, v, v_frak, h_frak, alpha0,
                      np.full(p.nj, beta0), -1, 3, float(theta), kappa)
    return assemble(0.0), data


# ---------------------------------------------------------------------------
# K = +1 (cases 1 and 2)


def build_cmc_connection(p: Profile, theta: float, k_count: int, case: int):
    """Flat K=+1 connection family for the rotational net of profile p, anchored at t = 0.

    case=1 handles kappa < 1 and case=2 kappa > 1; both run the profile
    along j and are invariant along the rotation direction k, which has
    k_count vertices.  kappa = 1 is covered by neither construction
    (CaseMismatch).
    """
    if p.K_sign != +1:
        raise InvalidProfile("K=+1 connection requires a K=+1 profile")
    _check_theta(theta)
    if k_count < 2:
        raise ConfigError(f"need at least two rotational vertices, got {k_count}")
    domain = Domain((p.j_lo, p.j_lo + p.nj - 1), (0, k_count - 1))
    if case == 1:
        if not p.kappa < 1.0:
            raise CaseMismatch(f"case 1 requires kappa < 1, got kappa = {p.kappa}")
        return _cmc_case1(p, theta, domain)
    if case == 2:
        if not p.kappa > 1.0:
            raise CaseMismatch(f"case 2 requires kappa > 1, got kappa = {p.kappa}")
        return _cmc_case2(p, theta, domain)
    raise ConfigError(f"case must be 1 or 2, got {case}")


def _cmc_case2(p, theta, domain):
    q = np.sqrt(p.kappa ** 2 - 1.0)
    a, b = p.a, p.b
    v = a / q + np.sqrt((a / q) ** 2 + 1.0)
    u = np.sqrt(v[:-1] * v[1:])
    if np.min(np.abs(np.abs(u) - 1.0)) < 1e-12:
        raise BranchFailure("u = +-1 on some profile edge (mirrored radial normals)")
    h_frak = 2.0 / (q * np.tan(theta / 2.0)) + 2j * b / q
    v_diff = v[:-1] - v[1:]
    db = b[1:] - b[:-1]
    sb = b[1:] + b[:-1]
    v_frak = np.empty(len(u), dtype=float)
    generic = np.abs(v_diff) > _BRANCH_TOL
    v_frak[generic] = (2.0 * u * sb / (q * v_diff))[generic]
    if np.any(~generic):
        alt = ~generic
        if np.any(np.abs(sb[alt]) > _BRANCH_TOL) or np.any(np.abs(db[alt]) < 1e-12):
            raise BranchFailure("equal-v column pair without mirrored normals")
        uv = (u * v[:-1])[alt]
        v_frak[alt] = ((uv - 1.0 / uv) * q / db)[alt]
    beta0 = 2.0 / (q * np.sin(theta / 2.0))

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cmc(v_frak, u, t, +1.0)
        M_edge, _ = _edge_jet_cmc(h_frak, v, t, -1.0, alpha_sign=beta0)
        return ConnectionFamily(domain, L_edge[:, None], M_edge[:, None], t, assemble)

    _, alpha0 = _edge_jet_cmc(v_frak, u, 0.0, +1.0)
    data = CkEdgeData(u, v, v_frak.astype(complex), h_frak, alpha0,
                      np.full(p.nj, beta0), +1, 2, float(theta), p.kappa)
    return assemble(0.0), data


def _cmc_case1(p, theta, domain):
    q = np.sqrt(1.0 - p.kappa ** 2)
    a, b, f = p.a, p.b, p.f
    if not (np.all(a > 0) or np.all(a < 0)):
        raise CaseMismatch("case 1 requires the radial normal component to keep its sign")
    u = (a + np.abs(f)) / q
    v = np.sqrt(u[:-1] * u[1:])
    v_frak = 2.0 / (q * np.tan(theta / 2.0)) + 2j * b / q
    u_diff = u[:-1] - u[1:]
    db = b[1:] - b[:-1]
    sb = b[1:] + b[:-1]
    h_frak = np.empty(len(v), dtype=float)
    generic = np.abs(u_diff) > _BRANCH_TOL
    h_frak[generic] = (-2.0 * v * sb / (q * u_diff))[generic]
    if np.any(~generic):
        alt = ~generic
        if np.any(np.abs(sb[alt]) > _BRANCH_TOL) or np.any(np.abs(db[alt]) < 1e-12):
            raise BranchFailure("equal-u row pair without mirrored normals")
        uv = (u[:-1] * v)[alt]
        h_frak[alt] = (-(uv - 1.0 / uv) * q / db)[alt]
    alpha0 = 2.0 / (q * np.sin(theta / 2.0))

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cmc(h_frak, v, t, -1.0)
        M_edge, _ = _edge_jet_cmc(v_frak, u, t, +1.0, alpha_sign=alpha0)
        return ConnectionFamily(domain, L_edge[:, None], M_edge[:, None], t, assemble)

    _, beta0 = _edge_jet_cmc(h_frak, v, 0.0, -1.0)
    data = CkEdgeData(u, v.astype(complex), v_frak, h_frak.astype(complex),
                      np.full(p.nj, alpha0), beta0, +1, 1, float(theta), p.kappa)
    return assemble(0.0), data


# ---------------------------------------------------------------------------
# rotational frames


def initial_frame(a0: float, b0: float) -> np.ndarray:
    """Standard frame at the base vertex from its normal components (a0, b0)."""
    if abs(b0 + 1.0) < 1e-12:
        return np.array([[0.0, 1j], [1j, 0.0]])
    return (1j / np.sqrt(2.0 * (b0 + 1.0))) * np.array(
        [[b0 + 1.0, a0], [a0, -(b0 + 1.0)]], dtype=complex
    )


def rotational_frames(conn: ConnectionFamily, a0: float, b0: float) -> FrameFamily:
    """Frames of a rotation-invariant connection: Phi(j,k) = P(j) D^k, kept as factors.

    P(0) is the standard frame from (a0, b0) as a constant jet,
    P(j+1) = L(j) P(j) and D = P(0)^{-1} M(0) P(0); the P(j) form the
    row factor and the D^k the column factor.  For a flat k-invariant
    family their product coincides with direct integration.  L and M
    must be held once per profile row (length 1 along k); any other
    family raises ValueError.
    """
    if conn.L.shape[1] != 1 or conn.M.shape[1] != 1:
        raise ValueError(f"connection is not invariant along k: L {conn.L.shape} and "
                         f"M {conn.M.shape} are not held once per profile row")
    phi00 = MatJet.constant(initial_frame(a0, b0))
    nj, nk = conn.domain.nj, conn.domain.nk
    P = [phi00]
    for j in range(nj - 1):
        P.append(conn.L[j, 0] @ P[-1])
    D = phi00.inv() @ conn.M[0, 0] @ phi00
    Dk = [MatJet.constant(np.eye(2))]
    for k in range(nk - 1):
        Dk.append(D @ Dk[-1])
    stack = lambda jets: MatJet(np.stack([m.val for m in jets]), np.stack([m.dot for m in jets]))
    return FrameFamily(conn.domain, stack(P)[:, None], conn.t0, stack(Dk))


def closing_residual(conn: ConnectionFamily, k0: int) -> float:
    """Distance of the k-step monodromy from a half-turn multiple of identity.

    Computes M^{k0} at the first column and t = t0 and returns the
    entrywise distance from the nearer of +-sqrt(det M^{k0}) * I.  Zero
    residual means the rotational net closes after k0 steps.
    """
    if k0 < 3:
        raise ConfigError(f"closing requires k0 >= 3, got {k0}")
    Mval = conn.M.val[0, 0]
    Mk = np.linalg.matrix_power(Mval, k0)
    s = np.sqrt(Mk[0, 0] * Mk[1, 1] - Mk[0, 1] * Mk[1, 0])
    eye = np.eye(2)
    return float(min(np.max(np.abs(Mk - s * eye)), np.max(np.abs(Mk + s * eye))))


# ---------------------------------------------------------------------------
# gauge to the normal (Lax) form, K = -1


@dataclass(frozen=True)
class HsLaxData:
    """Scalar data of the gauged K=-1 normal form.

    s is the unit vertex function per profile column, sqrt_s its branch
    chain with sqrt_s(j+1) = u(j)/sqrt_s(j); ell and m are the edge
    eigenvalue-like scalars; delta1 (per profile edge) and delta2
    (global) are the edge angles, complex of the form +-pi/2 + i y when
    |2/alpha| > 1.  ``gauge`` is the unit-determinant vertex gauge
    diag(sqrt_s/sqrt(i), sqrt(i)/sqrt_s): one matrix per profile row, of
    shape (nj, 1, 2, 2).
    """

    s: np.ndarray
    sqrt_s: np.ndarray
    ell: np.ndarray
    m: np.ndarray
    delta1: np.ndarray
    delta2: complex
    u: np.ndarray
    v: np.ndarray
    domain: Domain
    gauge: MatJet = field(repr=False, compare=False, default=None)


def _angle_from_sin(w: float) -> complex:
    """delta with sin(delta) = w: real for |w| <= 1, else +-pi/2 + i arccosh|w|."""
    if abs(w) <= 1.0:
        return complex(np.arcsin(w))
    return complex(np.sign(w) * np.pi / 2.0, np.arccosh(abs(w)))


def gauge_to_hs(conn: ConnectionFamily, data: CkEdgeData):
    """Gauge a K=-1 rotational connection into its normal Lax form.

    Returns the HsLaxData; its ``gauge`` field carries the vertex gauge
    diag(sqrt(s)/sqrt(i), sqrt(i)/sqrt(s)), with the square-root branch
    chained so that ``lattice.gauge(conn, hs.gauge)`` times alpha0[j] on
    profile edges and beta0 on rotation edges is ``hs_lax`` entrywise.
    Those real, t-independent factors cancel in the Sym formula, so they
    are left out of the gauge and gauged frames stay unit-sized on grids
    of any length.
    """
    if data.case != 3 or data.K_sign != -1:
        raise CaseMismatch("normal form gauge applies to the K=-1 (case 3) family")
    if conn.t0 != 0.0:
        raise ConfigError("normal form gauge is anchored at t0 = 0")
    nj = conn.domain.nj
    s = data.v
    r = np.empty(nj, dtype=complex)
    r[0] = np.sqrt(s[0])
    for j in range(nj - 1):
        r[j + 1] = data.u[j] / r[j]
    beta0 = float(data.beta0[0])
    delta1 = np.array([_angle_from_sin(2.0 / a) for a in data.alpha0])
    delta2 = _angle_from_sin(2.0 / beta0)
    t1 = np.tan(delta1 / 2.0)
    t2 = np.tan(delta2 / 2.0)
    for t in np.concatenate([t1, [t2]]):
        if not np.isfinite(t) or abs(t) < 1e-14:
            raise DivisionByZero(f"edge angle produced tan(delta/2) = {t}")
    ell = data.v_frak / (1.0 / (data.u * t1) + data.u * t1)
    m = data.h_frak / (1.0 / (s * t2) + s * t2)
    sq_i = np.exp(1j * np.pi / 4.0)
    G = quat.matrix(r / sq_i, 0.0, 0.0, sq_i / r)
    return HsLaxData(s, r, ell, m, delta1, delta2, data.u, data.v, conn.domain,
                     MatJet.constant(G[:, None]))


def lax_jet(diag_l, diag_r, prod, t: float) -> MatJet:
    """[[diag_l, i(e^t - e^-t prod)], [i(e^t - e^-t / prod), diag_r]] as a jet in t: the
    form of the normal-form edge matrices and of the double transform matrix VW."""
    ep, em = np.exp(t), np.exp(-t)
    return MatJet(quat.matrix(diag_l, 1j * (ep - em * prod), 1j * (ep - em / prod), diag_r),
                  quat.matrix(0.0, 1j * (ep + em * prod), 1j * (ep + em / prod), 0.0))


def hs_lax(hs: HsLaxData, t: float = 0.0) -> ConnectionFamily:
    """The normal-form Lax pair built directly from its scalar data.

    L(j) = [[ell (cot(d1/2)/s(j) + tan(d1/2) s(j+1)),  i(e^t - e^{-t} s(j)s(j+1))],
            [i(e^t - e^{-t}/(s(j)s(j+1))),  (1/ell)(s(j) cot(d1/2) + tan(d1/2)/s(j+1))]]

    and M(j) likewise with m, delta2 and s(j)^2 in the off-diagonals.
    """
    s, ell, m = hs.s, hs.ell, hs.m
    ct1, tn1 = 1.0 / np.tan(hs.delta1 / 2.0), np.tan(hs.delta1 / 2.0)
    ct2, tn2 = 1.0 / np.tan(hs.delta2 / 2.0), np.tan(hs.delta2 / 2.0)
    L_edge = lax_jet(ell * (ct1 / s[:-1] + tn1 * s[1:]), (s[:-1] * ct1 + tn1 / s[1:]) / ell,
                     s[:-1] * s[1:], t)
    M_edge = lax_jet(m * (ct2 / s + tn2 * s), (s * ct2 + tn2 / s) / m, s * s, t)
    return ConnectionFamily(hs.domain, L_edge[:, None], M_edge[:, None], t,
                            lambda tt: hs_lax(hs, tt))

