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
the parameter ranges: rotation-invariant K=+1 data with kappa < 1
(case 1, invariant along j), kappa > 1 (case 2, invariant along k), and
K=-1 (case 3, invariant along k).

The K=-1 family can be gauged into a normal form whose entries depend
on a unit vertex function s and edge angles delta with sin(delta) =
2/alpha|_{t=0}; that form drives the Darboux-style transforms in
``backlund``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (BranchFailure, CaseMismatch, ConfigError, DivisionByZero,
                     InvalidProfile, RepeatedEigenvalue)
from .lattice import ConnectionFamily, Domain, FrameFamily, MatJet
from .revolution import Profile


def _check_theta(theta: float) -> None:
    if not (0.0 < abs(theta) < np.pi):
        raise ConfigError(f"rotation step must lie in (-pi,0) or (0,pi), got {theta}")


@dataclass(frozen=True)
class CkEdgeData:
    """Scalar edge data of a rotational flat connection.

    For invariant == "k" (cases 2, 3) the profile runs along j: u,
    v_frak, alpha0 live on profile edges and v, h_frak on the k-edges of
    each profile column; beta0 is the same number for every k-edge.  For
    invariant == "j" (case 1) the roles of the directions are exchanged
    and alpha0 is the global constant.
    """

    u: np.ndarray
    v: np.ndarray
    v_frak: np.ndarray
    h_frak: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    K_sign: int
    case: int
    invariant: str
    theta: float
    kappa: float
    t0: float = 0.0


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
    X = np.empty(diag.shape + (2, 2), dtype=complex)
    X[..., 0, 0] = diag
    X[..., 0, 1] = em * u - ep / u
    X[..., 1, 0] = ep * u - em / u
    X[..., 1, 1] = np.conj(diag)
    Xd = np.zeros_like(X)
    Xd[..., 0, 1] = -em * u - ep / u
    Xd[..., 1, 0] = ep * u + em / u
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
    X = np.empty(diag.shape + (2, 2), dtype=complex)
    Xd = np.zeros_like(X)
    X[..., 0, 0] = diag
    X[..., 1, 1] = np.conj(diag)
    if cos_sign > 0:
        X[..., 0, 1] = -eit * u - emt / u
        X[..., 1, 0] = emt * u + eit / u
        Xd[..., 0, 1] = -1j * eit * u + 1j * emt / u
        Xd[..., 1, 0] = -1j * emt * u + 1j * eit / u
    else:
        X[..., 0, 1] = -1j * eit * u + 1j * emt / u
        X[..., 1, 0] = 1j * eit / u - 1j * emt * u
        Xd[..., 0, 1] = eit * u + emt / u
        Xd[..., 1, 0] = -eit / u - emt * u
    a = alpha[..., None, None]
    ad = alpha_dot[..., None, None]
    return MatJet(X / a, Xd / a - X * ad / (a * a)), alpha


def _tile_k_invariant(L_edge: MatJet, M_edge: MatJet, domain: Domain):
    nk = domain.nk
    tile = lambda jet, n: MatJet(
        np.broadcast_to(jet.val[:, None], (jet.val.shape[0], n, 2, 2)),
        np.broadcast_to(jet.dot[:, None], (jet.val.shape[0], n, 2, 2)),
    )
    return tile(L_edge, nk), tile(M_edge, nk - 1)


def _tile_j_invariant(L_edge: MatJet, M_edge: MatJet, domain: Domain):
    nj = domain.nj
    tile = lambda jet, n: MatJet(
        np.broadcast_to(jet.val[None, :], (n, jet.val.shape[0], 2, 2)),
        np.broadcast_to(jet.dot[None, :], (n, jet.val.shape[0], 2, 2)),
    )
    return tile(L_edge, nj - 1), tile(M_edge, nj)


# ---------------------------------------------------------------------------
# K = -1 (case 3)


def build_ck_connection(p: Profile, theta: float, k_count: int, t0: float = 0.0,
                        k_lo: int = 0, branch_tol: float = 1e-9):
    """Flat K=-1 connection family for the rotational net of profile p.

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
    generic = np.abs(v_sum) > branch_tol
    v_frak[generic] = (u * 2j * kappa * sb / v_sum)[generic]
    if np.any(~generic):
        alt = ~generic
        if np.any(np.abs(sb[alt]) > branch_tol) or np.any(np.abs(db[alt]) < 1e-12):
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
        L, M = _tile_k_invariant(L_edge, M_edge, domain)
        return ConnectionFamily(domain, L, M, t, assemble)

    _, alpha0 = _edge_jet_cgc(v_frak, u, 0.0)
    data = CkEdgeData(u, v, v_frak, h_frak, alpha0,
                      np.full(p.nj, beta0), -1, 3, "k", float(theta), kappa, t0)
    return assemble(t0), data


# ---------------------------------------------------------------------------
# K = +1 (cases 1 and 2)


def build_cmc_connection(p: Profile, theta: float, rot_count: int, case: int,
                         t0: float = 0.0, rot_lo: int = 0, branch_tol: float = 1e-9):
    """Flat K=+1 connection family for the rotational net of profile p.

    case=1 handles kappa < 1 (connection invariant along j, the profile
    running along k); case=2 handles kappa > 1 (invariant along k).
    rot_count is the vertex count in the rotation direction.  kappa = 1
    is covered by neither construction (CaseMismatch).
    """
    if p.K_sign != +1:
        raise InvalidProfile("K=+1 connection requires a K=+1 profile")
    _check_theta(theta)
    if rot_count < 2:
        raise ConfigError(f"need at least two rotational vertices, got {rot_count}")
    if case == 1:
        if not p.kappa < 1.0:
            raise CaseMismatch(f"case 1 requires kappa < 1, got kappa = {p.kappa}")
        return _cmc_case1(p, theta, rot_count, t0, rot_lo, branch_tol)
    if case == 2:
        if not p.kappa > 1.0:
            raise CaseMismatch(f"case 2 requires kappa > 1, got kappa = {p.kappa}")
        return _cmc_case2(p, theta, rot_count, t0, rot_lo, branch_tol)
    raise ConfigError(f"case must be 1 or 2, got {case}")


def _cmc_case2(p, theta, k_count, t0, k_lo, branch_tol):
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
    generic = np.abs(v_diff) > branch_tol
    v_frak[generic] = (2.0 * u * sb / (q * v_diff))[generic]
    if np.any(~generic):
        alt = ~generic
        if np.any(np.abs(sb[alt]) > branch_tol) or np.any(np.abs(db[alt]) < 1e-12):
            raise BranchFailure("equal-v column pair without mirrored normals")
        uv = (u * v[:-1])[alt]
        v_frak[alt] = ((uv - 1.0 / uv) * q / db)[alt]
    beta0 = 2.0 / (q * np.sin(theta / 2.0))
    domain = Domain((p.j_lo, p.j_lo + p.nj - 1), (k_lo, k_lo + k_count - 1))

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cmc(v_frak, u, t, +1.0)
        M_edge, _ = _edge_jet_cmc(h_frak, v, t, -1.0, alpha_sign=beta0)
        L, M = _tile_k_invariant(L_edge, M_edge, domain)
        return ConnectionFamily(domain, L, M, t, assemble)

    _, alpha0 = _edge_jet_cmc(v_frak, u, 0.0, +1.0)
    data = CkEdgeData(u, v, v_frak.astype(complex), h_frak, alpha0,
                      np.full(p.nj, beta0), +1, 2, "k", float(theta), p.kappa, t0)
    return assemble(t0), data


def _cmc_case1(p, theta, j_count, t0, j_lo, branch_tol):
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
    generic = np.abs(u_diff) > branch_tol
    h_frak[generic] = (-2.0 * v * sb / (q * u_diff))[generic]
    if np.any(~generic):
        alt = ~generic
        if np.any(np.abs(sb[alt]) > branch_tol) or np.any(np.abs(db[alt]) < 1e-12):
            raise BranchFailure("equal-u row pair without mirrored normals")
        uv = (u[:-1] * v)[alt]
        h_frak[alt] = (-(uv - 1.0 / uv) * q / db)[alt]
    alpha0 = 2.0 / (q * np.sin(theta / 2.0))
    domain = Domain((j_lo, j_lo + j_count - 1), (p.j_lo, p.j_lo + p.nj - 1))

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cmc(v_frak, u, t, +1.0, alpha_sign=alpha0)
        M_edge, _ = _edge_jet_cmc(h_frak, v, t, -1.0)
        L, M = _tile_j_invariant(L_edge, M_edge, domain)
        return ConnectionFamily(domain, L, M, t, assemble)

    _, beta0 = _edge_jet_cmc(h_frak, v, 0.0, -1.0)
    data = CkEdgeData(u, v.astype(complex), v_frak, h_frak.astype(complex),
                      np.full(p.nj, alpha0), beta0, +1, 1, "j", float(theta), p.kappa, t0)
    return assemble(t0), data


# ---------------------------------------------------------------------------
# eigen-splitting and rotational frames


def _sqrt_jet(v, d):
    s = np.sqrt(v)
    return s, d / (2.0 * s)


def eigen_split(m: MatJet, tol: float = 1e-14):
    """Split a single quaternionic jet: m = P D P^{-1}, D = diag(w+, w-).

    P is special unitary for unit quaternions; eigenvalues are ordered
    with Im(w+) >= 0 and both carry t-derivatives.  A (numerically) real
    matrix has no preferred rotation plane: RepeatedEigenvalue.
    """
    if m.val.shape != (2, 2):
        raise ValueError(f"eigen_split expects a single 2x2 jet, got {m.val.shape}")
    m11, m12 = m.val[0, 0], m.val[0, 1]
    m21, m22 = m.val[1, 0], m.val[1, 1]
    d11, d12 = m.dot[0, 0], m.dot[0, 1]
    d21, d22 = m.dot[1, 0], m.dot[1, 1]
    trh, trh_d = (m11 + m22) / 2.0, (d11 + d22) / 2.0
    det = m11 * m22 - m12 * m21
    det_d = d11 * m22 + m11 * d22 - d12 * m21 - m12 * d21
    disc = det - trh * trh
    disc_d = det_d - 2.0 * trh * trh_d
    if abs(disc) < tol * max(1.0, abs(det)):
        raise RepeatedEigenvalue(f"vector part is numerically zero (|disc| = {abs(disc):.3e})")
    s, s_d = _sqrt_jet(disc, disc_d)
    wp, wp_d = trh + 1j * s, trh_d + 1j * s_d
    wm, wm_d = trh - 1j * s, trh_d - 1j * s_d
    if wp.imag < wm.imag:
        (wp, wp_d), (wm, wm_d) = (wm, wm_d), (wp, wp_d)
    c1 = np.array([m12, wp - m11])
    c1_d = np.array([d12, wp_d - d11])
    c2 = np.array([wp - m22, m21])
    c2_d = np.array([wp_d - d22, d21])
    if np.linalg.norm(c2) > np.linalg.norm(c1):
        c1, c1_d = c2, c2_d
    i = int(np.argmax(np.abs(c1)))
    mod = abs(c1[i])
    mod_d = (np.conj(c1[i]) * c1_d[i]).real / mod
    ph = c1[i] / mod
    ph_d = (c1_d[i] * mod - c1[i] * mod_d) / mod ** 2
    c1, c1_d = c1 * np.conj(ph), c1_d * np.conj(ph) + c1 * np.conj(ph_d)
    nrm = np.linalg.norm(c1)
    nrm_d = (np.conj(c1) * c1_d).sum().real / nrm
    a = c1 / nrm
    a_d = (c1_d * nrm - c1 * nrm_d) / nrm ** 2
    P_val = np.array([[a[0], -np.conj(a[1])], [a[1], np.conj(a[0])]])
    P_dot = np.array([[a_d[0], -np.conj(a_d[1])], [a_d[1], np.conj(a_d[0])]])
    D_val = np.diag([wp, wm]).astype(complex)
    D_dot = np.diag([wp_d, wm_d]).astype(complex)
    return MatJet(P_val, P_dot), MatJet(D_val, D_dot)


def initial_frame(a0: float, b0: float) -> np.ndarray:
    """Standard frame at the base vertex from its normal components (a0, b0)."""
    if abs(b0 + 1.0) < 1e-12:
        return np.array([[0.0, 1j], [1j, 0.0]])
    return (1j / np.sqrt(2.0 * (b0 + 1.0))) * np.array(
        [[b0 + 1.0, a0], [a0, -(b0 + 1.0)]], dtype=complex
    )


def _invariance_residual(conn: ConnectionFamily) -> float:
    r = 0.0
    if conn.domain.nk > 1:
        r = max(r, float(np.max(np.abs(conn.L.val[:, 1:] - conn.L.val[:, :-1]))) if conn.L.val[:, 1:].size else 0.0)
    if conn.domain.nk > 2:
        r = max(r, float(np.max(np.abs(conn.M.val[:, 1:] - conn.M.val[:, :-1]))))
    return r


def rotational_frames(conn: ConnectionFamily, a0: float = None, b0: float = None,
                      phi00: Optional[MatJet] = None) -> FrameFamily:
    """Frames of a rotation-invariant connection: Phi(j,k) = P(j) D^k.

    P(0) is the given phi00 jet (or the standard frame from (a0, b0) as a
    constant jet), P(j+1) = L(j,0) P(j) and D = P(0)^{-1} M(:,0) P(0);
    the grid is one broadcast product of the P(j) and D^k stacks.  For a
    flat k-invariant family this coincides with direct integration.
    """
    if phi00 is None:
        if a0 is None or b0 is None:
            raise ConfigError("rotational_frames needs phi00 or both a0 and b0")
        phi00 = MatJet.constant(initial_frame(a0, b0))
    r = _invariance_residual(conn)
    if r > 1e-9:
        raise ValueError(f"connection is not invariant along k (residual {r:.3e})")
    nj, nk = conn.domain.nj, conn.domain.nk
    P = [phi00]
    for j in range(nj - 1):
        P.append(conn.L[j, 0] @ P[-1])
    D = phi00.inv() @ conn.M[0, 0] @ phi00
    Dk = [MatJet.constant(np.eye(2))]
    for k in range(nk - 1):
        Dk.append(D @ Dk[-1])
    stack = lambda jets: MatJet(np.stack([m.val for m in jets]), np.stack([m.dot for m in jets]))
    return FrameFamily(conn.domain, stack(P)[:, None] @ stack(Dk), conn.t0)


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
    |2/alpha| > 1.  ``gauge`` is the vertex gauge that carries the
    original connection into the normal form.
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

    Returns the HsLaxData; its ``gauge`` field carries the vertex gauge,
    so ``lattice.gauge(conn, hs.gauge)`` is the gauged family.  The
    scalar gauge g grows by alpha along profile edges and by beta along
    rotation edges; the matrix gauge is
    g * diag(sqrt(s)/sqrt(i), sqrt(i)/sqrt(s)) with the square-root
    branch chained so the gauged family matches the normal form
    entrywise.
    """
    if data.case != 3 or data.K_sign != -1:
        raise CaseMismatch("normal form gauge applies to the K=-1 (case 3) family")
    if conn.t0 != 0.0:
        raise ConfigError("normal form gauge is anchored at t0 = 0")
    nj, nk = conn.domain.nj, conn.domain.nk
    s = data.v
    r = np.empty(nj, dtype=complex)
    r[0] = np.sqrt(s[0])
    for j in range(nj - 1):
        r[j + 1] = data.u[j] / r[j]
    beta0 = float(data.beta0[0]) if np.ndim(data.beta0) else float(data.beta0)
    delta1 = np.array([_angle_from_sin(2.0 / a) for a in data.alpha0])
    delta2 = _angle_from_sin(2.0 / beta0)
    t1 = np.tan(delta1 / 2.0)
    t2 = np.tan(delta2 / 2.0)
    for t in np.concatenate([t1, [t2]]):
        if not np.isfinite(t) or abs(t) < 1e-14:
            raise DivisionByZero(f"edge angle produced tan(delta/2) = {t}")
    ell = data.v_frak / (1.0 / (data.u * t1) + data.u * t1)
    m = data.h_frak / (1.0 / (s * t2) + s * t2)
    g = np.empty((nj, nk), dtype=float)
    g[0, 0] = 1.0
    acc = 1.0
    col0 = np.empty(nj)
    col0[0] = 1.0
    for j in range(nj - 1):
        acc *= data.alpha0[j]
        col0[j + 1] = acc
    for k in range(nk):
        g[:, k] = col0 * beta0 ** k
    sq_i = np.exp(1j * np.pi / 4.0)
    G_val = np.zeros((nj, nk, 2, 2), dtype=complex)
    G_val[..., 0, 0] = g * (r / sq_i)[:, None]
    G_val[..., 1, 1] = g * (sq_i / r)[:, None]
    G = MatJet(G_val, np.zeros_like(G_val))
    return HsLaxData(s, r, ell, m, delta1, delta2, data.u, data.v, conn.domain, G)


def hs_lax(hs: HsLaxData, t: float = 0.0) -> ConnectionFamily:
    """The normal-form Lax pair built directly from its scalar data.

    L(j) = [[ell (cot(d1/2)/s(j) + tan(d1/2) s(j+1)),  i(e^t - e^{-t} s(j)s(j+1))],
            [i(e^t - e^{-t}/(s(j)s(j+1))),  (1/ell)(s(j) cot(d1/2) + tan(d1/2)/s(j+1))]]

    and M(j) likewise with m, delta2 and s(j)^2 in the off-diagonals.
    """
    s, ell, m = hs.s, hs.ell, hs.m
    ct1, tn1 = 1.0 / np.tan(hs.delta1 / 2.0), np.tan(hs.delta1 / 2.0)
    ct2, tn2 = 1.0 / np.tan(hs.delta2 / 2.0), np.tan(hs.delta2 / 2.0)
    ep, em = np.exp(t), np.exp(-t)
    nj, nk = hs.domain.nj, hs.domain.nk

    def lax_pair(diag_l, diag_r, prod):
        n = len(prod)
        val = np.zeros((n, 2, 2), dtype=complex)
        dot = np.zeros_like(val)
        val[:, 0, 0] = diag_l
        val[:, 1, 1] = diag_r
        val[:, 0, 1] = 1j * (ep - em * prod)
        val[:, 1, 0] = 1j * (ep - em / prod)
        dot[:, 0, 1] = 1j * (ep + em * prod)
        dot[:, 1, 0] = 1j * (ep + em / prod)
        return MatJet(val, dot)

    L_edge = lax_pair(ell * (ct1 / s[:-1] + tn1 * s[1:]),
                      (s[:-1] * ct1 + tn1 / s[1:]) / ell,
                      s[:-1] * s[1:])
    M_edge = lax_pair(m * (ct2 / s + tn2 * s),
                      (s * ct2 + tn2 / s) / m,
                      s * s)
    L, M = _tile_k_invariant(L_edge, M_edge, hs.domain)
    return ConnectionFamily(hs.domain, L, M, t, lambda tt: hs_lax(hs, tt))


# ---------------------------------------------------------------------------
# helices at general spectral parameter


@dataclass(frozen=True)
class HelixReport:
    """Fit of every rotational row to a helix around the vertical axis."""

    residual: float
    theta: float
    mu: float
    Upsilon: np.ndarray
    iota: np.ndarray
    Psi: np.ndarray


def helix_check(conn: ConnectionFamily, t: float, xi: float = 2.0) -> HelixReport:
    """Verify that rows of the parameter-t net are discrete helices.

    Rebuilds the family at t, frames it with the eigenvector jet of the
    rotational step as the initial frame (axis e3), and fits every row j
    to k -> (Y cos(theta k + i0), Y sin(theta k + i0), mu k + Psi) with
    the rotation angle theta and pitch mu read off the eigenvalue jets.
    """
    from .nets import sym_arrays

    conn_t = conn.at(t)
    P0, D = eigen_split(conn_t.M[0, 0])
    frames = rotational_frames(conn_t, phi00=P0)
    x, _ = sym_arrays(frames, xi, 0.0)
    if np.max(np.abs(x.imag)) > 1e-8:
        raise ValueError(f"helix net is not real (residue {np.max(np.abs(x.imag)):.3e})")
    x = x.real
    wp, wm = D.val[0, 0], D.val[1, 1]
    wp_d, wm_d = D.dot[0, 0], D.dot[1, 1]
    theta = float(np.angle(wp / wm))
    mu_c = 0.5j * xi * (wp_d / wp - wm_d / wm)
    mu = float(mu_c.real)
    nj, nk = x.shape[0], x.shape[1]
    ks = np.arange(nk)
    radii = np.hypot(x[..., 0], x[..., 1])
    Upsilon = radii.mean(axis=1)
    phases = np.angle(x[..., 0] + 1j * x[..., 1]) - theta * ks[None, :]
    iota = np.angle(np.exp(1j * phases).mean(axis=1))
    Psi = (x[..., 2] - mu * ks[None, :]).mean(axis=1)
    fit = np.stack([
        Upsilon[:, None] * np.cos(theta * ks[None, :] + iota[:, None]),
        Upsilon[:, None] * np.sin(theta * ks[None, :] + iota[:, None]),
        mu * ks[None, :] + Psi[:, None],
    ], axis=-1)
    residual = float(np.max(np.linalg.norm(x - fit, axis=-1)))
    return HelixReport(residual, theta, mu, Upsilon, iota, Psi)
