"""Flat quaternionic connections for rotational constant-curvature nets.

For a profile of constant discrete Gauss curvature, a one-parameter
family of flat connections (a Lax pair in the spectral parameter t) is
assembled edge by edge.  Edge matrices, with alpha, beta normalizers and
scalar edge data (u, v, v_frak, h_frak):

    K = -1:  L = (1/alpha) [[v_frak, e^{-t} u - e^{t}/u], [e^{t} u - e^{-t}/u, conj v_frak]]
             alpha^2 = |v_frak|^2 - u^2 - u^{-2} + e^{2t} + e^{-2t},  |u| = 1,
    K = +1:  L = (1/alpha) [[v_frak, -e^{it} u - e^{-it}/u], [e^{-it} u + e^{it}/u, conj v_frak]]
             alpha^2 = |v_frak|^2 + u^2 + u^{-2} + 2 cos 2t,  u real,

and M of the same shape built from (v, h_frak, beta).  For K = +1, M is
the flipped form: the L form a quarter turn on, at t + pi/2, which flips
the sign of the cos 2t term.  Every family runs the profile along j and
the rotation along k, and is invariant along k, so it is held once per
profile row: L of shape (nj-1, 1, 2, 2) and M of shape (nj, 1, 2, 2).
For K = +1 the construction follows from kappa: kappa > 1
(construction 2) keeps the forms above, kappa < 1 (construction 1)
exchanges the roles of the edge data, so its L is the flipped form built
from (h_frak, v) and its M the L form built from (v_frak, u); kappa = 1
is covered by neither.  K = -1 is construction 3.
In every construction one closed form, with no branch, gives the
diagonal scalar of each profile edge that closes flatness on its faces:
sa/db times an edge factor, with sa = a(j) + a(j+1) and
db = b(j+1) - b(j) = -K c (f(j) + f(j+1)), which never vanishes.  Its
defining quotient, (b(j) + b(j+1)) over the difference of the two vertex
scalars, carries the factor a(j) - a(j+1) above and below; the unit
normal cancels it by hand, (a(j) - a(j+1)) sa = db (b(j) + b(j+1)), so
mirrored edges, b(j+1) = -b(j), need no formula of their own.

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
from .lattice import ConnectionFamily, FrameFamily, MatJet
from .revolution import Profile, _require_step


@dataclass(frozen=True)
class CkEdgeData:
    """Scalar edge data of a rotational flat connection at t = 0, seeded from ``profile``.

    The profile's K_sign and, for K = +1, kappa choose the construction.
    For K = -1 and for K = +1 with kappa > 1, u, v_frak and alpha0 live on
    the profile edges and v, h_frak on the profile vertices, whose rotation
    edges they build; beta0 is the same number for every row.  K = +1 with
    kappa < 1 exchanges the roles: u and v_frak live on the profile
    vertices, v, h_frak and beta0 on the profile edges, and alpha0 is the
    same number for every row.  u and v are real when K = +1.
    """

    u: np.ndarray
    v: np.ndarray
    v_frak: np.ndarray
    h_frak: np.ndarray
    alpha0: np.ndarray
    beta0: np.ndarray
    profile: Profile


# ---------------------------------------------------------------------------
# edge matrices as jets


def _normalised(X, Xd, alpha, alpha_dot):
    """Jet of X/alpha in t from X, its derivative Xd, alpha and its derivative; and alpha."""
    a = alpha[..., None, None]
    ad = alpha_dot[..., None, None]
    return MatJet(X / a, Xd / a - X * ad / (a * a)), alpha


def _edge_jet_cgc(diag, u, t):
    """K=-1 edge matrix jet at parameter t from (diagonal scalar, unit u)."""
    diag = np.asarray(diag, dtype=complex)
    u = np.asarray(u, dtype=complex)
    ep, em = np.exp(t), np.exp(-t)
    alpha2 = np.abs(diag) ** 2 - 2.0 * np.real(u * u) + ep * ep + em * em
    if np.any(alpha2 <= 0):
        raise BranchFailure(f"normalizer alpha^2 <= 0 (min {np.min(alpha2):.3e})")
    alpha = np.sqrt(alpha2)
    X = quat.matrix(diag, em * u - ep / u, ep * u - em / u, np.conj(diag))
    Xd = quat.matrix(0.0, -em * u - ep / u, ep * u + em / u, 0.0)
    return _normalised(X, Xd, alpha, (ep * ep - em * em) / alpha)


def _edge_jet_cmc(diag, u, t, alpha_sign=1.0):
    """K=+1 edge matrix jet of the L form; the flipped (M) form is this one at t + pi/2."""
    diag = np.asarray(diag, dtype=complex)
    u = np.asarray(u, dtype=float)
    eit = np.exp(1j * t)
    emt = np.exp(-1j * t)
    alpha2 = np.abs(diag) ** 2 + u * u + 1.0 / (u * u) + 2.0 * np.cos(2.0 * t)
    if np.any(alpha2 <= 0):
        raise BranchFailure(f"normalizer alpha^2 <= 0 (min {np.min(alpha2):.3e})")
    alpha = np.sign(alpha_sign) * np.sqrt(alpha2)
    X = quat.matrix(diag, -eit * u - emt / u, emt * u + eit / u, np.conj(diag))
    Xd = quat.matrix(0.0, -1j * eit * u + 1j * emt / u, -1j * emt * u + 1j * eit / u, 0.0)
    return _normalised(X, Xd, alpha, -2.0 * np.sin(2.0 * t) / alpha)


# ---------------------------------------------------------------------------
# K = -1 (construction 3)


def build_ck_connection(p: Profile, theta: float):
    """Flat K=-1 connection family for the rotational net of profile p, anchored at t = 0.

    Returns (ConnectionFamily, CkEdgeData).  The connection is invariant
    along the rotation direction k, whose step is theta; edge scalars are
    seeded from the profile normals:

        v(j)    = (-1)^j (sqrt(1 - kappa^2 a^2) - i kappa a(j)),
        h_frak  = 2 kappa cot(theta/2) + 2 i kappa b(j),
        u(j)^2  = v(j) v(j+1)  (branch with Re u > 0),

    and v_frak(j) = -2i (-1)^j sa Im u(j) / db, the unique scalar closing
    the flatness equations on each face, is imaginary by construction.
    """
    if p.K_sign != -1:
        raise InvalidProfile("K=-1 connection requires a K=-1 profile")
    _require_step(theta)
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
    v_frak = -2j * par[:-1] * (a[:-1] + a[1:]) * u.imag / (b[1:] - b[:-1])
    beta0 = 2.0 * kappa / np.sin(theta / 2.0)

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cgc(v_frak, u, t)
        M_edge, _ = _edge_jet_cgc(h_frak, v, t)
        if beta0 < 0:
            M_edge = MatJet(-M_edge.val, -M_edge.dot)
        return ConnectionFamily(L_edge[:, None], M_edge[:, None], t, assemble)

    _, alpha0 = _edge_jet_cgc(v_frak, u, 0.0)
    return assemble(0.0), CkEdgeData(u, v, v_frak, h_frak, alpha0, np.full(p.nj, beta0), p)


# ---------------------------------------------------------------------------
# K = +1 (constructions 1 and 2)


def build_cmc_connection(p: Profile, theta: float):
    """Flat K=+1 connection family for the rotational net of profile p, anchored at t = 0.

    kappa chooses the construction: kappa > 1 seeds the real vertex
    scalars v = a/q + sqrt((a/q)^2 + 1) with q = sqrt(kappa^2 - 1) and
    closes v_frak on the profile edges; kappa < 1 exchanges the roles,
    seeding u = (a + |f|)/q with q = sqrt(1 - kappa^2) and closing
    h_frak.  With sgn = -1 for kappa < 1 and +1 otherwise, the vertex
    scalars x satisfy x - sgn/x = 2a/q, and the edge scalars
    w = sqrt(x(j) x(j+1)) give the closing scalar sgn sa (w + sgn/w) / db.
    Both run the profile along j and are invariant along the rotation
    direction k, whose step is theta.  kappa = 1 is covered by neither
    construction (CaseMismatch).
    """
    if p.K_sign != +1:
        raise InvalidProfile("K=+1 connection requires a K=+1 profile")
    _require_step(theta)
    if not (p.kappa < 1.0 or p.kappa > 1.0):
        raise CaseMismatch(f"no K=+1 construction covers kappa = {p.kappa}")
    exchanged = p.kappa < 1.0
    sgn = -1.0 if exchanged else 1.0   # sign of the closing scalar
    q = np.sqrt(sgn * (p.kappa ** 2 - 1.0))
    a, b = p.a, p.b
    if exchanged:
        if not (np.all(a > 0) or np.all(a < 0)):
            raise CaseMismatch("kappa < 1 requires the radial normal component to keep its sign")
        x = (a + np.abs(p.f)) / q
    else:
        x = a / q + np.sqrt((a / q) ** 2 + 1.0)
    w = np.sqrt(x[:-1] * x[1:])
    if not exchanged and np.min(np.abs(np.abs(w) - 1.0)) < 1e-12:
        raise BranchFailure("u = +-1 on some profile edge (mirrored radial normals)")
    vertex_diag = 2.0 / (q * np.tan(theta / 2.0)) + 2j * b / q
    edge_diag = sgn * (a[:-1] + a[1:]) * (w + sgn / w) / (b[1:] - b[:-1])
    vertex_norm0 = 2.0 / (q * np.sin(theta / 2.0))
    # the flipped form is the L form a quarter turn on: M's for kappa > 1, L's for kappa < 1
    edge_turn, vertex_turn = (np.pi / 2.0, 0.0) if exchanged else (0.0, np.pi / 2.0)

    def assemble(t: float) -> ConnectionFamily:
        L_edge, _ = _edge_jet_cmc(edge_diag, w, t + edge_turn)
        M_edge, _ = _edge_jet_cmc(vertex_diag, x, t + vertex_turn, alpha_sign=vertex_norm0)
        return ConnectionFamily(L_edge[:, None], M_edge[:, None], t, assemble)

    _, edge_norm0 = _edge_jet_cmc(edge_diag, w, edge_turn)
    edge = (w, edge_diag.astype(complex), edge_norm0)
    vertex = (x, vertex_diag, np.full(p.nj, vertex_norm0))
    (u, v_frak, alpha0), (v, h_frak, beta0) = (vertex, edge) if exchanged else (edge, vertex)
    return assemble(0.0), CkEdgeData(u, v, v_frak, h_frak, alpha0, beta0, p)


# ---------------------------------------------------------------------------
# rotational frames


def initial_frame(a0: float, b0: float) -> np.ndarray:
    """Standard frame at the base vertex from its normal components (a0, b0)."""
    if abs(b0 + 1.0) < 1e-12:
        return np.array([[0.0, 1j], [1j, 0.0]])
    return (1j / np.sqrt(2.0 * (b0 + 1.0))) * np.array(
        [[b0 + 1.0, a0], [a0, -(b0 + 1.0)]], dtype=complex
    )


def rotational_frames(conn: ConnectionFamily, a0: float, b0: float, nk: int) -> FrameFamily:
    """Frames of a rotation-invariant connection on nk columns: Phi(j,k) = P(j) D^k, as factors.

    P(0) is the standard frame from (a0, b0) as a constant jet,
    P(j+1) = L(j) P(j) and D = P(0)^{-1} M(0) P(0); the P(j) form the
    row factor and the D^k, k = 0 .. nk-1, the column factor.  For a flat
    family their product coincides with direct integration.
    """
    if nk < 1:
        raise ValueError(f"frames need at least one column, got {nk}")
    phi00 = MatJet.constant(initial_frame(a0, b0))
    # the column factor is allocated before any work, so a grid too large fails at once
    Dk = MatJet(np.empty((nk, 2, 2), complex), np.zeros((nk, 2, 2), complex))
    Dk.val[0] = np.eye(2)
    cat = lambda *jets: MatJet(np.concatenate([m.val for m in jets]), np.concatenate([m.dot for m in jets]))
    P = [phi00[None]]
    for j in range(conn.L.shape[0]):
        P.append(conn.L[j, 0] @ P[-1])
    D = phi00.inv() @ conn.M[0, 0] @ phi00
    n = 1
    while n < nk:   # doubling: D^n .. D^{2n-1} = D^n (D^0 .. D^{n-1}), up to D^{nk-1}
        step = D @ Dk[:min(n, nk - n)]
        Dk.val[n:2 * n], Dk.dot[n:2 * n] = step.val, step.dot
        D, n = D @ D, 2 * n
    return FrameFamily(cat(*P)[:, None], conn.t0, Dk)


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

    s is the unit vertex function per profile column; ell and m are the
    edge eigenvalue-like scalars; delta1 (per profile edge) and delta2
    (global) are the edge angles, complex of the form +-pi/2 + i y when
    |2/alpha| > 1.  ``profile`` is the profile they were built from, which
    the transforms sweep.  ``gauge`` is the unit-determinant vertex gauge
    diag(r/sqrt(i), sqrt(i)/r) with r(j+1) = u(j)/r(j), a square root of
    s: one matrix per profile row, of shape (nj, 1, 2, 2).
    """

    s: np.ndarray
    ell: np.ndarray
    m: np.ndarray
    delta1: np.ndarray
    delta2: complex
    u: np.ndarray
    profile: Profile
    gauge: MatJet = field(repr=False, compare=False, default=None)


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
    if data.profile.K_sign != -1:
        raise CaseMismatch("normal form gauge applies to the K=-1 family")
    if conn.t0 != 0.0:
        raise ConfigError("normal form gauge is anchored at t0 = 0")
    s = data.v
    r = np.empty(len(s), dtype=complex)
    r[0] = np.sqrt(s[0])
    for j in range(len(s) - 1):
        r[j + 1] = data.u[j] / r[j]
    # the complex arcsin of w = 2/alpha is real for |w| <= 1, else +-pi/2 + i arccosh|w|
    delta = np.arcsin(2.0 / np.append(data.alpha0, data.beta0[0]).astype(complex))
    tn = np.tan(delta / 2.0)
    bad = ~(np.isfinite(tn) & (np.abs(tn) >= 1e-14))
    if np.any(bad):
        raise DivisionByZero(f"edge angle produced tan(delta/2) = {tn[bad][0]}")
    delta1, delta2, t1, t2 = delta[:-1], complex(delta[-1]), tn[:-1], tn[-1]
    ell = data.v_frak / (1.0 / (data.u * t1) + data.u * t1)
    m = data.h_frak / (1.0 / (s * t2) + s * t2)
    sq_i = np.exp(1j * np.pi / 4.0)
    G = quat.matrix(r / sq_i, 0.0, 0.0, sq_i / r)
    return HsLaxData(s, ell, m, delta1, delta2, data.u, data.profile, MatJet.constant(G[:, None]))


def lax_entries(diag_l, diag_r, prod, t: float):
    """Entries (a, b, c, d, da, db, dc, dd) of [[diag_l, i(e^t - e^-t prod)], [i(e^t - e^-t / prod),
    diag_r]] and of its t-derivative: the normal-form edge matrices and the double transform VW."""
    ep, em = np.exp(t), np.exp(-t)
    return (diag_l, 1j * (ep - em * prod), 1j * (ep - em / prod), diag_r,
            0.0, 1j * (ep + em * prod), 1j * (ep + em / prod), 0.0)


def hs_lax(hs: HsLaxData, t: float = 0.0) -> ConnectionFamily:
    """The normal-form Lax pair built directly from its scalar data.

    L(j) = [[ell (cot(d1/2)/s(j) + tan(d1/2) s(j+1)),  i(e^t - e^{-t} s(j)s(j+1))],
            [i(e^t - e^{-t}/(s(j)s(j+1))),  (1/ell)(s(j) cot(d1/2) + tan(d1/2)/s(j+1))]]

    and M(j) likewise with m, delta2 and s(j)^2 in the off-diagonals.
    """
    s, ell, m = hs.s, hs.ell, hs.m
    ct1, tn1 = 1.0 / np.tan(hs.delta1 / 2.0), np.tan(hs.delta1 / 2.0)
    ct2, tn2 = 1.0 / np.tan(hs.delta2 / 2.0), np.tan(hs.delta2 / 2.0)
    L_edge, M_edge = (MatJet(quat.matrix(*e[:4]), quat.matrix(*e[4:])) for e in (
        lax_entries(ell * (ct1 / s[:-1] + tn1 * s[1:]), (s[:-1] * ct1 + tn1 / s[1:]) / ell,
                    s[:-1] * s[1:], t),
        lax_entries(m * (ct2 / s + tn2 * s), (s * ct2 + tn2 / s) / m, s * s, t)))
    return ConnectionFamily(L_edge[:, None], M_edge[:, None], t, lambda tt: hs_lax(hs, tt))

