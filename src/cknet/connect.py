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
is covered by neither.  K = -1 is construction 3.  Only the catalogue and
the tests build the K = +1 families (``reference.build_cmc_connection``).
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

import numpy as np

from . import _Record, _reference_shim, quat
from .errors import BranchFailure, CaseMismatch, ConfigError, DivisionByZero, InvalidProfile
from .lattice import ConnectionFamily, MatJet
from .revolution import Profile, _require_step


class CkEdgeData(_Record):
    """Scalar edge data of a rotational flat connection at t = 0, seeded from ``profile``.

    The profile's K_sign and, for K = +1, kappa choose the construction.
    For K = -1 and for K = +1 with kappa > 1, u, v_frak and alpha0 live on
    the profile edges and v, h_frak on the profile vertices, whose rotation
    edges they build; beta0 is the same number for every row.  K = +1 with
    kappa < 1 exchanges the roles: u and v_frak live on the profile
    vertices, v, h_frak and beta0 on the profile edges, and alpha0 is the
    same number for every row.  u and v are real when K = +1.
    """

    __slots__ = ("u", "v", "v_frak", "h_frak", "alpha0", "beta0", "profile")

    def __init__(self, u, v, v_frak, h_frak, alpha0, beta0, profile: Profile):
        self._fill(u, v, v_frak, h_frak, alpha0, beta0, profile)


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
    alpha2 = np.abs(diag) ** 2 - 2.0 * (u * u).real + ep * ep + em * em
    if (alpha2 <= 0).any():
        raise BranchFailure(f"normalizer alpha^2 <= 0 (min {alpha2.min():.3e})")
    alpha = np.sqrt(alpha2)
    X = quat.matrix(diag, em * u - ep / u, ep * u - em / u, np.conj(diag))
    Xd = quat.matrix(0.0, -em * u - ep / u, ep * u + em / u, 0.0)
    return _normalised(X, Xd, alpha, (ep * ep - em * em) / alpha)


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
    When f < 0 they are seeded from ``p.mirrored()``: seeded from p, the Sym
    net of the connection is a K = -1 net but not p's.  The edge data carry p.
    """
    if p.K_sign != -1:
        raise InvalidProfile("K=-1 connection requires a K=-1 profile")
    _require_step(theta)
    q = p.mirrored() if p.f[0] < 0 else p
    kappa, a, b = q.kappa, q.a, q.b
    par = np.where(p.js % 2 == 0, 1.0, -1.0)
    re2 = 1.0 - (kappa * a) ** 2
    if re2.min() < 1e-24:
        raise BranchFailure("Re v = 0 on some column (radius vanishes)")
    v = par * (np.sqrt(re2.clip(0.0, None)) - 1j * kappa * a)
    u = np.sqrt(v[:-1] * v[1:])
    if u.real.min() < 1e-12:
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
# gauge to the normal (Lax) form, K = -1


class HsLaxData(_Record):
    """Scalar data of the gauged K=-1 normal form.

    s is the unit vertex function per profile column; ell and m are the
    edge eigenvalue-like scalars; delta1 (per profile edge) and delta2
    (global) are the edge angles, complex of the form +-pi/2 + i y when
    |2/alpha| > 1.  ``profile`` is the profile they were built from, which
    the transforms sweep.  ``gauge`` is the unit-determinant vertex gauge
    diag(r/sqrt(i), sqrt(i)/r) with r(j+1) = u(j)/r(j), a square root of
    s: one matrix per profile row, of shape (nj, 1, 2, 2).
    """

    __slots__ = ("s", "ell", "m", "delta1", "delta2", "u", "profile", "gauge")

    def __init__(self, s, ell, m, delta1, delta2: complex, u, profile: Profile, gauge=None):
        self._fill(s, ell, m, delta1, delta2, u, profile, gauge)


def gauge_to_hs(conn: ConnectionFamily, data: CkEdgeData):
    """Gauge a K=-1 rotational connection into its normal Lax form.

    Returns the HsLaxData; its ``gauge`` field carries the vertex gauge
    diag(sqrt(s)/sqrt(i), sqrt(i)/sqrt(s)), with the square-root branch
    chained so that ``reference.gauge(conn, hs.gauge)`` times alpha0[j] on
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
    if bad.any():
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


__getattr__ = _reference_shim(__name__)   # perfbench's TRACED names (see ``cknet``)
