"""Reference constructions: what only ``cknet check`` and the tests run.

The net commands sweep the profile and evaluate the Sym formula of a
transform in closed form (``nets.explicit_sym``).  What those closed forms
are measured against lives here: parallel frames and gauges, the Sym
formula of frames, the K = +1 connections (``connect`` states their
edge matrices), the normal-form Lax pair built from its scalars, closing
residuals, principal curvatures and singular vertices, rigid alignment,
the profile's own Gauss curvature and relations, and the quaternion
helpers these use.  No net command loads this module.
"""

from __future__ import annotations

import numpy as np

from . import _Record
from .connect import CkEdgeData, HsLaxData, _normalised, lax_entries
from .errors import (BranchFailure, CaseMismatch, ConfigError, DegenerateEdge, DegenerateGeometry,
                     InvalidProfile, NotPrincipal, ZeroEdge)
from .lattice import ConnectionFamily, MatJet
from .nets import ContactElementNet, _face_pass, _real_blocks
from .quat import inv, matrix, qconj
from .revolution import Profile, _require_step, conservation_drift, edge_residuals


# ---------------------------------------------------------------------------
# quaternion helpers


sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def quat(w, x, y, z):
    """Build quaternion matrices from four real (broadcastable) components."""
    w, x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (w, x, y, z)))
    return matrix(w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z)


def parts(q):
    """Real components (w, x, y, z), averaging the redundant entries."""
    q = np.asarray(q, dtype=complex)
    w = (q[..., 0, 0] + q[..., 1, 1]).real / 2.0
    x = -(q[..., 0, 1] + q[..., 1, 0]).imag / 2.0
    y = (q[..., 1, 0] - q[..., 0, 1]).real / 2.0
    z = (q[..., 1, 1] - q[..., 0, 0]).imag / 2.0
    return w, x, y, z


def embed(v):
    """Vec3 -> imaginary quaternion: (x,y,z) |-> x(-i s1) + y(-i s2) + z(-i s3)."""
    v = np.asarray(v, dtype=float)
    return quat(np.zeros(v.shape[:-1]), v[..., 0], v[..., 1], v[..., 2])


def coords_complex(q):
    """Complex (x, y, z) coordinates of the trace-free part of q.

    The basis (sigma0, -i sigma1, -i sigma2, -i sigma3) spans all complex
    2x2 matrices over C, so these linear combinations are defined for any
    matrix; they are real exactly on quaternion-span members.
    """
    q = np.asarray(q, dtype=complex)
    x = 0.5j * (q[..., 0, 1] + q[..., 1, 0])
    y = 0.5 * (q[..., 1, 0] - q[..., 0, 1])
    z = 0.5j * (q[..., 0, 0] - q[..., 1, 1])
    return np.stack([x, y, z], axis=-1)


def conjugate_rotate(R, v):
    """Rotate v by conjugation: the real R^3 coordinates of R^{-1} embed(v) R."""
    Rm = np.asarray(R, dtype=complex)
    return coords_complex(inv(Rm) @ embed(v) @ Rm).real


# ---------------------------------------------------------------------------
# parallel frames, gauges and the Sym formula of frames


class FrameFamily(_Record):
    """Vertex frames Phi = rows @ cols as jets: rows (nj, 1, 2, 2) for frames that factor,
    (nj, nk, 2, 2) for dense ones; cols (nk, 2, 2), by default the identity.  The factors
    give the grid shape (nj, nk); ``Phi`` forms the (nj, nk, 2, 2) grid only when it is read."""

    __slots__ = ("rows", "t0", "cols")

    def __init__(self, rows: MatJet, t0: float = 0.0, cols: MatJet = None):
        self._fill(rows, t0, MatJet.constant(np.eye(2)[None]) if cols is None else cols)

    def __post_init__(self):
        if len(self.rows.shape) != 4 or len(self.cols.shape) != 3:
            raise ValueError(f"frame factor shapes {self.rows.shape}, {self.cols.shape} are not "
                             "(nj, 1 or nk, 2, 2), (nk, 2, 2)")
        self.shape   # raises ValueError when the factors do not broadcast

    @property
    def shape(self):
        """(nj, nk), the grid of the frames."""
        return np.broadcast_shapes(self.rows.shape, self.cols.shape)[:2]

    @property
    def Phi(self) -> MatJet:
        return self.rows @ self.cols


def gauge(conn: ConnectionFamily, G: MatJet) -> ConnectionFamily:
    """Gauge action on a connection: edge pq maps to G_q eta_qp G_p^{-1}.

    G is one vertex gauge jet per profile row, of shape (nj, 1, 2, 2), so
    the gauged family is again the same in every column; any other shape
    raises ValueError.  The rebuild hook is dropped (the gauged family is
    anchored at conn.t0 only).
    """
    if G.shape != conn.M.shape:
        raise ValueError(f"gauge shape {G.shape} is not one jet per profile row, {conn.M.shape}")
    Gi = G.inv()
    return ConnectionFamily(G[1:] @ conn.L @ Gi[:-1], G @ conn.M @ Gi, conn.t0)


def gauge_frame(frames: FrameFamily, G: MatJet) -> FrameFamily:
    """Gauge action on frames: Phi maps to G Phi (parallel for the gauged connection).

    G multiplies the row factor, so a gauge held once per profile row keeps
    factored frames factored."""
    return FrameFamily(G @ frames.rows, frames.t0, frames.cols)


def admissible_gauge(c_val, c_dot, y) -> MatJet:
    """Vertexwise gauge exp(c(t) sigma0 + i y sigma3) with y independent of t.

    c_val, c_dot are the real value/derivative of the scalar exponent at
    the base parameter; y is a real vertex function.  Gauges of this form
    leave the induced geometry (positions and normals) unchanged.
    """
    c_val = np.asarray(c_val, dtype=float)
    c_dot = np.asarray(c_dot, dtype=float)
    y = np.asarray(y, dtype=float)
    c_val, c_dot, y = np.broadcast_arrays(c_val, c_dot, y)
    val = matrix(np.exp(c_val + 1j * y), 0.0, 0.0, np.exp(c_val - 1j * y))
    return MatJet(val, c_dot[..., None, None] * val)


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


_BASIS = np.array([-1j * sigma1, -1j * sigma2, -1j * sigma3])


def _factor_terms(F: MatJet):
    """Planes R[i, j] of the adjoint map R(F) and w[i] of coords(F^{-1} dF) of frame factors."""
    val, dot = F.val[..., None, :, :], F.dot[..., None, :, :]
    c = coords_complex(inv(val) @ np.concatenate([_BASIS @ val, dot], axis=-3))
    c = np.moveaxis(c, (-1, -2), (0, 1))   # c[i, j] = coords_i(F^{-1} E_j F); j = 3: F^{-1} dF
    return c[:, :3], c[:, 3]


def _sym_planes(frames: FrameFamily, xi: float):
    """``planes(rows)`` of the Sym net of Phi for ``_real_blocks``, through the adjoint maps of
    the frame factors: n = R(D^k) R(Q) e3, x = xi (R(D^k) coords(Q^{-1} dQ) + coords(D^-k dD^k))."""
    (RQ, wq), (RD, wd) = _factor_terms(frames.rows), _factor_terms(frames.cols)
    apply = lambda v: np.einsum("ij...,j...->i...", RD, v)   # planes of R(D^k) v
    return lambda rows: (xi * (apply(wq[:, rows]) + wd[:, None]), apply(RQ[:, 2, rows]))


def sym_arrays(frames: FrameFamily, xi: float):
    """Complex coordinate arrays (x, n), shape (nj, nk, 3), of the Sym net of Phi, unchecked."""
    return tuple(np.stack(c, axis=-1) for c in _sym_planes(frames, xi)(slice(None)))


def sym(frames: FrameFamily, xi: float) -> ContactElementNet:
    """Real parameter-derivative net of Phi, one block of rows at a time (``_real_blocks``)."""
    return ContactElementNet(*_real_blocks(*frames.shape, _sym_planes(frames, xi))[:2])


# ---------------------------------------------------------------------------
# K = +1 connections, the normal form from its scalars, closing residuals


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
    X = matrix(diag, -eit * u - emt / u, emt * u + eit / u, np.conj(diag))
    Xd = matrix(0.0, -1j * eit * u + 1j * emt / u, -1j * emt * u + 1j * eit / u, 0.0)
    return _normalised(X, Xd, alpha, -2.0 * np.sin(2.0 * t) / alpha)


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
    construction (CaseMismatch).  As for K = -1, a meridian with f < 0 seeds
    the scalars from ``p.mirrored()``.
    """
    if p.K_sign != +1:
        raise InvalidProfile("K=+1 connection requires a K=+1 profile")
    _require_step(theta)
    if not (p.kappa < 1.0 or p.kappa > 1.0):
        raise CaseMismatch(f"no K=+1 construction covers kappa = {p.kappa}")
    exchanged = p.kappa < 1.0
    sgn = -1.0 if exchanged else 1.0   # sign of the closing scalar
    q = np.sqrt(sgn * (p.kappa ** 2 - 1.0))
    a, b = (p.mirrored() if p.f[0] < 0 else p).a, p.b
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


def hs_lax(hs: HsLaxData, t: float = 0.0) -> ConnectionFamily:
    """The normal-form Lax pair built directly from its scalar data.

    L(j) = [[ell (cot(d1/2)/s(j) + tan(d1/2) s(j+1)),  i(e^t - e^{-t} s(j)s(j+1))],
            [i(e^t - e^{-t}/(s(j)s(j+1))),  (1/ell)(s(j) cot(d1/2) + tan(d1/2)/s(j+1))]]

    and M(j) likewise with m, delta2 and s(j)^2 in the off-diagonals.
    """
    s, ell, m = hs.s, hs.ell, hs.m
    ct1, tn1 = 1.0 / np.tan(hs.delta1 / 2.0), np.tan(hs.delta1 / 2.0)
    ct2, tn2 = 1.0 / np.tan(hs.delta2 / 2.0), np.tan(hs.delta2 / 2.0)
    L_edge, M_edge = (MatJet(matrix(*e[:4]), matrix(*e[4:])) for e in (
        lax_entries(ell * (ct1 / s[:-1] + tn1 * s[1:]), (s[:-1] * ct1 + tn1 / s[1:]) / ell,
                    s[:-1] * s[1:], t),
        lax_entries(m * (ct2 / s + tn2 * s), (s * ct2 + tn2 / s) / m, s * s, t)))
    return ConnectionFamily(L_edge[:, None], M_edge[:, None], t, lambda tt: hs_lax(hs, tt))


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
# geometry of nets and profiles: faces, principal curvatures, singular vertices, rigid
# alignment, the profile's own relations


def face_diagonals(net: ContactElementNet, rows: slice = slice(None)):
    """Both diagonal differences of x and n per face: (xd1, xd2, nd1, nd2).

    xd1 = x(j+1,k+1) - x(j,k),  xd2 = x(j+1,k) - x(j,k+1); same for n.
    Shapes (nj-1, nk-1, 3), or (len(rows), nk-1, 3) on the face rows of the
    unit-step slice ``rows``.
    """
    j, stop, _ = rows.indices(net.shape[0] - 1)
    x, n = net.x[j:stop + 1], net.n[j:stop + 1]
    xd1 = x[1:, 1:] - x[:-1, :-1]
    xd2 = x[1:, :-1] - x[:-1, 1:]
    nd1 = n[1:, 1:] - n[:-1, :-1]
    nd2 = n[1:, :-1] - n[:-1, 1:]
    return xd1, xd2, nd1, nd2


def face_normal(net: ContactElementNet) -> np.ndarray:
    """Unit face normals N, shape (nj-1, nk-1, 3).

    N is orthogonal to both diagonals of n, oriented so that
    det(xd1, xd2, N) >= 0.  When the normal diagonals span only a line,
    the component of xd1 x xd2 orthogonal to that line is used; when they
    both vanish, N falls back to the normalized xd1 x xd2.  A face whose
    x-diagonals are also degenerate raises DegenerateFace.  Cross products
    and vectors of norm at most 1e-10 count as degenerate.  The face pass
    leaves N unoriented, since K and its degenerate mask do not read the
    sign; the flip is made here, where det(xd1, xd2, N) < 0.
    """
    *_, N, det_x = _face_pass(net, slice(0, None))
    N[det_x < 0] *= -1.0
    return N


_PRINCIPAL_TOL = 1e-8   # largest |dn + R dx| / max(1, |dn|) of curvature-line data


def principal_curvatures(net: ContactElementNet):
    """Per-edge principal curvatures R with dn = -R dx (least squares).

    Returns (Rj, Rk) of shapes (nj-1, nk) and (nj, nk-1).  An edge whose
    normal difference is not parallel to its position difference within
    ``_PRINCIPAL_TOL`` raises NotPrincipal; a zero position edge raises ZeroEdge.
    """
    out = []
    for axis, name in ((0, "j"), (1, "k")):
        dx, dn = np.diff(net.x, axis=axis), np.diff(net.n, axis=axis)
        nx2 = np.einsum("...i,...i->...", dx, dx)
        if np.min(nx2) < 1e-28:
            raise ZeroEdge(f"zero {name}-edge in position net")
        R = -np.einsum("...i,...i->...", dn, dx) / nx2
        resid = np.linalg.norm(dn + R[..., None] * dx, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(dn, axis=-1))
        worst = np.max(resid / scale)
        if not (worst <= _PRINCIPAL_TOL):
            idx = np.unravel_index(np.argmax(resid / scale), resid.shape)
            raise NotPrincipal(
                f"{name}-edge {tuple(int(i) for i in idx)}: dn is not parallel to dx "
                f"(residual {worst:.3e} > {_PRINCIPAL_TOL:.3e})"
            )
        out.append(R)
    return out[0], out[1]


def singular_vertices(net: ContactElementNet) -> set[tuple[int, int]]:
    """Grid indices where a principal curvature changes sign (or vanishes).

    A vertex interior to a lattice direction is singular when the product
    of the incoming and outgoing principal curvatures along that
    direction is <= 0.
    """
    Rj, Rk = principal_curvatures(net)
    bad: set[tuple[int, int]] = set()
    prod_j = Rj[:-1, :] * Rj[1:, :]
    for j, k in zip(*np.nonzero(prod_j <= 0.0)):
        bad.add((int(j) + 1, int(k)))
    prod_k = Rk[:, :-1] * Rk[:, 1:]
    for j, k in zip(*np.nonzero(prod_k <= 0.0)):
        bad.add((int(j), int(k) + 1))
    return bad


class AlignResult(_Record):
    """Rotation (unit quaternion matrix), translation, and the max deviation."""

    __slots__ = ("R", "T", "residual")

    def __init__(self, R: np.ndarray, T: np.ndarray, residual: float):
        self._fill(R, T, residual)


def rigid_align(net_a: ContactElementNet, net_b: ContactElementNet) -> AlignResult:
    """Best rigid motion carrying net_a onto net_b (closed form).

    Maximizes alignment of centered positions and of normals over all
    rotations via the standard 4x4 quaternion eigenvalue problem, then
    translates centroids.  Returns the rotation as a unit quaternion
    matrix R (apply with conjugate_rotate), the translation T, and
    the max pointwise deviation over positions and normals.
    """
    if net_a.shape != net_b.shape:
        raise ValueError(f"grid shapes differ: {net_a.shape} vs {net_b.shape}")
    xa = net_a.x.reshape(-1, 3)
    xb = net_b.x.reshape(-1, 3)
    na = net_a.n.reshape(-1, 3)
    nb = net_b.n.reshape(-1, 3)
    ca, cb = xa.mean(axis=0), xb.mean(axis=0)
    pa, pb = xa - ca, xb - cb
    for pts in (pa, pb):
        sv = np.linalg.svd(pts, compute_uv=False)
        if sv.size < 2 or sv[1] <= 1e-12 * max(1.0, sv[0]):
            raise DegenerateGeometry("positions are collinear; rotation is not determined")
    S = pa.T @ pb + na.T @ nb
    tr = np.trace(S)
    N4 = np.array([
        [tr, S[1, 2] - S[2, 1], S[2, 0] - S[0, 2], S[0, 1] - S[1, 0]],
        [S[1, 2] - S[2, 1], S[0, 0] - S[1, 1] - S[2, 2], S[0, 1] + S[1, 0], S[2, 0] + S[0, 2]],
        [S[2, 0] - S[0, 2], S[0, 1] + S[1, 0], S[1, 1] - S[0, 0] - S[2, 2], S[1, 2] + S[2, 1]],
        [S[0, 1] - S[1, 0], S[2, 0] + S[0, 2], S[1, 2] + S[2, 1], S[2, 2] - S[0, 0] - S[1, 1]],
    ])
    vals, vecs = np.linalg.eigh(N4)
    qv = vecs[:, -1]
    cand = quat(*qv)
    best = None
    for R in (cand, qconj(cand)):
        M = conjugate_rotate(R, np.eye(3))   # rows: the rotated basis, so v @ M rotates v
        rx, rn = xa @ M, na @ M
        T = cb - rx.mean(axis=0)
        res = max(
            float(np.max(np.linalg.norm(rx + T - xb, axis=-1))),
            float(np.max(np.linalg.norm(rn - nb, axis=-1))),
        )
        if best is None or res < best.residual:
            best = AlignResult(R, T, res)
    return best


_PROFILE_TOL = 1e-10   # drift of the profile relations that validate_profile accepts


def gauss_from_profile(p: Profile):
    """Discrete Gauss curvature per edge: K = -(b(j+1)-b(j)) / (c (f(j+1)+f(j))).

    Raises DegenerateEdge when f(j+1) = -f(j).
    """
    sf = p.f[1:] + p.f[:-1]
    if np.any(np.abs(sf) < 1e-14):
        raise DegenerateEdge("f(j+1) = -f(j) on some edge; curvature undefined")
    return -(p.b[1:] - p.b[:-1]) / (p.c * sf)


def validate_profile(p: Profile) -> None:
    """Raise InvalidProfile when the defining relations drift beyond ``_PROFILE_TOL``."""
    r = edge_residuals(p)
    unit = float(np.max(np.abs(p.a ** 2 + p.b ** 2 - 1.0)))
    drift = conservation_drift(p)
    if not (r <= _PROFILE_TOL and unit <= _PROFILE_TOL and drift <= 100 * _PROFILE_TOL):
        raise InvalidProfile(
            f"profile relations violated: edges {r:.3e}, unit normal {unit:.3e}, "
            f"conservation {drift:.3e} (tol {_PROFILE_TOL:.1e})"
        )
