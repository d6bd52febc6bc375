"""Contact-element nets: positions with unit normals on a quad lattice.

A net stores x (positions) and n (unit normals) of shape (nj, nk, 3).
The defining edge condition couples neighbouring contact elements:

    <x(next) - x, n(next) + n> = 0   along both lattice directions,

with non-degeneracy: no vanishing position edge, no vanishing normal sum,
and per face a nonzero volume det(xd1, xd2, N) where xd1, xd2 are the two
face diagonals of x and N is the unit normal of the face (orthogonal to
both diagonals of n).  Curvatures per face:

    K = det(nd1, nd2, N) / det(xd1, xd2, N)
    H = (det(xd1, nd2, N) + det(nd1, xd2, N)) / (2 det(xd1, xd2, N))

Nets are produced from parallel frames Phi by the parameter-derivative
formula

    x = xi * (Phi^{-1} dPhi/dt)^{tr=0} + tau * n,    n = Phi^{-1} (-i sigma3) Phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import quat
from .errors import DegenerateFace, DegenerateGeometry, NotPrincipal, ZeroEdge
from .lattice import FrameFamily


@dataclass(frozen=True)
class ContactElementNet:
    """Positions and unit normals on a rectangular grid, shape (nj, nk, 3)."""

    x: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        n = np.asarray(self.n, dtype=float)
        if x.shape != n.shape or x.ndim != 3 or x.shape[-1] != 3:
            raise ValueError(f"bad net shapes: x {x.shape}, n {n.shape}")
        err = np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) if n.size else 0.0
        if err > 1e-8:
            raise ValueError(f"normals deviate from unit length by {err:.3e}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "n", n)

    @property
    def shape(self):
        return self.x.shape[:2]


# ---------------------------------------------------------------------------
# construction from frames


def sym_arrays(frames: FrameFamily, xi: float, tau: float = 0.0):
    """Complex coordinate arrays (x, n) of the parameter-derivative net.

    No reality or unit-length validation is performed; callers that work
    with complex-parameter transforms inspect the imaginary parts
    themselves.  Shapes are (nj, nk, 3).
    """
    phi_inv = frames.Phi.inv()
    a = phi_inv.val @ frames.Phi.dot
    n_mat = phi_inv.val @ (-1j * quat.sigma3) @ frames.Phi.val
    n = quat.coords_complex(n_mat)
    x = xi * quat.coords_complex(a) + tau * n
    return x, n


def sym(frames: FrameFamily, xi: float, tau: float = 0.0, reality_tol: float = 1e-6) -> ContactElementNet:
    """Real parameter-derivative net; raises if coordinates are not real."""
    x, n = sym_arrays(frames, xi, tau)
    resid = max(np.max(np.abs(x.imag)), np.max(np.abs(n.imag)))
    scale = max(1.0, np.max(np.abs(x.real)))
    if resid > reality_tol * scale:
        raise ValueError(f"net coordinates have imaginary residue {resid:.3e}")
    return ContactElementNet(x.real, n.real)


# ---------------------------------------------------------------------------
# edge / face helpers


def _edges_j(arr):
    return arr[1:, :] - arr[:-1, :]


def _edges_k(arr):
    return arr[:, 1:] - arr[:, :-1]


def _sums_j(arr):
    return arr[1:, :] + arr[:-1, :]


def _sums_k(arr):
    return arr[:, 1:] + arr[:, :-1]


def face_diagonals(net: ContactElementNet):
    """Both diagonal differences of x and n per face: (xd1, xd2, nd1, nd2).

    xd1 = x(j+1,k+1) - x(j,k),  xd2 = x(j+1,k) - x(j,k+1); same for n.
    Shapes (nj-1, nk-1, 3).
    """
    x, n = net.x, net.n
    xd1 = x[1:, 1:] - x[:-1, :-1]
    xd2 = x[1:, :-1] - x[:-1, 1:]
    nd1 = n[1:, 1:] - n[:-1, :-1]
    nd2 = n[1:, :-1] - n[:-1, 1:]
    return xd1, xd2, nd1, nd2


def _det3(a, b, c):
    return np.einsum("...i,...i->...", np.cross(a, b), c)


def face_normal(net: ContactElementNet, rank_tol: float = 1e-10) -> np.ndarray:
    """Unit face normals N, shape (nj-1, nk-1, 3).

    N is orthogonal to both diagonals of n, oriented so that
    det(xd1, xd2, N) >= 0.  When the normal diagonals span only a line,
    the component of xd1 x xd2 orthogonal to that line is used; when they
    both vanish, N falls back to the normalized xd1 x xd2.  A face whose
    x-diagonals are also degenerate raises DegenerateFace.
    """
    xd1, xd2, nd1, nd2 = face_diagonals(net)
    c_n = np.cross(nd1, nd2)
    c_x = np.cross(xd1, xd2)
    N = np.empty_like(c_n)
    generic = np.linalg.norm(c_n, axis=-1) > rank_tol
    g = c_n[generic]
    # a batched 1x3 @ 3x1 product rounds like np.linalg.norm of one vector
    N[generic] = g / np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0])
    for j, k in zip(*np.nonzero(~generic)):
        m = nd1[j, k] if np.linalg.norm(nd1[j, k]) >= np.linalg.norm(nd2[j, k]) else nd2[j, k]
        if np.linalg.norm(m) > rank_tol:
            mhat = m / np.linalg.norm(m)
            v = c_x[j, k] - np.dot(c_x[j, k], mhat) * mhat
            if np.linalg.norm(v) <= rank_tol:
                axis = np.zeros(3)
                axis[int(np.argmin(np.abs(mhat)))] = 1.0
                v = np.cross(mhat, axis)
        else:
            v = c_x[j, k]
            if np.linalg.norm(v) <= rank_tol:
                raise DegenerateFace(
                    f"face ({j},{k}): neither normal nor position diagonals span a plane"
                )
        N[j, k] = v / np.linalg.norm(v)
    sign = _det3(xd1, xd2, N)
    N[sign < 0] *= -1.0
    return N


@dataclass(frozen=True)
class FaceReport:
    """Curvature data of one face; K and H are None on degenerate faces."""

    face: tuple[int, int]
    K: Optional[float]
    H: Optional[float]
    cross_ratio: complex
    embedded: bool
    degenerate: bool
    det_x: float
    normal: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Aggregated per-face curvature arrays; degenerate faces are flagged."""

    K: np.ndarray          # (nj-1, nk-1), nan on degenerate faces
    H: np.ndarray
    det_x: np.ndarray
    degenerate: np.ndarray  # bool mask
    normal: np.ndarray      # (nj-1, nk-1, 3)


def curvature_report(net: ContactElementNet, det_tol: float = 1e-12) -> CurvatureReport:
    """Gauss and mean curvature for every face; no raise on degenerate faces."""
    xd1, xd2, nd1, nd2 = face_diagonals(net)
    N = face_normal(net)
    den = _det3(xd1, xd2, N)
    degenerate = np.abs(den) <= det_tol
    safe = np.where(degenerate, 1.0, den)
    K = np.where(degenerate, np.nan, _det3(nd1, nd2, N) / safe)
    H = np.where(degenerate, np.nan, 0.5 * (_det3(xd1, nd2, N) + _det3(nd1, xd2, N)) / safe)
    return CurvatureReport(K, H, den, degenerate, N)


def curvatures(net: ContactElementNet, face: Optional[tuple[int, int]] = None,
               det_tol: float = 1e-12) -> "FaceReport | CurvatureReport":
    """Per-face curvature report, or the aggregate when face is None.

    For a single face the non-degeneracy condition det(xd1,xd2,N) != 0 is
    enforced (DegenerateFace); the aggregate only flags such faces.
    """
    rep = curvature_report(net, det_tol)
    if face is None:
        return rep
    j, k = face
    if rep.degenerate[j, k]:
        raise DegenerateFace(f"face ({j},{k}): |det(xd1, xd2, N)| = {abs(rep.det_x[j, k]):.3e}")
    cr, emb = cross_ratio(net, (j, k))
    return FaceReport((j, k), float(rep.K[j, k]), float(rep.H[j, k]), cr, emb,
                      False, float(rep.det_x[j, k]), rep.normal[j, k])


def cross_ratio(net: ContactElementNet, face: tuple[int, int],
                imag_tol: float = 1e-8):
    """Quaternionic cross ratio of the face corners p, q, r, s.

    Returns (z, embedded) with z = w + i*|vector part| the conjugacy class
    of (x_p-x_q)(x_q-x_r)^{-1}(x_r-x_s)(x_s-x_p)^{-1}.  The face is
    concyclic when z is real (|Im z| < imag_tol * |z|) and embedded when
    additionally z < 0.
    """
    j, k = face
    xp = net.x[j, k]
    xq = net.x[j + 1, k]
    xr = net.x[j + 1, k + 1]
    xs = net.x[j, k + 1]
    edges = [xp - xq, xq - xr, xr - xs, xs - xp]
    for i, e in enumerate(edges):
        if np.linalg.norm(e) < 1e-14:
            raise ZeroEdge(f"face ({j},{k}): corner edge {i} has zero length")
    m = (quat.embed(edges[0]) @ quat.inv(quat.embed(edges[1]))
         @ quat.embed(edges[2]) @ quat.inv(quat.embed(edges[3])))
    w, vx, vy, vz = quat.parts(m)
    z = complex(w, np.linalg.norm([vx, vy, vz]))
    concyclic = abs(z.imag) < imag_tol * abs(z)
    embedded = bool(concyclic and z.real < 0)
    return z, embedded


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class EcReport:
    """Residuals of the edge condition and the non-degeneracy requirements."""

    ec_j: np.ndarray          # |<dx, n_sum>| per j-edge, (nj-1, nk)
    ec_k: np.ndarray          # per k-edge, (nj, nk-1)
    edge_x_j: np.ndarray      # |dx| per j-edge
    edge_x_k: np.ndarray
    edge_n_j: np.ndarray      # |n_sum| per j-edge
    edge_n_k: np.ndarray
    det_x: np.ndarray         # face volumes det(xd1, xd2, N)
    tol: float
    edge_tol: float
    det_tol: float

    @property
    def max_ec(self) -> float:
        return float(max(np.max(self.ec_j), np.max(self.ec_k)))

    @property
    def ok(self) -> bool:
        return (self.max_ec <= self.tol
                and np.min(self.edge_x_j) > self.edge_tol
                and np.min(self.edge_x_k) > self.edge_tol
                and np.min(self.edge_n_j) > self.edge_tol
                and np.min(self.edge_n_k) > self.edge_tol
                and np.min(np.abs(self.det_x)) > self.det_tol)


def validate_ec(net: ContactElementNet, tol: float = 1e-9,
                edge_tol: float = 1e-12, det_tol: float = 1e-12) -> EcReport:
    """Check the edge condition and non-degeneracy; returns a report."""
    x, n = net.x, net.n
    dxj, dxk = _edges_j(x), _edges_k(x)
    snj, snk = _sums_j(n), _sums_k(n)
    ec_j = np.abs(np.einsum("...i,...i->...", dxj, snj))
    ec_k = np.abs(np.einsum("...i,...i->...", dxk, snk))
    xd1, xd2, _, _ = face_diagonals(net)
    N = face_normal(net)
    return EcReport(
        ec_j, ec_k,
        np.linalg.norm(dxj, axis=-1), np.linalg.norm(dxk, axis=-1),
        np.linalg.norm(snj, axis=-1), np.linalg.norm(snk, axis=-1),
        _det3(xd1, xd2, N), tol, edge_tol, det_tol,
    )


# ---------------------------------------------------------------------------
# principal curvatures and singular vertices


def principal_curvatures(net: ContactElementNet, tol: float = 1e-8):
    """Per-edge principal curvatures R with dn = -R dx (least squares).

    Returns (Rj, Rk) of shapes (nj-1, nk) and (nj, nk-1).  An edge whose
    normal difference is not parallel to its position difference within
    ``tol`` raises NotPrincipal; a zero position edge raises ZeroEdge.
    """
    out = []
    for dx, dn, name in (
        (_edges_j(net.x), _edges_j(net.n), "j"),
        (_edges_k(net.x), _edges_k(net.n), "k"),
    ):
        nx2 = np.einsum("...i,...i->...", dx, dx)
        if np.min(nx2) < 1e-28:
            raise ZeroEdge(f"zero {name}-edge in position net")
        R = -np.einsum("...i,...i->...", dn, dx) / nx2
        resid = np.linalg.norm(dn + R[..., None] * dx, axis=-1)
        scale = np.maximum(1.0, np.linalg.norm(dn, axis=-1))
        worst = np.max(resid / scale)
        if worst > tol:
            idx = np.unravel_index(np.argmax(resid / scale), resid.shape)
            raise NotPrincipal(
                f"{name}-edge {tuple(int(i) for i in idx)}: dn is not parallel to dx "
                f"(residual {worst:.3e} > {tol:.3e})"
            )
        out.append(R)
    return out[0], out[1]


def singular_vertices(net: ContactElementNet, tol: float = 1e-8) -> set[tuple[int, int]]:
    """Grid indices where a principal curvature changes sign (or vanishes).

    A vertex interior to a lattice direction is singular when the product
    of the incoming and outgoing principal curvatures along that
    direction is <= 0.
    """
    Rj, Rk = principal_curvatures(net, tol)
    bad: set[tuple[int, int]] = set()
    prod_j = Rj[:-1, :] * Rj[1:, :]
    for j, k in zip(*np.nonzero(prod_j <= 0.0)):
        bad.add((int(j) + 1, int(k)))
    prod_k = Rk[:, :-1] * Rk[:, 1:]
    for j, k in zip(*np.nonzero(prod_k <= 0.0)):
        bad.add((int(j), int(k) + 1))
    return bad


# ---------------------------------------------------------------------------
# rigid alignment


@dataclass(frozen=True)
class AlignResult:
    """Rotation (unit quaternion matrix), translation, and the max deviation."""

    R: np.ndarray
    T: np.ndarray
    residual: float


def rigid_align(net_a: ContactElementNet, net_b: ContactElementNet) -> AlignResult:
    """Best rigid motion carrying net_a onto net_b (closed form).

    Maximizes alignment of centered positions and of normals over all
    rotations via the standard 4x4 quaternion eigenvalue problem, then
    translates centroids.  Returns the rotation as a unit quaternion
    matrix R (apply with quat.conjugate_rotate), the translation T, and
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
    cand = quat.quat(*qv)
    best = None
    for R in (cand, quat.qconj(cand)):
        rx = quat.conjugate_rotate(R, xa)
        rn = quat.conjugate_rotate(R, na)
        T = cb - rx.mean(axis=0)
        res = max(
            float(np.max(np.linalg.norm(rx + T - xb, axis=-1))),
            float(np.max(np.linalg.norm(rn - nb, axis=-1))),
        )
        if best is None or res < best.residual:
            best = AlignResult(R, T, res)
    return best
