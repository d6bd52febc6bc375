"""Contact-element nets: positions with unit normals on a quad lattice.

A net stores x (positions) and n (unit normals) of shape (nj, nk, 3).
The defining edge condition couples neighbouring contact elements:

    <x(next) - x, n(next) + n> = 0   along both lattice directions,

with non-degeneracy: no vanishing position edge, no vanishing normal sum,
and per face a nonzero volume det(xd1, xd2, N) where xd1, xd2 are the two
face diagonals of x and N is the unit normal of the face (orthogonal to
both diagonals of n).  The Gauss curvature of a face is

    K = det(nd1, nd2, N) / det(xd1, xd2, N).

Nets are produced from parallel frames Phi = Q D^k and a transform jet T
(W, V or VW; the identity for the base net) by the Sym formula
x = xi * coords(F^{-1} dF/dt), n = coords(F^{-1} (-i sigma3) F) for F = T Phi,
coords being the (x, y, z) part; the parallel net at distance tau is x + tau n.
With the adjoint map R(g), coords(g^{-1} X g) = R(g) coords(X), n = R(Phi) coords(T^{-1}
(-i sigma3) T) and x = x_Phi + xi R(Phi) coords(T^{-1} dT), x_Phi the Sym net of Phi:
``sym`` forms it through the adjoint maps of the frame factors.  On a K = -1 rotational
net R(Phi) is explicit, so ``explicit_sym`` forms no frame.  Up to the rigid motion the
initial frame at (j_lo, 0) fixes, the ungauged frame P(j) D^k carries e0, e1, e2 to
-sigma_j e_mer, sigma_j e_par, n (sigma_j = (-1)^j by the absolute row label), where in
``build_rcnet``'s frame n = (a, 0, b), e_mer = (-b, 0, a) and e_par is the parallel
direction; the gauge diag(r/sqrt(i), sqrt(i)/r), r^2 = s_j, turns e0, e1 about e2 by
arg(s_j) - pi/2.  So with e^{i phi_j} = sigma_j / s_j = sqrt(1 - kappa^2 a_j^2) + i kappa a_j,
R(G Phi) = (E0, E1, n), E0 = sin phi e_mer - cos phi e_par, E1 = -cos phi e_mer - sin phi e_par.
Moved by that motion, the explicit nets match frames + Sym within 3.3e-15 (7 x 15), 5.5e-14
(61 x 200) and 9.7e-13 (121 x 2000), as the base Sym net matches ``build_rcnet`` (2.2e-15,
2.3e-14, 4.3e-13).  Both write each block of rows straight into the net (``_real_blocks``),
the transforms forming their scalar fields per block too, and ``curvature_report`` checks a
net over the same blocks: a ``cknet double`` job peaks at 1.06 MiB (complex angle) or 1.07 MiB
(real angle) on 61 x 200 and at 11.7 MiB on 121 x 2000, in the Sym pass.
One reality rule holds for every Sym net: an imaginary part beyond 1e-6 raises RealityViolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quat
from .errors import (DegenerateFace, DegenerateGeometry, NotPrincipal, RealityViolated, Singular,
                     ZeroEdge)
from .lattice import FrameFamily, MatJet


@dataclass(frozen=True)
class ContactElementNet:
    """Positions and unit normals on a rectangular grid: C-contiguous float64, shape (nj, nk, 3);
    ``unit_residual``, max | |n| - 1 | (at most 1e-8), is measured once, on construction."""

    x: np.ndarray
    n: np.ndarray
    unit_residual: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, dtype=float))
        object.__setattr__(self, "n", np.ascontiguousarray(self.n, dtype=float))
        if self.x.shape != self.n.shape or self.x.ndim != 3 or self.x.shape[-1] != 3:
            raise ValueError(f"bad net shapes: x {self.x.shape}, n {self.n.shape}")
        # np.max, unlike max, carries a NaN through to the check
        err = (np.max([unit_normal_residual(self, rows) for rows in row_blocks(*self.shape)])
               if self.n.size else 0.0)
        if not (err <= 1e-8):
            raise ValueError(f"normals deviate from unit length by {err:.3e}")
        object.__setattr__(self, "unit_residual", float(err))

    @property
    def shape(self):
        return self.x.shape[:2]


# ---------------------------------------------------------------------------
# construction: the Sym formula


_BASIS = np.array([-1j * quat.sigma1, -1j * quat.sigma2, -1j * quat.sigma3])


def _factor_terms(F: MatJet):
    """Planes R[i, j] of the adjoint map R(F) and w[i] of coords(F^{-1} dF) of frame factors."""
    val, dot = F.val[..., None, :, :], F.dot[..., None, :, :]
    c = quat.coords_complex(quat.inv(val) @ np.concatenate([_BASIS @ val, dot], axis=-3))
    c = np.moveaxis(c, (-1, -2), (0, 1))   # c[i, j] = coords_i(F^{-1} E_j F); j = 3: F^{-1} dF
    return c[:, :3], c[:, 3]


def _transform_terms(a, b, c, d, da, db, dc, dd):
    """Planes of coords(T^{-1} dT) and coords(T^{-1} (-i sigma3) T) from the entries of T
    and dT (planes or scalars), each temporary freed after its last use."""
    with np.errstate(over="ignore", invalid="ignore"):   # reported as Singular below
        det = a * d - b * c
    if not np.all((np.abs(det) > 1e-14) & (np.abs(det) < np.inf)):
        raise Singular(f"transform |det| <= 1e-14 or non-finite (min {np.min(np.abs(det)):.1e})")
    r = 1.0 / det   # T^{-1} = [[d, -b], [-c, a]] / det
    del det
    m01, m10 = d * db - b * dd, a * dc - c * da   # entries of the adjugate of T times dT
    tx = [0.5j * (m01 + m10) * r, 0.5 * (m10 - m01) * r]
    del m01, m10
    tx.append(0.5j * ((d * da - b * dc) - (a * dd - c * db)) * r)   # m00 - m11
    tn = [(b * d - a * c) * r, 1j * (a * c + b * d) * r, a * d]
    tn[2] += b * c   # in place: the last plane sets the peak of the block
    tn[2] *= r
    return tx, tn


_BLOCK_VERTICES = 2048   # vertices per block of rows: bounds the Sym and face passes' memory


def row_blocks(nj: int, nk: int):
    """Slices of whole profile rows, about ``_BLOCK_VERTICES`` vertices each, covering nj rows."""
    step = max(1, _BLOCK_VERTICES // nk)
    return [slice(j, j + step) for j in range(0, nj, step)]


def _real_blocks(nj: int, nk: int, planes):
    """Real parts (x, n), C-contiguous (nj, nk, 3), of the complex coordinate planes [x_i],
    [n_i] that ``planes(rows)`` forms for each of the ``row_blocks``, and the largest imaginary
    part dropped; beyond 1e-6, or NaN, it raises RealityViolated: the net left R^3."""
    x, n = np.empty((nj, nk, 3)), np.empty((nj, nk, 3))
    imag = 0.0
    for rows in row_blocks(nj, nk):
        for i, (x_i, n_i) in enumerate(zip(*planes(rows))):
            x[rows, :, i], n[rows, :, i] = x_i.real, n_i.real
            # np.maximum, unlike max, carries a NaN through to the check
            imag = np.maximum(imag, np.maximum(np.max(np.abs(x_i.imag)), np.max(np.abs(n_i.imag))))
        del x_i, n_i   # before the next block is formed
    if not (imag <= 1e-6):
        raise RealityViolated(f"Sym net left R^3 (imaginary residue {imag:.3e})")
    return x, n, float(imag)


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


def _in_frame(t, a, b, cos_p, sin_p, cos_t, sin_t, f=0.0, h=0.0):
    """Planes (x, y, z) of (f, 0, h) + t0 E0 + t1 E1 + t2 n in ``build_rcnet``'s frame at the
    column angles, E0 = sin p e_mer - cos p e_par and E1 = -cos p e_mer - sin p e_par."""
    mer, par = t[0] * sin_p - t[1] * cos_p, t[0] * cos_p + t[1] * sin_p   # par: -e_par part
    radial = a * t[2] - b * mer + f
    return [radial * cos_t + par * sin_t, radial * sin_t - par * cos_t, a * mer + b * t[2] + h]


def explicit_sym(p, ang: np.ndarray, transform):
    """``_real_blocks`` of the Sym net of T Phi over the K = -1 rotational net of the profile p,
    in ``build_rcnet``'s frame with columns at the angles ``ang``; ``transform(rows)`` gives the
    entries (a, b, c, d, da, db, dc, dd) of T and dT/dt on the rows, as planes or scalars."""
    cos_t, sin_t = np.cos(ang), np.sin(ang)
    sin_p = p.kappa * p.a   # e^{i phi} = sqrt(1 - kappa^2 a^2) + i kappa a
    cos_p = np.sqrt(1.0 - sin_p * sin_p)

    def planes(rows):
        f, h, *frame = (v[rows, None] for v in (p.f, p.h, p.a, p.b, cos_p, sin_p))
        tx, tn = _transform_terms(*transform(rows))
        n = _in_frame(tn, *frame, cos_t, sin_t)
        del tn
        for t in tx:   # x~ = x + 2 coords(T^{-1} dT)
            t *= 2.0
        return _in_frame(tx, *frame, cos_t, sin_t, f, h), n
    return _real_blocks(p.nj, len(ang), planes)


# ---------------------------------------------------------------------------
# faces


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


_RANK_TOL = 1e-10
_PRINCIPAL_TOL = 1e-8   # largest |dn + R dx| / max(1, |dn|) of curvature-line data


def _cross(a, b):
    """a x b over the last axis, broadcast and rounded like np.cross: a product minus a product."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def _face_pass(net: ContactElementNet, rows: slice):
    """K, the degenerate mask and the normals N on the face rows ``rows`` (a unit-step slice
    with a start), from one pass: the cross products of the diagonals of x, then of n, and N."""
    j0, stop, _ = rows.indices(net.shape[0] - 1)
    x, n = net.x[j0:stop + 1], net.n[j0:stop + 1]
    c_x = _cross(x[1:, 1:] - x[:-1, :-1], x[1:, :-1] - x[:-1, 1:])   # xd1 x xd2
    c_n = _cross(n[1:, 1:] - n[:-1, :-1], n[1:, :-1] - n[:-1, 1:])   # nd1 x nd2
    # batched 1x3 @ 3x1 products round like np.linalg.norm; the loop redoes faces of short c_n
    with np.errstate(divide="ignore", invalid="ignore"):
        N = c_n / np.sqrt((c_n[..., None, :] @ c_n[..., :, None])[..., 0])
    for j, k in zip(*np.nonzero(np.linalg.norm(c_n, axis=-1) <= _RANK_TOL)):
        nd1, nd2 = n[j + 1, k + 1] - n[j, k], n[j + 1, k] - n[j, k + 1]
        m = nd1 if np.linalg.norm(nd1) >= np.linalg.norm(nd2) else nd2
        if np.linalg.norm(m) > _RANK_TOL:
            mhat = m / np.linalg.norm(m)
            v = c_x[j, k] - np.dot(c_x[j, k], mhat) * mhat
            if np.linalg.norm(v) <= _RANK_TOL:
                axis = np.zeros(3)
                axis[int(np.argmin(np.abs(mhat)))] = 1.0
                v = np.cross(mhat, axis)
        else:
            v = c_x[j, k]
            if np.linalg.norm(v) <= _RANK_TOL:
                raise DegenerateFace(f"face ({j0 + j},{k}): "
                                     "neither normal nor position diagonals span a plane")
        N[j, k] = v / np.linalg.norm(v)
    det_x = np.einsum("...i,...i->...", c_x, N)
    flip = det_x < 0
    N[flip] *= -1.0
    np.negative(det_x, out=det_x, where=flip)   # exactly det(xd1, xd2, N) of the flipped N
    degenerate = np.abs(det_x) <= 1e-12
    K = np.einsum("...i,...i->...", c_n, N) / np.where(degenerate, 1.0, det_x)
    return K, degenerate, N


def face_normal(net: ContactElementNet) -> np.ndarray:
    """Unit face normals N, shape (nj-1, nk-1, 3).

    N is orthogonal to both diagonals of n, oriented so that
    det(xd1, xd2, N) >= 0.  When the normal diagonals span only a line,
    the component of xd1 x xd2 orthogonal to that line is used; when they
    both vanish, N falls back to the normalized xd1 x xd2.  A face whose
    x-diagonals are also degenerate raises DegenerateFace.  Cross products
    and vectors of norm at most 1e-10 count as degenerate.
    """
    return _face_pass(net, slice(0, None))[2]


# ---------------------------------------------------------------------------
# residuals: each takes the vertex rows ``rows`` (a unit-step slice; all by default)


def validate_ec(net: ContactElementNet, rows: slice = slice(None)) -> float:
    """Largest edge-condition residual |<x(next) - x, n(next) + n>| over the k-edges of the
    rows and the j-edges leaving them."""
    j, stop, _ = rows.indices(net.shape[0])
    x, n = net.x[j:stop + 1], net.n[j:stop + 1]   # one overlap row for the j-edges
    ec_j = np.abs(np.einsum("...i,...i->...", x[1:] - x[:-1], n[1:] + n[:-1]))
    x, n = x[:stop - j], n[:stop - j]
    ec_k = np.abs(np.einsum("...i,...i->...", x[:, 1:] - x[:, :-1], n[:, 1:] + n[:, :-1]))
    return float(np.maximum(np.max(ec_j), np.max(ec_k)))


def unit_normal_residual(net: ContactElementNet, rows: slice = slice(None)) -> float:
    """max | |n| - 1 | over the vertices of the rows."""
    return float(np.max(np.abs(np.linalg.norm(net.n[rows], axis=-1) - 1.0)))


def period_drift(net: ContactElementNet, period: int, rows: slice = slice(None)) -> float:
    """Largest coordinate change of the positions of the rows under a shift by ``period``
    columns."""
    x = net.x[rows]
    return float(np.max(np.abs(x[:, period:] - x[:, : net.shape[1] - period])))


def transform_residuals(base: ContactElementNet, new: ContactElementNet, alpha: float,
                        rows: slice = slice(None)):
    """Worst deviations of a real-angle transform from its defining geometry on the rows:
    distance |sin alpha|, normal angle alpha, and edge orthogonality to both normals."""
    bn, nn = base.n[rows], new.n[rows]
    dx = new.x[rows] - base.x[rows]
    dist = np.abs(np.linalg.norm(dx, axis=-1) - abs(np.sin(alpha)))
    # (a * b).sum adds the three products in order whatever the layout; einsum does not
    ang = np.abs((bn * nn).sum(axis=-1) - np.cos(alpha))
    orth = np.maximum(np.abs((dx * bn).sum(axis=-1)), np.abs((dx * nn).sum(axis=-1)))
    return float(np.max(dist)), float(np.max(ang)), float(np.max(orth))


def curvature_report(net: ContactElementNet, K_sign: int = -1, *, edge: bool = False,
                     period: int | None = None, base: ContactElementNet | None = None,
                     alpha: float = 0.0):
    """(worst, degenerate) of a net from one pass over blocks of whole profile rows (about
    ``_BLOCK_VERTICES`` vertices), so only one block's temporaries exist at a time.

    ``worst`` maps "gauss", |K - K_sign| over the non-degenerate faces (inf
    when there are none), and each further reduction asked for to its
    largest value: "edge" and "period" (``validate_ec``, ``period_drift``;
    the net measured its unit residual when it was built); "distance", "angle" and
    "orthogonality", the ``transform_residuals`` against ``base`` at
    ``alpha``.  ``degenerate`` holds the sorted row-major indices of the
    faces with |det(xd1, xd2, N)| <= 1e-12; the face pass raises
    DegenerateFace where ``face_normal`` does.
    """
    nj, nk = net.shape
    step = max(1, _BLOCK_VERTICES // nk)
    worst, degenerate = {}, []
    for j in range(0, max(nj - 1, 1), step):
        rows = slice(j, j + step if j + step < nj - 1 else nj)   # the last block ends the grid
        K, bad, _ = _face_pass(net, rows)
        found = {"gauss": np.max(np.abs(K[~bad] - K_sign), initial=-np.inf)}
        degenerate.append(np.flatnonzero(bad) + j * (nk - 1))
        if edge:
            found["edge"] = validate_ec(net, rows)
        if period is not None:
            found["period"] = period_drift(net, period, rows)
        if base is not None:
            found.update(zip(("distance", "angle", "orthogonality"),
                             transform_residuals(base, net, alpha, rows)))
        for name, value in found.items():   # np.maximum, unlike max, carries a NaN through
            worst[name] = np.maximum(worst.get(name, -np.inf), value)
    if worst["gauss"] == -np.inf:
        worst["gauss"] = np.inf   # every face degenerate
    return {name: float(value) for name, value in worst.items()}, np.concatenate(degenerate)


# ---------------------------------------------------------------------------
# principal curvatures and singular vertices


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
