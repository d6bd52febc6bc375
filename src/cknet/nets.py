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
``reference.sym`` forms it through the adjoint maps of the frame factors.  On a K = -1
rotational net R(Phi) is explicit, so ``explicit_sym`` forms no frame.  Up to the rigid motion
the initial frame at (j_lo, 0) fixes, the ungauged frame P(j) D^k carries e0, e1, e2 to
-sigma_j e_mer, sigma_j e_par, n (sigma_j = (-1)^j by the absolute row label), where in
``build_rcnet``'s frame n = (a, 0, b), e_mer = (-b, 0, a) and e_par is the parallel
direction (for f < 0, those of the mirrored meridian the connection is built from); the gauge
diag(r/sqrt(i), sqrt(i)/r), r^2 = s_j, turns e0, e1 about e2 by arg(s_j) - pi/2.
So with e^{i phi_j} = sigma_j / s_j = sqrt(1 - kappa^2 a_j^2) + i kappa a_j,
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

import numpy as np

from . import _Record, _reference_shim
from .errors import DegenerateFace, RealityViolated, Singular


class ContactElementNet(_Record):
    """Positions and unit normals on a rectangular grid: C-contiguous float64, shape (nj, nk, 3);
    ``unit_residual``, max | |n| - 1 | (at most 1e-8), is measured once, on construction."""

    __slots__ = ("x", "n", "unit_residual")

    def __init__(self, x: np.ndarray, n: np.ndarray):
        self._fill(np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(n, dtype=float))

    def __post_init__(self):
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


def _transform_terms(a, b, c, d, da, db, dc, dd):
    """Planes of coords(T^{-1} dT) and coords(T^{-1} (-i sigma3) T) from the entries of T
    and dT (planes or scalars), each temporary freed after its last use."""
    with np.errstate(over="ignore", invalid="ignore"):   # reported as Singular below
        det = a * d - b * c
    if not ((np.abs(det) > 1e-14) & (np.abs(det) < np.inf)).all():
        raise Singular(f"transform |det| <= 1e-14 or non-finite (min {np.abs(det).min():.1e})")
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
            imag = np.maximum(imag, np.maximum(np.abs(x_i.imag).max(), np.abs(n_i.imag).max()))
        del x_i, n_i   # before the next block is formed
    if not (imag <= 1e-6):
        raise RealityViolated(f"Sym net left R^3 (imaginary residue {imag:.3e})")
    return x, n, float(imag)


def _in_frame(t, a, b, cos_p, sin_p, cos_t, sin_t, f=0.0, h=0.0):
    """Planes (x, y, z) of (f, 0, h) + t0 E0 + t1 E1 + t2 n in ``build_rcnet``'s frame at the
    column angles, E0 = sin p e_mer - cos p e_par and E1 = -cos p e_mer - sin p e_par."""
    mer, par = t[0] * sin_p - t[1] * cos_p, t[0] * cos_p + t[1] * sin_p   # par: -e_par part
    radial = a * t[2] - b * mer + f
    return [radial * cos_t + par * sin_t, radial * sin_t - par * cos_t, a * mer + b * t[2] + h]


def explicit_sym(p, ang: np.ndarray, transform):
    """``_real_blocks`` of the Sym net of T Phi over the K = -1 rotational net of the profile p,
    in ``build_rcnet``'s frame with columns at the angles ``ang``; ``transform(rows)`` gives the
    entries (a, b, c, d, da, db, dc, dd) of T and dT/dt on the rows, as planes or scalars.
    For f < 0 the connection is that of ``p.mirrored()``, whose net is p's turned by pi: its
    frame at the negated column cosines and sines gives x and y negated, exactly."""
    cos_t, sin_t = np.cos(ang), np.sin(ang)
    if p.f[0] < 0:
        p, cos_t, sin_t = p.mirrored(), -cos_t, -sin_t
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


_RANK_TOL = 1e-10


def _cross(a, b):
    """a x b over the last axis, broadcast and rounded like np.cross: a product minus a product."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        out[..., i] -= a[..., k] * b[..., j]
    return out


def _face_pass(net: ContactElementNet, rows: slice):
    """K, the degenerate mask, the unit normals N and det(xd1, xd2, N) on the face rows
    ``rows`` (a unit-step slice with a start), from one pass: the cross products of the
    diagonals of x, then of n, and N.  N is not oriented: negating it negates both
    determinants exactly, so K and the mask |det_x| <= 1e-12 read the same bits either way;
    ``reference.face_normal`` flips N where det_x < 0."""
    j0, stop, _ = rows.indices(net.shape[0] - 1)
    x, n = net.x[j0:stop + 1], net.n[j0:stop + 1]
    c_x = _cross(x[1:, 1:] - x[:-1, :-1], x[1:, :-1] - x[:-1, 1:])   # xd1 x xd2
    c_n = _cross(n[1:, 1:] - n[:-1, :-1], n[1:, :-1] - n[:-1, 1:])   # nd1 x nd2
    # batched 1x3 @ 3x1 products round like np.linalg.norm; the loop redoes faces of short c_n
    nn = (c_n[..., None, :] @ c_n[..., :, None])[..., 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        N = c_n / np.sqrt(nn)[..., None]
    # a short c_n has nn within rounding of _RANK_TOL**2 or below, so the exact norms run
    # only on a block with some nn <= 4 _RANK_TOL**2, or NaN
    short = ()
    if not nn.min(initial=np.inf) > 4.0 * _RANK_TOL ** 2:
        short = np.nonzero(np.linalg.norm(c_n, axis=-1) <= _RANK_TOL)
    for j, k in zip(*short):
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
    degenerate = np.abs(det_x) <= 1e-12
    K = np.einsum("...i,...i->...", c_n, N) / np.where(degenerate, 1.0, det_x)
    return K, degenerate, N, det_x


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
    return float(np.maximum(ec_j.max(), ec_k.max()))


def _dot3(a, b):
    """<a, b> over a last axis of length 3, from its planes added (p0 + p1) + p2 as numpy adds
    that axis: the bits of ``np.linalg.norm(a, axis=-1)`` as ``sqrt(_dot3(a, a))``, and of
    ``(a * b).sum(axis=-1)`` but for the sign of a zero (three products of -0 give -0 here and
    +0 there; every caller takes |.|), without the product array or the norm's conj copy."""
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += a[..., 2] * b[..., 2]
    return out


def unit_normal_residual(net: ContactElementNet, rows: slice = slice(None)) -> float:
    """max | |n| - 1 | over the vertices of the rows, |n| summed as ``_dot3`` sums."""
    n = net.n[rows]
    return float(np.abs(np.sqrt(_dot3(n, n)) - 1.0).max())


def period_drift(net: ContactElementNet, period: int, rows: slice = slice(None)) -> float:
    """Largest coordinate change of the positions of the rows under a shift by ``period``
    columns."""
    x = net.x[rows]
    return float(np.abs(x[:, period:] - x[:, : net.shape[1] - period]).max())


def transform_residuals(base: ContactElementNet, new: ContactElementNet, alpha: float,
                        rows: slice = slice(None)):
    """Worst deviations of a real-angle transform from its defining geometry on the rows:
    distance |sin alpha|, normal angle alpha, and edge orthogonality to both normals."""
    bn, nn = base.n[rows], new.n[rows]
    dx = new.x[rows] - base.x[rows]
    # _dot3 adds the three products in order whatever the layout; einsum does not
    dist = np.abs(np.sqrt(_dot3(dx, dx)) - abs(np.sin(alpha)))
    ang = np.abs(_dot3(bn, nn) - np.cos(alpha))
    orth = np.maximum(np.abs(_dot3(dx, bn)), np.abs(_dot3(dx, nn)))
    return float(dist.max()), float(ang.max()), float(orth.max())


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
    DegenerateFace where ``reference.face_normal`` does.
    """
    nj, nk = net.shape
    step = max(1, _BLOCK_VERTICES // nk)
    worst, degenerate = {}, []
    for j in range(0, max(nj - 1, 1), step):
        rows = slice(j, j + step if j + step < nj - 1 else nj)   # the last block ends the grid
        K, bad, *_ = _face_pass(net, rows)
        found = {"gauss": np.abs(K[~bad] - K_sign).max(initial=-np.inf)}
        degenerate.append(bad.ravel().nonzero()[0] + j * (nk - 1))
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



__getattr__ = _reference_shim(__name__)   # perfbench's TRACED names (see ``cknet``)
