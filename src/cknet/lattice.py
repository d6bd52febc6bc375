"""Quad lattices, matrix jets, connections, flatness and parallel frames.

A connection assigns an invertible 2x2 matrix to each oriented lattice
edge; positively oriented edges point from (j,k) to (j+1,k) (the L family)
and from (j,k) to (j,k+1) (the M family).  Around the face with corners
p=(j,k), q=(j+1,k), r=(j+1,k+1), s=(j,k+1) flatness reads

    M_rq @ L_qp = L_rs @ M_sp.

Everything is carried as a first-order jet in the spectral parameter t:
``MatJet(val, dot)`` stores the value and the t-derivative, and products
and inverses propagate both layers.  A frame family keeps the adjoint terms
of its two factors, which every Sym pass on it reads, from the first pass on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import quat


# ---------------------------------------------------------------------------
# matrix jets


@dataclass(frozen=True)
class MatJet:
    """First-order jet of a matrix family t -> A(t): value and derivative.

    Both layers are complex arrays of shape (..., 2, 2); leading axes index
    lattice sites or edges.
    """

    val: np.ndarray
    dot: np.ndarray

    def __post_init__(self):
        val = np.asarray(self.val, dtype=complex)
        dot = np.asarray(self.dot, dtype=complex)
        if val.shape != dot.shape:
            raise ValueError(f"val/dot shape mismatch: {val.shape} vs {dot.shape}")
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "dot", dot)

    @staticmethod
    def constant(val):
        val = np.asarray(val, dtype=complex)
        return MatJet(val, np.zeros_like(val))

    @property
    def shape(self):
        return self.val.shape

    def __getitem__(self, idx):
        return MatJet(self.val[idx], self.dot[idx])

    def __matmul__(self, other):
        if not isinstance(other, MatJet):
            return NotImplemented
        return MatJet(self.val @ other.val, self.dot @ other.val + self.val @ other.dot)

    def __mul__(self, scalar):
        return MatJet(self.val * scalar, self.dot * scalar)

    def inv(self):
        """Jet of the inverse: d/dt A^{-1} = -A^{-1} (dA) A^{-1}."""
        iv = quat.inv(self.val)
        return MatJet(iv, -iv @ self.dot @ iv)


def jet_residual(a: MatJet, b: MatJet) -> float:
    """Entrywise max distance between two jets over both layers."""
    rv = float(np.max(np.abs(a.val - b.val))) if a.val.size else 0.0
    rd = float(np.max(np.abs(a.dot - b.dot))) if a.dot.size else 0.0
    return float(np.maximum(rv, rd))


# ---------------------------------------------------------------------------
# domain and families


def _check_broadcast(name: str, shape: tuple, grid: tuple) -> None:
    """Raise ValueError unless ``shape`` has the axes of ``grid``, its length along j,
    and broadcasts to it."""
    if len(shape) != len(grid) or shape[0] != grid[0] or np.broadcast_shapes(shape, grid) != grid:
        raise ValueError(f"{name} shape {shape} does not broadcast to {grid}")


@dataclass(frozen=True)
class Domain:
    """Grid shape: nj vertices along j (the profile) by nk along k (the rotation)."""

    nj: int
    nk: int

    def __post_init__(self):
        if self.nj < 1 or self.nk < 1:
            raise ValueError(f"empty domain: {self.nj} x {self.nk}")


@dataclass(frozen=True)
class ConnectionFamily:
    """Edge matrices as jets in t, anchored at the base parameter t0.

    L holds the edges (j,k)->(j+1,k) and M the edges (j,k)->(j,k+1); their
    shapes broadcast to (nj-1, nk, 2, 2) and (nj, nk-1, 2, 2).  A family
    invariant along k (the rotation) is held once per profile row: L of
    shape (nj-1, 1, 2, 2) and M of shape (nj, 1, 2, 2).  ``rebuild``, when
    present, reconstructs the same family anchored at another t.
    """

    domain: Domain
    L: MatJet
    M: MatJet
    t0: float = 0.0
    rebuild: Optional[Callable[[float], "ConnectionFamily"]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        nj, nk = self.domain.nj, self.domain.nk
        _check_broadcast("L", self.L.shape, (nj - 1, nk, 2, 2))
        _check_broadcast("M", self.M.shape, (nj, nk - 1, 2, 2))

    def at(self, t: float) -> "ConnectionFamily":
        """The same family re-anchored at t (requires a rebuild hook)."""
        if t == self.t0:
            return self
        if self.rebuild is None:
            raise ValueError("connection has no rebuild hook; cannot change t")
        return self.rebuild(t)


_BASIS = np.array([-1j * quat.sigma1, -1j * quat.sigma2, -1j * quat.sigma3])


def _factor_terms(F: MatJet):
    """Planes R[i, j] of the adjoint map R(F) and w[i] of coords(F^{-1} dF) of frame factors."""
    val, dot = F.val[..., None, :, :], F.dot[..., None, :, :]
    c = quat.coords_complex(quat.inv(val) @ np.concatenate([_BASIS @ val, dot], axis=-3))
    c = np.moveaxis(c, (-1, -2), (0, 1))   # c[i, j] = coords_i(F^{-1} E_j F); j = 3: F^{-1} dF
    return c[:, :3], c[:, 3]


@dataclass(frozen=True)
class FrameFamily:
    """Vertex frames Phi = rows @ cols as jets: rows (nj, 1, 2, 2) for frames that factor,
    (nj, nk, 2, 2) for dense ones; cols (nk, 2, 2), by default the identity.  ``Phi``
    forms the (nj, nk, 2, 2) grid only when it is read.  ``terms``, the ``_factor_terms``
    of rows and of cols, are formed on the first Sym pass and kept: a family's arrays must
    not change after it (``gauge_frame`` returns a new family, which forms its own)."""

    domain: Domain
    rows: MatJet
    t0: float = 0.0
    cols: MatJet = field(default_factory=lambda: MatJet.constant(np.eye(2)[None]))

    def __post_init__(self):
        shapes, grid = (self.rows.shape, self.cols.shape), (self.domain.nj, self.domain.nk, 2, 2)
        if np.broadcast_shapes(*shapes) != grid:
            raise ValueError(f"frame factor shapes {shapes} do not make {grid}")

    @property
    def Phi(self) -> MatJet:
        return self.rows @ self.cols

    @cached_property
    def terms(self):   # planes (3, 3, nj, 1 or nk), (3, nj, 1 or nk); (3, 3, nk), (3, nk)
        return _factor_terms(self.rows), _factor_terms(self.cols)


# ---------------------------------------------------------------------------
# flatness / gauging


def _k_ends(jet: MatJet):
    """(jet[:, 1:], jet[:, :-1]): the far and near ends of the k-steps.  A length-1
    k axis holds the same jet for every column and stands for both ends as it is."""
    if jet.shape[1] == 1:
        return jet, jet
    return jet[:, 1:], jet[:, :-1]


def flatness_residual(conn: ConnectionFamily) -> float:
    """Entrywise max over faces and jet layers of M_rq L_qp - L_rs M_sp.

    A rotation-invariant family (L and M of length 1 along k) forms one
    column of faces, which every other column repeats.
    """
    L_far, L_near = _k_ends(conn.L)
    return jet_residual(conn.M[1:] @ L_near, L_far @ conn.M[:-1])


def gauge(conn: ConnectionFamily, G: MatJet) -> ConnectionFamily:
    """Gauge action on a connection: edge pq maps to G_q eta_qp G_p^{-1}.

    G is a vertex family of jets of shape (nj, nk, 2, 2), or (nj, 1, 2, 2)
    for one gauge per profile row, which keeps an invariant family
    invariant.  The rebuild hook is dropped (the gauged family is anchored
    at conn.t0 only).
    """
    _check_broadcast("gauge", G.shape, (conn.domain.nj, conn.domain.nk, 2, 2))
    Gi = G.inv()
    L = G[1:] @ conn.L @ Gi[:-1]
    M = _k_ends(G)[0] @ conn.M @ _k_ends(Gi)[1]
    return ConnectionFamily(conn.domain, L, M, conn.t0)


def gauge_frame(frames: FrameFamily, G: MatJet) -> FrameFamily:
    """Gauge action on frames: Phi maps to G Phi (parallel for the gauged connection).

    G multiplies the row factor, so a gauge held once per profile row keeps
    factored frames factored."""
    return replace(frames, rows=G @ frames.rows)


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
    val = quat.matrix(np.exp(c_val + 1j * y), 0.0, 0.0, np.exp(c_val - 1j * y))
    return MatJet(val, c_dot[..., None, None] * val)
