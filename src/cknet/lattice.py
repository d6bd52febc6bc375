"""Quad lattices, matrix jets, connections, flatness and parallel frames.

A connection assigns an invertible 2x2 matrix to each oriented lattice
edge; positively oriented edges point from (j,k) to (j+1,k) (the L family)
and from (j,k) to (j,k+1) (the M family).  Around the face with corners
p=(j,k), q=(j+1,k), r=(j+1,k+1), s=(j,k+1) flatness reads

    M_rq @ L_qp = L_rs @ M_sp.

Every connection is invariant along k (the rotation) and is held as one
edge jet per profile row; flatness and gauges are formed on that one row.

Everything is carried as a first-order jet in the spectral parameter t:
``MatJet(val, dot)`` stores the value and the t-derivative, and products
and inverses propagate both layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
# families


@dataclass(frozen=True)
class ConnectionFamily:
    """Edge matrices of a k-invariant family as jets in t, anchored at the base parameter t0.

    L holds the edges (j,k)->(j+1,k) and M the edges (j,k)->(j,k+1), once
    per profile row: M of shape (nj, 1, 2, 2) gives the row count nj and L
    has shape (nj-1, 1, 2, 2), the same for every column; any other shape
    raises ValueError.  The family holds no column count.  ``rebuild``,
    when present, reconstructs the same family anchored at another t.
    """

    L: MatJet
    M: MatJet
    t0: float = 0.0
    rebuild: Optional[Callable[[float], "ConnectionFamily"]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        nj = self.M.shape[0]
        if self.L.shape != (nj - 1, 1, 2, 2) or self.M.shape != (nj, 1, 2, 2):
            raise ValueError(f"L {self.L.shape} and M {self.M.shape} are not one edge jet per "
                             f"profile row, {(nj - 1, 1, 2, 2)} and {(nj, 1, 2, 2)}")

    def at(self, t: float) -> "ConnectionFamily":
        """The same family re-anchored at t (requires a rebuild hook)."""
        if t == self.t0:
            return self
        if self.rebuild is None:
            raise ValueError("connection has no rebuild hook; cannot change t")
        return self.rebuild(t)


@dataclass(frozen=True)
class FrameFamily:
    """Vertex frames Phi = rows @ cols as jets: rows (nj, 1, 2, 2) for frames that factor,
    (nj, nk, 2, 2) for dense ones; cols (nk, 2, 2), by default the identity.  The factors
    give the grid shape (nj, nk); ``Phi`` forms the (nj, nk, 2, 2) grid only when it is read."""

    rows: MatJet
    t0: float = 0.0
    cols: MatJet = field(default_factory=lambda: MatJet.constant(np.eye(2)[None]))

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


# ---------------------------------------------------------------------------
# flatness / gauging


def flatness_residual(conn: ConnectionFamily) -> float:
    """Entrywise max over faces and jet layers of M_rq L_qp - L_rs M_sp.

    The family is the same in every column, so one column of faces stands
    for all of them.
    """
    return jet_residual(conn.M[1:] @ conn.L, conn.L @ conn.M[:-1])


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
