"""Quad lattices, matrix jets, connections and flatness.

A connection assigns an invertible 2x2 matrix to each oriented lattice
edge; positively oriented edges point from (j,k) to (j+1,k) (the L family)
and from (j,k) to (j,k+1) (the M family).  Around the face with corners
p=(j,k), q=(j+1,k), r=(j+1,k+1), s=(j,k+1) flatness reads

    M_rq @ L_qp = L_rs @ M_sp.

Every connection is invariant along k (the rotation) and is held as one
edge jet per profile row; flatness is formed on that one row, as are the gauges and
parallel frames of ``reference``.

Everything is carried as a first-order jet in the spectral parameter t:
``MatJet(val, dot)`` stores the value and the t-derivative, and products
and inverses propagate both layers.
"""

from __future__ import annotations

import numpy as np

from . import _Record, _reference_shim, quat


# ---------------------------------------------------------------------------
# matrix jets


class MatJet(_Record):
    """First-order jet of a matrix family t -> A(t): value and derivative.

    Both layers are complex arrays of shape (..., 2, 2); leading axes index
    lattice sites or edges.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val: np.ndarray, dot: np.ndarray):
        self._fill(np.asarray(val, dtype=complex), np.asarray(dot, dtype=complex))

    def __post_init__(self):
        if self.val.shape != self.dot.shape:
            raise ValueError(f"val/dot shape mismatch: {self.val.shape} vs {self.dot.shape}")

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
    rv = float(np.abs(a.val - b.val).max()) if a.val.size else 0.0
    rd = float(np.abs(a.dot - b.dot).max()) if a.dot.size else 0.0
    return float(np.maximum(rv, rd))


# ---------------------------------------------------------------------------
# families


class ConnectionFamily(_Record):
    """Edge matrices of a k-invariant family as jets in t, anchored at the base parameter t0.

    L holds the edges (j,k)->(j+1,k) and M the edges (j,k)->(j,k+1), once
    per profile row: M of shape (nj, 1, 2, 2) gives the row count nj and L
    has shape (nj-1, 1, 2, 2), the same for every column; any other shape
    raises ValueError.  The family holds no column count.  ``rebuild``,
    when present, reconstructs the same family anchored at another t.
    """

    __slots__ = ("L", "M", "t0", "rebuild")

    def __init__(self, L: MatJet, M: MatJet, t0: float = 0.0, rebuild=None):
        self._fill(L, M, t0, rebuild)

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


# ---------------------------------------------------------------------------
# flatness


def flatness_residual(conn: ConnectionFamily) -> float:
    """Entrywise max over faces and jet layers of M_rq L_qp - L_rs M_sp.

    The family is the same in every column, so one column of faces stands
    for all of them.
    """
    return jet_residual(conn.M[1:] @ conn.L, conn.L @ conn.M[:-1])


__getattr__ = _reference_shim(__name__)   # perfbench's TRACED names (see ``cknet``)
