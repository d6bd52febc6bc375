"""Quaternion algebra as complex 2x2 matrices.

A quaternion w + x i + y j + z k is stored as the matrix

    w*sigma0 + x*(-i*sigma1) + y*(-i*sigma2) + z*(-i*sigma3)
      = [[w - i z, -y - i x],
         [y - i x,  w + i z]]

with sigma0..sigma3 the identity and Pauli matrices.  Membership in the
quaternion span is m22 = conj(m11), m21 = -conj(m12).  R^3 is identified
with the imaginary (trace-free) quaternions; the squared norm is the
determinant.

All functions accept numpy arrays with matrices in the last two axes
(shape (..., 2, 2)).  The Pauli matrices, the builder from real components
and the R^3 helpers, which only the reference path uses, are in ``reference``.
"""

from __future__ import annotations

import numpy as np

from . import _reference_shim
from .errors import Singular

_SINGULAR_TOL = 1e-14   # |det| at or below it makes a matrix singular

def matrix(e11, e12, e21, e22):
    """Complex matrices [[e11, e12], [e21, e22]] of shape (..., 2, 2) from broadcastable entries."""
    m = np.empty(np.broadcast(e11, e12, e21, e22).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = e11, e12, e21, e22
    return m


def qconj(q):
    """Quaternion conjugate (adjugate matrix): w - xi - yj - zk."""
    q = np.asarray(q, dtype=complex)
    return matrix(q[..., 1, 1], -q[..., 0, 1], -q[..., 1, 0], q[..., 0, 0])


def inv(q):
    """Inverse via adjugate / determinant; raises Singular on det ~ 0 or a non-finite det."""
    q = np.asarray(q, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):   # reported as Singular below
        d = q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]
    mag = np.abs(d)
    if not ((mag > _SINGULAR_TOL) & (mag < np.inf)).all():
        raise Singular(f"matrix with |det| <= {_SINGULAR_TOL:g} or non-finite "
                       f"(min |det| = {mag.min():.3e})")
    return qconj(q) / d[..., None, None]


__getattr__ = _reference_shim(__name__)   # perfbench's TRACED names (see ``cknet``)
