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
(shape (..., 2, 2)) and vectors in the last axis (shape (..., 3)).
"""

from __future__ import annotations

import numpy as np

from .errors import Singular

sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_SINGULAR_TOL = 1e-14   # |det| at or below it makes a matrix singular

def matrix(e11, e12, e21, e22):
    """Complex matrices [[e11, e12], [e21, e22]] of shape (..., 2, 2) from broadcastable entries."""
    m = np.empty(np.broadcast(e11, e12, e21, e22).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = e11, e12, e21, e22
    return m


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
    if not np.all((mag > _SINGULAR_TOL) & (mag < np.inf)):
        raise Singular(f"matrix with |det| <= {_SINGULAR_TOL:g} or non-finite "
                       f"(min |det| = {np.min(mag):.3e})")
    return qconj(q) / d[..., None, None]


def conjugate_rotate(R, v):
    """Rotate v by conjugation: the real R^3 coordinates of R^{-1} embed(v) R."""
    Rm = np.asarray(R, dtype=complex)
    return coords_complex(inv(Rm) @ embed(v) @ Rm).real
