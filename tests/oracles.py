"""Independent constructions the tests measure the package against.

``integrate_frame`` transports a frame edge by edge instead of forming
the factorised product ``rotational_frames`` builds; ``dense_sym`` forms
every gauged and transformed frame on the grid and applies the Sym
formula with an inverse and 2x2 products per vertex, where
``reference.sym_arrays`` works through the frame factors and the transforms
through the explicit frame of ``nets.explicit_sym``; ``sym_frame`` moves a
net of ``build_rcnet``'s frame into the Sym frame by the exact rigid motion
of the initial frame, so the two can be compared; ``w_jet`` and
``v_jet`` are the transform matrices and ``composed_field`` the composed
scalar field as the ``backlund`` docstrings state them, its s^ field
stepped by ``v_form_matrices``, the V-form recurrence matrices written
entry by entry where the package takes adjugates; ``cross_ratio``
reads circularity of a face off the quaternionic cross ratio, which no
package routine computes.  ``cross_product_report`` takes every
determinant of the Gauss curvature through its own ``np.cross``, where
the face pass of ``nets.curvature_report`` shares two cross products;
``joined_obj`` builds the OBJ text line by line and
writes it in one piece, where ``cli.export_obj`` streams its blocks.
``ellipeinc`` is E(phi | m) through Carlson's symmetric integrals after
taking out whole half-periods, where ``revolution`` forms E(am u | m) as
u - m times the integral of sn^2 through the Jacobi zeta function.

The quaternion helpers (``det``, ``project``, ``membership_residual``) and
the report schema check (``report_schema``, ``validate_report``) are the
test-side readers of package data that the package itself never needs;
``rebuilt`` builds a record again with some fields changed, through its
constructor, so its checks run on the changed values.
"""

import json
from importlib.resources import files

import numpy as np

from cknet import quat, reference as ref
from cknet.backlund import build_abcd, propagate
from cknet.errors import DegenerateFace, ZeroEdge
from cknet.lattice import ConnectionFamily, MatJet, jet_residual
from cknet.nets import ContactElementNet
from cknet.reference import FrameFamily, face_diagonals, initial_frame


class NotFlat(Exception):
    """Path-independent transport failed: the connection is not flat."""


def integrate_frame(conn: ConnectionFamily, phi00: MatJet, nk: int,
                    tol: float = 1e-9) -> FrameFamily:
    """Parallel frame on nk columns: Phi(0,0)=phi00, transported first along j, then k.

    L and M, held once per profile row, are broadcast to every edge of the
    grid on entry, so the family is integrated edge by edge.
    After integrating along the canonical tree, every j-edge off the k=0
    row is checked for path independence; a violation beyond ``tol``
    raises NotFlat.
    """
    nj = conn.M.shape[0]
    grid = lambda jet, shape: MatJet(np.broadcast_to(jet.val, shape), np.broadcast_to(jet.dot, shape))
    L, M = grid(conn.L, (nj - 1, nk, 2, 2)), grid(conn.M, (nj, nk - 1, 2, 2))
    val = np.empty((nj, nk, 2, 2), dtype=complex)
    dot = np.empty_like(val)
    val[0, 0], dot[0, 0] = phi00.val, phi00.dot
    for j in range(nj - 1):
        step = L[j, 0] @ MatJet(val[j, 0], dot[j, 0])
        val[j + 1, 0], dot[j + 1, 0] = step.val, step.dot
    for k in range(nk - 1):
        step = M[:, k] @ MatJet(val[:, k], dot[:, k])
        val[:, k + 1], dot[:, k + 1] = step.val, step.dot
    phi = MatJet(val, dot)
    if nj > 1 and nk > 1:
        lhs = MatJet(phi.val[1:, 1:], phi.dot[1:, 1:])
        rhs = L[:, 1:] @ MatJet(phi.val[:-1, 1:], phi.dot[:-1, 1:])
        res = jet_residual(lhs, rhs)
        if not (res <= tol):
            raise NotFlat(f"path-independence residual {res:.3e} exceeds {tol:.3e}")
    return FrameFamily(phi, conn.t0)


def dense_sym(frames: FrameFamily, xi: float, tau: float = 0.0, G: MatJet = None,
              T: MatJet = None):
    """Complex (x, n) of the Sym net of T G Phi with every frame formed on the grid.

    Phi is materialised, gauged (G @ Phi) and transformed (T @ Phi) cell by
    cell, then x = xi coords(Phi^{-1} dPhi) + tau n and n = coords(Phi^{-1}
    (-i sigma3) Phi) take an inverse and two 2x2 products per vertex.
    """
    phi = frames.Phi
    for factor in (G, T):
        if factor is not None:
            phi = factor @ phi
    inv = phi.inv()
    n = ref.coords_complex(inv.val @ (-1j * ref.sigma3) @ phi.val)
    return xi * ref.coords_complex(inv.val @ phi.dot) + tau * n, n


def sym_frame(net, hs):
    """(x, n) of a net of the profile p = ``hs.profile`` in ``build_rcnet``'s frame, moved into
    the Sym frame of the gauged frames G Phi (G = ``hs.gauge``) by the rigid motion the initial
    frame fixes.

    At (j_lo, 0) the Sym net has x = 0, since G and Phi(0, 0) are constant in t, and the
    adjoint map R of G(0) Phi(0, 0), R[:, i] = coords(g^{-1} (-i sigma_i) g), is the frame
    (E0, E1, n) there.  In ``build_rcnet``'s frame that frame is F = (sin p e_mer - cos p
    e_par, -cos p e_mer - sin p e_par, n) with n = (a, 0, b), e_mer = (-b, 0, a), e_par =
    (0, 1, 0) and e^{ip} = sqrt(1 - kappa^2 a^2) + i kappa a.  So x -> M (x - x(j_lo, 0))
    and n -> M n with M = R F^T.  When f < 0 the connection is that of p.mirrored(), whose
    frames are seeded at its own (a, b) and whose net is p's turned by pi, x and y negated:
    the net is turned first, and the motion is the mirror's.
    """
    p = hs.profile
    if p.f[0] < 0:
        turn = np.array([-1.0, -1.0, 1.0])
        p, net = p.mirrored(), ContactElementNet(net.x * turn, net.n * turn)
    g = hs.gauge.val[0, 0] @ initial_frame(p.a[0], p.b[0])
    gi = np.linalg.inv(g)
    R = np.stack([ref.coords_complex(gi @ (-1j * sigma) @ g).real
                  for sigma in (ref.sigma1, ref.sigma2, ref.sigma3)], axis=-1)
    a, b = p.a[0], p.b[0]
    sin_p = p.kappa * a
    cos_p = np.sqrt(1.0 - sin_p * sin_p)
    e_mer, e_par, n = np.array([-b, 0.0, a]), np.array([0.0, 1.0, 0.0]), np.array([a, 0.0, b])
    F = np.stack([sin_p * e_mer - cos_p * e_par, -cos_p * e_mer - sin_p * e_par, n], axis=-1)
    M = R @ F.T
    return (net.x - np.array([p.f[0], 0.0, p.h[0]])) @ M.T, net.n @ M.T


def w_jet(alpha, s_tilde, s, t):
    """W = [[cot(a/2) s~/s, i e^t], [i e^t, cot(a/2) s/s~]] on the grid of s~."""
    cot, c, s = 1.0 / np.tan(alpha / 2.0), 1j * np.exp(t), np.asarray(s)[:, None]
    val = quat.matrix(cot * s_tilde / s, c, c, cot * s / s_tilde)
    return MatJet(val, np.broadcast_to(quat.matrix(0.0, c, c, 0.0), val.shape))


def v_jet(beta, s_hat, s, t):
    """V = [[1, i e^{-t} tan(b/2) s^ s], [i e^{-t} tan(b/2)/(s^ s), 1]] on the grid of s^;
    s is a profile column or, over a transformed net, a grid."""
    c, prod = 1j * np.exp(-t) * np.tan(beta / 2.0), s_hat * (s if np.ndim(s) == 2 else s[:, None])
    return MatJet(quat.matrix(1.0, c * prod, c / prod, 1.0),
                  quat.matrix(0.0, -c * prod, -c / prod, 0.0))


def v_form_matrices(hs, beta):
    """Recurrence matrices C (along j) and D (along k) of the s^ field of the V form at beta,
    from their entries (diag2, off2 + x + inv, off1 + x + inv, diag1)."""

    def form(x, w, t):
        sa, ca = np.sin(beta), np.cos(beta)
        inv = 1.0 / x
        diag1, diag2 = sa * (x / t + t / x) / w, sa * w * (1.0 / (x * t) + x * t)
        off1, off2 = (inv - x) * ca, (x - inv) * ca
        return quat.matrix(diag2, off2 + x + inv, off1 + x + inv, diag1)

    return form(hs.u, hs.ell, np.tan(hs.delta1 / 2.0)), form(hs.s, hs.m, np.tan(hs.delta2 / 2.0))


def composed_field(hs, nk, alpha, s_tilde0, s_hat0=None):
    """(s~, s^~) of a double transform on nk columns, by the formula of the ``double_backlund``
    docstring:
    s^~ = (s^ s~ - tan^2(a/2)) / (s (1 - tan^2(a/2) s^ s~)), with s^ = conj(s~) when
    |sin alpha| > 1 and s^ seeded by s_hat0 (1 when omitted) otherwise."""
    alpha = complex(alpha)
    s_tilde = propagate(*build_abcd(hs, alpha), s_tilde0, nk)
    s_hat = (s_tilde.conj() if abs(np.sin(alpha)) > 1.0
             else propagate(*v_form_matrices(hs, -alpha), 1.0 if s_hat0 is None else s_hat0, nk))
    tn2, s = np.tan(alpha / 2.0) ** 2, hs.s[:, None]
    return s_tilde, (s_hat * s_tilde - tn2) / (s * (1.0 - tn2 * s_hat * s_tilde))


def carlson_rf_rd(x, y, z):
    """Carlson's R_F(x, y, z) and R_D(x, y, z): duplication x -> (x + lam) / 4 (and y, z
    alike) until x, y, z agree to 1e-3, then the fifth-order series of each about its mean,
    whose truncation is below 1e-17."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    rd_sum, scale = 0.0, 1.0
    while np.any(np.maximum(np.maximum(x, y), z) - np.minimum(np.minimum(x, y), z)
                 > 1e-3 * np.minimum(np.minimum(x, y), z)):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        rd_sum = rd_sum + scale / (sz * (z + lam))
        scale /= 4.0
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    a = (x + y + z) / 3.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy)
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a)
    a = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / a, 1.0 - y / a
    dz = -(dx + dy) / 3.0
    ea, eb = dx * dy, dz * dz
    e2, e3, e4, e5 = ea - 6.0 * eb, (3.0 * ea - 8.0 * eb) * dz, 3.0 * (ea - eb) * eb, ea * eb * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, 3.0 * rd_sum + scale * series / (a * np.sqrt(a))


def ellipeinc(phi, m):
    """E(phi | m) for 0 <= m < 1: E(r + n pi | m) = E(r | m) + 2 n E(m) with |r| <= pi / 2,
    and E(r | m) = sin r R_F - (m / 3) sin^3 r R_D at (cos^2 r, 1 - m sin^2 r, 1)."""
    n = np.round(np.asarray(phi, dtype=float) / np.pi)
    r = phi - n * np.pi
    sin = np.sin(r)
    rf, rd = carlson_rf_rd(np.cos(r) ** 2, 1.0 - m * sin * sin, 1.0)
    rf_m, rd_m = carlson_rf_rd(0.0, 1.0 - m, 1.0)
    return sin * rf - m * sin**3 / 3.0 * rd + 2.0 * n * (rf_m - m / 3.0 * rd_m)


def cross_ratio(net, face, imag_tol: float = 1e-8):
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
    m = (ref.embed(edges[0]) @ quat.inv(ref.embed(edges[1]))
         @ ref.embed(edges[2]) @ quat.inv(ref.embed(edges[3])))
    w, vx, vy, vz = ref.parts(m)
    z = complex(w, np.linalg.norm([vx, vy, vz]))
    concyclic = abs(z.imag) < imag_tol * abs(z)
    embedded = bool(concyclic and z.real < 0)
    return z, embedded


def _det3(a, b, c):
    return np.einsum("...i,...i->...", np.cross(a, b), c)


def cross_product_report(net, rank_tol: float = 1e-10):
    """(K, degenerate, N) per face with five np.cross calls: two for the face normals, one
    to orient them, and one per determinant of K = det(nd1, nd2, N) / det(xd1, xd2, N)."""
    xd1, xd2, nd1, nd2 = face_diagonals(net)
    c_n = np.cross(nd1, nd2)
    c_x = np.cross(xd1, xd2)
    N = np.empty_like(c_n)
    generic = np.linalg.norm(c_n, axis=-1) > rank_tol
    g = c_n[generic]
    N[generic] = g / np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0])
    for j, k in zip(*np.nonzero(~generic)):
        m = nd1[j, k] if np.linalg.norm(nd1[j, k]) >= np.linalg.norm(nd2[j, k]) else nd2[j, k]
        if np.linalg.norm(m) > rank_tol:
            mhat = m / np.linalg.norm(m)
            v = c_x[j, k] - np.dot(c_x[j, k], mhat) * mhat
            if np.linalg.norm(v) <= rank_tol:
                v = np.cross(mhat, np.eye(3)[int(np.argmin(np.abs(mhat)))])
        else:
            v = c_x[j, k]
            if np.linalg.norm(v) <= rank_tol:
                raise DegenerateFace(f"face ({j},{k})")
        N[j, k] = v / np.linalg.norm(v)
    N[_det3(xd1, xd2, N) < 0] *= -1.0
    den = _det3(xd1, xd2, N)
    degenerate = np.abs(den) <= 1e-12
    safe = np.where(degenerate, 1.0, den)
    return np.where(degenerate, np.nan, _det3(nd1, nd2, N) / safe), degenerate, N


def joined_obj(net, degenerate) -> bytes:
    """OBJ bytes of ``net`` with the faces flagged in ``degenerate`` commented out, one
    line at a time."""
    nj, nk = net.shape
    lines = [f"# cknet quad mesh {nj} x {nk}"]
    for tag, arr in (("v", net.x), ("vn", net.n)):
        lines += [f"{tag} {x:.17g} {y:.17g} {z:.17g}" for x, y, z in arr.reshape(-1, 3).tolist()]
    for j in range(nj - 1):
        for k in range(nk - 1):
            a = j * nk + k + 1
            lines.append(f"# degenerate {j} {k}" if degenerate[j, k]
                         else f"f {a} {a + 1} {a + nk + 1} {a + nk}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def rebuilt(record, **changes):
    """``record`` built again by its constructor with ``changes`` to its fields, for records
    whose fields (``__slots__``) are all constructor arguments, such as ``Profile`` and
    ``ConnectionFamily``."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def det(q):
    """Determinant; equals the squared quaternion norm on members."""
    q = np.asarray(q, dtype=complex)
    return q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]


def project(q):
    """Trace-free projection followed by reading real R^3 coordinates."""
    return ref.coords_complex(q).real


def membership_residual(q):
    """Max deviation from the quaternion-span conditions."""
    q = np.asarray(q, dtype=complex)
    r1 = np.abs(q[..., 1, 1] - q[..., 0, 0].conj())
    r2 = np.abs(q[..., 1, 0] + q[..., 0, 1].conj())
    return float(np.max(np.maximum(r1, r2))) if q.size else 0.0


def report_schema() -> dict:
    """The JSON schema shipped with the package for ``cknet`` reports."""
    return json.loads(files("cknet").joinpath("report_schema.json").read_text(encoding="utf-8"))


def validate_report(doc) -> list:
    """Errors of ``doc`` against the shipped report schema (empty = valid)."""

    def walk(instance, schema, where):
        errs = []
        t = schema.get("type")
        if isinstance(t, list):
            if any(not walk(instance, {**schema, "type": one}, where) for one in t):
                return []
            return [f"{where}: expected {' or '.join(t)}"]
        if t == "object":
            if not isinstance(instance, dict):
                return [f"{where}: expected object"]
            for req in schema.get("required", ()):
                if req not in instance:
                    errs.append(f"{where}: missing required key {req!r}")
            for key, sub in schema.get("properties", {}).items():
                if key in instance:
                    errs.extend(walk(instance[key], sub, f"{where}.{key}"))
        elif t == "array":
            if not isinstance(instance, list):
                return [f"{where}: expected array"]
            sub = schema.get("items")
            if sub:
                for i, item in enumerate(instance):
                    errs.extend(walk(item, sub, f"{where}[{i}]"))
        elif t == "number":
            if isinstance(instance, bool) or not isinstance(instance, (int, float)):
                errs.append(f"{where}: expected number")
        elif t == "string":
            if not isinstance(instance, str):
                errs.append(f"{where}: expected string")
        elif t == "boolean":
            if not isinstance(instance, bool):
                errs.append(f"{where}: expected boolean")
        elif t == "null":
            if instance is not None:
                errs.append(f"{where}: expected null")
        return errs

    return walk(doc, report_schema(), "$")
