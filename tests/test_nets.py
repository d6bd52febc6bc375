"""Tests for contact element nets, curvatures, cross ratios, and alignment."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cknet import checks, nets, reference as ref
from cknet.backlund import double_backlund, single_backlund
from cknet.checks import PROFILE_SPECS, fixture_ck_hs, fixture_profile
from cknet.connect import build_ck_connection
from cknet.errors import (DegenerateFace, DegenerateGeometry, InvalidProfile,
                          NotPrincipal, RealityViolated, Singular, ZeroEdge)
from cknet.lattice import ConnectionFamily, MatJet, jet_residual
from cknet.nets import ContactElementNet, curvature_report, validate_ec
from cknet.reference import (FrameFamily, face_diagonals, face_normal, principal_curvatures,
                             rigid_align, rotational_frames, singular_vertices, sym, sym_arrays,
                             validate_profile)
from cknet.revolution import (build_rcnet, column_angles, conservation_drift, edge_residuals,
                              profile_elliptic)
from oracles import cross_product_report, cross_ratio, det, rebuilt

E3 = np.array([0.0, 0.0, 1.0])


def planar_net(nj=3, nk=3):
    j, k = np.meshgrid(np.arange(nj, dtype=float), np.arange(nk, dtype=float), indexing="ij")
    x = np.stack([j, k, np.zeros_like(j)], axis=-1)
    n = np.broadcast_to(E3, x.shape).copy()
    return ContactElementNet(x, n)


def sphere_net():
    th = np.array([0.4, 0.7, 1.0, 1.3])
    ph = np.array([0.2, 0.7, 1.2, 1.7, 2.2])
    t, p = np.meshgrid(th, ph, indexing="ij")
    x = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)
    return ContactElementNet(x, x.copy())


@lru_cache(maxsize=None)
def rc_net(kappa=0.6):
    p = profile_elliptic(kappa, -1, (-3, 3), j0=4)
    return p, build_rcnet(p, column_angles(12, theta=np.pi / 6.0))


def rodrigues(v, axis, angle):
    c, s = np.cos(angle), np.sin(angle)
    return v * c + np.cross(axis, v) * s + axis * (v @ axis) * (1.0 - c)


# ---------------------------------------------------------------------------
# construction


def test_net_requires_unit_normals():
    net = planar_net()
    with pytest.raises(ValueError):
        ContactElementNet(net.x, 1.5 * net.n)


def test_sym_constant_frame_is_a_point():
    rotor = ref.quat(np.cos(0.4), 0.3 * np.sin(0.4), 0.0, -0.953939201416946 * np.sin(0.4))
    rotor /= np.sqrt(det(rotor).real)
    val = np.broadcast_to(rotor, (3, 3, 2, 2)).astype(complex)
    frames = FrameFamily(MatJet.constant(val.copy()))
    net = sym(frames, 2.0)
    assert np.max(np.abs(net.x)) == 0.0
    assert_allclose(np.linalg.norm(net.n, axis=-1), 1.0, atol=1e-12)


def test_sym_identity_frame_with_normal_shift():
    val = np.broadcast_to(np.eye(2, dtype=complex), (2, 3, 2, 2)).copy()
    frames = FrameFamily(MatJet.constant(val))
    net = sym(frames, 2.0)
    assert_allclose(net.x + net.n, np.broadcast_to(E3, net.x.shape), atol=1e-15)   # x + tau n, tau = 1
    assert_allclose(net.n, np.broadcast_to(E3, net.n.shape), atol=1e-15)


def test_sym_arrays_preserves_complex_residue():
    val = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2, 2)).copy()
    dot = np.zeros_like(val)
    dot[..., 0, 1] = 0.25j
    frames = FrameFamily(MatJet(val, dot))
    x, n = sym_arrays(frames, 2.0)
    assert np.max(np.abs(x.imag)) > 0.1
    with pytest.raises(RealityViolated):
        sym(frames, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [0.0, np.nan, np.inf])
def test_explicit_sym_rejects_a_singular_or_non_finite_transform(entry):
    p = fixture_profile("elliptic", 0.6, -1)
    d = np.ones((p.nj, 3), dtype=complex)
    d[1, 2] = entry                      # T = diag(1, d): det 0, NaN or inf at one vertex
    with pytest.raises(Singular):
        nets.explicit_sym(p, np.array([0.0, 0.5, 1.0]),
                          lambda rows: (1.0, 0.0, 0.0, d[rows], 0.0, 0.0, 0.0, 0.0))


def transform_normal_terms_out_of_place(a, b, c, d):
    """The three coords(T^{-1} (-i sigma3) T) planes as written before the last was formed in
    place."""
    r = 1.0 / (a * d - b * c)
    return [(b * d - a * c) * r, 1j * (a * c + b * d) * r, (a * d + b * c) * r]


@pytest.mark.parametrize("scalars", ["none", "b_c"], ids=["planes", "scalar_b_c"])
def test_transform_terms_in_place_are_bit_for_bit(scalars):
    """Random entry planes, and scalar b and c as the single transform passes them."""
    rng = np.random.default_rng(7)
    a, b, c, d, da, db, dc, dd = (rng.normal(size=(10, 200)) + 1j * rng.normal(size=(10, 200))
                                  for _ in range(8))
    if scalars == "b_c":
        b, c = 1j * np.exp(0.3), 1j * np.exp(0.3)
    _, tn = nets._transform_terms(a, b, c, d, da, db, dc, dd)
    for got, want in zip(tn, transform_normal_terms_out_of_place(a, b, c, d)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# face geometry


def test_face_diagonals_orientation():
    net = planar_net(2, 2)
    xd1, xd2, nd1, nd2 = face_diagonals(net)
    assert_allclose(xd1[0, 0], [1.0, 1.0, 0.0])
    assert_allclose(xd2[0, 0], [1.0, -1.0, 0.0])
    assert np.max(np.abs(nd1)) == 0.0 and np.max(np.abs(nd2)) == 0.0


def test_face_normal_falls_back_to_positions_for_constant_normals():
    net = planar_net()
    N = face_normal(net)
    xd1, xd2, _, _ = face_diagonals(net)
    dets = np.einsum("...i,...i->...", np.cross(xd1, xd2), N)
    assert_allclose(np.linalg.norm(N, axis=-1), 1.0, atol=1e-14)
    assert np.all(np.abs(np.abs(N @ E3) - 1.0) < 1e-14)
    assert np.all(dets >= 0.0)


def test_face_normal_sphere_matches_corner_plane():
    net = sphere_net()
    N = face_normal(net)
    nj, nk = net.shape
    for j in range(nj - 1):
        for k in range(nk - 1):
            corners = np.array([net.x[j, k], net.x[j + 1, k],
                                net.x[j + 1, k + 1], net.x[j, k + 1]])
            centered = corners - corners.mean(axis=0)
            _, _, vt = np.linalg.svd(centered)
            plane = vt[-1]
            assert np.linalg.norm(np.cross(N[j, k], plane)) < 1e-12


def reference_face_normal(net, rank_tol=1e-10):
    """Face normals computed one face at a time, following the documented rules."""
    xd1, xd2, nd1, nd2 = face_diagonals(net)
    N = np.empty_like(xd1)
    for j in range(N.shape[0]):
        for k in range(N.shape[1]):
            c_x = np.cross(xd1[j, k], xd2[j, k])
            v = np.cross(nd1[j, k], nd2[j, k])
            if np.linalg.norm(v) <= rank_tol:
                m = max(nd1[j, k], nd2[j, k], key=np.linalg.norm)
                if np.linalg.norm(m) > rank_tol:
                    mhat = m / np.linalg.norm(m)
                    v = c_x - np.dot(c_x, mhat) * mhat
                    if np.linalg.norm(v) <= rank_tol:
                        v = np.cross(mhat, np.eye(3)[np.argmin(np.abs(mhat))])
                else:
                    v = c_x
                    if np.linalg.norm(v) <= rank_tol:
                        raise DegenerateFace(f"face ({j},{k})")
            N[j, k] = v / np.linalg.norm(v)
            if np.dot(c_x, N[j, k]) < 0:
                N[j, k] *= -1.0
    return N


def mixed_net():
    """Curved 4 x 5 net whose faces (0,0), (1,0), (2,0) and (2,3) take the fallback branches.

    Face (0,0) has constant normals (both normal diagonals vanish).  On
    faces (1,0), (2,0) and (2,3) the normals depend on j only, so both
    diagonals lie on one line; on face (2,0) that line is normal to the
    position diagonals, which leaves no component of their cross product.
    """
    j, k = np.meshgrid(np.arange(4.0), np.arange(5.0), indexing="ij")
    x = np.stack([j, k, 0.05 * j ** 2 + 0.03 * k ** 2 + 0.02 * j * k], axis=-1)
    n = np.stack([-0.1 * j - 0.02 * k, -0.06 * k - 0.02 * j, np.ones_like(j)], axis=-1)
    n[:2, :2] = E3
    n[2:4, 3:5] = n[2:4, 3:4]
    c = np.cross(x[3, 1] - x[2, 0], x[3, 0] - x[2, 1])
    c /= np.linalg.norm(c)
    a = np.array([0.3, 0.2, 1.0]) / np.sqrt(1.13)
    n[2, :2], n[3, :2] = a, a - 2.0 * np.dot(a, c) * c
    return ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))


def test_face_normal_matches_per_face_reference_on_mixed_net():
    net = mixed_net()
    _, _, nd1, nd2 = face_diagonals(net)
    rank = np.linalg.norm(np.cross(nd1, nd2), axis=-1)
    assert np.max(np.abs(nd1[0, 0])) == 0.0 and np.max(np.abs(nd2[0, 0])) == 0.0
    assert set(zip(*np.nonzero(rank <= 1e-10))) == {(0, 0), (1, 0), (2, 0), (2, 3)}
    for face in ((1, 0), (2, 0), (2, 3)):
        assert np.linalg.norm(nd1[face]) > 1e-10
    assert_allclose(face_normal(net), reference_face_normal(net), rtol=0.0, atol=1e-13)


def test_face_normal_names_the_first_degenerate_face():
    net = mixed_net()
    x = net.x.copy()
    x[1, 1] = x[0, 0]   # face (0,0): constant normals and a vanishing position diagonal
    broken = ContactElementNet(x, net.n)
    with pytest.raises(DegenerateFace, match=r"face \(0,0\)"):
        reference_face_normal(broken)
    with pytest.raises(DegenerateFace, match=r"face \(0,0\)"):
        face_normal(broken)


def test_face_normal_rcnet_orthogonal_to_normal_diagonals():
    _, net = rc_net()
    N = face_normal(net)
    _, _, nd1, nd2 = face_diagonals(net)
    assert np.max(np.abs(np.einsum("...i,...i->...", N, nd1))) < 1e-12
    assert np.max(np.abs(np.einsum("...i,...i->...", N, nd2))) < 1e-12
    assert_allclose(np.linalg.norm(N, axis=-1), 1.0, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.05, 0.3]))
def test_plane_sums_match_numpy_bit_for_bit(seed, special):
    """``nets._dot3`` adds the planes as numpy 2.4 adds a length-3 last axis, (p0 + p1) + p2
    (p0 + (p1 + p2) differs on about one triple in five): the bits of ``np.linalg.norm(a,
    axis=-1)``, and of ``(a * b).sum(axis=-1)`` up to the sign of a zero sum (numpy's sum adds
    three products of -0 to +0, the planes to -0; adding +0 maps -0 to +0 and keeps every
    other bit), on triples of one magnitude from 1e-150 to 1e150, with +-0, NaN and inf, and
    on strided row slices."""
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(9, 40, 3)) * 10.0 ** rng.uniform(-150, 150, size=(9, 40, 1))
            for _ in range(2))
    for v in (a, b):
        hit = rng.random(v.shape) < special
        v[hit] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], hit.sum())
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q in ((a, b), (a[::2], b[::2]), (a[1::3], b[::3]), (a[:, 1::2], b[:, ::2]),
                     (a[:8:2, :39:3], a[1::2, 1::3])):
            assert (nets._dot3(p, q) + 0.0).tobytes() == (p * q).sum(axis=-1).tobytes()
            assert (np.sqrt(nets._dot3(p, p)).tobytes()
                    == np.linalg.norm(p, axis=-1).tobytes())


# ---------------------------------------------------------------------------
# curvatures


def test_unit_sphere_curvatures_are_one():
    worst, degenerate = curvature_report(sphere_net(), 1)
    assert degenerate.size == 0
    assert worst == {"gauss": 0.0}   # K == 1 on every face


def test_planar_curvatures_vanish():
    worst, degenerate = curvature_report(planar_net(), 0)
    assert degenerate.size == 0
    assert worst == {"gauss": 0.0}


def test_rcnet_gaussian_curvature_constant():
    _, net = rc_net()
    worst, degenerate = curvature_report(net)
    assert degenerate.size == 0
    assert worst["gauss"] < 1e-9


def test_degenerate_face_flagged_and_raises():
    # Position diagonals (1,0,0) and (0.2,0,1) span a plane containing the
    # face normal e3, so the Steiner denominator det(xd1, xd2, N) vanishes.
    x = np.array([[[0.0, 0.0, 0.0], [0.4, 0.5, -0.5]],
                  [[0.6, 0.5, 0.5], [1.0, 0.0, 0.0]]])
    n = np.array([[[-0.3, 0.0, 0.0], [0.0, -0.3, 0.0]],
                  [[0.0, 0.3, 0.0], [0.3, 0.0, 0.0]]])
    n[..., 2] = np.sqrt(1.0 - 0.09)
    net = ContactElementNet(x, n)
    worst, degenerate = curvature_report(net)
    assert degenerate.tolist() == [0]
    assert worst["gauss"] == np.inf   # no face left to measure


def test_cross_kernel_matches_np_cross_on_broadcast_shapes():
    rng = np.random.default_rng(11)
    wide = rng.normal(size=(6, 10, 3)) * 10.0 ** rng.integers(-8, 9, size=(6, 10, 3))
    for a, b in ((wide, wide[::-1]), (wide[:, ::2], wide[:, 1::2]), (wide[:, :1], wide[:1]),
                 (wide[0, 0], wide), (wide[:, :, None], wide[0])):
        assert np.array_equal(nets._cross(a, b), np.cross(a, b))


def assert_report_matches_seven_crosses(net):
    """The face pass and the blocked report against the independent cross products."""
    K, degenerate, normal = cross_product_report(net)
    keep = ~degenerate
    assert np.array_equal(nets._face_pass(net, slice(0, None))[0][keep], K[keep])
    worst, found = curvature_report(net)
    assert worst["gauss"] == np.max(np.abs(K[keep] + 1.0))
    assert np.array_equal(found, np.flatnonzero(degenerate))
    assert np.array_equal(face_normal(net), normal)


@pytest.mark.parametrize("spec", PROFILE_SPECS, ids=lambda s: f"{s[0]}-{s[1]:g}-{s[2]:+d}")
def test_face_pass_matches_seven_crosses_on_rcnets(spec):
    net = build_rcnet(fixture_profile(*spec), column_angles(13, k0=12))
    assert_report_matches_seven_crosses(net)


def test_face_pass_matches_seven_crosses_on_transforms():
    grid = fixture_ck_hs()
    assert_report_matches_seven_crosses(single_backlund(*grid, np.pi / 3.0))
    net, _ = double_backlund(*grid, np.pi / 2.0 + 0.5j, 1.3 * np.exp(0.4j))
    assert_report_matches_seven_crosses(net)


def test_face_pass_matches_seven_crosses_on_mixed_net():
    assert_report_matches_seven_crosses(mixed_net())


def blocked_net(nj=100, nk=64):
    """A curved net of four blocks of face rows, with planted faces in the first face row of
    the second and third blocks: (32, 10) has parallel position diagonals, so det(xd1, xd2, N)
    vanishes, and on (64, 5) the normals depend on j only (rank-deficient normal diagonals)."""
    j, k = np.meshgrid(np.arange(nj, dtype=float), np.arange(nk, dtype=float), indexing="ij")
    z = np.sin(0.3 * j) * np.cos(0.2 * k)
    x = np.stack([j, k, z], axis=-1)
    n = np.stack([-0.3 * np.cos(0.3 * j) * np.cos(0.2 * k),
                  0.2 * np.sin(0.3 * j) * np.sin(0.2 * k), np.ones_like(z)], axis=-1)
    x[33, 11] = x[32, 10] + (x[33, 10] - x[32, 11])
    n[64, 5:7], n[65, 5:7] = n[64, 5], n[65, 5]
    return ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))


def test_face_pass_matches_seven_crosses_across_blocks():
    net = blocked_net()
    step = nets._BLOCK_VERTICES // net.shape[1]
    assert (32, 64) == (step, 2 * step) and net.shape[0] - 1 > 3 * step
    assert curvature_report(net)[1].tolist() == [32 * (net.shape[1] - 1) + 10]
    _, _, nd1, nd2 = face_diagonals(net)
    assert np.linalg.norm(np.cross(nd1[64, 5], nd2[64, 5])) <= 1e-10 < np.linalg.norm(nd1[64, 5])
    assert_report_matches_seven_crosses(net)


def test_degenerate_face_in_a_later_block_names_its_grid_index():
    net = blocked_net()
    x, n = net.x.copy(), net.n.copy()
    x[65, 21] = x[64, 20] + (x[65, 20] - x[64, 21])   # parallel position diagonals
    n[64:66, 20:22] = n[64, 20]                       # and constant normals
    broken = ContactElementNet(x, n)
    with pytest.raises(DegenerateFace, match=r"face \(64,20\)"):
        cross_product_report(broken)
    with pytest.raises(DegenerateFace, match=r"face \(64,20\)"):
        curvature_report(broken)


def near_tolerance_net(rank, bad=()):
    """A curved 40 x 64 net (two blocks of face rows) whose face (5, 7) has its normals
    tilted from one unit vector so that |nd1 x nd2| = ``rank``; the faces in ``bad`` get
    constant normals and parallel position diagonals."""
    j, k = np.meshgrid(np.arange(40.0), np.arange(64.0), indexing="ij")
    x = np.stack([j, k, np.sin(0.3 * j) * np.cos(0.2 * k)], axis=-1)
    n = np.stack([-0.3 * np.cos(0.3 * j) * np.cos(0.2 * k),
                  0.2 * np.sin(0.3 * j) * np.sin(0.2 * k), np.ones_like(j)], axis=-1)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    for fj, fk in bad:
        x[fj + 1, fk + 1] = x[fj, fk] + (x[fj + 1, fk] - x[fj, fk + 1])
        n[fj:fj + 2, fk:fk + 2] = n[fj, fk]
    u, tilt = n[5, 7], 1e-5
    n[5, 8] = u
    for _ in range(4):   # |nd1 x nd2| grows as tilt**2
        n[6, 8], n[6, 7] = (v / np.linalg.norm(v) for v in (u + tilt * np.array([1.0, 0.0, 0.0]),
                                                              u + tilt * np.array([0.0, 1.0, 0.0])))
        nd1, nd2 = n[6, 8] - n[5, 7], n[6, 7] - n[5, 8]
        tilt *= np.sqrt(rank / np.linalg.norm(np.cross(nd1, nd2)))
    return ContactElementNet(x, n)


@pytest.mark.parametrize("rank, exact", [(0.9e-10, True), (1.5e-10, True), (2.0001e-10, False)],
                         ids=["short", "exact_norms", "batched_only"])
def test_faces_near_the_rank_tolerance(rank, exact):
    """|nd1 x nd2| in (1e-10, 2e-10] sends the face's block to the exact norms, where no face
    is short; just above 2e-10 the batched squared norm alone clears it; just below 1e-10 the
    face is short and takes the fallback.  Each way the report matches the seven crosses, the
    first bad face is named, and N is oriented."""
    net = near_tolerance_net(rank)
    _, _, nd1, nd2 = face_diagonals(net)
    c = np.cross(nd1, nd2)
    norms = np.linalg.norm(c, axis=-1)
    assert abs(norms[5, 7] / rank - 1.0) < 1e-9 and np.sort(norms, axis=None)[1] > 1e-8
    assert (c[5, 7] @ c[5, 7] <= 4.0 * nets._RANK_TOL ** 2) == exact
    assert_report_matches_seven_crosses(net)
    xd1, xd2, _, _ = face_diagonals(net)
    assert np.all(np.einsum("...i,...i->...", np.cross(xd1, xd2), face_normal(net)) >= 0.0)
    broken = near_tolerance_net(rank, bad=[(5, 30), (35, 20)])
    for report in (cross_product_report, curvature_report, face_normal):
        with pytest.raises(DegenerateFace, match=r"face \(5,30\)"):
            report(broken)


# ---------------------------------------------------------------------------
# cross ratios


def quad_net(p, q, r, s, n=None):
    """2x2 net with the face corners (0,0)=p, (1,0)=q, (1,1)=r, (0,1)=s."""
    x = np.array([[p, s], [q, r]], dtype=float)
    if n is None:
        n = np.broadcast_to(E3, x.shape).copy()
    return ContactElementNet(x, n)


def test_unit_square_cross_ratio():
    net = quad_net([0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0])
    z, embedded = cross_ratio(net, (0, 0))
    assert abs(z - (-1.0)) < 1e-14
    assert embedded


def test_nonconvex_concyclic_quad_positive_cross_ratio():
    # Concyclic but traversed out of order: real positive value, not embedded.
    net = quad_net([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])
    z, embedded = cross_ratio(net, (0, 0))
    assert abs(z.imag) < 1e-14 * abs(z)
    assert z.real > 0.0
    assert not embedded
    assert abs(z - 2.0) < 1e-14


def test_rcnet_faces_concyclic_and_embedded():
    _, net = rc_net()
    nj, nk = net.shape
    for j in range(nj - 1):
        for k in range(0, nk - 1, 3):
            z, embedded = cross_ratio(net, (j, k))
            assert abs(z.imag) <= 1e-10 * abs(z)
            assert embedded


def test_cross_ratio_zero_edge_raises():
    net = planar_net(2, 2)
    x = net.x.copy()
    x[1, 0] = x[0, 0]
    with pytest.raises(ZeroEdge):
        cross_ratio(ContactElementNet(x, net.n), (0, 0))


# ---------------------------------------------------------------------------
# edge condition


def test_validate_ec_planar():
    assert validate_ec(planar_net()) == 0.0


def test_validate_ec_rcnet():
    _, net = rc_net()
    assert validate_ec(net) < 1e-12


def test_edge_constraint_reaches_the_j_edges_between_blocks():
    """Rows 32 on move away from rows 0..31, so the worst residual sits on the j-edges from
    row 31, the last of the first block, to row 32, the first of the second."""
    net = blocked_net()
    assert nets._BLOCK_VERTICES // net.shape[1] == 32
    x = net.x.copy()
    x[32:] += [0.0, 0.0, 5.0]
    moved = ContactElementNet(x, net.n)
    first_block = validate_ec(moved, slice(0, 32))
    assert first_block == validate_ec(moved) > 2.0 * validate_ec(net)
    assert curvature_report(moved, edge=True)[0]["edge"] == first_block


# ---------------------------------------------------------------------------
# principal curvatures and singular vertices


def test_sphere_principal_curvatures():
    net = sphere_net()
    Rj, Rk = principal_curvatures(net)
    assert_allclose(Rj, -1.0, atol=1e-13)
    assert_allclose(Rk, -1.0, atol=1e-13)
    assert singular_vertices(net) == set()


def test_planar_principal_curvatures_all_singular():
    net = planar_net()
    Rj, Rk = principal_curvatures(net)
    assert np.max(np.abs(Rj)) == 0.0 and np.max(np.abs(Rk)) == 0.0
    assert singular_vertices(net) == {(1, 0), (1, 1), (1, 2), (0, 1), (2, 1)}


def test_non_parallel_edge_raises():
    net = planar_net()
    n = net.n.copy()
    n[1, 1] = np.array([0.3, 0.0, np.sqrt(1.0 - 0.09)])
    with pytest.raises(NotPrincipal):
        principal_curvatures(ContactElementNet(net.x, n))


def brute_singular(net):
    """Independent sign-product scan over both edge directions."""
    nj, nk = net.shape
    dxj, dnj = net.x[1:] - net.x[:-1], net.n[1:] - net.n[:-1]
    dxk, dnk = net.x[:, 1:] - net.x[:, :-1], net.n[:, 1:] - net.n[:, :-1]
    Rj = -np.einsum("...i,...i->...", dnj, dxj) / np.einsum("...i,...i->...", dxj, dxj)
    Rk = -np.einsum("...i,...i->...", dnk, dxk) / np.einsum("...i,...i->...", dxk, dxk)
    bad = set()
    for j in range(1, nj - 1):
        for k in range(nk):
            if Rj[j - 1, k] * Rj[j, k] <= 0.0:
                bad.add((j, k))
    for k in range(1, nk - 1):
        for j in range(nj):
            if Rk[j, k - 1] * Rk[j, k] <= 0.0:
                bad.add((j, k))
    return bad, Rj


def test_elliptic_singular_rings():
    p, net = rc_net(1.4)
    singular = singular_vertices(net)
    expected, Rj = brute_singular(net)
    assert singular
    assert singular == expected
    # sign flips of the meridian curvature product mark complete rings
    nk = net.shape[1]
    ring_rows = {j + 1 for j in range(Rj.shape[0] - 1) if Rj[j, 0] * Rj[j + 1, 0] <= 0.0}
    assert ring_rows
    for j in ring_rows:
        assert {(j, k) for k in range(nk)} <= singular


def per_vertex_singular(net):
    """Criterion 10's scan vertex by vertex: both edge ratios of every interior vertex from
    plain Python floats, so each interior edge ratio is computed twice."""
    x, n = net.x.tolist(), net.n.tolist()
    nj, nk = net.shape

    def edge_R(ja, ka, jb, kb):
        dx = [b - a for a, b in zip(x[ja][ka], x[jb][kb])]
        dn = [b - a for a, b in zip(n[ja][ka], n[jb][kb])]
        return -sum(u * v for u, v in zip(dn, dx)) / sum(u * u for u in dx)

    bad = set()
    for j in range(nj):
        for k in range(nk):
            if 1 <= j <= nj - 2:
                if edge_R(j - 1, k, j, k) * edge_R(j, k, j + 1, k) <= 0.0:
                    bad.add((j, k))
            if 1 <= k <= nk - 2:
                if edge_R(j, k - 1, j, k) * edge_R(j, k, j, k + 1) <= 0.0:
                    bad.add((j, k))
    return bad


def criterion_10_net(kappa):
    return build_rcnet(fixture_profile("elliptic", kappa, -1), column_angles(13, theta=checks.THETA))


@pytest.mark.parametrize("kappa", [0.6, 1.4])
@pytest.mark.parametrize("offset", [0.0, 0.3, 1.0, -0.8, 3.0])
def test_singular_scans_agree_on_criterion_10_nets_and_their_parallel_nets(kappa, offset):
    """The parallel net x + t n keeps every edge principal with ratio R / (1 - t R), so an
    offset past a focal distance 1/R flips the ratio's sign and makes vertices singular on
    purpose: t = 0.3 turns the 13 singular vertices of both nets into 24."""
    net = criterion_10_net(kappa)
    net = ContactElementNet(net.x + offset * net.n, net.n)
    expected = per_vertex_singular(net)
    assert expected and checks._brute_singular(net) == expected == singular_vertices(net)


@pytest.mark.parametrize("axis", [0, 1])
def test_singular_scans_agree_with_one_row_or_column_of_normals_negated(axis):
    """Negating one row (or column) of normals flips the ratios of the edges along it and
    breaks the principal edges across it, which singular_vertices refuses; the two plain
    scans read the same signs regardless."""
    net = criterion_10_net(0.6)
    n = net.n.copy()
    (n[3] if axis == 0 else n[:, 5])[...] *= -1.0
    flipped = ContactElementNet(net.x, n)
    expected = per_vertex_singular(flipped)
    assert expected != per_vertex_singular(net)
    assert checks._brute_singular(flipped) == expected
    with pytest.raises(NotPrincipal):
        singular_vertices(flipped)


# ---------------------------------------------------------------------------
# rigid alignment


def test_rigid_align_identity():
    _, net = rc_net()
    res = rigid_align(net, net)
    assert res.residual < 1e-12
    assert np.max(np.abs(res.T)) < 1e-12
    v = np.array([0.3, -0.8, 0.52])
    assert_allclose(ref.conjugate_rotate(res.R, v), v, atol=1e-10)


def test_rigid_align_recovers_rotation_and_translation():
    _, net = rc_net()
    angle, t = np.pi / 3.0, np.array([1.0, 2.0, 3.0])
    xb = np.empty_like(net.x)
    nb = np.empty_like(net.n)
    for idx in np.ndindex(net.shape):
        xb[idx] = rodrigues(net.x[idx], E3, angle) + t
        nb[idx] = rodrigues(net.n[idx], E3, angle)
    moved = ContactElementNet(xb, nb)
    res = rigid_align(net, moved)
    assert res.residual < 1e-10
    assert_allclose(res.T, t, atol=1e-9)
    for v in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0])):
        assert_allclose(ref.conjugate_rotate(res.R, v), rodrigues(v, E3, angle), atol=1e-10)


def test_rigid_align_collinear_raises():
    t = np.linspace(0.0, 1.0, 6).reshape(3, 2)
    x = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=-1)
    n = np.broadcast_to(E3, x.shape).copy()
    net = ContactElementNet(x, n)
    with pytest.raises(DegenerateGeometry):
        rigid_align(net, net)


def per_vertex_residual(net_a, net_b, res):
    """The residual of ``res`` taken through conjugate_rotate's 2x2 conjugation per vertex."""
    xa, na = net_a.x.reshape(-1, 3), net_a.n.reshape(-1, 3)
    rx, rn = ref.conjugate_rotate(res.R, xa), ref.conjugate_rotate(res.R, na)
    return max(float(np.max(np.linalg.norm(rx + res.T - net_b.x.reshape(-1, 3), axis=-1))),
               float(np.max(np.linalg.norm(rn - net_b.n.reshape(-1, 3), axis=-1))))


@pytest.mark.parametrize("case", [1, 2, 3])
def test_rigid_align_residual_matches_per_vertex_rotation_on_sym_nets(case):
    """Criterion 4's alignments: rotating by one 3x3 matrix moves the residual by at most
    1e-15 against rotating each vertex by the quaternion, under the same R and T."""
    _, p, conn = checks._cases()[case - 1]
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=checks.COLUMNS)
    net = sym(frames, 2.0 if case == 3 else -2.0)
    target = build_rcnet(p, column_angles(checks.COLUMNS, theta=checks.THETA))
    res = rigid_align(net, target)
    assert res.residual == checks.fixture_sym(case)[0] < 1e-8
    assert abs(res.residual - per_vertex_residual(net, target, res)) <= 1e-15


@pytest.mark.parametrize("seed", range(8))
def test_rigid_align_residual_matches_per_vertex_rotation_under_random_motions(seed):
    rng = np.random.default_rng(seed)
    _, net = rc_net((0.6, 1.4)[seed % 2])
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle, t = rng.uniform(-np.pi, np.pi), rng.uniform(-2.0, 2.0, size=3)
    M = np.array([rodrigues(e, axis, angle) for e in np.eye(3)])   # rows: the rotated basis
    moved = ContactElementNet(net.x @ M + t, net.n @ M)
    res = rigid_align(net, moved)
    assert res.residual < 1e-12
    assert abs(res.residual - per_vertex_residual(net, moved, res)) <= 1e-15


def test_frame_initial_condition_changes_net_by_rigid_motion():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, _ = build_ck_connection(p, np.pi / 6.0)
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=10)
    h0 = ref.quat(np.cos(0.35), *(np.sin(0.35) * np.array([0.2, 0.6, -0.774596669241483])))
    h0 /= np.sqrt(det(h0).real)
    H = MatJet(h0, h0 @ ref.embed(np.array([0.1, -0.2, 0.3])))
    moved = FrameFamily(frames.Phi @ H)
    res = rigid_align(sym(frames, 2.0), sym(moved, 2.0))
    assert res.residual < 1e-9


# ---------------------------------------------------------------------------
# non-finite values fail every tolerance guard


def _nan_unit_normal():
    net = planar_net()
    n = net.n.copy()
    n[1, 1, 2] = np.nan
    ContactElementNet(net.x, n)


def _nan_frame_derivative():
    val = np.broadcast_to(np.eye(2, dtype=complex), (3, 3, 2, 2)).copy()
    dot = np.zeros_like(val)
    dot[1, 1, 0, 1] = np.nan
    sym(FrameFamily(MatJet(val, dot)), 2.0)


def _nan_position_edge():
    net = planar_net()
    x = net.x.copy()
    x[1, 1, 2] = np.nan
    principal_curvatures(ContactElementNet(x, net.n))


def _nan_profile_height():
    p, _ = rc_net()
    h = p.h.copy()
    h[2] = np.nan
    validate_profile(rebuilt(p, h=h))


def _nan_connection_row():
    p, _ = rc_net()
    conn, _ = build_ck_connection(p, np.pi / 6.0)
    lval = conn.L.val.copy()
    lval[1, 0, 0, 0] = np.nan
    frames = rotational_frames(ConnectionFamily(MatJet(lval, conn.L.dot), conn.M),
                               p.a[0], p.b[0], 6)
    sym(frames, 2.0)


NAN_GUARDS = {
    "unit_normal": (_nan_unit_normal, ValueError),
    "sym_reality": (_nan_frame_derivative, RealityViolated),
    "principal_curvatures": (_nan_position_edge, NotPrincipal),
    "validate_profile": (_nan_profile_height, InvalidProfile),
    "frame_row": (_nan_connection_row, Singular),
}


@pytest.mark.parametrize("name", sorted(NAN_GUARDS))
def test_nan_fails_tolerance_guard(name):
    build, error = NAN_GUARDS[name]
    with pytest.raises(error):
        build()


def test_residual_maxima_keep_nan():
    # a NaN in any one term of a reported maximum makes the maximum NaN
    net = planar_net()
    x = net.x.copy()
    x[2, 2, 0] = np.nan
    assert np.isnan(validate_ec(ContactElementNet(x, net.n)))
    p, _ = rc_net()
    h = p.h.copy()
    h[-1] = np.nan                       # enters the second of three edge relations only
    assert np.isnan(edge_residuals(rebuilt(p, h=h)))
    b = p.b.copy()
    b[0] = np.nan                        # enters the second conserved combination only
    assert np.isnan(conservation_drift(rebuilt(p, b=b)))
    jet = MatJet.constant(np.eye(2))
    assert np.isnan(jet_residual(jet, MatJet(jet.val, np.full((2, 2), np.nan))))   # derivative layer only
