"""Tests for Backlund transforms: recurrences, invariants, periodicity."""

import tracemalloc
import warnings
from functools import lru_cache
from math import lcm

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from cknet import backlund as bk, cli, nets, quat
from cknet.backlund import (build_abcd, double_backlund, find_periodic_alpha, linearize,
                            moebius, propagate, single_backlund)
from cknet.connect import build_ck_connection, gauge_to_hs, rotational_frames
from cknet.errors import (BranchFailure, ConfigError, NoRoot, PathInconsistent, PoleHit,
                          RealityViolated)
from cknet.lattice import FrameFamily, MatJet, gauge_frame
from cknet.nets import curvature_report, sym_arrays
from cknet.revolution import build_rcnet, column_angles, profile_elliptic
from oracles import composed_field, sym_frame, v_form_matrices

ALPHA_C = np.pi / 2.0 + 0.5j  # sin is real with |sin| = cosh(0.5) > 1

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])


def desk_grid(theta, nk):
    """(hs, grid, base) of the desk profile on nk columns: its normal-form data, (hs, ang),
    which the transforms read, and its rotational net."""
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    hs, ang = gauge_to_hs(*build_ck_connection(p, theta)), column_angles(nk, theta=theta)
    return hs, (hs, ang), build_rcnet(p, ang)


NK = 15   # columns of hs_fixture's grid


@lru_cache(maxsize=None)
def hs_fixture():
    return desk_grid(np.pi / 6.0, NK)


@lru_cache(maxsize=None)
def hex_grid(nk):
    """``desk_grid`` of the closing rotation (theta = 2 pi / 6) over nk columns."""
    return desk_grid(2.0 * np.pi / 6.0, nk)


def hex_fixture():
    """Closing rotation with enough columns for lcm(6, 9)."""
    return hex_grid(26)


@lru_cache(maxsize=None)
def real_path_hs():
    """kappa = 1.5: delta2 is real and B[0] is elliptic on parts of both search paths."""
    p = profile_elliptic(1.5, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / 6.0)
    return gauge_to_hs(conn, data)


def pair(hs, alpha, field="tilde"):
    """Recurrence matrices of the s~ field at alpha, or of the s^ field at beta = -alpha:
    the adjugates of the s~ matrices at beta."""
    A, B = build_abcd(hs, alpha if field == "tilde" else -alpha)
    return (A, B) if field == "tilde" else (quat.qconj(A), quat.qconj(B))


def field_grid(hs, alpha, seed, field="tilde", nk=NK):
    return propagate(*pair(hs, alpha, field), seed, nk)


def transform_residuals(base, new, angle):
    """Distance / normal-angle / tangency deviations of a claimed transform."""
    dx = new.x - base.x
    dist = np.max(np.abs(np.linalg.norm(dx, axis=-1) - abs(np.sin(angle))))
    ang = np.max(np.abs(np.einsum("...i,...i->...", base.n, new.n) - np.cos(angle)))
    orth = max(np.max(np.abs(np.einsum("...i,...i->...", dx, base.n))),
               np.max(np.abs(np.einsum("...i,...i->...", dx, new.n))))
    return dist, ang, orth


def gauss_deviation(net):
    return curvature_report(net)[0]["gauss"]   # inf when every face is degenerate


# ---------------------------------------------------------------------------
# transform parameters and Moebius helpers


@pytest.mark.parametrize("alpha, seed, s_hat0", [
    (np.pi / 3.0, np.exp(0.4j), 1.0),
    (ALPHA_C, 1.3 * np.exp(0.4j), 1.3 * np.exp(-0.4j)),
], ids=["real", "complex"])
def test_double_backlund_default_s_hat0(alpha, seed, s_hat0):
    """An omitted s_hat0 is 1 for real alpha and conj(s_tilde0) when |sin alpha| > 1."""
    hs, grid, _ = hs_fixture()
    net, rep = double_backlund(*grid, alpha, seed)
    given, given_rep = double_backlund(*grid, alpha, seed, s_hat0)
    assert np.array_equal(net.x, given.x) and np.array_equal(net.n, given.n)
    assert rep == given_rep
    with pytest.raises(ConfigError):   # a different s_hat0 is read, not ignored
        double_backlund(*grid, alpha, seed, 2.0j)


@pytest.mark.parametrize("field", ["alpha", "s_tilde0", "s_hat0"])
@pytest.mark.parametrize("alpha", [np.pi / 3.0, ALPHA_C], ids=["real", "complex"])
def test_transforms_refuse_non_finite_parameters(field, alpha):
    hs, grid, _ = hs_fixture()
    seed = 1.0 if alpha == np.pi / 3.0 else 1.3 * np.exp(0.4j)
    # complex(1, nan) would pass an `abs(alpha.imag) > 1e-12` test of the real-angle rule
    for bad in (complex("nan"), complex("inf"), complex(0.0, float("nan")), complex(1.0, float("nan")),
                complex(1.0, float("inf"))):
        args = {"alpha": alpha, "s_tilde0": seed, field: bad}
        with pytest.raises(ConfigError):
            double_backlund(*grid, **args)
        if field != "s_hat0":
            with pytest.raises(ConfigError):
                single_backlund(*grid, **args)


def test_moebius_identity_and_composition():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        z = complex(rng.normal(), rng.normal())
        assert moebius(np.eye(2), z) == z
        assert abs(moebius(m1 @ m2, z) - moebius(m1, moebius(m2, z))) < 1e-10


def test_moebius_pole():
    with pytest.raises(PoleHit):
        moebius(np.array([[1.0, 0.0], [1.0, -1.0]]), 1.0)


# ---------------------------------------------------------------------------
# coefficient matrices


def test_abcd_shapes():
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    assert A.shape == (6, 2, 2) and B.shape == (7, 2, 2)


def test_abcd_real_angle_structure():
    """Real angle: entries pair up by conjugation and the maps fix |z| = 1."""
    hs, _, _ = hs_fixture()
    (A, B), (C, D) = pair(hs, np.pi / 3.0), pair(hs, np.pi / 3.0, "hat")
    for M in (A, B):
        assert np.max(np.abs(M[:, 1, 1] - M[:, 0, 0].conj())) < 1e-12
        assert np.max(np.abs(M[:, 1, 0] - M[:, 0, 1].conj())) < 1e-12
    # the off-diagonals are genuinely complex in this regime
    assert np.max(np.abs(A[:, 0, 1].imag)) > 0.9
    zs = np.exp(1j * np.linspace(0.1, 6.0, 17))
    worst = max(abs(abs(moebius(M, z)) - 1.0)
                for M in (A[0], A[-1], B[0], B[-1], C[0], D[0]) for z in zs)
    assert worst < 1e-12


def test_abcd_complex_angle_structure():
    """On the line pi/2 + iy the off-diagonals are real and |z| = 1 moves."""
    hs, _, _ = hs_fixture()
    (A, B), (C, D) = pair(hs, ALPHA_C), pair(hs, ALPHA_C, "hat")
    for M in (A, B, C, D):
        assert np.max(np.abs(M[..., 0, 1].imag)) < 1e-12
        assert np.max(np.abs(M[..., 1, 0].imag)) < 1e-12
        assert np.max(np.abs(M[:, 1, 1] - M[:, 0, 0].conj())) < 1e-12
    zs = np.exp(1j * np.linspace(0.1, 6.0, 17))
    worst = max(abs(abs(moebius(M, z)) - 1.0) for M in (A[0], B[0]) for z in zs)
    assert worst > 1e-2


def test_companion_matrices_mirror_the_first_pair():
    """With beta = -alpha, C and D are -sigma1 A^T sigma1 and -sigma1 B^T sigma1."""
    hs, _, _ = hs_fixture()
    for alpha in (np.pi / 3.0, ALPHA_C):
        (A, B), (C, D) = pair(hs, alpha), pair(hs, alpha, "hat")
        for X, Y in ((A, C), (B, D)):
            mirror = -np.einsum("ab,jbc,cd->jad", SIGMA1, X.transpose(0, 2, 1), SIGMA1)
            assert np.max(np.abs(Y - mirror)) < 1e-14


@pytest.mark.parametrize("alpha", [np.pi / 3.0, 2.4, ALPHA_C, np.pi / 2.0 + 1.4j])
def test_adjugate_pair_equals_the_v_form_entries(alpha):
    """The s^ field steps by the adjugates of the W-form matrices at beta = -alpha; they are
    the V-form matrices C(beta), D(beta) written entry by entry, equal in value."""
    hs, _, _ = hs_fixture()
    for got, want in zip(pair(hs, alpha, "hat"), v_form_matrices(hs, -alpha)):
        np.testing.assert_array_equal(got, want)


def test_recurrence_face_compatibility():
    """B(j+1) A(j) and A(j) B(j) agree as Moebius maps on every face."""
    hs, _, _ = hs_fixture()
    for X, Y in (pair(hs, np.pi / 3.0), pair(hs, np.pi / 3.0, "hat")):
        for j in range(len(X)):
            n1 = Y[j + 1] @ X[j]
            n2 = X[j] @ Y[j]
            top = np.unravel_index(np.argmax(np.abs(n1)), n1.shape)
            assert np.max(np.abs(n1 / n1[top] - n2 / n2[top])) < 1e-12


# ---------------------------------------------------------------------------
# scalar-field propagation


def test_propagate_keeps_unit_fields_for_real_angle():
    hs, _, _ = hs_fixture()
    for field, seed in (("tilde", np.exp(0.4j)), ("hat", np.exp(-0.4j))):
        s = field_grid(hs, np.pi / 3.0, seed, field)
        assert s.shape == (hs.profile.nj, NK)
        assert s[0, 0] == seed
        assert np.max(np.abs(np.abs(s) - 1.0)) < 1e-12


def test_propagate_conjugate_fields_on_complex_angle():
    hs, _, _ = hs_fixture()
    seed = 1.3 * np.exp(0.4j)
    s_tilde = field_grid(hs, ALPHA_C, seed)
    s_hat = field_grid(hs, ALPHA_C, np.conj(seed), "hat")
    assert np.max(np.abs(s_hat - s_tilde.conj())) < 1e-12


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_propagate_rejects_non_finite_field():
    hs, _, _ = hs_fixture()
    with pytest.raises(PathInconsistent, match="nan"):
        field_grid(hs, np.pi / 3.0, complex("nan"))


def test_propagate_path_check_reports_pole_first():
    """A seed whose k-neighbour sits on the pole of A[0] fails as PoleHit, not PathInconsistent."""
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    pole = -A[0][1, 1] / A[0][1, 0]
    seed = moebius(quat.qconj(B[0]), pole)
    with pytest.raises(PoleHit):
        propagate(A, B, seed, NK)


@pytest.mark.parametrize("field", ["tilde", "hat"])
def test_propagate_matches_scalar_moebius_steps(field):
    hs, _, _ = hs_fixture()
    Aj, Bj = pair(hs, ALPHA_C, field)
    seed = 1.3 * np.exp(0.4j)
    s = propagate(Aj, Bj, seed, NK)
    ref = np.empty_like(s)
    ref[0, 0] = seed
    for j in range(1, s.shape[0]):
        ref[j, 0] = moebius(Aj[j - 1], ref[j - 1, 0])
    for j in range(s.shape[0]):
        for k in range(1, s.shape[1]):
            ref[j, k] = moebius(Bj[j], ref[j, k - 1])
    assert_allclose(s, ref, rtol=0.0, atol=1e-13 * np.max(np.abs(ref)))


def test_propagate_raises_pole_hit_on_a_k_step():
    """A seed that A carries onto the pole of B[2] fails in the first k step of row 2."""
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    seed = moebius(quat.qconj(A[0]), moebius(quat.qconj(A[1]), -B[2][1, 1] / B[2][1, 0]))
    with pytest.raises(PoleHit, match=r"\(j, k\) = \(2, 1\)"):
        propagate(A, B, seed, NK)


@pytest.mark.parametrize("alpha", [np.pi / 3.0, ALPHA_C])
def test_propagate_pole_hit_next_to_a_pole(alpha):
    """A seed 1e-12 from the pole of B[0] puts s(0, 1) within chordal 1e-11 of infinity: PoleHit.
    1e-6 away the field is finite (|s| about 1e7) and holds both recurrences."""
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, alpha)
    pole = -B[0][1, 1] / B[0][1, 0]
    with pytest.raises(PoleHit, match=r"\(j, k\) = \(0, 1\)"):
        propagate(A, B, pole + 1e-12, NK)
    s = propagate(A, B, pole + 1e-6, NK)
    assert 1e6 < np.max(np.abs(s)) < 2e11
    assert np.max(chordal_residuals(A, s[:-1], s[1:])) <= 1e-11
    assert np.max(chordal_residuals(B, s[:, :-1], s[:, 1:])) <= 1e-11


def test_transforms_build_the_recurrence_matrices_once_per_field(monkeypatch):
    hs, grid, _ = hs_fixture()
    calls = []
    real = bk.build_abcd
    monkeypatch.setattr(bk, "build_abcd", lambda *args: calls.append(args) or real(*args))
    single_backlund(*grid, np.pi / 3.0)
    assert [angle for _, angle in calls] == [np.pi / 3.0]
    double_backlund(*grid, np.pi / 3.0)
    # s~ at alpha, s^ from the adjugates of the pair at -alpha
    assert [angle for _, angle in calls[1:]] == [np.pi / 3.0, -np.pi / 3.0]
    double_backlund(*grid, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j))
    assert [angle for _, angle in calls[3:]] == [ALPHA_C]   # |sin alpha| > 1: s^ = conj(s~)


# ---------------------------------------------------------------------------
# single transforms


def test_single_backlund_invariants():
    hs, grid, base = hs_fixture()
    for alpha in (np.pi / 3.0, 2.0 * np.pi / 3.0):
        net = single_backlund(*grid, alpha, s_tilde0=np.exp(0.7j))
        dist, ang, orth = transform_residuals(base, net, alpha)
        assert dist < 1e-9
        assert ang < 1e-9
        assert orth < 1e-9
        assert gauss_deviation(net) < 1e-7


@settings(max_examples=8, deadline=None, derandomize=True)
@given(k_count=st.integers(2, 2000), alpha=st.floats(0.05, np.pi - 0.05),
       phase=st.floats(-np.pi, np.pi))
def test_single_backlund_bounded_on_any_grid(k_count, alpha, phase):
    # The normal-form gauge is unit-determinant, so frames stay unit-sized
    # however many columns the grid has.
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, np.pi / 3.0)
    hs = gauge_to_hs(conn, data)
    frames = gauge_frame(rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=k_count), hs.gauge)
    assert np.max(np.abs(frames.Phi.val)) <= 10.0
    ang = column_angles(k_count, theta=np.pi / 3.0)
    base = build_rcnet(p, ang)
    net = single_backlund(hs, ang, alpha, s_tilde0=np.exp(1j * phase))
    assert np.all(np.isfinite(net.x)) and np.all(np.isfinite(net.n))
    assert max(nets.transform_residuals(base, net, alpha)) <= 1e-9


@lru_cache(maxsize=None)
def gauged_frames():
    """The gauged frames of ``hs_fixture``'s grid."""
    hs = hs_fixture()[0]
    p = hs.profile
    conn, _ = build_ck_connection(p, np.pi / 6.0)
    return gauge_frame(rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=NK), hs.gauge)


def docstring_w_frames(hs, alpha, seed):
    """New frames built directly from the documented W matrix."""
    frames = gauged_frames()
    s_grid = field_grid(hs, alpha, seed)
    cot = 1.0 / np.tan(alpha / 2.0)
    ratio = s_grid / hs.s[:, None]
    et = np.exp(frames.t0)
    val = np.empty(s_grid.shape + (2, 2), dtype=complex)
    dot = np.zeros_like(val)
    val[..., 0, 0] = cot * ratio
    val[..., 1, 1] = cot / ratio
    val[..., 0, 1] = 1j * et
    val[..., 1, 0] = 1j * et
    dot[..., 0, 1] = 1j * et
    dot[..., 1, 0] = 1j * et
    return FrameFamily(MatJet(val, dot) @ frames.Phi, frames.t0)


def test_single_matches_documented_w_matrix():
    hs, grid, _ = hs_fixture()
    seed = np.exp(0.4j)
    net = single_backlund(*grid, np.pi / 3.0, s_tilde0=seed)
    x, n = sym_arrays(docstring_w_frames(hs, np.pi / 3.0, seed), 2.0)
    assert np.max(np.abs(x.imag)) < 1e-10
    got_x, got_n = sym_frame(net, hs)   # the net in the Sym frame
    assert np.max(np.abs(x.real - got_x)) < 1e-10
    assert np.max(np.abs(n.real - got_n)) < 1e-10


def test_complex_angle_w_frame_leaves_real_space():
    """A lone W step with |sin alpha| > 1 has genuinely complex coordinates."""
    hs, _, _ = hs_fixture()
    x, n = sym_arrays(docstring_w_frames(hs, ALPHA_C, 1.3 * np.exp(0.4j)), 2.0)
    assert np.max(np.abs(x.imag)) > 1e-2


@pytest.mark.parametrize("transform", ["single", "double"])
def test_transforms_sweep_the_profile_their_normal_form_carries(monkeypatch, transform):
    """The transforms read the profile from hs, so normal-form data and rows cannot be paired
    wrongly: on rows -2..4 every transform entry passes.  The Sym formula receives the very
    profile the connection was seeded from, and the net is bit-identical to the one formed
    from a profile of the same rows built apart and passed beside hs."""
    p = profile_elliptic(0.6, -1, (-2, 4), j0=4)
    hs = gauge_to_hs(*build_ck_connection(p, np.pi / 3.0))
    ang = column_angles(10, theta=np.pi / 3.0)
    assert hs.profile is p
    calls, explicit_sym = [], nets.explicit_sym
    monkeypatch.setattr(bk, "explicit_sym", lambda *args: calls.append(args) or explicit_sym(*args))
    if transform == "single":
        net = single_backlund(hs, ang, 1.0, np.exp(0.4j))
        worst, _ = curvature_report(net, base=build_rcnet(p, ang), alpha=1.0)
        assert max(worst["distance"], worst["angle"], worst["orthogonality"]) <= 1e-9
    else:
        net, rep = double_backlund(hs, ang, ALPHA_C, 1.3 * np.exp(0.4j))
        worst, _ = curvature_report(net)
        assert rep.imag_residue <= 1e-9 and rep.unit_residual <= 1e-10
    assert worst["gauss"] <= 1e-7
    ((profile, angles, entries),) = calls
    assert profile is p and angles is ang
    apart = profile_elliptic(0.6, -1, (-2, 4), j0=4)
    x, n, _ = explicit_sym(apart, ang, entries)
    assert np.array_equal(x, net.x) and np.array_equal(n, net.n)


def test_single_backlund_rejections():
    hs, grid, _ = hs_fixture()
    with pytest.raises(ConfigError):
        single_backlund(*grid, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j))
    with pytest.raises(ConfigError):
        single_backlund(*grid, 0.0)
    with pytest.raises(ConfigError):
        single_backlund(*grid, np.pi / 3.0, s_tilde0=1.2 + 0.0j)


# ---------------------------------------------------------------------------
# double transforms


def test_double_backlund_complex_angle_returns_real_net():
    hs, grid, base = hs_fixture()
    net, rep = double_backlund(*grid, ALPHA_C, 1.3 * np.exp(0.4j))
    assert net.x.dtype == float and net.n.dtype == float
    assert rep.imag_residue < 1e-9
    assert rep.unit_residual < 1e-10
    assert np.max(np.abs(np.linalg.norm(net.n, axis=-1) - 1.0)) < 1e-9
    assert gauss_deviation(net) < 1e-7
    # it is a genuine transform, not the identity
    assert np.min(np.linalg.norm(net.x - base.x, axis=-1)) > 0.5


def test_double_backlund_real_angle_permutability():
    """Seeds with s~ s^ = 1 compose to the field 1/s at the corner."""
    hs, grid, _ = hs_fixture()
    params = (np.pi / 3.0, np.exp(0.4j), np.exp(-0.4j))
    net, rep = double_backlund(*grid, *params)
    assert abs(composed_field(hs, NK, *params)[1][0, 0] - 1.0 / hs.s[0]) < 1e-10
    assert rep.unit_residual < 1e-10
    assert rep.imag_residue < 1e-9
    assert gauss_deviation(net) < 1e-7


@pytest.mark.parametrize("transform", ["base", "single", "double"])
def test_nets_own_contiguous_real_coordinates(transform):
    """x and n of every Sym net are C-contiguous float64 arrays that own their memory, not
    strided real views that keep a complex parent alive."""
    hs, grid, base = hs_fixture()
    if transform == "single":
        net = single_backlund(*grid, np.pi / 3.0, s_tilde0=np.exp(0.4j))
    elif transform == "double":
        net, _ = double_backlund(*grid, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j))
    else:
        net = base
    for arr in (net.x, net.n):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.owndata


def test_double_backlund_condition_rejections():
    hs, grid, _ = hs_fixture()
    with pytest.raises(ConfigError):  # sin(alpha) must be real
        double_backlund(*grid, np.pi / 3.0 + 0.2j)
    with pytest.raises(ConfigError):  # |sin| <= 1 needs unit seeds
        double_backlund(*grid, np.pi / 3.0, s_tilde0=1.3 * np.exp(0.4j))
    with pytest.raises(ConfigError):  # |sin| > 1 needs conjugate seeds
        double_backlund(*grid, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j),
                                                   s_hat0=1.0 + 0.0j)


def test_double_backlund_rejects_non_finite_composed_field(monkeypatch):
    hs, grid, _ = hs_fixture()
    nan_field = np.full((hs.profile.nj, NK), np.nan + 0j)
    monkeypatch.setattr(bk, "_field", lambda *args: lambda rows: nan_field[rows])
    with pytest.raises(PoleHit):
        double_backlund(*grid, np.pi / 3.0)


@pytest.mark.parametrize("alpha", [np.pi / 3.0, ALPHA_C], ids=["real", "complex"])
def test_double_backlund_forms_each_block_once(monkeypatch, alpha):
    """The Sym pass calls the transform hook once per block of profile rows, and the hook
    forms that block's VW entries once: one lax_entries call per entry of row_blocks."""
    hs, grid, _ = hex_grid(700)
    blocks = nets.row_blocks(7, 700)
    assert len(blocks) == 4
    real, shapes = bk.lax_entries, []

    def counted(diag_l, *args):
        shapes.append(diag_l.shape)
        return real(diag_l, *args)

    monkeypatch.setattr(bk, "lax_entries", counted)
    double_backlund(*grid, alpha)
    assert shapes == [(len(range(7)[rows]), 700) for rows in blocks]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_double_backlund_finds_a_pole_in_a_later_block(tmp_path, monkeypatch, capsys):
    """On 7 x 2000 each profile row is a block.  s^ is planted so that
    1 - tan^2(a/2) s^ s~ vanishes (to rounding) in row 5: the transform stops in the sixth
    block, after the first five have formed their entries, and the CLI exits 3 at the
    backlund stage with one error line and no mesh."""
    hs, grid, _ = hex_grid(2000)
    assert nets.row_blocks(7, 2000) == [slice(j, j + 1) for j in range(7)]
    field, fields = bk._field, []

    def planted(*args):   # s^ is the second field a real-angle double transform forms
        block, rows_of = field(*args), {}
        fields.append(rows_of)

        def planted_block(rows):
            s = rows_of[rows.start] = block(rows)
            if len(fields) % 2 == 0 and rows.start == 5:
                s[0, 7] = 1.0 / (np.tan(0.5) ** 2 * fields[-2][5][0, 7])
            return s
        return planted_block

    lax_entries, blocks = bk.lax_entries, []
    monkeypatch.setattr(bk, "_field", planted)
    monkeypatch.setattr(bk, "lax_entries", lambda *args: blocks.append(1) or lax_entries(*args))
    with pytest.raises(PoleHit, match="composed scalar field hit a pole"):
        double_backlund(*grid, 1.0)
    assert len(blocks) == 5
    mesh = tmp_path / "pole.obj"
    code = cli.main(["double", "--surface.kind", "elliptic", "--surface.kappa", "0.6",
                     "--surface.K_sign", "-1", "--surface.j0", "4", "--surface.j_lo", "-3",
                     "--surface.j_hi", "3", "--rotation.k0", "6", "--rotation.k_count", "2000",
                     "--backlund.alpha", "1.0", "--output.mesh", str(mesh)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert err.splitlines() == ["error: stage=backlund: PoleHit: composed scalar field hit a pole"]
    assert out == "" and not mesh.exists()


# ---------------------------------------------------------------------------
# scalar fields formed and checked one block of profile rows at a time


@lru_cache(maxsize=None)
def wide_grid():
    """(hs, ang) of the 61 x 200 grid of the benchmark's wide jobs: seven blocks of 10 rows."""
    p = profile_elliptic(0.6, -1, (-30, 30), j0=4)
    return gauge_to_hs(*build_ck_connection(p, 2.0 * np.pi / 6.0)), column_angles(200, k0=6)


BLOCK_GRIDS = {"61x200": wide_grid, "7x3000": lambda: hex_grid(3000)[1]}


def transform_arrays(transform, grid, alpha, seed):
    """The net's arrays and, for a double transform, its report."""
    if transform == "single":
        net = single_backlund(*grid, alpha, seed)
        return net.x, net.n
    net, rep = double_backlund(*grid, alpha, seed)
    return net.x, net.n, rep.imag_residue, rep.unit_residual


@pytest.mark.parametrize("shape", BLOCK_GRIDS)
@pytest.mark.parametrize("transform, alpha", [("single", 1.0), ("double", 1.0),
                                              ("double", ALPHA_C)],
                         ids=["single", "double-real", "double-complex"])
def test_block_fields_are_the_whole_grid_fields(monkeypatch, shape, transform, alpha):
    """Each block of a field is bit for bit those rows of whole-grid ``propagate``, and the
    transform is bit for bit the one that takes each field whole and slices it per block.
    61 x 200 has blocks of 10 rows, 7 x 3000 blocks of one row."""
    hs, ang = grid = BLOCK_GRIDS[shape]()
    blocks = nets.row_blocks(hs.profile.nj, len(ang))
    assert len(blocks) == 7 and blocks[0] == slice(0, 10 if shape == "61x200" else 1)
    seed = 1.3 * np.exp(0.4j) if isinstance(alpha, complex) else np.exp(0.4j)
    fields = [(*pair(hs, alpha), seed, len(ang))]
    if transform == "double" and not isinstance(alpha, complex):
        fields.append((*pair(hs, alpha, "hat"), 1.0, len(ang)))
    for args in fields:
        block = bk._field(*args)
        assert np.array_equal(np.concatenate([block(rows) for rows in blocks]), propagate(*args))
    made = transform_arrays(transform, grid, alpha, seed)
    field = bk._field
    monkeypatch.setattr(bk, "_field", lambda *args: field(*args)(slice(None)).__getitem__)
    whole = transform_arrays(transform, grid, alpha, seed)
    assert all(np.array_equal(a, b) for a, b in zip(made, whole))


def pole_seed(A, B, j, k):
    """A seed whose field has u(j, k) = -1 in ``propagate``'s eigen-coordinate: s(j, k) is
    infinite up to rounding."""
    zr, za, rho, log_c = linearize(A, B)
    u0 = -np.exp(-(log_c[j] + k * (np.log(rho[0]) + np.mean(np.log(rho / rho[0])))))
    return complex((zr[0] + za[0] * u0) / (1.0 + u0))


@pytest.mark.parametrize("case, formed", [
    ("late pole", 4), ("boundary residual", 1), ("boundary residual, late pole", 1),
    ("Sym error, late pole", 1), ("near-parabolic", 0)])
def test_a_failing_block_raises_the_whole_grid_error(monkeypatch, case, formed):
    """A transform raises what whole-grid ``propagate`` raises, class and message: the first
    pole in row-major order, else the grid's worst residual and its gap, whichever block
    stopped the Sym pass and whatever stopped it.  On 61 x 200 a pole at (45, 0) stops the
    pass in its fifth block.  With A[9] perturbed, the A-step from the first block's last row
    into the second block fails, and a pole later on still wins.  A Sym error in the second
    block gives way to the pole.  Next to the parabolic rotation the first block fails, and
    the message carries the grid's worst residual, not the block's.  ``formed`` counts the
    blocks whose entries were formed before the stop."""
    hs, ang = grid = wide_grid()
    alpha = complex(np.pi / 2.0, np.log(3.0) + 1e-6) if case == "near-parabolic" else ALPHA_C
    A, B = build_abcd(hs, alpha)
    if case.startswith("boundary residual"):
        A = A.copy()
        A[9, 0, 1] *= 1.0 + 1e-6
        monkeypatch.setattr(bk, "build_abcd", lambda *args: (A, B))
    seed = pole_seed(A, B, 45, 0) if case.endswith("late pole") else 1.1 * np.exp(0.7j)
    with pytest.raises((PoleHit, PathInconsistent, BranchFailure)) as whole:
        propagate(A, B, seed, len(ang))
    if case.endswith("late pole"):
        assert str(whole.value) == "scalar field reaches infinity at (j, k) = (45, 0)"
    if case == "near-parabolic":   # the first block fails on its own, with its own residual
        assert type(whole.value) is BranchFailure
        with pytest.raises(BranchFailure) as first:
            bk._field(A, B, seed, len(ang))(slice(0, 10))
        assert str(first.value) != str(whole.value)
    lax_entries, blocks = bk.lax_entries, []

    def counted(*args):
        blocks.append(1)
        if case == "Sym error, late pole" and len(blocks) == 2:
            raise RealityViolated("planted")
        return lax_entries(*args)

    monkeypatch.setattr(bk, "lax_entries", counted)
    with pytest.raises(type(whole.value)) as made:
        double_backlund(*grid, alpha, seed)
    assert str(made.value) == str(whole.value)
    assert len(blocks) == formed + (case == "Sym error, late pole")


def test_double_backlund_rejects_non_finite_coordinates(monkeypatch):
    """A NaN in one transform term, which every Sym block forms through
    ``nets._transform_terms``, makes a coordinate NaN and must not pass as real."""
    hs, grid, _ = hs_fixture()
    transform_terms = nets._transform_terms

    def nan_terms(*entries):
        tx, tn = transform_terms(*entries)
        tx[0][0, 0] = complex(1.0, np.nan)
        return tx, tn

    monkeypatch.setattr(nets, "_transform_terms", nan_terms)
    with pytest.raises(RealityViolated):
        double_backlund(*grid, np.pi / 3.0)


# ---------------------------------------------------------------------------
# rotational periodicity


@lru_cache(maxsize=None)
def closing_hs(kappa, k0):
    p = profile_elliptic(kappa, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / k0)
    return gauge_to_hs(conn, data)


@pytest.mark.parametrize("kappa", [0.6, 1.5, 2.5])
@pytest.mark.parametrize("k0", [5, 6, 12])
def test_closed_form_root_gives_the_eigenvalue_ratio(kappa, k0):
    """Every returned alpha puts the eigenvalue ratio of B[0] and D[0] at e^{+-2 pi i p / N0}."""
    hs = closing_hs(kappa, k0)
    roots = 0
    for N0 in range(2, 40):
        for p in (None, 1, 2, 3):
            if p is not None and p >= N0:
                continue
            try:
                found = find_periodic_alpha(hs, N0, p=p)
            except NoRoot:
                continue
            roots += 1
            B, D = pair(hs, found.alpha)[1], pair(hs, found.alpha, "hat")[1]
            want = np.exp(2j * np.pi * found.p / N0)
            for M in (B[0], D[0]):
                lam = np.linalg.eigvals(M)
                ratio = lam[0] / lam[1]
                assert min(abs(ratio - want), abs(ratio - np.conj(want))) < 1e-9
    assert roots > 50


def test_find_periodic_alpha_real_root():
    hs = real_path_hs()
    found = find_periodic_alpha(hs, 8)
    assert isinstance(found.alpha, complex) and found.alpha.imag == 0.0
    assert 0.0 < found.alpha.real < np.pi
    assert found.p == 1 and found.residual < 1e-9


def test_find_periodic_alpha_lands_on_the_complex_line():
    hs, _, _ = hex_fixture()
    f8 = find_periodic_alpha(hs, 8)
    f9 = find_periodic_alpha(hs, 9)
    for found in (f8, f9):
        assert found.p == 1
        assert found.residual < 1e-9
        assert complex(found.alpha).real == np.pi / 2.0
        assert 1.0 < complex(found.alpha).imag < 2.0
    # a larger N0 asks for a smaller rotation phase, hence a smaller y
    assert complex(f9.alpha).imag < complex(f8.alpha).imag


def test_periodic_alpha_power_and_phase_dual_route():
    hs, _, _ = hex_fixture()
    found = find_periodic_alpha(hs, 8)
    B0 = build_abcd(hs, found.alpha)[1][0]
    lam = np.linalg.eigvals(B0)
    phase = abs(np.angle(lam[0] / lam[1]))
    assert abs(phase - 2.0 * np.pi / 8.0) < 1e-9
    hat = B0 / np.sqrt(B0[0, 0] * B0[1, 1] - B0[0, 1] * B0[1, 0])
    power = np.linalg.matrix_power(hat, 8)
    dev = min(np.max(np.abs(power - np.eye(2))), np.max(np.abs(power + np.eye(2))))
    assert dev < 1e-9


def test_find_periodic_alpha_on_d():
    hs, _, _ = hex_fixture()
    found = find_periodic_alpha(hs, 8)
    assert found.p == 1
    D0 = pair(hs, found.alpha, "hat")[1][0]
    hat = D0 / np.sqrt(D0[0, 0] * D0[1, 1] - D0[0, 1] * D0[1, 0])
    power = np.linalg.matrix_power(hat, 8)
    assert min(np.max(np.abs(power - np.eye(2))), np.max(np.abs(power + np.eye(2)))) < 1e-9


def test_find_periodic_alpha_skips_diverging_candidates_quietly(monkeypatch):
    """No numpy warning escapes the search at N0 = 39; a singular B[0] (trace residual NaN)
    and a power that overflows are skipped without one."""
    hs, _, _ = hex_fixture()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_periodic_alpha(hs, 39)
        real, calls = bk._matrices, []

        def singular_first(*args):   # det = 0 at p = 1, the real matrices after
            calls.append(args)
            return np.zeros((len(args[0]), 2, 2)) if len(calls) == 1 else real(*args)
        monkeypatch.setattr(bk, "_matrices", singular_first)
        assert find_periodic_alpha(hs, 39).p == 2
        monkeypatch.setattr(bk, "_matrices", lambda x, *_: np.broadcast_to(np.diag([2.0, 0.5]),
                                                                            (len(x), 2, 2)))
        with pytest.raises(NoRoot):   # 2^2000 overflows in every candidate's power
            find_periodic_alpha(hs, 2000)
    assert found.p == 1 and found.residual < 1e-9
    # 50-digit root of tr^2/det = 2 + 2 cos(2 pi / 39) on the float64 normal-form data
    assert complex(found.alpha).real == np.pi / 2.0
    assert abs(complex(found.alpha).imag - 1.110918965822448688557) < 1e-14


def test_find_periodic_alpha_no_root():
    hs, _, _ = hex_fixture()
    with pytest.raises(NoRoot, match="after 9 steps for p = 2$"):
        find_periodic_alpha(hs, 9, p=2)
    with pytest.raises(NoRoot, match="after 2 steps for every p in 1..1 coprime to 2$"):
        find_periodic_alpha(hs, 2)
    with pytest.raises(NoRoot):
        find_periodic_alpha(hs, 8, p=3)
    with pytest.raises(ConfigError):
        find_periodic_alpha(hs, 1)
    for p in (0, -1, 8, 9):   # phase indices outside 1 <= p < N0
        with pytest.raises(ConfigError, match=f"1 <= p < N0 = 8, got {p}"):
            find_periodic_alpha(hs, 8, p=p)


def test_find_periodic_alpha_holds_no_list_of_phase_indices():
    """The phase indices coprime to N0 are tried one at a time; at N0 = 10**5 a list of
    them takes about 1.5 MiB."""
    hs, _, _ = hex_fixture()
    tracemalloc.start()
    try:
        found = find_periodic_alpha(hs, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.p == 789 and found.residual <= bk._CLOSE_TOL
    assert peak < 2 ** 18


@pytest.mark.parametrize("excess, accepted", [(-0.01, True), (0.01, False)])
def test_trace_gate_sits_at_close_tol(monkeypatch, excess, accepted):
    """A candidate whose tr^2/det misses c by just over _CLOSE_TOL is skipped; just under, kept."""
    hs, _, _ = hex_fixture()
    c = 2.0 + 2.0 * np.cos(2.0 * np.pi / 8)
    # tr^2/det of diag(1, e^{i phi}) is 2 + 2 cos(phi)
    phi = np.arccos((c + (1.0 + excess) * bk._CLOSE_TOL - 2.0) / 2.0)
    fake = np.diag([1.0, np.exp(1j * phi)])
    monkeypatch.setattr(bk, "_matrices", lambda x, w, t, angle: np.broadcast_to(fake, (len(x), 2, 2)))
    if accepted:
        found = find_periodic_alpha(hs, 8, p=1)
        assert 0.98 * bk._CLOSE_TOL <= found.residual <= bk._CLOSE_TOL
    else:
        with pytest.raises(NoRoot):
            find_periodic_alpha(hs, 8, p=1)


@pytest.mark.parametrize("kappa", [0.6, 1.4, 2.5])
@pytest.mark.parametrize("N0", [400, 1000, 3000])
def test_large_annuli_close_at_the_first_phase_index(kappa, N0):
    found = find_periodic_alpha(closing_hs(kappa, 6), N0, p=1)
    assert found.p == 1 and found.residual <= bk._CLOSE_TOL


# the first index whose float64 N0-th power closes, which the transforms can step
@pytest.mark.parametrize("kappa, N0, p", [(0.6, 400, 1), (0.6, 1000, 7), (0.6, 3000, 11),
                                          (1.4, 400, 1), (1.4, 1000, 7), (1.4, 3000, 23),
                                          (2.5, 400, 3), (2.5, 1000, 7), (2.5, 3000, 19)])
def test_auto_p_skips_the_indices_the_float64_steps_do_not_close(kappa, N0, p):
    found = find_periodic_alpha(closing_hs(kappa, 6), N0)
    assert found.p == p and found.residual <= bk._CLOSE_TOL


@pytest.mark.parametrize("p", [None, 1])
@pytest.mark.parametrize("kappa", [0.6, 1.4, 2.5])
@pytest.mark.parametrize("N0", [8, 9, 39, 400, 3000])
def test_found_root_meets_the_trace_condition_in_40_digits(kappa, N0, p):
    """tr^2/det of B(0), written out in 40-digit arithmetic from the float64 normal-form
    scalars at the returned angle, is 2 + 2 cos(2 pi p / N0)."""
    hs = closing_hs(kappa, 6)
    try:
        found = find_periodic_alpha(hs, N0, p)
    except NoRoot:   # kappa = 2.5 has no root at p = 1 for N0 = 8, 9
        assert (kappa, p) == (2.5, 1) and N0 < 39
        return
    with mpmath.workdps(40):
        x, w = mpmath.mpc(complex(hs.s[0])), mpmath.mpc(complex(hs.m[0]))
        t = mpmath.tan(mpmath.mpc(complex(hs.delta2)) / 2)
        alpha = mpmath.mpc(complex(found.alpha))
        sa, ca = mpmath.sin(alpha), mpmath.cos(alpha)
        m11, m22 = sa * (x / t + t / x) / w, sa * w * (1 / (x * t) + x * t)
        m12, m21 = (1 / x - x) * ca - x - 1 / x, (x - 1 / x) * ca - x - 1 / x
        ratio = (m11 + m22) ** 2 / (m11 * m22 - m12 * m21)
        want = 2 + 2 * mpmath.cos(2 * mpmath.pi * found.p / N0)
        assert abs(ratio - want) < 1e-13


def test_scalar_field_closes_with_the_found_angle():
    hs, _, _ = hex_fixture()
    found = find_periodic_alpha(hs, 8)
    s = field_grid(hs, found.alpha, np.exp(0.3j), nk=26)
    nk = s.shape[1]
    assert np.max(np.abs(s[:, 8:] - s[:, : nk - 8])) < 1e-8


def test_double_transform_annulus_period():
    hs, grid, base = hex_fixture()
    nk = base.x.shape[1]
    assert np.max(np.abs(base.x[:, 6:] - base.x[:, : nk - 6])) < 1e-8
    for N0 in (8, 9):
        found = find_periodic_alpha(hs, N0)
        net, _ = double_backlund(*grid, found.alpha, 1.3 * np.exp(0.4j))
        period = lcm(6, N0)
        drift = np.max(np.abs(net.x[:, period:] - net.x[:, : nk - period]))
        assert drift < 1e-8
        assert gauss_deviation(net) < 1e-7


# ---------------------------------------------------------------------------
# linear form of the recurrence


def eigen_coordinate(s, zr, za):
    return (s - zr) / (za - s)


def chordal_residuals(M, s, target):
    """Chordal distances between M . s and target, written out per entry."""
    num = M[:, 0, 0, None] * s + M[:, 0, 1, None]
    den = M[:, 1, 0, None] * s + M[:, 1, 1, None]
    return 2.0 * np.abs(num - den * target) / np.sqrt(
        (np.abs(num) ** 2 + np.abs(den) ** 2) * (1.0 + np.abs(target) ** 2))


def test_linearize_fixed_points():
    """zeta_r, zeta_a are fixed points of B(j) that A(j) carries to those of row j+1;
    in the eigen-coordinate B(j) multiplies by rho(j) and A(j) by c(j)."""
    hs, _, _ = hs_fixture()
    z = 0.3 + 0.2j
    for alpha in (np.pi / 3.0, ALPHA_C):
        A, B = build_abcd(hs, alpha)
        zr, za, rho, log_c = linearize(A, B)
        assert abs(rho[0]) >= 1.0   # row 0 names the repelling fixed point zeta_r
        if alpha == np.pi / 3.0:   # a real angle keeps the fixed points on the unit circle
            assert np.max(np.abs(np.abs(np.concatenate((zr, za))) - 1.0)) < 1e-10
        for j in range(len(B)):
            for zeta in (zr[j], za[j]):
                assert abs(moebius(B[j], zeta) - zeta) < 1e-12
            u = eigen_coordinate(z, zr[j], za[j])
            assert_allclose(eigen_coordinate(moebius(B[j], z), zr[j], za[j]), rho[j] * u,
                            rtol=1e-12)
            if j < len(A):
                assert abs(moebius(A[j], zr[j]) - zr[j + 1]) < 1e-12
                assert abs(moebius(A[j], za[j]) - za[j + 1]) < 1e-12
                c = np.exp(log_c[j + 1] - log_c[j])
                assert_allclose(eigen_coordinate(moebius(A[j], z), zr[j + 1], za[j + 1]), c * u,
                                rtol=1e-12)
        assert_allclose(rho, rho[0], rtol=1e-12)   # A(j) conjugates B(j) to B(j+1)


def test_linearize_pairs_fixed_points_through_a(monkeypatch):
    """On an elliptic rotation (|rho| = 1) the names follow A whatever order the roots come in."""
    hs, _, _ = hex_fixture()
    alpha = find_periodic_alpha(hs, 8).alpha
    want = linearize(*build_abcd(hs, alpha))
    assert_allclose(np.abs(want[2]), 1.0, atol=1e-12)
    roots = bk._fixed_points
    odd = np.arange(hs.profile.nj) % 2 == 1

    def swapped_on_odd_rows(M):
        a, b = roots(M)
        return np.where(odd, b, a), np.where(odd, a, b)

    monkeypatch.setattr(bk, "_fixed_points", swapped_on_odd_rows)
    for got, ref in zip(linearize(*build_abcd(hs, alpha)), want):
        assert_allclose(got, ref, rtol=1e-15)


def test_linearize_matches_propagation():
    """The field is u(j, k) = u(0, 0) exp(log_c(j)) rho(j)^k in the eigen-coordinate of row j."""
    hs, _, _ = hs_fixture()
    seed = np.exp(0.3j)
    A, B = build_abcd(hs, np.pi / 3.0)
    zr, za, rho, log_c = linearize(A, B)
    s = propagate(A, B, seed, NK)
    u = eigen_coordinate(seed, zr[0], za[0]) * np.exp(log_c)[:, None]
    u = u * rho[:, None] ** np.arange(s.shape[1])
    assert_allclose(s, (zr[:, None] + u * za[:, None]) / (1.0 + u), rtol=0.0, atol=1e-12)


def test_propagate_seed_on_a_fixed_point_stays_there():
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    zr, za, _, _ = linearize(A, B)
    for zeta in (zr, za):
        s = propagate(A, B, zeta[0], NK)
        assert_allclose(s, np.broadcast_to(zeta[:, None], s.shape), atol=1e-14)


def test_linearize_rejections():
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    # trace 2, determinant 1: one double fixed point at -1
    shear = np.broadcast_to(np.array([[2.0, 1.0], [-1.0, 0.0]], dtype=complex), B.shape)
    with pytest.raises(BranchFailure, match=r"near-parabolic: min \|zeta_a - zeta_r\| = 0\.000e\+00"):
        propagate(A, shear, 1.0, NK)


@lru_cache(maxsize=None)
def long_hs(rows, theta):
    p = profile_elliptic(0.6, -1, (-(rows // 2), rows - rows // 2 - 1), j0=4)
    conn, data = build_ck_connection(p, theta)
    return gauge_to_hs(conn, data)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(rows=st.sampled_from([7, 61, 121]), k_count=st.sampled_from([2, 50, 200, 2000]),
       theta=st.sampled_from([np.pi / 3.0, 0.37]),
       alpha=st.one_of(st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
                       st.floats(0.0, 1.5, exclude_min=True).map(lambda y: complex(np.pi / 2.0, y))),
       radius=st.floats(0.7, 1.5), phase=st.floats(-np.pi, np.pi),
       field=st.sampled_from(["tilde", "hat"]))
def test_explicit_field_satisfies_both_recurrences(rows, k_count, theta, alpha, radius, phase,
                                                   field):
    hs = long_hs(rows, theta)
    seed = (1.0 if isinstance(alpha, float) else radius) * np.exp(1j * phase)
    Aj, Bj = pair(hs, alpha, field)
    try:
        s = propagate(Aj, Bj, seed, k_count)
    except BranchFailure:
        # eigen-coordinates are ill-conditioned next to the parabolic rotation y = ln 3
        if isinstance(alpha, float) or not abs(alpha.imag - np.log(3.0)) < 1e-3:
            raise
        return
    assert np.all(np.isfinite(s))
    assert np.max(chordal_residuals(Aj, s[:-1], s[1:])) <= 1e-11
    assert np.max(chordal_residuals(Bj, s[:, :-1], s[:, 1:])) <= 1e-11


@pytest.mark.parametrize("rows, k_count, theta, dy", [
    (7, 50, np.pi / 3.0, 1e-3), (7, 50, np.pi / 3.0, -1e-3), (7, 50, np.pi / 3.0, 1e-4),
    (7, 50, np.pi / 3.0, -1e-4), (121, 2000, 0.37, 1e-3), (121, 2000, 0.37, -1e-3)])
def test_explicit_field_next_to_the_parabolic_rotation(rows, k_count, theta, dy):
    """The fixed points of B merge at alpha = pi/2 + i ln 3 (kappa = 0.6).  This close to it
    the field still holds both recurrences, so the BranchFailure window stays this narrow."""
    hs = long_hs(rows, theta)
    alpha = complex(np.pi / 2.0, np.log(3.0) + dy)
    zr, za, _, _ = linearize(*build_abcd(hs, alpha))
    assert np.min(np.abs(za - zr)) < 0.06
    for field, seed in (("tilde", 1.1 * np.exp(0.7j)), ("hat", 1.1 * np.exp(-0.7j))):
        M, N = pair(hs, alpha, field)
        s = propagate(M, N, seed, k_count)
        assert np.max(chordal_residuals(M, s[:-1], s[1:])) <= 1e-11
        assert np.max(chordal_residuals(N, s[:, :-1], s[:, 1:])) <= 1e-11


def chordal_step_unbuffered(M, z, target):
    """The chordal step as it was written before it reused its buffers."""
    num, den = (M[:, i, 0, None] * z + M[:, i, 1, None] for i in (0, 1))
    norm = np.hypot(np.abs(num), np.abs(den))
    norm *= np.hypot(1.0, np.abs(target))
    den *= target
    num -= den
    return 2.0 * np.max(np.abs(num) / norm, initial=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_chordal_step_with_reused_buffers_is_bit_for_bit(seed):
    """Random maps and fields, with z on the pole of one map (its denominator exactly 0)."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(30, 2, 2)) + 1j * rng.normal(size=(30, 2, 2))
    z, target = (rng.normal(size=(30, 50)) * np.exp(2j * np.pi * rng.random((30, 50)))
                 for _ in range(2))
    M[3, 1] = 1.0, -z[3, 7]
    assert M[3, 1, 0] * z[3, 7] + M[3, 1, 1] == 0.0
    got = bk._chordal_step(M, z, target)
    assert np.isfinite(got) and got.hex() == chordal_step_unbuffered(M, z, target).hex()
