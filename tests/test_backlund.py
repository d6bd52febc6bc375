"""Tests for Backlund transforms: recurrences, invariants, periodicity."""

import tracemalloc
import warnings
from functools import lru_cache
from math import lcm

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
from cknet.nets import curvature_report, sym, sym_arrays
from cknet.revolution import profile_elliptic
from oracles import composed_field, v_form_matrices

ALPHA_C = np.pi / 2.0 + 0.5j  # sin is real with |sin| = cosh(0.5) > 1

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])


@lru_cache(maxsize=None)
def hs_fixture():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, np.pi / 6.0, 15)
    hs = gauge_to_hs(conn, data)
    frames = gauge_frame(rotational_frames(conn, a0=p.a[0], b0=p.b[0]), hs.gauge)
    return hs, frames, sym(frames, 2.0)


@lru_cache(maxsize=None)
def hex_grid(nk):
    """(hs, frames) of the closing rotation (theta = 2 pi / 6) over nk columns."""
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / 6.0, nk)
    hs = gauge_to_hs(conn, data)
    return hs, gauge_frame(rotational_frames(conn, a0=p.a[0], b0=p.b[0]), hs.gauge)


@lru_cache(maxsize=None)
def hex_fixture():
    """Closing rotation with enough columns for lcm(6, 9), and its Sym net."""
    hs, frames = hex_grid(26)
    return hs, frames, sym(frames, 2.0)


@lru_cache(maxsize=None)
def real_path_hs():
    """kappa = 1.5: delta2 is real and B[0] is elliptic on parts of both search paths."""
    p = profile_elliptic(1.5, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / 6.0, 8)
    return gauge_to_hs(conn, data)


def pair(hs, alpha, field="tilde"):
    """Recurrence matrices of the s~ field at alpha, or of the s^ field at beta = -alpha:
    the adjugates of the s~ matrices at beta."""
    A, B = build_abcd(hs, alpha if field == "tilde" else -alpha)
    return (A, B) if field == "tilde" else (quat.qconj(A), quat.qconj(B))


def field_grid(hs, alpha, seed, field="tilde"):
    return propagate(*pair(hs, alpha, field), seed, hs.domain.nk)


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
    hs, frames, _ = hs_fixture()
    net, rep = double_backlund(frames, hs, alpha, seed)
    given, given_rep = double_backlund(frames, hs, alpha, seed, s_hat0)
    assert np.array_equal(net.x, given.x) and np.array_equal(net.n, given.n)
    assert rep == given_rep
    with pytest.raises(ConfigError):   # a different s_hat0 is read, not ignored
        double_backlund(frames, hs, alpha, seed, 2.0j)


@pytest.mark.parametrize("field", ["alpha", "s_tilde0", "s_hat0"])
@pytest.mark.parametrize("alpha", [np.pi / 3.0, ALPHA_C], ids=["real", "complex"])
def test_transforms_refuse_non_finite_parameters(field, alpha):
    hs, frames, _ = hs_fixture()
    seed = 1.0 if alpha == np.pi / 3.0 else 1.3 * np.exp(0.4j)
    # complex(1, nan) would pass an `abs(alpha.imag) > 1e-12` test of the real-angle rule
    for bad in (complex("nan"), complex("inf"), complex(0.0, float("nan")), complex(1.0, float("nan")),
                complex(1.0, float("inf"))):
        args = {"alpha": alpha, "s_tilde0": seed, field: bad}
        with pytest.raises(ConfigError):
            double_backlund(frames, hs, **args)
        if field != "s_hat0":
            with pytest.raises(ConfigError):
                single_backlund(frames, hs, **args)


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
        assert s.shape == (hs.domain.nj, hs.domain.nk)
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
        propagate(A, B, seed, hs.domain.nk)


@pytest.mark.parametrize("field", ["tilde", "hat"])
def test_propagate_matches_scalar_moebius_steps(field):
    hs, _, _ = hs_fixture()
    Aj, Bj = pair(hs, ALPHA_C, field)
    seed = 1.3 * np.exp(0.4j)
    s = propagate(Aj, Bj, seed, hs.domain.nk)
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
        propagate(A, B, seed, hs.domain.nk)


@pytest.mark.parametrize("alpha", [np.pi / 3.0, ALPHA_C])
def test_propagate_pole_hit_next_to_a_pole(alpha):
    """A seed 1e-12 from the pole of B[0] puts s(0, 1) within chordal 1e-11 of infinity: PoleHit.
    1e-6 away the field is finite (|s| about 1e7) and holds both recurrences."""
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, alpha)
    pole = -B[0][1, 1] / B[0][1, 0]
    with pytest.raises(PoleHit, match=r"\(j, k\) = \(0, 1\)"):
        propagate(A, B, pole + 1e-12, hs.domain.nk)
    s = propagate(A, B, pole + 1e-6, hs.domain.nk)
    assert 1e6 < np.max(np.abs(s)) < 2e11
    assert np.max(chordal_residuals(A, s[:-1], s[1:])) <= 1e-11
    assert np.max(chordal_residuals(B, s[:, :-1], s[:, 1:])) <= 1e-11


def test_transforms_build_the_recurrence_matrices_once_per_field(monkeypatch):
    hs, frames, _ = hs_fixture()
    calls = []
    real = bk.build_abcd
    monkeypatch.setattr(bk, "build_abcd", lambda *args: calls.append(args) or real(*args))
    single_backlund(frames, hs, np.pi / 3.0)
    assert [angle for _, angle in calls] == [np.pi / 3.0]
    double_backlund(frames, hs, np.pi / 3.0)
    # s~ at alpha, s^ from the adjugates of the pair at -alpha
    assert [angle for _, angle in calls[1:]] == [np.pi / 3.0, -np.pi / 3.0]
    double_backlund(frames, hs, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j))
    assert [angle for _, angle in calls[3:]] == [ALPHA_C]   # |sin alpha| > 1: s^ = conj(s~)


# ---------------------------------------------------------------------------
# single transforms


def test_single_backlund_invariants():
    hs, frames, base = hs_fixture()
    for alpha in (np.pi / 3.0, 2.0 * np.pi / 3.0):
        net = single_backlund(frames, hs, alpha, s_tilde0=np.exp(0.7j))
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
    conn, data = build_ck_connection(p, np.pi / 3.0, k_count)
    hs = gauge_to_hs(conn, data)
    frames = gauge_frame(rotational_frames(conn, a0=p.a[0], b0=p.b[0]), hs.gauge)
    assert np.max(np.abs(frames.Phi.val)) <= 10.0
    base = sym(frames, 2.0)
    net = single_backlund(frames, hs, alpha, s_tilde0=np.exp(1j * phase))
    assert np.all(np.isfinite(net.x)) and np.all(np.isfinite(net.n))
    assert max(nets.transform_residuals(base, net, alpha)) <= 1e-9


def docstring_w_frames(hs, frames, alpha, seed):
    """New frames built directly from the documented W matrix."""
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
    return FrameFamily(frames.domain, MatJet(val, dot) @ frames.Phi, frames.t0)


def test_single_matches_documented_w_matrix():
    hs, frames, _ = hs_fixture()
    seed = np.exp(0.4j)
    net = single_backlund(frames, hs, np.pi / 3.0, s_tilde0=seed)
    x, n = sym_arrays(docstring_w_frames(hs, frames, np.pi / 3.0, seed), 2.0)
    assert np.max(np.abs(x.imag)) < 1e-10
    assert np.max(np.abs(x.real - net.x)) < 1e-10
    assert np.max(np.abs(n.real - net.n)) < 1e-10


def test_complex_angle_w_frame_leaves_real_space():
    """A lone W step with |sin alpha| > 1 has genuinely complex coordinates."""
    hs, frames, _ = hs_fixture()
    x, n = sym_arrays(docstring_w_frames(hs, frames, ALPHA_C, 1.3 * np.exp(0.4j)), 2.0)
    assert np.max(np.abs(x.imag)) > 1e-2


def test_single_backlund_rejections():
    hs, frames, _ = hs_fixture()
    with pytest.raises(ConfigError):
        single_backlund(frames, hs, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j))
    with pytest.raises(ConfigError):
        single_backlund(frames, hs, 0.0)
    with pytest.raises(ConfigError):
        single_backlund(frames, hs, np.pi / 3.0, s_tilde0=1.2 + 0.0j)


# ---------------------------------------------------------------------------
# double transforms


def test_double_backlund_complex_angle_returns_real_net():
    hs, frames, base = hs_fixture()
    net, rep = double_backlund(frames, hs, ALPHA_C, 1.3 * np.exp(0.4j))
    assert net.x.dtype == float and net.n.dtype == float
    assert rep.imag_residue < 1e-9
    assert rep.unit_residual < 1e-10
    assert np.max(np.abs(np.linalg.norm(net.n, axis=-1) - 1.0)) < 1e-9
    assert gauss_deviation(net) < 1e-7
    # it is a genuine transform, not the identity
    assert np.min(np.linalg.norm(net.x - base.x, axis=-1)) > 0.5


def test_double_backlund_real_angle_permutability():
    """Seeds with s~ s^ = 1 compose to the field 1/s at the corner."""
    hs, frames, _ = hs_fixture()
    params = (np.pi / 3.0, np.exp(0.4j), np.exp(-0.4j))
    net, rep = double_backlund(frames, hs, *params)
    assert abs(composed_field(hs, *params)[1][0, 0] - 1.0 / hs.s[0]) < 1e-10
    assert rep.unit_residual < 1e-10
    assert rep.imag_residue < 1e-9
    assert gauss_deviation(net) < 1e-7


@pytest.mark.parametrize("transform", ["base", "single", "double"])
def test_nets_own_contiguous_real_coordinates(transform):
    """x and n of every Sym net are C-contiguous float64 arrays that own their memory, not
    strided real views that keep a complex parent alive."""
    hs, frames, base = hs_fixture()
    if transform == "single":
        net = single_backlund(frames, hs, np.pi / 3.0, s_tilde0=np.exp(0.4j))
    elif transform == "double":
        net, _ = double_backlund(frames, hs, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j))
    else:
        net = base
    for arr in (net.x, net.n):
        assert arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.owndata


def test_double_backlund_condition_rejections():
    hs, frames, _ = hs_fixture()
    with pytest.raises(ConfigError):  # sin(alpha) must be real
        double_backlund(frames, hs, np.pi / 3.0 + 0.2j)
    with pytest.raises(ConfigError):  # |sin| <= 1 needs unit seeds
        double_backlund(frames, hs, np.pi / 3.0, s_tilde0=1.3 * np.exp(0.4j))
    with pytest.raises(ConfigError):  # |sin| > 1 needs conjugate seeds
        double_backlund(frames, hs, ALPHA_C, s_tilde0=1.3 * np.exp(0.4j),
                                                   s_hat0=1.0 + 0.0j)


def test_double_backlund_rejects_non_finite_composed_field(monkeypatch):
    hs, frames, _ = hs_fixture()
    nan_field = np.full((hs.domain.nj, hs.domain.nk), np.nan + 0j)
    monkeypatch.setattr(bk, "propagate", lambda *args, **kwargs: nan_field)
    with pytest.raises(PoleHit):
        double_backlund(frames, hs, np.pi / 3.0)


@pytest.mark.parametrize("alpha", [np.pi / 3.0, ALPHA_C], ids=["real", "complex"])
def test_double_backlund_forms_each_block_once(monkeypatch, alpha):
    """The Sym pass calls the transform hook once per block of profile rows, and the hook
    forms that block's VW entries once: one lax_entries call per entry of row_blocks."""
    hs, frames = hex_grid(700)
    blocks = nets.row_blocks(7, 700)
    assert len(blocks) == 4
    real, shapes = bk.lax_entries, []

    def counted(diag_l, *args):
        shapes.append(diag_l.shape)
        return real(diag_l, *args)

    monkeypatch.setattr(bk, "lax_entries", counted)
    double_backlund(frames, hs, alpha)
    assert shapes == [(len(range(7)[rows]), 700) for rows in blocks]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_double_backlund_finds_a_pole_in_a_later_block(tmp_path, monkeypatch, capsys):
    """On 7 x 2000 each profile row is a block.  s^ is planted so that
    1 - tan^2(a/2) s^ s~ vanishes (to rounding) in row 5: the transform stops in the sixth
    block, after the first five have formed their entries, and the CLI exits 3 at the
    backlund stage with one error line and no mesh."""
    hs, frames = hex_grid(2000)
    assert nets.row_blocks(7, 2000) == [slice(j, j + 1) for j in range(7)]
    propagate, fields = bk.propagate, []

    def planted(*args):   # s^ is the second field a real-angle double transform propagates
        fields.append(propagate(*args))
        if len(fields) % 2 == 0:
            fields[-1][5, 7] = 1.0 / (np.tan(0.5) ** 2 * fields[-2][5, 7])
        return fields[-1]

    lax_entries, blocks = bk.lax_entries, []
    monkeypatch.setattr(bk, "propagate", planted)
    monkeypatch.setattr(bk, "lax_entries", lambda *args: blocks.append(1) or lax_entries(*args))
    with pytest.raises(PoleHit, match="composed scalar field hit a pole"):
        double_backlund(frames, hs, 1.0)
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


def test_double_backlund_rejects_non_finite_coordinates(monkeypatch):
    """A NaN in one transform term, which every Sym block forms through
    ``nets._transform_terms``, makes a coordinate NaN and must not pass as real."""
    hs, frames, _ = hs_fixture()
    transform_terms = nets._transform_terms

    def nan_terms(*entries):
        tx, tn = transform_terms(*entries)
        tx[0][0, 0] = complex(1.0, np.nan)
        return tx, tn

    monkeypatch.setattr(nets, "_transform_terms", nan_terms)
    with pytest.raises(RealityViolated):
        double_backlund(frames, hs, np.pi / 3.0)


# ---------------------------------------------------------------------------
# rotational periodicity


@lru_cache(maxsize=None)
def closing_hs(kappa, k0):
    p = profile_elliptic(kappa, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, 2.0 * np.pi / k0, 8)
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


def test_find_periodic_alpha_skips_diverging_candidates_quietly():
    """No numpy warning escapes the search at N0 = 39, and a diverging power reads as inf."""
    hs, _, _ = hex_fixture()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = find_periodic_alpha(hs, 39)
        assert bk._power_residual(np.diag([2.0, 0.5]), 2000) == np.inf
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
    assert found.p == 789 and found.residual <= 1e-9
    assert peak < 2 ** 18


def test_scalar_field_closes_with_the_found_angle():
    hs, _, _ = hex_fixture()
    found = find_periodic_alpha(hs, 8)
    s = field_grid(hs, found.alpha, np.exp(0.3j))
    nk = s.shape[1]
    assert np.max(np.abs(s[:, 8:] - s[:, : nk - 8])) < 1e-8


def test_double_transform_annulus_period():
    hs, frames, base = hex_fixture()
    nk = base.x.shape[1]
    assert np.max(np.abs(base.x[:, 6:] - base.x[:, : nk - 6])) < 1e-8
    for N0 in (8, 9):
        found = find_periodic_alpha(hs, N0)
        net, _ = double_backlund(frames, hs, found.alpha, 1.3 * np.exp(0.4j))
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
    odd = np.arange(hs.domain.nj) % 2 == 1

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
    s = propagate(A, B, seed, hs.domain.nk)
    u = eigen_coordinate(seed, zr[0], za[0]) * np.exp(log_c)[:, None]
    u = u * rho[:, None] ** np.arange(s.shape[1])
    assert_allclose(s, (zr[:, None] + u * za[:, None]) / (1.0 + u), rtol=0.0, atol=1e-12)


def test_propagate_seed_on_a_fixed_point_stays_there():
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    zr, za, _, _ = linearize(A, B)
    for zeta in (zr, za):
        s = propagate(A, B, zeta[0], hs.domain.nk)
        assert_allclose(s, np.broadcast_to(zeta[:, None], s.shape), atol=1e-14)


def test_linearize_rejections():
    hs, _, _ = hs_fixture()
    A, B = build_abcd(hs, np.pi / 3.0)
    # trace 2, determinant 1: one double fixed point at -1
    shear = np.broadcast_to(np.array([[2.0, 1.0], [-1.0, 0.0]], dtype=complex), B.shape)
    with pytest.raises(BranchFailure, match=r"near-parabolic: min \|zeta_a - zeta_r\| = 0\.000e\+00"):
        propagate(A, shear, 1.0, hs.domain.nk)


@lru_cache(maxsize=None)
def long_hs(rows, k_count, theta):
    p = profile_elliptic(0.6, -1, (-(rows // 2), rows - rows // 2 - 1), j0=4)
    conn, data = build_ck_connection(p, theta, k_count)
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
    hs = long_hs(rows, k_count, theta)
    seed = (1.0 if isinstance(alpha, float) else radius) * np.exp(1j * phase)
    Aj, Bj = pair(hs, alpha, field)
    try:
        s = propagate(Aj, Bj, seed, hs.domain.nk)
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
    hs = long_hs(rows, k_count, theta)
    alpha = complex(np.pi / 2.0, np.log(3.0) + dy)
    zr, za, _, _ = linearize(*build_abcd(hs, alpha))
    assert np.min(np.abs(za - zr)) < 0.06
    for field, seed in (("tilde", 1.1 * np.exp(0.7j)), ("hat", 1.1 * np.exp(-0.7j))):
        M, N = pair(hs, alpha, field)
        s = propagate(M, N, seed, hs.domain.nk)
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
