"""The record contract: cknet's records are read-only slotted classes whose fields are their
``__slots__``; equality, hash and repr run over the fields, and ``__post_init__`` is looked
up on the record, so a hook set on the class (as perfbench's tracer sets one on
``ContactElementNet`` to count vertices) runs once per record built."""

import numpy as np
import pytest

from cknet import nets
from cknet.backlund import DoubleReport, PeriodicAlpha, double_backlund, single_backlund
from cknet.cli import CheckResult
from cknet.connect import CkEdgeData, HsLaxData, build_ck_connection, gauge_to_hs
from cknet.lattice import ConnectionFamily, MatJet
from cknet.nets import ContactElementNet
from cknet.reference import AlignResult, FrameFamily, rigid_align, rotational_frames
from cknet.revolution import Profile, build_rcnet, column_angles, profile_elliptic

THETA = np.pi / 6.0


def _desk():
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    conn, data = build_ck_connection(p, THETA)
    return p, conn, data


def _records():
    """One record of each class, built the way the package builds it."""
    p, conn, data = _desk()
    net = build_rcnet(p, column_angles(13, theta=THETA))
    frames = rotational_frames(conn, p.a[0], p.b[0], 13)
    return {Profile: p, MatJet: conn.L, ConnectionFamily: conn, CkEdgeData: data,
            HsLaxData: gauge_to_hs(conn, data), ContactElementNet: net,
            DoubleReport: DoubleReport(1e-16, 2e-15),
            PeriodicAlpha: PeriodicAlpha(0.7 + 0j, 1, 3e-14),
            CheckResult: CheckResult("gaussian_constancy", 1e-12, 1e-9), FrameFamily: frames,
            AlignResult: rigid_align(net, net)}


RECORDS = [Profile, MatJet, ConnectionFamily, CkEdgeData, HsLaxData, ContactElementNet,
           DoubleReport, PeriodicAlpha, CheckResult, FrameFamily, AlignResult]


@pytest.fixture(scope="module")
def records():
    return _records()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_read_only(records, cls):
    rec = records[cls]
    assert isinstance(rec, cls) and not hasattr(rec, "__dict__")
    for name in cls.__slots__:
        value = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is value
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_every_field(records, cls):
    text = repr(records[cls])
    assert text.startswith(f"{cls.__name__}(")
    for name in cls.__slots__:
        assert f"{name}=" in text, name


@pytest.mark.parametrize("cls, args", [
    (DoubleReport, (1e-16, 2e-15)),
    (PeriodicAlpha, (0.7 + 0j, 1, 3e-14)),
    (CheckResult, ("gaussian_constancy", 1e-12, 1e-9)),
], ids=["DoubleReport", "PeriodicAlpha", "CheckResult"])
def test_value_equality_and_hash(cls, args):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != args and a != object()
    for i, value in enumerate(args):
        other = cls(*args[:i], (value + "x") if isinstance(value, str) else value * 2 + 1,
                    *args[i + 1:])
        assert a != other and other != a, i


def test_check_result_fields():
    ok, bad = CheckResult("c", np.float64(1e-12), 1e-9), CheckResult("c", np.nan, 1e-9)
    assert type(ok.max_residual) is float and ok.passed is True and bad.passed is False
    assert bad == bad and bad != CheckResult("c", 1e-12, 1e-9)


def test_defaults_and_constructor_checks():
    p, conn, data = _desk()
    assert Profile(p.f, p.h, p.a, p.b, p.c, p.kappa, p.K_sign).j_lo == 0
    assert conn.t0 == 0.0 and conn.at(0.0) is conn and conn.at(0.5).t0 == 0.5
    bare = ConnectionFamily(conn.L, conn.M)
    assert (bare.t0, bare.rebuild) == (0.0, None)
    with pytest.raises(ValueError, match="no rebuild hook"):
        bare.at(0.5)
    with pytest.raises(ValueError, match="one edge jet per profile row"):
        ConnectionFamily(conn.M, conn.M)
    with pytest.raises(ValueError, match="shape mismatch"):
        MatJet(np.eye(2), np.zeros((1, 2, 2)))
    assert gauge_to_hs(conn, data).gauge is not None and HsLaxData(*range(7)).gauge is None
    frames = FrameFamily(conn.M.constant(np.eye(2)[None, None]))
    assert frames.t0 == 0.0 and np.array_equal(frames.cols.val, np.eye(2)[None])
    mirrored = p.mirrored()
    assert (mirrored.kappa, mirrored.K_sign, mirrored.j_lo) == (p.kappa, p.K_sign, p.j_lo)
    for name, sign in zip("fhabc", (-1, 1, -1, 1, -1)):
        assert np.array_equal(getattr(mirrored, name), sign * getattr(p, name)), name


def test_post_init_hook_on_the_class_runs_once_per_net(monkeypatch):
    calls, vertices = [], []
    post_init = nets.ContactElementNet.__post_init__

    def counted(net):   # what perfbench's tracer installs to count vertices
        calls.append(net)
        post_init(net)
        vertices.append(net.x.shape[0] * net.x.shape[1])

    monkeypatch.setattr(nets.ContactElementNet, "__post_init__", counted)
    p, conn, data = _desk()
    hs, ang = gauge_to_hs(conn, data), column_angles(13, theta=THETA)
    base = build_rcnet(p, ang)
    single = single_backlund(hs, ang, 1.0)
    double, _ = double_backlund(hs, ang, 1.0)
    again = ContactElementNet(base.x, base.n)
    assert list(map(id, calls)) == list(map(id, (base, single, double, again)))
    assert vertices == [7 * 13] * 4
    with pytest.raises(ValueError, match="unit length"):
        ContactElementNet(base.x, 2.0 * base.n)
    assert len(calls) == 5 and len(vertices) == 4   # the hook ran; the check raised in it
    monkeypatch.undo()
    ContactElementNet(base.x, base.n)
    assert len(calls) == 5
