"""Runnable verification suite for every documented invariant.

Each criterion function measures residuals on small desk-scale fixtures
and returns CheckResult entries; ``run_all`` executes the lot.  A fixture
several criteria read is built once and keeps only what later ones read;
the transformed K=-1 fixtures are built by each reader, so none outlives
it.  The CLI ``check`` subcommand and the acceptance tests are thin
wrappers around this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np

from . import backlund as bk
from .cli import CheckResult
from .connect import build_ck_connection, gauge_to_hs
from .errors import ConfigError
from .lattice import flatness_residual, jet_residual
from .nets import ContactElementNet, curvature_report, period_drift
from .reference import (admissible_gauge, build_cmc_connection, closing_residual, gauge,
                        gauge_frame, gauss_from_profile, hs_lax, rigid_align, rotational_frames,
                        singular_vertices, sym)
from .revolution import (build_rcnet, column_angles, conservation_drift, elliptic_theta, jacobi,
                         profile_elliptic, profile_hyp, profile_trig)

THETA = np.pi / 6.0  # rotation step of the shared fixtures (k0 = 12)
COLUMNS = 15  # columns of the shared fixtures' nets


# ---------------------------------------------------------------------------
# fixtures (every criterion works on the same small grids)

PROFILE_SPECS = (
    ("trig", 0.6, +1), ("trig", 1.0, +1), ("trig", 1.4, +1),
    ("hyp", 0.6, -1), ("hyp", 1.0, -1), ("hyp", 1.4, -1),
    ("elliptic", 0.6, -1), ("elliptic", 1.0, -1), ("elliptic", 1.4, -1),
    ("elliptic", 0.6, +1), ("elliptic", 1.0, +1), ("elliptic", 1.4, +1),
)


@lru_cache(maxsize=None)
def fixture_profile(kind: str, kappa: float, K_sign: int):
    if kind == "trig":
        return profile_trig(np.full(6, -np.tan(0.05)), kappa, 0.0, j_lo=-3)
    if kind == "hyp":
        AB = (1.0 / kappa ** 2 - 1.0) / 4.0
        A = 2.0 / 3.0 if AB > 0.1 else 0.5
        return profile_hyp(np.full(4, 0.05), A, AB / A, j_lo=-2)
    if kind == "elliptic":
        return profile_elliptic(kappa, K_sign, (-3, 3), j0=4)
    raise ValueError(kind)


@lru_cache(maxsize=None)
def fixture_ck():
    """K=-1 fixture: elliptic kappa=0.6 profile, theta=pi/6, nets of 15 columns."""
    p = fixture_profile("elliptic", 0.6, -1)
    conn, data = build_ck_connection(p, THETA)
    return p, conn, data


def fixture_ck_hs(theta: float = THETA, k_count: int = COLUMNS):
    """(hs, column angles) of the K=-1 fixture, which the transforms read, built on each call:
    by default ``fixture_ck``'s grid; criterion 7 takes theta = pi/3 and 26 columns."""
    conn, data = build_ck_connection(fixture_profile("elliptic", 0.6, -1), theta)
    return gauge_to_hs(conn, data), column_angles(k_count, theta=theta)


@lru_cache(maxsize=None)
def fixture_cmc(case: int):
    """K=+1 fixture of construction 1 (kappa = 0.6) or 2 (kappa = 1.4)."""
    p = fixture_profile("trig", 0.6 if case == 1 else 1.4, +1)
    conn, data = build_cmc_connection(p, THETA)
    return p, conn, data


def fixture_linear():
    """Wide K=-1 fixture of 30 rows for the 30 x 50 explicit-field comparison (criterion 9)."""
    p = profile_elliptic(0.6, -1, (-15, 14), j0=16)
    return gauge_to_hs(*build_ck_connection(p, np.pi / 5.0))


def _cases():
    p1, conn1, _ = fixture_cmc(1)
    p2, conn2, _ = fixture_cmc(2)
    p3, conn3, _ = fixture_ck()
    return ((1, p1, conn1), (2, p2, conn2), (3, p3, conn3))


@lru_cache(maxsize=None)
def fixture_sym(case: int):
    """What criteria 4, 11 and 5 read of one build of a case's frames and Sym net: the
    rigid-motion residual against the directly built net, the drift under a shift by
    k0 = 12 columns and, for case 3 only, the largest change under an admissible gauge."""
    _, p, conn = _cases()[case - 1]
    frames = rotational_frames(conn, a0=p.a[0], b0=p.b[0], nk=COLUMNS)
    net = sym(frames, 2.0 if case == 3 else -2.0)
    out = (rigid_align(net, build_rcnet(p, column_angles(COLUMNS, theta=THETA))).residual,
           period_drift(net, 12))
    if case != 3:
        return out
    jj, kk = np.meshgrid(*map(np.arange, frames.shape), indexing="ij")
    G = admissible_gauge(0.02 * np.sin(1.0 + jj + 0.7 * kk),
                         0.10 * np.cos(2.0 + jj - kk),
                         0.30 * np.sin(3.0 * jj + kk))
    net1 = sym(gauge_frame(frames, G), 2.0)
    return out + (max(np.abs(net1.x - net.x).max(), np.abs(net1.n - net.n).max()),)


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> list[CheckResult]:
    """Every face of every built rotational net has K = K_sign."""
    out = []
    for kind, kappa, K_sign in PROFILE_SPECS:
        p = fixture_profile(kind, kappa, K_sign)
        tag = f"[{kind},kappa={kappa:g},K={K_sign:+d}]"
        out.append(CheckResult(f"c01_gauss_profile{tag}",
                               np.abs(gauss_from_profile(p) - K_sign).max(), 1e-12))
        worst, _ = curvature_report(build_rcnet(p, column_angles(13, k0=12)), K_sign, edge=True)
        out.append(CheckResult(f"c01_gauss_faces{tag}", worst["gauss"], 1e-9))
        out.append(CheckResult(f"c01_ec{tag}", worst["edge"], 1e-9))
    return out


def criterion_2() -> list[CheckResult]:
    """Profile conservation laws and elliptic-function identities."""
    out = []
    for kind, kappa, K_sign in PROFILE_SPECS:
        p = fixture_profile(kind, kappa, K_sign)
        tag = f"[{kind},kappa={kappa:g},K={K_sign:+d}]"
        out.append(CheckResult(f"c02_conservation{tag}", conservation_drift(p), 1e-10))
        if kind == "elliptic":
            Theta = elliptic_theta(kappa, 4)
            args = Theta * np.concatenate([p.js, p.js[:-1] + 0.5])
            sn, cn, dn = jacobi(args, kappa)
            worst = max(np.abs(sn ** 2 + cn ** 2 - 1.0).max(),
                        np.abs(dn ** 2 + kappa ** 2 * sn ** 2 - 1.0).max())
            out.append(CheckResult(f"c02_jacobi{tag}", worst, 1e-12))
    return out


def criterion_3() -> list[CheckResult]:
    """Flatness of all three connection families, value and derivative layers."""
    out = []
    h = 1e-4
    for case, _, conn in _cases():
        flat, fd = 0.0, 0.0
        for t in (-0.5, 0.0, 0.5):
            mid, up, dn_ = conn.at(t), conn.at(t + h), conn.at(t - h)
            flat = np.maximum(flat, flatness_residual(mid))   # np.maximum carries a NaN through
            for part in ("L", "M"):
                diff = (getattr(up, part).val - getattr(dn_, part).val) / (2.0 * h)
                fd = max(fd, float(np.abs(diff - getattr(mid, part).dot).max()))
        out.append(CheckResult(f"c03_flatness[case{case}]", flat, 1e-11))
        out.append(CheckResult(f"c03_jets[case{case}]", fd, 1e-6))
    return out


def criterion_4() -> list[CheckResult]:
    """Sym reconstruction matches the directly built net up to a rigid motion."""
    return [CheckResult(f"c04_sym[case{case}]", fixture_sym(case)[0], 1e-8) for case in (1, 2, 3)]


def criterion_5() -> list[CheckResult]:
    """Normal-form gauge is entrywise exact; admissible gauges keep the net."""
    _, conn, data = fixture_ck()
    hs = gauge_to_hs(conn, data)
    conn_gauged = gauge(conn, hs.gauge)
    direct = hs_lax(hs, 0.0)
    # the unit gauge leaves the real edge factors alpha0 (profile) and beta0 (rotation)
    ent = max(jet_residual(conn_gauged.L * data.alpha0[:, None, None, None], direct.L),
              jet_residual(conn_gauged.M * data.beta0[:, None, None, None], direct.M))
    return [CheckResult("c05_normal_form_entrywise", ent, 1e-11),
            CheckResult("c05_admissible_gauge", fixture_sym(3)[2], 1e-11)]


def criterion_6() -> list[CheckResult]:
    """Single transforms: distance, normal angle, orthogonality, curvature."""
    hs, ang = fixture_ck_hs()
    base_net = build_rcnet(hs.profile, ang)
    out = []
    for alpha in (np.pi / 3.0, np.pi / 2.0, 2.0 * np.pi / 3.0):
        for seed in (1.0 + 0.0j, np.exp(0.7j), np.exp(-1.9j)):
            net = bk.single_backlund(hs, ang, alpha, seed)
            worst, _ = curvature_report(net, base=base_net, alpha=alpha)
            tag = f"[alpha={alpha:.3f},seed={np.angle(seed):+.2f}]"
            out.append(CheckResult(f"c06_distance{tag}", worst["distance"], 1e-9))
            out.append(CheckResult(f"c06_angle{tag}", worst["angle"], 1e-9))
            out.append(CheckResult(f"c06_orthogonality{tag}", worst["orthogonality"], 1e-9))
            out.append(CheckResult(f"c06_gauss{tag}", worst["gauss"], 1e-7))
    return out


def criterion_7() -> list[CheckResult]:
    """Annulus search: the rotational recurrence closes and the net repeats."""
    hs, ang = fixture_ck_hs(np.pi / 3, 26)
    out = []
    for N0 in (8, 9):
        found = bk.find_periodic_alpha(hs, N0)
        out.append(CheckResult(f"c07_power[N0={N0}]", found.residual, bk._CLOSE_TOL))
        if abs(complex(found.alpha).imag) < 1e-12:
            net = bk.single_backlund(hs, ang, found.alpha.real)
        else:
            net, _ = bk.double_backlund(hs, ang, found.alpha, 1.3 * np.exp(0.4j))
        drift = period_drift(net, lcm(6, N0))
        out.append(CheckResult(f"c07_period[N0={N0}]", drift, 1e-8))
    return out


def criterion_8() -> list[CheckResult]:
    """Double transform with complex angle stays real, unit, pseudospherical."""
    net, rep = bk.double_backlund(*fixture_ck_hs(), np.pi / 2.0 + 0.5j, 1.3 * np.exp(0.4j))
    worst, _ = curvature_report(net)
    return [
        CheckResult("c08_imag_residue", rep.imag_residue, 1e-9),
        CheckResult("c08_unit_normal", net.unit_residual, 1e-9),
        CheckResult("c08_gauss", worst["gauss"], 1e-7),
        CheckResult("c08_permutability_unit", rep.unit_residual, 1e-10),
    ]


def criterion_9() -> list[CheckResult]:
    """Explicit eigen-coordinate field reproduces step-by-step Moebius iteration on a wide grid."""
    seed = np.exp(0.3j)
    # hs and the profile it carries are freed before propagate, which sets the peak
    A, B = bk.build_abcd(fixture_linear(), complex(np.pi / 3.0))
    explicit = bk.propagate(A, B, seed, 50)
    steps = np.empty_like(explicit)
    steps[0, 0] = seed
    for j in range(len(A)):
        steps[j + 1, 0] = bk.moebius(A[j], steps[j, 0])
    for k in range(steps.shape[1] - 1):   # every profile row at once
        z = steps[:, k]
        steps[:, k + 1] = (B[:, 0, 0] * z + B[:, 0, 1]) / (B[:, 1, 0] * z + B[:, 1, 1])
    return [CheckResult("c09_explicit_field", np.abs(explicit - steps).max(), 1e-9)]


def _brute_singular(net: ContactElementNet) -> set[tuple[int, int]]:
    """Independent singular-vertex scan with plain loops over Python floats: the ratio of
    each j-edge and each k-edge once, then the sign test at every interior vertex."""
    x, n = net.x.tolist(), net.n.tolist()
    nj, nk = net.shape

    def edge_R(xa, na, xb, nb):
        # each sum runs left to right from 0.0, in the order of the builtin sum up to
        # Python 3.11, so even the sign of a zero numerator is sum()'s
        d0, d1, d2 = xb[0] - xa[0], xb[1] - xa[1], xb[2] - xa[2]
        return (-(0.0 + (nb[0] - na[0]) * d0 + (nb[1] - na[1]) * d1 + (nb[2] - na[2]) * d2)
                / (d0 * d0 + d1 * d1 + d2 * d2))

    Rj = [list(map(edge_R, xa, na, xb, nb)) for xa, na, xb, nb in zip(x, n, x[1:], n[1:])]
    Rk = [list(map(edge_R, xr, nr, xr[1:], nr[1:])) for xr, nr in zip(x, n)]
    bad = {(j + 1, k) for j in range(nj - 2) for k in range(nk) if Rj[j][k] * Rj[j + 1][k] <= 0.0}
    bad |= {(j, k + 1) for j in range(nj) for k in range(nk - 2) if Rk[j][k] * Rk[j][k + 1] <= 0.0}
    return bad


def criterion_10() -> list[CheckResult]:
    """Singular-vertex detector agrees with a brute-force scan."""
    out = []
    for kappa in (0.6, 1.4):
        p = fixture_profile("elliptic", kappa, -1)
        net = build_rcnet(p, column_angles(13, theta=THETA))
        mism = len(singular_vertices(net) ^ _brute_singular(net))
        out.append(CheckResult(f"c10_singular[kappa={kappa:g}]", float(mism), 0.5))
    return out


def criterion_11() -> list[CheckResult]:
    """theta = 2 pi / k0 closes the monodromy and the reconstructed net."""
    out = []
    for case, _, conn in _cases():
        out.append(CheckResult(f"c11_monodromy[case{case}]", closing_residual(conn, 12), 1e-10))
        out.append(CheckResult(f"c11_period[case{case}]", fixture_sym(case)[1], 1e-8))
    return out


ALL_CRITERIA = (
    (1, criterion_1), (2, criterion_2), (3, criterion_3), (4, criterion_4),
    (5, criterion_5), (6, criterion_6), (7, criterion_7), (8, criterion_8),
    (9, criterion_9), (10, criterion_10), (11, criterion_11),
)


def run_all(numbers=None) -> list[CheckResult]:
    """All acceptance checks (or the listed criterion numbers), flattened.

    A number outside 1..11 raises ConfigError before any criterion runs.  A
    criterion that raises is reported as a single failed entry naming the
    exception instead of aborting the remaining criteria.
    """
    if unknown := sorted(set(numbers or ()) - {num for num, _ in ALL_CRITERIA}):
        raise ConfigError(f"no criterion {', '.join(map(str, unknown))}; they are numbered 1..11")
    out = []
    for num, fn in ALL_CRITERIA:
        if numbers is None or num in numbers:
            try:
                out.extend(fn())
            except Exception as exc:  # pragma: no cover - defensive surface
                out.append(CheckResult(f"c{num:02d}_error[{type(exc).__name__}]", np.inf, 0.0))
    return out
