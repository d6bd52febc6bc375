"""Command-line front end: build nets, transform them, export, verify.

Subcommands:

    cknet generate --config job.ini [--section.key value ...]
    cknet backlund --config job.ini ...
    cknet double   --config job.ini ...
    cknet search   --config job.ini ...
    cknet check    [--criterion N ...] [--output.report path]

Config files are INI sections with key = value lines (JSON documents of
the same two-level shape are accepted too); --section.key value overrides
any key some subcommand reads, and any other key is refused.  Meshes are
Wavefront OBJ, reports JSON with one entry per measured invariant.

Exit codes: 0 success, 1 an invariant check failed, 2 configuration
error (unknown key or criterion number too), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from functools import cache
from math import isfinite, lcm

import numpy as np

from . import checks as checksmod
from .checks import CheckResult
from .backlund import BacklundParams, double_backlund, find_periodic_alpha, single_backlund
from .connect import build_ck_connection, gauge_to_hs, rotational_frames
from .errors import CknetError, ConfigError, DegenerateGeometry
from .lattice import flatness_residual, gauge_frame
from .nets import ContactElementNet, curvature_report, sym
from .revolution import (Profile, build_rcnet, conservation_drift, edge_residuals,
                         profile_elliptic, profile_hyp, profile_trig)

EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3

# every key some subcommand reads through _get; main refuses any other
CONFIG_KEYS = frozenset((
    "surface.kind", "surface.j_lo", "surface.j_hi", "surface.c", "surface.A", "surface.B",
    "surface.kappa", "surface.K_sign", "surface.Theta", "surface.j0",
    "rotation.theta", "rotation.k0", "rotation.k_count", "rotation.k_lo",
    "backlund.alpha", "backlund.N0", "backlund.p", "backlund.seed", "backlund.seed_hat",
    "output.mesh", "output.report",
))


class _StagedError(Exception):
    def __init__(self, stage: str, error: Exception):
        super().__init__(f"stage={stage}: {type(error).__name__}: {error}")
        self.stage = stage
        self.error = error


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage: its errors carry its name, an unwritable output as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except (CknetError, OverflowError, FloatingPointError, MemoryError) as exc:
        raise _StagedError(name, exc) from exc
    except OSError as exc:
        raise _StagedError(name, ConfigError(f"cannot write output: {exc}")) from exc


# ---------------------------------------------------------------------------
# config handling


def _reject_constant(name: str):
    raise ValueError(f"bare {name} is not JSON")


def load_config(path: str) -> dict:
    """Two-level config from an INI file or a JSON object of objects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}") from exc
        if not isinstance(doc, dict) or any(not isinstance(v, dict) for v in doc.values()):
            raise ConfigError("JSON config must be an object of section objects")
        return {str(s): {str(k): v for k, v in sec.items()} for s, sec in doc.items()}
    parser = configparser.ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"invalid INI config {path}: {exc}") from exc
    return {s: dict(parser.items(s)) for s in parser.sections()}


def parse_overrides(extra: list) -> dict:
    """--section.key value pairs (or --section.key=value) into a config dict."""
    out: dict = {}
    i = 0
    while i < len(extra):
        tok = extra[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(extra):
                raise ConfigError(f"flag --{key} is missing a value")
            value = extra[i + 1]
            i += 2
        if "." not in key:
            raise ConfigError(f"override keys look like section.key, got {key!r}")
        sec, opt = key.split(".", 1)
        out.setdefault(sec, {})[opt] = value
    return out


def merge_config(base: dict, overrides: dict) -> dict:
    cfg = {s: dict(kv) for s, kv in base.items()}
    for sec, kv in overrides.items():
        cfg.setdefault(sec, {}).update(kv)
    return cfg


_MISSING = object()


def _get(cfg: dict, section: str, key: str, cast=str, default=_MISSING):
    if f"{section}.{key}" not in CONFIG_KEYS:
        raise KeyError(f"{section}.{key} is not in CONFIG_KEYS")
    sec = cfg.get(section, {})
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing config key {section}.{key}")
        return default
    raw = sec[key]
    try:
        if isinstance(raw, bool):   # a JSON true/false is no number, string or path
            raise ValueError(raw)
        if cast is int and isinstance(raw, str):
            return int(raw, 0)
        if cast is int and raw != int(raw):   # a JSON number is never truncated into an int key
            raise ValueError(raw)
        value = cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {section}.{key} = {raw!r} is not a {cast.__name__}") from exc
    if cast in (float, complex) and not np.isfinite(value):
        raise ConfigError(f"config key {section}.{key} = {raw!r} is not finite")
    return value


def flat_parameters(cfg: dict) -> dict:
    return {f"{sec}.{key}": val for sec, kv in sorted(cfg.items()) for key, val in sorted(kv.items())}


# ---------------------------------------------------------------------------
# pipeline pieces


def build_profile(cfg: dict) -> Profile:
    kind = _get(cfg, "surface", "kind")
    j_lo = _get(cfg, "surface", "j_lo", int)
    j_hi = _get(cfg, "surface", "j_hi", int)
    if j_hi <= j_lo:
        raise ConfigError(f"need surface.j_hi > surface.j_lo, got {j_lo}..{j_hi}")
    if kind in ("trig", "hyp"):
        c = _get(cfg, "surface", "c", float)
        A = _get(cfg, "surface", "A", float)
        B = _get(cfg, "surface", "B", float, 0.0)
        cs = np.full(j_hi - j_lo, c)
        p = profile_trig(cs, A, B, j_lo=j_lo) if kind == "trig" else profile_hyp(cs, A, B, j_lo=j_lo)
    elif kind == "elliptic":
        kappa = _get(cfg, "surface", "kappa", float)
        K_sign = _get(cfg, "surface", "K_sign", int)
        Theta = _get(cfg, "surface", "Theta", float, None)
        j0 = _get(cfg, "surface", "j0", int, 2)
        p = profile_elliptic(kappa, K_sign, (j_lo, j_hi), Theta=Theta, j0=j0)
    else:
        raise ConfigError(f"surface.kind must be trig, hyp or elliptic, got {kind!r}")
    want = _get(cfg, "surface", "K_sign", int, p.K_sign)
    if want != p.K_sign:
        raise ConfigError(f"surface.K_sign = {want} contradicts the {kind} family (K = {p.K_sign})")
    return p


def rotation_step(cfg: dict):
    """(theta, k0) from the rotation section; both given must be consistent."""
    theta = _get(cfg, "rotation", "theta", float, None)
    k0 = _get(cfg, "rotation", "k0", int, None)
    if theta is None and k0 is None:
        raise ConfigError("rotation needs theta or k0")
    if k0 is not None:
        if k0 < 3:
            raise ConfigError(f"rotation.k0 must be >= 3, got {k0}")
        exact = 2.0 * np.pi / k0
        if theta is not None and not (abs(theta - exact) <= 1e-12):
            raise ConfigError(f"rotation.theta = {theta} and k0 = {k0} are inconsistent")
        return exact, k0
    return theta, None


# ---------------------------------------------------------------------------
# artifacts


# %.17g of a float64 x with 1e-4 <= |x| < 1e16 is fixed notation: the 17
# digits of D = round(|x| * 10**(16 - E)), E = floor(log10 |x|), which
# Dekker's two-product forms exactly (README, "Output formats").  A value
# fills five little-endian uint64 words ("<u8", byte i of a word is byte i
# of the file on every host) with NUL in every unused byte: separator, sign,
# "0." and leading zeros, digit 0, then [point slot, digit] pairs for 1..16.
_POW10 = 10.0 ** np.arange(22)
_OBJ_ROWS = 512   # vertices per formatted chunk: bounds the writer's memory
_OBJ_FACES = 4096   # faces per run of f lines, for the same reason


@cache
def _digit_tables() -> tuple:
    """Lookup tables built on first use: the word of each 4-digit group, the place among digits
    1..16 of its last nonzero digit, and point, keep and head words (see ``_fill_cells``)."""
    E, slots = np.arange(-4, 16)[:, None], np.arange(32)     # slots: bytes of the group words
    digits = np.indices((10,) * 4, dtype=np.int64).reshape(4, -1).T
    places = np.where(digits != 0, np.arange(1, 5), 0).max(axis=1)
    head = np.zeros((2, 20, 10, 8), np.uint8)                 # by (negative, E + 4, digit 0)
    head[..., 0], head[1, ..., 1], head[..., 7] = 32, 45, np.arange(48, 58)
    head[..., 2:7] = np.where(np.arange(5) < (1 - E) * (E < 0), list(b"0.000"), 0)[:, None]
    return (((digits + 48) @ 256 ** np.arange(1, 8, 2, dtype=np.int64)).astype("<u8"),
            ((4 * np.arange(4)[:, None] + places) * (places > 0)).astype(np.int8).reshape(-1),
            (46 * (slots == 2 * E)).astype(np.uint8).view("<u8").T,
            (255 * (slots < 2 * np.arange(17)[:, None])).astype(np.uint8).view("<u8").T,
            head.view("<u8").reshape(-1))


def _scaled(a, k):
    """a * 10**k rounded half to even, as int64, for 1e-4 <= a < 1e16 and 10**16 <= a * 10**k."""
    b = _POW10[k]
    p = a * b
    ah, bh = 134217729.0 * a, 134217729.0 * b                 # 2**27 + 1: Veltkamp's split
    ah, bh = ah - (ah - a), bh - (bh - b)
    err = ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (b - bh)
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _fill_cells(xyz, cell) -> None:
    """Write %.17g of each value of the (n, 3) array ``xyz`` into its (n, 3, 5) word cell."""
    group, last_place, point, keep, head = _digit_tables()      # point and head by E + 4
    a = np.abs(xyz)
    slow = np.flatnonzero(~((a >= 1e-4) & (a < 1e16)))
    a.flat[slow] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    D = _scaled(a, k)
    off = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))
    if off.size:   # floor(log10 a) was one off, or D = 10**17 carries into E + 1
        k.flat[off] += np.where(D.flat[off] < 10 ** 16, 1, -1)
        D.flat[off] = _scaled(a.flat[off], k.flat[off])
    E4 = 20 - k                                                      # E + 4
    w = D // np.array([10 ** 12, 10 ** 8, 10 ** 4, 1], np.int64)[:, None, None] % 10000  # 1-16
    last = last_place.take(w + np.arange(0, 40000, 10000)[:, None, None]).max(axis=0)
    cell[..., 0] = head.take(((xyz < 0) * 20 + E4) * 10 + D // 10 ** 16)
    w = group.take(w)
    w |= point.take(E4, axis=1)
    w &= keep.take(np.maximum(last, E4 - 4), axis=1)          # keep digits 1..max(last, E)
    cell[..., 1:] = np.moveaxis(w, 0, -1)
    if slow.size:
        text = np.array([b" %.17g" % v for v in xyz.flat[slow].tolist()], dtype="S40")
        cell[slow // 3, slow % 3] = text.view("<u8").reshape(-1, 5)


def _obj_lines(tag: bytes, xyz) -> bytes:
    """The bytes of ``b"<tag> %.17g %.17g %.17g\\n" % row`` for each row of ``xyz``."""
    out = np.zeros((len(xyz), 17), "<u8")
    out[:, 0], out[:, 16] = int.from_bytes(tag, "little"), 10
    _fill_cells(xyz, out[:, 1:16].reshape(-1, 3, 5))
    return out.tobytes().translate(None, b"\0")


def _face_rows(lo: int, hi: int, nk: int):
    """Rows of ``b"f %d %d %d %d\\n"`` for the row-major faces lo..hi-1, as little-endian uint64
    words with NUL where no byte is printed: the 1-based indices of the corners (j,k), (j,k+1),
    (j+1,k+1), (j+1,k).  Each index the faces touch is formatted once, into a cell of words
    holding " %d", and the cells are gathered per corner."""
    corner = np.arange(lo, hi)
    corner += corner // (nk - 1) + 1   # the index of corner (j,k) of each face
    # corners (j,k) and (j,k+1) lie in a..b, the other two nk further on, in b+1+gap..b+nk
    a, b = int(corner[0]), int(corner[-1]) + 1
    gap = max(a + nk - b - 1, 0)
    v = np.r_[a:b + 1, b + 1 + gap:b + nk + 1]   # every index the faces touch, once
    width = len(str(b + nk))
    cells = np.zeros((len(v), (width + 8) // 8 * 8), np.uint8)
    cells[:, 0] = ord(" ")
    for i in range(width):
        place = 10 ** (width - 1 - i)
        np.copyto(cells[:, 1 + i], v // place % 10 + 48, casting="unsafe", where=v >= place)
    cells = cells.view("<u8")
    rows = np.empty((len(corner), 4 * cells.shape[1] + 2), "<u8")
    rows[:, 0], rows[:, -1] = ord("f"), ord("\n")
    corners = rows[:, 1:-1].reshape(len(corner), 4, -1)
    corner -= a
    for i, offset in enumerate((0, 1, nk + 1 - gap, nk - gap)):
        corners[:, i] = cells[corner + offset]
    return rows


def export_obj(net: ContactElementNet, path: str, degenerate: np.ndarray | None = None) -> None:
    """Wavefront OBJ quad mesh: v/vn per vertex, f per nondegenerate face.

    Vertices are written row-major (j outer, k inner); a face at (j, k)
    references, in order, (j,k), (j,k+1), (j+1,k+1), (j+1,k) by 1-based
    index.  Degenerate faces, the sorted row-major face indices
    ``degenerate`` (found by ``curvature_report`` when not given), become
    `# degenerate j k` comments.  Coordinates are written
    as ``%.17g``, so they read back exactly; a non-finite one raises
    DegenerateGeometry before the file is opened.
    """
    nj, nk = net.shape
    if not (np.isfinite(net.x).all() and np.isfinite(net.n).all()):
        raise DegenerateGeometry("the net has a non-finite coordinate; no mesh written")
    if degenerate is None:
        degenerate = curvature_report(net)[1]
    with open(path, "wb") as fh:
        fh.write(b"# cknet quad mesh %d x %d\n" % (nj, nk))
        for tag, arr in ((b"v", net.x), (b"vn", net.n)):
            rows = arr.reshape(-1, 3)
            for start in range(0, len(rows), _OBJ_ROWS):
                fh.write(_obj_lines(tag, rows[start:start + _OBJ_ROWS]))
        # one chunk's lines live at a time; runs between degenerate faces are cut out of them
        faces = (nj - 1) * (nk - 1)
        for lo in range(0, faces, _OBJ_FACES):
            hi = min(lo + _OBJ_FACES, faces)
            lines, start = _face_rows(lo, hi, nk), 0
            a, b = np.searchsorted(degenerate, (lo, hi))
            for i in (degenerate[a:b] - lo).tolist() + [len(lines)]:
                fh.write(lines[start:i].tobytes().translate(None, b"\0"))
                fh.write(b"# degenerate %d %d\n" % divmod(lo + i, nk - 1) if i < len(lines) else b"")
                start = i + 1


def report_json(entries: list, parameters: dict, path: str) -> None:
    """Strict JSON (RFC 8259): a non-finite residual is written as null."""
    checks = [{"name": r.name, "tolerance": r.tolerance, "pass": r.passed,
               "max_residual": r.max_residual if isfinite(r.max_residual) else None}
              for r in entries]
    doc = {"checks": checks, "parameters": dict(parameters)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# invariant measurements shared by the subcommands


def _period_entry(name: str, worst: dict) -> list:
    return [CheckResult(name, worst["period"], 1e-8)] if "period" in worst else []


def net_report_entries(p: Profile, worst: dict) -> list:
    """Report entries of a net of the profile ``p`` from its ``curvature_report`` residuals
    (Gauss, edge, unit and, when measured, period)."""
    return [
        CheckResult("gaussian_constancy", worst["gauss"], 1e-9),
        CheckResult("edge_constraint", worst["edge"], 1e-9),
        CheckResult("profile_relations", edge_residuals(p), 1e-10),
        CheckResult("conservation", conservation_drift(p), 1e-10),
        CheckResult("unit_normal", worst["unit"], 1e-9),
    ] + _period_entry("rotational_period", worst)


def backlund_report_entries(worst: dict) -> list:
    """Report entries of a single transform from the ``curvature_report`` residuals of the
    new net against the base net (transform, Gauss and, when measured, period)."""
    return [
        CheckResult("backlund_distance", worst["distance"], 1e-9),
        CheckResult("backlund_normal_angle", worst["angle"], 1e-9),
        CheckResult("backlund_orthogonality", worst["orthogonality"], 1e-9),
        CheckResult("transformed_gauss", worst["gauss"], 1e-7),
    ] + _period_entry("transformed_period", worst)


def _transformed_period(cfg: dict, k0, net: ContactElementNet):
    """lcm(k0, N0), after which a transformed net repeats, when both are set and the net
    has more columns; None otherwise."""
    N0 = _get(cfg, "backlund", "N0", int, None)
    if k0 is None or N0 is None or net.shape[1] <= lcm(k0, N0):
        return None
    return lcm(k0, N0)


def _finish(entries: list, parameters: dict, cfg: dict, net=None, degenerate=None) -> int:
    mesh_path = _get(cfg, "output", "mesh", str, None)
    report_path = _get(cfg, "output", "report", str, None)
    if report_path:
        _stage("report", report_json, entries, parameters, report_path)
    for r in entries:
        print(("PASS" if r.passed else "FAIL")
              + f" {r.name} residual={r.max_residual:.3e} tol={r.tolerance:.1e}")
    if net is not None and mesh_path:   # last, so a refused mesh still leaves the report
        _stage("export", export_obj, net, mesh_path, degenerate)
    return EXIT_OK if all(r.passed for r in entries) else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg: dict) -> int:
    p = _stage("profile", build_profile, cfg)
    theta, k0 = _stage("rotation", rotation_step, cfg)
    k_count = _get(cfg, "rotation", "k_count", int)
    k_lo = _get(cfg, "rotation", "k_lo", int, 0)
    if k0 is not None:
        net = _stage("rcnet", build_rcnet, p, k_count, k0=k0, k_lo=k_lo)
    else:
        net = _stage("rcnet", build_rcnet, p, k_count, theta=theta, k_lo=k_lo)
    period = k0 if k0 is not None and net.shape[1] > k0 else None
    worst, degenerate = _stage("verify", curvature_report, net, p.K_sign, edge=True, unit=True,
                               period=period)
    params = flat_parameters(cfg)
    params["rotation.theta_effective"] = float(theta)
    return _finish(net_report_entries(p, worst), params, cfg, net, degenerate)


def _hs_pipeline(cfg: dict):
    """Profile, rotation step, connection and its normal-form data: what every transform reads."""
    if (k_lo := _get(cfg, "rotation", "k_lo", int, 0)) != 0:
        raise ConfigError(f"rotation.k_lo = {k_lo} is read by generate only; transforms start at 0")
    p = _stage("profile", build_profile, cfg)
    theta, k0 = _stage("rotation", rotation_step, cfg)
    k_count = _get(cfg, "rotation", "k_count", int)
    conn, data = _stage("connect", build_ck_connection, p, theta, k_count)
    hs = _stage("gauge", gauge_to_hs, conn, data)
    return p, theta, k0, conn, hs


def _resolve_alpha(cfg: dict, hs, params: dict):
    alpha = _get(cfg, "backlund", "alpha", complex, None)
    if alpha is not None:
        return alpha
    N0 = _get(cfg, "backlund", "N0", int, None)
    if N0 is None:
        raise ConfigError("backlund needs alpha or N0")
    p_idx = _get(cfg, "backlund", "p", int, None)
    found = _stage("search", find_periodic_alpha, hs, N0, p=p_idx)
    params["backlund.alpha_found"] = str(complex(found.alpha))
    params["backlund.p_found"] = found.p
    params["backlund.power_residual"] = found.residual
    return complex(found.alpha)


def _gauged_frames(p: Profile, conn, hs):
    """Frames of the normal-form connection, which the transforms act on."""
    frames = _stage("frames", rotational_frames, conn, p.a[0], p.b[0])
    return gauge_frame(frames, hs.gauge)


def cmd_backlund(cfg: dict) -> int:
    p, theta, k0, conn, hs = _hs_pipeline(cfg)
    frames_hs = _gauged_frames(p, conn, hs)
    base = _stage("sym", sym, frames_hs, 2.0)   # the transform checks compare against it
    params = flat_parameters(cfg)
    alpha = _resolve_alpha(cfg, hs, params)
    if abs(alpha.imag) > 1e-12:
        raise ConfigError(
            f"transform angle {alpha} is not real; only the double transform "
            "produces a real net there (use the 'double' command)")
    alpha = complex(alpha.real)
    seed = _get(cfg, "backlund", "seed", complex, 1.0 + 0.0j)
    bp = BacklundParams(alpha, s_tilde0=seed)
    net = _stage("backlund", single_backlund, frames_hs, hs, bp)
    worst, degenerate = _stage("verify", curvature_report, net, base=base, alpha=alpha.real,
                               period=_transformed_period(cfg, k0, net))
    entries = [CheckResult("flatness", flatness_residual(conn), 1e-11)]
    return _finish(entries + backlund_report_entries(worst), params, cfg, net, degenerate)


def cmd_double(cfg: dict) -> int:
    p, theta, k0, conn, hs = _hs_pipeline(cfg)
    frames_hs = _gauged_frames(p, conn, hs)
    params = flat_parameters(cfg)
    alpha = _resolve_alpha(cfg, hs, params)
    seed = _get(cfg, "backlund", "seed", complex, 1.0 + 0.0j)
    seed_hat = _get(cfg, "backlund", "seed_hat", complex, None)
    kwargs = {"s_tilde0": seed}
    if seed_hat is not None:
        kwargs["s_hat0"] = seed_hat
    bp = BacklundParams(alpha, **kwargs)
    net, rep = _stage("backlund", double_backlund, frames_hs, hs, bp)
    worst, degenerate = _stage("verify", curvature_report, net, unit=True,
                               period=_transformed_period(cfg, k0, net))
    entries = [
        CheckResult("flatness", flatness_residual(conn), 1e-11),
        CheckResult("imag_residue", rep.imag_residue, 1e-9),
        CheckResult("unit_normal", worst["unit"], 1e-9),
        CheckResult("transformed_gauss", worst["gauss"], 1e-7),
        CheckResult("permutability_unit", rep.unit_residual, 1e-10),
    ] + _period_entry("transformed_period", worst)
    return _finish(entries, params, cfg, net, degenerate)


def cmd_search(cfg: dict) -> int:
    *_, hs = _hs_pipeline(cfg)
    N0 = _get(cfg, "backlund", "N0", int)
    p_idx = _get(cfg, "backlund", "p", int, None)
    found = _stage("search", find_periodic_alpha, hs, N0, p=p_idx)
    params = flat_parameters(cfg)
    params["backlund.alpha_found"] = str(complex(found.alpha))
    params["backlund.p_found"] = found.p
    entries = [CheckResult("periodicity_power", found.residual, 1e-9)]
    print(f"alpha = {found.alpha!r}  p = {found.p}  residual = {found.residual:.3e}")
    return _finish(entries, params, cfg)


def cmd_check(cfg: dict, criteria) -> int:
    numbers = set(criteria) if criteria else None
    results = _stage("check", checksmod.run_all, numbers)
    params = {"criteria": sorted(numbers) if numbers else "all"}
    return _finish(results, params, cfg)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cknet",
        description="discrete constant-curvature rotational nets and their transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "backlund", "double", "search", "check"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="INI or JSON config file")
    sub.choices["check"].add_argument("--criterion", type=int, action="append",
                                      help="run only this acceptance criterion (repeatable)")
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
        cfg = load_config(args.config) if args.config else {}
        cfg = merge_config(cfg, overrides)
        if unknown := sorted(set(flat_parameters(cfg)) - CONFIG_KEYS):
            raise ConfigError(f"unknown config key {unknown[0]}")
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "backlund":
            return cmd_backlund(cfg)
        if args.command == "double":
            return cmd_double(cfg)
        if args.command == "search":
            return cmd_search(cfg)
        return cmd_check(cfg, args.criterion)
    except (_StagedError, CknetError) as exc:
        staged = exc if isinstance(exc, _StagedError) else _StagedError("config", exc)
        print(f"error: {staged}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(staged.error, ConfigError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
