"""Command-line front end: build nets, transform them, export, verify.

Subcommands:

    cknet generate --config job.ini [--section.key value ...]
    cknet backlund --config job.ini ...
    cknet double   --config job.ini ...
    cknet search   --config job.ini ...
    cknet check    [--criterion N ...] [--output.report path]

Config files are INI sections with key = value lines (JSON documents of
the same two-level shape are accepted too); any key can be overridden on
the command line as --section.key value.  Meshes are written as
Wavefront OBJ, reports as JSON with one entry per measured invariant.

Exit codes: 0 success, 1 an invariant check failed, 2 configuration
error, 3 numeric failure inside the pipeline.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from importlib.resources import files
from math import isfinite, lcm

import numpy as np

from . import checks as checksmod
from .checks import CheckResult
from .backlund import (BacklundParams, double_backlund, find_periodic_alpha, single_backlund,
                       transform_residuals)
from .connect import build_ck_connection, gauge_to_hs, rotational_frames
from .errors import (CaseMismatch, CknetError, ConfigError, InvalidProfile,
                     ModulusOutOfRange)
from .lattice import flatness_residual, gauge_frame
from .nets import (ContactElementNet, CurvatureReport, curvature_report, gauss_residual,
                   period_drift, sym, unit_normal_residual, validate_ec)
from .revolution import (Profile, build_rcnet, conservation_drift, edge_residuals,
                         profile_elliptic, profile_hyp, profile_trig)

EXIT_OK, EXIT_INVARIANT, EXIT_CONFIG, EXIT_NUMERIC = 0, 1, 2, 3

_CONFIG_ERRORS = (ConfigError, InvalidProfile, ModulusOutOfRange, CaseMismatch)


class _StagedError(Exception):
    def __init__(self, stage: str, error: Exception):
        super().__init__(f"stage={stage}: {type(error).__name__}: {error}")
        self.stage = stage
        self.error = error


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage; package errors and float overflow carry its name."""
    try:
        return fn(*args, **kwargs)
    except (CknetError, OverflowError, FloatingPointError) as exc:
        raise _StagedError(name, exc) from exc


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
    sec = cfg.get(section, {})
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"missing config key {section}.{key}")
        return default
    raw = sec[key]
    try:
        if cast is bool and isinstance(raw, str):
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if cast is int and isinstance(raw, str):
            return int(raw, 0)
        # a JSON number or bool is never truncated into an int or bool key
        if cast in (int, bool) and (isinstance(raw, bool) != (cast is bool) or raw != int(raw)):
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


def export_obj(net: ContactElementNet, path: str, rep: CurvatureReport | None = None) -> None:
    """Wavefront OBJ quad mesh: v/vn per vertex, f per nondegenerate face.

    Vertices are written row-major (j outer, k inner); a face at (j, k)
    references, in order, (j,k), (j,k+1), (j+1,k+1), (j+1,k) by 1-based
    index.  Degenerate faces, taken from ``rep`` (computed when not
    given), become `# degenerate j k` comments.  Coordinates are written
    with 17 significant digits, so they read back exactly.
    """
    nj, nk = net.shape
    if rep is None:
        rep = curvature_report(net)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# cknet quad mesh {nj} x {nk}\n")
        for tag, arr in (("v", net.x), ("vn", net.n)):
            fh.write((f"{tag} %.17g %.17g %.17g\n" * (nj * nk)) % tuple(arr.reshape(-1).tolist()))
        # one block's objects live at a time; runs of faces share one integer template
        a = (np.arange(nj - 1)[:, None] * nk + np.arange(1, nk)).reshape(-1, 1)   # 1-based (j, k)
        corners = (a + [0, 1, nk + 1, nk]).reshape(-1).tolist()
        start = 0
        for stop in np.flatnonzero(rep.degenerate).tolist() + [a.size]:
            fh.write(("f %d %d %d %d\n" * (stop - start)) % tuple(corners[4 * start:4 * stop]))
            fh.write("# degenerate %d %d\n" % divmod(stop, nk - 1) if stop < a.size else "")
            start = stop + 1


def report_json(entries: list, parameters: dict, path: str) -> None:
    """Strict JSON (RFC 8259): a non-finite residual is written as null."""
    checks = [{"name": r.name, "tolerance": r.tolerance, "pass": r.passed,
               "max_residual": r.max_residual if isfinite(r.max_residual) else None}
              for r in entries]
    doc = {"checks": checks, "parameters": dict(parameters)}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def report_schema() -> dict:
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


# ---------------------------------------------------------------------------
# invariant measurements shared by the subcommands


def net_report_entries(p: Profile, net: ContactElementNet, k0=None,
                       rep: CurvatureReport | None = None) -> list:
    if rep is None:
        rep = curvature_report(net)
    out = [
        CheckResult("gaussian_constancy", gauss_residual(rep, p.K_sign), 1e-9),
        CheckResult("edge_constraint", validate_ec(net), 1e-9),
        CheckResult("profile_relations", edge_residuals(p), 1e-10),
        CheckResult("conservation", conservation_drift(p), 1e-10),
        CheckResult("unit_normal", unit_normal_residual(net), 1e-9),
    ]
    if k0 is not None and net.shape[1] > k0:
        out.append(CheckResult("rotational_period", period_drift(net, k0), 1e-8))
    return out


def _transformed_period(cfg: dict, k0, net: ContactElementNet) -> list:
    """The transformed net repeats after lcm(k0, N0) columns, when both are set."""
    N0 = _get(cfg, "backlund", "N0", int, None)
    if k0 is None or N0 is None or net.shape[1] <= lcm(k0, N0):
        return []
    return [CheckResult("transformed_period", period_drift(net, lcm(k0, N0)), 1e-8)]


def backlund_report_entries(base: ContactElementNet, net: ContactElementNet, alpha: float,
                            rep: CurvatureReport) -> list:
    dist, ang, orth = transform_residuals(base, net, alpha)
    return [
        CheckResult("backlund_distance", dist, 1e-9),
        CheckResult("backlund_normal_angle", ang, 1e-9),
        CheckResult("backlund_orthogonality", orth, 1e-9),
        CheckResult("transformed_gauss", gauss_residual(rep, -1), 1e-7),
    ]


def _finish(entries: list, parameters: dict, cfg: dict, net=None, rep=None) -> int:
    mesh_path = _get(cfg, "output", "mesh", str, None)
    report_path = _get(cfg, "output", "report", str, None)
    if net is not None and mesh_path:
        export_obj(net, mesh_path, rep)
    if report_path:
        report_json(entries, parameters, report_path)
    for r in entries:
        print(("PASS" if r.passed else "FAIL")
              + f" {r.name} residual={r.max_residual:.3e} tol={r.tolerance:.1e}")
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
    rep = _stage("verify", curvature_report, net)
    entries = _stage("verify", net_report_entries, p, net, k0, rep)
    params = flat_parameters(cfg)
    params["rotation.theta_effective"] = float(theta)
    return _finish(entries, params, cfg, net, rep)


def _hs_pipeline(cfg: dict):
    """Profile, rotation step, connection and its normal-form data: what every transform reads."""
    p = _stage("profile", build_profile, cfg)
    theta, k0 = _stage("rotation", rotation_step, cfg)
    k_count = _get(cfg, "rotation", "k_count", int)
    k_lo = _get(cfg, "rotation", "k_lo", int, 0)
    conn, data = _stage("connect", build_ck_connection, p, theta, k_count, k_lo=k_lo)
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
    base = _stage("sym", sym, frames_hs, 2.0)   # transform_residuals compares against it
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
    entries = [CheckResult("flatness", flatness_residual(conn), 1e-11)]
    rep = _stage("verify", curvature_report, net)
    entries += _stage("verify", backlund_report_entries, base, net, float(alpha.real), rep)
    entries += _transformed_period(cfg, k0, net)
    return _finish(entries, params, cfg, net, rep)


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
    crep = curvature_report(net)
    entries = [
        CheckResult("flatness", flatness_residual(conn), 1e-11),
        CheckResult("imag_residue", rep.imag_residue, 1e-9),
        CheckResult("unit_normal", unit_normal_residual(net), 1e-9),
        CheckResult("transformed_gauss", gauss_residual(crep, -1), 1e-7),
        CheckResult("permutability_unit", rep.unit_residual, 1e-10),
    ]
    entries += _transformed_period(cfg, k0, net)
    return _finish(entries, params, cfg, net, crep)


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
    for name in ("generate", "backlund", "double", "search"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="INI or JSON config file")
    sp = sub.add_parser("check")
    sp.add_argument("--config", help="INI or JSON config file")
    sp.add_argument("--criterion", type=int, action="append",
                    help="run only this acceptance criterion (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = parse_overrides(extra)
        cfg = load_config(args.config) if args.config else {}
        cfg = merge_config(cfg, overrides)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "backlund":
            return cmd_backlund(cfg)
        if args.command == "double":
            return cmd_double(cfg)
        if args.command == "search":
            return cmd_search(cfg)
        return cmd_check(cfg, args.criterion)
    except _StagedError as exc:
        code = EXIT_CONFIG if isinstance(exc.error, _CONFIG_ERRORS) else EXIT_NUMERIC
        print(f"error: {exc}", file=sys.stderr)
        return code
    except CknetError as exc:
        code = EXIT_CONFIG if isinstance(exc, _CONFIG_ERRORS) else EXIT_NUMERIC
        print(f"error: stage=config: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
