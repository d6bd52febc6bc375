"""End-to-end tests of the command-line interface and its report artifacts."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cknet import checks, cli, errors, nets, reference as ref
from cknet.errors import ConfigError, DegenerateFace, DegenerateGeometry
from cknet.nets import ContactElementNet
from cknet.reference import FrameFamily, gauge_frame, rotational_frames
from cknet.revolution import build_rcnet, column_angles, profile_elliptic
from oracles import joined_obj, validate_report

PSEUDO_INI = """
[surface]
kind = elliptic
kappa = 1.0
K_sign = -1
j_lo = -2
j_hi = 2

[rotation]
k0 = 6
k_count = 8
"""

BACKLUND_INI = """
[surface]
kind = elliptic
kappa = 0.6
K_sign = -1
j_lo = -3
j_hi = 3
j0 = 4

[rotation]
k0 = 12
k_count = 15

[backlund]
alpha = 1.0471975511965976
seed = 1j
"""

HEX_INI = """
[surface]
kind = elliptic
kappa = 0.6
K_sign = -1
j_lo = -3
j_hi = 3
j0 = 4

[rotation]
k0 = 6
k_count = 26

[backlund]
N0 = 9
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def entry_names(report_path):
    doc = json.loads(open(report_path, encoding="utf-8").read())
    return [e["name"] for e in doc["checks"]], doc


def strict_json(path):
    """Parse a report as RFC 8259 JSON: bare NaN, Infinity and -Infinity are errors."""
    def reject(name):
        raise ValueError(f"bare {name} in {path}")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)


def obj_arrays(path, nj, nk):
    """Positions and normals of an OBJ written by export_obj, shape (nj, nk, 3) each."""
    rows = {"v": [], "vn": []}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tag, *vals = line.split()
        if tag in rows:
            rows[tag].append(vals)
    return tuple(np.array(rows[tag], dtype=float).reshape(nj, nk, 3) for tag in ("v", "vn"))


# ---------------------------------------------------------------------------
# generate


def test_generate_pseudosphere(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI)
    mesh = str(tmp_path / "out.obj")
    report = str(tmp_path / "out.json")
    code = cli.main(["generate", "--config", cfg,
                     "--output.mesh", mesh, "--output.report", report])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 6 and "FAIL" not in out
    names, doc = entry_names(report)
    assert names == ["gaussian_constancy", "edge_constraint", "profile_relations",
                     "conservation", "unit_normal", "rotational_period"]
    assert all(e["pass"] for e in doc["checks"])
    assert validate_report(doc) == []
    assert doc["parameters"]["rotation.theta_effective"] == 2.0 * np.pi / 6.0
    lines = open(mesh, encoding="utf-8").read().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 5 * 8
    assert sum(1 for l in lines if l.startswith("vn ")) == 5 * 8
    assert sum(1 for l in lines if l.startswith("f ")) == 4 * 7
    assert next(l for l in lines if l.startswith("f ")) == "f 1 2 10 9"


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_INI = re.findall(r"```ini\n(.*?)```", README, re.S)


@pytest.mark.parametrize("text", README_INI)
def test_readme_ini_examples_generate(tmp_path, capsys, text):
    """Each INI example of the README runs as written; its outputs go under tmp_path."""
    code = cli.main(["generate", "--config", write(tmp_path, "example.ini", text),
                     "--output.mesh", str(tmp_path / "out.obj"),
                     "--output.report", str(tmp_path / "out.json")])
    assert code == cli.EXIT_OK, capsys.readouterr()


def test_readme_has_an_ini_example():
    assert README_INI


def test_readme_library_usage_runs_as_written():
    """The Python block under "Library usage" runs, and holds the shapes its comments state."""
    (text,) = re.findall(r"## Library usage\n\n```python\n(.*?)```", README, re.S)
    ns = {}
    exec(compile(text, "README.md", "exec"), ns)
    assert ns["conn"].L.shape == (6, 1, 2, 2) and ns["conn"].M.shape == (7, 1, 2, 2)
    assert ns["hs"].gauge.shape == (7, 1, 2, 2)
    assert ref.rigid_align(ns["base"], ns["net"]).residual <= 1e-8   # criterion 4's tolerance


def test_generate_theta_route_has_no_period_entry(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI.replace("k0 = 6", "theta = 0.5"))
    report = str(tmp_path / "out.json")
    code = cli.main(["generate", "--config", cfg, "--output.report", report])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    names, _ = entry_names(report)
    assert "rotational_period" not in names and len(names) == 5


def test_generate_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI)
    mesh = str(tmp_path / "out.obj")
    report = str(tmp_path / "out.json")
    blobs = []
    for _ in range(2):
        assert cli.main(["generate", "--config", cfg, "--output.mesh", mesh,
                         "--output.report", report]) == cli.EXIT_OK
        blobs.append((open(mesh, "rb").read(), open(report, "rb").read()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_json_config_matches_ini(tmp_path, capsys):
    ini = write(tmp_path, "job.ini", PSEUDO_INI)
    mesh_a = str(tmp_path / "a.obj")
    mesh_b = str(tmp_path / "b.obj")
    doc = {
        "surface": {"kind": "elliptic", "kappa": 1.0, "K_sign": -1,
                    "j_lo": -2, "j_hi": 2},
        "rotation": {"k0": 6, "k_count": 8},
        "output": {"mesh": mesh_b},
    }
    jsn = write(tmp_path, "job.json", json.dumps(doc))
    assert cli.main(["generate", "--config", ini, "--output.mesh", mesh_a]) == cli.EXIT_OK
    assert cli.main(["generate", "--config", jsn]) == cli.EXIT_OK
    capsys.readouterr()
    assert open(mesh_a, "rb").read() == open(mesh_b, "rb").read()


def test_override_changes_surface(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI)
    report = str(tmp_path / "out.json")
    code = cli.main(["generate", "--config", cfg, "--surface.kappa", "0.6",
                     "--output.report", report])
    capsys.readouterr()
    assert code == cli.EXIT_OK
    _, doc = entry_names(report)
    assert doc["parameters"]["surface.kappa"] == "0.6"


def test_obj_export_round_trip(tmp_path):
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    net = build_rcnet(p, column_angles(4, theta=0.5))
    path = str(tmp_path / "mesh.obj")
    cli.export_obj(net, path, nets.curvature_report(net)[1])
    lines = open(path, encoding="utf-8").read().splitlines()
    vs = np.array([[float(t) for t in l.split()[1:]]
                   for l in lines if l.startswith("v ")]).reshape(net.x.shape)
    ns = np.array([[float(t) for t in l.split()[1:]]
                   for l in lines if l.startswith("vn ")]).reshape(net.n.shape)
    assert np.array_equal(vs, net.x)
    assert np.array_equal(ns, net.n)
    assert next(l for l in lines if l.startswith("f ")) == "f 1 2 6 5"


def test_obj_export_single_quad(tmp_path):
    x = np.array([[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                  [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]])
    n = np.zeros_like(x)
    n[..., 2] = 1.0
    path = str(tmp_path / "quad.obj")
    net = ContactElementNet(x, n)
    cli.export_obj(net, path, nets.curvature_report(net)[1])
    lines = open(path, encoding="utf-8").read().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("vn ")) == 4
    assert [l for l in lines if l.startswith("f ")] == ["f 1 2 4 3"]


def test_obj_export_matches_per_value_format(tmp_path):
    """Every coordinate is written as format(v, ".17g"); face (0,0) is degenerate."""
    x = np.array([[[-0.0, 1e-300, 0.0], [0.0, 1.0, 0.0], [1e300, 0.0, 0.0]],
                  [[0.0, 2.0, 0.0], [0.0, 3.0, 0.0], [1.0, 1.0, 1.0]]])
    n = np.array([[[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                  [[1.0, 1.0, 1.0], [-1.0, 0.0, 2.0], [0.0, -1.0, 2.0]]])
    net = ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))
    path = tmp_path / "mesh.obj"
    cli.export_obj(net, str(path), nets.curvature_report(net)[1])
    expected = ["# cknet quad mesh 2 x 3"]
    for tag, arr in (("v", net.x), ("vn", net.n)):
        for j in range(2):
            for k in range(3):
                expected.append(tag + " " + " ".join(format(float(v), ".17g") for v in arr[j, k]))
    expected += ["# degenerate 0 0", "f 2 3 6 5"]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    assert expected[1] == "v -0 1e-300 0"
    assert expected[3] == "v 1.0000000000000001e+300 0 0"


@pytest.mark.parametrize("faces", [
    [], [(0, 0), (0, 3)], [(5, 1), (5, 5)], [(1, 5), (2, 5), (4, 5)], [(2, k) for k in range(6)],
], ids=["none", "first_row", "last_row", "last_column", "whole_row"])
def test_obj_export_matches_joined_writer(tmp_path, faces):
    net = build_rcnet(profile_elliptic(0.6, -1, (-3, 3), j0=4), column_angles(7, theta=0.5))
    degenerate = np.zeros((6, 6), dtype=bool)
    degenerate[tuple(np.array(faces, dtype=int).reshape(-1, 2).T)] = True
    path = tmp_path / "mesh.obj"
    cli.export_obj(net, str(path), np.flatnonzero(degenerate))
    assert path.read_bytes() == joined_obj(net, degenerate)


def test_non_finite_net_is_refused_at_export(tmp_path, monkeypatch, capsys):
    """A NaN position makes the run exit 3 at the export stage, with no mesh written; the
    report is still written as strict JSON and every check line is still printed."""
    real = cli.build_rcnet

    def planted(*args, **kwargs):
        net = real(*args, **kwargs)
        x = net.x.copy()
        x[1, 2, 0] = np.nan
        return ContactElementNet(x, net.n)

    monkeypatch.setattr(cli, "build_rcnet", planted)
    mesh, report = tmp_path / "out.obj", tmp_path / "report.json"
    code = cli.main(["generate", "--config", write(tmp_path, "job.ini", PSEUDO_INI),
                     "--output.mesh", str(mesh), "--output.report", str(report)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert "error: stage=export: DegenerateGeometry" in captured.err
    assert not mesh.exists()
    doc = strict_json(report)
    assert validate_report(doc) == []
    names = [e["name"] for e in doc["checks"]]
    assert names and not all(e["pass"] for e in doc["checks"])
    assert [line.split()[1] for line in captured.out.splitlines()] == names
    net = planted(profile_elliptic(1.0, -1, (-2, 2)), column_angles(8, k0=6))
    degenerate = nets.curvature_report(net)[1]
    with pytest.raises(DegenerateGeometry):
        cli.export_obj(net, str(mesh), degenerate)
    assert not mesh.exists()


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
@pytest.mark.parametrize("key, stage", [("mesh", "export"), ("report", "report")])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, key, stage, where):
    """An output path in a missing directory, or naming a directory, exits 2 with one
    ``error: stage=...`` line and no traceback.  The report is written first, so a refused
    mesh still leaves it and the printed checks, and a refused report stops the run."""
    path = tmp_path / "no_such_dir" / "out" if where == "missing_dir" else tmp_path
    other = tmp_path / ("out.json" if key == "mesh" else "out.obj")
    code = cli.main(["generate", "--config", write(tmp_path, "job.ini", PSEUDO_INI),
                     f"--output.{key}", str(path),
                     "--output." + ("report" if key == "mesh" else "mesh"), str(other)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: stage={stage}: ConfigError: cannot write output: ")
    if key == "mesh":   # the report comes first and the checks are still printed
        assert validate_report(strict_json(other)) == [] and "PASS" in out
    else:
        assert out == "" and not other.exists()


# ---------------------------------------------------------------------------
# transform subcommands


def test_backlund_real_angle(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", BACKLUND_INI)
    report = str(tmp_path / "out.json")
    code = cli.main(["backlund", "--config", cfg, "--output.report", report])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "FAIL" not in out
    names, doc = entry_names(report)
    assert names == ["flatness", "backlund_distance", "backlund_normal_angle",
                     "backlund_orthogonality", "transformed_gauss"]
    assert all(e["pass"] for e in doc["checks"])
    assert validate_report(doc) == []


def test_backlund_complex_angle_points_to_double(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    code = cli.main(["backlund", "--config", cfg])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "double" in err


def test_double_annulus(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    report = str(tmp_path / "out.json")
    code = cli.main(["double", "--config", cfg, "--backlund.seed", "1.2+0.5j",
                     "--output.report", report])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "FAIL" not in out
    names, doc = entry_names(report)
    assert names == ["flatness", "imag_residue", "unit_normal",
                     "transformed_gauss", "permutability_unit", "transformed_period"]
    assert all(e["pass"] for e in doc["checks"])
    assert doc["parameters"]["backlund.alpha_found"].startswith("(1.5707963267948966+1.39")
    assert doc["parameters"]["backlund.p_found"] == 1


def test_search_finds_annulus_angle(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    report = str(tmp_path / "out.json")
    code = cli.main(["search", "--config", cfg, "--backlund.N0=8",
                     "--output.report", report])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert out.startswith("alpha = ")
    assert "p = 1" in out
    assert "PASS periodicity_power" in out
    names, doc = entry_names(report)
    assert names == ["periodicity_power"]
    assert doc["parameters"]["backlund.alpha_found"].startswith("(1.5707963267948966+1.51")


def test_search_and_double_record_the_same_root(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    found = {}
    for command in ("search", "double"):
        report = str(tmp_path / f"{command}.json")
        assert cli.main([command, "--config", cfg, "--output.report", report]) == cli.EXIT_OK
        params = entry_names(report)[1]["parameters"]
        found[command] = [params[f"backlund.{key}"]
                          for key in ("alpha_found", "p_found", "trace_residual")]
    capsys.readouterr()
    assert found["search"] == found["double"]
    assert found["search"][1] == 1 and 0.0 <= found["search"][2] <= cli._CLOSE_TOL


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_auto_p_double_skips_a_root_its_field_cannot_close(tmp_path, capsys):
    """At kappa = 0.05, N0 = 306 the p = 1 root exists but lies so near the parabolic point
    that the transform's field fails; without p the search takes p = 5, whose float64 steps
    close, and the annulus passes every entry."""
    extra = ["--surface.kappa", "0.05", "--rotation.k_count", "307", "--backlund.N0", "306"]
    code, _, report = run_desk(tmp_path, "double", extra, "auto_p")
    doc = entry_names(report)[1]
    assert code == cli.EXIT_OK and all(e["pass"] for e in doc["checks"])
    assert doc["parameters"]["backlund.p_found"] == 5
    code, _, _ = run_desk(tmp_path, "double", extra + ["--backlund.p", "1"], "p_1")
    assert code == cli.EXIT_NUMERIC
    assert "stage=backlund: BranchFailure: rotation recurrence is near-parabolic" in (
        capsys.readouterr().err)


def test_double_rejects_non_finite_seed(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    mesh = tmp_path / "out.obj"
    code = cli.main(["double", "--config", cfg, "--backlund.seed", "nan",
                     "--output.mesh", str(mesh)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "stage=config" in err and "backlund.seed" in err
    assert not mesh.exists()


def test_search_without_root_is_numeric_failure(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    code = cli.main(["search", "--config", cfg, "--backlund.p", "2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERIC
    assert "NoRoot" in err


def test_backlund_needs_angle_or_period(tmp_path, capsys):
    head = BACKLUND_INI.split("[backlund]")[0]
    cfg = write(tmp_path, "job.ini", head)
    code = cli.main(["backlund", "--config", cfg])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "alpha or N0" in err


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_missing_kind_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI.replace("kind = elliptic\n", ""))
    code = cli.main(["generate", "--config", cfg])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "surface.kind" in err


def test_inconsistent_rotation_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI)
    code = cli.main(["generate", "--config", cfg, "--rotation.theta", "1.0"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "inconsistent" in err


def test_nan_theta_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "job.ini", PSEUDO_INI)
    mesh = tmp_path / "out.obj"
    code = cli.main(["generate", "--config", cfg, "--rotation.theta", "nan",
                     "--output.mesh", str(mesh)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "stage=rotation" in err and "rotation.theta" in err
    assert not mesh.exists()


DEGENERATE_ROWS = ["--surface.j_lo", "-2", "--surface.j_hi", "2",
                   "--rotation.k0", "6", "--rotation.k_count", "8"]


def test_huge_trig_edge_is_profile_error(capsys):
    """A huge trig edge coefficient (c = 1e300) is a profile error, with no numpy warning."""
    code = cli.main(["generate", "--surface.kind", "trig", "--surface.c", "1e300",
                     "--surface.A", "0.6"] + DEGENERATE_ROWS)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "stage=profile: InvalidProfile" in err


def test_overflowing_trig_heights_are_profile_error(capsys):
    """c = 1e308 overflows the profile heights: a profile error, with no numpy warning."""
    code = cli.main(["generate", "--surface.kind", "trig", "--surface.c", "1e308",
                     "--surface.A", "0.6"] + DEGENERATE_ROWS)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "stage=profile: InvalidProfile: profile heights overflow" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c, j_lo, j_hi", [("0.9", "0", "300"), ("-0.9", "0", "300"),
                                           ("0.5", "-1100", "0")])
def test_long_hyp_meridian_is_profile_error(capsys, c, j_lo, j_hi):
    """The running product r of (1+c)/(1-c) overflows (or its anchor does) on a long
    hyperbolic meridian: one profile error line, with no numpy warning."""
    code = cli.main(["generate", "--surface.kind", "hyp", "--surface.c", c, "--surface.A", "0.5",
                     "--surface.B", "0.5", "--surface.j_lo", j_lo, "--surface.j_hi", j_hi,
                     "--rotation.k0", "6", "--rotation.k_count", "8"])
    err = capsys.readouterr().err.splitlines()
    assert code == cli.EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: stage=profile: InvalidProfile: ")


def test_underflowing_modulus_is_profile_error(capsys):
    """A modulus whose square underflows (kappa = 1e-300) is a profile error, without a warning."""
    code = cli.main(["generate", "--surface.kind", "elliptic", "--surface.kappa", "1e-300",
                     "--surface.K_sign", "-1"] + DEGENERATE_ROWS)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "stage=profile: InvalidProfile" in err


# The desk fixture as overrides only: elliptic kappa = 0.6, rows -3..3, k0 = 6.
DESK_KEYS = ["--surface.kind", "elliptic", "--surface.kappa", "0.6", "--surface.K_sign", "-1",
             "--surface.j0", "4", "--surface.j_lo", "-3", "--surface.j_hi", "3",
             "--rotation.k0", "6"]
ALPHA_C = "1.5707963267948966+0.5j"
# (command, extra overrides, OBJ shape); every gauged frame stays unit-sized,
# so grids far past the old float-overflow point of the gauge run cleanly.
LONG_GRIDS = {
    "double_400": ("double", ["--rotation.k_count", "400", "--backlund.alpha", ALPHA_C], (7, 400)),
    "double_2000": ("double", ["--rotation.k_count", "2000", "--backlund.alpha", ALPHA_C], (7, 2000)),
    "backlund_400": ("backlund", ["--rotation.k_count", "400", "--backlund.alpha", "1.0"], (7, 400)),
    # annulus with N0 = 400: the s^ field is conj(s~) instead of a second, drifting field
    "annulus_400": ("double", ["--rotation.k_count", "2401", "--backlund.N0", "400",
                               "--backlund.seed", "(1.2+0.5j)"], (7, 2401)),
    "double_121_rows": ("double", ["--surface.j_lo", "-60", "--surface.j_hi", "60",
                                   "--rotation.k_count", "200", "--backlund.alpha", ALPHA_C],
                        (121, 200)),
}


def run_desk(tmp_path, command, extra, tag):
    """Run ``command`` on the desk keys, with the outputs it reads (a mesh only where it
    writes one) in ``tmp_path``."""
    mesh, report = tmp_path / f"{tag}.obj", tmp_path / f"{tag}.json"
    outputs = ["--output.mesh", str(mesh)] if "output.mesh" in cli.KEYS[command] else []
    code = cli.main([command, *DESK_KEYS, *extra, *outputs, "--output.report", str(report)])
    return code, mesh, report


# meridians with f < 0 on every row: before the connection was built from the mirrored
# meridian, transformed_gauss read 39.5 and 1.41 on these
NEGATIVE_RADIUS = {
    "double_elliptic": ("double", "--surface.kind elliptic --surface.kappa 1.5552 "
                        "--surface.K_sign -1 --surface.j0 16 --surface.j_lo -35 "
                        "--surface.j_hi -25 --rotation.k0 5 --rotation.k_count 181 "
                        "--backlund.alpha (1.5707963267948966+1.1072757482117086j) "
                        "--backlund.seed (-1.1348098514854095+0.20986886407641694j)"),
    "backlund_hyp": ("backlund", "--surface.kind hyp --surface.c 0.0475 --surface.A -0.4333 "
                     "--surface.B -0.6801 --surface.j_lo -7 --surface.j_hi -3 --rotation.k0 6 "
                     "--rotation.k_count 13 --backlund.alpha 1.0"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NEGATIVE_RADIUS))
def test_negative_radius_transforms_pass(tmp_path, capsys, name):
    command, keys = NEGATIVE_RADIUS[name]
    report = tmp_path / "out.json"
    code = cli.main([command, *keys.split(), "--output.report", str(report)])
    assert code == cli.EXIT_OK, capsys.readouterr()
    doc = strict_json(report)
    assert doc["checks"] and all(e["pass"] for e in doc["checks"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(LONG_GRIDS))
def test_long_grids_run_finite(tmp_path, capsys, name):
    command, extra, shape = LONG_GRIDS[name]
    code, mesh, report = run_desk(tmp_path, command, extra, name)
    assert code == cli.EXIT_OK, capsys.readouterr()
    doc = strict_json(report)
    assert validate_report(doc) == []
    assert doc["checks"] and all(e["pass"] for e in doc["checks"])
    x, n = obj_arrays(mesh, *shape)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(n))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_double_at_a_far_imaginary_angle_keeps_unit_normals(tmp_path, capsys):
    """Job 0 of the benchmark's wide_double workload at seed 1: 61 x 200, alpha = pi/2 +
    1.1637i, where |s~| runs from 6.9e-4 to 1.0e2.  The Sym formula in the explicit frame
    (E0, E1, n) keeps the normals unit and the net real.  A vector form of the double
    transform built on the single one (d, D, x12, n12 in the meridian and parallel
    directions) cancels terms of size |s~|^(+-3) there: its normals miss unit length by
    1.9e-7, and the net's constructor raises an unclassified ValueError."""
    extra = ["--surface.j_lo", "-30", "--surface.j_hi", "30", "--rotation.k_count", "200",
             "--backlund.alpha", "(1.5707963267948966+1.163666698104886j)",
             "--backlund.seed", "(0.05547449308234642+1.0215000209071563j)"]
    code, _, report = run_desk(tmp_path, "double", extra, "far")
    assert code == cli.EXIT_OK, capsys.readouterr()
    worst = {e["name"]: e["max_residual"] for e in strict_json(report)["checks"]}
    assert worst["unit_normal"] <= 1e-9 and worst["imag_residue"] <= 1e-9


LONG_MERIDIAN = ["--surface.j_lo", "-3000", "--surface.j_hi", "3000", "--rotation.k_count", "13"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, alpha", [("double", "1.0"), ("double", ALPHA_C),
                                            ("backlund", "1.0")])
def test_long_meridian_transforms_pass_in_the_frame_of_generate(tmp_path, capsys, command,
                                                                alpha):
    """Rows -3000..3000 by 13 columns: every entry passes.  The transforms are written in
    the frame of ``generate``, so the backlund mesh lies |sin alpha| from the generate mesh
    of the same keys, vertex by vertex."""
    extra = [*LONG_MERIDIAN, "--backlund.alpha", alpha]
    code, mesh, report = run_desk(tmp_path, command, extra, command)
    assert code == cli.EXIT_OK, capsys.readouterr()
    assert all(e["pass"] for e in strict_json(report)["checks"])
    if command == "backlund":
        code, base, _ = run_desk(tmp_path, "generate", LONG_MERIDIAN, "generate")
        assert code == cli.EXIT_OK
        gap = np.linalg.norm(obj_arrays(mesh, 6001, 13)[0] - obj_arrays(base, 6001, 13)[0], axis=-1)
        assert np.max(np.abs(gap - np.sin(1.0))) <= 1e-9


@st.composite
def grid_extensions(draw):
    """A desk grid's column count and its extension by more rows (j_hi up to 40) or more
    columns (k_count up to 2000), with the same j_lo: (k_count, (j_hi, k_count) extended)."""
    k_count = draw(st.integers(7, 200))
    if draw(st.booleans()):
        return k_count, (draw(st.integers(4, 40)), k_count)
    return k_count, (3, draw(st.integers(k_count + 1, 2000)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=24, deadline=None, derandomize=True)
@given(angle=st.sampled_from([("1.0", "1.0"), ("0.706", "1.0"), (ALPHA_C, "1.2+0.5j")]),
       grids=grid_extensions())
def test_long_grid_starts_like_the_short_grid(angle, grids):
    """The double transform is prefix-consistent: every v and vn coordinate the desk grid
    shares with its extension moves by at most 1.5e-15.  The worst measured over these
    angles, and over every j_hi in 4..40 and seven column counts up to 2000 for desk grids
    of 7 to 200 columns, is 8.9e-16 (complex angle, more rows); more columns moved none."""
    (alpha, seed), (k_count, extended) = angle, grids
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for j_hi, cols in ((3, k_count), extended):
            mesh = os.path.join(tmp, f"{j_hi}x{cols}.obj")
            code = cli.main(["double", *DESK_KEYS, "--surface.j_hi", str(j_hi),
                             "--rotation.k_count", str(cols), "--backlund.alpha", alpha,
                             "--backlund.seed", seed, "--output.mesh", mesh])
            assert code == cli.EXIT_OK
            runs.append(obj_arrays(mesh, j_hi + 4, cols))
    for short, long in zip(*runs):
        assert np.max(np.abs(long[:7, :k_count] - short)) <= 1.5e-15


@pytest.mark.parametrize("vertex", [(60, 150), (40, 77)], ids=["last_block", "overlap_row"])
def test_nan_in_a_later_block_fails_its_checks(tmp_path, monkeypatch, capsys, vertex):
    """A NaN vertex in the last of the six blocks of rows of a 61 x 200 net, or in the row
    the fourth and fifth blocks share, reaches the Gauss and edge entries, and the net's
    constructor, which measures the unit entry, refuses it as a normal; Python's max over
    the blocks would keep the first block's finite value."""
    assert nets._BLOCK_VERTICES // 200 == 10   # blocks of face rows 0, 10, ..., 50
    real = cli.build_rcnet

    def planted(*args, **kwargs):
        net = real(*args, **kwargs)
        x, n = net.x.copy(), net.n.copy()
        x[vertex] = n[vertex] = np.nan
        with pytest.raises(ValueError, match="unit length by nan"):
            ContactElementNet(x, n)
        net = ContactElementNet(x, net.n.copy())
        net.n[vertex] = np.nan   # past the constructor's unit-length check
        return net

    monkeypatch.setattr(cli, "build_rcnet", planted)
    report = tmp_path / "report.json"
    code = cli.main(["generate", *DESK_KEYS, "--surface.j_lo", "-30", "--surface.j_hi", "30",
                     "--rotation.k_count", "200", "--output.report", str(report)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_INVARIANT
    doc = strict_json(report)
    assert validate_report(doc) == []
    checks = {e["name"]: e for e in doc["checks"]}
    for name in ("gaussian_constancy", "edge_constraint"):
        assert checks[name]["max_residual"] is None and checks[name]["pass"] is False
        assert f"FAIL {name} residual=nan" in out
    assert checks["profile_relations"]["pass"] and checks["conservation"]["pass"]
    assert checks["unit_normal"]["pass"]   # measured on construction, before the planted normal


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", ["0", "(1.5707963267948966+800j)"],
                         ids=["tan_half_zero", "sine_overflows"])
def test_double_rejects_an_angle_it_cannot_use(tmp_path, capsys, alpha):
    extra = ["--rotation.k_count", "26", "--backlund.alpha", alpha]
    code, mesh, _ = run_desk(tmp_path, "double", extra, "bad_alpha")
    err = capsys.readouterr().err.splitlines()
    assert code == cli.EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: stage=backlund: ConfigError: ")
    assert not mesh.exists()


# A = B(1+c)/(1-c) gives b(1) = -b(0): the profile edge at label 0 has mirrored normals
MIRRORED_HYP_KEYS = ["--surface.kind", "hyp", "--surface.c", "0.05", "--surface.A",
                     "0.5526315789473685", "--surface.B", "0.5", "--surface.j_lo", "-2",
                     "--surface.j_hi", "3", "--rotation.k0", "6", "--rotation.k_count", "13"]
# the same edge 1e-5 and 1e-8 (relative) off mirrored, and a fine meridian with edges of 1e-5
NEAR_MIRRORED_A = ["0.5526371052631579", "0.5526315844736842"]
FINE_HYP_KEYS = ["--surface.kind", "hyp", "--surface.c", "0.00001", "--surface.A", "0.6",
                 "--surface.B", "0.3", "--surface.j_lo", "-5", "--surface.j_hi", "5",
                 "--rotation.k0", "6", "--rotation.k_count", "13"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, extra", [("double", ["--backlund.alpha", "1.0"]),
                                            ("search", ["--backlund.N0", "8"])])
def test_mirrored_profile_edge_runs_clean(capsys, command, extra):
    p = cli.build_profile(cli.parse_argv([command, *MIRRORED_HYP_KEYS])[3])
    assert abs(p.b[-p.j_lo] + p.b[1 - p.j_lo]) < 1e-12
    near = [MIRRORED_HYP_KEYS + ["--surface.A", A] for A in NEAR_MIRRORED_A]
    for keys in [MIRRORED_HYP_KEYS, FINE_HYP_KEYS, *near]:
        code = cli.main([command, *keys, *extra])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_OK, (keys, err)
        assert err == "" and "FAIL" not in out


@pytest.mark.parametrize("command, extra, code", [
    ("generate", [], cli.EXIT_OK),
    ("backlund", ["--backlund.alpha", "1.0"], cli.EXIT_CONFIG),
    ("double", ["--backlund.alpha", ALPHA_C], cli.EXIT_CONFIG),
    ("search", ["--backlund.N0", "8"], cli.EXIT_CONFIG),
])
def test_column_offset_is_refused_where_it_would_be_ignored(tmp_path, capsys, command, extra,
                                                           code):
    # k_lo rotates the mesh of generate; the transforms have no use for it, even at 0
    for k_lo in ("3", "0"):
        got, mesh, report = run_desk(tmp_path, command,
                                     ["--rotation.k_count", "26", "--rotation.k_lo", k_lo, *extra],
                                     "k_lo")
        err = capsys.readouterr().err.splitlines()
        assert got == code
        if code == cli.EXIT_CONFIG:
            assert err == [f"error: stage=config: ConfigError: {command} does not read config key "
                           "rotation.k_lo"]
            assert not mesh.exists() and not report.exists()


def test_stage_names_floating_point_errors():
    def trapped():
        with np.errstate(over="raise"):
            return np.float64(1e300) * 1e300

    with pytest.raises(cli._StagedError) as info:
        cli._stage("rcnet", trapped)
    assert str(info.value).startswith("stage=rcnet: FloatingPointError: overflow")
    with pytest.raises(cli._StagedError) as info:
        cli._stage("gauge", math.pow, 2.4, 2000)
    assert str(info.value).startswith("stage=gauge: OverflowError: ")


@pytest.mark.parametrize("extra, stage", [
    (["--rotation.k_count", "100000000000000"], "rcnet"),
    (["--rotation.k_count", "26", "--surface.j_hi", "100000000000000"], "profile"),
])
def test_grid_too_large_to_allocate_is_a_numeric_failure(tmp_path, capsys, extra, stage):
    # numpy refuses the allocation at once; the run names the stage instead of a traceback
    code, mesh, report = run_desk(tmp_path, "generate", extra, "huge")
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert len(err.splitlines()) == 1 and err.startswith(f"error: stage={stage}: MemoryError: ")
    assert out == "" and not mesh.exists() and not report.exists()


@pytest.mark.parametrize("command", ["double", "backlund"])
def test_transform_grid_too_large_for_its_frames_is_a_numeric_failure(tmp_path, capsys, command):
    # the column angles, 0.8 PB, are refused at once, before any field or net is formed
    extra = ["--rotation.k_count", "100000000000000", "--backlund.alpha", "1.0"]
    code, mesh, report = run_desk(tmp_path, command, extra, "huge")
    out, err = capsys.readouterr()
    assert code == cli.EXIT_NUMERIC
    assert len(err.splitlines()) == 1 and err.startswith("error: stage=rcnet: MemoryError: ")
    assert out == "" and not mesh.exists() and not report.exists()


NEEDS_BUT_COUNT = {"generate": [], "backlund": ["--backlund.alpha", "1.0"],
                   "double": ["--backlund.alpha", "1.0"], "search": ["--backlund.N0", "9"]}
# a count too large to hold stops the other commands at stage=rcnet (the two tests above)
COUNT_CASES = [(command, k_count) for command in sorted(NEEDS_BUT_COUNT)
               for k_count in (None, "1", "-5")] + [("search", "100000000000000")]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, k_count", COUNT_CASES,
                         ids=[f"{command}-{k_count}" for command, k_count in COUNT_CASES])
def test_every_net_command_checks_its_column_count_in_the_rotation_stage(tmp_path, capsys,
                                                                          command, k_count):
    # the rotation stage reads and checks k_count for every net command, search included;
    # search forms no columns, so a count too large to hold passes there
    count = [] if k_count is None else ["--rotation.k_count", k_count]
    code, mesh, report = run_desk(tmp_path, command, count + NEEDS_BUT_COUNT[command], "count")
    out, err = capsys.readouterr()
    if k_count == "100000000000000":
        assert code == cli.EXIT_OK and err == "" and "PASS periodicity_power" in out
        return
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith("error: stage=rotation: ConfigError: ")
    assert out == "" and not mesh.exists() and not report.exists()


def test_non_finite_residuals_make_strict_json_reports(tmp_path):
    # one face, degenerate (a vanishing position diagonal): the Gauss residual has no face to
    # measure
    x = np.array([[[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    n = np.array([[[0.0, 0.0, 1.0], [0.3, 0.0, 1.0]], [[0.0, 0.3, 1.0], [0.3, 0.3, 1.0]]])
    net = ContactElementNet(x, n / np.linalg.norm(n, axis=-1, keepdims=True))
    worst, degenerate = nets.curvature_report(net)
    assert degenerate.tolist() == [0]
    entries = [cli.CheckResult("gauss", worst["gauss"], 1e-9),
               cli.CheckResult("nan", np.nan, 1e-9), cli.CheckResult("fine", 1e-12, 1e-9)]
    path = tmp_path / "report.json"
    cli.report_json(entries, {"n": 1}, str(path))
    doc = strict_json(path)
    assert [(e["max_residual"], e["pass"]) for e in doc["checks"]] == [
        (None, False), (None, False), (1e-12, True)]
    assert validate_report(doc) == []


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e16, 1e-5, 0.1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(
           st.text(st.sampled_from('"\\,[]{}: \n\taé☃𝄞') | st.characters(), max_size=12),
           st.sampled_from(EDGE_FLOATS) | st.floats(),
           st.sampled_from(EDGE_FLOATS[3:]) | st.floats(allow_nan=False, allow_infinity=False),
           st.booleans()), max_size=6),
       parameters=st.dictionaries(
           st.text(max_size=8),
           st.text(max_size=8) | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
           | st.lists(st.integers(1, 11), unique=True).map(sorted) | st.just("all"),
           max_size=4))
def test_report_bytes_are_those_of_json_dumps(entries, parameters):
    """The fixed-template writer against json.dumps over names with quotes, backslashes,
    brackets, control and non-ASCII characters, residuals that are NaN, infinite, -0.0,
    subnormal or huge, float and np.float64 tolerances, and parameters that are strings,
    integers, floats, check's sorted criterion list or none at all."""
    results = [cli.CheckResult(name, residual, np.float64(tol) if wrap else tol)
               for name, residual, tol, wrap in entries]
    doc = {"checks": [{"name": r.name, "tolerance": r.tolerance, "pass": r.passed,
                       "max_residual": r.max_residual if math.isfinite(r.max_residual) else None}
                      for r in results],
           "parameters": parameters}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        cli.report_json(results, parameters, str(path))
        written = path.read_bytes()
    assert written == (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, np.float64(-math.inf)])
def test_report_refuses_a_non_finite_tolerance_as_json_dumps_does(tmp_path, tolerance):
    with pytest.raises(ValueError, match="JSON compliant"):
        cli.report_json([cli.CheckResult("x", 0.0, tolerance)], {}, str(tmp_path / "r.json"))


def test_crashed_criterion_makes_a_strict_json_report(tmp_path, monkeypatch, capsys):
    def crash():
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(checks, "ALL_CRITERIA", ((1, crash),))
    report = tmp_path / "check.json"
    code = cli.main(["check", "--output.report", str(report)])
    assert code == cli.EXIT_INVARIANT
    assert "FAIL c01_error[ZeroDivisionError] residual=inf" in capsys.readouterr().out
    doc = strict_json(report)
    assert doc["checks"] == [{"name": "c01_error[ZeroDivisionError]", "max_residual": None,
                              "tolerance": 0.0, "pass": False}]
    assert validate_report(doc) == []


def test_generate_computes_face_normals_once(tmp_path, monkeypatch, capsys):
    """The curvature report and the OBJ writer share one report, so one pass over the faces."""
    calls = count_calls(monkeypatch, nets.curvature_report)
    cfg = write(tmp_path, "job.ini", PSEUDO_INI)
    code = cli.main(["generate", "--config", cfg, "--output.mesh", str(tmp_path / "out.obj")])
    assert code == cli.EXIT_OK
    assert calls == {"curvature_report": 1}


def test_double_names_the_verify_stage_of_a_face_failure(tmp_path, monkeypatch, capsys):
    def degenerate(net, *args, **kwargs):
        raise DegenerateFace("face (0,0): planted")

    monkeypatch.setattr(cli, "curvature_report", degenerate)
    extra = ["--rotation.k_count", "26", "--backlund.alpha", ALPHA_C]
    code, mesh, _ = run_desk(tmp_path, "double", extra, "double")
    assert code == cli.EXIT_NUMERIC
    assert "error: stage=verify: DegenerateFace: face (0,0): planted" in capsys.readouterr().err
    assert not mesh.exists()


def python_probe(probe: str, *args: str, cwd=None) -> str:
    """Stdout of ``probe`` run with ``args`` in a fresh interpreter that imports cknet from
    the tree under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=True, cwd=cwd).stdout.strip()


def test_cli_import_loads_neither_scipy_nor_argparse():
    # nor the check catalogue and the reference constructions only `cknet check` runs, nor
    # dataclasses and the copy module it imports (cknet's records are plain slotted classes),
    # nor configparser, which only an INI config reads
    assert python_probe("import sys, cknet.cli; print(sorted(m for m in sys.modules if "
                        "m.split('.')[0] in ('scipy', 'argparse', 'gettext') or m in "
                        "('cknet.checks', 'cknet.reference', 'dataclasses', 'copy', "
                        "'configparser')))") == "[]"


@pytest.mark.parametrize("command, extra, loaded", [
    ("generate", [*DESK_KEYS, "--rotation.k_count", "13"], "[]"),
    ("backlund", [*DESK_KEYS, "--rotation.k_count", "13", "--backlund.alpha", "1.0"], "[]"),
    ("double", [*DESK_KEYS, "--rotation.k_count", "13", "--backlund.N0", "9"], "[]"),
    ("search", [*DESK_KEYS, "--rotation.k_count", "13", "--backlund.N0", "9"], "[]"),
    ("check", ["--criterion", "2"], "['cknet.checks', 'cknet.reference']"),
])
def test_net_commands_load_neither_checks_nor_reference(tmp_path, command, extra, loaded):
    out = python_probe("import sys; from cknet.cli import main; code = main(sys.argv[1:]); "
                       "print(code, sorted(m for m in sys.modules "
                       "if m in ('cknet.checks', 'cknet.reference')))",
                       command, *extra, cwd=tmp_path)
    assert out.splitlines()[-1] == f"0 {loaded}"


# every name the package imported from its modules before it loaded them on first use
PACKAGE_NAMES = """DoubleReport PeriodicAlpha build_abcd double_backlund find_periodic_alpha linearize
    moebius propagate single_backlund CheckResult run_all CkEdgeData HsLaxData build_ck_connection
    build_cmc_connection closing_residual gauge_to_hs hs_lax initial_frame rotational_frames
    BranchFailure CaseMismatch CknetError ConfigError DegenerateEdge DegenerateFace
    DegenerateGeometry DivisionByZero InvalidProfile ModulusOutOfRange NoRoot NotPrincipal
    PathInconsistent PoleHit RealityViolated Singular ZeroEdge ConnectionFamily FrameFamily MatJet
    admissible_gauge flatness_residual gauge gauge_frame jet_residual AlignResult
    ContactElementNet curvature_report face_normal period_drift principal_curvatures rigid_align
    singular_vertices sym sym_arrays transform_residuals validate_ec Profile build_rcnet
    column_angles conservation_drift edge_residuals elliptic_K elliptic_theta gauss_from_profile
    int_sn2 jacobi profile_elliptic profile_hyp profile_trig validate_profile""".split()


def test_package_names_resolve_to_their_defining_modules():
    assert python_probe("import sys, cknet; print(sorted(m for m in sys.modules "
                        "if m.startswith('cknet')))") == "['cknet']"
    import cknet
    assert sorted(cknet.__all__) == sorted(PACKAGE_NAMES) and cknet.__version__ == "0.1.0"
    assert set(PACKAGE_NAMES) <= set(dir(cknet))
    for name in PACKAGE_NAMES:
        obj = getattr(cknet, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    with pytest.raises(AttributeError):
        cknet.explicit_sym


def test_invariant_failure_exit_code(capsys):
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    net = build_rcnet(p, column_angles(13, theta=np.pi / 6.0))
    warped = ContactElementNet(
        net.x + 1e-3 * np.sin(np.arange(net.x.size).reshape(net.x.shape)), net.n)
    worst, _ = nets.curvature_report(warped, p.K_sign, edge=True)
    entries = cli.net_report_entries(p, warped, worst)
    gauss = next(e for e in entries if e.name == "gaussian_constancy")
    assert not gauss.passed
    assert 1e-5 < gauss.max_residual < 1e-1
    assert next(e for e in entries if e.name == "unit_normal").passed
    code = cli._finish(entries, {}, {})
    out = capsys.readouterr().out
    assert code == cli.EXIT_INVARIANT
    assert "FAIL gaussian_constancy" in out


def test_check_single_criterion(capsys):
    code = cli.main(["check", "--criterion", "10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "c10_singular" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("number", ["0", "12"])
def test_unknown_criterion_number_exits_2_without_a_report(tmp_path, capsys, number):
    report = tmp_path / "check.json"
    code = cli.main(["check", "--criterion", "10", "--criterion", number,
                     "--output.report", str(report)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == [
        f"error: stage=check: ConfigError: no criterion {number}; they are numbered 1..11"]
    assert out == "" and not report.exists()


def test_run_all_refuses_unknown_numbers_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setattr(checks, "ALL_CRITERIA",
                        tuple((n, lambda n=n: ran.append(n) or []) for n in range(1, 12)))
    with pytest.raises(ConfigError, match="no criterion 0, 12;"):
        checks.run_all({1, 0, 12})
    assert ran == []


@pytest.mark.parametrize("where", ["override", "file"])
@pytest.mark.parametrize("key", ["surface.kapa", "rotation.kcount", "backlund.sead",
                                 "output.mesj"])
def test_misspelt_config_key_exits_2_and_writes_nothing(tmp_path, capsys, key, where):
    section, name = key.split(".")
    mesh, report = tmp_path / "net.obj", tmp_path / "net.json"
    misspelt = ([f"--{key}", "1"] if where == "override" else
                ["--config", write(tmp_path, "job.ini", f"[{section}]\n{name} = 1\n")])
    code = cli.main(["double", *DESK_KEYS, "--rotation.k_count", "26", "--backlund.alpha", ALPHA_C,
                     "--output.mesh", str(mesh), "--output.report", str(report), *misspelt])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == [f"error: stage=config: ConfigError: double does not read config "
                                f"key {key}"]
    assert out == "" and not mesh.exists() and not report.exists()


def test_generate_refuses_the_transform_keys_of_a_shared_job_file(tmp_path, capsys):
    # a job file written for backlund, double or search carries [backlund], which generate
    # does not read; the first such key in sorted order is named
    cfg = write(tmp_path, "job.ini", HEX_INI + "alpha = 1.0\np = 1\nseed = 1j\nseed_hat = 1j\n")
    report = tmp_path / "net.json"
    code = cli.main(["generate", "--config", cfg, "--output.report", str(report)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == ["error: stage=config: ConfigError: generate does not read config "
                                "key backlund.N0"]
    assert out == "" and not report.exists()


def test_config_keys_are_the_keys_the_subcommands_read():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    read = {f"{s}.{k}" for s, k in re.findall(r'_get\(cfg, "(\w+)", "(\w+)"', source)}
    assert read == set().union(*cli.KEYS.values())
    assert len(read) == 21 and set(cli.KEYS) == set(cli.COMMANDS)
    with pytest.raises(KeyError):
        cli._get({"rotation": {"flag": "1"}}, "rotation", "flag")


# what each command needs to run; check takes no desk key
NEEDS = {"generate": [*DESK_KEYS, "--rotation.k_count", "26"],
         "backlund": [*DESK_KEYS, "--rotation.k_count", "26", "--backlund.alpha", "1.0"],
         "double": [*DESK_KEYS, "--rotation.k_count", "26", "--backlund.alpha", ALPHA_C],
         "search": [*DESK_KEYS, "--rotation.k_count", "26", "--backlund.N0", "9"], "check": []}
MISSPELT_KEYS = ["surface.kapa", "rotation.kcount", "backlund.sead", "output.mesj"]
UNREAD_KEYS = [(command, key) for command, keys in cli.KEYS.items()
               for key in sorted(set().union(*cli.KEYS.values()) - keys) + MISSPELT_KEYS]


@pytest.mark.parametrize("where", ["override", "file"])
@pytest.mark.parametrize("command, key", UNREAD_KEYS)
def test_every_command_refuses_every_key_it_does_not_read(tmp_path, monkeypatch, capsys,
                                                          command, key, where):
    # a key another command reads is refused like a misspelt one, before any stage runs
    monkeypatch.chdir(tmp_path)
    section, name = key.split(".")
    given = ([f"--{key}", "0"] if where == "override" else
             ["--config", write(tmp_path, "job.ini", f"[{section}]\n{name} = 0\n")])
    outputs = [f"--output.{o}={o}.out" for o in ("mesh", "report")
               if f"output.{o}" in cli.KEYS[command]]
    code = cli.main([command, *NEEDS[command], *given, *outputs])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == [f"error: stage=config: ConfigError: {command} does not read "
                                f"config key {key}"]
    assert out == "" and sorted(os.listdir(tmp_path)) == (["job.ini"] if where == "file" else [])


# (command, a job of it, a key of its set that the job's path never reads, what rules it out)
TRIG_KEYS = [*MIRRORED_HYP_KEYS, "--surface.kind", "trig"]
PATH_UNREAD = [(command, NEEDS[command], "backlund.p", "backlund.alpha")
               for command in ("backlund", "double")]
PATH_UNREAD += [("generate", NEEDS["generate"], f"surface.{key}", "surface.kind = elliptic")
                for key in ("c", "A", "B")]
PATH_UNREAD += [("search", [*MIRRORED_HYP_KEYS, "--backlund.N0", "8"], f"surface.{key}",
                 "surface.kind = hyp") for key in ("kappa", "Theta", "j0")]
PATH_UNREAD += [("generate", TRIG_KEYS, "surface.kappa", "surface.kind = trig"),
                ("double", [*TRIG_KEYS, "--backlund.N0", "8"], "surface.j0", "surface.kind = trig")]


@pytest.mark.parametrize("where", ["override", "file"])
@pytest.mark.parametrize("command, needs, key, beside", PATH_UNREAD,
                         ids=[f"{c}-{k}" for c, _, k, _ in PATH_UNREAD])
def test_every_command_refuses_a_key_its_job_never_reads(tmp_path, monkeypatch, capsys, command,
                                                         needs, key, beside, where):
    # in the command's set, but unread on this job's path: another family's profile key, or p
    # where alpha is given and no search runs
    monkeypatch.chdir(tmp_path)
    section, name = key.split(".")
    given = ([f"--{key}", "1"] if where == "override" else
             ["--config", write(tmp_path, "job.ini", f"[{section}]\n{name} = 1\n")])
    outputs = [f"--output.{o}={o}.out" for o in ("mesh", "report")
               if f"output.{o}" in cli.KEYS[command]]
    code = cli.main([command, *needs, *given, *outputs])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert err.splitlines() == [f"error: stage=config: ConfigError: {command} does not read "
                                f"config key {key} beside {beside}"]
    assert out == "" and sorted(os.listdir(tmp_path)) == (["job.ini"] if where == "file" else [])


# desk jobs that between them reach every key their command reads
READ_JOBS = {
    "generate": [[*DESK_KEYS, "--rotation.k_count", "26", "--rotation.k_lo", "2"],
                 [*MIRRORED_HYP_KEYS, "--output.mesh", "net.obj"]],
    "backlund": [[*DESK_KEYS, "--surface.kappa", "1.4", "--rotation.k_count", "26",
                  "--backlund.N0", "9"],
                 [*MIRRORED_HYP_KEYS, "--backlund.alpha", "1.0", "--output.mesh", "net.obj"]],
    "double": [[*DESK_KEYS, "--rotation.k_count", "26", "--backlund.N0", "9", "--backlund.p", "1"],
               [*MIRRORED_HYP_KEYS, "--backlund.alpha", "1.0", "--output.mesh", "net.obj"]],
    "search": [[*DESK_KEYS, "--rotation.k_count", "26", "--backlund.N0", "9"],
               [*MIRRORED_HYP_KEYS, "--backlund.N0", "8"]],
    "check": [["--criterion", "2"]],
}


@pytest.mark.parametrize("command", sorted(READ_JOBS))
def test_each_command_reads_exactly_its_keys(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    read, real = set(), cli._get

    def recording(cfg, section, key, *args):
        read.add(f"{section}.{key}")
        return real(cfg, section, key, *args)

    monkeypatch.setattr(cli, "_get", recording)
    for extra in READ_JOBS[command]:
        code = cli.main([command, *extra, "--output.report", "report.json"])
        assert code in (cli.EXIT_OK, cli.EXIT_INVARIANT), (extra, capsys.readouterr().err)
    assert read == cli.KEYS[command]


CONFIG_ERROR_NAMES = {"ConfigError", "InvalidProfile", "ModulusOutOfRange", "CaseMismatch"}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.CknetError)]


@pytest.mark.parametrize("stage", ["check", "config"])
@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_has_its_exit_code_and_one_stage_line(monkeypatch, capsys, error,
                                                                 stage):
    def fail(*args):
        raise error("planted")

    # run_all runs inside the check stage; cmd_check itself runs outside any stage
    if stage == "check":
        monkeypatch.setattr(checks, "run_all", fail)
    else:
        monkeypatch.setitem(cli.COMMANDS, "check", fail)
    code = cli.main(["check"])
    out, err = capsys.readouterr()
    assert code == (cli.EXIT_CONFIG if error.__name__ in CONFIG_ERROR_NAMES else cli.EXIT_NUMERIC)
    assert err.splitlines() == [f"error: stage={stage}: {error.__name__}: planted"]
    assert out == ""


# ---------------------------------------------------------------------------
# config plumbing units


def test_parse_argv_forms():
    got = cli.parse_argv(["check", "--a.b", "1", "--c.d=2", "--config=x.ini", "--criterion", "+7",
                          "--criterion=10", "--a.b", "3"])
    assert got == ("check", "x.ini", [7, 10], {"a": {"b": "3"}, "c": {"d": "2"}})
    # a value is the next token, whatever it looks like
    assert cli.parse_argv(["double", "--backlund.p", "-1", "--config", "--x"]) == (
        "double", "--x", [], {"backlund": {"p": "-1"}})
    for argv in (["-h"], ["--help"], ["double", "-h"], ["check", "--criterion", "7", "--help"]):
        assert cli.parse_argv(argv) is None
    # more refusals than the usage errors main is tested with below
    for argv in (["--config", "x.ini", "double"], ["double", "--a.b"], ["double", "--nodot", "1"],
                 ["double", "--conf", "x.ini"], ["check", "--criterion=0x3"], ["check", "--help=1"]):
        with pytest.raises(ConfigError):
            cli.parse_argv(argv)


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["check", "--criterion", "abc"], ["double", "--criterion", "7"],
    ["double", "--config"], ["generate", "job.ini"],
], ids=["no_arguments", "unknown_command", "criterion_abc", "criterion_on_double",
        "config_without_value", "bare_positional"])
def test_usage_error_exits_2_with_one_stage_line(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith("error: stage=config: ConfigError: ")
    assert out == ""


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["double", "--help"]])
def test_help_prints_the_usage(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out == cli.__doc__ + "\n" and "cknet check" in out and err == ""


# --config targets of the argv property: a valid file, one holding a %, one that is not UTF-8
ARGV_FIXTURES = {"valid.ini": b"[rotation]\nk0 = 6\nk_count = 8\n",
                 "percent.ini": b"[output]\nmesh = run%1.obj\nreport = %(mesh)s.json\n",
                 "latin1.ini": b"[rotation]\nk0 = \xff\n"}
# surface.kind is never drawn, so every pipeline command stops at its profile stage
FLAG_NAMES = ["config", "criterion", "help", "surface.kappa", "rotation.k0", "backlund.N0",
              "backlund.alpha", "output.report", "surface.kapa", "a.b", "nodot", "conf"]
FLAG_VALUES = ["1", "10", "-3", "0.6", "nan", "abc", "0x3", "(1+2j)", "", *ARGV_FIXTURES]


@st.composite
def argv_tokens(draw):
    command = draw(st.sampled_from(["check", "generate", "backlund", "double", "search", "-h",
                                    "frobnicate", None]))
    argv = [] if command is None else [command]
    for _ in range(draw(st.integers(0, 4))):
        name, value = draw(st.sampled_from(FLAG_NAMES)), draw(st.sampled_from(FLAG_VALUES))
        # mostly well-formed pairs; a flag without a value, or a bare value, now and then
        argv += draw(st.sampled_from([[f"--{name}", value], [f"--{name}={value}"],
                                      [f"--{name}", value], [f"--{name}"], [value]]))
    return argv


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv_tokens())
def test_every_command_line_exits_0_to_3_and_failures_print_one_stage_line(argv):
    """Argv token shapes: commands (and junk ones), flag pairs, = forms, flags without a value,
    bare values, dotless names and --config files that are valid, hold a % or are not UTF-8.
    No surface.kind is drawn, so no pipeline runs past its profile stage and 200 examples
    take about two seconds; only check runs to completion."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)   # outputs the draw names land here
        try:
            for name, data in ARGV_FIXTURES.items():
                Path(name).write_bytes(data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERIC):
        assert len(lines) == 1 and re.match(r"error: stage=\w+: \w+: ", lines[0]), (argv, lines)
    else:
        assert lines == [], (argv, lines)


def test_merge_config_override_wins():
    merged = cli.merge_config({"s": {"a": "1", "b": "2"}}, {"s": {"b": "3"}, "t": {"c": "4"}})
    assert merged == {"s": {"a": "1", "b": "3"}, "t": {"c": "4"}}


def test_load_config_preserves_key_case(tmp_path):
    cfg = cli.load_config(write(tmp_path, "job.ini", PSEUDO_INI))
    assert "K_sign" in cfg["surface"]
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(ConfigError):  # sections must be objects
        cli.load_config(write(tmp_path, "flat.json", '{"a": 1}'))
    with pytest.raises(ConfigError):
        cli.load_config(write(tmp_path, "bad.json", "{nope"))


def test_ini_values_are_read_raw(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "job.ini", PSEUDO_INI + "\n[output]\nmesh = run%1.obj\nreport = %(mesh)s.json\n")
    assert cli.load_config(cfg)["output"] == {"mesh": "run%1.obj", "report": "%(mesh)s.json"}
    assert cli.main(["generate", "--config", cfg]) == cli.EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "run%1.obj").is_file() and (tmp_path / "%(mesh)s.json").is_file()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "job.ini"
    path.write_bytes(b"[surface]\nkind = \xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.load_config(str(path))
    assert cli.main(["generate", "--config", str(path)]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: stage=config: ConfigError: cannot read config {path}: ")
    assert out == ""


def test_json_config_rejects_bare_constants(tmp_path):
    # a NaN parameter would otherwise reach the strict-JSON report
    with pytest.raises(ConfigError, match="bare NaN"):
        cli.load_config(write(tmp_path, "nan.json", '{"output": {"note": NaN}}'))


def test_rotation_step_rules():
    assert cli.rotation_step({"rotation": {"k0": "6", "k_count": "8"}}) == (2.0 * np.pi / 6.0, 6, 8)
    assert cli.rotation_step({"rotation": {"theta": "0.5", "k_count": "2"}}) == (0.5, None, 2)
    for rotation in ({"k_count": "8"}, {"k0": "2", "k_count": "8"}, {"k0": "6"},
                     {"k0": "6", "k_count": "1"}, {"theta": "0.5", "k_count": "-3"}):
        with pytest.raises(ConfigError):
            cli.rotation_step({"rotation": rotation})


def test_validate_report_spots_malformed_documents():
    assert validate_report({"checks": [], "parameters": {}}) == []
    errs = validate_report({"checks": [{"name": 1}], "parameters": {}})
    assert any("name" in e for e in errs)
    assert any("missing required key" in e for e in errs)
    assert validate_report({"checks": {}}) != []


def test_validate_report_takes_number_or_null_residuals():
    entry = {"name": "a", "max_residual": None, "tolerance": 1e-9, "pass": False}
    assert validate_report({"checks": [entry], "parameters": {}}) == []
    entry["max_residual"] = "inf"
    assert validate_report({"checks": [entry], "parameters": {}}) == [
        "$.checks[0].max_residual: expected number or null"]


# ---------------------------------------------------------------------------
# stages each command builds and non-finite inputs


def count_calls(monkeypatch, *functions):
    """Replace each package function, in every cknet module that holds it, with a counting
    wrapper; the counts are keyed by name."""
    calls = {fn.__name__: 0 for fn in functions}
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for key, module in list(sys.modules.items()):
            if key.startswith("cknet") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("command, extra, built", [
    ("search", ["--backlund.N0", "9"], {"rotational_frames": 0, "gauge_frame": 0, "sym": 0}),
    ("double", ["--backlund.N0", "9"], {"rotational_frames": 0, "gauge_frame": 0, "sym": 0}),
    ("backlund", ["--backlund.alpha", "1.0"], {"rotational_frames": 0, "gauge_frame": 0, "sym": 0}),
])
def test_commands_build_only_the_stages_they_read(tmp_path, monkeypatch, capsys, command,
                                                  extra, built):
    # search reads the normal-form data alone, and the transforms evaluate the Sym formula in
    # the rotational net's frame: no command forms frames, gauges them or runs a Sym pass
    calls = count_calls(monkeypatch, rotational_frames, gauge_frame, ref.sym)
    code, _, _ = run_desk(tmp_path, command, ["--rotation.k_count", "26", *extra], command)
    assert code == cli.EXIT_OK, capsys.readouterr()
    assert calls == built


@pytest.mark.parametrize("command, extra", [
    ("double", ["--backlund.N0", "9"]),
    ("double", ["--backlund.alpha", "1.0"]),
    ("backlund", ["--backlund.alpha", "1.0"]),
])
def test_transforms_never_materialise_the_frame_grid(tmp_path, monkeypatch, capsys, command,
                                                     extra):
    # the Sym formula reads the row and column frame factors, never their (nj, nk) product
    reads = []
    phi = FrameFamily.Phi.fget
    monkeypatch.setattr(FrameFamily, "Phi", property(lambda f: reads.append(1) or phi(f)))
    code, _, _ = run_desk(tmp_path, command, ["--rotation.k_count", "26", *extra], command)
    assert code == cli.EXIT_OK, capsys.readouterr()
    assert len(reads) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_double_with_overflowing_seed_is_a_pole(tmp_path, capsys):
    extra = ["--rotation.k_count", "26", "--backlund.alpha", ALPHA_C, "--backlund.seed", "1e200"]
    code, mesh, _ = run_desk(tmp_path, "double", extra, "huge")
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERIC
    assert "stage=backlund: PoleHit" in err
    assert not mesh.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, key, value, extra", [
    ("generate", "surface.kappa", "inf", []),
    ("generate", "rotation.theta", "-inf", []),
    ("double", "backlund.alpha", "nan+1j", []),
    ("double", "backlund.seed_hat", "inf", ["--backlund.alpha", ALPHA_C]),
])
def test_non_finite_config_value_is_config_error(tmp_path, capsys, command, key, value, extra):
    extra = ["--rotation.k_count", "26", *extra, f"--{key}", value]
    code, mesh, _ = run_desk(tmp_path, command, extra, "bad")
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"config key {key} = {value!r} is not finite" in err
    assert not mesh.exists()


@pytest.mark.parametrize("command, p", [("search", "0"), ("double", "0"), ("double", "-1"),
                                        ("double", "8"), ("double", "9")])
def test_phase_index_outside_1_to_n0_is_config_error(tmp_path, capsys, command, p):
    extra = ["--rotation.k_count", "26", "--backlund.N0", "8", "--backlund.p", p]
    code, mesh, _ = run_desk(tmp_path, command, extra, "bad_p")
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert f"stage=search: ConfigError: phase index p must satisfy 1 <= p < N0 = 8, got {p}" in err
    assert not mesh.exists()


def test_json_number_overflowing_to_inf_is_config_error(tmp_path):
    cfg = cli.load_config(write(tmp_path, "big.json", '{"surface": {"kappa": 1e999}}'))
    with pytest.raises(ConfigError, match="surface.kappa"):
        cli._get(cfg, "surface", "kappa", float)


@pytest.mark.parametrize("section, key, value", [
    ("rotation", "k_count", 26.5),
    ("rotation", "k0", 6.9),
    ("rotation", "k0", True),
    ("surface", "j_lo", 1e999),
])
def test_json_value_truncated_by_an_int_key_is_config_error(tmp_path, capsys, section, key, value):
    doc = {"surface": {"kind": "elliptic", "kappa": 0.6, "K_sign": -1, "j0": 4,
                       "j_lo": -3, "j_hi": 3},
           "rotation": {"k0": 6, "k_count": 26},
           "output": {"mesh": str(tmp_path / "net.obj")}}
    doc[section][key] = value
    cfg = write(tmp_path, "job.json", json.dumps(doc).replace("Infinity", "1e999"))
    code = cli.main(["generate", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert f"config key {section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "net.obj").exists()


@pytest.mark.parametrize("section, key, value", [
    ("surface", "kappa", True),
    ("output", "report", True),
    ("output", "mesh", False),
    ("surface", "kappa", None),
    ("output", "mesh", None),
    ("surface", "kappa", []),
    ("output", "report", ["a", "b"]),
    ("surface", "kappa", {}),
    ("output", "mesh", {}),
])
def test_json_bool_is_config_error(tmp_path, capsys, monkeypatch, section, key, value):
    # float(True) and str(False) succeed, so a bool would run on kappa = 1 or write "True";
    # str() of null, an array or an object would name an output file "None" or "['a', 'b']"
    monkeypatch.chdir(tmp_path)
    doc = {"surface": {"kind": "elliptic", "kappa": 0.6, "K_sign": -1, "j0": 4,
                       "j_lo": -3, "j_hi": 3},
           "rotation": {"k0": 6, "k_count": 26},
           "output": {"mesh": "net.obj"}}
    doc[section][key] = value
    code = cli.main(["generate", "--config", write(tmp_path, "job.json", json.dumps(doc))])
    assert code == cli.EXIT_CONFIG
    assert f": ConfigError: config key {section}.{key} = {value!r} is not a" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["job.json"]


def test_json_whole_number_keeps_its_int_key_value():
    assert cli._get({"rotation": {"k_count": 26.0}}, "rotation", "k_count", int) == 26
