"""End-to-end tests of the command-line interface and its report artifacts."""

import json

import numpy as np
import pytest

from cknet import cli
from cknet.errors import ConfigError
from cknet.nets import ContactElementNet
from cknet.revolution import build_rcnet, profile_elliptic

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
    assert cli.validate_report(doc) == []
    assert doc["parameters"]["rotation.theta_effective"] == 2.0 * np.pi / 6.0
    lines = open(mesh, encoding="utf-8").read().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 5 * 8
    assert sum(1 for l in lines if l.startswith("vn ")) == 5 * 8
    assert sum(1 for l in lines if l.startswith("f ")) == 4 * 7
    assert next(l for l in lines if l.startswith("f ")) == "f 1 2 10 9"


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
    net = build_rcnet(p, 4, theta=0.5)
    path = str(tmp_path / "mesh.obj")
    cli.export_obj(net, path)
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
    cli.export_obj(ContactElementNet(x, n), path)
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
    cli.export_obj(net, str(path))
    expected = ["# cknet quad mesh 2 x 3"]
    for tag, arr in (("v", net.x), ("vn", net.n)):
        for j in range(2):
            for k in range(3):
                expected.append(tag + " " + " ".join(format(float(v), ".17g") for v in arr[j, k]))
    expected += ["# degenerate 0 0", "f 2 3 6 5"]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")
    assert expected[1] == "v -0 1e-300 0"
    assert expected[3] == "v 1.0000000000000001e+300 0 0"


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
    assert cli.validate_report(doc) == []


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


def test_double_rejects_non_finite_seed(tmp_path, capsys):
    cfg = write(tmp_path, "hex.ini", HEX_INI)
    mesh = tmp_path / "out.obj"
    code = cli.main(["double", "--config", cfg, "--backlund.seed", "nan",
                     "--output.mesh", str(mesh)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert "stage=config" in err and "s_tilde0" in err
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
    assert "stage=rotation" in err and "inconsistent" in err
    assert not mesh.exists()


def test_invariant_failure_exit_code(capsys):
    p = profile_elliptic(0.6, -1, (-3, 3), j0=4)
    net = build_rcnet(p, 13, theta=np.pi / 6.0)
    warped = ContactElementNet(
        net.x + 1e-3 * np.sin(np.arange(net.x.size).reshape(net.x.shape)), net.n)
    entries = cli.net_report_entries(p, warped)
    gauss = next(e for e in entries if e["name"] == "gaussian_constancy")
    assert not gauss["pass"]
    assert 1e-5 < gauss["max_residual"] < 1e-1
    assert next(e for e in entries if e["name"] == "unit_normal")["pass"]
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


# ---------------------------------------------------------------------------
# config plumbing units


def test_parse_overrides_forms():
    got = cli.parse_overrides(["--a.b", "1", "--c.d=2"])
    assert got == {"a": {"b": "1"}, "c": {"d": "2"}}
    with pytest.raises(ConfigError):
        cli.parse_overrides(["positional"])
    with pytest.raises(ConfigError):
        cli.parse_overrides(["--a.b"])
    with pytest.raises(ConfigError):
        cli.parse_overrides(["--nodot", "1"])


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


def test_rotation_step_rules():
    assert cli.rotation_step({"rotation": {"k0": "6"}}) == (2.0 * np.pi / 6.0, 6)
    assert cli.rotation_step({"rotation": {"theta": "0.5"}}) == (0.5, None)
    with pytest.raises(ConfigError):
        cli.rotation_step({"rotation": {}})
    with pytest.raises(ConfigError):
        cli.rotation_step({"rotation": {"k0": "2"}})


def test_validate_report_spots_malformed_documents():
    assert cli.validate_report({"checks": [], "parameters": {}}) == []
    errs = cli.validate_report({"checks": [{"name": 1}], "parameters": {}})
    assert any("name" in e for e in errs)
    assert any("missing required key" in e for e in errs)
    assert cli.validate_report({"checks": {}}) != []
