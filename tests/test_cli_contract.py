"""The command-line contract as a property: whatever job is drawn, ``cli.main`` exits 0 to 3,
states a failure on one line, refuses every key its command or its job's path does not read
and leaves only well-formed files behind."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cknet import cli, errors

STAGES = {"config", "profile", "rotation", "rcnet", "connect", "gauge", "search", "backlund",
          "verify", "report", "export", "check"}
ALL_KEYS = set().union(*cli.KEYS.values())
MISSPELT_KEYS = {"surface.kapa", "rotation.kcount", "backlund.sead", "output.mesj"}
DESK = {"surface.kind": "elliptic", "surface.kappa": "0.6", "surface.K_sign": "-1",
        "surface.j0": "4", "surface.j_lo": "-3", "surface.j_hi": "3", "rotation.k0": "6",
        "rotation.k_count": "26", "output.report": "report.json"}


def beside(keys):
    """The keys of a job's command set that its path never reads, each with what rules it out:
    another profile family's keys, and backlund.p where alpha is given and no search runs."""
    unread = ({f"surface.{k}": "surface.kind = elliptic" for k in ("c", "A", "B")}
              if keys.get("surface.kind") == "elliptic" else {})
    if "backlund.alpha" in keys:
        unread["backlund.p"] = "backlund.alpha"
    return unread


def _seed(draw):
    r, phi = draw(st.floats(0.7, 1.5)), draw(st.floats(0.0, 2.0 * math.pi))
    return repr(complex(r * math.cos(phi), r * math.sin(phi)))


@st.composite
def jobs(draw):
    """(command, criterion numbers, {key: value}, the keys given in the config file)."""
    command = draw(st.sampled_from(sorted(cli.KEYS)))
    keys, criteria = {"output.report": "report.json"}, []
    if command == "check":
        criteria = draw(st.lists(st.integers(1, 11), max_size=1))
    else:
        j0 = draw(st.integers(2, 6))   # rows inside (-j0, j0), where the radius has no zero
        j_lo = draw(st.integers(1 - j0, 0))
        k0 = draw(st.integers(3, 12))
        keys.update({"surface.kind": "elliptic", "surface.kappa": repr(draw(st.floats(0.05, 3.0))),
                     # the transforms need K = -1; generate builds either sign
                     "surface.K_sign": draw(st.sampled_from(["-1", "1"]))
                     if command == "generate" else "-1",
                     "surface.j0": str(j0), "surface.j_lo": str(j_lo),
                     "surface.j_hi": str(draw(st.integers(j_lo + 1, j0 - 1))),
                     "rotation.k_count": str(draw(st.integers(2, 60)))})
        route = draw(st.sampled_from(["k0", "theta", "both"]))
        if route != "theta":
            keys["rotation.k0"] = str(k0)
        if route != "k0":
            keys["rotation.theta"] = repr(2.0 * math.pi / k0)
    if "output.mesh" in cli.KEYS[command] and draw(st.booleans()):
        keys["output.mesh"] = "net.obj"
    if command == "generate" and draw(st.booleans()):
        keys["rotation.k_lo"] = str(draw(st.integers(-3, 3)))
    if command in ("backlund", "double", "search"):
        N0 = draw(st.integers(3, 24))
        if command == "search" or draw(st.booleans()):
            keys["backlund.N0"] = str(N0)
            if draw(st.integers(0, 3)) == 0:
                keys["backlund.p"] = str(draw(st.integers(1, N0 - 1)))
        elif command == "backlund":
            keys["backlund.alpha"] = repr(draw(st.floats(0.2, 2.9)))
        else:
            keys["backlund.alpha"] = repr(complex(math.pi / 2.0, draw(st.floats(0.1, 1.5))))
    if command in ("backlund", "double") and draw(st.booleans()):
        keys["backlund.seed"] = _seed(draw)
    if command == "double" and draw(st.integers(0, 3)) == 0:
        keys["backlund.seed_hat"] = _seed(draw)
    # keys the command or the job's path does not read, in about half the jobs
    unread = sorted(ALL_KEYS - cli.KEYS[command] | MISSPELT_KEYS | set(beside(keys)))
    if draw(st.booleans()):
        for key in draw(st.lists(st.sampled_from(unread), min_size=1, max_size=2, unique=True)):
            keys[key] = "unread.obj" if key == "output.mesh" else "1"
    return command, criteria, keys, draw(st.sets(st.sampled_from(sorted(keys))))


def run(command, criteria, keys, in_file):
    """Run the job in a fresh directory: (exit code, stdout, stderr lines, {name: bytes} of the
    files it wrote)."""
    argv = [command] + [a for n in criteria for a in ("--criterion", str(n))]
    sections = {}
    for key, value in keys.items():
        if key in in_file:
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}")
        else:
            argv += [f"--{key}", value]
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if sections:
                Path("job.ini").write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n"
                                                   for s, lines in sections.items()))
                argv += ["--config", "job.ini"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            written = {p.name: p.read_bytes() for p in Path(".").iterdir() if p.name != "job.ini"}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue().splitlines(), written


def check_obj(data: bytes, keys: dict) -> None:
    nj = int(keys["surface.j_hi"]) - int(keys["surface.j_lo"]) + 1
    nk = int(keys["rotation.k_count"])
    lines = data.splitlines()
    for tag in (b"v", b"vn"):
        rows = [line.split()[1:] for line in lines if line.startswith(tag + b" ")]
        assert len(rows) == nj * nk and all(math.isfinite(float(x)) for r in rows for x in r)
    assert sum(line.startswith((b"f ", b"# degenerate ")) for line in lines) == (nj - 1) * (nk - 1)


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(jobs())
# the commands that exited 0 with a key unread before each command declared its keys
@example(("backlund", [], {**DESK, "backlund.alpha": "1.0", "backlund.seed_hat": "3"}, set()))
@example(("search", [], {**DESK, "backlund.N0": "9", "backlund.alpha": "0.3",
                         "backlund.seed": "5"}, set()))
@example(("generate", [], {**DESK, "backlund.N0": "9", "backlund.alpha": "7"}, {"backlund.N0"}))
@example(("search", [], {**DESK, "backlund.N0": "9", "output.mesh": "x.obj"}, set()))
@example(("double", [], {**DESK, "backlund.alpha": "1.0", "rotation.k_lo": "0"}, set()))
# and those that exited 0 with a key their path never read, once each command had its keys
@example(("double", [], {**DESK, "backlund.alpha": "1.0", "backlund.p": "1"}, set()))
@example(("generate", [], {**DESK, "surface.c": "0.05"}, {"surface.c"}))
# and a desk annulus that passes and writes its mesh
@example(("double", [], {**DESK, "backlund.N0": "9", "output.mesh": "net.obj"}, set()))
def test_every_job_keeps_the_cli_contract(job):
    """Draws, each from a range that mostly builds and keeps a job to milliseconds: a command;
    for check, none or one criterion; otherwise an elliptic profile with kappa in [0.05, 3],
    j0 in 2..6 and rows inside (-j0, j0), where the radius has no zero (K = +1 or -1 for
    generate, -1 for the transforms, which need it), k0 in 3..12 given as k0, as
    theta = 2 pi / k0 or as both, and 2 to 60 columns; N0 in 3..24 with now and then a phase
    index p in 1..N0-1 (always for search, in half the transform jobs), or else a real alpha
    in [0.2, 2.9] (backlund) or alpha = pi/2 + iy with y in [0.1, 1.5] (double); seeds
    r exp(i phi) with r in [0.7, 1.5]; a mesh where the command writes one; k_lo in -3..3
    for generate; in about half the jobs one or two keys the command does not read, from the
    other commands' keys, four misspellings and the keys the job's path never reads; and
    which keys come from a config file.
    Desk-size grids keep the 208 jobs to about two seconds; the CI's long grids and N0 up to
    400 take up to seconds a job.  The ranges give every exit but 1: most jobs pass or are
    refused for a key, the rest stop at NoRoot (small N0, or a given p) or at a seed the
    angle does not allow.  Still to come, once the transforms close at every index the
    search returns: search at N0, then double at the found alpha on lcm(k0, N0) + 1 columns
    passes every entry or ends in NoRoot."""
    command, criteria, keys, in_file = job
    code, out, err, written = run(*job)
    assert code in (0, 1, 2, 3)
    refused = ({key: "" for key in set(keys) - cli.KEYS[command]} or
               {key: f" beside {why}" for key, why in beside(keys).items() if key in keys})
    if refused:
        key = min(refused)
        assert code == cli.EXIT_CONFIG
        assert err == [f"error: stage=config: ConfigError: {command} does not read config key "
                       f"{key}{refused[key]}"]
        assert out == "" and written == {}
        return
    if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERIC):
        assert len(err) == 1 and (m := re.match(r"error: stage=(\w+): (\w+): ", err[0])), err
        stage, name = m.groups()
        assert stage in STAGES, err
        assert (code == cli.EXIT_CONFIG) == issubclass(getattr(errors, name, Exception),
                                                       errors.ConfigError), err
        return
    assert err == []
    doc = json.loads(written["report.json"], parse_constant=lambda c: pytest.fail(c))
    lines = [line.split() for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
    assert [(e["name"], e["pass"]) for e in doc["checks"]] == [(w[1], w[0] == "PASS")
                                                               for w in lines]
    assert (code == cli.EXIT_OK) == all(e["pass"] for e in doc["checks"])
    if "output.mesh" in keys:
        check_obj(written["net.obj"], keys)
    assert set(written) == {"report.json"} | ({"net.obj"} & {keys.get("output.mesh")})
