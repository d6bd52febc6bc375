"""Seeded job lists for the three benchmark workloads.

A job is one ``cknet`` CLI call: a subcommand, a base config file shared
by the workload, and ``--section.key value`` overrides drawn from the
workload seed.  Jobs come in cycles; each cycle is a fresh seeded draw
that covers every stratum of the workload's input range once, so a run
that completes a few cycles sees the whole mix whatever the seed.  A run
takes a fixed number of jobs from the stream (``job_list``), so which jobs
it runs, and which of them fail, depend on the seed alone and never on how
fast the machine was.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Base configs, written once per run; overrides carry everything seeded.
_ELLIPTIC = {"kind": "elliptic", "kappa": "0.6", "K_sign": "-1", "j0": "4"}

BASE_CONFIGS = {
    "desk_annulus": {"surface": {**_ELLIPTIC, "j_lo": "-3", "j_hi": "3"},
                     "rotation": {"k0": "6"}},
    "catalogue": {},
    "wide_double": {"surface": {**_ELLIPTIC, "j_lo": "-30", "j_hi": "30"},
                    "rotation": {"k0": "6", "k_count": "200"}},
}

DESK_N0 = tuple(range(7, 25))
# Report entries every job of a kind must carry, each given by a prefix of
# its name, so a change that quietly drops a check or a criterion fails.
DOUBLE_ENTRIES = ("flatness", "imag_residue", "unit_normal", "transformed_gauss",
                  "permutability_unit")
CATALOGUE_ENTRIES = tuple(f"c{n:02d}_" for n in range(1, 12)) + (
    "c07_period[N0=8]", "c07_period[N0=9]")   # the two annulus searches
WIDE_COMPLEX_STRATA = 9   # alpha = pi/2 + iy, y in [0.2, 1.5]
WIDE_REAL_STRATA = 3      # real alpha in [0.6, 2.5], unit seed: one job in four

# Seconds one timed job takes, reference kernel and verification included,
# on the 2-vCPU x86-64 VM the benchmark was tuned on; ``job_count`` turns a
# run's --seconds into a number of whole cycles with them.
NOMINAL_JOB_SECONDS = {"desk_annulus": 0.3, "catalogue": 0.55, "wide_double": 0.83}


@dataclass(frozen=True)
class Job:
    """One CLI call and what its artifacts must look like."""

    workload: str
    index: int
    command: str
    overrides: tuple
    shape: tuple = None            # (nj, nk) of the OBJ, None when no mesh is written
    required_entries: tuple = ()   # name prefixes of report entries that must be present

    def argv(self, config: Path, mesh: Path, report: Path) -> list:
        out = [self.command, "--config", str(config), "--output.report", str(report)]
        if self.shape is not None:
            out += ["--output.mesh", str(mesh)]
        for key, value in self.overrides:
            out += [f"--{key}", value]
        return out


def _seed_value(rng: random.Random, r_lo=0.7, r_hi=1.5) -> complex:
    return rng.uniform(r_lo, r_hi) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list:
    width = (hi - lo) / count
    return [lo + (i + rng.random()) * width for i in range(count)]


# desk_annulus: the annulus search dominates a job and the grids are tiny, so
# a search rewrite shows here and grid vectorisation does not.  Every N0 in
# 7..24 appears once per cycle; k_count = lcm(6, N0) + 1 keeps the
# transformed_period check running.
def _desk_cycle(rng: random.Random, start: int) -> list:
    order = list(DESK_N0)
    rng.shuffle(order)
    out = []
    for i, n0 in enumerate(order):
        k_count = math.lcm(6, n0) + 1
        seed = _seed_value(rng)
        out.append(Job("desk_annulus", start + i, "double",
                       (("rotation.k_count", str(k_count)), ("backlund.N0", str(n0)),
                        ("backlund.seed", repr(seed))),
                       shape=(7, k_count),
                       required_entries=DOUBLE_ENTRIES + ("transformed_period",)))
    return out


# catalogue: every layer on desk-size grids, including the K=+1 CMC and
# transposed-connection paths no other workload runs.  The seed is unused.
def _catalogue_cycle(rng: random.Random, start: int) -> list:
    return [Job("catalogue", start, "check", (), required_entries=CATALOGUE_ENTRIES)]


# wide_double: the 61x200 tier with alpha given, so grid layers do all the
# work and no search runs.  Inputs that end in PathInconsistent (the
# long-grid defect) stay in the mix; nothing is filtered or re-drawn.
def _wide_cycle(rng: random.Random, start: int) -> list:
    draws = [("complex", y) for y in _strata(rng, 0.2, 1.5, WIDE_COMPLEX_STRATA)]
    draws += [("real", a) for a in _strata(rng, 0.6, 2.5, WIDE_REAL_STRATA)]
    rng.shuffle(draws)
    out = []
    for i, (kind, v) in enumerate(draws):
        if kind == "complex":
            alpha = complex(math.pi / 2.0, v)
            seed = _seed_value(rng)
        else:
            alpha = complex(v, 0.0)
            seed = complex(1.0, 0.0)
        out.append(Job("wide_double", start + i, "double",
                       (("backlund.alpha", repr(alpha)), ("backlund.seed", repr(seed))),
                       shape=(61, 200), required_entries=DOUBLE_ENTRIES))
    return out


_CYCLES = {"desk_annulus": _desk_cycle, "catalogue": _catalogue_cycle,
           "wide_double": _wide_cycle}

NAMES = tuple(_CYCLES)


def cycle(name: str, seed: int, number: int, start: int = 0) -> list:
    """Jobs of cycle ``number`` of workload ``name``, a pure function of the seed."""
    rng = random.Random(f"{name}/{seed}/{number}")
    return _CYCLES[name](rng, start)


def jobs(name: str, seed: int):
    """Endless job stream: cycle 0, cycle 1, ... with running indices."""
    number, start = 0, 0
    while True:
        batch = cycle(name, seed, number, start)
        yield from batch
        start += len(batch)
        number += 1


def job_count(name: str, seconds: float) -> int:
    """Jobs in the whole cycles a run of ``seconds`` holds at nominal speed, at least one.

    Whole cycles give every seed the same mix of strata.
    """
    per_cycle = len(cycle(name, 0, 0))
    return per_cycle * max(1, round(seconds / (per_cycle * NOMINAL_JOB_SECONDS[name])))


def job_list(name: str, seed: int, count: int) -> list:
    """The first ``count`` jobs of the stream, a pure function of the seed."""
    return list(itertools.islice(jobs(name, seed), count))


def write_config(name: str, path: Path) -> None:
    """The workload's base config as an INI file."""
    lines = []
    for section, keys in BASE_CONFIGS[name].items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
