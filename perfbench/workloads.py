"""The four benchmark workloads: CLI argv made from the seed, and output checks.

Every workload drives ``sympb.cli.main`` with argv built here from the
benchmark seed; the program sees only that argv.  ``check`` reads the files
one invocation wrote into the run's output directory and returns a list of
problems (empty when the output is right).  The checks use only the standard
library and the output files, so they do not trust the code under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

BUILTIN = "eckart-morse-morse-3dof"
XIS = ",".join(f"{0.1 * i:.1f}" for i in range(11))
# exp2 points per ensemble: 12 ensembles of 1000 points keep one call near
# 1.5 s, so a run holds enough calls for a steady median.
TRANSMISSION_N = 1000
# Criterion-7 start state and step; the trajectory workload perturbs the state
# per seed.  t_final = 5 (criterion 7 uses 10) keeps one call near 1.7 s, so a
# run holds enough calls for a steady median: 5000 steps, 501 records.
STATE0 = (-50.0, 0.25, -0.2, 0.4, -0.3, 0.2)
STATE0_JITTER = (1.0, 0.05, 0.05, 0.05, 0.05, 0.05)
TRAJECTORY_T_FINAL = 5
TRAJECTORY_RECORDS = 501
PROJECTION_RADII = 16
FLUX_STEPS = 11
# Each of the 11 flux rows is an independent MC estimate; at 3 sigma per row
# about one seed in thirty would fail by chance, at 5 sigma one in ~10^5.
FLUX_SIGMAS = 5.0
AREA_SLACK = 1e-9
# The saddle block of the flow has determinant 1, so A(tau) = pi r^2 g with g
# constant in tau and the same for every radius; these bound the rounding.
CURVE_FLAT_RTOL = 1e-8
RATIO_RTOL = 1e-12
SYMPLECTICITY_TOL = 1e-6


def _rng(name: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, so the stream does not depend on PYTHONHASHSEED
    return random.Random(f"{name}:{seed}")


def _read_table(path: str):
    """Metadata dict, header and rows of a sympb CSV table."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise ValueError(f"{os.path.basename(path)}: missing metadata line")
        rows = list(csv.reader(fh))
    return json.loads(first[2:]), rows[0], rows[1:]


def _column(header, rows, name, conv=float):
    k = header.index(name)
    return [conv(r[k]) for r in rows]


def transmission_argv(seed: int) -> list:
    cli_seed = _rng("transmission", seed).randrange(1, 2**31)
    return ["exp2", "--builtin", BUILTIN, "--n", str(TRANSMISSION_N), "--xis", XIS,
            "--seed", str(cli_seed), "-o", "exp2.csv"]


def transmission_check(outdir: str) -> list:
    """Baseline >= 0.9 and B fractions non-increasing within 3 binomial sigma."""
    _, header, rows = _read_table(os.path.join(outdir, "exp2.csv"))
    kinds = _column(header, rows, "kind", str)
    fractions = _column(header, rows, "fraction")
    n_total = _column(header, rows, "n_total", int)
    n_trans = _column(header, rows, "n_transmitted", int)
    problems = []
    if len(rows) != 12 or kinds != ["A"] + ["B"] * 11:
        return [f"expected one A row and 11 B rows, got kinds {kinds}"]
    if any(n != TRANSMISSION_N for n in n_total):
        problems.append(f"n_total {n_total} != {TRANSMISSION_N}")
    if any(f != t / n for f, t, n in zip(fractions, n_trans, n_total)):
        problems.append("fraction != n_transmitted / n_total")
    if not fractions[0] >= 0.9:
        problems.append(f"baseline fraction {fractions[0]} < 0.9")
    b = fractions[1:]
    for x, (a, c) in zip(XIS.split(",")[1:], zip(b, b[1:])):
        sigma = math.sqrt(max(a * (1.0 - a), 1.0 / TRANSMISSION_N) / TRANSMISSION_N)
        if c > a + 3.0 * sigma:
            problems.append(f"B fraction rises at xi={x}: {a} -> {c}")
    return problems


def trajectory_argv(seed: int) -> list:
    rng = _rng("trajectory", seed)
    state0 = [s + rng.uniform(-j, j) for s, j in zip(STATE0, STATE0_JITTER)]
    return ["integrate", "--state0=" + ",".join(repr(v) for v in state0),
            "--h", "1e-3", "--t-final", str(TRAJECTORY_T_FINAL), "-o", "traj"]


def trajectory_check(outdir: str) -> list:
    """Finite drift, symplecticity defect < 1e-6, 501 finite records."""
    with open(os.path.join(outdir, "traj.json")) as fh:
        summary = json.load(fh)
    _, header, rows = _read_table(os.path.join(outdir, "traj.csv"))
    problems = []
    if not math.isfinite(summary["drift"]):
        problems.append(f"energy drift {summary['drift']} is not finite")
    defect = summary["symplecticity_error"]
    if defect is None or not defect < SYMPLECTICITY_TOL:
        problems.append(f"symplecticity defect {defect} not < {SYMPLECTICITY_TOL}")
    if summary["records"] != TRAJECTORY_RECORDS or len(rows) != TRAJECTORY_RECORDS:
        problems.append(f"expected {TRAJECTORY_RECORDS} records, got "
                        f"{summary['records']} / {len(rows)} rows")
    if header != ["t", "q1", "q2", "q3", "p1", "p2", "p3", "H"]:
        problems.append(f"unexpected columns {header}")
    if not all(math.isfinite(float(v)) for r in rows for v in r):
        problems.append("non-finite trajectory record")
    return problems


def flux_argv(seed: int) -> list:
    cli_seed = _rng("flux", seed).randrange(1, 2**31)
    return ["widths", "--builtin", BUILTIN, "--e-min", "0", "--e-max", "1",
            "--steps", str(FLUX_STEPS), "--samples", "1000000", "--seed", str(cli_seed),
            "-o", "widths.csv"]


def flux_check(outdir: str) -> list:
    """MC volume of each row within 5 sigma of the exact simplex volume.

    ``K(0, J)`` of the built-in model is linear in J, so the admissible region
    is the simplex ``sum omega_k J_k <= E - e0`` with volume
    ``(E - e0)^nb / (nb! prod omega_k)``; this is checked from the model
    terms written in the table's own metadata.
    """
    meta, header, rows = _read_table(os.path.join(outdir, "widths.csv"))
    e0 = meta["model_e0"]
    free = [(jp, c) for ip, jp, c in meta["model_terms"] if ip == 0 and any(jp)]
    if any(sum(jp) != 1 for jp, _ in free):
        return ["K(0, J) is not linear in J: the simplex oracle does not apply"]
    nb = len(free[0][0])
    omegas = [c for jp, c in sorted(free, key=lambda t: t[0].index(1))]
    problems = []
    if len(rows) != FLUX_STEPS:
        problems.append(f"expected {FLUX_STEPS} rows, got {len(rows)}")
    seeds = _column(header, rows, "seed", int)
    if seeds != [meta["seed"] + i for i in range(len(rows))]:
        problems.append(f"row seeds {seeds} are not seed + row index")
    for e, v, se in zip(_column(header, rows, "E"), _column(header, rows, "V"),
                        _column(header, rows, "std_error")):
        exact = (e - e0) ** nb / (math.factorial(nb) * math.prod(omegas))
        if not (se > 0.0 and abs(v - exact) <= FLUX_SIGMAS * se):
            problems.append(f"E={e}: V={v} vs exact {exact} (std error {se})")
    return problems


def projection_argv(seed: int) -> list:
    rng = _rng("projection", seed)
    radii = sorted(rng.uniform(0.05, 0.5) for _ in range(PROJECTION_RADII))
    return ["exp1", "--dof", "3", "--radii", ",".join(repr(r) for r in radii),
            "--seed", str(rng.randrange(1, 2**31)), "-o", "exp1.csv", "--curves-out", "curve"]


def projection_check(outdir: str) -> list:
    """Every minimum shadow area at or above pi r^2 - 1e-9, and A(tau) / (pi r^2)
    the same constant over tau and radii."""
    meta, header, rows = _read_table(os.path.join(outdir, "exp1.csv"))
    problems = []
    if len(rows) != PROJECTION_RADII:
        problems.append(f"expected {PROJECTION_RADII} rows, got {len(rows)}")
    radii = _column(header, rows, "r")
    g0 = None
    for i, (r, min_area) in enumerate(zip(radii, _column(header, rows, "min_area"))):
        floor = math.pi * r * r
        if not min_area >= floor - AREA_SLACK:
            problems.append(f"r={r}: min_area {min_area} below pi r^2 = {floor}")
        g0 = g0 or min_area / floor
        if abs(min_area / floor - g0) > RATIO_RTOL * g0:
            problems.append(f"r={r}: min_area / pi r^2 = {min_area / floor}, not {g0}")
        _, cheader, crows = _read_table(os.path.join(outdir, f"curve_r{i}.csv"))
        areas = _column(cheader, crows, "area")
        if len(areas) != meta["tau_points"]:
            problems.append(f"curve {i}: {len(areas)} points, expected {meta['tau_points']}")
        if min(areas) != min_area:
            problems.append(f"curve {i}: minimum {min(areas)} != table min_area {min_area}")
        if max(areas) - min_area > CURVE_FLAT_RTOL * min_area:
            problems.append(f"curve {i}: A(tau) varies from {min_area} to {max(areas)}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list]
    check: Callable[[str], list]


WORKLOADS = {w.name: w for w in (
    Workload("transmission", transmission_argv, transmission_check),
    Workload("trajectory", trajectory_argv, trajectory_check),
    Workload("flux", flux_argv, flux_check),
    Workload("projection", projection_argv, projection_check),
)}
