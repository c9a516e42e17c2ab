"""Benchmark of the sympb command line on four workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]    # all four

Load model: one closed loop without concurrency.  A single client process
(worker.py) imports ``sympb.cli`` from this checkout's ``src/`` and calls
``cli.main(argv)`` with the workload's argv, one invocation after another.
The argv is made from ``--seed`` (workloads.py); the program sees only it.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

- ``setup_s``: median time from starting a fresh interpreter until it has
  imported ``sympb.cli``;
- ``wall_norm_s``: median wall time of one warm ``cli.main(argv)`` call;
- ``peak_rss_mb``: peak resident memory of the client process.

Both times are rescaled to a nominal host speed (hostspeed.py): each call is
divided by the time of ``hostspeed.reference_work`` measured right before
it, and the set-up median by the median of all of the run's reference
times, then multiplied by ``REF_NOMINAL_S``.  The raw medians,
``setup_s (raw)`` and ``wall_s (raw)``, are printed beside them.

``--trace 1`` reports the per-layer metrics: import times split by package
from ``python -X importtime``, and span times, self times and counters from
a second loop in the same client with spans.py's wrappers installed.
``trace.overhead_s`` is the traced median call minus the untraced one.

Every invocation's output is checked: all calls of a run must write
identical bytes, the workload's oracle must hold, and for seed 0 the bytes
must match the digest in reference.json.  ``failed`` counts invocations that
exited nonzero or failed a check; ``failed_frac`` is printed with the
metrics.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

This supersedes ``benchmarks/bench_kernels.py`` for measurement; that
script stays as a quick look at the two kernels in isolation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import at_nominal_speed, nominal_median, reference_work
from spans import LAYERS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_BASE = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 0
SETUP_REPS = 5
IMPORTTIME_REPS = 3
IMPORT_PACKAGES = ("numpy", "scipy", "sympb")
# A run must finish within 180 s; leave room for checks and clean-up.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _run(cmd, deadline: float, **kwargs) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    try:
        proc = subprocess.run(cmd, env=_child_env(), timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd[:3])}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd[:3])}")
    return proc


def measure_setup(deadline: float) -> tuple:
    """Seconds from starting a fresh interpreter to sympb.cli imported, and
    the reference time measured right before each start.

    The child reports when its import finished on CLOCK_MONOTONIC, which is
    system-wide, so interpreter exit and the parent's wake-up are not timed.
    """
    cmd = [sys.executable, "-c",
           "import time, sympb.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]
    _run(cmd, deadline, stdout=subprocess.DEVNULL)  # unmeasured: writes bytecode caches
    reference_work()  # unmeasured: warms numpy up
    times, refs = [], []
    for _ in range(SETUP_REPS):
        refs.append(reference_work())
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = _run(cmd, deadline, stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout) - t0)
    return times, refs


def measure_imports(deadline: float) -> dict:
    """Median import seconds per package: sum of ``-X importtime`` self times."""
    per = {pkg: [] for pkg in IMPORT_PACKAGES}
    for _ in range(IMPORTTIME_REPS):
        proc = _run([sys.executable, "-X", "importtime", "-c", "import sympb.cli"], deadline,
                    capture_output=True, text=True)
        totals = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                pkg = fields[2].strip().split(".")[0]
                if pkg in totals:
                    totals[pkg] += int(fields[0])
        for pkg, us in totals.items():
            per[pkg].append(us / 1e6)
    return {f"import.{pkg}_s": statistics.median(v) for pkg, v in per.items()}


def _call_metrics(summary: dict, wall: float) -> dict:
    """Per-layer values of one traced call."""
    m = {}
    for name, agg in summary["spans"].items():
        m[f"{name}.s"] = agg["s"]
        m[f"{name}.calls"] = agg["calls"]
        m[f"{name}.self_s"] = agg["self_s"]
        layer_self = name.split(".")[0] + ".self_s"
        m[layer_self] = m.get(layer_self, 0.0) + agg["self_s"]
    edges = {(p, c): n for p, c, n in summary["edges"]}
    counters = summary["counters"]

    def ratio(num, den):
        return num / den if den else 0.0

    m["tables.write_s"] = (m.get("tables.ExperimentReport.to_csv.s", 0.0)
                           + m.get("tables.ExperimentReport.to_json.s", 0.0))
    m["tables.bytes"] = counters.get("tables.bytes", 0)
    points = counters.get("ensembles.sample_ensemble.points", 0)
    m["ensembles.sample_ensemble.points"] = points
    m["ensembles.accept_ratio"] = ratio(points, edges.get(
        ("ensembles.sample_ensemble", "ensembles._solve_reactive_integral"), 0))
    m["bottleneck.root_evals_per_call"] = ratio(
        edges.get(("bottleneck.j_max_cnf", "models.eval_cnf"), 0),
        m.get("bottleneck.j_max_cnf.calls", 0))
    samples = counters.get("kernels.count_box_hits.samples", 0)
    m["kernels.count_box_hits.samples"] = samples
    m["kernels.count_box_hits.bytes"] = counters.get("kernels.count_box_hits.bytes", 0)
    m["kernels.count_box_hits.hit_ratio"] = ratio(
        counters.get("kernels.count_box_hits.hits", 0), samples)
    steps = counters.get("kernels.verlet_run.steps", 0)
    m["kernels.verlet_run.steps"] = steps
    m["kernels.verlet_run.steps_per_s"] = ratio(steps, m.get("kernels.verlet_run.s", 0.0))
    m["trace.wall_s"] = wall
    m["trace.accounted_frac"] = ratio(sum(m.get(f"{layer}.self_s", 0.0) for layer in LAYERS),
                                      wall)
    return m


def layer_metrics(res: dict, imports: dict, names) -> dict:
    """Median over the traced calls of each per-layer metric in ``names``."""
    per_call = [_call_metrics(s, w) for s, w in zip(res["summaries"], res["traced_walls"])]
    values = dict(imports)
    values["trace.overhead_s"] = (statistics.median(res["traced_walls"])
                                  - statistics.median(res["walls"]))
    for name in names:
        if name not in values:
            # a span that never ran in this workload reads zero
            values[name] = statistics.median(m.get(name, 0) for m in per_call)
    return values


def output_problems(name: str, seed: int, res: dict) -> list:
    """Byte identity across the run's calls and, for the reference seed, the digest."""
    problems = []
    first = res["digests"][0]
    if any(d != first for d in res["digests"]):
        problems.append("invocations of one run wrote different bytes")
    reference = _load_json(os.path.join(HERE, "reference.json"))
    if seed == reference["seed"] and first != reference["digests"].get(name):
        problems.append(f"output digest differs from the reference for seed {seed}")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[name]
    argv = workload.argv(seed)
    print(f"workload {name} seed {seed}: sympb {' '.join(argv)}")
    imports = measure_imports(deadline) if trace else {}
    setup = None if trace else measure_setup(deadline)
    os.makedirs(OUT_BASE, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_BASE)
    try:
        job = {"argv": argv, "seconds": seconds, "trace": trace, "outdir": outdir}
        proc = _run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                    deadline, stdout=subprocess.PIPE, text=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        if os.path.dirname(res["sympb"]) != SRC:
            raise BenchError(f"imported sympb from {res['sympb']}, not from {SRC}")
        try:
            problems = workload.check(outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(OUT_BASE)
        except OSError:
            pass
    problems += output_problems(name, seed, res)
    attempted = len(res["codes"])
    # every call wrote the same bytes unless a problem says otherwise, so one
    # failed check fails them all
    failed = attempted if problems else sum(code != 0 for code in res["codes"])
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"digest {res['digests'][0]}")
    for problem in problems:
        print(f"check failed: {problem}")
    if trace:
        print(f"calls: 1 warm-up, {len(res['walls'])} untraced, "
              f"{len(res['traced_walls'])} traced")
        values = layer_metrics(res, imports, [m["name"] for m in spec["per_layer"]])
        declared = spec["per_layer"]
    else:
        print(f"calls: 1 warm-up, {len(res['walls'])} timed; setup over {SETUP_REPS} "
              f"interpreters")
        setup_s = statistics.median(setup[0])
        values = {"setup_s": at_nominal_speed(setup_s, setup[1] + res["refs"]),
                  "wall_norm_s": nominal_median(res["walls"], res["refs"]),
                  "peak_rss_mb": res["peak_rss_mb"]}
        print(f"{'setup_s (raw)':<44} {setup_s:>16.6g} s")
        print(f"{'wall_s (raw)':<44} {statistics.median(res['walls']):>16.6g} s")
        print(f"{'reference_work':<44} "
              f"{statistics.median(setup[1] + res['refs']):>16.6g} s")
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for key, metric in metrics.items():
        print(f"{key:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_frac':<44} {failed / attempted:>16.6g} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child,
    # and through the clean-up of the output directory
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "sympb", "cli.py")):
        print(f"error: no sympb sources under {SRC}", file=sys.stderr)
        return 2
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="workload to run (default: all four, one after another)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    names = [opts.workload] if opts.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, opts.seed, opts.seconds, bool(opts.trace), spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if opts.workload:
        result = results[opts.workload]
    else:
        print(f"\n{'metric':<44}" + "".join(f"{n:>14}" for n in names))
        for key in results[names[0]]["metrics"]:
            print(f"{key:<44}" + "".join(
                f"{results[n]['metrics'][key]['value']:>14.6g}" for n in names))
        print(f"{'failed_frac':<44}" + "".join(
            f"{results[n]['failed'] / results[n]['attempted']:>14.6g}" for n in names))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
