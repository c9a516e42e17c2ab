"""The benchmark's seed-0 outputs, checked in the test suite.

Replays the argv of each workload in ``perfbench/workloads.py`` for seed 0
through ``sympb.cli.main`` and hashes stdout and the written files with the
benchmark worker's own digest, so a change to any seeded byte fails here as
well as in the benchmark.  The perfbench files are only read.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from sympb.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def load_perfbench(name, monkeypatch):
    # worker.py imports its siblings (spans, hostspeed) by plain name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(REFERENCE["digests"]))
def test_reference_seed_digest(name, tmp_path, monkeypatch, capsys):
    workloads = load_perfbench("workloads", monkeypatch)
    worker = load_perfbench("worker", monkeypatch)
    monkeypatch.chdir(tmp_path)
    code = main(workloads.WORKLOADS[name].argv(REFERENCE["seed"]))
    out = capsys.readouterr().out
    assert code == 0
    assert worker._digest(out) == REFERENCE["digests"][name]


@pytest.mark.parametrize("cpus", [1, 4])
def test_flux_digest_does_not_depend_on_usable_cpus(cpus, tmp_path, monkeypatch, capsys):
    # widths spreads its rows over the usable CPUs; the bytes stay the same
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    test_reference_seed_digest("flux", tmp_path, monkeypatch, capsys)
