"""Client process of the benchmark: one workload's CLI calls in a closed loop.

run.py starts this script with a JSON job as its only argument::

    {"argv": [...], "seconds": 15.0, "trace": false, "outdir": "..."}

It imports ``sympb.cli`` from the checkout's ``src/``, makes one warm-up
call, then calls ``cli.main(argv)`` back to back until ``seconds`` are spent
(at least ``MIN_CALLS`` calls).  Right before each call it times
``hostspeed.reference_work``, so run.py can rescale each call to a nominal
host speed.  With ``"trace": true`` the budget is split:
half untraced, then half with the span wrappers of spans.py installed.  Every
call writes into ``outdir``, which is emptied before each call;
the files of the last call stay for run.py to check.  The last stdout line is
one JSON object with per-call times, exit codes and output digests, the
process's peak resident memory, the environment and, when traced, one span
summary per traced call.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy

import spans
from hostspeed import reference_work

MIN_CALLS = 3
MIN_TRACED_CALLS = 2


def _clear_cwd() -> None:
    for name in os.listdir("."):
        os.remove(name)


def _digest(stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            h.update(b"\0" + name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _call(main, argv):
    """One invocation: (exit code, wall seconds, output digest)."""
    _clear_cwd()
    gc.collect()
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    return rc, wall, _digest(out.getvalue())


def _loop(module, argv, seconds: float, min_calls: int, on_call=None) -> list:
    """Call ``module.main`` until the next call would overrun ``seconds``.

    Returns (exit code, wall seconds, digest, reference seconds) per call.
    ``main`` is looked up per call, so wrappers installed later are used.
    """
    calls = []
    start = time.perf_counter()
    while True:
        ref = reference_work()
        calls.append(_call(module.main, argv) + (ref,))
        if on_call is not None:
            on_call()
        elapsed = time.perf_counter() - start
        if len(calls) >= min_calls and elapsed * (len(calls) + 1) / len(calls) > seconds:
            return calls


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    try:
        from sympb._accel import USE_NUMBA
    except ImportError:
        USE_NUMBA = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "use_numba": USE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    os.chdir(job["outdir"])
    from sympb import cli

    argv, seconds = job["argv"], float(job["seconds"])
    result = {"sympb": os.path.dirname(cli.__file__)}
    reference_work()
    warmup = [_call(cli.main, argv)]
    if not job["trace"]:
        timed = _loop(cli, argv, seconds, MIN_CALLS)
        traced = []
    else:
        timed = _loop(cli, argv, seconds / 2, MIN_TRACED_CALLS)
        rec = spans.Recorder()
        spans.install(rec)
        summaries = []
        traced = _loop(cli, argv, seconds / 2, MIN_TRACED_CALLS,
                       on_call=lambda: summaries.append(rec.summary()))
        result["traced_walls"] = [call[1] for call in traced]
        result["summaries"] = summaries
    calls = warmup + timed + traced
    result.update(
        codes=[call[0] for call in calls],
        digests=[call[2] for call in calls],
        walls=[call[1] for call in timed],
        refs=[call[3] for call in timed],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
