"""Host-speed reference: rescales measured times to a nominal host speed.

On a shared 2-vCPU host the time of the same sympb call drifted by up to
1.7x over a few minutes, its CPU time tracking its wall time, while its
output stayed the same.  Raw times of runs made minutes apart then differ by more than any
useful regression bound.  ``reference_work`` is fixed code outside sympb
that slows with the host and not with the program; timing it next to the
measured intervals gives their time at nominal speed::

    nominal = REF_NOMINAL_S * measured / reference
"""

from __future__ import annotations

import statistics
import time

import numpy

# Seconds reference_work takes on the nominal host (median on a 2-vCPU
# Xeon at 2.1 GHz, numpy backend).
REF_NOMINAL_S = 0.035
# Loop length: about 35 ms, short beside every workload's call.
REF_ITERATIONS = 4000
_MATRIX = numpy.eye(6) + 0.01


def reference_work() -> float:
    """Run the fixed reference loop and return its wall seconds.

    It mixes Python integer arithmetic with 6x6 numpy products and 2x2
    determinants, the kinds of operation that dominate the workloads.
    """
    m = _MATRIX
    a = m
    acc = 0
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        a = (a @ m) * 0.5 + m
        numpy.linalg.det(a[:2, :2])
        acc += i * i % 7
    return time.perf_counter() - t0


def nominal_median(times, refs) -> float:
    """Median of the times rescaled by the reference time paired with each."""
    return REF_NOMINAL_S * statistics.median(t / r for t, r in zip(times, refs))


def at_nominal_speed(seconds: float, refs) -> float:
    """``seconds`` rescaled by the median of a run's reference times.

    For a figure made of few samples, such as the set-up median of a handful
    of interpreters, the median over all of the run's references estimates
    the host's speed more steadily than the reference paired with each.
    """
    return REF_NOMINAL_S * seconds / statistics.median(refs)
