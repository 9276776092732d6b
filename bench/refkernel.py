"""A fixed reference kernel that times the host's current speed.

The host's per-core speed drifts by up to ~40 % over tens of seconds and
minutes, and everything a run does slows or speeds up with it.  Each timed
child runs this kernel next to the work it times, and the parent scales the
work's time by REF_NOMINAL_S over the kernel's time (see run.py).  The kernel
mixes the kinds of work the workloads do: a pure-Python float loop, small
complex matrix-vector products called from Python, and a dense solve.  It
uses no np.linalg.eigh or eigvalsh, so traced runs do not count it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The kernel's time on a host of reference speed: a 2-vCPU Xeon at 2.0 GHz
#: when it ran at its usual speed.  Scaled times are seconds on that host.
REF_NOMINAL_S = 0.3


def reference_seconds() -> float:
    """Wall time of one pass of the kernel, in seconds.

    The fixed inputs are built inside each pass and freed after it, without
    numpy.random, so that the kernel adds nothing to the child's peak RSS."""
    k = np.arange(81 * 81).reshape(81, 81)
    m = (np.sin(1.3 * k) + 1j * np.cos(0.7 * k)) / 81.0  # spectral radius ~0.04
    v0 = np.cos(0.5 * np.arange(81)) + 0j
    a = np.sin(0.9 * np.arange(160 * 160)).reshape(160, 160) + 160.0 * np.eye(160)
    b = np.cos(0.3 * np.arange(160 * 8)).reshape(160, 8)
    start = perf_counter()
    acc = 0.0
    for n in range(1, 450_001):
        acc += 1.0 / (n * n + acc)
    v = v0
    for _ in range(18_000):
        v = m @ v + v0
    for _ in range(240):
        np.linalg.solve(a, b)
    elapsed = perf_counter() - start
    if not (np.isfinite(acc) and np.all(np.isfinite(v))):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed
