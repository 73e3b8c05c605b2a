"""A fixed unit of work that reads the host's speed next to each timed call.

On the shared 2-core host this benchmark was built on, each virtual CPU
switched between a fast and a slow state, 1.4 to 2 times apart, for a
quarter of a second up to more than twenty seconds at a time, and the two
CPUs switched independently.  Raw wall times of the same calls on the same
inputs then differed by up to 60% between runs.

So every timed call is scaled by the host's speed at that moment, read by
this probe on the same CPU: before and after an in-process call, and every
PROBE_GAP_S while a child process runs.  A call's scaled time is

    wall time * REF_PROBE_MS / (mean probe time around or during the call)

that is, its time on a CPU where the probe takes REF_PROBE_MS, about the
probe's time in the host's fast state.  Scaled times of the same calls
agreed within a few per cent between runs where raw times differed by 60%.

The probe uses only Python and numpy, never diskflow, so a change to the
program cannot change it.  Its work is like diskflow's: scalar complex
arithmetic through numpy, Python calls and a small eigenvalue problem.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_PROBE_MS = 0.25  # the probe's time, in ms, that scaled times refer to
PROBE_GAP_S = 0.02  # pause between probes while a child process runs

_MATRIX = np.random.default_rng(20200306).standard_normal((20, 20))
_ANGLES = [0.01 * k for k in range(200)]


def probe() -> float:
    """Milliseconds taken by one fixed unit of work."""
    t0 = time.perf_counter()
    s = 0j
    for a in _ANGLES:
        s += np.exp(1j * np.float64(a)) / (1.5 - np.cos(np.float64(a)))
    np.linalg.eigvals(_MATRIX)
    return 1e3 * (time.perf_counter() - t0)


def scaled(wall: float, probes) -> float:
    """``wall`` scaled to the reference speed, given the probes taken around it."""
    return wall * REF_PROBE_MS / statistics.fmean(probes)
