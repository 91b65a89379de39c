"""Host speed drift correction with an interleaved reference kernel.

On a shared 2-core host the core speed itself moves by 10-30% within
seconds, and both numpy and pure-Python code follow it, though not equally.
The benchmark runs a fixed kernel of its own, which calls no nfsense code,
before every job and after the last one.  It has two parts, timed
separately: vectorized numpy and per-value Python.  Each job's time is
scaled by REFERENCE_S over the mean of the samples of its part taken just
before and just after it.  Corrected times therefore read as seconds on a
host where the parts take REFERENCE_S.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = {"numpy": 0.004, "python": 0.003}
# Nominal time of the reference set-up (a fresh interpreter importing numpy
# and the standard modules nfsense uses) used to scale set-up times.
SETUP_REFERENCE_S = 0.15


class ReferenceKernel:
    """About 7 ms of fixed work in two parts: a 64k-point complex exp and
    sum (like the exact sums and the closed-form scans) and 6000 floats
    formatted with %.12g (like the CLI writers)."""

    def __init__(self):
        rng = np.random.default_rng(20250515)
        self._phase = rng.uniform(0.0, 100.0, 1 << 16)
        self._values = [float(v) for v in rng.uniform(-1e3, 1e3, 6000)]
        self.checksum = 0.0

    def __call__(self) -> dict:
        start = perf_counter()
        total = np.exp(-1j * self._phase).sum()
        middle = perf_counter()
        text = ",".join([f"{v:.12g}" for v in self._values])
        end = perf_counter()
        self.checksum += total.real + len(text)
        return {"numpy": middle - start, "python": end - middle}


def speed_factors(kernel_s, parts) -> np.ndarray:
    """Per-job correction REFERENCE_S[part] / mean(part before, part after).

    kernel_s holds samples k_0..k_n taken around n jobs; parts names the
    kernel part each job's time follows.
    """
    return np.array([REFERENCE_S[p] / (0.5 * (before[p] + after[p]))
                     for p, before, after in zip(parts, kernel_s, kernel_s[1:])])


def percentile_summary(values, q: float) -> tuple:
    """(q-th percentile, samples strictly above it)."""
    values = np.asarray(values, dtype=float)
    p = float(np.percentile(values, q))
    return p, int((values > p).sum())
