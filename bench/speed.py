"""Machine-speed probe for scaling the benchmark's timings.

On the shared 2-core machine the benchmark was built on, the same
computation's wall time drifted by up to a third over minutes (another
tenant's load, not this process), more than any bound a regression check
can use.  :class:`Probe` times a fixed mix of the kinds of work the
workloads do -- adaptive quadrature of a Python integrand, a small dense
eigenvalue solve and complex matrix-vector products -- using NumPy and
SciPy only, so no change to the package moves it.  A timing measured
between two probes is reported as ``seconds * REFERENCE_S / probe``: the
time it would have taken at the speed the machine had when the probe took
REFERENCE_S.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.integrate

# Median probe time on the machine the benchmark was built on (Intel Xeon,
# 2 vCPUs, one BLAS thread) in a quiet period.  Only ratios to it matter.
REFERENCE_S = 0.0100

# A sample is the median of at least SAMPLE_SIZE probe evaluations, and of
# more until SAMPLE_SHARE of the timing it scales has passed: a short sample
# after a long operation catches the machine at one instant of a drift that
# the operation averaged over.
SAMPLE_SIZE = 3
SAMPLE_SHARE = 0.02


class Probe:
    """A fixed computation whose time tracks the machine's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._lam = np.linspace(1.0, 1000.0, 20) + 0j
        self._log_lam = np.log(np.abs(self._lam))
        self._hess = np.triu(rng.standard_normal((60, 60)), -1)
        self._dense = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
        self._vec = np.ones(400, dtype=complex) / 20.0

    def _integrand(self, x: float) -> float:
        return math.exp(0.5 * math.log(x) + float(np.sum(
            self._log_lam - np.log(np.abs(self._lam + x))))) if x > 0 else 0.0

    def _once(self) -> float:
        t0 = time.perf_counter()
        scipy.integrate.quad(lambda t: self._integrand(t / (1 - t)) / (1 - t) ** 2,
                             0.0, 1.0, epsrel=1e-10, limit=200)
        np.linalg.eigvals(self._hess)
        v = self._vec
        for _ in range(20):
            v = self._dense @ v
            v /= np.linalg.norm(v)
        return time.perf_counter() - t0

    def sample(self, after_seconds: float = 0.0) -> float:
        """Median probe time, in seconds, sampled after a timing of
        ``after_seconds``."""
        times = []
        start = time.perf_counter()
        while (len(times) < SAMPLE_SIZE
               or time.perf_counter() - start < SAMPLE_SHARE * after_seconds):
            times.append(self._once())
        return statistics.median(times)


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """A timing scaled to the machine speed of REFERENCE_S."""
    return seconds * REFERENCE_S / (0.5 * (probe_before + probe_after))
