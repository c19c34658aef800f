"""Machine-speed probe for normalizing pass times.

On a VM that shares its host with other tenants, such as the 2-vCPU VM of
BASELINE.md, the cores run a fixed job at speeds that drift by 25% and
more, over seconds and over tens of minutes, and interpreter-bound and
BLAS-bound code drift by different amounts.  Raw pass times inherit that
drift.  Between passes the probe times one of two fixed kernels that
never call pnmimo, the one that matches what bounds the workload: an interpreter kernel (RNG construction, small complex
solves, a Python loop: what the Monte-Carlo and closed-form paths spend
their time on) or a BLAS kernel (a 256×256 complex product and inverse).
Each pass time is scaled by the kernel's REFERENCE_S over the kernel time
bracketing the pass, which reads as "seconds on a machine where the kernel
takes REFERENCE_S".  A change to pnmimo cannot move the probe, so the
scaled time still moves with the code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Typical kernel times on the 2-vCPU VM the baseline was measured on.
REFERENCE_S = {"interpreter": 0.0055, "blas": 0.012}
SAMPLE_S = 0.1  # kernel runs for this long (at least 3) per sample; median
EVERY_S = 1.0  # at most one sample per this many seconds of passes


def _interpreter_kernel(_) -> None:
    acc = 0.0
    for i in range(60):
        rng = np.random.default_rng((12345, i))
        h = rng.standard_normal((10, 50)) + 1j * rng.standard_normal((10, 50))
        g = h @ h.conj().T + 50 * np.eye(10)
        acc += float(np.abs(np.linalg.solve(g, h[:, :10])).sum())
        for k in range(200):
            acc += (k * i) % 7


def _blas_kernel(a) -> None:
    np.linalg.inv(a @ a + 256 * np.eye(256))


_KERNELS = {"interpreter": _interpreter_kernel, "blas": _blas_kernel}


class SpeedProbe:
    """Samples of one kernel, taken between the passes of one run."""

    def __init__(self, kind: str):
        if kind not in _KERNELS:
            raise ValueError(f"probe kind must be one of {sorted(_KERNELS)}, got {kind!r}")
        self.kind = kind
        self._kernel = _KERNELS[kind]
        rng = np.random.default_rng(7)
        self._a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        self.samples: list[float] = []
        self._last = -float("inf")
        self._kernel(self._a)  # the first call pays one-off library set-up

    def sample(self, force: bool = False) -> int:
        """Take a sample if EVERY_S has passed (or force); returns the index
        of the latest sample."""
        if force or time.perf_counter() - self._last >= EVERY_S:
            times: list[float] = []
            end = time.perf_counter() + SAMPLE_S
            while len(times) < 3 or time.perf_counter() < end:
                t0 = time.perf_counter()
                self._kernel(self._a)
                times.append(time.perf_counter() - t0)
            self.samples.append(statistics.median(times))
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """REFERENCE_S over the mean of the samples bracketing a pass that
        started after sample `before` (the next sample closes it)."""
        after = min(before + 1, len(self.samples) - 1)
        return REFERENCE_S[self.kind] / ((self.samples[before] + self.samples[after]) / 2)
