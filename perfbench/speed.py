"""Host speed, from a fixed unit of work that does not touch maf.

On the sandbox this benchmark was written on (a 2-vCPU Intel Xeon), the speed
of the host changes by up to 2x from one run to the next and by up to 1.6x
within seconds, while the process's CPU time moves with its wall time: the
host varies, not the scheduler.  Raw wall times of ``verify`` differed by up
to 60% between runs of the same code, and raw medians of ``projector`` by up
to 50% between 30-second windows of one process.

A calibration unit is timed before the first op and after every op.  Each
op's wall time is scaled by the unit's reference time over the mean of the
units on either side of it, so a slow spell of the host slows both alike and
cancels.  The unit has the op's resource profile:

* ``unit_ms``, a pure-Python loop, for ops bound by the interpreter
  (``verify``, ``closure``, and every set-up, which times it itself just
  before and after its import).  That brought the run-to-run spread of
  ``verify`` from 26% to about 1%.
* ``KernelUnit``, one block of the dense projection's arithmetic in numpy
  (complex exponentials over a block of node pairs, then a matrix-vector
  product), for ``projector``, whose numpy kernels the Python loop does not
  track.  Over ten runs of the same code it brought the spread of the
  ``projector`` median from 7% to 3.5%, and over 30-second windows of one
  process from 12% to 6%.

Each reference time is about the unit's median on that host, so scaled times
read close to wall-clock milliseconds there.
"""

from __future__ import annotations

import time

REF_MS = 4.0
REPS = 3


def unit_ms() -> float:
    """The fastest of three runs of a fixed Python loop, in ms."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += (i * 0.5) ** 0.5
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class KernelUnit:
    """A 256 x 4096 block of a first-level Landau kernel times a vector, in ms.

    The block has the shape of a quarter of one chunk of
    ``spectral.project_on_nodes`` on 64 x 64 nodes; its inputs are fixed.
    """

    REF_MS = 170.0
    B = 1.2
    GAUGE_K = 0.3 + 0.1j  # phi(z) = 2 Re(GAUGE_K z)

    def __init__(self, rows: int = 256, cols: int = 4096):
        # numpy is imported here rather than at the top: a set-up process
        # imports this module before it starts timing, and must still pay
        # for numpy's import inside its own.
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.z = (rng.uniform(-6, 6, rows) + 1j * rng.uniform(-6, 6, rows))[:, None]
        self.w = (rng.uniform(-6, 6, cols) + 1j * rng.uniform(-6, 6, cols))[None, :]
        self.f = rng.standard_normal(cols) + 0j

    def block(self):
        """K_1(z, w) @ f for the fixed field ``B`` and linear gauge ``GAUGE_K``."""
        np, B, g = self.np, self.B, self.GAUGE_K
        d2 = np.abs(self.z - self.w) ** 2
        K = (
            (B / np.pi)
            * np.exp(-2j * ((g * self.z).real - (g * self.w).real))
            * np.exp(1j * B * (self.z * self.w.conjugate()).imag)
            * np.exp(-(B / 2) * d2)
            * (1.0 - B * d2)
        )
        return K @ self.f

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.block()
        return (time.perf_counter() - t0) * 1e3


def at_reference(wall_s: float, before_ms: float, after_ms: float, ref_ms: float = REF_MS) -> float:
    """``wall_s`` at reference speed, given the units timed just before and after it."""
    return wall_s * ref_ms / ((before_ms + after_ms) / 2)


class Speed:
    """Scales wall times, each measured since the previous unit, to reference speed."""

    def __init__(self, unit=unit_ms, ref_ms: float = REF_MS):
        self.unit = unit
        self.ref_ms = ref_ms
        self.units: list[float] = [unit()]

    @classmethod
    def kernel(cls) -> "Speed":
        """Speed of numpy kernels like the dense projection's, by ``KernelUnit``."""
        return cls(KernelUnit(), KernelUnit.REF_MS)

    def scale(self, wall_s: float) -> float:
        """``wall_s`` at reference speed; times a new unit."""
        self.units.append(self.unit())
        return at_reference(wall_s, self.units[-2], self.units[-1], self.ref_ms)
