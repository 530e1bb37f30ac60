"""Machine speed from a fixed reference kernel, timed between calls.

On a 2-vCPU VM sharing its host (OpenBLAS 0.3.31, Python 3.11), the same
``spillsim`` call took from 0.41 s to 0.88 s within two minutes, and the
speed stayed high or low for tens of seconds at a time, so no run length
short enough to repeat evens it out. A kernel that does the same kind of work
as the call, but runs no spillsim code, slows down with it. The benchmark
times the kernel before and after every call and reports the call at the
reference speed: ``wall * REFERENCE_S[kind] / kernel_s``. A change to
spillsim moves the call and not the kernel, so it shows in full.

``interp`` is interpreter-bound (dict updates, float repr, one random draw),
like ``threshold_sweep`` and ``panel_io``; ``array`` is numpy-bound (a large
normal draw, matrix-vector products and array streaming), like ``dense_mc``
and ``structured_mc``.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 3  # a sample is the fastest of these, which drops one-off stalls

# Kernel times at the reference speed: typical fast-state medians on the VM
# described above.
REFERENCE_S = {"interp": 0.004, "array": 0.0045}

def _interp(_inputs) -> None:
    counts: dict[int, int] = {}
    for i in range(15_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    ",".join([repr(i * 0.1) for i in range(1_500)])
    np.random.default_rng(0).standard_normal(150_000)


def _array(inputs) -> None:
    matrix, block, stream = inputs
    np.random.default_rng(0).standard_normal(150_000)
    for _ in range(2):
        matrix @ block
    (stream * 1.5 + 2.0).sum()


def _array_inputs():
    return np.full((1000, 1000), 0.5), np.ones((1000, 3)), np.arange(500_000, dtype=np.float64)


# kind -> (kernel, builder of its inputs). Inputs are built per sample and
# dropped after it, so the gauge holds no memory between samples.
KERNELS = {"interp": (_interp, lambda: None), "array": (_array, _array_inputs)}


class SpeedGauge:
    def __init__(self, kind: str):
        self.kernel, self.inputs = KERNELS[kind]
        self.reference_s = REFERENCE_S[kind]

    def sample(self) -> float:
        """Kernel time now, in seconds."""
        inputs = self.inputs()
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.kernel(inputs)
            best = min(best, time.perf_counter() - start)
        return best

    def scale(self, wall_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
        """``wall_s`` at the reference speed."""
        return wall_s * self.reference_s * 2 / (kernel_before_s + kernel_after_s)
