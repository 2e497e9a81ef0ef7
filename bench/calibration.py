"""Machine-speed calibration for the benchmark's timings.

The speed of the machine this benchmark was built on drifts by up to a
quarter over minutes, for reasons outside the process (README, "Noise").
A run therefore interleaves short slices of a fixed loop of its own
with its timed calls, and rescales each call's wall time to the speed
at which that loop ran when the reference rate was taken, using the
slices just before and just after the call.  The loop is the workload's
Gram product ``M M^T`` done as sequential rank-1 updates in plain
numpy, the operation that dominates the program, so it slows down with
the machine the way the program does.  It calls nothing in ``spd_agg``:
a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Length of one calibration slice.
SLICE_S = 0.25


class Calibrator:
    """Runs calibration slices and keeps (start, end, loops) for each."""

    def __init__(self, shape: tuple[int, int], reference_rate: float):
        self.m = np.random.default_rng(0).standard_normal(shape)
        self.mt = self.m.T.copy()
        self.reference_rate = reference_rate
        self.slices: list[tuple[float, float, int]] = []

    def _gram(self) -> np.ndarray:
        m, mt = self.m, self.mt
        out = np.zeros((m.shape[0], m.shape[0]))
        for k in range(m.shape[1]):
            out += m[:, k : k + 1] * mt[k : k + 1, :]
        return out

    def run_slice(self) -> None:
        start = time.perf_counter()
        loops = 0
        while True:
            self._gram()
            loops += 1
            end = time.perf_counter()
            if end - start >= SLICE_S:
                break
        self.slices.append((start, end, loops))

    def _speed(self, slices) -> float:
        loops = sum(n for _, _, n in slices)
        wall = sum(end - start for start, end, _ in slices)
        return loops / wall / self.reference_rate

    def speed(self, start: float, end: float) -> float:
        """Machine speed relative to the reference (above 1 is faster)
        over the last slice before ``start`` and the first after ``end``."""
        near = [s for s in self.slices if s[1] <= start][-1:]
        near += [s for s in self.slices if s[0] >= end][:1]
        return self._speed(near)

    def mean_speed(self) -> float:
        """Machine speed over every slice of the run."""
        return self._speed(self.slices)
