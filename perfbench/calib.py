"""A fixed unit of reference work that tracks the host's speed.

The benchmark's host is shared: its speed drifts by tens of percent over
seconds and minutes, the whole process at once.  ``run.py`` runs a number of
these units before each operation, in proportion to how long the operation
takes, and rescales the operation's time by how fast the units ran in the
same pass.  The unit uses no ``chebydev`` code, so a change to the program
moves the operation times and leaves the units alone.

The unit mixes the kinds of work the workloads do: interpreted integer
arithmetic, ``Fraction`` arithmetic, tuple-keyed dictionaries, small numpy
evaluations on a few hundred points and a rank-one update of a dense
array of the size of a small simplex tableau.  ``REF_UNIT_S`` is the median
time of one unit on the reference host (README, "Host-speed rescaling").
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import numpy as np

REF_UNIT_S = 0.005


class Calibrator:
    """Runs reference units and keeps the time of each."""

    def __init__(self):
        rng = random.Random(2)
        self._terms = [(np.array([rng.randrange(4) for _ in range(3)], dtype=float),
                        rng.random()) for _ in range(12)]
        self._points = np.random.default_rng(3).random((300, 3))
        self._tableau = np.random.default_rng(4).random((40, 1500))
        self._row = np.random.default_rng(5).random(1500)
        self.unit_s: list[float] = []

    def _unit(self) -> float:
        acc = 0
        for i in range(15000):
            acc += i * i % 7
        x = Fraction(1, 3)
        for i in range(150):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
        table: dict[tuple[int, int], int] = {}
        for i in range(4000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + i
        for _ in range(2):
            out = np.zeros(len(self._points))
            for exp, coef in self._terms:
                out += coef * np.prod(self._points ** exp, axis=1)
            col = self._tableau[:, 7].copy()
            self._tableau -= np.outer(col * 1e-9, self._row)
        return acc + len(table) + float(out[0]) + float(x > 0)

    def run(self, units: int) -> None:
        for _ in range(units):
            start = time.perf_counter()
            self._unit()
            self.unit_s.append(time.perf_counter() - start)

    def reset(self) -> None:
        self.unit_s = []

    def scale(self) -> float:
        """Factor that turns a time measured alongside the units run since
        the last ``reset()`` into seconds at the reference host's speed.
        The median unit time ignores the few units an interruption hits."""
        return REF_UNIT_S / statistics.median(self.unit_s)
