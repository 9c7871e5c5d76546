"""Machine-speed reference for a shared virtual machine.

A shared machine changes speed with what else runs on its host.  On the
2-vCPU virtual machine this benchmark was built on, a fixed task's time
varied by up to 2.4x, in phases lasting from about a second to minutes,
and whole 20-second runs shifted by up to 1.7x: more than the benchmark's
bounds.  So run.py times a fixed reference task between ops and reports
durations in reference seconds: a measured duration times REF_SECONDS over
the median of the latest reference times.  The reference task uses only
Python and numpy, never the package under test, so a change to the package
cannot move it.

A launch of a fresh interpreter (set-up time) is other work: process start,
imports, page faults.  The in-process task does not track it; on the
VM above it over-corrected launch times by over a quarter when the VM
slowed down.  So each launch is scaled instead by a reference launch made
just before it: a fresh interpreter that imports numpy and the standard
modules the CLI uses, and nothing of the package.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import deque

import numpy as np

REF_SECONDS = 0.005   # the reference task's time on an undisturbed machine
EVERY_S = 0.15        # measured time between two readings
WINDOW = 9            # readings in the running median


LAUNCH_REF_SECONDS = 0.15  # the reference launch's time on an undisturbed machine
LAUNCH_REF_CODE = "import argparse, json, numpy"


def reference_launch() -> float:
    """Time one reference launch, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", LAUNCH_REF_CODE], check=True, timeout=60)
    return time.perf_counter() - t0


class _Record:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


class Pace:
    def __init__(self) -> None:
        self._points = np.random.default_rng(0).random((8000, 2))
        self._readings: deque[float] = deque(maxlen=WINDOW)
        self._due = 0.0

    def _reference(self) -> float:
        """Small-object Python work and a numpy sort: the two kinds of work
        the workloads do, so a slowdown of either shows here too."""
        t0 = time.perf_counter()
        rows = []
        for i in range(700):
            r = _Record(i * 0.37, math.log2(1.0 + i))
            d = {"x": r.x, "y": r.y, "t": (r.x, r.y)}
            rows.append(f"{d['x']:.12g},{d['y']:.12g}")
        json.dumps(rows)
        np.unique(self._points, axis=0)
        return time.perf_counter() - t0

    def scale(self, seconds: float) -> float:
        """A duration just measured, in reference seconds.  Takes a new
        reading first when EVERY_S of measured time has passed."""
        if self._due <= 0.0:
            self._readings.append(self._reference())
            self._due = EVERY_S
        self._due -= seconds
        return seconds * REF_SECONDS / statistics.median(self._readings)
