"""CPU speed references, to report times at one fixed speed.

The speed of a shared machine drifts: on a shared 2-vCPU virtual machine
(x86-64, Python 3.11) the same pure-Python loop ran up to a third slower
for minutes at a time.  A run therefore times a fixed reference task now
and then, between operations, and reports every time multiplied by
``scale() = NOMINAL_S / median(last three reference times)``: the time the
operation would take on a machine where the reference takes NOMINAL_S.  No
reference touches the package, so no change to the package moves it.
``reference_s`` is the kind of work the package does, sparse products of
dicts keyed by tuples of Fractions; ``interpreter_s``, a bare interpreter
start, is the reference for runs of fresh processes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

PROBE_EVERY_S = 1.0

_A = {(Fraction(i, 2), Fraction(j - 5, 3)): 7 * i + j for i in range(8) for j in range(6)}
_B = {(Fraction(i, 3), Fraction(1 - j, 2)): i - 3 * j for i in range(6) for j in range(5)}


def _product_s() -> float:
    start = time.perf_counter()
    out: dict = {}
    for (qa, za), va in _A.items():
        for (qb, zb), vb in _B.items():
            key = (qa + qb, za + zb)
            out[key] = out.get(key, 0) + va * vb
    return time.perf_counter() - start


def reference_s() -> float:
    """Time of one fixed sparse product, the least of three tries."""
    return min(_product_s() for _ in range(3))


def interpreter_s() -> float:
    """Launch-to-exit time of a bare interpreter: the reference for a run of
    fresh processes, whose time goes mostly to starting the interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


# each reference with the time it takes at the reference speed
NOMINAL_S = {reference_s: 0.015, interpreter_s: 0.050}


class Speed:
    """Reference times taken during a run."""

    def __init__(self, reference=reference_s):
        self.reference = reference
        self.samples: list[float] = []
        self.last = 0.0

    def probe(self) -> None:
        self.samples.append(self.reference())
        self.last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe if the last probe is more than PROBE_EVERY_S old."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> float:
        """The scale now: NOMINAL_S over the median of the last three probes."""
        return NOMINAL_S[self.reference] / statistics.median(self.samples[-3:])
