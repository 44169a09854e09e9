"""Host time, expressed at a reference host speed.

This host's raw speed drifts: the same pure-Python loop takes 0.34 to
0.52 s from one second to the next and its median moves by a third over
ten minutes (neighbours under the same hypervisor). A benchmark that
reports raw seconds here has a run-to-run spread of 8-22 % with no
program change, which no regression bound survives.

So every timed region in this benchmark is bracketed by ``reference()``
— a fixed interpreter-bound loop of about ten milliseconds — and its
raw time is multiplied by ``NOMINAL_S / (mean of the two bracketing
loops)``. A region measured while the host ran 20 % slow is scaled back
by 20 %. The result reads as seconds (or ms, us) *on a host on which the
reference loop takes exactly ``NOMINAL_S``*; ``host.reference_loop_ms``
in the per-layer metrics is the raw loop time, so anyone can convert
back. Counts, bytes and ratios are never scaled.

The loop and the program under test are both CPython bytecode, which is
why one tracks the other. Measured over 24 interleaved runs of
``tcp-read-hot``, inter-quartile distance over median: raw throughput
15-22 %, scaled 7-9 %; over 12 runs of ``tcp-mixed-zipf`` on a calmer
day, 5.4 % and 3.4 %. A loop that walks a large table instead tracked
better on one day and worse on the next, so the simple one stays.
"""

from __future__ import annotations

import time
from typing import List

#: what the reference loop takes on the reference host
NOMINAL_S = 0.010
_ITERATIONS = 42000


def reference() -> float:
    """Run the reference loop; raw seconds it took."""
    clock = time.perf_counter
    table = {}
    acc = 0
    start = clock()
    for i in range(_ITERATIONS):
        key = b"k%d" % (i & 255)
        table[key] = acc
        acc = (acc + table.get(key, 0) + len(key) * i) & 0xFFFFFF
    return clock() - start


class HostSpeed:
    """Reference-loop samples taken around and between pieces of timed
    work."""

    def __init__(self) -> None:
        #: raw seconds of every reference loop run, in order
        self.samples: List[float] = []
        self._opened = 0

    def sample(self) -> None:
        """Run the reference loop once (between two pieces of work that
        one ``scale()`` will cover)."""
        self.samples.append(reference())

    def open(self) -> None:
        """Sample, and start a bracket of timed work here."""
        self._opened = len(self.samples)
        self.sample()

    def scale(self) -> float:
        """Sample, closing the bracket; the factor that converts the raw
        time of the work done inside it into reference-host time. The
        closing sample opens the next bracket."""
        self.sample()
        inside = self.samples[self._opened:]
        self._opened = len(self.samples) - 1
        return NOMINAL_S * len(inside) / sum(inside)
