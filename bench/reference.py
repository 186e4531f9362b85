"""Machine speed, from a fixed reference loop timed in a helper process.

A shared host changes speed by tens of percent over minutes (neighbours'
load, the host's clock), and a benchmark run measures whichever phase it
lands in: on the machine the baseline was recorded on, the same attack
loop ran anywhere between 105 and 205 victim-seconds per second (medians
of ten-second windows) within ten minutes.  So before and after every
operation the runner times a fixed loop that mixes the kind of work the
package does -- dict-heavy Python and small NumPy calls -- in a helper
process that never imports the package, so no change to the package can
move it.  Rates are then reported at the nominal speed: an operation's
rate is multiplied by its *slowness*, the mean of the two reference times
over :data:`REFERENCE_S`.  The helper sleeps through each operation and
its first loop afterwards runs about 7% slow, so it runs the loop once
untimed before each timed run.

The loop holds no pass over a large array: timed beside the workloads,
such a pass did not track their speed (correlation about 0 with an
attack session's cost) and only added noise.
"""

from __future__ import annotations

import subprocess
import sys

#: A fixed nominal time for the reference loop, near its time on the
#: machine the baseline was recorded on (see README.md) when that machine
#: was quiet; slowness 1.0 means that speed.
REFERENCE_S = 1.08e-3

_HELPER = r"""
import sys, time
import numpy as np

steps = np.cumsum(np.ones(1024))
row = list(range(11))


def reference():
    d = {}
    for i in range(1500):
        d[(i & 15, i)] = i * 3
    total = sum(d.values())
    for i in range(200):
        k = int(np.searchsorted(steps, i * 3.7, side="right"))
        total += int((np.array(row, dtype=np.int64) * k).sum())
    return total


for _ in sys.stdin:
    reference()  # the helper slept through the operation: warm it first
    t0 = time.perf_counter()
    reference()
    print(time.perf_counter() - t0, flush=True)
"""


class Reference:
    """The helper process timing the reference loop; a context manager."""

    def __enter__(self) -> "Reference":
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)

    def slowness(self) -> float:
        """Reference time now over :data:`REFERENCE_S` (2.0 = half speed)."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference helper process exited")
        return float(line) / REFERENCE_S
