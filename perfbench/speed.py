"""Machine-speed reference for the timed metrics.

The sandbox this benchmark was built on changes speed by 20-50 % over
minutes (other tenants), and a run of tens of seconds cannot average that
away: 30-second means of one repeated cold-library round still varied with
a coefficient of variation of 0.145.  A fixed calibration kernel that
touches nothing of the program -- a pure-Python dictionary/integer loop and
a numpy gather/AND/XOR loop, the two kinds of work the pipeline does -- is
timed for ``SLICE_S`` between rounds, while the program is idle.  Every
timed quantity is then reported *at reference speed*: multiplied by
``REFERENCE_S`` over the mean of the calibrations taken just before and
just after the work.  On ten runs per workload this cut the quartile
spread of the timed metrics from 0.11-0.31 to 0.07-0.12 of the median.
The raw figures are printed to standard error next to the adjusted ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel iteration time the adjusted figures are scaled to (about the
#: kernel's time on the machine the reference figures come from).
REFERENCE_S = 0.02
#: Wall time of one calibration slice.
SLICE_S = 0.1

# The numpy half works in preallocated 128 KiB buffers: a kernel that
# allocates large temporaries slows down threefold once the process heap has
# grown, which would make the reference depend on the program's history.
_RNG = np.random.default_rng(12345)
_WORDS = _RNG.integers(0, 2**63, size=(256, 64), dtype=np.uint64)
_ROWS = _RNG.integers(0, 256, size=256)
_NEXT, _FAR = (_ROWS + 1) % 256, (_ROWS + 7) % 256
_STATE, _A, _B, _C = (np.empty_like(_WORDS) for _ in range(4))


def _kernel() -> int:
    table, acc = {}, 0
    for i in range(30000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) & 0xFFFFFFFF
    np.copyto(_STATE, _WORDS)
    for _ in range(120):
        np.take(_STATE, _ROWS, axis=0, out=_A)
        np.take(_STATE, _NEXT, axis=0, out=_B)
        np.take(_STATE, _FAR, axis=0, out=_C)
        np.bitwise_and(_B, _C, out=_B)
        np.bitwise_xor(_A, _B, out=_A)
        _STATE[_ROWS] = _A
    return acc ^ int(_STATE[0, 0])


def calibrate(budget_s: float = SLICE_S) -> float:
    """Median kernel iteration time over one slice of ``budget_s``."""
    times = []
    started = time.perf_counter()
    while not times or time.perf_counter() - started < budget_s:
        begin = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def factor(calibrations) -> float:
    """Scale from measured to reference speed for work timed between the
    given calibration slices."""
    return REFERENCE_S / statistics.mean(calibrations)
