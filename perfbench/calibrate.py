"""A speed gauge: a fixed computation that measures how fast the core
the benchmark runs on is at the moment.

On a shared host the speed of one core drifts by tens of percent within
minutes as neighbours come and go.  Process CPU time drifts with it (the
core is slower, not taken away), so CPU time is no steadier than wall
time.  The benchmark therefore pins itself and its children to one core
and runs this computation in a low-priority thread of its own process
while the commands run.  The scheduler interleaves the two on that core
every few milliseconds, so both see the same speed.  A command's CPU time
multiplied by the gauge's speed, relative to ``REFERENCE_RATE``, is the
time the command would take on the core at reference speed: it moves
when the program changes and stays put when the machine does.

The computation is the same kind of work as the program's hot loops
(fraction-free elimination of integer matrices and sparse rows of
fractions keyed in dicts, in pure Python, over a working set larger
than the first cache levels).  It imports nothing from the package and
uses fixed inputs, so it does not change when the program or the seed
does.
"""

import os
import random
from fractions import Fraction
import threading
import time

# Units per CPU second of the gauge running alone on an idle 2-vCPU Intel
# Xeon VM under CPython 3.11.  It only sets the scale of normalised times.
REFERENCE_RATE = 900.0

# The gauge thread's niceness: at 10 the scheduler gives it about a tenth
# of the core while a command runs, enough to sample the core's speed all
# through the command without slowing the command much.
NICENESS = 10

_RNG = random.Random(20260101)
_ROWS, _COLS = 20, 24
# 300 matrices, so that the gauge's working set, like the program's, is
# larger than the first cache levels
_MATRICES = [[[_RNG.randint(-9, 9) if _RNG.random() < 0.4 else 0
               for _ in range(_COLS)] for _ in range(_ROWS)]
             for _ in range(300)]


def _bareiss(rows, ncols):
    mat = [list(r) for r in rows]
    prev, k = 1, 0
    for col in range(ncols):
        if k == len(mat):
            break
        best = next((i for i in range(k, len(mat)) if mat[i][col]), -1)
        if best < 0:
            continue
        mat[k], mat[best] = mat[best], mat[k]
        piv_row = mat[k]
        piv = piv_row[col]
        for i in range(k + 1, len(mat)):
            row_i = mat[i]
            f = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (piv * row_i[j] - f * piv_row[j]) // prev
            row_i[col] = 0
        prev = piv
        k += 1
    return k


def _sparse(rows):
    acc = {}
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x:
                key = (i % 7, j, x)
                acc[key] = acc.get(key, _ZERO) + Fraction(x, i + 1)
    return len(acc)


_ZERO = Fraction(0)


def _unit(m):
    """One unit of gauge work (about 1 ms)."""
    return _bareiss(m, _COLS) + _sparse(m)


class SpeedGauge:
    """Runs the fixed computation in a daemon thread until ``stop``.

    ``reading()`` is ``(units done, thread CPU seconds)``; the speed
    between two readings is ``speed(before, after)``.  Start it after
    pinning the process, so that the thread shares the pinned core.
    """

    def __init__(self):
        self._state = (0, 0.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICENESS)
        units = 0
        while not self._stop.is_set():
            for m in _MATRICES:
                _unit(m)
                units += 1
                # one tuple, so a reader never sees a torn pair
                self._state = (units, time.thread_time())

    def start(self):
        self._thread.start()
        while self._state[0] == 0:
            if not self._thread.is_alive():
                raise RuntimeError("speed gauge did not start")
            time.sleep(0.01)
        return self

    def reading(self):
        return self._state

    def stop(self):
        self._stop.set()
        self._thread.join()


def speed(before, after):
    """The core's speed between two readings, relative to the reference:
    above 1 is faster.  None if the gauge did not run in between."""
    units = after[0] - before[0]
    cpu = after[1] - before[1]
    if units <= 0 or cpu <= 0:
        return None
    return units / cpu / REFERENCE_RATE
