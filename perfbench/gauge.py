"""The speed gauge, run in a process of its own beside the measured worker.

    python3 perfbench/gauge.py     # one sample per line read from stdin

The process imports nothing of the program under test and shares no
interpreter, GIL, heap or allocator with it.  A worker starts it with
:class:`GaugeProcess` and asks for a sample only while none of its own
operations is in flight, so what the sample sees of the machine is what
the other tenants leave of it.  Each request names the CPU the asking
thread last ran on and the sample runs there: the cores of a shared
machine are not equally busy, and a sample on another core than the
worker's tracks the worker's speed worse.  The process ends when its stdin
closes.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from pathlib import Path


class SpeedGauge:
    """A fixed computation timed between operations to track machine speed.

    On a shared virtual machine the same code runs up to 1.5x slower for
    tens of seconds at a time while other tenants are busy; a raw timing
    moves with them.  The gauge runs the mix the program spends its time in
    on inputs that never change: interpreted Python over ints, dicts and
    strings, a small SuperLU factorisation that stays in cache, and
    triangular solves with the 8000-unknown factors of a 3-D Laplacian
    (tens of megabytes, so they are bound by memory bandwidth as the
    program's solves are).
    """

    def __init__(self) -> None:
        import numpy
        from scipy import sparse
        from scipy.sparse.linalg import splu

        side = 60
        ones = numpy.ones(side * side)
        self._small = sparse.diags(
            [-ones, -ones, 4.0 * ones, -ones, -ones],
            [-side, -1, 0, 1, side],
            shape=(side * side, side * side),
        ).tocsc()
        self._small_rhs = ones
        edge = 20
        line = sparse.diags(
            [-numpy.ones(edge - 1), 2.0 * numpy.ones(edge), -numpy.ones(edge - 1)], [-1, 0, 1]
        )
        eye = sparse.identity(edge)
        laplacian = (
            sparse.kron(sparse.kron(line, eye), eye)
            + sparse.kron(sparse.kron(eye, line), eye)
            + sparse.kron(sparse.kron(eye, eye), line)
        ).tocsc()
        self._large = splu(laplacian, permc_spec="MMD_AT_PLUS_A")
        self._large_rhs = numpy.ones(edge**3)
        self._splu = splu

    def sample(self) -> float:
        """Seconds one run of the gauge takes now."""
        start = time.perf_counter()
        total = 0
        for value in range(60000):
            total += value * value
        table = {}
        for value in range(20000):
            table[str(value)] = value
        small = self._splu(self._small)
        for _ in range(10):
            small.solve(self._small_rhs)
        for _ in range(4):
            self._large.solve(self._large_rhs)
        return time.perf_counter() - start


def current_cpu() -> str:
    """The CPU the calling thread last ran on, or ``""`` where that is unknown."""
    try:
        with open("/proc/thread-self/stat") as stat:
            # Field 39 (processor); the split starts at field 3, after the name.
            return stat.read().rpartition(")")[2].split()[36]
    except (OSError, IndexError):
        return ""


class GaugeProcess:
    """Handle on a gauge process; :meth:`sample` blocks until it has run once."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> float:
        """Seconds one run of the gauge takes now."""
        assert self._process.stdin is not None and self._process.stdout is not None
        self._process.stdin.write(current_cpu() + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(f"speed gauge process ended with code {self._process.wait()}")
        return float(line)

    def close(self) -> None:
        """Close its stdin and wait until it has ended."""
        assert self._process.stdin is not None
        try:
            self._process.stdin.close()
            self._process.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._process.kill()
            self._process.wait()


def serve() -> None:
    gauge = SpeedGauge()
    # Nothing here allocates across samples; no collection should run in one.
    gc.disable()
    for line in sys.stdin:
        if line.strip():
            try:
                os.sched_setaffinity(0, {int(line)})
            except (AttributeError, OSError, ValueError):
                pass
        print(repr(gauge.sample()), flush=True)


if __name__ == "__main__":
    serve()
