"""Reference kernel for drift correction.

A fixed pure-Python loop that leans on what chorkit leans on: calls,
small tuples, dict lookups and integer arithmetic.  Its rate, measured
between operations, says how fast this interpreter runs on this machine
at that moment; timings are scaled by measured rate / ``NOMINAL_PER_S``.
Imports nothing from chorkit, so no change to chorkit can change it.
"""

from __future__ import annotations

import gc
import threading
import time

# Kernel iterations per second measured on the reference machine (2 shared
# vCPUs, CPython 3.11.7); see README.md.
NOMINAL_PER_S = 2_000_000.0

CHUNK = 20_000  # iterations per sample, about 10 ms at the nominal rate
GRACE_S = 2.0  # how long a thread that is about to end may take to do so


class StrayThreadError(RuntimeError):
    """A thread other than the main one is alive when the kernel must run."""


def _step(t: tuple, i: int) -> tuple:
    return (t[1], (t[0] * 31 + i) & 1023)


def _loop(n: int) -> int:
    d: dict = {}
    t = (1, 2)
    acc = 0
    for i in range(n):
        t = _step(t, i)
        k = t[1] & 255
        v = d.get(k)
        if v is None:
            d[k] = t
        else:
            acc ^= v[0] + t[0]
            if acc & 1:
                d[k] = t
    return acc


def sample(n: int = CHUNK) -> float:
    """Run the kernel once; return its rate in iterations per second.

    Refuses to run while another thread is still alive after a short
    grace (a leaked worker would slow the kernel and flatter every
    corrected number) and pauses the cyclic garbage collector so that
    heap size does not enter the rate.
    """
    others = [t for t in threading.enumerate() if t is not threading.main_thread()]
    for t in others:
        t.join(timeout=GRACE_S)
    alive = [t.name for t in others if t.is_alive()]
    if alive:
        raise StrayThreadError(f"threads still alive after {GRACE_S} s: {alive}")
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop(n)
        dt = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return n / dt
