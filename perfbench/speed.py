"""The benchmark's speed reference: fixed pure-Python work, timed beside
every measured check, so that times can be given at a fixed machine speed.

On a shared machine other tenants slow a process by up to 1.6x, in periods
that last from seconds to several minutes, and the slowdown is in the CPU
(CPU time grows with wall time), not in waiting.  It slows this reference
work by about the same factor as it slows guidecheck, so the ratio of a
check's time to the reference time measured just before and just after it
varies far less than either time does.  ``scaled`` turns that ratio back into
seconds: the check's time on a machine where the reference work takes
REFERENCE_S seconds.  The reference does not touch guidecheck, so a change
to the program moves the scaled time exactly as it moves the measured one.
"""

from __future__ import annotations

import gc
import time

# The reference work's time on a 2-vCPU Intel Xeon virtual machine with
# Python 3.11.7 when no other tenant slows it (lowest decile of 1,000
# samples; slowed samples took up to 0.02 s).  Scaled times are close to
# that machine's measured times in those quiet periods.
REFERENCE_S = 0.010
ROUNDS = 5000


def _work(rounds: int) -> int:
    """Dict, tuple and frozenset work with small calls, like the interpreter
    and the profile algebra do."""
    table: dict = {}
    acc = 0
    for i in range(rounds):
        key = (i % 97, i % 13)
        members = frozenset((i % 7, i % 11, key))
        table[key] = table.get(key, 0) + len(members)
        acc += hash(members) & 7
        acc += sum([j * i for j in range(16)]) & 3
    return acc + len(table)


def reference_seconds() -> float:
    """Time of one round of the reference work.  The garbage collector is
    off meanwhile, so the size of the caller's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work(ROUNDS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` measured between reference times ``before`` and ``after``,
    given at the speed where the reference work takes REFERENCE_S."""
    return elapsed * REFERENCE_S * 2 / (before + after)
