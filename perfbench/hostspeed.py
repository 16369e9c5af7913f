"""A fixed reference loop that reads how fast the host runs at the moment.

The benchmark gets a core of a shared host.  Other tenants of the same
physical core slow it down, in spells that last from a fraction of a second
to minutes: while a spell lasts, the core runs interpreted Python at half
speed or less.  How much of a run falls in such spells changes from run to
run, and host-time metrics change with it even though the program does the
same work.

:func:`probe` times a loop that never changes.  It allocates nothing the
garbage collector tracks, so its time depends on the host alone and not on
the program's heap.  The benchmark reads it at every segment boundary of a
pass and scales host times by ``REFERENCE_S / mean(readings)``: it reports
how long the pass would have taken at the speed the host had when
:data:`REFERENCE_S` was measured.
"""

from __future__ import annotations

import time

STEPS = 3000

#: :func:`probe` on an idle core of the reference host (Intel Xeon,
#: Sapphire Rapids, 2.0 GHz, CPython 3.11): the fastest readings observed.
REFERENCE_S = 2.0e-4


def probe() -> float:
    """Seconds for a fixed integer loop."""
    clock = time.perf_counter
    start = clock()
    total = 0
    for i in range(STEPS):
        total += i * i % 7
    return clock() - start
