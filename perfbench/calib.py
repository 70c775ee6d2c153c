"""Fixed pure-Python calibration loop for host-speed normalisation.

``host_per_op_calib`` divides a workload's host time per op by the time
of this loop, measured in the same process just before each timed drive
and between the drive's slices. A slower or busier host stretches both, so the ratio
moves less than raw host time does.

The loop exercises the interpreter paths the simulator lives on: heap
push/pop (the event queue), generator ``send`` (process steps) and dict
stores (state tables). The stores land at scattered keys of a table of
about 10 MB, so, like the simulator's object graph, the loop depends on
cache and memory speed as well as on the core's clock. A loop that fits
in the first-level caches tracks the host's speed worse.

It must import nothing from ``repro``: a later change to the program
may never speed up the yardstick it is measured against.
``test_perfbench`` checks that.
"""

from __future__ import annotations

import heapq
import time

__all__ = ["Calibrator"]

#: Rounds per timing, slots in the scattered table and the standing size
#: of the heap. Changing any of them rescales every ``host_per_op_calib``
#: value, so they are part of the benchmark definition.
ROUNDS = 300
TABLE_SLOTS = 1 << 17
HEAP_SIZE = 8192


def _stepper():
    """A generator that accumulates what it is sent, like a process."""
    total = 0
    while True:
        total += yield total


class Calibrator:
    """Holds the loop's table, so it is built once per process."""

    def __init__(self) -> None:
        self._keys = [(i * 2654435761) % (1 << 32) for i in range(TABLE_SLOTS)]
        self._table = dict.fromkeys(self._keys, 0)

    def measure(self, rounds: int = ROUNDS) -> float:
        """Run the fixed loop; return its host CPU seconds."""
        heap = [((i * 7919) % 100003, i) for i in range(HEAP_SIZE)]
        heapq.heapify(heap)
        gen = _stepper()
        next(gen)
        step = gen.send
        push, pop = heapq.heappush, heapq.heappop
        table, keys, mask = self._table, self._keys, TABLE_SLOTS - 1
        seq = HEAP_SIZE
        start = time.process_time()
        for _ in range(rounds):
            for _ in range(32):
                seq += 1
                push(heap, ((seq * 7919) % 1000003, seq))
            for _ in range(32):
                when, tag = pop(heap)
                table[keys[(tag * 40503) & mask]] = step(when & 255)
        elapsed = time.process_time() - start
        if len(heap) != HEAP_SIZE:
            raise RuntimeError("calibration loop did not run its fixed work")
        return elapsed
