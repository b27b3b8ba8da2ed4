"""Wall-clock times corrected for how fast the host runs at the moment.

On the 2-core host the benchmark was defined on, other tenants slow every
process by up to 2x for seconds to minutes at a time: the same ``plan``
call took 65 us in one minute and 120 us in the next.  A fixed loop of
plain Python, timed next to the work, slows down with it.  Over runs
spread across such states, the work's time divided by the loop's time
varied by 2-3%, while the raw time varied by 50%.

The slow-down is not the same for every kind of code, so there are three
loops: "interpreter" (small dicts and tuples, like validate or plan),
"memory" (building, sorting and merging lists of interval pairs, like the
oracle) and "process" (starting a bare interpreter, like a ``nims``
command).  Each workload uses the one that tracked its operations best.

Every time the benchmark reports is the measured wall time scaled by
``reference(loop) / loop_time(loop)``, with the loop timed just before and
just after the work and never inside the timed region.  It reads as the
wall time at the loop's reference speed, the host's undisturbed speed.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

_BITS = (2, 6, 18, 54, 162, 480, 1434, 3574, 5759, 5760, 5760, 5760, 5760, 5760, 5759, 5760)
_PAIRS = [((i * 7919) % 100_003, (i * 104_729) % 100_019) for i in range(1000)]


def _interpreter() -> int:
    table = {}
    acc = 0
    for i in range(200):
        key = (i, i * 3, i ^ 5)
        table[key[1]] = key
        acc += sum(key) // 3
    for _ in range(3):
        acc += all(b <= 3 * a for a, b in zip(_BITS, _BITS[1:]))
        acc += sum(max(0, a - -(-b // 3)) for a, b in zip(_BITS, _BITS[1:]))
    return acc


def _memory() -> int:
    pairs = [(lo - 7, hi - 7) for lo, hi in _PAIRS] + _PAIRS
    pairs.sort()
    out: list[tuple[int, int]] = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return len(out)


def _process() -> int:
    return subprocess.run([sys.executable, "-c", "pass"], timeout=60).returncode


# loop -> (function, its time on the defining host when undisturbed,
# timings per measurement (the least counts), how long a measurement stays
# current), all times in seconds, Python 3.11.
LOOPS = {
    "interpreter": (_interpreter, 57e-6, 3, 0.02),
    "memory": (_memory, 515e-6, 3, 0.02),
    "process": (_process, 40e-3, 1, 0.5),
}


def loop_time(loop: str = "interpreter") -> float:
    """Least of a few timings of a fixed loop, in seconds."""
    fn, _, repeats, _ = LOOPS[loop]
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def reference(loop: str = "interpreter") -> float:
    return LOOPS[loop][1]


class Clock:
    """Gives the current scale factor, re-timing the loop when it is stale."""

    def __init__(self, loop: str = "interpreter"):
        self.loop = loop
        self._scale = 1.0
        self._due = 0.0

    def scale(self) -> float:
        if perf_counter() >= self._due:
            self._scale = reference(self.loop) / loop_time(self.loop)
            self._due = perf_counter() + LOOPS[self.loop][3]
        return self._scale
