"""Calibrated timing: wall time scaled by the speed of a fixed reference job.

The 2-core host this benchmark was written on changes speed by up to 1.8x
for 10 to 30 seconds at a time, and its two cores often run at different
speeds (other tenants share them; CPU time moves with wall time, so it is
not descheduling). Raw wall times of the same work spread 10-24% between
runs (IQR / median). So every timing is taken as raw wall time and
converted to calibrated seconds: each stretch of about CALIBRATE_EVERY_S
of measured work is scaled by REFERENCE_S / r, where r is the mean time of
a fixed reference job run right before and right after the stretch. The
reference job is a few battles of a small sampler on a fixed stream: plain
Python of the same kind the engine runs, code the program under test
cannot change, and code that imports nothing, so that a child process can
time it before the program starts without loading anything for it.
Calibrated, the grid workload's times spread about 3% instead of 17%.

A calibrated second is a second on the host when the reference job takes
REFERENCE_S, its time on that host when no other tenant slows it down.
The reference is timed between operations, never inside one.
"""

import time

REFERENCE_S = 0.00153
CALIBRATE_EVERY_S = 0.1
_REFERENCE_BATTLES = 20
_REFERENCE_REPEATS = 3

# Round 2 PvT as (effective health, effective DPS, count) per unit class,
# written out so that the reference job stays the same when the data files
# change.
_ARMY1 = ((225.0, 13.33, 8), (240.0, 6.94, 2), (120.0, 6.0, 2))
_ARMY2 = ((45.0, 6.97, 12), (187.5, 6.67, 4), (90.0, 16.0, 4))
_MASK = (1 << 64) - 1


def _battle(state: int) -> int:
    """One APX1 battle drawn from a 64-bit linear congruential stream that
    starts at ``state``; returns the stream's state at the end. It imports
    nothing, so that a fresh interpreter can time it before the program
    under test has loaded a single module."""
    alive1 = [count for _, _, count in _ARMY1]
    alive2 = [count for _, _, count in _ARMY2]
    while any(alive1) and any(alive2):
        pool1 = sum(n * dps for n, (_, dps, _) in zip(alive1, _ARMY1))
        pool2 = sum(n * dps for n, (_, dps, _) in zip(alive2, _ARMY2))
        for pool, target, alive in ((pool1, _ARMY2, alive2), (pool2, _ARMY1, alive1)):
            while pool > 0 and any(alive):
                state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
                pick = (state >> 33) % sum(alive)
                i = 0
                while pick >= alive[i]:
                    pick -= alive[i]
                    i += 1
                health = target[i][0]
                if pool >= health:
                    alive[i] -= 1
                    pool -= health
                    continue
                state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
                if (state >> 11) * health < pool * (1 << 53):
                    alive[i] -= 1
                break
    return state


def reference_s() -> float:
    """Raw seconds taken by the fixed reference job: the fastest of
    _REFERENCE_REPEATS runs, so that an interrupt (a single run can take
    25x longer) does not skew a stretch's calibration."""
    best = float("inf")
    for _ in range(_REFERENCE_REPEATS):
        state = 1
        start = time.perf_counter()
        for _ in range(_REFERENCE_BATTLES):
            state = _battle(state)
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from raw to calibrated seconds, given the reference job's raw
    times right before and right after the work."""
    return 2 * REFERENCE_S / (before + after)


class Stopwatch:
    """Collects raw durations of operations and converts them to calibrated
    seconds, re-timing the reference after every CALIBRATE_EVERY_S of work."""

    def __init__(self) -> None:
        self._before = reference_s()
        self._pending: list[tuple[float, bool]] = []
        self._pending_s = 0.0
        self.raw_s = 0.0
        self.total_s = 0.0
        self.queries: list[float] = []  # calibrated seconds of the operations marked query
        self.raw_queries: list[float] = []

    def add_scaled(self, raw_s: float, scale: float, query: bool = True) -> None:
        """Record an operation calibrated elsewhere, such as in a child process."""
        self.raw_s += raw_s
        self.total_s += raw_s * scale
        if query:
            self.queries.append(raw_s * scale)
            self.raw_queries.append(raw_s)

    def add(self, raw_s: float, query: bool = True) -> None:
        self._pending.append((raw_s, query))
        self._pending_s += raw_s
        if self._pending_s >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        after = reference_s()
        factor = scale(self._before, after)
        for raw_s, query in self._pending:
            self.total_s += raw_s * factor
            if query:
                self.queries.append(raw_s * factor)
                self.raw_queries.append(raw_s)
        self.raw_s += self._pending_s
        self._pending.clear()
        self._pending_s = 0.0
        self._before = after

    def time(self, fn, *args, query: bool = True):
        """Call ``fn(*args)`` and record its duration; exceptions propagate
        and the failed call's time is still recorded."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.add(time.perf_counter() - start, query)
