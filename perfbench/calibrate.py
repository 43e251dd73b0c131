"""Host-speed calibration: a fixed piece of pure-Python work, timed between
the operations, that turns measured latencies into latencies at one
nominal host speed.

The 2-core host the benchmark was tuned on runs the same operation 1.3 to
1.7 times slower in phases that last from a fraction of a second to tens of
seconds, with CPU time equal to wall time (no steal shows).  A run cannot
outlast such phases, so raw latencies spread between runs by 30-50%.  The
calibration unit below slows with the host: on the tuning host, over passes
whose raw time swung by +-20%, the ratio of a pass's operations to the
calibration units run between them stayed within +-4%.  It tracks
oracle-sample's enumeration least well (about +-10% in some phases), which
the per-op median over three passes absorbs.

The unit is the benchmark's own code and never calls the program, so a
change to the program moves the operations and not the unit.  It frees all
it allocates (no cycles), so it leaves the garbage collector's counters
where it found them.
"""

from __future__ import annotations

import time

# Calibration units run for every QUANTUM_S of operation time, right after
# the operation that completes the quantum: about one unit per 10 ms of
# operations, so calibration costs about a tenth of a run and samples the
# host's speed evenly over the time the operations ran.
QUANTUM_S = 0.010
# About a unit's time on the tuning host (Python 3.11.7, 2 vCPUs) in its
# fast phases.  Only a scale: every latency is multiplied by
# UNIT_NOMINAL_S over the mean measured unit time.
UNIT_NOMINAL_S = 0.001

_N = 40
_EDGES = tuple((i, (i * 7 + 3) % _N) for i in range(_N)) + tuple((i, (i * 11 + 5) % _N) for i in range(0, _N, 2))


class _Node:
    __slots__ = ("name", "out")

    def __init__(self, name: str):
        self.name = name
        self.out: list[_Node] = []


def unit() -> int:
    """One calibration unit: a relational closure over tuple sets, a walk
    over an object graph and some string work, the kinds of work the
    program's operations are made of."""
    known = set(_EDGES)
    frontier = set(known)
    for _ in range(3):
        step = {(x, z) for x, y in frontier for yy, z in _EDGES if y == yy}
        frontier = step - known
        known |= frontier
    nodes = {i: _Node(f"t{i}") for i in range(_N)}
    for x, y in _EDGES:
        nodes[x].out.append(nodes[y])
    reach = 0
    for node in nodes.values():
        seen = {node.name}
        stack = [node]
        while stack:
            for nxt in stack.pop().out:
                if nxt.name not in seen:
                    seen.add(nxt.name)
                    stack.append(nxt)
        reach += len(seen)
    for node in nodes.values():
        node.out.clear()  # no cycles left for the collector
    text = ",".join(f"{x}:{y}" for x, y in sorted(known))
    return reach + len(text)


class Calibrator:
    """Runs calibration units as operation time accrues, and tells how much
    slower than nominal the host ran over them."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.debt = 0.0
        self.units = 0
        self.spent = 0.0

    def after(self, elapsed: float) -> None:
        """Called after each operation with its measured latency."""
        self.debt += elapsed
        while self.debt >= QUANTUM_S:
            self.debt -= QUANTUM_S
            start = self.clock()
            unit()
            self.spent += self.clock() - start
            self.units += 1

    def slowdown(self) -> float:
        """Measured unit time over nominal, averaged over the units run."""
        if not self.units:
            raise ValueError("no calibration unit ran")
        return self.spent / (self.units * UNIT_NOMINAL_S)
