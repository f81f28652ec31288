"""Host-speed probe: a fixed piece of pure-Python work, timed.

On a shared machine the speed of the Python interpreter moves with the
neighbours' load, by up to a factor of two over tens of seconds, and CPU
time moves with it.  Timing the same fixed work between jobs measures that
speed, and dividing a job's time by the probe time around it removes most
of it: rerunning one seed five or six times, the range of plain `wall_s`
was 22-43% of its median and that of the scaled figure 5-9%.

The probe runs this directory's own truth-table evaluator on one fixed
tiny spec and churns a dict of frozensets, so no change to bdgame can
move it.  A time scaled by `P_REF / probe` is in reference seconds: the
seconds it would have taken on a host where the probe takes `P_REF`.
"""

from __future__ import annotations

import random
import time

from specgen import TOTAL, Shape, draw_agents, goal_pairs, joint_theories

P_REF = 0.002  # seconds; about one probe on the machine the bounds came from

_SHAPE = Shape(agents=2, decision_atoms=2, beliefs=4, desires=4,
               world_atoms=3, mode=TOTAL, min_profiles=1, max_profiles=16)
_AGENTS, _WORLD = draw_agents(random.Random(0), _SHAPE, "p")


def _work() -> int:
    tables, joint = joint_theories(_AGENTS, _WORLD, _SHAPE.mode)
    table = {frozenset((i % 7, i % 11)): (i, str(i)) for i in range(3000)}
    return goal_pairs(_AGENTS, tables, joint) + len(table)


def probe() -> float:
    """Seconds for the fixed work: the fastest of three tries."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best
