"""Logic-layer micro-timings through the public `bdgame.logic` API.

    python3 perfbench/micro.py warm         # JSON: warm entails, ms per call
    python3 perfbench/micro.py cold ATOMS   # JSON: first entails, seconds

`warm` times `entails` at 12, 16 and 20 atoms once its masks are cached:
the median over batches of calls on one fixed premise set.  `cold` times
the first `entails` over ATOMS atoms in this process, which builds one bit
pattern per atom; run it in a fresh process.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

WARM_ATOMS = (12, 16, 20)


def premises(n: int):
    """Eight fixed clauses over n atoms, with every atom used."""
    from bdgame.logic import Not, Or, Var

    rng = random.Random(n)
    names = [f"v{i}" for i in range(n)]
    pool = list(names)
    rng.shuffle(pool)
    clauses = []
    for i in range(8):
        chunk = pool[i::8] or [rng.choice(names)]
        lits = [Var(a) if rng.random() < 0.5 else Not(Var(a)) for a in chunk]
        clause = lits[0]
        for lit in lits[1:]:
            clause = Or(clause, lit)
        clauses.append(clause)
    return tuple(names), clauses, Or(Var(names[0]), Var(names[-1]))


def warm_ms(n: int, batches: int = 15) -> float:
    from bdgame.logic import entails

    atoms, theory, goal = premises(n)
    entails(theory, goal, atoms=atoms)
    calls = max(5, 2 ** (22 - n))
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            entails(theory, goal, atoms=atoms)
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1000


def cold_s(n: int) -> float:
    from bdgame.logic import entails

    atoms, theory, goal = premises(n)
    start = time.perf_counter()
    entails(theory, goal, atoms=atoms)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv[:1] == ["warm"]:
        print(json.dumps({f"a{n}": warm_ms(n) for n in WARM_ATOMS}))
    elif argv[:1] == ["cold"] and len(argv) == 2:
        print(json.dumps({f"a{argv[1]}": cold_s(int(argv[1]))}))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
