"""Hand-picked mutants of the library, each with the tests that must kill it.

Each entry names a module of ``src/bdgame``, a source snippet that occurs
exactly once in it, the snippet's replacement, and the ids of the tests
that must fail once the replacement is made.  A refactor that deletes or
weakens such a test then shows up here.  Run the catalogue
from the repository root:

    python tests/mutants.py

For each mutant the runner copies ``src/`` to a temporary directory,
applies the mutant there, and runs its tests against the copy in a child
process with a timeout.  A mutant is killed when every test it names
fails; the runner exits 1 when any mutant survives.  The Tier-1 suite
(``tests/test_source.py``) checks only that each snippet still occurs
once and each named test still exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/bdgame
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


MUTANTS = (
    Mutant("orders-arguments-swapped", "game.py",
           "or set_geq(worse, better, agent.priority))",
           "or set_geq(better, worse, agent.priority))",
           ("tests/test_game.py::test_orders_match_the_definition",
            "tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions")),
    Mutant("up-and-down-swapped", "game.py",
           "per_agent.append([(up[ids[i]], down[ids[i]]) for i in firsts])",
           "per_agent.append([(down[ids[i]], up[ids[i]]) for i in firsts])",
           ("tests/test_game.py::test_orders_match_the_definition",
            "tests/test_differential.py::"
            "test_class_level_concepts_match_the_profile_loops")),
    Mutant("own-set-skip-dropped", "game.py",
           "enumerate(sets) if x == y\n",
           "enumerate(sets) if False\n",
           ("tests/test_game.py::"
            "test_concepts_decide_each_pair_of_unreached_sets_once",)),
    Mutant("nash-reads-the-deviated-row", "game.py",
           "elif not row >> ids[deviated] & 1:",
           "elif not geq[ids[deviated]] >> own & 1:",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",)),
    Mutant("nash-memo-keyed-by-row-alone", "game.py",
           "key = (base, own)",
           "key = base",
           ("tests/test_differential.py::"
            "test_concepts_and_goal_sets_match_the_definitions",)),
    Mutant("infeasible-read-as-feasible", "game.py",
           "if deviated < 0:",
           "if deviated < -1:",
           ("tests/test_differential.py::"
            "test_nash_matches_the_profile_loop_where_swaps_break_feasibility",
            )),
    Mutant("unknown-policy-read-as-skip", "game.py",
           "if infeasible_swaps not in (SKIP, FAIL):",
           "if False:",
           ("tests/test_game.py::"
            "test_an_unknown_infeasible_swaps_policy_is_refused",)),
    Mutant("goal-set-built-per-profile", "game.py",
           "return tuple(read[id(ep.report)] for ep in self.profiles)",
           "return tuple(GoalSet(read[id(ep.report)].positive, "
           "read[id(ep.report)].negative) for ep in self.profiles)",
           ("tests/test_goals.py::test_each_goal_set_is_built_once_per_game",
            )),
)


def survivors(mutant: Mutant) -> list[str]:
    """The named tests that do not fail under the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "bdgame" / mutant.module
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet occurs "
                             f"{text.count(mutant.snippet)} times")
        path.write_text(text.replace(mutant.snippet, mutant.replacement),
                        encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src)}
        try:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf",
                 "-p", "no:cacheprovider", *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"{test} (timed out after {TIMEOUT_S} s)"
                    for test in mutant.tests]
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("FAILED ")}
    return [test for test in mutant.tests if test not in failed]


def main() -> int:
    alive = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        left = survivors(mutant)
        alive += bool(left)
        print(f"{'SURVIVED' if left else 'killed'} {mutant.name} "
              f"({time.perf_counter() - start:.1f} s)", flush=True)
        for test in left:
            print(f"  did not fail: {test}", flush=True)
    print(f"{alive} of {len(MUTANTS)} mutants survived")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
