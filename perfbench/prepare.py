"""Workload table and set-up: generate, write, parse back and validate specs.

Run as a script, this is the set-up step whose duration is `setup_s`:

    python3 perfbench/prepare.py --workload solve --seed 1 --jobs 12 --out DIR

It writes DIR/specs/*.bdg and DIR/manifest.json, which lists the jobs in
order.  A job runs each of its workload's commands on one spec, and no two
jobs share a spec.  Spec k of a workload depends only on (workload, seed,
k), so runs of different lengths share their first jobs and their pinned
digests.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from specgen import POSITIVE, TOTAL, Shape, draw

EXAMPLES = Path("src/bdgame/examples")
GOLDEN = Path("tests/golden")


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]  # each job runs all, in order
    job_s: float  # mean job time at the seed commit; sizes the run
    min_jobs: int
    shape: Shape | None = None  # None: the small random corpus


SOLVE = ("solve", "--format", "json", "--concept")
WORKLOADS = {
    "solve": Workload(
        commands=(SOLVE + ("pareto",), SOLVE + ("nash",)),
        job_s=0.86, min_jobs=4,
        shape=Shape(agents=2, decision_atoms=4, beliefs=6, desires=6,
                    world_atoms=4, mode=TOTAL, min_profiles=256,
                    max_profiles=256)),
    "goals": Workload(
        commands=(("goals", "--format", "json", "--family", "pareto",
                   "--via-goals"),
                  ("goals", "--format", "json", "--family", "pareto")),
        job_s=0.72, min_jobs=4,
        shape=Shape(agents=3, decision_atoms=2, beliefs=5, desires=5,
                    world_atoms=4, mode=TOTAL, min_profiles=32,
                    max_profiles=32, goal_pairs=(100, 300))),
    "wide": Workload(
        commands=(SOLVE + ("nash",),),
        job_s=0.34, min_jobs=4,
        shape=Shape(agents=2, decision_atoms=2, beliefs=6, desires=6,
                    world_atoms=16, mode=POSITIVE, min_profiles=8,
                    max_profiles=16)),
    "corpus": Workload(
        commands=(("check", "--format", "json", "--property",
                   "representation"),
                  ("check", "--format", "json", "--property",
                   "pipeline-equivalence")),
        job_s=0.027, min_jobs=8),
}


def job_count(workload: str, seconds: float) -> int:
    """Jobs in a run: about `seconds` of work at the seed commit."""
    w = WORKLOADS[workload]
    return max(w.min_jobs, round(seconds / w.job_s))


def corpus_shape(rng: random.Random) -> Shape:
    """At most 6 atoms and 3 rules per agent, like verify.random_spec."""
    beliefs = rng.randint(0, 3)
    return Shape(agents=rng.randint(1, 2), decision_atoms=rng.randint(1, 2),
                 beliefs=beliefs, desires=rng.randint(0, 3 - beliefs),
                 world_atoms=2, mode=rng.choice((TOTAL, POSITIVE)),
                 min_profiles=1, max_profiles=16)


def golden_cases() -> list[dict]:
    """The golden CLI reports: name `<example>__<args joined by _>.json`."""
    cases = []
    for path in sorted(GOLDEN.glob("*.json")):
        example, _, rest = path.stem.partition("__")
        cases.append({
            "argv": rest.split("_") + ["--format", "json",
                                       str(EXAMPLES / f"{example}.bdg")],
            "golden": str(path)})
    return cases


def prepare(workload: str, seed: int, jobs: int, out: Path) -> None:
    from bdgame import format_spec, parse_spec, validate_spec

    w = WORKLOADS[workload]
    specs = out / "specs"
    specs.mkdir(parents=True, exist_ok=True)
    # The corpus starts with the shipped examples.
    examples = sorted(EXAMPLES.glob("*.bdg")) if w.shape is None else []
    manifest = {"workload": workload, "seed": seed, "jobs": []}
    for k in range(jobs):
        if k < len(examples):
            path, profiles = examples[k], None
            spec = parse_spec(path.read_text(encoding="utf-8"))
        else:
            rng = random.Random(f"{workload}:{seed}:{k}")
            shape = w.shape or corpus_shape(rng)
            text, profiles = draw(shape, rng, f"{workload}-{seed}-{k}",
                                  f"j{k}")
            drawn = parse_spec(text)
            path = specs / f"{k:05d}.bdg"
            path.write_text(format_spec(drawn), encoding="utf-8")
            spec = parse_spec(path.read_text(encoding="utf-8"))
            if spec != drawn:
                raise RuntimeError(f"{path} does not round-trip")
        errors = [v for v in validate_spec(spec) if v.severity == "error"]
        if errors:
            raise RuntimeError(f"{path}: {errors[0]}")
        manifest["jobs"].append({
            "argvs": [list(command) + [str(path)] for command in w.commands],
            "profiles": profiles})
    manifest["goldens"] = golden_cases()
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1),
                                       encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    prepare(args.workload, args.seed, args.jobs, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
