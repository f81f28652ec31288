"""Seeded `.bdg` spec generator with explicit sizes.

A `Shape` fixes how large a spec is: agents, decision atoms per agent,
beliefs and desires per agent, world atoms, decision mode, and the band of
feasible-profile counts a spec must land in.  The seed only picks which
spec of that shape is drawn.  Specs are drawn as `.bdg` text, parsed by
bdgame, written back with `format_spec`, and checked to round-trip.

Whether a draw lands in the band is decided by a small truth-table
evaluator in this file, so choosing the inputs never runs the code under
test.  Atom patterns are built from repeated bytes rather than a big-integer
division, which keeps set-up cheap at 20 atoms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

TOTAL = "total-assignments"
POSITIVE = "positive-subsets"


@dataclass(frozen=True)
class Shape:
    agents: int
    decision_atoms: int
    beliefs: int
    desires: int
    world_atoms: int
    mode: str
    min_profiles: int
    max_profiles: int
    facts: int = 1
    # Band of goal_pairs(); None leaves it free.
    goal_pairs: tuple[int, int] | None = None


# Formulas are tuples: ("var", name), ("true",), ("not", f),
# ("and" | "or" | "imp", left, right).  Depth 1, as in the ROADMAP's sizes.

def _leaf(rng: random.Random, atoms: list[str]) -> tuple:
    return ("true",) if rng.random() < 0.08 else ("var", rng.choice(atoms))


def random_formula(rng: random.Random, atoms: list[str]) -> tuple:
    if rng.random() < 0.4:
        return _leaf(rng, atoms)
    kind = rng.randrange(4)
    if kind == 0:
        return ("not", _leaf(rng, atoms))
    return (("and", "or", "imp")[kind - 1], _leaf(rng, atoms),
            _leaf(rng, atoms))


def render(f: tuple) -> str:
    tag = f[0]
    if tag == "var":
        return f[1]
    if tag == "true":
        return "true"
    if tag == "not":
        return "!(" + render(f[1]) + ")"
    op = {"and": " & ", "or": " | ", "imp": " -> "}[tag]
    return "(" + render(f[1]) + op + render(f[2]) + ")"


# ---------------------------------------------------------------------------
# Truth tables: bit k of a mask is the value under assignment k, where atom
# i is true iff bit i of k is set.
# ---------------------------------------------------------------------------

class Tables:
    def __init__(self, atoms: list[str]):
        n = len(atoms)
        size = 1 << n
        self.full = (1 << size) - 1
        self.patterns = {}
        for i, name in enumerate(atoms):
            if size <= 64:
                self.patterns[name] = sum(1 << k for k in range(size)
                                          if k >> i & 1)
                continue
            if i < 3:
                word = sum(1 << k for k in range(64) if k >> i & 1)
                data = word.to_bytes(8, "little") * (size // 64)
            else:
                run = 1 << (i - 3)  # bytes per run of equal bits
                data = (b"\x00" * run + b"\xff" * run) * (size >> (i + 1))
            self.patterns[name] = int.from_bytes(data, "little")

    def mask(self, f: tuple) -> int:
        tag = f[0]
        if tag == "var":
            return self.patterns[f[1]]
        if tag == "true":
            return self.full
        if tag == "not":
            return self.full ^ self.mask(f[1])
        left, right = self.mask(f[1]), self.mask(f[2])
        if tag == "and":
            return left & right
        if tag == "or":
            return left | right
        return (self.full ^ left) | right


@dataclass
class Agent:
    id: str
    atoms: list[str]
    facts: list[tuple]
    beliefs: list[tuple[tuple, tuple]]
    desires: list[tuple[tuple, tuple]]
    ranks: list[int]


def draw_agents(rng: random.Random, shape: Shape,
                 tag: str) -> tuple[list[Agent], list[str]]:
    ids = [f"g{i + 1}" for i in range(shape.agents)]
    decision = {aid: [f"{tag}x{aid[1:]}_{k}"
                      for k in range(shape.decision_atoms)]
                for aid in ids}
    world = [f"{tag}w{k}" for k in range(shape.world_atoms)]
    every = [a for aid in ids for a in decision[aid]] + world
    agents = []
    for aid in ids:
        facts = [random_formula(rng, world)
                 for _ in range(rng.randint(0, shape.facts))]
        beliefs = [(random_formula(rng, every), random_formula(rng, world))
                   for _ in range(shape.beliefs)]
        desires = [(("true",) if rng.random() < 0.5
                    else random_formula(rng, every),
                    random_formula(rng, every))
                   for _ in range(shape.desires)]
        ranks = list(range(1, shape.desires + 1))
        rng.shuffle(ranks)
        agents.append(Agent(aid, decision[aid], facts, beliefs, desires,
                            ranks))
    return agents, world


def _decisions(atoms: list[str], mode: str) -> list[list[tuple[str, bool]]]:
    if mode == TOTAL:
        return [list(zip(atoms, signs))
                for signs in product((True, False), repeat=len(atoms))]
    return [[(a, True) for a, keep in zip(atoms, picks) if keep]
            for picks in product((True, False), repeat=len(atoms))]


def joint_theories(agents: list[Agent], world: list[str],
                   mode: str) -> tuple[Tables, list[int]]:
    """Models of the joint extension of every feasible profile.

    A rule fires when the theory entails its antecedent, so one agent's
    extension of one decision is a fixpoint over masks; a profile is
    feasible when the AND of its agents' extensions is not empty.
    """
    tables = Tables([a for ag in agents for a in ag.atoms] + world)
    joint = [tables.full]
    for ag in agents:
        facts = tables.full
        for f in ag.facts:
            facts &= tables.mask(f)
        rules = [(tables.mask(a), tables.mask(c)) for a, c in ag.beliefs]
        theories = []
        for decision in _decisions(ag.atoms, mode):
            theory = facts
            for atom, positive in decision:
                pattern = tables.patterns[atom]
                theory &= pattern if positive else tables.full ^ pattern
            fired = [False] * len(rules)
            changed = True
            while changed:
                changed = False
                for k, (ant, cons) in enumerate(rules):
                    if not fired[k] and theory & ~ant == 0:
                        fired[k] = changed = True
                        theory &= cons
            if theory:
                theories.append(theory)
        joint = [m & t for m in joint for t in theories if m & t]
    return tables, joint


def _set_geq(first: frozenset, second: frozenset, ranks: list[int]) -> bool:
    """Every desire lost is outranked by one gained (bdgame's lifted order)."""
    return all(any(ranks[g] > ranks[loss] for g in first - second)
               for loss in second - first)


def goal_pairs(agents: list[Agent], tables: Tables, joint: list[int]) -> int:
    """Profiles of the Pareto family times the goal sets they generate.

    This is the size of what `bdgame goals --family pareto` reports, and
    the number of (goal set, profile) pairs its generator loop settles.
    """
    desires = [[(tables.mask(a), tables.mask(c), render(a), render(c))
                for a, c in ag.desires] for ag in agents]
    unreached = [tuple(frozenset(k for k, (ant, cons, _, _) in enumerate(ds)
                                 if t & ~ant == 0 and t & ~cons != 0)
                       for ds in desires)
                 for t in joint]
    ranks = [ag.ranks for ag in agents]

    def improves(better: tuple, worse: tuple) -> bool:
        return all(_set_geq(w, b, r) and not _set_geq(b, w, r)
                   for b, w, r in zip(better, worse, ranks))

    signatures = set(unreached)
    optimal = {c for c in signatures
               if not any(improves(d, c) for d in signatures)}
    goal_sets = set()
    members = 0
    for theory, signature in zip(joint, unreached):
        if signature not in optimal:
            continue
        members += 1
        goal_sets.add((
            frozenset(c for ds in desires for ant, cons, _, c in ds
                      if theory & ~(ant & cons) == 0),
            frozenset(a for ds in desires for ant, _, a, _ in ds
                      if theory & ~ant != 0)))
    return members * len(goal_sets)


def to_bdg(name: str, agents: list[Agent], world: list[str],
           mode: str) -> str:
    lines = [f'system "{name}"', f"option decision_mode = {mode}"]
    for ag in agents:
        lines += [f"agent {ag.id} {{", "  atoms " + " ".join(ag.atoms),
                  "  priority ranked"]
        lines += [f"  fact {render(f)}" for f in ag.facts]
        lines += [f"  belief {ag.id}_b{k + 1}: {render(a)} => {render(c)}"
                  for k, (a, c) in enumerate(ag.beliefs)]
        lines += [f"  desire {ag.id}_d{k + 1} [rank={r}]: "
                  f"{render(a)} => {render(c)}"
                  for k, ((a, c), r) in enumerate(zip(ag.desires, ag.ranks))]
        lines.append("}")
    lines.append("world " + " ".join(world))
    return "\n".join(lines) + "\n"


def draw(shape: Shape, rng: random.Random, name: str, tag: str,
         max_draws: int = 10_000) -> tuple[str, int]:
    """Draw until the spec lands in the shape's bands.

    Every atom name starts with ``tag``.  Giving each spec of a run its own
    tag keeps bdgame's mask cache, which is keyed by formula and atom
    names, from carrying entries from one job to the next.  Returns the
    `.bdg` source (not yet canonical) and the feasible-profile count.
    """
    for _ in range(max_draws):
        agents, world = draw_agents(rng, shape, tag)
        tables, joint = joint_theories(agents, world, shape.mode)
        if not shape.min_profiles <= len(joint) <= shape.max_profiles:
            continue
        if shape.goal_pairs is not None:
            low, high = shape.goal_pairs
            if not low <= goal_pairs(agents, tables, joint) <= high:
                continue
        return to_bdg(name, agents, world, shape.mode), len(joint)
    raise RuntimeError(f"no spec of {shape} within {max_draws} draws")
