"""Seeded generators and law suites backing the `check` command and tests.

Everything here is deterministic given the seed: generators draw from
`random.Random`, exhaustive families iterate in a fixed order, and check
results carry the first counterexample found.

`check_representation` draws nothing.  It checks both representation
directions once per indistinguishability class, and no other family: every
U-closed family is a union of classes, and a union passes whenever each of
its classes does.  Direction (a) is a fact about each member, and a
profile outside the union that generates one of its goal sets lies outside
that goal set's class as well, so direction (b) fails on the class first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, combinations, count, permutations, product
from typing import Iterator, Sequence

from .decision import set_geq
from .extension import Rule, extension, fixpoint_certificate
from .game import derive_game, dominant, nash, pareto, strongly_pareto
from .goals import (_goal_decider, _representation_violations,
                    concept_family, fragment_check, heuristic_goals,
                    pareto_via_goals)
from .logic import (And, Formula, Implies, Not, Or, TRUE, Var,
                    model_builder)
from .model import (AgentSpec, AgentSystemSpec, DecisionMode, PriorityOrder,
                    format_spec)


NOTHING_TO_CHECK = "nothing to check: no feasible profile"


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int = 0
    details: str = ""
    counterexample: dict | None = None

    def __post_init__(self) -> None:
        if self.passed and self.checked <= 0:  # examined nothing: no pass
            self.passed, self.details = False, "nothing to check: no instance"

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.details})" if self.details else ""
        return f"{status} {self.name}: {self.checked} instances{extra}"


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_formula(rng: random.Random, atoms: Sequence[str],
                   depth: int = 2) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        roll = rng.random()
        if roll < 0.08:
            return TRUE
        return Var(rng.choice(list(atoms)))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_formula(rng, atoms, depth - 1))
    ctor = (And, Or, Implies)[kind - 1]
    return ctor(random_formula(rng, atoms, depth - 1),
                random_formula(rng, atoms, depth - 1))


def random_rules(rng: random.Random, atoms: Sequence[str],
                 count: int) -> tuple[Rule, ...]:
    return tuple(
        Rule(f"a1_r{i + 1}",
             TRUE if rng.random() < 0.3 else random_formula(rng, atoms, 1),
             random_formula(rng, atoms, 1))
        for i in range(count))


def random_theory(rng: random.Random, atoms: Sequence[str],
                  count: int) -> frozenset[Formula]:
    return frozenset(random_formula(rng, atoms, 1) for _ in range(count))


def _random_priority(rng: random.Random, desires: Sequence[Rule]) -> PriorityOrder:
    if rng.random() < 0.3:
        return PriorityOrder.identity()
    shuffled = [r.id for r in desires]
    rng.shuffle(shuffled)
    return PriorityOrder.ranked({rid: i + 1 for i, rid in enumerate(shuffled)})


def random_spec(rng: random.Random, *, max_agents: int = 2,
                max_decision_atoms: int = 2, max_rules: int = 3,
                world_atoms: Sequence[str] = ("p", "q")) -> AgentSystemSpec:
    """A small well-typed random specification.

    Belief consequents stay in the world language; desire rules range over
    the whole vocabulary.  Initial decisions are empty so every candidate
    decision shape stays available.  Decision atoms are named a..h, then
    d9, d10, ...
    """
    n_agents = rng.randint(1, max_agents)
    agent_ids = [f"a{i + 1}" for i in range(n_agents)]
    decision_atoms = {}
    pool = chain("abcdefgh", (f"d{k}" for k in count(9)))
    for aid in agent_ids:
        decision_atoms[aid] = tuple(
            next(pool) for _ in range(rng.randint(1, max_decision_atoms)))
    all_atoms = [a for atoms in decision_atoms.values() for a in atoms]
    all_atoms += list(world_atoms)
    agents = []
    for aid in agent_ids:
        n_rules = rng.randint(0, max_rules)
        n_beliefs = rng.randint(0, n_rules)
        beliefs = tuple(
            Rule(f"{aid}_b{i + 1}",
                 random_formula(rng, all_atoms, 1),
                 random_formula(rng, list(world_atoms), 1))
            for i in range(n_beliefs))
        desires = tuple(
            Rule(f"{aid}_d{i + 1}",
                 TRUE if rng.random() < 0.5
                 else random_formula(rng, all_atoms, 1),
                 random_formula(rng, all_atoms, 1))
            for i in range(n_rules - n_beliefs))
        facts = tuple(random_formula(rng, list(world_atoms), 1)
                      for _ in range(rng.randint(0, 1)))
        agents.append(AgentSpec(
            id=aid,
            decision_atoms=decision_atoms[aid],
            facts=facts,
            beliefs=beliefs,
            desires=desires,
            priority=_random_priority(rng, desires),
            initial_decision=frozenset(),
        ))
    mode = rng.choice([DecisionMode.POSITIVE_SUBSETS,
                       DecisionMode.TOTAL_ASSIGNMENTS])
    return AgentSystemSpec("random", tuple(agents), tuple(world_atoms), mode)


def exhaustive_small_specs() -> Iterator[AgentSystemSpec]:
    """A fixed exhaustive family of two-agent specifications.

    Spans one and two decision atoms per agent, up to one belief and two
    ranked desires per agent (at most three rules each), over one world
    atom.  Deterministic iteration order.
    """
    world = ("p",)

    def agent_variants(aid: str, atoms2: tuple[str, str]) -> list[AgentSpec]:
        out = []
        for atoms in (atoms2[:1], atoms2):
            x = atoms[0]
            belief_options: list[tuple] = [
                (), (Rule(f"{aid}_b1", Var(x), Var("p")),),
                (Rule(f"{aid}_b1", Var(x), Not(Var("p"))),)]
            desire_pool = [
                (TRUE, Var("p")), (TRUE, Not(Var("p"))), (TRUE, Var(x))]
            desire_options: list[tuple[tuple[Formula, Formula], ...]] = [()]
            desire_options += [(d,) for d in desire_pool]
            for pair in combinations(desire_pool, 2):
                desire_options += list(permutations(pair))
            for beliefs in belief_options:
                for ordered in desire_options:
                    desires = tuple(
                        Rule(f"{aid}_d{i + 1}", ant, cons)
                        for i, (ant, cons) in enumerate(ordered))
                    # rank by position: earlier in the tuple = higher priority
                    ranks = {r.id: len(desires) - i
                             for i, r in enumerate(desires)}
                    out.append(AgentSpec(
                        id=aid, decision_atoms=atoms, facts=(),
                        beliefs=beliefs, desires=desires,
                        priority=PriorityOrder.ranked(ranks),
                        initial_decision=frozenset()))
        return out

    for first in agent_variants("a1", ("a", "b")):
        for second in agent_variants("a2", ("c", "d")):
            yield AgentSystemSpec(
                "family", (first, second), world,
                DecisionMode.TOTAL_ASSIGNMENTS)


# ---------------------------------------------------------------------------
# Law suites
# ---------------------------------------------------------------------------

def check_extension_laws(seed: int = 0, samples: int = 1000, *,
                         max_rule_count: int = 6,
                         max_atom_count: int = 6) -> CheckResult:
    """Containment, idempotence, termination, and monotonicity, each
    instance on a freshly drawn rule set."""
    rng = random.Random(seed)
    for i in range(samples):
        atoms = [f"x{j}" for j in range(rng.randint(1, max_atom_count))]
        rs = random_rules(rng, atoms, rng.randint(0, max_rule_count))
        base = random_theory(rng, atoms, rng.randint(0, 3))
        extra = random_theory(rng, atoms, rng.randint(0, 2))
        ext = extension(rs, base)
        bad = None
        if not base <= ext.formulas:
            bad = "containment"
        elif ext.iterations > len(rs):
            bad = "termination"
        elif extension(rs, ext.formulas).formulas != ext.formulas:
            bad = "idempotence"
        elif not ext.formulas <= extension(rs, base | extra).formulas:
            bad = "monotonicity"
        if bad:
            return CheckResult(
                "extension-laws", False, i + 1, f"{bad} violated",
                {"rules": [str(r) for r in rs],
                 "base": sorted(map(str, base)),
                 "extra": sorted(map(str, extra))})
    return CheckResult("extension-laws", True, samples)


def check_fixpoint_agreement() -> CheckResult:
    """Iterative construction vs. the intersection characterization.

    Exhaustive over all subsets of up to five rules of a fixed six-rule
    pool and a fixed family of bases.
    """
    a, b, p, q = Var("a"), Var("b"), Var("p"), Var("q")
    pool = [
        Rule("r1", TRUE, p),
        Rule("r2", a, Not(p)),
        Rule("r3", p, q),
        Rule("r4", q, p),
        Rule("r5", And(a, b), q),
        Rule("r6", Not(q), b),
    ]
    bases = [frozenset(), frozenset({a}), frozenset({a, b}),
             frozenset({Not(q)}), frozenset({Or(a, p)})]
    checked = 0
    for size in range(len(pool)):
        for rs in combinations(pool, size):
            for base in bases:
                checked += 1
                ext = extension(rs, base)
                if not fixpoint_certificate(rs, base, ext.formulas):
                    return CheckResult(
                        "fixpoint-agreement", False, checked,
                        "iterative result rejected by the intersection oracle",
                        {"rules": [str(r) for r in rs],
                         "base": sorted(map(str, base))})
    return CheckResult("fixpoint-agreement", True, checked)


def check_order_laws(max_rules: int = 4) -> CheckResult:
    """Reflexivity, transitivity, antisymmetry-up-to-equality, and the
    identity-mode/superset equivalence, exhaustively over small rule sets."""
    ids = tuple(f"d{i + 1}" for i in range(max_rules))
    ranked = PriorityOrder.ranked({d: i + 1 for i, d in enumerate(ids)})
    ident = PriorityOrder.identity()
    subsets = [frozenset(c) for size in range(len(ids) + 1)
               for c in combinations(ids, size)]
    checked = 0
    antisymmetry_failures = 0
    for order in (ranked, ident):
        for x in subsets:
            checked += 1
            if not set_geq(x, x, order):
                return CheckResult("order-laws", False, checked,
                                   "reflexivity violated",
                                   {"set": sorted(x)})
        for x, y in product(subsets, repeat=2):
            checked += 1
            if order.ranks is None:
                if set_geq(x, y, order) != (y <= x):
                    return CheckResult(
                        "order-laws", False, checked,
                        "identity mode must equal the superset relation",
                        {"x": sorted(x), "y": sorted(y)})
            if set_geq(x, y, order) and set_geq(y, x, order) and x != y:
                antisymmetry_failures += 1
        for x, y, z in product(subsets, repeat=3):
            checked += 1
            if (set_geq(x, y, order) and set_geq(y, z, order)
                    and not set_geq(x, z, order)):
                return CheckResult("order-laws", False, checked,
                                   "transitivity violated",
                                   {"x": sorted(x), "y": sorted(y),
                                    "z": sorted(z)})
    return CheckResult(
        "order-laws", True, checked,
        f"antisymmetry violations: {antisymmetry_failures}")


def check_game_laws(seed: int = 0, samples: int = 60) -> CheckResult:
    """strongly-Pareto within Pareto, dominant within Nash, Pareto nonempty,
    and witness re-validation, over seeded random games: one pass per game
    over the four concepts' columns, a profile's four entries side by
    side."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        spec = random_spec(rng)
        game = derive_game(spec)
        checked += 1
        agents = spec.agent_ids
        first = pareto(game).witness
        detail = None
        if first and None not in first:
            detail = "Pareto empty on a nonempty game"
        for i, (p, sp, d, n) in enumerate(zip(
                first, strongly_pareto(game).witness,
                dominant(game).witness, nash(game).witness)):
            if detail:
                break
            if p and not sp:
                detail = "strongly-Pareto not within Pareto"
            elif n and not d:
                detail = "dominant not within Nash"
            elif p and not all(game.strictly_better(p.other, i, a)
                               for a in agents):
                detail = "stale Pareto witness"
            elif sp and not (all(game.profile_geq(sp.other, i, a)
                                 for a in agents)
                             and any(game.strictly_better(sp.other, i, a)
                                     for a in agents)):
                detail = "stale strongly-Pareto witness"
            elif d and game.profile_geq(i, d.other, d.agent):
                detail = "stale dominant witness"
            elif n and n.other is not None and game.profile_geq(i, n.other,
                                                                n.agent):
                detail = "stale Nash witness"
        if detail:
            return CheckResult("game-laws", False, checked, detail,
                               {"spec": format_spec(spec)})
    return CheckResult("game-laws", True, checked)


def check_representation(spec: AgentSystemSpec) -> CheckResult:
    """Both representation directions on one specification, once per
    indistinguishability class (the singleton closures), in class order.

    A spec without a feasible profile has no class, and fails: a check
    that examined nothing does not pass.  ``checked`` counts one singleton
    closure per feasible profile: a failing class is reported at its first
    member's canonical position plus one, and a pass counts every feasible
    profile.  Direction (a) is decided once per feasible profile, on its
    own goal set, into a column in canonical order that the classes read.
    Feasibility needs no pass of its own either: a profile goal-based for
    no goal set of its class is not goal-based for its own, so its class
    has already failed direction (a).
    """
    game = derive_game(spec)
    if not game.positions:
        return CheckResult("representation", False, 0, NOTHING_TO_CHECK)
    decide = _goal_decider(game)
    held = [decide(i, gs) for i, gs in enumerate(game.goal_sets)]
    for members in game.classes:
        violations = _representation_violations(game, members,
                                                 held.__getitem__)
        if violations:
            return CheckResult(
                "representation", False, members[0] + 1, str(violations[0]),
                {"family": [str(game.profile(i)) for i in members]})
    return CheckResult("representation", True, len(game.positions))


def check_representation_corpus(seed: int = 0, samples: int = 500, *,
                                exhaustive: bool = True) -> CheckResult:
    """Representation checks over the exhaustive family plus ``samples``
    random specs.

    A spec without a feasible profile has nothing to check: it is skipped
    and not counted, and a random one is drawn again (at most 50 draws per
    sample).
    """
    rng = random.Random(seed)
    checked = 0

    def failed(spec: AgentSystemSpec, result: CheckResult) -> CheckResult:
        result.counterexample = {"spec": format_spec(spec),
                                 **(result.counterexample or {})}
        result.checked = checked
        return result

    if exhaustive:
        for spec in exhaustive_small_specs():
            rng.randrange(1 << 30)  # kept: see the random phase
            result = check_representation(spec)
            if result.checked:
                checked += 1
                if not result.passed:
                    return failed(spec, result)
    wanted = checked + samples
    for _ in range(samples * 50):
        if checked == wanted:
            break
        spec = random_spec(rng, max_rules=3)
        # One draw per spec that nothing reads: it once seeded the random
        # families the check sampled.  It stays so that a seed keeps
        # drawing the same random specs.
        rng.randrange(1 << 30)
        result = check_representation(spec)
        if result.checked:
            checked += 1
            if not result.passed:
                return failed(spec, result)
    return CheckResult("representation", checked > 0, checked)


def check_pipeline_equivalence(spec: AgentSystemSpec) -> CheckResult:
    """Profile-first and goals-first Pareto families must coincide; a spec
    without a feasible profile fails, as there is nothing to compare."""
    game = derive_game(spec)
    if not game.positions:
        return CheckResult("pipeline-equivalence", False, 0, NOTHING_TO_CHECK)
    closed = concept_family(game, "pareto")
    via = pareto_via_goals(game).pareto_family
    if closed != via:  # both in canonical order
        return CheckResult(
            "pipeline-equivalence", False, 1, "families differ",
            {"profile-first": sorted(str(game.profile(i)) for i in closed),
             "goals-first": sorted(str(game.profile(i)) for i in via)})
    return CheckResult("pipeline-equivalence", True, 1)


def check_monotonicity(spec: AgentSystemSpec, seed: int = 0,
                       samples: int = 200) -> CheckResult:
    """Extension monotonicity over the spec's own rules and random theories."""
    rng = random.Random(seed)
    rules = spec.all_beliefs() + spec.all_desires()
    names = tuple(spec.vocabulary)
    atoms = list(names) or ["p"]
    for i in range(samples):
        base = random_theory(rng, atoms, rng.randint(0, 3))
        extra = random_theory(rng, atoms, rng.randint(0, 2))
        small = extension(rules, base, atoms=names, max_atoms=spec.max_atoms)
        big = extension(rules, base | extra, atoms=names,
                        max_atoms=spec.max_atoms)
        if not small.formulas <= big.formulas:
            return CheckResult(
                "monotonicity", False, i + 1, "extension shrank",
                {"base": sorted(map(str, base)),
                 "extra": sorted(map(str, extra))})
    return CheckResult("monotonicity", True, samples)


def check_heuristic_fragment(seed: int = 0, samples: int = 200) -> CheckResult:
    """Empirical containment of positive goals in the heuristic pool.

    On specs whose belief rules are triggered by the world only, counts
    the specs where the heuristic pool entails every positive goal of
    every feasible profile's goal set, and the specs where it misses one
    (a goal over decision atoms the initial decisions leave out; 3 of 60
    specs at seed 0).  Misses are reported as details, with the first one
    as the counterexample, not as failures: this documents observed
    behaviour.  No draw in the fragment fails the check, as nothing was
    examined.
    """
    rng = random.Random(seed)
    examined = 0
    contained = 0
    first_miss = None
    draws = 0
    while examined < samples and draws < samples * 50:
        draws += 1
        spec = random_spec(rng, max_rules=3)
        if not fragment_check(spec):
            continue
        examined += 1
        build = model_builder(tuple(spec.vocabulary), spec.max_atoms)
        theory = build(heuristic_goals(spec))
        game = derive_game(spec)
        ok = True
        for gs in game.goal_sets:
            for goal in gs.positive:
                if build((goal,), theory) != theory:
                    ok = False
                    if first_miss is None:
                        first_miss = {"spec": format_spec(spec),
                                      "goal": str(goal)}
        if ok:
            contained += 1
    if not examined:
        return CheckResult("heuristic-fragment", False, 0,
                           "nothing to check: no draw in the fragment")
    return CheckResult(
        "heuristic-fragment", True, examined,
        f"contained on {contained}/{examined} fragment specs, "
        f"misses on {examined - contained}",
        first_miss)
