"""Joint goals: the goal-set view of families of decision profiles.

A profile's goal set splits the joint desire pool by what its extension
settles: positive goals are the consequents of desires reached jointly
(antecedent and consequent entailed), negative goals are the antecedents of
desires never triggered.  Goal sets are defined per indistinguishability
class, so the machinery here works on U-closed families: sets of feasible
profiles closed under equality of per-agent unreached sets.

The two representation checks verify, by brute force, that membership in a
U-closed family and being goal-based for one of its goal sets are the same
thing, and that feasibility alone is captured by the goal sets of singleton
closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .decision import DecisionProfile, DesireReport
from .errors import (CombinatorialBoundError, InfeasibleProfileError,
                     NotUClosedError)
from .extension import extension
from .game import (EvaluatedProfile, GameSpecification, derive_game,
                   evaluate_profile, nash, pareto, solve)
from .logic import Formula, entails, format_formula, in_sublanguage
from .model import AgentSystemSpec

DEFAULT_SUBSET_CAP = 16

BD_RATIONAL = "bd-rational"
NASH_ELSE_PARETO = "nash-else-pareto"
DECISION_RULES = (BD_RATIONAL, NASH_ELSE_PARETO)


@dataclass(frozen=True)
class GoalSet:
    """Positive goals the extension must entail; negative goals it must not."""

    positive: frozenset[Formula]
    negative: frozenset[Formula]

    def __str__(self) -> str:
        pos = ", ".join(sorted(format_formula(f) for f in self.positive))
        neg = ", ".join(sorted(format_formula(f) for f in self.negative))
        return f"<+{{{pos}}}, -{{{neg}}}>"


@dataclass(frozen=True)
class ProfileFamily:
    """A set of feasible decision profiles, possibly U-closed.

    The ``u_closed`` flag is trusted by consumers; build families through
    ``u_closure`` or ``apply_decision_rule`` to have it set truthfully.
    """

    profiles: tuple[DecisionProfile, ...]
    u_closed: bool = False

    def __contains__(self, profile: DecisionProfile) -> bool:
        return profile in self.profiles

    def __len__(self) -> int:
        return len(self.profiles)


def goal_set_key(gs: GoalSet) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (tuple(sorted(format_formula(f) for f in gs.positive)),
            tuple(sorted(format_formula(f) for f in gs.negative)))


def unreached_signature(spec: AgentSystemSpec,
                        report: DesireReport) -> tuple:
    """Hashable per-agent unreached-set tuple; equal iff indistinguishable."""
    return tuple((a.id, tuple(sorted(report.unreached(a.id))))
                 for a in spec.agents)


def _evaluated(spec: AgentSystemSpec, profile: DecisionProfile,
               game: GameSpecification | None) -> EvaluatedProfile:
    """The game's evaluation of a feasible profile, or a fresh one when the
    profile is not in the game (or no game is at hand)."""
    index = None if game is None else game.index_of(profile)
    ep = (evaluate_profile(spec, profile) if index is None
          else game.profiles[index])
    if ep.report is None:
        raise InfeasibleProfileError(f"profile {profile} is infeasible")
    return ep


def u_closure(spec: AgentSystemSpec, family: Iterable[DecisionProfile], *,
              game: GameSpecification | None = None) -> ProfileFamily:
    """Smallest superset closed under indistinguishability.

    Two feasible profiles are indistinguishable when every agent has the
    same unreached set in both.  That is an equivalence, so the closure is
    the union of the members' classes within the feasible profiles; one
    pass suffices and the result follows the canonical profile order.
    """
    members = list(family)
    if game is None:
        game = derive_game(spec)
    wanted = {unreached_signature(spec, _evaluated(spec, p, game).report)
              for p in members}
    closed = tuple(
        ep.profile for ep in game.profiles
        if unreached_signature(spec, ep.report) in wanted)
    return ProfileFamily(closed, u_closed=True)


def _goal_set(spec: AgentSystemSpec, report: DesireReport) -> GoalSet:
    positive, negative = set(), set()
    for agent in spec.agents:
        status = report.per_agent[agent.id]
        for rule in agent.desires:
            if rule.id in status.reached:
                positive.add(rule.consequent)
            elif rule.id in status.inapplicable:
                negative.add(rule.antecedent)
    return GoalSet(frozenset(positive), frozenset(negative))


def goal_set_of(spec: AgentSystemSpec, profile: DecisionProfile, *,
                game: GameSpecification | None = None) -> GoalSet:
    """The goal set one feasible profile generates from the joint desire pool.

    Desires of every agent contribute: positive goals are consequents of
    jointly reached desires, negative goals are antecedents the extension
    does not entail.  Unreached-but-triggered desires contribute nothing.
    Read off the profile's desire report (from ``game`` when given).
    """
    return _goal_set(spec, _evaluated(spec, profile, game).report)


def delta_goal_sets(spec: AgentSystemSpec, family: ProfileFamily, *,
                    game: GameSpecification | None = None
                    ) -> tuple[GoalSet, ...]:
    """The deduplicated goal sets generated by the members of a U-closed family."""
    if not family.u_closed:
        raise NotUClosedError(
            "goal sets are defined per U-closed family; close it first")
    seen: dict[GoalSet, None] = {}
    for profile in family.profiles:
        seen.setdefault(goal_set_of(spec, profile, game=game))
    return tuple(sorted(seen, key=goal_set_key))


def is_goal_based(spec: AgentSystemSpec, profile: DecisionProfile,
                  goals: GoalSet, *,
                  game: GameSpecification | None = None) -> bool:
    """The joint extension entails every positive goal and no negative goal
    (decided by entailment, independently of the desire reports)."""
    theory = _evaluated(spec, profile, game).extension.formulas
    atoms = spec.vocabulary.names
    return (all(entails(theory, g, atoms=atoms, max_atoms=spec.max_atoms)
                for g in goals.positive)
            and not any(entails(theory, g, atoms=atoms,
                                max_atoms=spec.max_atoms)
                        for g in goals.negative))


def iter_syntactic_goal_sets(spec: AgentSystemSpec, *,
                             max_subset_rules: int = DEFAULT_SUBSET_CAP
                             ) -> Iterator[GoalSet]:
    """Goal sets generated by subsets of the joint desire pool, lazily.

    Each subset contributes its consequents as positive goals and its
    antecedents as negative goals.  Duplicates (as formula-set pairs) are
    suppressed.
    """
    desires = spec.all_desires()
    if len(desires) > max_subset_rules:
        raise CombinatorialBoundError(
            f"{len(desires)} desires exceed the goal-subset cap "
            f"{max_subset_rules}")
    seen: set[GoalSet] = set()
    for size in range(len(desires) + 1):
        for chosen in combinations(desires, size):
            gs = GoalSet(frozenset(r.consequent for r in chosen),
                         frozenset(r.antecedent for r in chosen))
            if gs not in seen:
                seen.add(gs)
                yield gs


def syntactic_goal_sets(spec: AgentSystemSpec, *,
                        max_subset_rules: int = DEFAULT_SUBSET_CAP
                        ) -> tuple[GoalSet, ...]:
    return tuple(sorted(
        iter_syntactic_goal_sets(spec, max_subset_rules=max_subset_rules),
        key=goal_set_key))


# ---------------------------------------------------------------------------
# Representation checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepresentationViolation:
    direction: str  # "member-without-goal-set" | "goal-based-outside-family"
    profile: DecisionProfile
    goal_set: GoalSet | None
    message: str

    def __str__(self) -> str:
        return f"{self.direction}: {self.message}"


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    violations: tuple[RepresentationViolation, ...] = ()


def representation_check(spec: AgentSystemSpec, family: ProfileFamily, *,
                         game: GameSpecification | None = None) -> CheckReport:
    """Brute-force both directions of the family/goal-set correspondence.

    (a) every member is goal-based for the goal set it generates;
    (b) every feasible profile that generates one of the family's goal sets
        belongs to the family.

    Direction (b) matches on generated goal sets, not on mere satisfaction:
    a goal set leaves the untriggered antecedents and reached consequents of
    its generator recoverable, so equal goal sets force equal unreached sets
    and U-closure makes (b) a theorem.  Satisfaction alone is too weak; a
    profile reaching strictly more desires still satisfies the smaller goal
    set.
    """
    if not family.u_closed:
        raise NotUClosedError("representation requires a U-closed family")
    if game is None:
        game = derive_game(spec)
    violations: list[RepresentationViolation] = []
    for profile in family.profiles:
        gs = goal_set_of(spec, profile, game=game)
        if not is_goal_based(spec, profile, gs, game=game):
            violations.append(RepresentationViolation(
                "member-without-goal-set", profile, gs,
                f"{profile} is not goal-based for its own goal set {gs}"))
    goal_sets = set(delta_goal_sets(spec, family, game=game))
    members = set(family.profiles)
    for ep in game.profiles:
        if ep.profile in members:
            continue
        gs = _goal_set(spec, ep.report)
        if gs in goal_sets:
            violations.append(RepresentationViolation(
                "goal-based-outside-family", ep.profile, gs,
                f"{ep.profile} generates the family goal set {gs} but is "
                f"missing from the family"))
    return CheckReport(not violations, tuple(violations))


def feasible_representation_check(spec: AgentSystemSpec, *,
                                  game: GameSpecification | None = None
                                  ) -> CheckReport:
    """Every feasible profile is goal-based for a goal set of its own class.

    The closure of a singleton is the minimal U-closed witness, so checking
    each feasible profile against it decides representability by feasible
    goal sets.  Infeasible profiles cannot be goal-based for anything here:
    goal-basedness is only defined on consistent extensions.
    """
    if game is None:
        game = derive_game(spec)
    violations: list[RepresentationViolation] = []
    for members in game.classes:
        profiles = tuple(game.profiles[i].profile for i in members)
        family = ProfileFamily(profiles, u_closed=True)
        goal_sets = delta_goal_sets(spec, family, game=game)
        for profile in profiles:
            if not any(is_goal_based(spec, profile, gs, game=game)
                       for gs in goal_sets):
                violations.append(RepresentationViolation(
                    "member-without-goal-set", profile, None,
                    f"{profile} is not goal-based for any goal set of its "
                    f"indistinguishability class"))
    return CheckReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------

def apply_decision_rule(spec: AgentSystemSpec, rule_name: str, *,
                        game: GameSpecification | None = None) -> ProfileFamily:
    """Select profiles by a named societal rule; the output is U-closed.

    bd-rational: the Pareto profiles.  nash-else-pareto: the Nash profiles
    when any exist, otherwise the Pareto profiles.  Closing the result keeps
    rules blind to distinctions between indistinguishable profiles.
    """
    if game is None:
        game = derive_game(spec)
    if rule_name == BD_RATIONAL:
        picked = pareto(game).profile_indexes
    elif rule_name == NASH_ELSE_PARETO:
        picked = nash(game).profile_indexes or pareto(game).profile_indexes
    else:
        raise ValueError(f"unknown decision rule '{rule_name}'")
    members = [game.profiles[i].profile for i in picked]
    return u_closure(spec, members, game=game)


def concept_family(spec: AgentSystemSpec, concept: str, *,
                   game: GameSpecification | None = None,
                   infeasible_swaps: str = "skip") -> ProfileFamily:
    """The U-closure of a solution concept's profiles (or of all feasible)."""
    if game is None:
        game = derive_game(spec)
    if concept == "all":
        return ProfileFamily(tuple(ep.profile for ep in game.profiles),
                             u_closed=True)
    report = solve(game, concept, infeasible_swaps=infeasible_swaps)
    members = [game.profiles[i].profile for i in report.profile_indexes]
    return u_closure(spec, members, game=game)


# ---------------------------------------------------------------------------
# Goals-first pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoalsFirstResult:
    feasible_goal_sets: tuple[GoalSet, ...]
    pool: tuple[int, ...]  # game indexes of the goal-based profiles
    pareto_family: ProfileFamily


def pareto_via_goals(spec: AgentSystemSpec, *,
                     game: GameSpecification | None = None
                     ) -> GoalsFirstResult:
    """Compute the Pareto family through joint goals instead of profiles.

    Route: collect the feasible joint goal sets (those some feasible
    profile generates; their components always come from desire rules,
    which is asserted), gather the goal-based profiles of each, and order
    that pool by the per-agent preferences.  Agrees with the profile-first
    route on the resulting Pareto family.

    It checks goal-basedness by entailment, independently of the desire
    reports, and orders the pool without ``game.pareto``.  It does not
    check the goal sets, which are read off the same desire reports as the
    preferences.  Every feasible profile is goal-based for its own goal set
    (representation direction (a)), so that one is tried first and the
    pool is the whole feasible set unless that direction fails.
    """
    if game is None:
        game = derive_game(spec)
    desire_consequents = {r.consequent for r in spec.all_desires()}
    desire_antecedents = {r.antecedent for r in spec.all_desires()}
    own = [_goal_set(spec, ep.report) for ep in game.profiles]
    realized = set(own)
    for gs in realized:
        assert gs.positive <= desire_consequents
        assert gs.negative <= desire_antecedents
    feasible_goal_sets = tuple(sorted(realized, key=goal_set_key))
    pool = tuple(
        i for i, ep in enumerate(game.profiles)
        if any(is_goal_based(spec, ep.profile, gs, game=game)
               for gs in (own[i], *feasible_goal_sets)))
    agents = spec.agent_ids

    def improves(first: int, second: int) -> bool:
        return all(game.strictly_better(first, second, a) for a in agents)

    best = [i for i in pool
            if not any(improves(j, i) for j in pool if j != i)]
    members = [game.profiles[i].profile for i in best]
    return GoalsFirstResult(
        feasible_goal_sets=feasible_goal_sets,
        pool=pool,
        pareto_family=u_closure(spec, members, game=game),
    )


# ---------------------------------------------------------------------------
# Goal-generation heuristic
# ---------------------------------------------------------------------------

def heuristic_goals(spec: AgentSystemSpec) -> frozenset[Formula]:
    """Candidate positive goals: close facts plus initial decisions under
    belief *and* desire rules together.

    This over-approximates from wishes (desire consequents feed back into
    firing) but cannot anticipate effects of actions not yet decided, so it
    is a heuristic pool, not a complete enumeration.
    """
    rules = spec.all_beliefs() + spec.all_desires()
    base = [f for a in spec.agents for f in a.facts]
    base += [lit.formula() for a in spec.agents for lit in a.initial_decision]
    ext = extension(rules, base, atoms=spec.vocabulary.names,
                    max_atoms=spec.max_atoms)
    return ext.formulas


def fragment_check(spec: AgentSystemSpec) -> bool:
    """True when no belief rule is triggered by decisions.

    On this fragment (belief antecedents purely about the world) the
    heuristic pool is exhaustive for positive goals.
    """
    vocab = spec.vocabulary
    return all(in_sublanguage(r.antecedent, vocab, "world")
               for r in spec.all_beliefs())
