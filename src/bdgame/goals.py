"""Joint goals: the goal-set view of families of decision profiles.

A profile's goal set splits the joint desire pool by what its extension
settles: positive goals are the consequents of desires reached jointly
(antecedent and consequent entailed), negative goals are the antecedents of
desires never triggered.  Goal sets are defined per indistinguishability
class, so the machinery here works on U-closed families: sets of feasible
profiles closed under equality of per-agent unreached sets.

Everything here reads the game: its goal-set table (``goal_sets``), the
generators of each distinct goal set (``goal_set_members``) and its
classes (``class_ids``).  Called without a game, a function derives one; a
profile outside the game raises InfeasibleProfileError.

Work is done per distinct goal set where the theory allows it: profiles
that generate the same goal set leave the same desires unreached.

- The goals-first pipeline (``pareto_via_goals``) orders the distinct goal
  sets of its pool, one member standing for each, and only then expands
  the maximal ones to profiles.
- The two representation checks verify, by brute force, that membership in
  a U-closed family and being goal-based for one of its goal sets are the
  same thing, and that feasibility alone is captured by the goal sets of
  singleton closures.  One check decides each (profile, goal set) pair by
  entailment at most once, in a memo that lives as long as the check;
  ``verify.check_representation`` shares one memo between all its families.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

from .decision import DecisionProfile
from .errors import (CombinatorialBoundError, InfeasibleProfileError,
                     NotUClosedError)
from .extension import extension
from .game import (EvaluatedProfile, GameSpecification, GoalSet, derive_game,
                   goal_set_key, nash, pareto, solve)
from .logic import Formula, in_sublanguage, mask_entails, models
from .model import AgentSystemSpec

DEFAULT_SUBSET_CAP = 16

BD_RATIONAL = "bd-rational"
NASH_ELSE_PARETO = "nash-else-pareto"
DECISION_RULES = (BD_RATIONAL, NASH_ELSE_PARETO)


@dataclass(frozen=True)
class ProfileFamily:
    """A set of feasible decision profiles, possibly U-closed.

    The ``u_closed`` flag is trusted by consumers; build families through
    ``u_closure`` or ``apply_decision_rule`` to have it set truthfully.
    """

    profiles: tuple[DecisionProfile, ...]
    u_closed: bool = False


def _sorted_goal_sets(goal_sets: Iterable[GoalSet]) -> tuple[GoalSet, ...]:
    return tuple(sorted(dict.fromkeys(goal_sets), key=goal_set_key))


def _index(game: GameSpecification, profile: DecisionProfile) -> int:
    index = game.index_of(profile)
    if index is None:
        raise InfeasibleProfileError(
            f"profile {profile} is not a feasible profile of the game")
    return index


def _closure_indexes(game: GameSpecification,
                     indexes: Iterable[int]) -> tuple[int, ...]:
    """The union of the classes of the indexed profiles, in canonical
    order."""
    wanted = {game.class_ids[i] for i in indexes}
    return tuple(sorted(chain.from_iterable(game.classes[c] for c in wanted)))


def _closure(game: GameSpecification,
             indexes: Iterable[int]) -> ProfileFamily:
    return ProfileFamily(tuple(game.profiles[i].profile
                               for i in _closure_indexes(game, indexes)),
                         u_closed=True)


def u_closure(spec: AgentSystemSpec, family: Iterable[DecisionProfile], *,
              game: GameSpecification | None = None) -> ProfileFamily:
    """Smallest superset closed under indistinguishability.

    Two feasible profiles are indistinguishable when every agent has the
    same unreached set in both.  That is an equivalence, so the closure is
    the union of the members' classes (``game.class_ids``); the result
    follows the canonical profile order.
    """
    if game is None:
        game = derive_game(spec)
    return _closure(game, (_index(game, p) for p in family))


def goal_set_of(spec: AgentSystemSpec, profile: DecisionProfile, *,
                game: GameSpecification | None = None) -> GoalSet:
    """The goal set one feasible profile generates from the joint desire pool.

    Desires of every agent contribute: positive goals are consequents of
    jointly reached desires, negative goals are antecedents the extension
    does not entail.  Unreached-but-triggered desires contribute nothing.
    Read off the game's goal-set table (``GameSpecification.goal_sets``).
    """
    if game is None:
        game = derive_game(spec)
    return game.goal_sets[_index(game, profile)]


def delta_goal_sets(spec: AgentSystemSpec, family: ProfileFamily, *,
                    game: GameSpecification | None = None
                    ) -> tuple[GoalSet, ...]:
    """The deduplicated goal sets generated by the members of a U-closed family."""
    if not family.u_closed:
        raise NotUClosedError(
            "goal sets are defined per U-closed family; close it first")
    if game is None:
        game = derive_game(spec)
    return _sorted_goal_sets(
        game.goal_sets[_index(game, p)] for p in family.profiles)


def _goal_based(spec: AgentSystemSpec, ep: EvaluatedProfile,
                goals: GoalSet) -> bool:
    if not goals.positive and not goals.negative:
        return True  # nothing to ask: skip the 2^|V|-bit theory mask
    atoms = spec.vocabulary.names
    theory = models(ep.extension.formulas, atoms=atoms,
                    max_atoms=spec.max_atoms)
    return (all(mask_entails(theory, g, atoms) for g in goals.positive)
            and not any(mask_entails(theory, g, atoms)
                        for g in goals.negative))


def is_goal_based(spec: AgentSystemSpec, profile: DecisionProfile,
                  goals: GoalSet, *,
                  game: GameSpecification | None = None) -> bool:
    """The joint extension entails every positive goal and no negative goal
    (decided by entailment over the whole vocabulary, independently of the
    desire reports)."""
    if game is None:
        game = derive_game(spec)
    return _goal_based(spec, game.profiles[_index(game, profile)], goals)


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
    return _sorted_goal_sets(
        iter_syntactic_goal_sets(spec, max_subset_rules=max_subset_rules))


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


GoalBased = Callable[[int, GoalSet], bool]


def _goal_based_memo(spec: AgentSystemSpec,
                     game: GameSpecification) -> GoalBased:
    """``_goal_based`` by feasible index, deciding each (index, goal set)
    pair at most once, for as long as the returned function lives."""
    known: dict[tuple[int, GoalSet], bool] = {}

    def goal_based(i: int, goals: GoalSet) -> bool:
        key = (i, goals)
        answer = known.get(key)
        if answer is None:
            answer = known[key] = _goal_based(spec, game.profiles[i], goals)
        return answer
    return goal_based


def _representation_violations(game: GameSpecification,
                               members: Sequence[int], goal_based: GoalBased
                               ) -> tuple[RepresentationViolation, ...]:
    """Both directions on a family given by feasible indexes: direction (a)
    in family order, then direction (b) in canonical order."""
    violations: list[RepresentationViolation] = []
    for i in members:
        ep, gs = game.profiles[i], game.goal_sets[i]
        if not goal_based(i, gs):
            violations.append(RepresentationViolation(
                "member-without-goal-set", ep.profile, gs,
                f"{ep.profile} is not goal-based for its own goal set {gs}"))
    inside = set(members)
    outside = sorted(
        j for gs in {game.goal_sets[i] for i in members}
        for j in game.goal_set_members[gs] if j not in inside)
    for j in outside:
        ep, gs = game.profiles[j], game.goal_sets[j]
        violations.append(RepresentationViolation(
            "goal-based-outside-family", ep.profile, gs,
            f"{ep.profile} generates the family goal set {gs} but is "
            f"missing from the family"))
    return tuple(violations)


def _feasible_violations(game: GameSpecification, goal_based: GoalBased
                         ) -> tuple[RepresentationViolation, ...]:
    violations: list[RepresentationViolation] = []
    for members in game.classes:
        goal_sets = dict.fromkeys(game.goal_sets[i] for i in members)
        for i in members:
            # Its own goal set first: direction (a) has decided that pair.
            if not (goal_based(i, game.goal_sets[i])
                    or any(goal_based(i, gs) for gs in goal_sets)):
                profile = game.profiles[i].profile
                violations.append(RepresentationViolation(
                    "member-without-goal-set", profile, None,
                    f"{profile} is not goal-based for any goal set of its "
                    f"indistinguishability class"))
    return tuple(violations)


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

    Direction (a) decides each (member, goal set) pair by entailment once;
    direction (b) reads the generators of the family's goal sets off the
    game (``goal_set_members``) instead of scanning every feasible profile.
    """
    if not family.u_closed:
        raise NotUClosedError("representation requires a U-closed family")
    if game is None:
        game = derive_game(spec)
    members = [_index(game, p) for p in family.profiles]
    violations = _representation_violations(game, members,
                                            _goal_based_memo(spec, game))
    return CheckReport(not violations, violations)


def feasible_representation_check(spec: AgentSystemSpec, *,
                                  game: GameSpecification | None = None
                                  ) -> CheckReport:
    """Every feasible profile is goal-based for a goal set of its own class.

    The closure of a singleton is the minimal U-closed witness, so checking
    each feasible profile against it decides representability by feasible
    goal sets.  Infeasible profiles cannot be goal-based for anything here:
    goal-basedness is only defined on consistent extensions.  Each profile
    tries its own goal set first.
    """
    if game is None:
        game = derive_game(spec)
    violations = _feasible_violations(game, _goal_based_memo(spec, game))
    return CheckReport(not violations, violations)


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------

def apply_decision_rule(spec: AgentSystemSpec, rule_name: str, *,
                        game: GameSpecification | None = None,
                        infeasible_swaps: str = "skip") -> ProfileFamily:
    """Select profiles by a named societal rule; the output is U-closed.

    bd-rational: the Pareto profiles.  nash-else-pareto: the Nash profiles
    (under the ``infeasible_swaps`` policy) when any exist, otherwise the
    Pareto profiles.  Closing the result keeps rules blind to distinctions
    between indistinguishable profiles.
    """
    if game is None:
        game = derive_game(spec)
    if rule_name == BD_RATIONAL:
        picked = pareto(game).profile_indexes
    elif rule_name == NASH_ELSE_PARETO:
        picked = (nash(game, infeasible_swaps=infeasible_swaps).profile_indexes
                  or pareto(game).profile_indexes)
    else:
        raise ValueError(f"unknown decision rule '{rule_name}'")
    return _closure(game, picked)


def concept_family(spec: AgentSystemSpec, concept: str, *,
                   game: GameSpecification | None = None,
                   infeasible_swaps: str = "skip") -> ProfileFamily:
    """The U-closure of a solution concept's profiles (or of all feasible)."""
    if game is None:
        game = derive_game(spec)
    if concept == "all":
        return _closure(game, range(len(game.profiles)))
    report = solve(game, concept, infeasible_swaps=infeasible_swaps)
    return _closure(game, report.profile_indexes)


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
    profile generates; their components must come from desire rules), and
    gather the pool of profiles goal-based for one of them.  Group the pool
    by the goal set each member generates.  Equal goal sets force equal
    unreached sets (see ``representation_check``), so the first member of a
    group stands for its goal set: a goal set is maximal when no other
    group's first member strictly improves on its first member for every
    agent (``strictly_better``).  Maximal joint goal sets first, profiles
    second: the family is every feasible profile that leaves the same
    desires unreached as a maximal goal set's members, which is the
    U-closure of the pool profiles no pool profile improves on.  Agrees
    with the profile-first route on the resulting Pareto family.

    It checks goal-basedness by entailment, independently of the desire
    reports, and orders goal sets without the preference tables, the
    classes or ``game.pareto``.  It does not check the goal sets, which are
    read off the same desire reports as the preferences.  Every feasible
    profile is goal-based for its own goal set (representation direction
    (a)), so that one is tried first and the pool is the whole feasible set
    unless that direction fails.  A goal set with a goal of no desire rule,
    or a goal set whose pool members leave different desires unreached,
    raises RuntimeError, under ``python -O`` as well.
    """
    if game is None:
        game = derive_game(spec)
    desire_consequents = {r.consequent for r in spec.all_desires()}
    desire_antecedents = {r.antecedent for r in spec.all_desires()}
    feasible_goal_sets = _sorted_goal_sets(game.goal_sets)
    for gs in feasible_goal_sets:
        if not (gs.positive <= desire_consequents
                and gs.negative <= desire_antecedents):
            raise RuntimeError(
                f"feasible goal set {gs} holds a goal of no desire rule")
    pool = tuple(
        i for i, ep in enumerate(game.profiles)
        if any(_goal_based(spec, ep, gs)
               for gs in (game.goal_sets[i], *feasible_goal_sets)))
    agents = spec.agent_ids
    unreached = [tuple(game.unreached(i, a) for a in agents)
                 for i in range(len(game.profiles))]
    groups: dict[GoalSet, list[int]] = {}
    for i in pool:
        groups.setdefault(game.goal_sets[i], []).append(i)
    for gs, (first, *others) in groups.items():
        for i in others:
            if unreached[i] != unreached[first]:
                raise RuntimeError(
                    f"{game.profiles[first].profile} and "
                    f"{game.profiles[i].profile} generate the goal set {gs} "
                    f"but leave different desires unreached")
    firsts = [members[0] for members in groups.values()]

    def improves(first: int, second: int) -> bool:
        return all(game.strictly_better(first, second, a) for a in agents)

    maximal = {unreached[i] for i in firsts
               if not any(improves(j, i) for j in firsts if j != i)}
    return GoalsFirstResult(
        feasible_goal_sets=feasible_goal_sets,
        pool=pool,
        pareto_family=ProfileFamily(
            tuple(ep.profile for ep, u in zip(game.profiles, unreached)
                  if u in maximal), u_closed=True),
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
