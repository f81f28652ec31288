"""Joint goals: the goal-set view of families of decision profiles.

A profile's goal set splits the joint desire pool by what its extension
settles: positive goals are the consequents of desires reached jointly
(antecedent and consequent entailed), negative goals are the antecedents of
desires never triggered.  Goal sets are defined per indistinguishability
class, so the machinery here works on U-closed families: sets of feasible
profiles closed under equality of per-agent unreached sets.

Every entry point takes the game first and reads the spec as
``game.spec``, so the desires and the goal sets come from one derivation.
Everything here reads the game by feasible index: its goal-set table
(``goal_sets``), the generators of each distinct goal set
(``goal_set_members``), its classes (``class_ids``) and, where a violation
names a profile, ``profile``.  No entry point takes a profile: a family
holds feasible indexes, as a solution does, ``u_closure`` and
``is_goal_based`` take them, and ``game.index_of`` turns a profile into
one.  An index outside the game raises InfeasibleProfileError.

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

Goal-basedness is decided by entailment over the whole vocabulary, one
``_goal_decider`` per call: it compiles each profile's theory as the AND of
its parts' masks, again only from the first agent whose decision changed
since the last profile asked about, and each distinct goal formula once.
No mask outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Sequence

from .decision import DecisionProfile, set_geq
from .errors import (CombinatorialBoundError, InfeasibleProfileError,
                     NotUClosedError)
from .extension import extension
from .game import (GameSpecification, GoalSet, _fails_on_infeasible_swaps,
                   goal_set_key, nash, pareto, solve)
from .logic import Formula, formula_printer, in_sublanguage, model_builder
from .model import AgentSystemSpec

DEFAULT_SUBSET_CAP = 16

BD_RATIONAL = "bd-rational"
NASH_ELSE_PARETO = "nash-else-pareto"
DECISION_RULES = (BD_RATIONAL, NASH_ELSE_PARETO)


@dataclass(frozen=True)
class ProfileFamily:
    """A set of feasible decision profiles by feasible index (numbered as
    in ``SolutionReport.profile_indexes``), possibly U-closed.

    The ``u_closed`` flag is trusted by consumers; build families through
    ``u_closure`` or ``apply_decision_rule`` to have it set truthfully and
    the indexes in canonical order.
    """

    profile_indexes: tuple[int, ...]
    u_closed: bool = False


def _sorted_goal_sets(goal_sets: Iterable[GoalSet]) -> tuple[GoalSet, ...]:
    """The distinct goal sets in canonical order, each formula printed once
    per call."""
    return tuple(sorted(dict.fromkeys(goal_sets),
                        key=partial(goal_set_key, text=formula_printer())))


def _members(game: GameSpecification,
             indexes: Iterable[int]) -> tuple[int, ...]:
    """The indexes, each refused unless it numbers a feasible profile of
    the game (``-1`` as well: it would read the last one)."""
    members = tuple(indexes)
    size = len(game.positions)
    for i in members:
        if not 0 <= i < size:
            raise InfeasibleProfileError(
                f"family index {i} is outside the game's {size} feasible "
                f"profiles")
    return members


def u_closure(game: GameSpecification,
              indexes: Iterable[int]) -> ProfileFamily:
    """Smallest superset closed under indistinguishability.

    Two feasible profiles are indistinguishable when every agent has the
    same unreached set in both.  That is an equivalence, so the closure is
    the union of the members' classes (``game.class_ids``).  The members
    and the result are feasible indexes; the result is in canonical order.
    """
    wanted = {game.class_ids[i] for i in _members(game, indexes)}
    return ProfileFamily(
        tuple(sorted(chain.from_iterable(game.classes[c] for c in wanted))),
        u_closed=True)


def delta_goal_sets(game: GameSpecification,
                    family: ProfileFamily) -> tuple[GoalSet, ...]:
    """The deduplicated goal sets generated by the members of a U-closed family."""
    if not family.u_closed:
        raise NotUClosedError(
            "goal sets are defined per U-closed family; close it first")
    return _sorted_goal_sets(map(game.goal_sets.__getitem__,
                                 _members(game, family.profile_indexes)))


GoalBased = Callable[[int, GoalSet], bool]


def _goal_decider(game: GameSpecification) -> GoalBased:
    """One goal-basedness decider on the game: ``decide(index, goals)``
    tells whether feasible profile ``index`` is goal-based for ``goals``,
    by entailment over the whole vocabulary on its joint formula set, the
    union of the formula sets of its parts (``game.feasible_decisions``).

    The models of a union of formula sets are the AND of their models, so
    the theory mask is the AND of the parts' masks, each part compiled
    within the AND of the parts before it, with no formula set joined and
    no ``joint_extension`` built.  The decider keeps those
    prefix ANDs for the last profile asked about, one per agent, so only
    the parts from the first agent whose decision changed are compiled
    again; and it compiles each distinct goal formula once, so that a goal
    is entailed iff ``theory & goal == theory``.  Every mask is compiled
    by one ``logic.model_builder`` over the vocabulary, so the atom
    patterns are built once for the decider.  All of it dies with the
    decider."""
    spec = game.spec
    build = model_builder(spec.vocabulary.names, spec.max_atoms)
    parts = [tuple(ds.values()) for ds in game.feasible_decisions.values()]
    radixes = [(stride, radix) for _, _, stride, radix in game._digits]
    digits: list[int] = []  # the last profile's digit per agent ...
    prefix: list[int] = []  # ... and the AND of its parts' masks up to it
    goal_masks: dict[Formula, int] = {}

    def theory(index: int) -> int:
        c = game.positions[index]
        wanted = [c // stride % radix for stride, radix in radixes]
        k = 0
        while k < len(digits) and digits[k] == wanted[k]:
            k += 1
        del digits[k:], prefix[k:]
        for decisions, digit in zip(parts[k:], wanted[k:]):
            prefix.append(build(decisions[digit].formulas,
                                prefix[-1] if prefix else None))
            digits.append(digit)
        if not prefix:  # no agent, no part: every assignment
            return build(())
        return prefix[-1]

    def entailed(mask: int, goal: Formula) -> bool:
        compiled = goal_masks.get(goal)
        if compiled is None:
            compiled = goal_masks[goal] = build((goal,))
        return mask & compiled == mask

    def decide(index: int, goals: GoalSet) -> bool:
        if not goals.positive and not goals.negative:
            return True  # nothing to ask: skip the 2^|V|-bit theory mask
        mask = theory(index)
        return (all(entailed(mask, g) for g in goals.positive)
                and not any(entailed(mask, g) for g in goals.negative))
    return decide


def is_goal_based(game: GameSpecification, index: int,
                  goals: GoalSet) -> bool:
    """The joint extension of feasible profile ``index`` entails every
    positive goal and no negative goal (decided by entailment over the
    whole vocabulary, independently of the desire reports)."""
    return _goal_decider(game)(*_members(game, (index,)), goals)


def iter_syntactic_goal_sets(spec: AgentSystemSpec) -> Iterator[GoalSet]:
    """Goal sets generated by subsets of the joint desire pool, lazily.

    Each subset contributes its consequents as positive goals and its
    antecedents as negative goals.  Duplicates (as formula-set pairs) are
    suppressed.
    """
    desires = spec.all_desires()
    if len(desires) > DEFAULT_SUBSET_CAP:
        raise CombinatorialBoundError(
            f"{len(desires)} desires exceed the goal-subset cap "
            f"{DEFAULT_SUBSET_CAP}")
    seen: set[GoalSet] = set()
    for size in range(len(desires) + 1):
        for chosen in combinations(desires, size):
            gs = GoalSet(frozenset(r.consequent for r in chosen),
                         frozenset(r.antecedent for r in chosen))
            if gs not in seen:
                seen.add(gs)
                yield gs


def syntactic_goal_sets(spec: AgentSystemSpec) -> tuple[GoalSet, ...]:
    return _sorted_goal_sets(iter_syntactic_goal_sets(spec))


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


def _goal_based_memo(game: GameSpecification) -> GoalBased:
    """One ``_goal_decider`` on the game, deciding each (index, goal set)
    pair at most once, for as long as the returned function lives."""
    return cache(_goal_decider(game))


def _representation_violations(game: GameSpecification,
                               members: Sequence[int], goal_based: GoalBased
                               ) -> tuple[RepresentationViolation, ...]:
    """Both directions on a family given by feasible indexes: direction (a)
    in family order, then direction (b) in canonical order."""
    violations: list[RepresentationViolation] = []
    for i in members:
        gs = game.goal_sets[i]
        if not goal_based(i, gs):
            profile = game.profile(i)
            violations.append(RepresentationViolation(
                "member-without-goal-set", profile, gs,
                f"{profile} is not goal-based for its own goal set {gs}"))
    inside = set(members)
    outside = sorted(
        j for gs in {game.goal_sets[i] for i in members}
        for j in game.goal_set_members[gs] if j not in inside)
    for j in outside:
        profile, gs = game.profile(j), game.goal_sets[j]
        violations.append(RepresentationViolation(
            "goal-based-outside-family", profile, gs,
            f"{profile} generates the family goal set {gs} but is "
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
                profile = game.profile(i)
                violations.append(RepresentationViolation(
                    "member-without-goal-set", profile, None,
                    f"{profile} is not goal-based for any goal set of its "
                    f"indistinguishability class"))
    return tuple(violations)


def representation_check(game: GameSpecification,
                         family: ProfileFamily) -> CheckReport:
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
    violations = _representation_violations(
        game, _members(game, family.profile_indexes), _goal_based_memo(game))
    return CheckReport(not violations, violations)


def feasible_representation_check(game: GameSpecification) -> CheckReport:
    """Every feasible profile is goal-based for a goal set of its own class.

    The closure of a singleton is the minimal U-closed witness, so checking
    each feasible profile against it decides representability by feasible
    goal sets.  Infeasible profiles cannot be goal-based for anything here:
    goal-basedness is only defined on consistent extensions.  Each profile
    tries its own goal set first.
    """
    violations = _feasible_violations(game, _goal_based_memo(game))
    return CheckReport(not violations, violations)


# ---------------------------------------------------------------------------
# Decision rules
# ---------------------------------------------------------------------------

def apply_decision_rule(game: GameSpecification, rule_name: str, *,
                        infeasible_swaps: str = "skip") -> ProfileFamily:
    """Select profiles by a named societal rule; the output is U-closed.

    bd-rational: the Pareto profiles.  nash-else-pareto: the Nash profiles
    (under the ``infeasible_swaps`` policy) when any exist, otherwise the
    Pareto profiles.  Closing the result keeps rules blind to distinctions
    between indistinguishable profiles.  An unknown policy is refused under
    every rule.
    """
    _fails_on_infeasible_swaps(infeasible_swaps)
    if rule_name == BD_RATIONAL:
        picked = pareto(game).profile_indexes
    elif rule_name == NASH_ELSE_PARETO:
        picked = (nash(game, infeasible_swaps=infeasible_swaps).profile_indexes
                  or pareto(game).profile_indexes)
    else:
        raise ValueError(f"unknown decision rule '{rule_name}'")
    return u_closure(game, picked)


def concept_family(game: GameSpecification, concept: str, *,
                   infeasible_swaps: str = "skip") -> ProfileFamily:
    """The U-closure of a solution concept's profiles (or of all feasible).
    An unknown ``infeasible_swaps`` policy is refused for every family."""
    _fails_on_infeasible_swaps(infeasible_swaps)
    if concept == "all":
        return u_closure(game, range(len(game.positions)))
    report = solve(game, concept, infeasible_swaps=infeasible_swaps)
    return u_closure(game, report.profile_indexes)


# ---------------------------------------------------------------------------
# Goals-first pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoalsFirstResult:
    feasible_goal_sets: tuple[GoalSet, ...]
    pool: tuple[int, ...]  # game indexes of the goal-based profiles
    pareto_family: ProfileFamily


def pareto_via_goals(game: GameSpecification) -> GoalsFirstResult:
    """Compute the Pareto family through joint goals instead of profiles.

    Route: collect the feasible joint goal sets (those some feasible
    profile generates; their components must come from desire rules), and
    gather the pool of profiles goal-based for one of them.  Group the pool
    by the goal set each member generates.  Equal goal sets force equal
    unreached sets (see ``representation_check``), so the first member of a
    group stands for its goal set: a goal set is maximal when no other
    group's first member leaves unreached sets strictly better for every
    agent.  The distinct unreached tuples of the first members are ranked
    with each agent's ordered pair of distinct sets among them decided once
    by ``set_geq``.  Maximal joint goal sets first, profiles second: the
    family is every feasible profile that leaves the same desires
    unreached as a maximal goal set's members, which is the U-closure of
    the pool profiles no pool profile improves on.  Agrees with the
    profile-first route on the resulting Pareto family.

    It checks goal-basedness by entailment, independently of the desire
    reports, with one ``_goal_decider`` for the whole pool, and orders goal
    sets without the preference tables, the classes or ``game.pareto``.  It
    does not check the goal sets, which are read off the same desire
    reports as the preferences.  Every feasible profile is goal-based for
    its own goal set (representation direction (a)), so that one is tried
    first and the pool is the whole feasible set unless that direction
    fails.  A goal set with a goal of no desire rule, or a goal set whose
    pool members leave different desires unreached, raises RuntimeError,
    under ``python -O`` as well.
    """
    spec = game.spec
    desire_consequents = {r.consequent for r in spec.all_desires()}
    desire_antecedents = {r.antecedent for r in spec.all_desires()}
    feasible_goal_sets = _sorted_goal_sets(game.goal_sets)
    for gs in feasible_goal_sets:
        if not (gs.positive <= desire_consequents
                and gs.negative <= desire_antecedents):
            raise RuntimeError(
                f"feasible goal set {gs} holds a goal of no desire rule")
    feasible = range(len(game.positions))
    decide = _goal_decider(game)
    pool = tuple(i for i in feasible if decide(i, game.goal_sets[i])
                 or any(decide(i, gs) for gs in feasible_goal_sets))
    agents = spec.agent_ids
    unreached = [tuple(game.unreached(i, a) for a in agents)
                 for i in feasible]
    groups: dict[GoalSet, list[int]] = {}
    for i in pool:
        groups.setdefault(game.goal_sets[i], []).append(i)
    for gs, (first, *others) in groups.items():
        for i in others:
            if unreached[i] != unreached[first]:
                raise RuntimeError(
                    f"{game.profile(first)} and "
                    f"{game.profile(i)} generate the goal set {gs} "
                    f"but leave different desires unreached")
    # The distinct unreached tuples of the groups' first members, ranked:
    # per tuple, a bitset of the other tuples that improve on it, strictly
    # better for every agent.  Per agent, each ordered pair of its distinct
    # sets among the tuples is decided once.
    tuples = tuple(dict.fromkeys(unreached[members[0]]
                                 for members in groups.values()))
    improving = [(1 << len(tuples)) - 1 ^ 1 << j for j in range(len(tuples))]
    for k, agent in enumerate(spec.agents):
        holding: dict[frozenset[str], int] = {}  # the tuples with each set
        for j, u in enumerate(tuples):
            holding[u[k]] = holding.get(u[k], 0) | 1 << j
        geq = {(x, y) for x in holding for y in holding
               if x != y and set_geq(y, x, agent.priority)}
        above = {y: sum(bits for x, bits in holding.items()
                        if (x, y) in geq and (y, x) not in geq)
                 for y in holding}
        for j, u in enumerate(tuples):
            improving[j] &= above[u[k]]
    maximal = {u for u, bits in zip(tuples, improving) if not bits}
    return GoalsFirstResult(
        feasible_goal_sets=feasible_goal_sets,
        pool=pool,
        pareto_family=ProfileFamily(
            tuple(i for i, u in enumerate(unreached) if u in maximal),
            u_closed=True),
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
