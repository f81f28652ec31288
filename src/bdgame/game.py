"""Derived games and solution concepts over feasible decision profiles.

The game of a specification pairs the jointly feasible profiles (drawn from
the product of each agent's individually feasible decisions) with the
per-agent preference orders induced by unreached desires.  Solution concepts
are computed by brute force on small integer tables, numbered once per game:

- each agent's distinct unreached sets get ids, and one preference table
  per agent holds the lifted order (``set_geq``) between them, filled on
  first ask (``PreferenceTable``);
- each candidate profile has a mixed-radix index over the agents' feasible
  decisions (last agent fastest, the order of ``itertools.product``), and
  ``candidates`` maps it to its feasible index, or -1.

Pareto, strong Pareto and dominant compare the indistinguishability
classes (profiles with equal unreached sets for every agent, which no
preference tells apart); Nash reaches each deviation by index arithmetic
and one lookup.  Every exclusion carries a witness that can be re-validated
against the definitions, which ``profile_geq`` and ``strictly_better``
keep: they decide by ``set_geq`` on the unreached sets, not by the tables.

Swapping one agent's decision into a profile can produce a jointly
infeasible profile even when both components are individually feasible.
The ``infeasible_swaps`` policy decides whether such Nash deviations are
skipped (the default: an impossible profile neither rewards nor punishes
anyone) or fail the candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from typing import Callable, Iterator

from .decision import (DEFAULT_DECISION_CAP, DEFAULT_PROFILE_CAP, Decision,
                       DecisionProfile, DesireReport, agent_extension,
                       desire_report, enumerate_decisions, joint_extension,
                       set_geq)
from .errors import CombinatorialBoundError
from .extension import Extension
from .logic import Formula, format_formula
from .model import AgentSystemSpec, PriorityOrder

SKIP = "skip"
FAIL = "fail"

PARETO = "pareto"
STRONG_PARETO = "strong-pareto"
DOMINANT = "dominant"
NASH = "nash"
CONCEPTS = (PARETO, STRONG_PARETO, DOMINANT, NASH)


@dataclass(frozen=True)
class GoalSet:
    """Positive goals the extension must entail; negative goals it must not."""

    positive: frozenset[Formula]
    negative: frozenset[Formula]

    def __str__(self) -> str:
        pos, neg = map(", ".join, goal_set_key(self))
        return f"<+{{{pos}}}, -{{{neg}}}>"


def goal_set_key(gs: GoalSet) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The goal set's formulas, printed and sorted: the canonical order."""
    return (tuple(sorted(format_formula(f) for f in gs.positive)),
            tuple(sorted(format_formula(f) for f in gs.negative)))


@dataclass(frozen=True)
class EvaluatedProfile:
    profile: DecisionProfile
    extension: Extension
    report: DesireReport | None  # None when the profile is infeasible


def evaluate_profile(spec: AgentSystemSpec, profile: DecisionProfile,
                     parts: tuple[Extension, ...] | None = None
                     ) -> EvaluatedProfile:
    """The joint extension and desire report of one profile; ``parts`` are
    the agents' extensions of its decisions, as for ``joint_extension``.

    The joint world mask lives only until the report is read: the kept
    extension has ``models=None``, so a game holds no mask per profile.
    """
    ext = joint_extension(spec, profile, parts)
    report = desire_report(spec, profile, ext) if ext.consistent else None
    return EvaluatedProfile(profile, Extension(
        ext.base, ext.derived, ext.iterations, ext.consistent, models=None),
        report)


class PreferenceTable:
    """One agent's preferences over a game's profiles, on small integers.

    ``ids[i]`` numbers profile i's unreached set among the agent's distinct
    ones, in order of first appearance.  ``geq(x, y)`` is whether a profile
    with set x is at least as good for the agent as one with set y.  Equal
    ids are; any other pair is decided by ``set_geq`` on its first ask, and
    the answer is kept, so no pair costs more than one call.
    """

    def __init__(self, ids: tuple[int, ...],
                 sets: tuple[frozenset[str], ...],
                 order: PriorityOrder) -> None:
        self.ids = ids
        self._sets = sets
        self._order = order
        self._known: dict[int, bool] = {}

    def geq(self, x: int, y: int) -> bool:
        if x == y:
            return True
        key = x * len(self._sets) + y
        known = self._known.get(key)
        if known is None:
            known = self._known[key] = set_geq(self._sets[y], self._sets[x],
                                               self._order)
        return known

    def better(self, x: int, y: int) -> bool:
        return self.geq(x, y) and not self.geq(y, x)


@dataclass(frozen=True)
class GameSpecification:
    spec: AgentSystemSpec
    profiles: tuple[EvaluatedProfile, ...]  # feasible only, canonical order
    feasible_decisions: dict[str, tuple[Decision, ...]]
    # Per candidate profile, by mixed-radix index over feasible_decisions
    # (last agent fastest): its index in profiles, or -1 when infeasible.
    candidates: tuple[int, ...]

    def index_of(self, profile: DecisionProfile) -> int | None:
        return self._index.get(profile)

    @cached_property
    def _index(self) -> dict[DecisionProfile, int]:
        return {ep.profile: i for i, ep in enumerate(self.profiles)}

    @cached_property
    def preferences(self) -> tuple[PreferenceTable, ...]:
        """One preference table per agent, in agent order."""
        tables = []
        for agent in self.spec.agents:
            sets: dict[frozenset[str], int] = {}
            ids = tuple(sets.setdefault(ep.report.unreached(agent.id),
                                        len(sets))
                        for ep in self.profiles)
            tables.append(PreferenceTable(ids, tuple(sets), agent.priority))
        return tuple(tables)

    @cached_property
    def class_ids(self) -> tuple[int, ...]:
        """Each profile's indistinguishability class: profiles share a class
        iff every agent has the same unreached set in both.  Classes are
        numbered in the order of their first members."""
        ids: dict[tuple[int, ...], int] = {}
        return tuple(ids.setdefault(key, len(ids)) for key in
                     zip(*(table.ids for table in self.preferences)))

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The members of each class, in canonical order."""
        members: list[list[int]] = [[] for _ in set(self.class_ids)]
        for i, c in enumerate(self.class_ids):
            members[c].append(i)
        return tuple(map(tuple, members))

    @cached_property
    def goal_sets(self) -> tuple[GoalSet, ...]:
        """Each profile's goal set, read off its desire report: the
        consequents of the desires it reaches and the antecedents of those
        it leaves inapplicable, over every agent's desires."""
        rules = [(a.id, r) for a in self.spec.agents for r in a.desires]
        return tuple(GoalSet(
            frozenset(r.consequent for a, r in rules
                      if r.id in ep.report.per_agent[a].reached),
            frozenset(r.antecedent for a, r in rules
                      if r.id in ep.report.per_agent[a].inapplicable))
            for ep in self.profiles)

    @cached_property
    def goal_set_members(self) -> dict[GoalSet, tuple[int, ...]]:
        """The profiles generating each distinct goal set, in canonical
        order; goal sets in the order of their first generators."""
        members: dict[GoalSet, list[int]] = {}
        for i, gs in enumerate(self.goal_sets):
            members.setdefault(gs, []).append(i)
        return {gs: tuple(m) for gs, m in members.items()}

    def unreached(self, index: int, agent_id: str) -> frozenset[str]:
        report = self.profiles[index].report
        assert report is not None
        return report.unreached(agent_id)

    def profile_geq(self, first: int, second: int, agent_id: str) -> bool:
        """first is at least as good as second for the agent."""
        order = self.spec.agent(agent_id).priority
        return set_geq(self.unreached(second, agent_id),
                       self.unreached(first, agent_id), order)

    def strictly_better(self, first: int, second: int, agent_id: str) -> bool:
        return (self.profile_geq(first, second, agent_id)
                and not self.profile_geq(second, first, agent_id))


def agent_extensions(spec: AgentSystemSpec, *,
                     max_decisions: int = DEFAULT_DECISION_CAP
                     ) -> dict[str, dict[Decision, Extension]]:
    """Each agent's extension of each of its candidate decisions, built
    once, in agent order and canonical decision order."""
    return {agent.id: {d: agent_extension(spec, agent.id, d)
                       for d in enumerate_decisions(
                           spec, agent.id, max_decisions=max_decisions)}
            for agent in spec.agents}


def evaluate_product(spec: AgentSystemSpec,
                     decisions: dict[str, dict[Decision, Extension]], *,
                     max_profiles: int = DEFAULT_PROFILE_CAP
                     ) -> Iterator[EvaluatedProfile]:
    """Evaluate every profile of the product of the agents' decisions, in
    canonical order, from the agents' extensions of those decisions."""
    total = prod(len(ds) for ds in decisions.values())
    if total > max_profiles:
        raise CombinatorialBoundError(
            f"{total} candidate profiles (cap {max_profiles})")
    for combo in product(*(ds.items() for ds in decisions.values())):
        profile = DecisionProfile(tuple(d for d, _ in combo))
        yield evaluate_profile(spec, profile, tuple(ext for _, ext in combo))


def derive_game(spec: AgentSystemSpec, *,
                max_decisions: int = DEFAULT_DECISION_CAP,
                max_profiles: int = DEFAULT_PROFILE_CAP) -> GameSpecification:
    """Enumerate feasible decisions per agent and keep jointly feasible profiles.

    Each agent's extension of each of its decisions is built once, for the
    feasibility filter and every profile containing that decision.  Each
    candidate profile is evaluated once, and everything downstream reads
    that evaluation.
    """
    feasible = {
        agent: {d: ext for d, ext in built.items() if ext.consistent}
        for agent, built in agent_extensions(
            spec, max_decisions=max_decisions).items()}
    profiles, candidates = [], []
    for ep in evaluate_product(spec, feasible, max_profiles=max_profiles):
        if ep.report is None:
            candidates.append(-1)
        else:
            candidates.append(len(profiles))
            profiles.append(ep)
    return GameSpecification(
        spec=spec,
        profiles=tuple(profiles),
        feasible_decisions={agent: tuple(ds)
                            for agent, ds in feasible.items()},
        candidates=tuple(candidates),
    )


@dataclass(frozen=True)
class ExclusionWitness:
    """Why a profile fails a concept.

    For pareto/strong-pareto: ``other`` is a profile improving on the
    candidate.  For dominant: the candidate's component for ``agent`` is not
    weakly best against profile ``other``.  For nash: ``agent`` gains by
    deviating to ``decision`` (reaching ``other`` when that profile is
    feasible, None under the fail policy).
    """

    agent: str | None = None
    other: int | None = None
    decision: Decision | None = None


@dataclass(frozen=True)
class SolutionReport:
    concept: str
    profile_indexes: tuple[int, ...]
    witnesses: dict[int, ExclusionWitness]


def _unbeaten(game: GameSpecification, concept: str,
              beats: Callable[[int, int], ExclusionWitness | None]
              ) -> SolutionReport:
    """Profiles that no other profile beats.  ``beats(j, i)`` is the witness
    that profile j excludes profile i, or None.

    The concepts built on this compare profiles only through their unreached
    sets, so ``beats`` is asked once per pair of classes, of their first
    members, and profiles of one class never exclude each other.  The first
    excluding class holds the first excluding profile in canonical order,
    its first member, which is the witness.
    """
    included, witnesses = [], {}
    for members in game.classes:
        for others in game.classes:
            witness = (None if others is members
                       else beats(others[0], members[0]))
            if witness is not None:
                witnesses.update(dict.fromkeys(members, witness))
                break
        else:
            included.extend(members)
    return SolutionReport(concept, tuple(sorted(included)),
                          dict(sorted(witnesses.items())))


def pareto(game: GameSpecification) -> SolutionReport:
    """Profiles no feasible alternative strictly improves for every agent."""
    tables = game.preferences

    def beats(j: int, i: int) -> ExclusionWitness | None:
        return (ExclusionWitness(other=j) if all(
            t.better(t.ids[j], t.ids[i]) for t in tables) else None)
    return _unbeaten(game, PARETO, beats)


def strongly_pareto(game: GameSpecification) -> SolutionReport:
    """Profiles with no alternative weakly better for all, strictly for some."""
    tables = game.preferences

    def beats(j: int, i: int) -> ExclusionWitness | None:
        return (ExclusionWitness(other=j)
                if all(t.geq(t.ids[j], t.ids[i]) for t in tables)
                and any(t.better(t.ids[j], t.ids[i]) for t in tables)
                else None)
    return _unbeaten(game, STRONG_PARETO, beats)


def dominant(game: GameSpecification) -> SolutionReport:
    """Profiles every agent finds at least as good as every feasible profile.

    A dominant profile is optimal for each agent regardless of anything the
    others could decide instead, so it tops every agent's order at once.
    A per-component dominant-strategy reading would be strictly weaker: an
    agent that alone controls its favourite world parameter has a dominant
    component even in games of fully opposed interests, which are exactly
    the games meant to have no dominant solution.  Dominant profiles are
    always Nash and Pareto.  The witness names the first agent for whom the
    candidate is not at least as good as the excluding profile.
    """
    agents = game.spec.agent_ids
    tables = game.preferences

    def beats(j: int, i: int) -> ExclusionWitness | None:
        agent = next((a for a, t in zip(agents, tables)
                      if not t.geq(t.ids[i], t.ids[j])), None)
        return None if agent is None else ExclusionWitness(agent=agent,
                                                           other=j)
    return _unbeaten(game, DOMINANT, beats)


def nash(game: GameSpecification, *,
         infeasible_swaps: str = SKIP) -> SolutionReport:
    """Profiles where no agent has a strictly better unilateral deviation.

    Deviations range over the agent's individually feasible decisions;
    deviations that make the joint profile infeasible are skipped under the
    default policy and fail the candidate under the fail policy.  A
    deviation is found by index arithmetic: replacing the agent's digit in
    the candidate's mixed-radix index, then one lookup in ``candidates``.
    """
    agents = game.spec.agent_ids
    radixes = [len(game.feasible_decisions[a]) for a in agents]
    strides = [prod(radixes[k + 1:]) for k in range(len(agents))]
    candidates = game.candidates
    included, witnesses = [], {}
    for c, i in enumerate(candidates):
        if i < 0:
            continue
        witness = None
        for agent_id, prefs, radix, stride in zip(
                agents, game.preferences, radixes, strides):
            digit = c // stride % radix
            base = c - digit * stride
            own = prefs.ids[i]
            for k, deviation in enumerate(game.feasible_decisions[agent_id]):
                if k == digit:
                    continue
                deviated = candidates[base + k * stride]
                if deviated < 0:
                    if infeasible_swaps == FAIL:
                        witness = ExclusionWitness(agent=agent_id,
                                                   decision=deviation)
                        break
                    continue
                if not prefs.geq(own, prefs.ids[deviated]):
                    witness = ExclusionWitness(agent=agent_id, other=deviated,
                                               decision=deviation)
                    break
            if witness is not None:
                break
        if witness is None:
            included.append(i)
        else:
            witnesses[i] = witness
    return SolutionReport(NASH, tuple(included), witnesses)


def solve(game: GameSpecification, concept: str, *,
          infeasible_swaps: str = SKIP) -> SolutionReport:
    """Dispatch by concept name; ``infeasible_swaps`` only affects nash,
    the one concept whose quantifier can leave the feasible set."""
    if concept == PARETO:
        return pareto(game)
    if concept == STRONG_PARETO:
        return strongly_pareto(game)
    if concept == DOMINANT:
        return dominant(game)
    if concept == NASH:
        return nash(game, infeasible_swaps=infeasible_swaps)
    raise ValueError(f"unknown solution concept '{concept}'")
