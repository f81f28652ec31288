"""Derived games and solution concepts over feasible decision profiles.

The game of a specification pairs the jointly feasible profiles (drawn from
the product of each agent's individually feasible decisions) with the
per-agent preference orders induced by unreached desires.  Solution concepts
are computed by brute force: Pareto, strong Pareto and dominant over the
indistinguishability classes (profiles with equal unreached sets for every
agent, which no preference tells apart), Nash over the feasible profiles.
Every exclusion carries a witness that can be re-validated against the
definitions.

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
from .model import AgentSystemSpec

SKIP = "skip"
FAIL = "fail"

PARETO = "pareto"
STRONG_PARETO = "strong-pareto"
DOMINANT = "dominant"
NASH = "nash"
CONCEPTS = (PARETO, STRONG_PARETO, DOMINANT, NASH)


@dataclass(frozen=True)
class EvaluatedProfile:
    profile: DecisionProfile
    extension: Extension
    report: DesireReport | None  # None when the profile is infeasible


def evaluate_profile(spec: AgentSystemSpec, profile: DecisionProfile,
                     parts: tuple[Extension, ...] | None = None
                     ) -> EvaluatedProfile:
    """The joint extension and desire report of one profile; ``parts`` are
    the agents' extensions of its decisions, as for ``joint_extension``."""
    ext = joint_extension(spec, profile, parts)
    report = desire_report(spec, profile, ext) if ext.consistent else None
    return EvaluatedProfile(profile, ext, report)


@dataclass(frozen=True)
class GameSpecification:
    spec: AgentSystemSpec
    profiles: tuple[EvaluatedProfile, ...]  # feasible only, canonical order
    feasible_decisions: dict[str, tuple[Decision, ...]]

    def index_of(self, profile: DecisionProfile) -> int | None:
        return self._index.get(profile)

    @cached_property
    def _index(self) -> dict[DecisionProfile, int]:
        return {ep.profile: i for i, ep in enumerate(self.profiles)}

    @cached_property
    def class_ids(self) -> tuple[int, ...]:
        """Each profile's indistinguishability class: profiles share a class
        iff every agent has the same unreached set in both.  Classes are
        numbered in the order of their first members."""
        agents = self.spec.agent_ids
        ids: dict[tuple, int] = {}
        return tuple(
            ids.setdefault(tuple(ep.report.unreached(a) for a in agents),
                           len(ids))
            for ep in self.profiles)

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The members of each class, in canonical order."""
        members: list[list[int]] = [[] for _ in set(self.class_ids)]
        for i, c in enumerate(self.class_ids):
            members[c].append(i)
        return tuple(map(tuple, members))

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
    evaluated = evaluate_product(spec, feasible, max_profiles=max_profiles)
    return GameSpecification(
        spec=spec,
        profiles=tuple(ep for ep in evaluated if ep.report is not None),
        feasible_decisions={agent: tuple(ds)
                            for agent, ds in feasible.items()},
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
    agents = game.spec.agent_ids

    def beats(j: int, i: int) -> ExclusionWitness | None:
        return (ExclusionWitness(other=j) if all(
            game.strictly_better(j, i, a) for a in agents) else None)
    return _unbeaten(game, PARETO, beats)


def strongly_pareto(game: GameSpecification) -> SolutionReport:
    """Profiles with no alternative weakly better for all, strictly for some."""
    agents = game.spec.agent_ids

    def beats(j: int, i: int) -> ExclusionWitness | None:
        return (ExclusionWitness(other=j)
                if all(game.profile_geq(j, i, a) for a in agents)
                and any(game.strictly_better(j, i, a) for a in agents)
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

    def beats(j: int, i: int) -> ExclusionWitness | None:
        agent = next((a for a in agents if not game.profile_geq(i, j, a)),
                     None)
        return None if agent is None else ExclusionWitness(agent=agent,
                                                           other=j)
    return _unbeaten(game, DOMINANT, beats)


def nash(game: GameSpecification, *,
         infeasible_swaps: str = SKIP) -> SolutionReport:
    """Profiles where no agent has a strictly better unilateral deviation.

    Deviations range over the agent's individually feasible decisions;
    deviations that make the joint profile infeasible are skipped under the
    default policy and fail the candidate under the fail policy.  A
    deviation into the candidate's own class gains nothing.
    """
    included, witnesses = [], {}
    for i, candidate in enumerate(game.profiles):
        witness = None
        for agent_id in game.spec.agent_ids:
            current = candidate.profile.decision_for(agent_id)
            for deviation in game.feasible_decisions[agent_id]:
                if deviation == current:
                    continue
                deviated = game.index_of(
                    candidate.profile.with_decision(deviation))
                if deviated is None:
                    if infeasible_swaps == FAIL:
                        witness = ExclusionWitness(agent=agent_id,
                                                   decision=deviation)
                        break
                    continue
                if (game.class_ids[deviated] != game.class_ids[i]
                        and not game.profile_geq(i, deviated, agent_id)):
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
