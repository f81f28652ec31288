"""Candidate decisions, joint extensions, feasibility, and preference orders.

A decision is a consistent literal set over one agent's decision atoms that
contains the agent's initial decision.  A profile holds one decision per
agent.  The joint extension of a profile is the union of the per-agent
belief extensions; a profile is feasible when that union is consistent.

Profiles are compared through unreached desires: a desire is unreached when
the joint extension entails its antecedent but not its consequent.  The
per-rule priority is lifted to sets (every disadvantage must be outweighed
by a strictly higher-priority advantage), and the profile with the smaller
lifted unreached set wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Mapping

from .errors import (CombinatorialBoundError, CrossAgentRuleError,
                     InfeasibleProfileError)
from .extension import Extension, extension
from .logic import (Formula, Literal, Not, conditioned_models,
                    literal_sort_key)
from .model import AgentSystemSpec, DecisionMode, PriorityOrder

DEFAULT_DECISION_CAP = 4096
DEFAULT_PROFILE_CAP = 1 << 16


@dataclass(frozen=True)
class Decision:
    agent: str
    literals: frozenset[Literal]

    def sorted_literals(self) -> tuple[Literal, ...]:
        return tuple(sorted(self.literals, key=literal_sort_key))

    def formulas(self) -> frozenset[Formula]:
        return frozenset(lit.formula() for lit in self.literals)

    def __str__(self) -> str:
        return "{" + ", ".join(str(l) for l in self.sorted_literals()) + "}"


@dataclass(frozen=True)
class DecisionProfile:
    decisions: tuple[Decision, ...]

    def decision_for(self, agent: str) -> Decision:
        for d in self.decisions:
            if d.agent == agent:
                return d
        raise KeyError(f"no decision for agent '{agent}'")

    def with_decision(self, decision: Decision) -> "DecisionProfile":
        return DecisionProfile(tuple(
            decision if d.agent == decision.agent else d
            for d in self.decisions))

    def __str__(self) -> str:
        return "<" + ", ".join(f"{d.agent}={d}" for d in self.decisions) + ">"


@dataclass(frozen=True)
class AgentDesireStatus:
    """Classification of one agent's desires against a joint extension.

    unreached: antecedent entailed, consequent not entailed
    reached: antecedent and consequent entailed
    violated: antecedent and negated consequent entailed
    inapplicable: antecedent not entailed

    The four sets jointly cover the agent's desires; for consistent
    extensions violated is a subset of unreached and the other three are
    pairwise disjoint.
    """

    unreached: frozenset[str]
    reached: frozenset[str]
    violated: frozenset[str]
    inapplicable: frozenset[str]


@dataclass(frozen=True)
class DesireReport:
    per_agent: Mapping[str, AgentDesireStatus]

    def unreached(self, agent: str) -> frozenset[str]:
        return self.per_agent[agent].unreached


def enumerate_decisions(spec: AgentSystemSpec, agent_id: str, *,
                        max_decisions: int = DEFAULT_DECISION_CAP
                        ) -> tuple[Decision, ...]:
    """All candidate decisions of the configured mode, canonically ordered.

    Every candidate contains the agent's initial decision.  An agent with no
    decision atoms has exactly one (empty) decision.
    """
    agent = spec.agent(agent_id)
    atoms = tuple(sorted(agent.decision_atoms))
    mode = spec.decision_mode
    count = (3 if mode is DecisionMode.LITERAL_SUBSETS else 2) ** len(atoms)
    if count > max_decisions:
        raise CombinatorialBoundError(
            f"agent '{agent_id}' has {count} candidate decisions "
            f"(cap {max_decisions})")
    if mode is DecisionMode.POSITIVE_SUBSETS:
        per_atom = [(Literal(a), None) for a in atoms]
    elif mode is DecisionMode.TOTAL_ASSIGNMENTS:
        per_atom = [(Literal(a), Literal(a, False)) for a in atoms]
    else:
        per_atom = [(Literal(a), Literal(a, False), None) for a in atoms]
    out = []
    for chosen in product(*per_atom):
        literals = frozenset(lit for lit in chosen if lit is not None)
        if agent.initial_decision <= literals:
            out.append(Decision(agent_id, literals))
    return tuple(out)


def enumerate_profiles(spec: AgentSystemSpec, *,
                       max_decisions: int = DEFAULT_DECISION_CAP,
                       max_profiles: int = DEFAULT_PROFILE_CAP
                       ) -> tuple[DecisionProfile, ...]:
    """Cartesian product of the agents' candidate decisions, in agent order."""
    per_agent = [enumerate_decisions(spec, a.id, max_decisions=max_decisions)
                 for a in spec.agents]
    total = 1
    for ds in per_agent:
        total *= len(ds)
    if total > max_profiles:
        raise CombinatorialBoundError(
            f"{total} candidate profiles (cap {max_profiles})")
    return tuple(DecisionProfile(combo) for combo in product(*per_agent))


def agent_extension(spec: AgentSystemSpec, agent_id: str,
                    decision: Decision) -> Extension:
    """The agent's own belief extension of its facts plus one decision.

    Its model mask ranges over the world atoms, with the decision's
    literals substituted.  Other agents' decisions are invisible here: a
    belief rule whose antecedent mentions a foreign decision atom only
    fires if it holds for every value of that atom.
    """
    agent = spec.agent(agent_id)
    return extension(agent.beliefs, agent.facts, atoms=spec.mask_atoms,
                     max_atoms=spec.max_atoms, fixed=decision.literals)


def joint_extension(spec: AgentSystemSpec, profile: DecisionProfile,
                    parts: tuple[Extension, ...] | None = None) -> Extension:
    """Union of the per-agent belief extensions, with a joint consistency flag.

    ``parts`` are the agents' extensions of the profile's decisions, in
    agent order, for a caller that has built them with ``agent_extension``
    already; by default they are built here.  The agents' decision atoms
    are disjoint, so the union's model mask over the world atoms is the AND
    of the parts' masks, and it is consistent iff that is not empty.
    ``iterations`` is the largest per-agent round count.
    """
    if parts is None:
        parts = tuple(agent_extension(spec, a.id, profile.decision_for(a.id))
                      for a in spec.agents)
    base: set[Formula] = set()
    derived: set[Formula] = set()
    joint = -1  # every assignment
    for ext in parts:
        base |= ext.base
        derived |= ext.derived
        joint &= ext.models
    derived -= base
    return Extension(
        base=frozenset(base),
        derived=frozenset(derived),
        iterations=max((ext.iterations for ext in parts), default=0),
        consistent=joint != 0,
        models=joint,
    )


def is_feasible_decision(spec: AgentSystemSpec, agent_id: str,
                         decision: Decision) -> bool:
    return agent_extension(spec, agent_id, decision).consistent


def is_feasible_profile(spec: AgentSystemSpec, profile: DecisionProfile) -> bool:
    return joint_extension(spec, profile).consistent


def desire_report(spec: AgentSystemSpec, profile: DecisionProfile,
                  ext: Extension | None = None) -> DesireReport:
    """Classify every agent's desires against the joint extension.

    ``ext`` is the profile's joint extension, built here by default.  Each
    antecedent, consequent or negated-consequent query is one AND of the
    extension's world mask against the world assignments where the query
    fails.  Those come from the spec's table (``AgentSystemSpec.desire_masks``)
    by the profile's values on the rule's decision atoms, and are
    conditioned once per entry.
    Undefined on infeasible profiles: an inconsistent extension entails
    everything, which would make every desire reached and violated at once.
    """
    if ext is None:
        ext = joint_extension(spec, profile)
    if not ext.consistent:
        raise InfeasibleProfileError(
            f"profile {profile} has an inconsistent extension")
    world = spec.mask_atoms
    full = (1 << (1 << len(world))) - 1
    fixed = {lit.atom: lit.positive
             for d in profile.decisions for lit in d.literals}
    theory = ext.models
    per_agent = {}
    for agent, rows in zip(spec.agents, spec.desire_masks):
        unreached, reached, violated, inapplicable = set(), set(), set(), set()
        for rule, atoms, table in rows:
            values = tuple(fixed.get(a) for a in atoms)
            failing = table.get(values)
            if failing is None:
                given = {a: v for a, v in zip(atoms, values) if v is not None}
                failing = table[values] = tuple(
                    full ^ conditioned_models(f, given, world) for f in
                    (rule.antecedent, rule.consequent, Not(rule.consequent)))
            antecedent, consequent, negated = failing
            if theory & antecedent:
                inapplicable.add(rule.id)
            elif not theory & consequent:
                reached.add(rule.id)
            else:
                unreached.add(rule.id)
                if not theory & negated:
                    violated.add(rule.id)
        per_agent[agent.id] = AgentDesireStatus(
            frozenset(unreached), frozenset(reached),
            frozenset(violated), frozenset(inapplicable))
    return DesireReport(per_agent)


# ---------------------------------------------------------------------------
# Lifted preference
# ---------------------------------------------------------------------------

class SetComparison(Enum):
    SUCCEEDS = "succeeds"
    PRECEDES = "precedes"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


class ProfileComparison(Enum):
    BETTER = "better"
    WORSE = "worse"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def set_geq(first: Iterable[str], second: Iterable[str],
            order: PriorityOrder) -> bool:
    """Lifted order on desire-rule sets.

    ``first`` is at least as high as ``second`` when every rule in
    ``second - first`` is outranked by some rule in ``first - second``.
    With the identity order this degenerates to the superset relation.
    """
    first_set, second_set = frozenset(first), frozenset(second)
    gains = first_set - second_set
    return all(
        any(order.strictly_preferred(g, loss) for g in gains)
        for loss in second_set - first_set)


def set_preference(first: Iterable[str], second: Iterable[str],
                   order: PriorityOrder) -> SetComparison:
    """Compare two subsets of one agent's desires under its priority order."""
    first_set, second_set = frozenset(first), frozenset(second)
    foreign = (first_set | second_set) - order.rule_ids
    if foreign:
        raise CrossAgentRuleError(
            f"rule ids outside the order's agent: {', '.join(sorted(foreign))}")
    forward = set_geq(first_set, second_set, order)
    backward = set_geq(second_set, first_set, order)
    if forward and backward:
        return SetComparison.EQUIVALENT
    if forward:
        return SetComparison.SUCCEEDS
    if backward:
        return SetComparison.PRECEDES
    return SetComparison.INCOMPARABLE


_SET_TO_PROFILE = {
    SetComparison.SUCCEEDS: ProfileComparison.BETTER,
    SetComparison.PRECEDES: ProfileComparison.WORSE,
    SetComparison.EQUIVALENT: ProfileComparison.EQUAL,
    SetComparison.INCOMPARABLE: ProfileComparison.INCOMPARABLE,
}


def compare_unreached(first_unreached: Iterable[str],
                      second_unreached: Iterable[str],
                      order: PriorityOrder) -> ProfileComparison:
    """Profile comparison from two unreached sets.

    Note the inversion: the profile whose unreached set sits lower in the
    lifted order is the better one, so the roles are swapped before the set
    comparison.
    """
    return _SET_TO_PROFILE[
        set_preference(second_unreached, first_unreached, order)]


def compare_profiles(spec: AgentSystemSpec, first: DecisionProfile,
                     second: DecisionProfile, agent_id: str) -> ProfileComparison:
    """How ``first`` relates to ``second`` for one agent.  Both must be feasible."""
    order = spec.agent(agent_id).priority
    u_first = desire_report(spec, first).unreached(agent_id)
    u_second = desire_report(spec, second).unreached(agent_id)
    return compare_unreached(u_first, u_second, order)
