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
from math import prod
from typing import Iterable, Mapping

from .errors import (CombinatorialBoundError, CrossAgentRuleError,
                     InfeasibleProfileError)
from .extension import Extension
from .logic import Formula, Literal, consistent_literals, literal_sort_key
# The caps' defaults live with the spec; their names stay importable here.
from .model import (DEFAULT_DECISION_CAP, DEFAULT_PROFILE_CAP,
                    AgentSystemSpec, DecisionMode, PriorityOrder)


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


def enumerate_decisions(spec: AgentSystemSpec,
                        agent_id: str) -> tuple[Decision, ...]:
    """All candidate decisions of the configured mode, canonically ordered.

    Every candidate contains the agent's initial decision.  An agent with no
    decision atoms has exactly one (empty) decision.  More candidates than
    ``spec.max_decisions`` raise ``CombinatorialBoundError``.
    """
    agent = spec.agent(agent_id)
    atoms = tuple(sorted(agent.decision_atoms))
    mode = spec.decision_mode
    count = (3 if mode is DecisionMode.LITERAL_SUBSETS else 2) ** len(atoms)
    if count > spec.max_decisions:
        raise CombinatorialBoundError(
            f"agent '{agent_id}' has {count} candidate decisions "
            f"(cap {spec.max_decisions})")
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


def enumerate_profiles(spec: AgentSystemSpec) -> tuple[DecisionProfile, ...]:
    """Cartesian product of the agents' candidate decisions, in agent order."""
    per_agent = [enumerate_decisions(spec, a.id) for a in spec.agents]
    _check_profile_cap(spec, prod(map(len, per_agent)))
    return tuple(DecisionProfile(combo) for combo in product(*per_agent))


def _check_profile_cap(spec: AgentSystemSpec, count: int) -> None:
    """Refuse more candidate profiles than ``spec.max_profiles``."""
    if count > spec.max_profiles:
        raise CombinatorialBoundError(
            f"{count} candidate profiles (cap {spec.max_profiles})")


def agent_extension(spec: AgentSystemSpec, agent_id: str,
                    decision: Decision) -> Extension:
    """The agent's own belief extension of its facts plus one decision.

    Its model mask ranges over the world atoms a theory can constrain
    (``AgentSystemSpec.mask_atoms``), with the decision's literals
    substituted.  A belief rule whose antecedent mentions any other atom
    (one of the decision's unset atoms, another agent's, or a world atom no
    theory constrains) only fires if it holds for every value of that atom.

    It equals ``extension.extension`` of the agent's beliefs on that base,
    and runs on the agent's record of ``AgentSystemSpec.compiled``: the
    facts and consequents are compiled once per agent, each antecedent's
    ``RuleEntry`` once per distinct value tuple on its decision atoms, and
    rules fire by consequent number; a rule whose consequent is in is not
    tested again, and one concluding a fact has no row.  Decision literals
    with both polarities of an atom have no model: the theory is
    inconsistent and every rule fires.
    """
    try:
        record = spec.compiled[agent_id]
    except KeyError:
        raise KeyError(f"no agent '{agent_id}'") from None
    values = {lit.atom: lit.positive for lit in decision.literals}
    pending = []  # the rules whose consequent is not in the theory
    for entry, bit in record.beliefs:
        key = tuple(map(values.get, entry.atoms))
        pending.append((bit, (entry.table.get(key) or entry.compile(key))[0]))
    theory = record.facts_mask if consistent_literals(decision.literals) else 0
    fired = rounds = 0  # consequents in the theory, by number
    while True:  # each productive round adds one of the consequents
        new = 0
        for bit, holds in pending:
            if theory & holds == theory:
                new |= bit
        if not new:
            break
        fired |= new
        pending = [rule for rule in pending if not rule[0] & fired]
        for number, mask in enumerate(record.consequent_masks):
            if new >> number & 1:
                theory &= mask
        rounds += 1
    derived = record.derived.get(fired)
    if derived is None:
        derived = record.derived[fired] = frozenset(
            f for number, f in enumerate(record.consequents)
            if fired >> number & 1)
    return Extension(record.facts | decision.formulas(), derived, rounds,
                     theory != 0, theory)


def joint_extension(spec: AgentSystemSpec,
                    profile: DecisionProfile | None = None,
                    parts: tuple[Extension, ...] | None = None) -> Extension:
    """Union of the per-agent belief extensions, with a joint consistency flag.

    ``parts`` are the agents' extensions of the profile's decisions, in
    agent order, for a caller that has built them with ``agent_extension``
    already; without them they are built here from ``profile``.  The base is the union of the
    parts' bases, the derived set the union of their derived sets less that
    base, and ``iterations`` the largest part's count.  The agents'
    decision atoms are disjoint, so the union's model mask over the world
    atoms is the AND of the parts' masks, and it is consistent iff that is
    not empty.
    """
    if parts is None:
        parts = tuple(agent_extension(spec, a.id, profile.decision_for(a.id))
                      for a in spec.agents)
    base: set[Formula] = set()
    derived: set[Formula] = set()
    theory = -1  # every assignment
    for ext in parts:
        base |= ext.base
        derived |= ext.derived
        theory &= ext.models
    return Extension(frozenset(base), frozenset(derived - base),
                     max((ext.iterations for ext in parts), default=0),
                     theory != 0, theory)


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
    extension's world mask with a model mask of the rule's ``RuleEntry``
    (``AgentSystemSpec.compiled``), read by the profile's values on the
    rule's decision atoms (``_classify``, which the product pass shares).
    Undefined on infeasible profiles: an inconsistent extension entails
    everything, which would make every desire reached and violated at once.
    """
    if ext is None:
        ext = joint_extension(spec, profile)
    if not ext.consistent:
        raise InfeasibleProfileError(
            f"profile {profile} has an inconsistent extension")
    fixed = {lit.atom: lit.positive
             for d in profile.decisions for lit in d.literals}
    theory, statuses = ext.models, {}
    return DesireReport({
        agent: _classify(record.desires, fixed, theory, statuses)
        for agent, record in spec.compiled.items()})


# A rule's outcome against a joint extension (``_classify``).
_INAPPLICABLE, _REACHED, _UNREACHED, _VIOLATED = range(4)


def _classify(rows, fixed: Mapping[str, bool], theory: int,
              statuses: dict[tuple[int, ...], AgentDesireStatus]
              ) -> AgentDesireStatus:
    """One agent's desire status: ``rows`` are the desire rows of its record
    in ``AgentSystemSpec.compiled``, whose entries are compiled on a miss,
    ``fixed`` the profile's decision values and ``theory`` the joint world
    mask.  A violated desire is unreached too.  A query is entailed iff it
    holds for every value of the atoms outside the mask universe, which no
    theory constrains; so the negated consequent is entailed iff the
    consequent holds for none.  Statuses are interned in ``statuses`` by
    their rules' spec-wide numbers and outcomes, so one dict serves every
    agent and equal statuses are one object."""
    outcomes = []
    for number, _, entry in rows:
        key = tuple(map(fixed.get, entry.atoms))
        antecedent, _, consequent, possible = (entry.table.get(key)
                                               or entry.compile(key))
        if theory & antecedent != theory:
            code = _INAPPLICABLE
        elif theory & consequent == theory:
            code = _REACHED
        else:
            code = _UNREACHED if theory & possible else _VIOLATED
        outcomes.append(number * 4 + code)
    outcomes = tuple(outcomes)
    status = statuses.get(outcomes)
    if status is None:
        sets: tuple[set[str], ...] = (set(), set(), set(), set())
        for (_, rule_id, _), outcome in zip(rows, outcomes):
            sets[outcome & 3].add(rule_id)
        inapplicable, reached, unreached, violated = sets
        status = statuses[outcomes] = AgentDesireStatus(
            frozenset(unreached | violated), frozenset(reached),
            frozenset(violated), frozenset(inapplicable))
    return status


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
    Nothing lost is an answer, and so is a loss with nothing gained; only
    then is the order asked.
    """
    first_set, second_set = frozenset(first), frozenset(second)
    losses = second_set - first_set
    if not losses:
        return True
    gains = first_set - second_set
    if not gains:
        return False
    preferred = order.strictly_preferred
    for loss in losses:
        for g in gains:
            if preferred(g, loss):
                break
        else:
            return False
    return True


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
