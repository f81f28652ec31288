"""Derived games and solution concepts over feasible decision profiles.

The game of a specification pairs the jointly feasible profiles (drawn from
the product of each agent's individually feasible decisions) with the
per-agent preference orders induced by unreached desires.  Being a product,
its profiles share most of what they carry, and each shared piece is built
once: each agent's extension of each feasible decision, kept on the game
(``feasible_decisions``) as the parts of the profiles' joint extensions,
which build their formula sets only when read, and each agent's desire
status, shared by the profiles that agree on the joint world mask and on
the decision atoms of the agent's desire rules (``evaluate_product``).

Solution concepts are computed by brute force on small integer tables,
numbered once per game:

- per agent, its order (``orders``): each profile's unreached-set id, and
  per id the bitset of the ids it is at least as good as, each ordered
  pair of distinct sets decided once by ``set_geq``;
- each candidate profile has a mixed-radix index over the agents' feasible
  decisions (last agent fastest, the order of ``itertools.product``), and
  ``candidates`` maps it to its feasible index, or -1.

Every concept reads ``orders``.  Pareto, strong Pareto and dominant
compare the indistinguishability classes (profiles with equal unreached
sets for every agent, which no preference tells apart) through per-agent
bitsets over the classes read off it (``class_bitsets``); Nash reaches
each deviation by index arithmetic and one lookup, and searches once per
(agent, row, own unreached id).  Every exclusion carries a witness that
can be re-validated against the definitions, which ``profile_geq`` and
``strictly_better`` keep: they decide by ``set_geq`` on the unreached
sets, not by the tables.

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

from .decision import (Decision, DecisionProfile, DesireReport,
                       SharedStatuses, _check_profile_cap, agent_extension,
                       desire_report, enumerate_decisions, joint_extension,
                       set_geq)
from .extension import Extension
from .logic import Formula, format_formula
from .model import AgentSystemSpec

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


@dataclass(frozen=True)
class GameSpecification:
    spec: AgentSystemSpec
    profiles: tuple[EvaluatedProfile, ...]  # feasible only, canonical order
    # Per agent, its feasible decisions in canonical order, each with the
    # agent's extension of it: the parts of the profiles' joint extensions.
    feasible_decisions: dict[str, dict[Decision, Extension]]
    # Per candidate profile, by mixed-radix index over feasible_decisions
    # (last agent fastest): its index in profiles, or -1 when infeasible.
    candidates: tuple[int, ...]

    def index_of(self, profile: DecisionProfile) -> int | None:
        return self._index.get(profile)

    @cached_property
    def _index(self) -> dict[DecisionProfile, int]:
        return {ep.profile: i for i, ep in enumerate(self.profiles)}

    @cached_property
    def orders(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per agent, in agent order: each profile's unreached-set id (the
        agent's distinct sets numbered in order of first appearance), and
        per id x a bitset whose bit y is set when a profile with set x is at
        least as good for the agent as one with set y.  Each ordered pair of
        distinct sets is decided once, by ``set_geq``."""
        orders = []
        for agent in self.spec.agents:
            sets: dict[frozenset[str], int] = {}
            ids = tuple(sets.setdefault(ep.report.unreached(agent.id),
                                        len(sets))
                        for ep in self.profiles)
            geq = tuple(sum(1 << y for y, worse in enumerate(sets) if x == y
                            or set_geq(worse, better, agent.priority))
                        for x, better in enumerate(sets))
            orders.append((ids, geq))
        return tuple(orders)

    @cached_property
    def class_ids(self) -> tuple[int, ...]:
        """Each profile's indistinguishability class: profiles share a class
        iff every agent has the same unreached set in both.  Classes are
        numbered in the order of their first members."""
        numbered: dict[tuple[int, ...], int] = {}
        return tuple(numbered.setdefault(key, len(numbered)) for key in
                     zip(*(ids for ids, _ in self.orders)))

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The members of each class, in canonical order."""
        members: list[list[int]] = [[] for _ in set(self.class_ids)]
        for i, c in enumerate(self.class_ids):
            members[c].append(i)
        return tuple(map(tuple, members))

    @cached_property
    def class_bitsets(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per class, per agent, two bitsets over the classes (bit k for
        class k): the classes the agent finds at least as good as this one,
        and those this one is at least as good as.  They are read off each
        agent's ``orders`` per unreached id: ``down`` is the id's row,
        ``up`` the transpose."""
        firsts = [members[0] for members in self.classes]
        per_agent = []
        for ids, geq in self.orders:
            # The classes with each unreached id.
            holding = [0] * len(geq)
            for k, i in enumerate(firsts):
                holding[ids[i]] |= 1 << k
            sets = range(len(geq))
            up = [sum(holding[y] for y in sets if geq[y] >> x & 1)
                  for x in sets]
            down = [sum(holding[y] for y in sets if row >> y & 1)
                    for row in geq]
            per_agent.append([(up[ids[i]], down[ids[i]]) for i in firsts])
        return tuple(zip(*per_agent))

    @cached_property
    def goal_sets(self) -> tuple[GoalSet, ...]:
        """Each profile's goal set, read off its desire report: the
        consequents of the desires it reaches and the antecedents of those
        it leaves inapplicable, over every agent's desires.  Each distinct
        report is read once; the profiles sharing it share its goal set."""
        rules = [(a.id, r) for a in self.spec.agents for r in a.desires]
        reports = {id(ep.report): ep.report for ep in self.profiles}
        read = {key: GoalSet(
            frozenset(r.consequent for a, r in rules
                      if r.id in report.per_agent[a].reached),
            frozenset(r.antecedent for a, r in rules
                      if r.id in report.per_agent[a].inapplicable))
            for key, report in reports.items()}
        return tuple(read[id(ep.report)] for ep in self.profiles)

    @cached_property
    def goal_set_members(self) -> dict[GoalSet, tuple[int, ...]]:
        """The profiles generating each distinct goal set, in canonical
        order; goal sets in the order of their first generators."""
        members: dict[GoalSet, list[int]] = {}
        for i, gs in enumerate(self.goal_sets):
            members.setdefault(gs, []).append(i)
        return {gs: tuple(m) for gs, m in members.items()}

    def unreached(self, index: int, agent_id: str) -> frozenset[str]:
        return self.profiles[index].report.unreached(agent_id)

    def profile_geq(self, first: int, second: int, agent_id: str) -> bool:
        """first is at least as good as second for the agent."""
        order = self.spec.agent(agent_id).priority
        return set_geq(self.unreached(second, agent_id),
                       self.unreached(first, agent_id), order)

    def strictly_better(self, first: int, second: int, agent_id: str) -> bool:
        return (self.profile_geq(first, second, agent_id)
                and not self.profile_geq(second, first, agent_id))


def agent_extensions(spec: AgentSystemSpec
                     ) -> dict[str, dict[Decision, Extension]]:
    """Each agent's extension of each of its candidate decisions, built
    once, in agent order and canonical decision order."""
    return {agent.id: {d: agent_extension(spec, agent.id, d)
                       for d in enumerate_decisions(spec, agent.id)}
            for agent in spec.agents}


def evaluate_product(spec: AgentSystemSpec,
                     decisions: dict[str, dict[Decision, Extension]]
                     ) -> Iterator[EvaluatedProfile]:
    """Evaluate every profile of the product of the agents' decisions, in
    canonical order, from the agents' extensions of those decisions: its
    joint extension and, when that is consistent, its desire report.

    Per profile only what differs is built: the profile, its joint
    extension, which holds its parts and no mask or formula set
    (``Extension.joint``), and the ``EvaluatedProfile``.  A report reads
    only the joint world mask and the profile's values on the decision
    atoms of the desire rules.  So before the loop each decision gets one
    int: the id of its extension's mask and the id of its values on those
    atoms, each among its agent's, in mixed radix over the agents.  A
    profile's ints add up to the ids of its parts' masks and of its values;
    the first profile with given part masks numbers their joint mask, and
    the first with a given (joint mask, values) gets its report from
    ``desire_report``, which later ones share.  Desire statuses are shared
    through one ``SharedStatuses``.  Every memo dies with the pass.
    """
    _check_profile_cap(spec, prod(len(ds) for ds in decisions.values()))
    desire_atoms = {a for atoms, _ in spec.desire_masks for a in atoms}
    columns = []  # per agent: its decisions, their extensions, mask codes
    value_codes = []  # per agent: its decisions' desire-value codes
    mask_radix = value_radix = 1
    for ds in decisions.values():
        mask_ids: dict[int, int] = {}
        value_ids: dict[frozenset, int] = {}
        columns.append((tuple(ds), tuple(ds.values()), [
            mask_radix * mask_ids.setdefault(ext.models, len(mask_ids))
            for ext in ds.values()]))
        value_codes.append([value_radix * value_ids.setdefault(frozenset(
            lit for lit in d.literals if lit.atom in desire_atoms),
            len(value_ids)) for d in ds])
        mask_radix *= len(mask_ids) or 1
        value_radix *= len(value_ids) or 1
    codes = [[m * value_radix + v for m, v in zip(masks, vs)]
             for (_, _, masks), vs in zip(columns, value_codes)]
    shared = SharedStatuses()
    joint_ids: dict[int, int] = {}
    reports: dict[int, DesireReport] = {}
    for chosen, parts, code in zip(product(*(c[0] for c in columns)),
                                   product(*(c[1] for c in columns)),
                                   product(*codes)):
        profile = DecisionProfile(chosen)
        ext = joint_extension(spec, profile, parts)
        if not ext.consistent:
            yield EvaluatedProfile(profile, ext, None)
            continue
        masks, values = divmod(sum(code), value_radix)
        mask_id = joint_ids.get(masks)
        if mask_id is None:
            mask_id = joint_ids[masks] = shared.mask_ids.setdefault(
                ext.models, len(shared.mask_ids))
        key = mask_id * value_radix + values
        report = reports.get(key)
        if report is None:
            report = reports[key] = desire_report(spec, profile, ext, shared)
        yield EvaluatedProfile(profile, ext, report)


def derive_game(spec: AgentSystemSpec) -> GameSpecification:
    """Enumerate feasible decisions per agent and keep jointly feasible profiles.

    Each agent's extension of each of its decisions is built once, for the
    feasibility filter and every profile containing that decision, and the
    game keeps it: the profiles' joint extensions are made of these parts,
    and the CLI's JSON reports print them.  Each candidate profile is
    evaluated once, and everything downstream reads that evaluation.  The
    enumeration caps are the spec's (``max_decisions``, ``max_profiles``).
    """
    feasible = {
        agent: {d: ext for d, ext in built.items() if ext.consistent}
        for agent, built in agent_extensions(spec).items()}
    profiles, candidates = [], []
    for ep in evaluate_product(spec, feasible):
        if ep.report is None:
            candidates.append(-1)
        else:
            candidates.append(len(profiles))
            profiles.append(ep)
    return GameSpecification(
        spec=spec,
        profiles=tuple(profiles),
        feasible_decisions=feasible,
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


def _by_classes(game: GameSpecification, concept: str,
                excluding: Callable[[int], int],
                agent: Callable[[int, int], str] | None = None
                ) -> SolutionReport:
    """Profiles of the classes that no class excludes.  ``excluding(c)`` is
    the bitset of the classes that exclude class c, read off
    ``game.class_bitsets``; ``agent(c, k)``, when given, names the agent
    the witness that class k excludes class c names.

    The concepts built on this compare profiles only through their unreached
    sets, so profiles of one class never exclude each other, and a class's
    first member stands for it.  The lowest excluding class holds the first
    excluding profile in canonical order, its first member, which is the
    witness.
    """
    included, witnesses = [], {}
    for c, members in enumerate(game.classes):
        bits = excluding(c)
        if bits:
            k = (bits & -bits).bit_length() - 1
            witnesses.update(dict.fromkeys(members, ExclusionWitness(
                agent=None if agent is None else agent(c, k),
                other=game.classes[k][0])))
        else:
            included.extend(members)
    return SolutionReport(concept, tuple(sorted(included)),
                          dict(sorted(witnesses.items())))


def pareto(game: GameSpecification) -> SolutionReport:
    """Profiles no feasible alternative strictly improves for every agent."""
    rows = game.class_bitsets
    everything = (1 << len(rows)) - 1

    def excluding(c: int) -> int:
        bits = everything
        for up, down in rows[c]:
            bits &= up & ~down
        return bits
    return _by_classes(game, PARETO, excluding)


def strongly_pareto(game: GameSpecification) -> SolutionReport:
    """Profiles with no alternative weakly better for all, strictly for some."""
    rows = game.class_bitsets
    everything = (1 << len(rows)) - 1

    def excluding(c: int) -> int:
        weakly = equal = everything
        for up, down in rows[c]:
            weakly &= up
            equal &= down
        return weakly & ~equal
    return _by_classes(game, STRONG_PARETO, excluding)


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
    rows = game.class_bitsets
    everything = (1 << len(rows)) - 1

    def excluding(c: int) -> int:
        bits = 0
        for _, down in rows[c]:
            bits |= everything & ~down
        return bits

    def agent(c: int, k: int) -> str:
        return next(a for a, (_, down) in zip(agents, rows[c])
                    if not down >> k & 1)
    return _by_classes(game, DOMINANT, excluding, agent)


def nash(game: GameSpecification, *,
         infeasible_swaps: str = SKIP) -> SolutionReport:
    """Profiles where no agent has a strictly better unilateral deviation.

    Deviations range over the agent's feasible decisions; those that make
    the profile infeasible are skipped (``skip``, the default) or fail the
    candidate (``fail``); another policy raises ``ValueError``.  A deviation
    is one digit of the candidate's mixed-radix index replaced, one lookup
    in ``candidates`` and one bit of the agent's ``orders``.

    An agent's deviations from a candidate are those of its row (the other
    agents' digits), and which of them wins depends only on the candidate's
    own unreached id: the candidate's own decision is never infeasible and
    never better than itself.  So the search runs once per (agent, row, own
    id), and the candidates that share all three share its result.
    """
    if infeasible_swaps not in (SKIP, FAIL):
        raise ValueError(
            f"unknown infeasible_swaps policy '{infeasible_swaps}'")
    fail = infeasible_swaps == FAIL
    agents = game.spec.agent_ids
    radixes = [len(game.feasible_decisions[a]) for a in agents]
    strides = [prod(radixes[k + 1:]) for k in range(len(agents))]
    candidates = game.candidates

    def first_deviation(agent_id: str, ids: tuple[int, ...], row: int,
                        deviations: tuple[Decision, ...], stride: int,
                        base: int) -> ExclusionWitness | None:
        for k, deviation in enumerate(deviations):
            deviated = candidates[base + k * stride]
            if deviated < 0:
                if fail:
                    return ExclusionWitness(agent=agent_id,
                                            decision=deviation)
            elif not row >> ids[deviated] & 1:
                return ExclusionWitness(agent=agent_id, other=deviated,
                                        decision=deviation)
        return None

    searches = [(agent_id, ids, geq, tuple(game.feasible_decisions[agent_id]),
                 radix, stride, {})
                for agent_id, (ids, geq), radix, stride in zip(
                    agents, game.orders, radixes, strides)]
    included, witnesses = [], {}
    for c, i in enumerate(candidates):
        if i < 0:
            continue
        witness = None
        for agent_id, ids, geq, deviations, radix, stride, known in searches:
            base = c - c // stride % radix * stride
            own = ids[i]
            key = (base, own)
            if key in known:
                witness = known[key]
            else:
                witness = known[key] = first_deviation(
                    agent_id, ids, geq[own], deviations, stride, base)
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
