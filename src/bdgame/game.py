"""Derived games and solution concepts over feasible decision profiles.

The game of a specification pairs the jointly feasible profiles (drawn from
the product of each agent's individually feasible decisions) with the
per-agent preference orders induced by unreached desires.  Being a product,
a game is stored as columns, not as one object per profile.  Each candidate
profile has a mixed-radix index over the agents' feasible decisions (last
agent fastest, the order of ``itertools.product``), and every fact the
solver needs about it is a function of that index.  One pass over the
product (``_product_columns``) fills three columns:

- ``candidates``: per candidate profile, its feasible index, or -1;
- ``positions``: per feasible profile, its candidate index;
- ``reports``: per feasible profile, its desire report.

Shared pieces are built once: each agent's extension of each feasible
decision, kept on the game (``feasible_decisions``) as the parts of the
profiles' joint extensions; each joint extension (``joint_extension``),
which decides joint consistency once per distinct tuple of part masks; and
each agent's desire status, shared by the profiles that agree on the joint
world mask and on the decision atoms of the agent's desire rules, as are
the reports made of equal statuses.
Everything downstream reads the columns; ``profile`` decodes a profile
object from its candidate's digits where one is asked for, and keeps none.

Solution concepts are computed by brute force on small integer tables,
numbered once per game from the ``reports`` column: per agent, its order
(``orders``), each profile's unreached-set id and per id the bitset of the
ids it is at least as good as, each ordered pair of distinct sets decided
once by ``set_geq``.

Every concept reads ``orders``.  Pareto, strong Pareto and dominant
compare the indistinguishability classes (profiles with equal unreached
sets for every agent, which no preference tells apart) through per-agent
bitsets over the classes read off it (``class_bitsets``); Nash reaches
each deviation by index arithmetic and one lookup, and searches once per
(agent, row, own unreached id).  A solution is one column over the
feasible profiles: None for a profile in it, else a witness of its
exclusion that can be re-validated against the definitions, which
``profile_geq`` and ``strictly_better`` keep: they decide by ``set_geq``
on the unreached sets, not by the tables.

Swapping one agent's decision into a profile can produce a jointly
infeasible profile even when both components are individually feasible.
Such Nash deviations are skipped by default (an impossible profile neither
rewards nor punishes anyone); ``fail_infeasible_swaps=True`` makes them
fail the candidate instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, product, repeat
from math import prod
from operator import is_
from typing import Callable

from .decision import (AgentDesireStatus, Decision, DecisionProfile,
                       DesireReport, _check_profile_cap, _classify,
                       agent_extension, enumerate_decisions, joint_extension,
                       set_geq)
from .extension import Extension
from .logic import Formula, format_formula
from .model import AgentSystemSpec

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


def goal_set_key(gs: GoalSet, text: Callable[[Formula], str] = format_formula
                 ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The goal set's formulas, printed by ``text`` and sorted: the
    canonical order."""
    return (tuple(sorted(map(text, gs.positive))),
            tuple(sorted(map(text, gs.negative))))


@dataclass(frozen=True)
class GameSpecification:
    spec: AgentSystemSpec
    # Per agent, its feasible decisions in canonical order, each with the
    # agent's extension of it: the parts of the profiles' joint extensions.
    feasible_decisions: dict[str, dict[Decision, Extension]]
    # Per candidate profile, by mixed-radix index over feasible_decisions
    # (last agent fastest): its feasible index, or -1 when infeasible.
    candidates: tuple[int, ...]
    # Per feasible profile, in canonical order: its candidate index ...
    positions: tuple[int, ...]
    # ... and its desire report; profiles share equal reports.
    reports: tuple[DesireReport, ...]

    def profile(self, index: int) -> DecisionProfile:
        """Feasible profile ``index``, decoded from its candidate's digits
        (the inverse of ``index_of``); built per call and not kept."""
        c = self.positions[index]
        return DecisionProfile(tuple([
            decisions[c // stride % radix]
            for decisions, _, stride, radix in self._digits]))

    def index_of(self, profile: DecisionProfile) -> int | None:
        """The profile's feasible index, from its digits; None when it is
        not a feasible profile of the game."""
        if len(profile.decisions) != len(self._digits):
            return None
        c = 0
        for (_, digits, stride, _), d in zip(self._digits, profile.decisions):
            digit = digits.get(d)
            if digit is None:
                return None
            c += digit * stride
        i = self.candidates[c]
        return i if i >= 0 else None

    @cached_property
    def _digits(self) -> tuple[tuple[tuple[Decision, ...],
                                     dict[Decision, int], int, int], ...]:
        """Per agent, its feasible decisions by digit, each one's digit, and
        its digit's stride and radix in a candidate index (last agent
        fastest)."""
        lists = [tuple(ds) for ds in self.feasible_decisions.values()]
        return tuple((ds, {d: k for k, d in enumerate(ds)},
                      prod(map(len, lists[k + 1:])), len(ds))
                     for k, ds in enumerate(lists))

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
            ids = tuple(sets.setdefault(report.unreached(agent.id),
                                        len(sets))
                        for report in self.reports)
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
        reports = {id(report): report for report in self.reports}
        read = {key: GoalSet(
            frozenset(r.consequent for a, r in rules
                      if r.id in report.per_agent[a].reached),
            frozenset(r.antecedent for a, r in rules
                      if r.id in report.per_agent[a].inapplicable))
            for key, report in reports.items()}
        return tuple(read[id(report)] for report in self.reports)

    @cached_property
    def goal_set_members(self) -> dict[GoalSet, tuple[int, ...]]:
        """The profiles generating each distinct goal set, in canonical
        order; goal sets in the order of their first generators."""
        members: dict[GoalSet, list[int]] = {}
        for i, gs in enumerate(self.goal_sets):
            members.setdefault(gs, []).append(i)
        return {gs: tuple(m) for gs, m in members.items()}

    def unreached(self, index: int, agent_id: str) -> frozenset[str]:
        return self.reports[index].unreached(agent_id)

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


def _product_columns(spec: AgentSystemSpec,
                     decisions: dict[str, dict[Decision, Extension]]
                     ) -> tuple[tuple[int, ...], tuple[int, ...],
                                tuple[DesireReport, ...]]:
    """The one pass over the product of the agents' decisions, in canonical
    order, from the agents' extensions of those decisions: per candidate
    profile its feasible index or -1 (``candidates``), and per feasible
    profile its candidate index (``positions``) and its desire report.

    No profile object is built.  A profile's joint mask is the AND of its
    parts' masks, and an agent's desire status reads only the joint mask
    and the profile's values on the decision atoms of the agent's desire
    rules (``desires`` and ``desire_atoms`` of the agent's record in
    ``AgentSystemSpec.compiled``).  So before the loop each decision gets
    one int: the id of its extension's mask among its agent's, in mixed
    radix over the agents, above one bit field per agent of the spec, which
    holds the id of the decision's values on that agent's desire atoms, in
    mixed radix too.  A profile's ints add up without carries to the id of
    its parts' masks and, in each field, the id of its values on that
    agent's desire atoms.

    The first profile with given part masks decides joint consistency with
    ``joint_extension`` of its parts, with no profile object, and numbers
    the joint mask; an agent's status is classified once per (joint mask
    id, that agent's field) and interned by its outcomes, and a report once
    per tuple of its statuses.  Every memo dies with the pass.
    """
    lists = [tuple(ds) for ds in decisions.values()]
    _check_profile_cap(spec, prod(map(len, lists)))
    codes = [[0] * len(ds) for ds in lists]
    # Per agent of the spec: its desire rows, its field's bits, and its
    # statuses by joint mask id and field value.
    slots = []
    offset = 0
    for record in spec.compiled.values():
        atoms = record.desire_atoms
        radix = 1
        for ds, column in zip(lists, codes):
            value_ids: dict[frozenset, int] = {}
            for j, d in enumerate(ds):
                column[j] += radix * value_ids.setdefault(frozenset(
                    lit for lit in d.literals if lit.atom in atoms),
                    len(value_ids)) << offset
            radix *= len(value_ids) or 1
        width = (radix - 1).bit_length()
        slots.append((record.desires, (1 << width) - 1 << offset, {}))
        offset += width
    radix = 1
    for ds, column in zip(decisions.values(), codes):
        part_ids: dict[int, int] = {}
        for j, ext in enumerate(ds.values()):
            column[j] += radix * part_ids.setdefault(
                ext.models, len(part_ids)) << offset
        radix *= len(part_ids) or 1

    statuses: dict[tuple[int, ...], AgentDesireStatus] = {}  # interned
    mask_ids: dict[int, int] = {}  # numbers the distinct joint masks
    # By the parts' mask ids: the joint mask's id (-1 if empty) and mask.
    joints: dict[int, tuple[int, int]] = {}
    interned: dict[tuple[int, ...], DesireReport] = {}
    agents = spec.agent_ids
    candidates: list[int] = []
    positions: list[int] = []
    reports: list[DesireReport] = []
    for c, (decided, code) in enumerate(zip(product(*lists),
                                            product(*codes))):
        total = sum(code)
        joint = joints.get(total >> offset)
        if joint is None:
            ext = joint_extension(spec, parts=tuple(
                ds[d] for ds, d in zip(decisions.values(), decided)))
            joint = joints[total >> offset] = (mask_ids.setdefault(
                ext.models, len(mask_ids)) if ext.consistent else -1,
                ext.models)
        mask_id, theory = joint
        if mask_id < 0:
            candidates.append(-1)
            continue
        base = mask_id << offset
        fixed = None
        chosen = []
        for rows, bits, known in slots:
            key = base | total & bits
            status = known.get(key)
            if status is None:
                if fixed is None:
                    fixed = {lit.atom: lit.positive
                             for d in decided for lit in d.literals}
                status = known[key] = _classify(rows, fixed, theory,
                                                statuses)
            chosen.append(status)
        key = tuple(map(id, chosen))
        report = interned.get(key)
        if report is None:
            report = interned[key] = DesireReport(dict(zip(agents, chosen)))
        candidates.append(len(reports))
        positions.append(c)
        reports.append(report)
    return tuple(candidates), tuple(positions), tuple(reports)


def derive_game(spec: AgentSystemSpec) -> GameSpecification:
    """Enumerate feasible decisions per agent and keep jointly feasible profiles.

    Each agent's extension of each of its decisions is built once, for the
    feasibility filter and every profile containing that decision, and the
    game keeps it: the profiles' joint extensions are made of these parts,
    and the CLI's reports print them.  One pass over the product
    fills the game's columns (``_product_columns``), and everything
    downstream reads them.  The enumeration caps are the spec's
    (``max_decisions``, ``max_profiles``).
    """
    feasible = {
        agent: {d: ext for d, ext in built.items() if ext.consistent}
        for agent, built in agent_extensions(spec).items()}
    candidates, positions, reports = _product_columns(spec, feasible)
    return GameSpecification(spec=spec, feasible_decisions=feasible,
                             candidates=candidates, positions=positions,
                             reports=reports)


@dataclass(frozen=True)
class ExclusionWitness:
    """Why a profile fails a concept: one entry of a solution's column.

    For pareto/strong-pareto: ``other`` is a profile improving on the
    candidate.  For dominant: the candidate's component for ``agent`` is not
    weakly best against profile ``other``.  For nash: ``agent`` gains by
    deviating to ``decision`` (reaching ``other`` when that profile is
    feasible, None under the fail policy).  Profiles excluded for the same
    reason may share one witness object.
    """

    agent: str | None = None
    other: int | None = None
    decision: Decision | None = None


@dataclass(frozen=True)
class SolutionReport:
    """A concept's verdict as one column over the feasible profiles, in
    canonical order: ``witness[i]`` is None when profile i is in the
    solution, else the ExclusionWitness that excludes it."""

    concept: str
    witness: tuple[ExclusionWitness | None, ...]

    @cached_property
    def profile_indexes(self) -> tuple[int, ...]:
        """The solution's feasible indexes, in canonical order: where the
        column holds None."""
        return tuple(compress(count(), map(is_, self.witness, repeat(None))))


def _by_classes(game: GameSpecification, concept: str,
                excluding: Callable[[int], int],
                agent: Callable[[int, int], str] | None = None
                ) -> SolutionReport:
    """The column of a concept decided per class.  ``excluding(c)`` is the
    bitset of the classes that exclude class c, read off
    ``game.class_bitsets``; ``agent(c, k)``, when given, names the agent
    the witness that class k excludes class c names.

    The concepts built on this compare profiles only through their unreached
    sets, so profiles of one class never exclude each other, and a class's
    first member stands for it.  The lowest excluding class holds the first
    excluding profile in canonical order, its first member, which is the
    witness.  Each class gets one witness or None, which its members share
    through ``game.class_ids``.
    """
    per_class: list[ExclusionWitness | None] = []
    for c in range(len(game.classes)):
        bits = excluding(c)
        if bits:
            k = (bits & -bits).bit_length() - 1
            per_class.append(ExclusionWitness(
                agent=None if agent is None else agent(c, k),
                other=game.classes[k][0]))
        else:
            per_class.append(None)
    return SolutionReport(concept,
                          tuple(map(per_class.__getitem__, game.class_ids)))


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
         fail_infeasible_swaps: bool = False) -> SolutionReport:
    """Profiles where no agent has a strictly better unilateral deviation.

    Deviations range over the agent's feasible decisions; those that make
    the profile infeasible are skipped (the default) or, under
    ``fail_infeasible_swaps``, fail the candidate.  A deviation
    is one digit of the candidate's mixed-radix index replaced, one lookup
    in ``candidates`` and one bit of the agent's ``orders``.

    An agent's deviations from a candidate are those of its row (the other
    agents' digits), and which of them wins depends only on the candidate's
    own unreached id: the candidate's own decision is never infeasible and
    never better than itself.  So the search runs once per (agent, row, own
    id), and the candidates that share all three share its result.  Each
    candidate, in canonical order, appends the first agent's witness, or
    None when no agent has one, to the column.
    """
    candidates = game.candidates

    def first_deviation(agent_id: str, ids: tuple[int, ...], row: int,
                        deviations: tuple[Decision, ...], stride: int,
                        base: int) -> ExclusionWitness | None:
        for k, deviation in enumerate(deviations):
            deviated = candidates[base + k * stride]
            if deviated < 0:
                if fail_infeasible_swaps:
                    return ExclusionWitness(agent=agent_id,
                                            decision=deviation)
            elif not row >> ids[deviated] & 1:
                return ExclusionWitness(agent=agent_id, other=deviated,
                                        decision=deviation)
        return None

    searches = [(agent_id, ids, geq, deviations, radix, stride, {})
                for agent_id, (ids, geq), (deviations, _, stride, radix)
                in zip(game.spec.agent_ids, game.orders, game._digits)]
    column = []
    for i, c in enumerate(game.positions):
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
        column.append(witness)
    return SolutionReport(NASH, tuple(column))


def solve(game: GameSpecification, concept: str, *,
          fail_infeasible_swaps: bool = False) -> SolutionReport:
    """Dispatch by concept name; ``fail_infeasible_swaps`` only affects
    nash, the one concept whose quantifier can leave the feasible set."""
    if concept == PARETO:
        return pareto(game)
    if concept == STRONG_PARETO:
        return strongly_pareto(game)
    if concept == DOMINANT:
        return dominant(game)
    if concept == NASH:
        return nash(game, fail_infeasible_swaps=fail_infeasible_swaps)
    raise ValueError(f"unknown solution concept '{concept}'")
