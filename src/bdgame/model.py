"""Agent system specifications: data model, validation, and the .bdg format.

A specification bundles, per agent: decision atoms, facts, belief rules,
desire rules, a priority order over the agent's own desires, and an initial
decision (a literal set the agent is already committed to).  World atoms are
shared.  Decision-atom sets are pairwise disjoint and disjoint from world
atoms; priorities never span agents.

Construction owns the structural rules of a spec: a spec that builds is
one the parser could have produced.  Each rule lives in one helper
(``_declare`` for atom names, ``_claim`` for agent and rule ids,
``_system_name``, ``_atom_cap``, ``_own_literal``) that the parser calls
with the line it reads and a spec calls with no line when it is built, so
a spec built in Python is refused with the parser's messages.  So is a
formula that prints nested deeper than the parser reads: an agent walks
each of its formulas once (``logic._walk``), for its printed nesting and
its atoms, which the spec then checks against its vocabulary.  Atom
ownership lives in one map, ``AgentSystemSpec.vocabulary``: each atom name
to the id of the agent that owns it, or ``None`` for a world atom.
``AgentSystemSpec.world_formula`` is the one question asked of the map.
What the parser accepts and ``validate_spec`` reports (typing, total
ranks, contradictory initial decisions, conflicting facts) is data, not a
refusal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import (BdgameError, SpecSyntaxError, UndeclaredAtomError,
                     VocabularyLimitError)
from .extension import Rule
from .logic import (_IDENT_RE, _RESERVED, _TOO_DEEP, DEFAULT_MAX_ATOMS,
                    MAX_NESTING, Formula, Literal, RuleEntry, _models, _walk,
                    atoms_of, consistent, consistent_literals, format_formula,
                    literal_sort_key, parse_formula, parse_literal)

DEFAULT_DECISION_CAP = 4096
DEFAULT_PROFILE_CAP = 1 << 16


class DecisionMode(str, Enum):
    """Shape of the candidate decision space of each agent.

    positive-subsets: any subset of positive literals
    total-assignments: exactly one literal per decision atom
    literal-subsets: any consistent literal subset
    """

    POSITIVE_SUBSETS = "positive-subsets"
    TOTAL_ASSIGNMENTS = "total-assignments"
    LITERAL_SUBSETS = "literal-subsets"


RANKED = "ranked"
IDENTITY = "identity"


@dataclass(frozen=True)
class PriorityOrder:
    """Priority over one agent's desire rules.

    ``ranks`` maps each desire rule to its rank: higher rank means higher
    priority, and distinct ranks give a strict total order.  ``None`` is
    the identity order: no rule outranks another (d >= d' only when
    d = d').  The spec's ``priority ranked|identity`` keyword is read off
    it.
    """

    # Left out of the hash (a dict has none); equal orders still hash equal.
    ranks: dict[str, int] | None = field(hash=False)

    @classmethod
    def ranked(cls, ranks: dict[str, int]) -> "PriorityOrder":
        return cls(dict(ranks))

    @classmethod
    def identity(cls) -> "PriorityOrder":
        return cls(None)

    def strictly_preferred(self, first: str, second: str) -> bool:
        ranks = self.ranks
        if ranks is None:
            return False
        return ranks.get(first, 0) > ranks.get(second, 0)


@dataclass(frozen=True)
class AgentSpec:
    id: str
    decision_atoms: tuple[str, ...]
    facts: tuple[Formula, ...]
    beliefs: tuple[Rule, ...]
    desires: tuple[Rule, ...]
    priority: PriorityOrder
    initial_decision: frozenset[Literal] = frozenset()
    # The atoms its facts and rules mention, read off the one walk of each
    # formula that also refuses a formula too deep to print and parse
    # back.  Built from the fields above, so it takes no part in equality.
    mentioned_atoms: frozenset[str] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Walked before any fact is hashed: a hash recurses through the
        # whole formula, so one too deep to print is refused first.
        mentioned: set[str] = set()
        for f in chain(self.facts, *((r.antecedent, r.consequent)
                                     for r in self.beliefs + self.desires)):
            if _walk(f, mentioned) > MAX_NESTING:
                raise SpecSyntaxError(_TOO_DEEP)
        object.__setattr__(self, "mentioned_atoms", frozenset(mentioned))
        # A fact stated twice is one fact, as the parser reads it.
        object.__setattr__(self, "facts", tuple(dict.fromkeys(self.facts)))
        foreign = sorted((self.priority.ranks or {}).keys()
                         - self.desire_ids())
        if foreign:
            raise SpecSyntaxError(
                f"agent {self.id}: priority ranks rules that are not its "
                f"desires: {', '.join(foreign)}")
        for lit in sorted(self.initial_decision, key=literal_sort_key):
            _own_literal(lit, self.decision_atoms, None)

    def desire_ids(self) -> frozenset[str]:
        return frozenset(r.id for r in self.desires)


class CompiledAgent(NamedTuple):
    """One agent's facts and rules compiled over the spec's mask universe
    (``AgentSystemSpec.compiled``), as model masks and rule entries."""

    facts: frozenset[Formula]
    facts_mask: int  # the AND of the facts' masks
    # The distinct consequents of the rules in ``beliefs``, by number.
    consequents: tuple[Formula, ...]
    consequent_masks: tuple[int, ...]
    # Per belief rule that concludes no fact (one that does adds nothing):
    # its antecedent's entry and the bit of its consequent's number.
    beliefs: tuple[tuple[RuleEntry, int], ...]
    # Per desire rule: its number (spec-wide, from 0), its id, and the
    # entry of its antecedent and consequent.
    desires: tuple[tuple[int, str, RuleEntry], ...]
    desire_atoms: frozenset[str]  # the decision atoms of the desire rules


@dataclass(frozen=True)
class AgentSystemSpec:
    name: str
    agents: tuple[AgentSpec, ...]
    world_atoms: tuple[str, ...]
    decision_mode: DecisionMode = DecisionMode.POSITIVE_SUBSETS
    max_atoms: int = DEFAULT_MAX_ATOMS
    # Enumeration caps: per agent on candidate decisions, and on candidate
    # profiles.  A cap decides whether an answer is attempted, never what
    # it is, so the caps take no part in equality or hashing.
    max_decisions: int = field(default=DEFAULT_DECISION_CAP, compare=False)
    max_profiles: int = field(default=DEFAULT_PROFILE_CAP, compare=False)
    # Each atom name to the id of the agent that owns it, None for a world
    # atom: the agents' decision atoms in agent order, then the world
    # atoms.  Built from the fields above, so it takes no part in equality.
    vocabulary: dict[str, str | None] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A mode may be given by its name; enumeration and printing read
        # the enum, so the name is coerced here and an unknown one refused.
        try:
            mode = DecisionMode(self.decision_mode)
        except ValueError:
            raise BdgameError(
                f"unknown decision_mode '{self.decision_mode}'") from None
        object.__setattr__(self, "decision_mode", mode)
        _system_name(f'"{self.name}"', None)
        _atom_cap(self.max_atoms, None)
        vocabulary: dict[str, str | None] = {}
        agent_ids, rule_ids, used = set(), set(), set()
        for agent in self.agents:
            _claim(agent.id, "agent", agent_ids, None)
            _declare(agent.decision_atoms, agent.id, vocabulary, None)
            used |= agent.mentioned_atoms
            for r in agent.beliefs + agent.desires:
                _claim(r.id, "rule id", rule_ids, None)
        _declare(self.world_atoms, None, vocabulary, None)
        if not self.agents:
            raise SpecSyntaxError("a specification needs at least one agent")
        undeclared = used.difference(vocabulary)
        if undeclared:  # one name, the smallest, as the parser names one
            raise UndeclaredAtomError(min(undeclared))
        object.__setattr__(self, "vocabulary", vocabulary)

    @cached_property
    def agent_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    def check_atom_cap(self) -> None:
        """Refuse a declared vocabulary larger than the atom cap."""
        if len(self.vocabulary) > self.max_atoms:
            raise VocabularyLimitError(
                f"{len(self.vocabulary)} atoms exceed the enumeration bound "
                f"of {self.max_atoms}")

    @cached_property
    def mask_atoms(self) -> tuple[str, ...]:
        """The world atoms that some fact or belief consequent mentions, in
        declared order: the universe of the solver's model masks.

        An extension holds only facts, decision literals and fired
        consequents, so no theory constrains any other atom, and a query is
        entailed iff it holds for every value of those atoms.  The atom cap
        still counts the declared vocabulary.  A spec whose facts or belief
        consequents mention decision atoms is refused: masks over world
        atoms would answer it wrongly.
        """
        self.check_atom_cap()
        constrained: set[str] = set()
        for agent in self.agents:
            for f in agent.facts + tuple(r.consequent for r in agent.beliefs):
                if not self.world_formula(f):
                    raise BdgameError(
                        f"agent {agent.id}: {format_formula(f)} mentions "
                        "decision atoms, but facts and belief consequents "
                        "must be world formulas")
                constrained |= atoms_of(f)
        return tuple(a for a in self.world_atoms if a in constrained)

    def world_formula(self, f: Formula) -> bool:
        """Whether every atom of ``f`` is a world atom; an atom-free
        formula is one.  Raises UndeclaredAtomError for an atom outside
        ``vocabulary``, whatever the other atoms are."""
        try:
            owners = [self.vocabulary[name] for name in atoms_of(f)]
        except KeyError as missing:
            raise UndeclaredAtomError(missing.args[0]) from None
        return all(owner is None for owner in owners)

    @cached_property
    def compiled(self) -> dict[str, CompiledAgent]:
        """Per agent id, in agent order, its facts and rules compiled over
        ``mask_atoms``: the facts and consequents here, each rule entry's
        keys where ``decision.agent_extension`` or ``decision._classify``
        first asks for them.  All of it lives and dies with the spec, and
        so does the one table of atom patterns that every compile draws
        on."""
        world = self.mask_atoms  # refuses facts and consequents off it
        world_atoms = frozenset(self.world_atoms)
        patterns: dict[tuple[int, int], int] = {}
        build = partial(_models, world, patterns)  # ``models`` over world
        out = {}
        number = 0
        for agent in self.agents:
            facts = frozenset(agent.facts)
            facts_mask = build(agent.facts)
            numbers: dict[Formula, int] = {}
            beliefs = tuple(
                (RuleEntry((r.antecedent,), world, world_atoms, patterns),
                 1 << numbers.setdefault(r.consequent, len(numbers)))
                for r in agent.beliefs if r.consequent not in facts)
            desires = tuple(
                (number + k, r.id, RuleEntry((r.antecedent, r.consequent),
                                             world, world_atoms, patterns))
                for k, r in enumerate(agent.desires))
            number += len(desires)
            out[agent.id] = CompiledAgent(
                facts, facts_mask, tuple(numbers),
                tuple(build((f,)) for f in numbers),
                beliefs, desires, frozenset().union(
                    *(entry.atoms for _, _, entry in desires)))
        return out

    def agent(self, agent_id: str) -> AgentSpec:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise KeyError(f"no agent '{agent_id}'")

    def all_beliefs(self) -> tuple[Rule, ...]:
        return tuple(r for a in self.agents for r in a.beliefs)

    def all_desires(self) -> tuple[Rule, ...]:
        return tuple(r for a in self.agents for r in a.desires)

    def with_options(self, decision_mode: DecisionMode | str | None = None,
                     max_atoms: int | None = None,
                     max_decisions: int | None = None,
                     max_profiles: int | None = None) -> "AgentSystemSpec":
        """The spec with the given options set; None keeps a field."""
        changes = {name: value for name, value in (
            ("decision_mode", decision_mode), ("max_atoms", max_atoms),
            ("max_decisions", max_decisions), ("max_profiles", max_profiles))
            if value is not None}
        return replace(self, **changes) if changes else self


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    code: str
    severity: str  # "error" | "warning"
    agent: str | None
    message: str

    def __str__(self) -> str:
        where = f" (agent {self.agent})" if self.agent else ""
        return f"[{self.severity}] {self.code}{where}: {self.message}"


def validate_spec(spec: AgentSystemSpec) -> list[Violation]:
    """Collect typing and priority violations; valid specs get an empty list.

    Violations are data, not exceptions: the report is deterministic and
    independent of declaration order.
    """
    out: list[Violation] = []
    for agent in spec.agents:
        for f in agent.facts:
            if not spec.world_formula(f):
                out.append(Violation(
                    "fact-not-in-L_W", "error", agent.id,
                    f"fact {format_formula(f)} mentions decision atoms"))
        for r in agent.beliefs:
            if not spec.world_formula(r.consequent):
                out.append(Violation(
                    "belief-consequent-not-in-L_W", "error", agent.id,
                    f"belief {r.id} concludes {format_formula(r.consequent)},"
                    " which mentions decision atoms"))
        ranks = agent.priority.ranks
        if ranks is not None:
            missing = agent.desire_ids() - ranks.keys()
            if missing:
                out.append(Violation(
                    "priority-not-total", "error", agent.id,
                    f"unranked desires: {', '.join(sorted(missing))}"))
            by_rank: dict[int, list[str]] = {}
            for rule_id, rank in ranks.items():
                by_rank.setdefault(rank, []).append(rule_id)
            for rank, ids in sorted(by_rank.items()):
                if len(ids) > 1:
                    out.append(Violation(
                        "priority-not-total", "error", agent.id,
                        f"rank {rank} shared by: {', '.join(sorted(ids))}"))
        if not consistent_literals(agent.initial_decision):
            out.append(Violation(
                "initial-decision-inconsistent", "error", agent.id,
                "initial decision contains an atom with both polarities"))
    all_facts = [f for a in spec.agents for f in a.facts]
    if all_facts and not consistent(all_facts, max_atoms=spec.max_atoms):
        out.append(Violation(
            "facts-conflict", "warning", None,
            "the agents' facts are jointly inconsistent"))
    return out


def is_valid(spec: AgentSystemSpec) -> bool:
    return not any(v.severity == "error" for v in validate_spec(spec))


# ---------------------------------------------------------------------------
# The .bdg spec format
# ---------------------------------------------------------------------------
#
# Line-oriented; '#' starts a comment.  Example:
#
#   system "name"
#   option decision_mode = positive-subsets
#   agent alpha1 {
#     atoms a b c
#     priority ranked
#     fact !p
#     belief c => q
#     desire r1 [rank=2]: b => p
#     desire r2 [rank=1]: true => b
#     initial a
#   }
#   world p q
#
# Rule labels are optional; unlabeled rules get <agent>_b<i> / <agent>_d<i>
# ids.  Ranks are required exactly when the agent declares `priority ranked`
# (enforced by validate_spec, which reports missing or duplicate ranks).

_LABEL_RE = re.compile(
    r"(?:(?P<id>[a-zA-Z][a-zA-Z0-9_]*)\s*)?(?:\[\s*rank\s*=\s*(?P<rank>-?\d+)\s*\])?$")


@dataclass
class _RawRule:
    kind: str
    label: str | None
    rank: int | None
    antecedent: str
    consequent: str
    line: int


@dataclass
class _RawAgent:
    id: str
    line: int
    atoms: list[str] = field(default_factory=list)
    priority_mode: str | None = None
    facts: list[tuple[str, int]] = field(default_factory=list)
    rules: list[_RawRule] = field(default_factory=list)
    initial: list[tuple[str, int]] = field(default_factory=list)


def _strip_comment(raw: str) -> str:
    # '#' starts a comment except inside the quoted system name: the
    # unquoted pieces of the line are its even-numbered ones between '"'s
    if "#" not in raw:
        return raw.strip()
    pieces = raw.split('"')
    for k in range(0, len(pieces), 2):
        cut = pieces[k].find("#")
        if cut >= 0:
            return '"'.join(pieces[:k] + [pieces[k][:cut]]).strip()
    return raw.strip()


def _declare(names: Sequence[str], owner: str | None,
             vocabulary: dict[str, str | None],
             lineno: int | None) -> Sequence[str]:
    """Enter ``names``, the atoms of ``owner`` (None for the world), in
    ``vocabulary``, the map of every atom so far to its owner; each must
    be a new identifier and no reserved word.  A refusal names ``lineno``,
    the declaring line, unless it is None."""
    for atom in names:
        if not _IDENT_RE.fullmatch(atom):
            raise SpecSyntaxError(f"bad atom name '{atom}'", lineno)
        if atom in _RESERVED:
            raise SpecSyntaxError(
                f"'{atom}' is a reserved word, not an atom name", lineno)
        if atom in vocabulary:
            raise SpecSyntaxError(f"duplicate atom '{atom}'", lineno)
        vocabulary[atom] = owner
    return names


def _claim(name: str, kind: str, taken: set[str], lineno: int | None) -> str:
    """Add ``name``, an id of ``kind`` ("agent" or "rule id"), to ``taken``,
    the ids of that kind so far; it must be a new identifier.  A refusal
    names ``lineno`` unless it is None."""
    if not _IDENT_RE.fullmatch(name):
        raise SpecSyntaxError(f"bad {kind} '{name}'", lineno)
    if name in taken:
        raise SpecSyntaxError(f"duplicate {kind} '{name}'", lineno)
    taken.add(name)
    return name


def _system_name(quoted: str, lineno: int | None) -> str:
    """The name in ``quoted``, a system line's ``"name"``: it holds no '"'
    and no line break, so it prints on one line and reads back."""
    m = re.fullmatch(r'"([^"]*)"', quoted)
    if m is None or len(quoted.splitlines()) != 1:
        raise SpecSyntaxError('expected: system "name"', lineno)
    return m.group(1)


def _atom_cap(n: int, lineno: int | None) -> int:
    if n <= 0:
        raise SpecSyntaxError("max_atoms must be positive", lineno)
    return n


def _own_literal(lit: Literal, atoms: Sequence[str],
                 lineno: int | None) -> Literal:
    """``lit``, an initial decision literal, which must be over ``atoms``,
    its agent's decision atoms."""
    if lit.atom not in atoms:
        raise SpecSyntaxError(
            f"initial decision literal '{lit}' is not over the "
            f"agent's decision atoms", lineno)
    return lit


def _split_rule(text: str, lineno: int) -> tuple[str, str]:
    parts = text.split("=>")
    if len(parts) != 2:
        raise SpecSyntaxError("expected exactly one '=>' in rule", lineno)
    return parts[0].strip(), parts[1].strip()


def parse_spec(text: str) -> AgentSystemSpec:
    """Parse .bdg source into a fully resolved specification.

    Formulas are parsed against the complete declared vocabulary, so world
    atoms may be declared after the agents that use them.
    """
    name = ""
    options: dict[str, object] = {}
    world: list[str] = []
    declared: dict[str, str | None] = {}  # every atom name to its owner
    raw_agents: list[_RawAgent] = []
    agent_ids: set[str] = set()
    current: _RawAgent | None = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw)
        if not line:
            continue
        if current is not None:
            if line == "}":
                raw_agents.append(current)
                current = None
                continue
            _parse_agent_line(current, line, lineno, declared)
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "system":
            name = _system_name(rest, lineno)
        elif head == "option":
            key, ok, value = (p.strip() for p in rest.partition("="))
            if not ok:
                raise SpecSyntaxError("expected: option NAME = VALUE", lineno)
            options[key] = _parse_option(key, value, lineno)
        elif head == "agent":
            m = re.fullmatch(r"([a-zA-Z][a-zA-Z0-9_]*)\s*\{", rest)
            if m is None:
                raise SpecSyntaxError("expected: agent NAME {", lineno)
            current = _RawAgent(
                _claim(m.group(1), "agent", agent_ids, lineno), lineno)
        elif head == "world":
            world += _declare(rest.split(), None, declared, lineno)
        else:
            raise SpecSyntaxError(f"unknown declaration '{head}'", lineno)

    if current is not None:
        raise SpecSyntaxError(f"agent '{current.id}' is never closed ('}}')",
                              current.line)

    return _resolve(name, options, world, raw_agents, declared)


def _parse_option(key: str, value: str, lineno: int):
    if key == "decision_mode":
        try:
            return DecisionMode(value)
        except ValueError:
            raise SpecSyntaxError(
                f"unknown decision_mode '{value}'", lineno) from None
    if key == "max_atoms":
        try:
            n = int(value)
        except ValueError:
            raise SpecSyntaxError("max_atoms must be an integer", lineno) from None
        return _atom_cap(n, lineno)
    raise SpecSyntaxError(f"unknown option '{key}'", lineno)


def _parse_agent_line(agent: _RawAgent, line: str, lineno: int,
                      declared: dict[str, str | None]) -> None:
    head, _, rest = line.partition(" ")
    rest = rest.strip()
    if head == "atoms":
        agent.atoms += _declare(rest.split(), agent.id, declared, lineno)
    elif head == "priority":
        if rest not in (RANKED, IDENTITY):
            raise SpecSyntaxError(
                "expected: priority ranked | priority identity", lineno)
        if agent.priority_mode is not None:
            raise SpecSyntaxError("priority declared twice", lineno)
        agent.priority_mode = rest
    elif head == "fact":
        agent.facts.append((rest, lineno))
    elif head in ("belief", "desire"):
        label, rank, body = None, None, rest
        if ":" in rest:
            prefix, body = (p.strip() for p in rest.split(":", 1))
            m = _LABEL_RE.fullmatch(prefix)
            if m is None:
                raise SpecSyntaxError(
                    f"bad rule label '{prefix}'", lineno)
            label = m.group("id")
            rank = int(m.group("rank")) if m.group("rank") else None
        ant, cons = _split_rule(body, lineno)
        agent.rules.append(_RawRule(head, label, rank, ant, cons, lineno))
    elif head == "initial":
        for token in rest.replace(",", " ").split():
            agent.initial.append((token, lineno))
    else:
        raise SpecSyntaxError(f"unknown agent declaration '{head}'", lineno)


def _resolve(name: str, options: dict, world: list[str],
             raw_agents: list[_RawAgent],
             declared: dict[str, str | None]) -> AgentSystemSpec:
    def formula(source: str, lineno: int) -> Formula:
        try:
            return parse_formula(source, declared)
        except BdgameError as exc:
            raise SpecSyntaxError(f"{exc}", lineno) from None

    seen_rule_ids: set[str] = set()
    agents: list[AgentSpec] = []
    for raw in raw_agents:
        beliefs: list[Rule] = []
        desires: list[Rule] = []
        ranks: dict[str, int] = {}
        counters = {"belief": 0, "desire": 0}
        for r in raw.rules:
            counters[r.kind] += 1
            rule_id = _claim(
                r.label or f"{raw.id}_{r.kind[0]}{counters[r.kind]}",
                "rule id", seen_rule_ids, r.line)
            rule = Rule(rule_id, formula(r.antecedent, r.line),
                        formula(r.consequent, r.line))
            if r.kind == "belief":
                if r.rank is not None:
                    raise SpecSyntaxError("belief rules take no rank", r.line)
                beliefs.append(rule)
            else:
                desires.append(rule)
                if r.rank is not None:
                    ranks[rule_id] = r.rank
        if raw.priority_mode == RANKED:
            # validate_spec reports desires the ranking misses
            priority = PriorityOrder(ranks)
        elif ranks:
            raise SpecSyntaxError(
                "ranks are only meaningful with 'priority ranked'", raw.line)
        else:
            priority = PriorityOrder.identity()
        initial = set()
        for token, lineno in raw.initial:
            try:
                lit = parse_literal(token)
            except BdgameError as exc:
                raise SpecSyntaxError(str(exc), lineno) from None
            initial.add(_own_literal(lit, raw.atoms, lineno))
        agents.append(AgentSpec(
            id=raw.id,
            decision_atoms=tuple(raw.atoms),
            facts=tuple(formula(src, ln) for src, ln in raw.facts),
            beliefs=tuple(beliefs),
            desires=tuple(desires),
            priority=priority,
            initial_decision=frozenset(initial),
        ))
    return AgentSystemSpec(
        name=name,
        agents=tuple(agents),
        world_atoms=tuple(world),
        decision_mode=options.get("decision_mode",
                                  DecisionMode.POSITIVE_SUBSETS),
        max_atoms=options.get("max_atoms", DEFAULT_MAX_ATOMS),
    )


def format_spec(spec: AgentSystemSpec) -> str:
    """Canonical printer; parse_spec(format_spec(s)) == s for every spec,
    as one whose formulas print nested deeper than ``logic.MAX_NESTING``
    does not build."""
    lines = [f'system "{spec.name}"']
    lines.append(f"option decision_mode = {spec.decision_mode.value}")
    lines.append(f"option max_atoms = {spec.max_atoms}")
    for agent in spec.agents:
        lines.append(f"agent {agent.id} {{")
        if agent.decision_atoms:
            lines.append("  atoms " + " ".join(agent.decision_atoms))
        ranks = agent.priority.ranks
        lines.append(f"  priority {IDENTITY if ranks is None else RANKED}")
        for f in agent.facts:
            lines.append(f"  fact {format_formula(f)}")
        for r in agent.beliefs:
            lines.append(f"  belief {r.id}: {r.antecedent} => {r.consequent}")
        ranks = ranks or {}
        for r in agent.desires:
            tag = f" [rank={ranks[r.id]}]" if r.id in ranks else ""
            lines.append(
                f"  desire {r.id}{tag}: {r.antecedent} => {r.consequent}")
        if agent.initial_decision:
            lits = sorted(agent.initial_decision, key=literal_sort_key)
            lines.append("  initial " + " ".join(str(l) for l in lits))
        lines.append("}")
    if spec.world_atoms:
        lines.append("world " + " ".join(spec.world_atoms))
    return "\n".join(lines) + "\n"
