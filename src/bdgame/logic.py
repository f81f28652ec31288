"""Propositional vocabulary, formulas, parsing, and classical entailment.

The vocabulary is partitioned into per-agent decision atoms and world atoms.
Formulas are immutable ASTs compared syntactically: formula sets throughout
the package are *not* closed under logical consequence, so set membership is
syntax-level on purpose.

Entailment is exact classical semantics, implemented as truth-table
enumeration over a finite atom universe.  Each formula is compiled to an
integer bitmask with one bit per assignment, so entailment checks reduce to
a handful of big-integer operations.  The universe defaults to the atoms
occurring in the query, which coincides with full-vocabulary semantics for
both entailment and consistency.  A theory queried many times has its model
mask built once by ``models`` and then answers each query with one AND
(``mask_entails``); ``entails`` and ``consistent`` go through the same two.
The solver's own queries use ``conditioned_models``: masks over the world
atoms only, with a profile's decision literals substituted and the decision
atoms it leaves free quantified universally.

There is one compiler (``_conditioned``) behind all of these, and no mask
cache: a mask lives as long as the call or the caller that built it.  Only
the per-atom truth tables (``_atom_pattern``) are kept, one per (atom
position, universe size).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import FormulaSyntaxError, UndeclaredAtomError, VocabularyLimitError

DEFAULT_MAX_ATOMS = 24

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_RESERVED = {"true", "false"}


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """A propositional atom: a decision atom of one agent, or a world atom.

    ``owner`` is the agent id for decision atoms and ``None`` for world atoms.
    """

    name: str
    owner: str | None = None


class Vocabulary:
    """The declared atom table. Names are unique across the whole table."""

    def __init__(self, atoms: Iterable[Atom]):
        table: dict[str, Atom] = {}
        for atom in atoms:
            if not _IDENT_RE.fullmatch(atom.name) or atom.name in _RESERVED:
                raise UndeclaredAtomError(atom.name)
            if atom.name in table:
                raise ValueError(f"duplicate atom '{atom.name}'")
            table[atom.name] = atom
        self._table = table
        self._names = tuple(table)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    def owner(self, name: str) -> str | None:
        try:
            return self._table[name].owner
        except KeyError:
            raise UndeclaredAtomError(name) from None


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

class Formula:
    """Base class for formula nodes.  Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return f"<{format_formula(self)}>"


@dataclass(frozen=True, repr=False)
class Const(Formula):
    value: bool

    __slots__ = ("value",)


@dataclass(frozen=True, repr=False)
class Var(Formula):
    name: str

    __slots__ = ("name",)


@dataclass(frozen=True, repr=False)
class Not(Formula):
    operand: Formula

    __slots__ = ("operand",)


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula

    __slots__ = ("left", "right")


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula

    __slots__ = ("left", "right")


@dataclass(frozen=True, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula

    __slots__ = ("left", "right")


TRUE = Const(True)
FALSE = Const(False)


def atoms_of(formula: Formula) -> frozenset[str]:
    """The names of all atoms occurring in the formula."""
    if isinstance(formula, Var):
        return frozenset((formula.name,))
    if isinstance(formula, Const):
        return frozenset()
    if isinstance(formula, Not):
        return atoms_of(formula.operand)
    return atoms_of(formula.left) | atoms_of(formula.right)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------
#
# Grammar: atoms [a-zA-Z][a-zA-Z0-9_]*; constants true/false; operators
# ! & | -> and parentheses; precedence ! > & > | > ->; -> right-associative.

_TOKEN_RE = re.compile(r"\s*(->|[!&|()]|[a-zA-Z][a-zA-Z0-9_]*)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]], length: int,
                 vocabulary: Vocabulary | None):
        self.tokens = tokens
        self.length = length
        self.vocabulary = vocabulary
        self.index = 0

    def peek(self) -> tuple[str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> tuple[str, int]:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula", self.length)
        self.index += 1
        return tok

    def parse(self) -> Formula:
        f = self.implication()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected token '{tok[0]}'", tok[1])
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        tok = self.peek()
        if tok is not None and tok[0] == "->":
            self.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while (tok := self.peek()) is not None and tok[0] == "|":
            self.next()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while (tok := self.peek()) is not None and tok[0] == "&":
            self.next()
            f = And(f, self.negation())
        return f

    def negation(self) -> Formula:
        tok = self.peek()
        if tok is not None and tok[0] == "!":
            self.next()
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        text, at = self.next()
        if text == "(":
            f = self.implication()
            closing = self.next()
            if closing[0] != ")":
                raise FormulaSyntaxError("expected ')'", closing[1])
            return f
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        if _IDENT_RE.fullmatch(text):
            if self.vocabulary is not None and text not in self.vocabulary:
                raise UndeclaredAtomError(text)
            return Var(text)
        raise FormulaSyntaxError(f"unexpected token '{text}'", at)


def parse_formula(text: str, vocabulary: Vocabulary | None = None) -> Formula:
    """Parse formula source text against a vocabulary.

    Raises FormulaSyntaxError with the offending column, or
    UndeclaredAtomError for identifiers missing from the vocabulary.
    With ``vocabulary=None`` any identifier is accepted.
    """
    return _Parser(_tokenize(text), len(text), vocabulary).parse()


_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Var: 5, Const: 5}


def _format(f: Formula, min_prec: int) -> str:
    # A child is parenthesized when its precedence falls below what its
    # position requires; the associating side admits its own precedence,
    # the other side requires one more (-> associates right, & and | left).
    prec = _PRECEDENCE[type(f)]
    if isinstance(f, Const):
        body = "true" if f.value else "false"
    elif isinstance(f, Var):
        body = f.name
    elif isinstance(f, Not):
        body = "!" + _format(f.operand, prec)
    elif isinstance(f, Implies):
        body = _format(f.left, prec + 1) + " -> " + _format(f.right, prec)
    else:
        op = " & " if isinstance(f, And) else " | "
        body = _format(f.left, prec) + op + _format(f.right, prec + 1)
    return "(" + body + ")" if prec < min_prec else body


def format_formula(f: Formula) -> str:
    """Render a formula with minimal parentheses; parses back to the same AST."""
    return _format(f, 0)


# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A signed atom; decisions and initial decisions are sets of these."""

    atom: str
    positive: bool = True

    def formula(self) -> Formula:
        v = Var(self.atom)
        return v if self.positive else Not(v)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.atom if self.positive else "!" + self.atom


def parse_literal(text: str) -> Literal:
    text = text.strip()
    positive = True
    if text.startswith("!"):
        positive = False
        text = text[1:].strip()
    if not _IDENT_RE.fullmatch(text) or text in _RESERVED:
        raise FormulaSyntaxError(f"expected a literal, got {text!r}", 0)
    return Literal(text, positive)


def literal_sort_key(lit: Literal) -> tuple[str, int]:
    """Atoms by name, positive literal before negative."""
    return (lit.atom, 0 if lit.positive else 1)


def consistent_literals(literals: Iterable[Literal]) -> bool:
    """No atom occurring with both polarities."""
    seen: dict[str, bool] = {}
    for lit in literals:
        if seen.setdefault(lit.atom, lit.positive) != lit.positive:
            return False
    return True


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

def evaluate(f: Formula, assignment: dict[str, bool]) -> bool:
    """Truth value of a formula under one assignment."""
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return assignment[f.name]
    if isinstance(f, Not):
        return not evaluate(f.operand, assignment)
    if isinstance(f, And):
        return evaluate(f.left, assignment) and evaluate(f.right, assignment)
    if isinstance(f, Or):
        return evaluate(f.left, assignment) or evaluate(f.right, assignment)
    return not evaluate(f.left, assignment) or evaluate(f.right, assignment)


@lru_cache(maxsize=None)
def _atom_pattern(i: int, n: int) -> int:
    # Bit k of the mask is the truth value in assignment k, where atom i is
    # true iff bit i of k is set: runs of 2^i ones repeated with period
    # 2^(i+1).  The first period is doubled until it covers 2^n bits.
    half = 1 << i
    pattern = ((1 << half) - 1) << half
    width, size = half << 1, 1 << n
    while width < size:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _universe(formulas: Iterable[Formula], atoms: Sequence[str] | None,
              max_atoms: int) -> tuple[str, ...]:
    if atoms is None:
        names: set[str] = set()
        for f in formulas:
            names |= atoms_of(f)
        atoms = sorted(names)
    atoms = tuple(atoms)
    if len(atoms) > max_atoms:
        raise VocabularyLimitError(
            f"{len(atoms)} atoms exceed the enumeration bound of {max_atoms}")
    return atoms


def _models(formulas: tuple[Formula, ...], universe: tuple[str, ...]) -> int:
    full = (1 << (1 << len(universe))) - 1
    mask = full
    try:
        for f in formulas:
            mask &= _conditioned(f, {}, universe, full)
            if mask == 0:
                break
    except _FreeAtom as free:
        raise UndeclaredAtomError(str(free)) from None
    return mask


def models(formulas: Iterable[Formula], *,
           atoms: Sequence[str] | None = None,
           max_atoms: int = DEFAULT_MAX_ATOMS) -> int:
    """The assignments satisfying every formula, as a bitmask over the
    universe (``atoms``, by default the atoms of the formulas).

    Build it once for a theory and query it with ``mask_entails``.
    """
    formulas = tuple(formulas)
    return _models(formulas, _universe(formulas, atoms, max_atoms))


def mask_entails(theory: int, conclusion: Formula,
                 atoms: Sequence[str]) -> bool:
    """True iff every assignment in ``theory``, a model mask over ``atoms``,
    satisfies the conclusion."""
    if theory == 0:
        return True
    try:
        # Only the theory's assignments are tested, so the conclusion is
        # compiled within them: no all-ones mask is built per query.
        return theory & ~_conditioned(conclusion, {}, tuple(atoms),
                                      theory) == 0
    except _FreeAtom as free:
        raise UndeclaredAtomError(str(free)) from None


def entails(premises: Iterable[Formula], conclusion: Formula, *,
            atoms: Sequence[str] | None = None,
            max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Classical entailment with the premise set read conjunctively.

    True iff every assignment satisfying all premises satisfies the
    conclusion; an inconsistent premise set entails everything.
    """
    premises = tuple(premises)
    universe = _universe(premises + (conclusion,), atoms, max_atoms)
    return mask_entails(_models(premises, universe), conclusion, universe)


def consistent(premises: Iterable[Formula], *,
               atoms: Sequence[str] | None = None,
               max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """True iff some assignment satisfies every premise."""
    return models(premises, atoms=atoms, max_atoms=max_atoms) != 0


class _FreeAtom(Exception):
    """An atom neither in the world nor fixed; carries its name."""


def _conditioned(f: Formula, values: Mapping[str, bool],
                 world: tuple[str, ...], full: int) -> int:
    # The one formula compiler.  Negation complements within ``full``; the
    # result agrees with the formula's mask on every assignment in ``full``.
    kind = type(f)
    if kind is Var:
        value = values.get(f.name)
        if value is not None:
            return full if value else 0
        try:
            return _atom_pattern(world.index(f.name), len(world))
        except ValueError:
            raise _FreeAtom(f.name) from None
    if kind is Not:
        return full ^ _conditioned(f.operand, values, world, full)
    if kind is Const:
        return full if f.value else 0
    left = _conditioned(f.left, values, world, full)
    right = _conditioned(f.right, values, world, full)
    if kind is And:
        return left & right
    if kind is Or:
        return left | right
    return (full ^ left) | right


def conditioned_models(f: Formula, fixed: Mapping[str, bool],
                       world: Sequence[str], *, quantify: bool = True) -> int:
    """The assignments to ``world`` under which ``f`` holds with the atoms
    in ``fixed`` set to their values and for every value of its other
    atoms: a model mask over ``world``.

    A theory made of the fixed literals and formulas over ``world`` leaves
    every other atom free, so it entails ``f`` iff its model mask ``m``
    over ``world`` (its formulas conditioned the same way) has
    ``m & ~conditioned_models(f, fixed, world) == 0``.  A formula of such
    a theory is conditioned with ``quantify=False``: an atom outside
    ``world`` and ``fixed`` then raises UndeclaredAtomError.
    """
    world = tuple(world)
    try:
        return _conditioned(f, fixed, world, (1 << (1 << len(world))) - 1)
    except _FreeAtom as free:
        if not quantify:
            raise UndeclaredAtomError(str(free)) from None
        # For all values of the free atom: the AND of both substitutions.
        name = str(free)
        return (conditioned_models(f, {**fixed, name: False}, world)
                & conditioned_models(f, {**fixed, name: True}, world))


# ---------------------------------------------------------------------------
# Sublanguages
# ---------------------------------------------------------------------------

def in_sublanguage(f: Formula, vocabulary: Vocabulary, lang: str,
                   agent: str | None = None) -> bool:
    """Membership in a sublanguage of the partitioned vocabulary.

    ``lang`` is one of:
      - "world": every atom is a world atom
      - "decision": every atom is a decision atom of ``agent``
      - "full": always true (the unrestricted language)

    Atom-free formulas belong to every sublanguage.
    """
    if lang == "full":
        return True
    names = atoms_of(f)
    if lang == "world":
        return all(vocabulary.owner(n) is None for n in names)
    if lang == "decision":
        if agent is None:
            raise ValueError("lang='decision' requires an agent id")
        return all(vocabulary.owner(n) == agent for n in names)
    raise ValueError(f"unknown sublanguage {lang!r}")
