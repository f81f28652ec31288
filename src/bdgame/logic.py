"""Propositional formulas, parsing, and classical entailment.

Formulas are immutable ASTs compared syntactically: formula sets throughout
the package are *not* closed under logical consequence, so set membership is
syntax-level on purpose.

Entailment is exact classical semantics, implemented as truth-table
enumeration over a finite atom universe.  Each formula is compiled to an
integer bitmask with one bit per assignment, so entailment checks reduce to
a handful of big-integer operations.  The universe defaults to the atoms
occurring in the query, which coincides with full-vocabulary semantics for
both entailment and consistency.  ``models`` builds a theory's model mask,
and ``entails`` and ``consistent`` go through it.  A caller that queries
one universe many times takes a ``model_builder``: it builds the theory's
mask once and then answers each query with one AND.
The solver's own queries use ``conditioned_models``: masks over the world
atoms a theory can constrain, with a profile's decision literals
substituted and the atoms the caller names free quantified, universally
for entailment and existentially for its negation.  No theory mentions
those atoms, so quantifying them (forgetting, Lin & Reiter 1994) is exact.
A rule's formulas keep their masks per profile values in a ``RuleEntry``.

There is one compiler (``_conditioned``) behind all of these, and no mask
cache.  A mask lives as long as the call or the caller that built it, and
so do the per-atom truth tables it is built from: each compile draws them
from a table that its caller owns, keyed by (atom position, universe
width) and filled on first use.  ``models``, ``entails`` and
``consistent`` own one table per call, a ``model_builder`` owns one for
its caller, and ``conditioned_models`` and ``RuleEntry`` take their
caller's.  No table lives at module level.

Nothing here knows which agent owns an atom: the partition of the
vocabulary into each agent's decision atoms and the world atoms is one map
on the spec, ``model.AgentSystemSpec.vocabulary``, and the parser takes
any container of declared names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Container, Iterable, Mapping, Sequence

from .errors import FormulaSyntaxError, UndeclaredAtomError, VocabularyLimitError

DEFAULT_MAX_ATOMS = 24

_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_RESERVED = {"true", "false"}


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

# One token per match: an operator, a parenthesis or an identifier in group
# 1, or a stray character in group 2.
_TOKEN_RE = re.compile(r"\s*(?:(->|[!&|()]|[a-zA-Z][a-zA-Z0-9_]*)|(\S))")

# The binary operators: binding strength and node.
_BINARY = {"&": (3, And), "|": (2, Or), "->": (1, Implies)}

# The deepest a formula may nest, counting the parenthesis pairs and
# operators on one path down to an atom: parsing and every walk of a
# formula then stay far inside Python's recursion limit.
MAX_NESTING = 100


def _nest(nesting: int, at: int) -> int:
    if nesting > MAX_NESTING:
        raise FormulaSyntaxError(
            f"formula nested deeper than {MAX_NESTING} levels", at)
    return nesting


# Both readers take the token index and the nesting of their position, and
# return their formula, its own nesting and the index after it; ``_nest``
# checks the depth on the way down and the height on the way up.

def _operand(tokens: list[tuple[str, int]], i: int, depth: int,
             vocabulary: Container[str] | None) -> tuple[Formula, int, int]:
    text, at = tokens[i]
    if text == "!":
        f, height, i = _operand(tokens, i + 1, _nest(depth + 1, at),
                                vocabulary)
        return Not(f), _nest(height + 1, at), i
    if text == "(":
        f, height, i = _expression(tokens, i + 1, _nest(depth + 1, at), 1,
                                   vocabulary)
        closing, closing_at = tokens[i]
        if closing != ")":
            raise FormulaSyntaxError(
                "expected ')'" if closing else "unexpected end of formula",
                closing_at)
        return f, _nest(height + 1, at), i + 1
    if text == "true":
        return TRUE, 0, i + 1
    if text == "false":
        return FALSE, 0, i + 1
    if not text:
        raise FormulaSyntaxError("unexpected end of formula", at)
    if text == ")" or text in _BINARY:
        raise FormulaSyntaxError(f"unexpected token '{text}'", at)
    if vocabulary is not None and text not in vocabulary:
        raise UndeclaredAtomError(text)
    return Var(text), 0, i + 1


def _expression(tokens: list[tuple[str, int]], i: int, depth: int,
                lowest: int, vocabulary: Container[str] | None
                ) -> tuple[Formula, int, int]:
    # Precedence climbing: the operators binding at least ``lowest``.
    left, height, i = _operand(tokens, i, depth, vocabulary)
    while True:
        text, at = tokens[i]
        binary = _BINARY.get(text)
        if binary is None or binary[0] < lowest:
            return left, height, i
        strength, node = binary
        if node is Implies:  # right-associative, one level deeper
            right, below, i = _expression(tokens, i + 1, _nest(depth + 1, at),
                                          strength, vocabulary)
        else:
            right, below, i = _expression(tokens, i + 1, depth, strength + 1,
                                          vocabulary)
        left = node(left, right)
        height = _nest(max(height, below) + 1, at)


def parse_formula(text: str,
                  vocabulary: Container[str] | None = None) -> Formula:
    """Parse formula source text against a vocabulary, any container of
    the declared atom names.

    Raises FormulaSyntaxError with the offending column, also for a
    formula nested deeper than ``MAX_NESTING``, or UndeclaredAtomError for
    identifiers missing from the vocabulary.  With ``vocabulary=None`` any
    identifier is accepted.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 2:
            raise FormulaSyntaxError(
                f"unexpected character {m.group(2)!r}", m.start(2))
        tokens.append((m.group(1), m.start(1)))
    tokens.append(("", len(text)))  # the end
    f, _, i = _expression(tokens, 0, 0, 1, vocabulary)
    text, at = tokens[i]
    if text:
        raise FormulaSyntaxError(f"unexpected token '{text}'", at)
    return f


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


def formula_printer() -> Callable[[Formula], str]:
    """``format_formula`` with a memo for one caller: each formula object is
    printed once and found again by ``id``, which costs less than hashing
    the formula.  The memo keeps every formula it printed, so no id in it
    is reused while it lives; it dies with the caller's reference."""
    texts: dict[int, tuple[Formula, str]] = {}

    def text(f: Formula) -> str:
        entry = texts.get(id(f))
        if entry is None:
            entry = texts[id(f)] = (f, _format(f, 0))
        return entry[1]
    return text


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


def _models(universe: tuple[str, ...], patterns: dict[tuple[int, int], int],
            formulas: Iterable[Formula], mask: int | None = None) -> int:
    if mask is None:
        mask = (1 << (1 << len(universe))) - 1
    # Each formula is compiled within the assignments left, which are all
    # the AND keeps of it; once none is left, nothing more is compiled.
    for f in formulas:
        if mask == 0:
            break
        mask &= _conditioned(f, {}, universe, mask, patterns)
    return mask


def models(formulas: Iterable[Formula], *,
           atoms: Sequence[str] | None = None,
           max_atoms: int = DEFAULT_MAX_ATOMS) -> int:
    """The assignments satisfying every formula, as a bitmask over the
    universe (``atoms``, by default the atoms of the formulas).  A theory
    queried many times is built with ``model_builder``.
    """
    formulas = tuple(formulas)
    return _models(_universe(formulas, atoms, max_atoms), {}, formulas)


def model_builder(atoms: Sequence[str], max_atoms: int) -> partial[int]:
    """``models`` over one universe for one caller: ``build(formulas,
    within=None)`` is the mask of the assignments in ``within`` (a model
    mask over ``atoms``; by default all of them) satisfying every formula.

    A theory that grows by parts is built part by part within the mask of
    the parts before, since the models of a union are the AND of the
    models; and a theory ``m`` entails ``f`` iff ``build((f,), m) == m``.
    The atom patterns are built on first use and kept for later calls, so
    they die with the caller's reference."""
    return partial(_models, _universe((), atoms, max_atoms), {})


def entails(premises: Iterable[Formula], conclusion: Formula, *,
            atoms: Sequence[str] | None = None,
            max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Classical entailment with the premise set read conjunctively.

    True iff every assignment satisfying all premises satisfies the
    conclusion; an inconsistent premise set entails everything.
    """
    # No assignment satisfies the premises and the conclusion's negation,
    # which is compiled within the premises' assignments.
    return models((*premises, Not(conclusion)), atoms=atoms,
                  max_atoms=max_atoms) == 0


def consistent(premises: Iterable[Formula], *,
               atoms: Sequence[str] | None = None,
               max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """True iff some assignment satisfies every premise."""
    return models(premises, atoms=atoms, max_atoms=max_atoms) != 0


def _conditioned(f: Formula, values: Mapping[str, bool],
                 world: tuple[str, ...], full: int,
                 patterns: dict[tuple[int, int], int]) -> int:
    # The one formula compiler.  Negation complements within ``full``; the
    # result agrees with the formula's mask on every assignment in ``full``.
    # An atom neither in ``values`` nor in the universe is undeclared.  An
    # atom's truth table is looked up in ``patterns`` by its position and
    # the universe's width, and built there on a miss.
    kind = type(f)
    if kind is Var:
        value = values.get(f.name)
        if value is not None:
            return full if value else 0
        try:
            key = world.index(f.name), len(world)
        except ValueError:
            raise UndeclaredAtomError(f.name) from None
        if key not in patterns:
            patterns[key] = _atom_pattern(*key)
        return patterns[key]
    if kind is Not:
        return full ^ _conditioned(f.operand, values, world, full, patterns)
    if kind is Const:
        return full if f.value else 0
    left = _conditioned(f.left, values, world, full, patterns)
    right = _conditioned(f.right, values, world, full, patterns)
    if kind is And:
        return left & right
    if kind is Or:
        return left | right
    return (full ^ left) | right


def conditioned_models(f: Formula, fixed: Mapping[str, bool],
                       world: Sequence[str], free: Iterable[str],
                       patterns: dict[tuple[int, int], int]
                       ) -> tuple[int, int]:
    """The assignments to ``world`` under which ``f`` holds with the atoms
    in ``fixed`` set to their values, for every value of the ``free``
    atoms and for some value of them: two model masks over ``world``.

    A theory made of the fixed literals and formulas over ``world`` leaves
    every free atom unconstrained, so with ``(every, some)`` returned, its
    model mask ``m`` over ``world`` entails ``f`` iff ``m & every == m``,
    and entails ``!f`` iff ``m & some == 0``.  The compile runs once over
    ``world`` and then ``free``; the masks then fold each free atom's top
    half onto the bottom half, by AND and by OR, so the order of ``free``
    does not matter.  An atom of ``f`` in none of ``world``, ``fixed`` and
    ``free`` raises UndeclaredAtomError.  The atom patterns come from the
    caller's table ``patterns`` (an empty dict for a table of this call
    alone), which serves compiles over any universe and width.
    """
    universe = tuple(world) + tuple(free)
    every = some = _conditioned(f, fixed, universe,
                                (1 << (1 << len(universe))) - 1, patterns)
    for top in reversed(range(len(world), len(universe))):
        half = 1 << top  # the assignments where the top atom is false
        low = (1 << half) - 1
        every, some = every & low & every >> half, some & low | some >> half
    return every, some


class RuleEntry:
    """One rule's formulas (a belief's antecedent, or a desire's antecedent
    and consequent) compiled over the mask universe ``world``, once per
    value tuple on ``atoms``, their atoms outside the declared
    ``world_atoms``.  ``outside`` holds the set of each formula's atoms
    outside ``world``, which a theory over ``world`` leaves free.  ``table``
    maps a profile's values on ``atoms`` (None where unset) to each
    formula's ``(every, some)`` masks of ``conditioned_models``, in formula
    order; callers look a key up there and call ``compile`` on a miss.
    Every compile draws its atom patterns from ``patterns``, the table of
    the entry's owner.
    """

    __slots__ = ("formulas", "world", "atoms", "outside", "table", "patterns")

    def __init__(self, formulas: tuple[Formula, ...], world: tuple[str, ...],
                 world_atoms: frozenset[str],
                 patterns: dict[tuple[int, int], int]):
        self.formulas, self.world, self.table = formulas, world, {}
        self.patterns = patterns
        self.outside = outside = tuple([atoms_of(f).difference(world)
                                        for f in formulas])
        self.atoms = tuple(frozenset().union(*outside) - world_atoms)

    def compile(self, key: tuple[bool | None, ...]) -> tuple[int, ...]:
        """Enter the masks of ``key`` in ``table``, with the atoms it sets
        fixed and the ones outside ``world`` it leaves unset free."""
        given = {a: v for a, v in zip(self.atoms, key) if v is not None}
        masks = ()
        for f, outside in zip(self.formulas, self.outside):
            masks += conditioned_models(
                f, given, self.world, outside.difference(given), self.patterns)
        self.table[key] = masks
        return masks
