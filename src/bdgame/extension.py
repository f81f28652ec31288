"""Rule extensions: the least superset of a theory closed under rules.

A rule fires when its antecedent is entailed by the current theory (not
merely a syntactic member), and contributes its consequent as a whole
formula.  Extensions are syntax-level sets: they contain the base and the
fired consequents, nothing else, and are never deductively closed.
Inconsistent extensions are legal outputs; they are flagged, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .logic import DEFAULT_MAX_ATOMS, Formula, _universe, model_builder


@dataclass(frozen=True)
class Rule:
    """An ordered pair of formulas under an id.

    Whether a rule is a belief or a desire, and whose, is where it sits in
    a spec (``AgentSpec.beliefs`` or ``AgentSpec.desires``).  Belief rules
    have world-language consequents; desire rules are unrestricted.
    Typing is validated at the spec level, not here.
    """

    id: str
    antecedent: Formula
    consequent: Formula

    def __str__(self) -> str:
        return f"{self.id}: {self.antecedent} => {self.consequent}"


@dataclass(frozen=True, slots=True)
class Extension:
    """Result of closing a base theory under a rule set.

    ``iterations`` counts the rounds that added at least one new formula;
    all applicable rules fire in each round, so the count is deterministic.
    ``models`` is the model mask of the formulas over the atom universe of
    the fixpoint (an agent's extension, ``decision.agent_extension``, has
    its decision's literals substituted and ranges over ``spec.mask_atoms``;
    a joint extension, ``decision.joint_extension``, holds the AND of its
    parts' masks).  ``models`` takes no part in equality or hashing, so
    extensions built over different universes compare by their sets alone.
    """

    base: frozenset[Formula]
    derived: frozenset[Formula]
    iterations: int
    consistent: bool
    models: int | None = field(default=None, compare=False, repr=False)

    @property
    def formulas(self) -> frozenset[Formula]:
        return self.base | self.derived


def applicable_consequents(rules: Iterable[Rule], theory: Iterable[Formula], *,
                           atoms: Sequence[str] | None = None,
                           max_atoms: int = DEFAULT_MAX_ATOMS) -> frozenset[Formula]:
    """Consequents of the rules whose antecedent the theory entails."""
    theory = tuple(theory)
    rules = tuple(rules)
    universe = _universe(
        [*theory, *(f for r in rules for f in (r.antecedent, r.consequent))],
        atoms, max_atoms)
    build = model_builder(universe, max_atoms)
    mask = build(theory)
    return frozenset(r.consequent for r in rules
                     if build((r.antecedent,), mask) == mask)


def extension(rules: Iterable[Rule], base: Iterable[Formula], *,
              atoms: Sequence[str] | None = None,
              max_atoms: int = DEFAULT_MAX_ATOMS) -> Extension:
    """Iteratively fire all applicable rules until nothing new is added.

    Each productive round adds at least one of the finitely many rule
    consequents, so the fixpoint is reached in at most ``len(rules)``
    productive rounds.

    The model masks range over ``atoms`` (by default the atoms of the base
    and the rules).  The base, every antecedent and every fired consequent
    must be over them; a formula that is not raises UndeclaredAtomError, as
    an antecedent does in ``applicable_consequents`` and
    ``fixpoint_certificate``.
    """
    rules = tuple(rules)
    base_set = frozenset(base)
    universe = _universe(
        [*base_set, *(f for r in rules for f in (r.antecedent, r.consequent))],
        atoms, max_atoms)

    build = model_builder(universe, max_atoms)
    full = theory = build(())
    # Where each antecedent fails: the theory entails it iff they are apart.
    failing = tuple(full ^ build((r.antecedent,)) for r in rules)
    current = set(base_set)
    for f in base_set:
        theory &= build((f,))
    rounds = 0
    for _ in range(len(rules) + 1):
        new = {r.consequent for r, fails in zip(rules, failing)
               if not theory & fails} - current
        if not new:
            break
        current |= new
        for f in new:
            theory &= build((f,))
        rounds += 1
    else:
        raise AssertionError("fixpoint not reached within len(rules)+1 rounds")
    return Extension(
        base=base_set,
        derived=frozenset(current - base_set),
        iterations=rounds,
        consistent=theory != 0,
        models=theory,
    )


def fixpoint_certificate(rules: Iterable[Rule], base: Iterable[Formula],
                         claimed: Iterable[Formula], *,
                         atoms: Sequence[str] | None = None,
                         max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    """Independent check that ``claimed`` is *the* extension of the base.

    Computes the intersection of every rule-closed superset of the base
    drawn from base plus consequent subsets, and compares.  Restricting
    candidates to consequent subsets is lossless: intersecting any closed
    superset with (base union consequents) yields a smaller closed superset.
    This route never iterates the fixpoint, so it can cross-check the
    iterative construction.
    """
    rules = tuple(rules)
    base_set = frozenset(base)
    claimed_set = frozenset(claimed)
    if not base_set <= claimed_set:
        return False
    universe = _universe(
        [*base_set, *claimed_set,
         *(f for r in rules for f in (r.antecedent, r.consequent))],
        atoms, max_atoms)
    consequents = tuple({r.consequent for r in rules} - base_set)
    least: frozenset[Formula] | None = None
    for size in range(len(consequents) + 1):
        for chosen in combinations(consequents, size):
            candidate = base_set | frozenset(chosen)
            fired = applicable_consequents(rules, candidate, atoms=universe,
                                           max_atoms=max_atoms)
            if fired <= candidate:
                least = candidate if least is None else least & candidate
    if least is None:
        raise RuntimeError("no closed superset found, yet base | "
                           "consequents is always closed")
    return claimed_set == least
