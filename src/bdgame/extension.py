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

from .logic import DEFAULT_MAX_ATOMS, Formula, atoms_of, entails, models


@dataclass(frozen=True)
class Rule:
    """An ordered pair of formulas, typed belief or desire, owned by an agent.

    Belief rules have world-language consequents; desire rules are
    unrestricted.  Typing is validated at the spec level, not here.
    """

    id: str
    antecedent: Formula
    consequent: Formula
    kind: str  # "belief" | "desire"
    owner: str

    def __str__(self) -> str:
        return f"{self.id}: {self.antecedent} => {self.consequent}"


@dataclass(frozen=True)
class Extension:
    """Result of closing a base theory under a rule set.

    ``iterations`` counts the rounds that added at least one new formula;
    all applicable rules fire in each round, so the count is deterministic.
    ``models`` is the model mask of the formulas over the atom universe of
    the fixpoint (see ``logic.models``), so that a union of extensions over
    one universe decides consistency with one AND per part.  It takes no
    part in equality, and unions leave it None.
    """

    base: frozenset[Formula]
    derived: frozenset[Formula]
    iterations: int
    consistent: bool
    models: int | None = field(default=None, compare=False, repr=False)

    @property
    def formulas(self) -> frozenset[Formula]:
        return self.base | self.derived


def _rule_universe(rules: Iterable[Rule], base: Iterable[Formula],
                   atoms: Sequence[str] | None) -> tuple[str, ...]:
    if atoms is not None:
        return tuple(atoms)
    names: set[str] = set()
    for r in rules:
        names |= atoms_of(r.antecedent) | atoms_of(r.consequent)
    for f in base:
        names |= atoms_of(f)
    return tuple(sorted(names))


def applicable_consequents(rules: Iterable[Rule], theory: Iterable[Formula], *,
                           atoms: Sequence[str] | None = None,
                           max_atoms: int = DEFAULT_MAX_ATOMS) -> frozenset[Formula]:
    """Consequents of the rules whose antecedent the theory entails."""
    theory = tuple(theory)
    rules = tuple(rules)
    universe = _rule_universe(rules, theory, atoms)
    return frozenset(
        r.consequent for r in rules
        if entails(theory, r.antecedent, atoms=universe, max_atoms=max_atoms))


def extension(rules: Iterable[Rule], base: Iterable[Formula], *,
              atoms: Sequence[str] | None = None,
              max_atoms: int = DEFAULT_MAX_ATOMS) -> Extension:
    """Iteratively fire all applicable rules until nothing new is added.

    Each productive round adds at least one of the finitely many rule
    consequents, so the fixpoint is reached in at most ``len(rules)``
    productive rounds.
    """
    rules = tuple(rules)
    base_set = frozenset(base)
    universe = _rule_universe(rules, base_set, atoms)
    current = set(base_set)
    rounds = 0
    for _ in range(len(rules) + 1):
        fired = applicable_consequents(rules, current, atoms=universe,
                                       max_atoms=max_atoms)
        new = fired - current
        if not new:
            break
        current |= new
        rounds += 1
    else:
        raise AssertionError("fixpoint not reached within len(rules)+1 rounds")
    mask = models(current, atoms=universe, max_atoms=max_atoms)
    return Extension(
        base=base_set,
        derived=frozenset(current - base_set),
        iterations=rounds,
        consistent=mask != 0,
        models=mask,
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
    universe = _rule_universe(rules, base_set | claimed_set, atoms)
    consequents = tuple({r.consequent for r in rules} - base_set)
    least: frozenset[Formula] | None = None
    for size in range(len(consequents) + 1):
        for chosen in combinations(consequents, size):
            candidate = base_set | frozenset(chosen)
            fired = applicable_consequents(rules, candidate, atoms=universe,
                                           max_atoms=max_atoms)
            if fired <= candidate:
                least = candidate if least is None else least & candidate
    assert least is not None  # base | consequents is always closed
    return claimed_set == least
