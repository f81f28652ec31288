"""Rule extensions: the least superset of a theory closed under rules.

A rule fires when its antecedent is entailed by the current theory (not
merely a syntactic member), and contributes its consequent as a whole
formula.  Extensions are syntax-level sets: they contain the base and the
fired consequents, nothing else, and are never deductively closed.
Inconsistent extensions are legal outputs; they are flagged, not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .logic import (DEFAULT_MAX_ATOMS, TRUE, Formula, _universe,
                    conditioned_models, mask_entails, models)


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


class Extension:
    """Result of closing a base theory under a rule set.

    ``iterations`` counts the rounds that added at least one new formula;
    all applicable rules fire in each round, so the count is deterministic.
    ``models`` is the model mask of the formulas over the atom universe of
    the fixpoint (an agent's extension, ``decision.agent_extension``, has
    its decision's literals substituted and ranges over ``spec.mask_atoms``).

    A joint extension (``Extension.joint``, built per profile by
    ``decision.joint_extension``) holds only its parts, the agents'
    extensions, and its consistency flag.  Its sets are built from the
    parts when first read and then kept: the base is the union of the
    parts' bases, the derived set the union of their derived sets less
    that base, and ``iterations`` the largest part's count.  Its
    ``models``, the AND of the parts' masks, is computed on every read, so
    it holds no mask of its own.

    Equality and hashing are by value, on (base, derived, iterations,
    consistent), so a joint extension equals an eagerly built one with the
    same sets; ``models`` takes no part in them.  Instances are immutable.
    """

    __slots__ = ("_base", "_derived", "_iterations", "_consistent",
                 "_models", "_parts")

    def __init__(self, base: frozenset[Formula], derived: frozenset[Formula],
                 iterations: int, consistent: bool,
                 models: int | None = None) -> None:
        self._base = base
        self._derived = derived
        self._iterations = iterations
        self._consistent = consistent
        self._models = models
        self._parts: tuple[Extension, ...] | None = None

    @classmethod
    def joint(cls, parts: tuple["Extension", ...],
              consistent: bool) -> "Extension":
        """The union of ``parts``, whose masks range over one universe and
        whose AND is nonempty iff ``consistent``; nothing is built yet."""
        ext = cls.__new__(cls)
        ext._base = ext._derived = ext._iterations = ext._models = None
        ext._consistent = consistent
        ext._parts = parts
        return ext

    def _join(self) -> None:
        """Build a joint extension's formula sets from its parts."""
        base: set[Formula] = set()
        derived: set[Formula] = set()
        for part in self._parts:
            base |= part.base
            derived |= part.derived
        self._base = frozenset(base)
        self._derived = frozenset(derived - base)

    @property
    def base(self) -> frozenset[Formula]:
        if self._base is None:
            self._join()
        return self._base

    @property
    def derived(self) -> frozenset[Formula]:
        if self._derived is None:
            self._join()
        return self._derived

    @property
    def iterations(self) -> int:
        if self._iterations is None:
            self._iterations = max((p.iterations for p in self._parts),
                                   default=0)
        return self._iterations

    @property
    def consistent(self) -> bool:
        return self._consistent

    @property
    def models(self) -> int | None:
        if self._parts is None:
            return self._models
        mask = -1  # every assignment
        for part in self._parts:
            mask &= part.models
        return mask

    @property
    def formulas(self) -> frozenset[Formula]:
        return self.base | self.derived

    def _key(self) -> tuple:
        return (self.base, self.derived, self.iterations, self.consistent)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Extension(base={self.base!r}, derived={self.derived!r}, "
                f"iterations={self.iterations!r}, "
                f"consistent={self.consistent!r})")


def applicable_consequents(rules: Iterable[Rule], theory: Iterable[Formula], *,
                           atoms: Sequence[str] | None = None,
                           max_atoms: int = DEFAULT_MAX_ATOMS) -> frozenset[Formula]:
    """Consequents of the rules whose antecedent the theory entails."""
    theory = tuple(theory)
    rules = tuple(rules)
    universe = _universe(
        [*theory, *(f for r in rules for f in (r.antecedent, r.consequent))],
        atoms, max_atoms)
    mask = models(theory, atoms=universe, max_atoms=max_atoms)
    return frozenset(r.consequent for r in rules
                     if mask_entails(mask, r.antecedent, universe))


def extension(rules: Iterable[Rule], base: Iterable[Formula], *,
              atoms: Sequence[str] | None = None,
              max_atoms: int = DEFAULT_MAX_ATOMS) -> Extension:
    """Iteratively fire all applicable rules until nothing new is added.

    Each productive round adds at least one of the finitely many rule
    consequents, so the fixpoint is reached in at most ``len(rules)``
    productive rounds.

    The model masks range over ``atoms`` (by default the atoms of the base
    and the rules).  Antecedent atoms outside them are left free by the
    theory and quantified universally (see ``logic.conditioned_models``).
    Every formula that enters the theory (the base and fired consequents)
    must therefore be over ``atoms``; one that is not raises
    UndeclaredAtomError.
    """
    rules = tuple(rules)
    base_set = frozenset(base)
    universe = _universe(
        [*base_set, *(f for r in rules for f in (r.antecedent, r.consequent))],
        atoms, max_atoms)

    def premise(f: Formula) -> int:
        return conditioned_models(f, {}, universe, quantify=False)[0]

    full = theory = premise(TRUE)
    # Where each antecedent fails: the theory entails it iff they are apart.
    failing = tuple(full ^ conditioned_models(r.antecedent, {}, universe)[0]
                    for r in rules)
    current = set(base_set)
    for f in base_set:
        theory &= premise(f)
    rounds = 0
    for _ in range(len(rules) + 1):
        new = {r.consequent for r, fails in zip(rules, failing)
               if not theory & fails} - current
        if not new:
            break
        current |= new
        for f in new:
            theory &= premise(f)
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
