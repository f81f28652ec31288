import random
from dataclasses import replace

import pytest

from bdgame.errors import UndeclaredAtomError
from bdgame.extension import (Rule, applicable_consequents, extension,
                              fixpoint_certificate)
from bdgame.logic import TRUE, And, Not, Or, Var
from bdgame.verify import (check_extension_laws, check_fixpoint_agreement,
                           random_rules, random_theory)

A, B, P, Q = Var("a"), Var("b"), Var("p"), Var("q")

CONFLICT_RULES = (Rule("r1", TRUE, P, "belief", "a1"),
                  Rule("r2", A, Not(P), "belief", "a1"))


def test_applicable_consequents_from_empty_theory():
    assert applicable_consequents(CONFLICT_RULES, []) == {P}


def test_applicable_consequents_no_rules():
    assert applicable_consequents([], [A]) == frozenset()


def test_applicable_consequents_uses_entailment():
    rules = [Rule("r", P, Q, "belief", "a1")]
    assert applicable_consequents(rules, [And(P, Var("r"))]) == {Q}


def test_extension_can_be_inconsistent():
    ext = extension(CONFLICT_RULES, [A])
    assert ext.formulas == {A, P, Not(P)}
    assert not ext.consistent
    assert ext.base == {A} and ext.derived == {P, Not(P)}


def test_extension_without_rules_is_the_base():
    base = frozenset({A, Not(Q)})
    ext = extension([], base)
    assert ext.formulas == base
    assert ext.iterations == 0
    assert ext.consistent


def test_extensions_compare_and_hash_by_their_sets_not_their_masks():
    """One extension over two universes: equal and equally hashed, though
    the masks differ; a different round count tells them apart."""
    narrow = extension(CONFLICT_RULES[:1], [A])
    wide = extension(CONFLICT_RULES[:1], [A], atoms=("a", "b", "p"))
    assert narrow.models != wide.models
    assert narrow == wide and hash(narrow) == hash(wide)
    assert "models" not in repr(narrow)
    assert replace(narrow, iterations=narrow.iterations + 1) != narrow


def test_antecedent_atoms_outside_the_universe_are_refused():
    """An antecedent atom outside ``atoms`` is refused by the fixpoint as
    by both routes that check it; over a universe that holds the atom,
    the rule fires iff the theory entails its antecedent."""
    x = Var("x")
    rules = [Rule("r1", TRUE, P, "belief", "a1"),
             Rule("r2", Or(P, x), Q, "belief", "a1"),
             Rule("r3", And(Q, x), Not(P), "belief", "a1")]
    narrow = ("p", "q")
    for call in (lambda: extension(rules, [], atoms=narrow),
                 lambda: applicable_consequents(rules, [], atoms=narrow),
                 lambda: fixpoint_certificate(rules, [], [P, Q],
                                              atoms=narrow)):
        with pytest.raises(UndeclaredAtomError, match="'x'"):
            call()
    assert extension(rules, [], atoms=("p", "q", "x")).formulas == {P, Q}


def test_extension_fires_on_entailed_decision_atoms():
    rules = [Rule("b1", Var("c"), Q, "belief", "a1"),
             Rule("b2", Var("d"), Q, "belief", "a1"),
             Rule("b3", Var("e"), Not(Q), "belief", "a1")]
    base = [Not(P), A, Var("c")]
    assert extension(rules, base).formulas == {Not(P), A, Var("c"), Q}


def test_extension_chains_in_two_rounds():
    rules = [Rule("r1", TRUE, P, "belief", "a1"),
             Rule("r2", P, Q, "belief", "a1")]
    ext = extension(rules, [])
    assert ext.formulas == {P, Q}
    assert ext.iterations == 2


def test_certificate_accepts_the_extension():
    assert fixpoint_certificate(CONFLICT_RULES, [A], {A, P, Not(P)})


def test_certificate_rejects_non_fixpoints():
    assert not fixpoint_certificate(CONFLICT_RULES, [A], {A, P})


def test_certificate_trivial_empty_rules():
    assert fixpoint_certificate([], [A], [A])


def test_certificate_rejects_self_supporting_cycles():
    # {a, b} is rule-closed and drops to nothing removable-by-one, but the
    # least closed superset of the empty base is empty.
    rules = [Rule("x", A, B, "belief", "a1"),
             Rule("y", B, A, "belief", "a1")]
    assert fixpoint_certificate(rules, [], [])
    assert not fixpoint_certificate(rules, [], [A, B])


def test_certificate_requires_base_containment():
    assert not fixpoint_certificate(CONFLICT_RULES, [A], [P])


def test_iterative_and_intersection_routes_agree_exhaustively():
    result = check_fixpoint_agreement()
    assert result.passed, result


def test_extension_laws_on_random_instances():
    result = check_extension_laws(seed=321, samples=300)
    assert result.passed, result


def test_monotonicity_directly():
    rng = random.Random(9)
    for _ in range(200):
        atoms = ["a", "b", "p", "q"]
        rules = random_rules(rng, atoms, rng.randint(0, 5))
        base = random_theory(rng, atoms, rng.randint(0, 3))
        extra = random_theory(rng, atoms, rng.randint(0, 2))
        assert extension(rules, base).formulas <= \
            extension(rules, base | extra).formulas


def test_idempotence_directly():
    rng = random.Random(10)
    for _ in range(200):
        rules = random_rules(rng, ["a", "p", "q"], rng.randint(0, 4))
        base = random_theory(rng, ["a", "p", "q"], rng.randint(0, 3))
        once = extension(rules, base)
        again = extension(rules, once.formulas)
        assert again.formulas == once.formulas
        assert again.iterations == 0
