import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdgame.errors import (FormulaSyntaxError, UndeclaredAtomError,
                           VocabularyLimitError)
from bdgame.logic import (FALSE, TRUE, And, Atom, Implies, Literal, Not, Or,
                          Var, Vocabulary, atoms_of, consistent, entails,
                          evaluate, format_formula, in_sublanguage,
                          mask_entails, models, parse_formula, parse_literal)

ATOMS = ["a", "b", "p", "q", "r", "s"]


def vocab(world=("p", "q", "r", "s"), decisions=(("a1", ("a", "b")),)):
    atoms = [Atom(n, aid) for aid, names in decisions for n in names]
    atoms += [Atom(n, None) for n in world]
    return Vocabulary(atoms)


formulas = st.recursive(
    st.sampled_from([TRUE, FALSE] + [Var(n) for n in ATOMS]),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
    ),
    max_leaves=12)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_negated_atom():
    v = vocab()
    assert parse_formula("!p", v) == Not(Var("p"))


def test_rule_arrow_is_not_formula_syntax():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("b => p", vocab())


def test_precedence_reference_tree():
    got = parse_formula("a & !q | r", vocab())
    assert got == Or(And(Var("a"), Not(Var("q"))), Var("r"))


def test_implication_is_right_associative():
    assert parse_formula("p -> q -> r") == \
        Implies(Var("p"), Implies(Var("q"), Var("r")))
    assert parse_formula("(p -> q) -> r") == \
        Implies(Implies(Var("p"), Var("q")), Var("r"))


def test_parentheses_and_constants():
    assert parse_formula("true & (false | p)") == \
        And(TRUE, Or(FALSE, Var("p")))


def test_undeclared_atom_is_named():
    with pytest.raises(UndeclaredAtomError, match="zzz"):
        parse_formula("p & zzz", vocab())


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p & ")
    assert exc.value.position == 4


def test_reserved_words_rejected_as_atom_names():
    with pytest.raises(UndeclaredAtomError):
        Vocabulary([Atom("true", None)])


def test_duplicate_atom_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary([Atom("p", None), Atom("p", "a1")])


@given(formulas)
@settings(max_examples=300)
def test_print_parse_round_trip(f):
    assert parse_formula(format_formula(f)) == f


# ---------------------------------------------------------------------------
# Entailment and consistency
# ---------------------------------------------------------------------------

def test_entails_membership():
    assert entails([Not(Var("p")), Var("a")], Not(Var("p")))


def test_entails_disjunctive_syllogism():
    assert entails([Or(Var("p"), Var("q")), Not(Var("p"))], Var("q"))


def test_inconsistent_premises_entail_anything():
    premises = [Not(Var("p")), Var("a"), Var("d"), Var("e"),
                Var("q"), Not(Var("q"))]
    assert entails(premises, Var("b"))
    assert entails(premises, FALSE)


def test_consistency_cases():
    assert consistent([])
    assert consistent([Not(Var("p")), Var("a"), Var("d"), Var("q")])
    assert not consistent([Var("q"), Not(Var("q"))])


def test_vocabulary_limit():
    many = [Var(f"x{i}") for i in range(30)]
    with pytest.raises(VocabularyLimitError):
        entails(many, many[0])
    few = [Var(f"x{i}") for i in range(10)]
    with pytest.raises(VocabularyLimitError):
        entails(few, few[0], max_atoms=5)
    assert entails(few, few[0], max_atoms=10)


def _naive_entails(premises, conclusion):
    names = sorted(set().union(atoms_of(conclusion),
                               *(atoms_of(p) for p in premises)))
    for values in itertools.product([False, True], repeat=len(names)):
        assignment = dict(zip(names, values))
        if all(evaluate(p, assignment) for p in premises) and \
                not evaluate(conclusion, assignment):
            return False
    return True


@given(st.lists(formulas, max_size=4), formulas)
@settings(max_examples=200)
def test_entailment_agrees_with_assignment_enumeration(premises, conclusion):
    assert entails(premises, conclusion) == \
        _naive_entails(premises, conclusion)


@given(st.lists(formulas, max_size=3), st.lists(formulas, max_size=2),
       formulas)
@settings(max_examples=150)
def test_entailment_is_monotone(premises, extra, conclusion):
    if entails(premises, conclusion):
        assert entails(premises + extra, conclusion)


@given(st.lists(formulas, max_size=3), formulas, formulas)
@settings(max_examples=150)
def test_deduction_sanity(premises, x, y):
    if entails(premises, x) and entails(premises + [x], y):
        assert entails(premises, y)


def _assignments(names):
    """Every assignment to ``names``, in mask bit order: bit k of a model
    mask is assignment k, where atom i is true iff bit i of k is set."""
    for k in range(1 << len(names)):
        yield {name: bool(k >> i & 1) for i, name in enumerate(names)}


@given(st.lists(formulas, max_size=4), st.booleans(),
       st.lists(formulas, max_size=4))
@settings(max_examples=200)
def test_theory_masks_agree_with_assignment_enumeration(premises, clash,
                                                        queries):
    if clash:  # an inconsistent theory entails every query
        premises = premises + [Var("q"), Not(Var("q"))]
    theory = models(premises, atoms=ATOMS)
    satisfying = [k for k, assignment in enumerate(_assignments(ATOMS))
                  if all(evaluate(p, assignment) for p in premises)]
    assert theory == sum(1 << k for k in satisfying)
    assignments = list(_assignments(ATOMS))
    for query in queries:
        assert mask_entails(theory, query, ATOMS) == all(
            evaluate(query, assignments[k]) for k in satisfying)


def test_theory_masks_refuse_atoms_outside_the_universe():
    with pytest.raises(UndeclaredAtomError, match="zzz"):
        models([Var("p"), Var("zzz")], atoms=["p"])
    theory = models([Var("p")], atoms=["p"])
    with pytest.raises(UndeclaredAtomError, match="zzz"):
        mask_entails(theory, Or(Var("p"), Var("zzz")), ["p"])
    assert mask_entails(0, Var("zzz"), ["p"])  # no model: nothing to test


def test_entailment_keeps_no_masks():
    """Masks live as long as the call that built them: 1,500 distinct
    queries over 16 atoms (8 KiB per mask) leave less than 1 MiB behind."""
    names = [f"x{i}" for i in range(16)]
    premises = [Or(Var("x0"), Var("x1")), Implies(Var("x2"), Var("x3"))]
    queries = [Implies(And(Var(names[i]), Not(Var(names[j]))),
                       Or(Var(names[k]), Var(names[(i + j + k) % 16])))
               for i, j, k in itertools.product(range(16), repeat=3)
               if len({i, j, k}) == 3][:1500]
    assert len(set(queries)) == 1500
    entails(premises, queries[0], atoms=names)  # builds the atom patterns
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for query in queries:
            entails(premises, query, atoms=names)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20


def test_consistent_iff_not_entails_false():
    rng = random.Random(42)
    pool = [Var(n) for n in ATOMS] + [Not(Var(n)) for n in ATOMS] + \
           [TRUE, FALSE, And(Var("a"), Not(Var("p"))),
            Or(Var("p"), Var("q")), Implies(Var("a"), Var("q"))]
    for _ in range(1000):
        premises = rng.sample(pool, rng.randint(0, 5))
        assert consistent(premises) == (not entails(premises, FALSE))


# ---------------------------------------------------------------------------
# Sublanguages and literals
# ---------------------------------------------------------------------------

def test_world_formula_in_world_language():
    v = vocab()
    assert in_sublanguage(And(Var("p"), Var("q")), v, "world")


def test_decision_atom_breaks_world_language():
    v = vocab()
    assert not in_sublanguage(And(Var("a"), Var("p")), v, "world")


def test_atom_free_formula_in_every_sublanguage():
    v = vocab()
    assert in_sublanguage(TRUE, v, "world")
    assert in_sublanguage(TRUE, v, "decision", "a1")
    assert in_sublanguage(Implies(TRUE, FALSE), v, "world")


def test_decision_language_is_per_agent():
    v = Vocabulary([Atom("a", "a1"), Atom("b", "a2"), Atom("p", None)])
    assert in_sublanguage(Var("a"), v, "decision", "a1")
    assert not in_sublanguage(Var("a"), v, "decision", "a2")
    assert in_sublanguage(Var("a"), v, "full")


def test_literals():
    assert parse_literal("!b") == Literal("b", False)
    assert parse_literal(" a ") == Literal("a", True)
    assert str(Literal("b", False)) == "!b"
    assert Literal("b", False).formula() == Not(Var("b"))
    with pytest.raises(FormulaSyntaxError):
        parse_literal("a & b")
