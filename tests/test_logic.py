import gc
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdgame.errors import (FormulaSyntaxError, UndeclaredAtomError,
                           VocabularyLimitError)
from bdgame.logic import (FALSE, MAX_NESTING, TRUE, And, Atom, Const,
                          Implies, Literal, Not, Or, RuleEntry, Var,
                          Vocabulary, atoms_of, conditioned_models,
                          consistent, entails, evaluate, format_formula,
                          in_sublanguage, mask_entails, models,
                          parse_formula, parse_literal)
from bdgame.verify import random_formula

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
    assert parse_formula("p | q & r") == Or(Var("p"), And(Var("q"), Var("r")))


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


# Formulas nested ``k`` levels deep, one shape each.
NESTED = {
    "parentheses": lambda k: "(" * k + "p" + ")" * k,
    "negations": lambda k: "!" * k + "p",
    "conjunctions": lambda k: " & ".join(["p"] * (k + 1)),
    "disjunctions": lambda k: " | ".join(["p"] * (k + 1)),
    "implications": lambda k: " -> ".join(["p"] * (k + 1)),
    "mixed": lambda k: "!(" * (MAX_NESTING // 2) + "q & " * (
        k - 2 * (MAX_NESTING // 2)) + "p" + ")" * (MAX_NESTING // 2),
}


def test_nesting_counts_parentheses_and_operators_up_to_the_bound():
    """Parenthesis pairs and operators nested in one another count
    together; at ``MAX_NESTING`` a formula parses and prints back, one
    level deeper it is a syntax error at the level that goes past."""
    n = MAX_NESTING
    for shape, nested in NESTED.items():
        f = parse_formula(nested(n))
        assert parse_formula(format_formula(f)) == f, shape
        with pytest.raises(FormulaSyntaxError, match="nested deeper than"):
            parse_formula(nested(n + 1))
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("(" * (n + 1) + "p" + ")" * (n + 1))
    assert exc.value.position == n


DEEPER = "formula nested deeper than 100 levels"

# Malformed formulas with the message and the column (from 0) of the
# FormulaSyntaxError each one raises.  A stray character is reported before
# any error of the tokens around it; the nesting bound is checked at the
# token where the depth (on the way down) or the height (on the way up)
# goes past it.
MALFORMED = [
    ("p $ q", "unexpected character '$'", 2),
    ("p & q#", "unexpected character '#'", 5),
    ("@", "unexpected character '@'", 0),
    ("p = q", "unexpected character '='", 2),
    ("p - q", "unexpected character '-'", 2),
    ("p <- q", "unexpected character '<'", 2),
    ("1p", "unexpected character '1'", 0),
    ("_p", "unexpected character '_'", 0),
    ("p & \u00e9", "unexpected character '\u00e9'", 4),
    ("p q $", "unexpected character '$'", 4),
    ("b => p", "unexpected character '='", 2),
    ("p =>", "unexpected character '='", 2),
    ("", "unexpected end of formula", 0),
    ("   ", "unexpected end of formula", 3),
    ("(p & q", "unexpected end of formula", 6),
    ("((p)", "unexpected end of formula", 4),
    ("p)", "unexpected token ')'", 1),
    ("(p))", "unexpected token ')'", 3),
    ("()", "unexpected token ')'", 1),
    ("(p | q)) & (r", "unexpected token ')'", 7),
    ("(p q)", "expected ')'", 3),
    ("p & (q | )", "unexpected token ')'", 9),
    ("!", "unexpected end of formula", 1),
    ("!!", "unexpected end of formula", 2),
    ("!)", "unexpected token ')'", 1),
    ("p & !", "unexpected end of formula", 5),
    ("&", "unexpected token '&'", 0),
    ("p &", "unexpected end of formula", 3),
    ("p & & q", "unexpected token '&'", 4),
    ("p |", "unexpected end of formula", 3),
    ("| p", "unexpected token '|'", 0),
    ("p ->", "unexpected end of formula", 4),
    ("-> p", "unexpected token '->'", 0),
    ("p -> -> q", "unexpected token '->'", 5),
    ("p -> q ->", "unexpected end of formula", 9),
    ("p & q | -> r", "unexpected token '->'", 8),
    ("p q", "unexpected token 'q'", 2),
    ("true p", "unexpected token 'p'", 5),
    ("p (q)", "unexpected token '('", 2),
    ("(p) q", "unexpected token 'q'", 4),
    ("!p q", "unexpected token 'q'", 3),
    (NESTED["parentheses"](MAX_NESTING + 1), DEEPER, 100),
    (NESTED["negations"](MAX_NESTING + 1), DEEPER, 100),
    (NESTED["conjunctions"](MAX_NESTING + 1), DEEPER, 402),
    (NESTED["disjunctions"](MAX_NESTING + 1), DEEPER, 402),
    (NESTED["implications"](MAX_NESTING + 1), DEEPER, 502),
    (NESTED["mixed"](MAX_NESTING + 1), DEEPER, 0),
    ("(" * (MAX_NESTING + 1) + "p", DEEPER, 100),
    (NESTED["conjunctions"](MAX_NESTING + 1) + " )", DEEPER, 402),
]


@pytest.mark.parametrize("text,message,column", MALFORMED,
                         ids=[f"{k}" for k in range(len(MALFORMED))])
def test_malformed_formulas_name_the_error_and_its_column(text, message,
                                                          column):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text, vocab())
    assert (str(exc.value), exc.value.position) == (
        f"{message} (at column {column + 1})", column)


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
    # Built part by part: the second half within the models of the first.
    half = len(premises) // 2
    assert models(premises[half:], atoms=ATOMS, within=models(
        premises[:half], atoms=ATOMS)) == theory
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


WORLD = ("p", "q", "r", "s")
DECISIONS = ("a", "b")


def first_free_atom(f, fixed, world):
    """The leftmost atom of ``f`` outside ``world`` and ``fixed``, or None:
    the atom a compile that walks left operands first meets first."""
    if isinstance(f, Var):
        return None if f.name in world or f.name in fixed else f.name
    if isinstance(f, Const):
        return None
    if isinstance(f, Not):
        return first_free_atom(f.operand, fixed, world)
    return first_free_atom(f.left, fixed, world) or \
        first_free_atom(f.right, fixed, world)


def test_conditioned_masks_match_enumeration_over_the_free_atoms():
    """``conditioned_models`` against ``evaluate`` on every assignment to
    the world and the free atoms: the first mask holds where the formula
    holds for every value of the free atoms, the second where it holds for
    some, whatever their order.  With no free atoms given, the first atom
    met outside the world and the fixed ones is named."""
    rng = random.Random(20020521)
    seen = Counter()
    for _ in range(1_500):
        world = tuple(a for a in WORLD if rng.random() < 0.5) \
            if rng.random() < 0.85 else ()
        fixed = {a: rng.random() < 0.5 for a in DECISIONS
                 if rng.random() < 0.4}
        f = random_formula(rng, WORLD + DECISIONS, rng.randint(0, 3))
        free = sorted(atoms_of(f) - set(world) - set(fixed))
        every, some = conditioned_models(f, fixed, world, free)
        assert conditioned_models(f, fixed, world, free[::-1]) == (every,
                                                                   some)
        for k, point in enumerate(_assignments(world)):
            values = [evaluate(f, {**point, **fixed, **rest})
                      for rest in _assignments(free)]
            assert (every >> k & 1, some >> k & 1) == (all(values),
                                                       any(values))
        assert every >> (1 << len(world)) == some >> (1 << len(world)) == 0
        first = first_free_atom(f, fixed, world)
        if first is None:
            assert conditioned_models(f, fixed, world) == (every, every)
        else:
            with pytest.raises(UndeclaredAtomError) as exc:
                conditioned_models(f, fixed, world)
            assert exc.value.name == first
        seen["no free atom" if not free else "free atoms"] += 1
        seen["free decision atoms"] += bool(set(free) & set(DECISIONS))
        seen["free world atoms"] += bool(set(free) & set(WORLD))
        seen["several free atoms"] += len(free) >= 2
        seen["empty world"] += not world
        seen["every differs from some"] += every != some
    for case in ("no free atom", "free atoms", "free decision atoms",
                 "free world atoms", "several free atoms", "empty world",
                 "every differs from some"):
        assert seen[case] >= 150, (case, seen)


def test_a_rule_entry_fixes_the_set_atoms_and_frees_the_unset_ones():
    # d is a decision atom, p a world atom of the mask universe, and q one
    # outside it.
    f, g = parse_formula("d & q | p"), parse_formula("!d -> q")
    entry = RuleEntry((f, g), ("p",), frozenset({"p", "q"}))
    assert entry.atoms == ("d",)
    assert entry.outside == ({"d", "q"}, {"d", "q"})
    for key, given, free in (((True,), {"d": True}, ["q"]),
                             ((False,), {"d": False}, ["q"]),
                             ((None,), {}, ["d", "q"])):
        masks = entry.compile(key)
        assert masks == (*conditioned_models(f, given, ("p",), free),
                         *conditioned_models(g, given, ("p",), free))
        assert entry.table[key] is masks
    assert len(entry.table) == 3


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
