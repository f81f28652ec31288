"""Acceptance suite: one test per shipped guarantee, strict equality checks.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion; each test also prints an ACCEPTANCE line (visible with -s or on
failure).
"""

import random

from bdgame.decision import (ProfileComparison, compare_profiles,
                             desire_report, is_feasible_profile,
                             joint_extension)
from bdgame.extension import Rule, extension
from bdgame.game import derive_game, dominant, nash, pareto
from bdgame.goals import GoalSet, delta_goal_sets, u_closure
from bdgame.logic import TRUE, And, Not, Var
from bdgame.verify import (check_extension_laws, check_game_laws,
                           check_order_laws, check_pipeline_equivalence,
                           check_representation_corpus, random_spec)

from conftest import profile

A, B, P, Q = Var("a"), Var("b"), Var("p"), Var("q")


def passed(number, text):
    print(f"ACCEPTANCE {number:2d} PASS - {text}")


def test_01_extension_of_conflicting_beliefs():
    rules = (Rule("r1", TRUE, P),
             Rule("r2", A, Not(P)))
    with_a = extension(rules, [A])
    assert with_a.formulas == {A, P, Not(P)}
    assert not with_a.consistent
    empty = extension(rules, [])
    assert empty.formulas == {P}
    assert empty.consistent
    passed(1, "conflicting-beliefs extensions reproduced exactly")


def test_02_single_agent_belief_extensions(single_agent_priorities):
    spec = single_agent_priorities
    expected = {
        ("a",): {Not(P), A},
        ("a", "b"): {Not(P), A, B},
        ("a", "c"): {Not(P), A, Var("c"), Q},
        ("a", "d"): {Not(P), A, Var("d"), Q},
        ("a", "e"): {Not(P), A, Var("e"), Not(Q)},
    }
    for names, formulas in expected.items():
        ext = joint_extension(spec, profile(alpha1=names))
        assert ext.formulas == formulas, names
        assert ext.consistent, names
    clash = joint_extension(spec, profile(alpha1=("a", "d", "e")))
    assert clash.formulas == {Not(P), A, Var("d"), Var("e"), Q, Not(Q)}
    assert not clash.consistent
    assert not is_feasible_profile(spec, profile(alpha1=("a", "d", "e")))
    passed(2, "five belief extensions exact; {a,d,e} inconsistent and "
              "infeasible")


def test_03_unreached_sets_and_dominance(single_agent_priorities):
    spec = single_agent_priorities
    expected = {
        ("a",): {"d_b", "d_q"},
        ("a", "b"): {"d_bp", "d_q"},
        ("a", "c"): {"d_b"},
        ("a", "d"): {"d_b"},
        ("a", "e"): {"d_b", "d_q"},
        ("a", "b", "c"): {"d_bp"},
    }
    for names, unreached in expected.items():
        report = desire_report(spec, profile(alpha1=names))
        assert report.unreached("alpha1") == unreached, names
    assert compare_profiles(spec, profile(alpha1=("a", "c")),
                            profile(alpha1=("a",)), "alpha1") == \
        ProfileComparison.BETTER
    assert compare_profiles(spec, profile(alpha1=("a", "c")),
                            profile(alpha1=("a", "b", "c")), "alpha1") == \
        ProfileComparison.BETTER
    passed(3, "six unreached sets exact; {a,c} beats {a} and {a,b,c}")


def test_04_joint_feasibility(interdependence):
    spec = interdependence
    assert is_feasible_profile(spec, profile(alpha1=[], alpha2=["b"]))
    assert not is_feasible_profile(spec, profile(alpha1=["a"], alpha2=["b"]))
    passed(4, "<{},{b}> feasible, <{a},{b}> infeasible")


def test_05_opposed_interests_table(opposed_interests):
    spec = opposed_interests
    game = derive_game(spec)
    rows = [
        (("a",), ("b",), {P, Q}, set(), {"d2_np", "d2_nq"}),
        (("a",), ("!b",), {P, Not(Q)}, {"d1_q"}, {"d2_np"}),
        (("!a",), ("b",), {Not(P), Q}, {"d1_p"}, {"d2_nq"}),
        (("!a",), ("!b",), {Not(P), Not(Q)}, {"d1_p", "d1_q"}, set()),
    ]
    world = {"p", "q"}
    table = []
    for d1, d2, outcome, u1, u2 in rows:
        prof = profile(alpha1=d1, alpha2=d2)
        ext = joint_extension(spec, prof)
        world_part = {f for f in ext.formulas
                      if str(f).lstrip("!") in world}
        assert world_part == outcome, (d1, d2)
        report = desire_report(spec, prof)
        assert report.unreached("alpha1") == u1, (d1, d2)
        assert report.unreached("alpha2") == u2, (d1, d2)
        table.append(prof)
    chain1 = table
    chain2 = table[::-1]
    for agent, chain in (("alpha1", chain1), ("alpha2", chain2)):
        for better, worse in zip(chain, chain[1:]):
            assert compare_profiles(spec, better, worse, agent) == \
                ProfileComparison.BETTER
    assert dominant(game).profile_indexes == ()
    assert [str(game.profile(i))
            for i in nash(game).profile_indexes] == \
        ["<alpha1={a}, alpha2={!b}>"]
    passed(5, "full four-row table, both preference chains, empty dominant "
              "set, nash {<a,!b>}")


def test_06_prisoners_equilibria(prisoners):
    game = derive_game(prisoners)
    assert [str(game.profile(i))
            for i in nash(game).profile_indexes] == \
        ["<alpha1={!a}, alpha2={!b}>"]
    assert {str(game.profile(i))
            for i in pareto(game).profile_indexes} == {
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"}
    both_cooperate = profile(alpha1=["a"], alpha2=["b"])
    both_defect = profile(alpha1=["!a"], alpha2=["!b"])
    for agent in ("alpha1", "alpha2"):
        assert compare_profiles(prisoners, both_cooperate, both_defect,
                                agent) == ProfileComparison.BETTER
    passed(6, "nash exactly {<!a,!b>}; pareto set exact; cooperation "
              "dominates mutual defection for both agents")


def test_07_cooperation_goal_set(cooperation):
    target = profile(alpha1=["a"], alpha2=["c"])
    report = desire_report(cooperation, target)
    assert report.unreached("alpha1") == set()
    assert report.unreached("alpha2") == set()
    game = derive_game(cooperation)
    family = u_closure(game, [game.index_of(target)])
    assert delta_goal_sets(game, family) == (
        GoalSet(frozenset({And(P, Q)}), frozenset()),)
    passed(7, "cooperative profile reaches everything; goal set <{p & q}, {}>")


def test_08_extension_law_suite():
    result = check_extension_laws(seed=20260810, samples=1000,
                                  max_rule_count=6, max_atom_count=6)
    assert result.passed, result
    assert result.checked == 1000
    passed(8, "containment, idempotence, termination, monotonicity on 1000 "
              "seeded instances")


def test_09_order_law_suite():
    result = check_order_laws(max_rules=4)
    assert result.passed, result
    assert "antisymmetry violations: 0" in result.details
    passed(9, "lifted-order laws exhaustive over 4-rule subsets; identity "
              "mode equals superset; antisymmetry clean")


def test_10_game_law_suite():
    result = check_game_laws(seed=20260810, samples=250)
    assert result.passed, result
    assert result.checked == 250
    passed(10, "strong-pareto within pareto, dominant within nash, pareto "
               "nonempty, witnesses re-validated on 250 seeded games")


def test_11_representation_corpus():
    result = check_representation_corpus(seed=20260810, samples=500,
                                         exhaustive=True)
    assert result.passed, (result, result.counterexample)
    assert result.checked >= 4100
    passed(11, f"representation round-trips on {result.checked} specs "
               f"(exhaustive family plus 500 random)")


def test_12_pipeline_equivalence(conflicting_beliefs,
                                 single_agent_priorities, interdependence,
                                 opposed_interests, prisoners, cooperation):
    fixtures = [conflicting_beliefs, single_agent_priorities,
                interdependence, opposed_interests, prisoners, cooperation]
    for spec in fixtures:
        result = check_pipeline_equivalence(spec)
        assert result.passed, (spec.name, result.counterexample)
    rng = random.Random(20260810)
    count = 0
    while count < 100:
        spec = random_spec(rng, max_rules=3)
        if not derive_game(spec).positions:
            continue
        result = check_pipeline_equivalence(spec)
        assert result.passed, result.counterexample
        count += 1
    passed(12, "profile-first and goals-first pareto families identical on "
               "all fixtures and 100 seeded instances")
