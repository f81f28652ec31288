import random

import pytest

import bdgame.game
from bdgame.decision import desire_report
from bdgame.errors import (CombinatorialBoundError, InfeasibleProfileError,
                           NotUClosedError)
from bdgame.game import derive_game, pareto
from bdgame.goals import (GoalSet, ProfileFamily, apply_decision_rule,
                          delta_goal_sets, feasible_representation_check,
                          fragment_check, goal_set_of, heuristic_goals,
                          is_goal_based, iter_syntactic_goal_sets,
                          pareto_via_goals, representation_check,
                          syntactic_goal_sets, u_closure)
from bdgame.logic import TRUE, And, Not, Var, parse_formula
from bdgame.model import parse_spec
from bdgame.verify import check_representation, random_spec

from conftest import profile

P, Q = Var("p"), Var("q")

TWIN_SPEC_SRC = ('agent x {\n  atoms a b\n  desire d: true => p\n}\n'
                 'world p\n')


# ---------------------------------------------------------------------------
# U-closure
# ---------------------------------------------------------------------------

def test_closure_is_a_fixpoint(opposed_interests):
    game = derive_game(opposed_interests)
    first = u_closure(opposed_interests, [game.profiles[0].profile],
                      game=game)
    again = u_closure(opposed_interests, first.profiles, game=game)
    assert again.profiles == first.profiles
    assert first.u_closed


def test_closure_of_distinct_signature_is_singleton(opposed_interests):
    game = derive_game(opposed_interests)
    for ep in game.profiles:
        family = u_closure(opposed_interests, [ep.profile], game=game)
        assert family.profiles == (ep.profile,)


def test_closure_adds_indistinguishable_twin():
    spec = parse_spec(TWIN_SPEC_SRC)
    family = u_closure(spec, [profile(x=["a"])])
    assert len(family.profiles) == 4  # every decision leaves p unreached


def test_closure_rejects_infeasible_members(interdependence):
    with pytest.raises(InfeasibleProfileError):
        u_closure(interdependence, [profile(alpha1=["a"], alpha2=["b"])])


# ---------------------------------------------------------------------------
# Goal sets
# ---------------------------------------------------------------------------

def test_cooperation_goal_set(cooperation):
    target = profile(alpha1=["a"], alpha2=["c"])
    family = u_closure(cooperation, [target])
    assert family.profiles == (target,)
    assert delta_goal_sets(cooperation, family) == (
        GoalSet(frozenset({And(P, Q)}), frozenset()),)


def test_prisoners_goal_set(prisoners):
    family = u_closure(prisoners, [profile(alpha1=["!a"], alpha2=["!b"])])
    (gs,) = delta_goal_sets(prisoners, family)
    a, b = Var("a"), Var("b")
    assert gs == GoalSet(
        frozenset({Not(And(a, Not(b))), Not(And(Not(a), b))}),
        frozenset())


def test_desire_free_spec_has_the_empty_goal_set():
    spec = parse_spec('agent x {\n  atoms a\n  belief a => p\n}\nworld p\n')
    game = derive_game(spec)
    family = ProfileFamily(tuple(ep.profile for ep in game.profiles),
                           u_closed=True)
    assert delta_goal_sets(spec, family) == (
        GoalSet(frozenset(), frozenset()),)


def test_goal_sets_require_closed_family(cooperation):
    family = ProfileFamily((profile(alpha1=["a"], alpha2=["c"]),),
                           u_closed=False)
    with pytest.raises(NotUClosedError):
        delta_goal_sets(cooperation, family)


def test_untriggered_antecedents_become_negative_goals(
        single_agent_priorities):
    gs = goal_set_of(single_agent_priorities, profile(alpha1=["a"]))
    # d is undecided, so the d => q desire is untriggered
    assert Var("d") in gs.negative
    assert gs.positive == {Var("a")}


# ---------------------------------------------------------------------------
# Goal-based decisions
# ---------------------------------------------------------------------------

def test_empty_goal_set_matches_everything(cooperation):
    empty = GoalSet(frozenset(), frozenset())
    assert is_goal_based(cooperation, profile(alpha1=["a"], alpha2=["c"]),
                         empty)
    assert is_goal_based(cooperation, profile(alpha1=[], alpha2=[]), empty)


def test_cooperation_profile_is_goal_based(cooperation):
    gs = GoalSet(frozenset({And(P, Q)}), frozenset())
    assert is_goal_based(cooperation, profile(alpha1=["a"], alpha2=["c"]), gs)
    assert not is_goal_based(cooperation, profile(alpha1=[], alpha2=[]), gs)


def test_true_as_negative_goal_matches_nothing(cooperation):
    gs = GoalSet(frozenset(), frozenset({TRUE}))
    assert not is_goal_based(cooperation, profile(alpha1=["a"], alpha2=["c"]),
                             gs)


def test_goal_based_requires_feasible_profile(interdependence):
    with pytest.raises(InfeasibleProfileError):
        is_goal_based(interdependence, profile(alpha1=["a"], alpha2=["b"]),
                      GoalSet(frozenset(), frozenset()))


# ---------------------------------------------------------------------------
# Syntactic goal sets
# ---------------------------------------------------------------------------

def test_empty_subset_always_present(cooperation):
    assert GoalSet(frozenset(), frozenset()) in \
        syntactic_goal_sets(cooperation)


def test_singleton_subset_shape(cooperation):
    got = syntactic_goal_sets(cooperation)
    assert GoalSet(frozenset({And(P, Q)}), frozenset({TRUE})) in got


def test_candidate_count_before_deduplication(single_agent_priorities):
    raw = list(iter_syntactic_goal_sets(single_agent_priorities))
    assert len(raw) <= 2 ** 5
    # the two q-consequent desires collide on some subsets, so after
    # deduplication strictly fewer than 32 remain
    assert len(raw) == len(set(raw)) < 32


def test_syntactic_cap():
    rules = "\n".join(f"  desire d{i}: true => p" for i in range(17))
    spec = parse_spec(f'agent x {{\n  atoms a\n{rules}\n}}\nworld p\n')
    with pytest.raises(CombinatorialBoundError):
        list(iter_syntactic_goal_sets(spec))


# ---------------------------------------------------------------------------
# Representation
# ---------------------------------------------------------------------------

def test_prisoners_nash_family_representation(prisoners):
    family = apply_decision_rule(prisoners, "nash-else-pareto")
    report = representation_check(prisoners, family)
    assert report.passed, report.violations


def test_unclosed_family_reports_the_missing_twin():
    spec = parse_spec(TWIN_SPEC_SRC)
    lying = ProfileFamily((profile(x=["a"]),), u_closed=True)
    report = representation_check(spec, lying)
    assert not report.passed
    assert {v.direction for v in report.violations} == \
        {"goal-based-outside-family"}
    assert len(report.violations) == 3


def test_representation_requires_closed_flag(prisoners):
    family = ProfileFamily((profile(alpha1=["!a"], alpha2=["!b"]),))
    with pytest.raises(NotUClosedError):
        representation_check(prisoners, family)


def test_feasible_representation_on_fixtures(
        single_agent_priorities, interdependence, cooperation, prisoners,
        opposed_interests):
    for spec in (single_agent_priorities, interdependence, cooperation,
                 prisoners, opposed_interests):
        assert feasible_representation_check(spec).passed


def test_each_goal_set_is_built_once_per_game(monkeypatch):
    rng = random.Random(11)
    while True:
        spec = random_spec(rng, max_agents=3)
        game = derive_game(spec)
        if len(game.profiles) >= 16 and len(game.classes) < len(game.profiles):
            break
    built = []

    def counting(positive, negative):
        built.append(positive)
        return GoalSet(positive, negative)

    monkeypatch.setattr(bdgame.game, "GoalSet", counting)
    assert check_representation(spec).passed  # derives a game of its own
    assert len(built) == len(game.profiles)
    built.clear()
    everything = ProfileFamily(tuple(ep.profile for ep in game.profiles),
                               u_closed=True)
    assert representation_check(spec, everything, game=game).passed
    assert feasible_representation_check(spec, game=game).passed
    pareto_via_goals(spec, game=game)
    for ep in game.profiles:
        goal_set_of(spec, ep.profile, game=game)
    assert len(built) == len(game.profiles)


def test_infeasible_profiles_stay_outside_goal_machinery(interdependence):
    game = derive_game(interdependence)
    assert game.index_of(profile(alpha1=["a"], alpha2=["b"])) is None
    with pytest.raises(InfeasibleProfileError):
        goal_set_of(interdependence, profile(alpha1=["a"], alpha2=["b"]))


# ---------------------------------------------------------------------------
# Decision rules and pipelines
# ---------------------------------------------------------------------------

def test_nash_else_pareto_prisoners(prisoners):
    family = apply_decision_rule(prisoners, "nash-else-pareto")
    assert [str(p) for p in family.profiles] == \
        ["<alpha1={!a}, alpha2={!b}>"]
    assert family.u_closed


def test_bd_rational_prisoners(prisoners):
    family = apply_decision_rule(prisoners, "bd-rational")
    assert {str(p) for p in family.profiles} == {
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"}


def test_decision_rules_on_single_profile_game():
    spec = parse_spec('agent x {\n  atoms a\n  desire d: true => a\n'
                      '  initial a\n}\n')
    for rule in ("bd-rational", "nash-else-pareto"):
        family = apply_decision_rule(spec, rule)
        assert [str(p) for p in family.profiles] == ["<x={a}>"]


def test_nash_else_pareto_falls_back_to_pareto():
    # two agents with opposite tastes about a shared coin and no way to
    # react: deviations exist, no equilibrium requirement binds
    spec = parse_spec(
        'option decision_mode = total-assignments\n'
        'agent x {\n  atoms a\n  desire dx: true => a & b\n}\n'
        'agent y {\n  atoms b\n  desire dy: true => !(a & b)\n}\n')
    game = derive_game(spec)
    from bdgame.game import nash
    family = apply_decision_rule(spec, "nash-else-pareto")
    if nash(game).profile_indexes:
        assert family.profiles
    else:
        closed_pareto = u_closure(
            spec, [game.profiles[i].profile
                   for i in pareto(game).profile_indexes], game=game)
        assert set(family.profiles) == set(closed_pareto.profiles)


def test_pipeline_equivalence_on_fixtures(
        single_agent_priorities, interdependence, cooperation, prisoners,
        opposed_interests):
    for spec in (single_agent_priorities, interdependence, cooperation,
                 prisoners, opposed_interests):
        game = derive_game(spec)
        direct = u_closure(
            spec, [game.profiles[i].profile
                   for i in pareto(game).profile_indexes], game=game)
        via = pareto_via_goals(spec, game=game)
        assert set(via.pareto_family.profiles) == set(direct.profiles)


def test_goals_first_pool_is_all_feasible(prisoners):
    game = derive_game(prisoners)
    result = pareto_via_goals(prisoners, game=game)
    assert set(result.pool) == set(range(len(game.profiles)))


# ---------------------------------------------------------------------------
# Heuristic
# ---------------------------------------------------------------------------

def test_heuristic_pool_on_the_priorities_fixture(single_agent_priorities):
    # the desire-driven closure reaches p via b => p, which contradicts the
    # fact !p; from there everything fires, bringing !q in as well
    got = heuristic_goals(single_agent_priorities)
    assert got == {Not(P), Var("a"), Var("b"), P, Q, Not(Q)}


def test_heuristic_without_rules_is_facts_plus_initial():
    spec = parse_spec('agent x {\n  atoms a\n  fact p\n  initial a\n}\n'
                      'world p\n')
    assert heuristic_goals(spec) == {P, Var("a")}


def test_heuristic_two_round_chain():
    spec = parse_spec('agent x {\n  atoms a\n  belief p => q\n'
                      '  desire d: true => p\n}\nworld p q\n')
    assert heuristic_goals(spec) == {P, Q}


def test_fragment_check(single_agent_priorities):
    assert not fragment_check(single_agent_priorities)
    world_only = parse_spec(
        'agent x {\n  atoms a\n  belief p => q\n}\nworld p q\n')
    assert fragment_check(world_only)
    no_beliefs = parse_spec('agent x {\n  atoms a\n}\n')
    assert fragment_check(no_beliefs)
