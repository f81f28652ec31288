import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import bdgame.game
import bdgame.goals
import bdgame.logic
import bdgame.verify
from bdgame import example_path, load_example
from bdgame.decision import desire_report
from bdgame.errors import (CombinatorialBoundError, InfeasibleProfileError,
                           NotUClosedError)
from bdgame.game import CONCEPTS, derive_game, pareto
from bdgame.goals import (DECISION_RULES, GoalSet, ProfileFamily,
                          RepresentationViolation, apply_decision_rule,
                          concept_family, delta_goal_sets,
                          feasible_representation_check, fragment_check,
                          goal_set_of, heuristic_goals, is_goal_based,
                          iter_syntactic_goal_sets, pareto_via_goals,
                          representation_check, syntactic_goal_sets,
                          u_closure)
from bdgame.logic import TRUE, And, Not, Var, parse_formula
from bdgame.model import parse_spec
from bdgame.verify import (check_pipeline_equivalence, check_representation,
                           random_spec)

from conftest import evaluated_profiles, profile

P, Q = Var("p"), Var("q")

TWIN_SPEC_SRC = ('agent x {\n  atoms a b\n  desire d: true => p\n}\n'
                 'world p\n')
# {a, b} and {a} both generate <+{a}, -{}>; {b} and {} generate <+{}, -{}>.
SHARED_SPEC_SRC = 'agent x {\n  atoms a b\n  desire d: true => a\n}\n'


def index_of(spec, p):
    """Profile ``p``'s feasible index in the definitional view."""
    return [ep.profile for ep in evaluated_profiles(spec)].index(p)


def decoded(spec, family):
    """The family's profiles, printed, decoded by the definitional view."""
    feasible = evaluated_profiles(spec)
    return [str(feasible[i].profile) for i in family.profile_indexes]


# ---------------------------------------------------------------------------
# U-closure
# ---------------------------------------------------------------------------

def test_closure_is_a_fixpoint(opposed_interests):
    game = derive_game(opposed_interests)
    feasible = [ep.profile for ep in evaluated_profiles(opposed_interests)]
    first = u_closure(opposed_interests, [feasible[0]], game=game)
    again = u_closure(opposed_interests,
                      [feasible[i] for i in first.profile_indexes], game=game)
    assert again.profile_indexes == first.profile_indexes
    assert 0 in first.profile_indexes and first.u_closed


def test_closure_of_distinct_signature_is_singleton(opposed_interests):
    game = derive_game(opposed_interests)
    for i, ep in enumerate(evaluated_profiles(opposed_interests)):
        family = u_closure(opposed_interests, [ep.profile], game=game)
        assert family.profile_indexes == (i,)


def test_closure_adds_indistinguishable_twin():
    spec = parse_spec(TWIN_SPEC_SRC)
    family = u_closure(spec, [profile(x=["a"])])
    # every decision leaves p unreached
    assert family.profile_indexes == tuple(range(4))
    assert len(evaluated_profiles(spec)) == 4


def test_closure_rejects_infeasible_members(interdependence):
    with pytest.raises(InfeasibleProfileError):
        u_closure(interdependence, [profile(alpha1=["a"], alpha2=["b"])])


# ---------------------------------------------------------------------------
# Goal sets
# ---------------------------------------------------------------------------

def test_cooperation_goal_set(cooperation):
    target = profile(alpha1=["a"], alpha2=["c"])
    family = u_closure(cooperation, [target])
    assert family.profile_indexes == (index_of(cooperation, target),)
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
    family = ProfileFamily(tuple(range(len(evaluated_profiles(spec)))),
                           u_closed=True)
    assert delta_goal_sets(spec, family) == (
        GoalSet(frozenset(), frozenset()),)


def test_goal_sets_require_closed_family(cooperation):
    family = ProfileFamily(
        (index_of(cooperation, profile(alpha1=["a"], alpha2=["c"])),),
        u_closed=False)
    with pytest.raises(NotUClosedError):
        delta_goal_sets(cooperation, family)


@pytest.mark.parametrize("outside", [lambda size: -1, lambda size: size,
                                     lambda size: size + 1],
                         ids=["minus-one", "len", "len-plus-one"])
def test_family_indexes_outside_the_game_are_refused(outside, cooperation):
    # As a profile outside the game is: -1 would read the last profile.
    game = derive_game(cooperation)
    size = len(game.positions)
    inside = ProfileFamily(tuple(range(size)), u_closed=True)
    assert delta_goal_sets(cooperation, inside, game=game)
    assert representation_check(cooperation, inside, game=game).passed
    family = ProfileFamily((0, outside(size)), u_closed=True)
    for check in (delta_goal_sets, representation_check):
        with pytest.raises(InfeasibleProfileError,
                           match=rf"^family index {outside(size)} is outside "
                                 rf"the game's {size} feasible profiles$"):
            check(cooperation, family, game=game)


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


def test_a_game_derived_inside_honours_the_spec_caps(cooperation):
    # cooperation's feasible decisions make 9 candidate profiles.
    first = evaluated_profiles(cooperation)[0].profile
    capped, fits = (cooperation.with_options(max_profiles=n) for n in (8, 9))
    for call in (check_representation, check_pipeline_equivalence,
                 lambda spec: u_closure(spec, [first])):
        with pytest.raises(CombinatorialBoundError,
                           match=r"^9 candidate profiles \(cap 8\)$"):
            call(capped)
    assert check_representation(fits).passed
    assert check_pipeline_equivalence(fits).passed
    assert 0 in u_closure(fits, [first]).profile_indexes


# ---------------------------------------------------------------------------
# Representation
# ---------------------------------------------------------------------------

def test_prisoners_nash_family_representation(prisoners):
    family = apply_decision_rule(prisoners, "nash-else-pareto")
    report = representation_check(prisoners, family)
    assert report.passed, report.violations


def test_unclosed_family_reports_the_missing_twin():
    spec = parse_spec(TWIN_SPEC_SRC)
    lying = ProfileFamily((index_of(spec, profile(x=["a"])),), u_closed=True)
    report = representation_check(spec, lying)
    assert not report.passed
    assert {v.direction for v in report.violations} == \
        {"goal-based-outside-family"}
    assert len(report.violations) == 3


def test_representation_requires_closed_flag(prisoners):
    family = ProfileFamily(
        (index_of(prisoners, profile(alpha1=["!a"], alpha2=["!b"])),))
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
        size = len(game.positions)
        if size >= 16 and len(game.classes) < size:
            break
    built = []

    def counting(positive, negative):
        built.append(positive)
        return GoalSet(positive, negative)

    monkeypatch.setattr(bdgame.game, "GoalSet", counting)
    reports = len({id(report) for report in game.reports})
    assert check_representation(spec).passed  # derives a game of its own
    assert len(built) == reports
    built.clear()
    feasible = [ep.profile for ep in evaluated_profiles(spec)]
    everything = ProfileFamily(tuple(range(len(feasible))), u_closed=True)
    assert representation_check(spec, everything, game=game).passed
    assert feasible_representation_check(spec, game=game).passed
    pareto_via_goals(spec, game=game)
    for p in feasible:
        goal_set_of(spec, p, game=game)
    assert len(built) == reports


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
    assert decoded(prisoners, family) == ["<alpha1={!a}, alpha2={!b}>"]
    assert family.u_closed


def test_bd_rational_prisoners(prisoners):
    family = apply_decision_rule(prisoners, "bd-rational")
    assert decoded(prisoners, family) == [
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"]


def test_decision_rules_on_single_profile_game():
    spec = parse_spec('agent x {\n  atoms a\n  desire d: true => a\n'
                      '  initial a\n}\n')
    for rule in ("bd-rational", "nash-else-pareto"):
        family = apply_decision_rule(spec, rule)
        assert decoded(spec, family) == ["<x={a}>"]


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
        assert family.profile_indexes
    else:
        feasible = evaluated_profiles(spec)
        closed_pareto = u_closure(
            spec, [feasible[i].profile
                   for i in pareto(game).profile_indexes], game=game)
        assert family.profile_indexes == closed_pareto.profile_indexes


def test_pipeline_equivalence_on_fixtures(
        single_agent_priorities, interdependence, cooperation, prisoners,
        opposed_interests):
    for spec in (single_agent_priorities, interdependence, cooperation,
                 prisoners, opposed_interests):
        game = derive_game(spec)
        feasible = evaluated_profiles(spec)
        direct = u_closure(
            spec, [feasible[i].profile
                   for i in pareto(game).profile_indexes], game=game)
        via = pareto_via_goals(spec, game=game)
        assert via.pareto_family.profile_indexes == direct.profile_indexes


def test_goals_first_pool_is_all_feasible(prisoners):
    game = derive_game(prisoners)
    result = pareto_via_goals(prisoners, game=game)
    assert set(result.pool) == set(range(len(game.positions)))


# ---------------------------------------------------------------------------
# Per goal set: the memo, the comparisons, broken invariants
# ---------------------------------------------------------------------------

def with_part(game, index, other):
    """A copy of a one-agent game in which feasible profile ``index``'s
    decision has the extension of profile ``other``'s: the part its joint
    extension is made of, which only the oracles read."""
    (agent, decisions), = game.feasible_decisions.items()
    (mine,), (theirs,) = (game.profile(i).decisions for i in (index, other))
    return dataclasses.replace(game, feasible_decisions={
        agent: {**decisions, mine: decisions[theirs]}})


def shared_goal_set_game():
    """A seeded game of 64 profiles with 6 goal sets in 4 classes."""
    rng = random.Random(6)
    while True:
        spec = random_spec(rng, max_agents=3)
        game = derive_game(spec)
        distinct = len(set(game.goal_sets))
        if (len(game.positions) >= 16 and 4 <= distinct
                <= len(game.positions) // 4 and len(game.classes) < distinct):
            return spec, game


def test_representation_reports_the_one_member_that_lost_its_goals(
        monkeypatch):
    spec = parse_spec(SHARED_SPEC_SRC)
    game = derive_game(spec)
    ab, a, b = (game.index_of(profile(x=names))
                for names in (["a", "b"], ["a"], ["b"]))
    shared = game.goal_sets[ab]
    assert game.goal_sets[a] == shared and shared.positive
    # {a, b} keeps its goal set but no longer entails its positive goal a.
    broken = with_part(game, ab, b)
    expected = RepresentationViolation(
        "member-without-goal-set", profile(x=["a", "b"]), shared,
        f"{profile(x=['a', 'b'])} is not goal-based for its own goal set "
        f"{shared}")
    feasible = evaluated_profiles(spec)
    for members in ((ab, a), (a, ab), range(len(feasible))):
        family = ProfileFamily(tuple(members), u_closed=True)
        assert representation_check(spec, family, game=broken).violations \
            == (expected,)
    monkeypatch.setattr(bdgame.verify, "derive_game", lambda _: broken)
    result = check_representation(spec)
    assert not result.passed
    assert result.details == str(expected)
    assert set(result.counterexample["family"]) == {
        str(profile(x=["a", "b"])), str(profile(x=["a"]))}


def test_feasible_check_tries_every_goal_set_of_the_class():
    # {}, {a} and {a, b} leave nothing unreached; {a, b} generates
    # <+{a}, -{}>, the other two <+{}, -{b}>.
    spec = parse_spec(
        'agent x {\n  atoms a b\n  desire d: b => a\n}\n')
    game = derive_game(spec)
    ab, empty = game.index_of(profile(x=["a", "b"])), \
        game.index_of(profile(x=[]))
    broken = with_part(game, ab, empty)
    family = u_closure(spec, [profile(x=["a", "b"])], game=broken)
    assert len(family.profile_indexes) == 3
    assert [v.profile for v in representation_check(
        spec, family, game=broken).violations] == [profile(x=["a", "b"])]
    # Not goal-based for its own goal set, but for its class's other one.
    assert feasible_representation_check(spec, game=broken).passed


def test_the_feasible_check_reports_a_profile_without_goal_sets():
    # With the part of {b}, {a, b} no longer entails a: it is goal-based
    # for neither <+{a}, -{}> nor <+{}, -{b}>.
    spec = parse_spec(
        'agent x {\n  atoms a b\n  desire d: b => a\n}\n')
    game = derive_game(spec)
    ab, b = (game.index_of(profile(x=names)) for names in (["a", "b"], ["b"]))
    report = feasible_representation_check(spec,
                                           game=with_part(game, ab, b))
    assert not report.passed
    assert report.violations == (RepresentationViolation(
        "member-without-goal-set", profile(x=["a", "b"]), None,
        f"{profile(x=['a', 'b'])} is not goal-based for any goal set of its "
        f"indistinguishability class"),)


def test_representation_decides_each_profile_and_goal_set_once(monkeypatch):
    spec, game = shared_goal_set_game()
    asked = Counter()
    goal_decider = bdgame.goals._goal_decider

    def counting(game):
        decide = goal_decider(game)

        def counted(index, goals):
            asked[game.profile(index), goals] += 1
            return decide(index, goals)
        return counted

    monkeypatch.setattr(bdgame.goals, "_goal_decider", counting)
    assert check_representation(spec).passed
    # Each profile is decided on its own goal set, once; that settles the
    # feasible check too.
    assert set(asked) == {(ep.profile, gs) for ep, gs in zip(
        evaluated_profiles(spec), game.goal_sets)}
    assert max(asked.values()) == 1


def test_a_decider_builds_each_atom_pattern_once(monkeypatch):
    """The decider owns one table of atom patterns over the vocabulary:
    every profile's parts and every goal are compiled from it, so no
    pattern is built twice."""
    spec = load_example("cooperation")
    game = derive_game(spec)
    built = []
    pattern = bdgame.logic._atom_pattern

    def recording(i, n):
        built.append((i, n))
        return pattern(i, n)

    monkeypatch.setattr(bdgame.logic, "_atom_pattern", recording)
    decide = bdgame.goals._goal_decider(game)
    goals = GoalSet(frozenset({And(P, Q)}), frozenset({Not(P)}))
    for index in range(len(game.positions)):
        decide(index, goals)
        decide(index, game.goal_sets[index])
    assert len(game.positions) == 8
    assert sorted(built) == [(i, len(spec.vocabulary))
                             for i in range(len(spec.vocabulary))]


def test_goals_first_compares_first_members_of_distinct_goal_sets(
        monkeypatch):
    spec, game = shared_goal_set_game()
    firsts = {game.goal_sets.index(gs) for gs in game.goal_sets}
    # Per agent, the distinct unreached sets of the goal sets' generators.
    # Desire ids are the agent's own, so a pair of distinct sets names its
    # agent.
    sets = [{game.unreached(i, a) for i in firsts} for a in spec.agent_ids]
    compared = Counter()
    definition = bdgame.goals.set_geq

    def counting(worse, better, order):
        compared[better, worse] += 1
        return definition(worse, better, order)

    monkeypatch.setattr(bdgame.goals, "set_geq", counting)
    fresh = derive_game(spec)
    result = pareto_via_goals(spec, game=fresh)
    assert compared and max(compared.values()) == 1
    for better, worse in compared:
        assert better != worse
        assert any({better, worse} <= mine for mine in sets)
    assert len(compared) <= sum(len(mine) * (len(mine) - 1) for mine in sets)
    # The route orders goal sets without the tables, the classes or pareto.
    assert not {"orders", "class_ids", "classes"} & set(vars(fresh))
    feasible = evaluated_profiles(spec)
    assert result.pareto_family.profile_indexes == u_closure(
        spec, [feasible[i].profile
               for i in pareto(game).profile_indexes],
        game=game).profile_indexes


def tampered_games():
    """Games of SHARED_SPEC_SRC that each break one invariant the
    goals-first route checks, with the message it raises."""
    spec = parse_spec(SHARED_SPEC_SRC)
    game = derive_game(spec)
    foreign = dataclasses.replace(game)
    vars(foreign)["goal_sets"] = tuple(
        GoalSet(gs.positive | {Var("b")}, gs.negative)
        for gs in game.goal_sets)
    yield spec, foreign, "holds a goal of no desire rule"
    # {b} claims the goal set of {a}, which reaches the desire {b} leaves
    # unreached: one goal set, two unreached sets.
    claimed = dataclasses.replace(game)
    b, a = game.index_of(profile(x=["b"])), game.index_of(profile(x=["a"]))
    vars(claimed)["goal_sets"] = tuple(
        game.goal_sets[a] if i == b else gs
        for i, gs in enumerate(game.goal_sets))
    yield spec, claimed, "leave different desires unreached"


def test_goals_first_raises_on_a_broken_invariant():
    for spec, game, message in tampered_games():
        with pytest.raises(RuntimeError, match=message):
            pareto_via_goals(spec, game=game)


def test_goals_first_raises_on_a_broken_invariant_without_asserts():
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('asserts are on')\n"
        "from bdgame.goals import pareto_via_goals\n"
        "from test_goals import tampered_games\n"
        "for spec, game, message in tampered_games():\n"
        "    try:\n"
        "        pareto_via_goals(spec, game=game)\n"
        "        print('returned')\n"
        "    except RuntimeError as exc:\n"
        "        print('raised' if message in str(exc) else exc)\n")
    path = os.pathsep.join([str(Path(bdgame.__file__).parents[1]),
                            str(Path(__file__).parent)])
    run = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (0, "raised\nraised\n"), \
        run.stderr


EXAMPLES = sorted(p.name.removesuffix(".bdg") for p in
                  example_path("prisoners").parent.glob("*.bdg"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_entry_points_called_without_a_game_derive_the_same_one(name):
    """Every goals entry point, called with ``game=None``, answers as it
    does when handed ``derive_game(spec)``."""
    spec = load_example(name)
    game = derive_game(spec)
    profiles = [game.profile(i) for i in range(len(game.positions))]
    everything = ProfileFamily(tuple(range(len(profiles))), u_closed=True)
    calls = [
        partial(u_closure, spec, profiles),
        partial(delta_goal_sets, spec, everything),
        partial(representation_check, spec, everything),
        partial(feasible_representation_check, spec),
        partial(pareto_via_goals, spec),
        *(partial(concept_family, spec, c) for c in ("all", *CONCEPTS)),
        *(partial(apply_decision_rule, spec, r) for r in DECISION_RULES),
        *(partial(goal_set_of, spec, p) for p in profiles),
        *(partial(is_goal_based, spec, p, gs) for p in profiles
          for gs in game.goal_set_members)]
    assert len(EXAMPLES) == 6 and profiles
    for call in calls:
        assert call() == call(game=game), call


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
