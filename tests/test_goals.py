import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bdgame.game
import bdgame.goals
import bdgame.logic
import bdgame.verify
from bdgame import load_example
from bdgame.errors import CombinatorialBoundError, InfeasibleProfileError
from bdgame.game import derive_game, nash, pareto
from bdgame.goals import (GoalSet, RepresentationViolation,
                          apply_decision_rule, delta_goal_sets,
                          fragment_check, heuristic_goals, is_goal_based,
                          iter_syntactic_goal_sets, pareto_via_goals,
                          representation_check, syntactic_goal_sets,
                          u_closure)
from bdgame.logic import TRUE, And, Not, Var
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
    return [str(feasible[i].profile) for i in family]


# ---------------------------------------------------------------------------
# U-closure
# ---------------------------------------------------------------------------

def test_closure_is_a_fixpoint(opposed_interests):
    game = derive_game(opposed_interests)
    first = u_closure(game, [0])
    again = u_closure(game, first)
    assert again == first
    assert 0 in first


def test_closure_of_distinct_signature_is_singleton(opposed_interests):
    game = derive_game(opposed_interests)
    for i in range(len(evaluated_profiles(opposed_interests))):
        family = u_closure(game, [i])
        assert family == (i,)


def test_closure_adds_indistinguishable_twin():
    spec = parse_spec(TWIN_SPEC_SRC)
    family = u_closure(derive_game(spec),
                       [index_of(spec, profile(x=["a"]))])
    # every decision leaves p unreached
    assert family == tuple(range(4))
    assert len(evaluated_profiles(spec)) == 4


# ---------------------------------------------------------------------------
# Goal sets
# ---------------------------------------------------------------------------

def test_cooperation_goal_set(cooperation):
    target = profile(alpha1=["a"], alpha2=["c"])
    game = derive_game(cooperation)
    family = u_closure(game, [index_of(cooperation, target)])
    assert family == (index_of(cooperation, target),)
    assert delta_goal_sets(game, family) == (
        GoalSet(frozenset({And(P, Q)}), frozenset()),)


def test_prisoners_goal_set(prisoners):
    game = derive_game(prisoners)
    family = u_closure(
        game, [index_of(prisoners, profile(alpha1=["!a"], alpha2=["!b"]))])
    (gs,) = delta_goal_sets(game, family)
    a, b = Var("a"), Var("b")
    assert gs == GoalSet(
        frozenset({Not(And(a, Not(b))), Not(And(Not(a), b))}),
        frozenset())


def test_desire_free_spec_has_the_empty_goal_set():
    spec = parse_spec('agent x {\n  atoms a\n  belief a => p\n}\nworld p\n')
    family = tuple(range(len(evaluated_profiles(spec))))
    assert delta_goal_sets(derive_game(spec), family) == (
        GoalSet(frozenset(), frozenset()),)


@pytest.mark.parametrize("outside", [lambda size: -1, lambda size: size,
                                     lambda size: size + 1],
                         ids=["minus-one", "len", "len-plus-one"])
def test_family_indexes_outside_the_game_are_refused(outside, cooperation):
    # Every index from outside is checked: -1 would read the last profile,
    # and the empty goal set is decided without reading the index at all.
    game = derive_game(cooperation)
    size = len(game.positions)
    empty = GoalSet(frozenset(), frozenset())
    inside = tuple(range(size))
    assert delta_goal_sets(game, inside)
    assert representation_check(game, inside) == ()
    assert u_closure(game, range(size)) == inside
    assert is_goal_based(game, size - 1, empty)
    index = outside(size)
    family = (0, index)
    for call in (lambda: delta_goal_sets(game, family),
                 lambda: representation_check(game, family),
                 lambda: u_closure(game, family),
                 lambda: is_goal_based(game, index, empty)):
        with pytest.raises(InfeasibleProfileError,
                           match=rf"^family index {index} is outside "
                                 rf"the game's {size} feasible profiles$"):
            call()


def test_untriggered_antecedents_become_negative_goals(
        single_agent_priorities):
    gs = derive_game(single_agent_priorities).goal_sets[
        index_of(single_agent_priorities, profile(alpha1=["a"]))]
    # d is undecided, so the d => q desire is untriggered
    assert Var("d") in gs.negative
    assert gs.positive == {Var("a")}


# ---------------------------------------------------------------------------
# Goal-based decisions
# ---------------------------------------------------------------------------

def test_empty_goal_set_matches_everything(cooperation):
    game = derive_game(cooperation)
    empty = GoalSet(frozenset(), frozenset())
    for p in (profile(alpha1=["a"], alpha2=["c"]),
              profile(alpha1=[], alpha2=[])):
        assert is_goal_based(game, index_of(cooperation, p), empty)


def test_cooperation_profile_is_goal_based(cooperation):
    game = derive_game(cooperation)
    gs = GoalSet(frozenset({And(P, Q)}), frozenset())
    assert is_goal_based(
        game, index_of(cooperation, profile(alpha1=["a"], alpha2=["c"])), gs)
    assert not is_goal_based(
        game, index_of(cooperation, profile(alpha1=[], alpha2=[])), gs)


def test_true_as_negative_goal_matches_nothing(cooperation):
    gs = GoalSet(frozenset(), frozenset({TRUE}))
    assert not is_goal_based(
        derive_game(cooperation),
        index_of(cooperation, profile(alpha1=["a"], alpha2=["c"])), gs)


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
    capped, fits = (cooperation.with_options(max_profiles=n) for n in (8, 9))
    for call in (check_representation, check_pipeline_equivalence):
        with pytest.raises(CombinatorialBoundError,
                           match=r"^9 candidate profiles \(cap 8\)$"):
            call(capped)
    assert check_representation(fits).passed
    assert check_pipeline_equivalence(fits).passed


# ---------------------------------------------------------------------------
# Representation
# ---------------------------------------------------------------------------

def test_prisoners_nash_family_representation(prisoners):
    game = derive_game(prisoners)
    family = apply_decision_rule(game, "nash-else-pareto")
    violations = representation_check(game, family)
    assert violations == (), violations


def test_unclosed_family_reports_the_missing_twin():
    spec = parse_spec(TWIN_SPEC_SRC)
    unclosed = (index_of(spec, profile(x=["a"])),)
    violations = representation_check(derive_game(spec), unclosed)
    assert {v.direction for v in violations} == {"goal-based-outside-family"}
    assert len(violations) == 3


def test_representation_on_fixtures(
        single_agent_priorities, interdependence, cooperation, prisoners,
        opposed_interests):
    # Every class passes, so every feasible profile is goal-based for a
    # goal set of its class: its own.  A pass counts one singleton closure
    # per feasible profile.
    for spec in (single_agent_priorities, interdependence, cooperation,
                 prisoners, opposed_interests):
        result = check_representation(spec)
        assert result.passed, result
        assert result.checked == len(derive_game(spec).positions)


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
    everything = tuple(range(len(feasible)))
    assert representation_check(game, everything) == ()
    pareto_via_goals(game)
    assert len(game.goal_sets) == len(feasible)
    assert len(built) == reports


def test_infeasible_profiles_stay_outside_goal_machinery(interdependence):
    game = derive_game(interdependence)
    assert game.index_of(profile(alpha1=["a"], alpha2=["b"])) is None


# ---------------------------------------------------------------------------
# Decision rules and pipelines
# ---------------------------------------------------------------------------

def test_nash_else_pareto_prisoners(prisoners):
    game = derive_game(prisoners)
    family = apply_decision_rule(game, "nash-else-pareto")
    assert decoded(prisoners, family) == ["<alpha1={!a}, alpha2={!b}>"]
    assert u_closure(game, family) == family


def test_bd_rational_prisoners(prisoners):
    family = apply_decision_rule(derive_game(prisoners), "bd-rational")
    assert decoded(prisoners, family) == [
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"]


def test_decision_rules_on_single_profile_game():
    spec = parse_spec('agent x {\n  atoms a\n  desire d: true => a\n'
                      '  initial a\n}\n')
    for rule in ("bd-rational", "nash-else-pareto"):
        family = apply_decision_rule(derive_game(spec), rule)
        assert decoded(spec, family) == ["<x={a}>"]


# Two agents with opposite tastes about a shared coin: some profile is
# Nash, so the rule keeps the Nash family.
COIN_SPEC_SRC = (
    'option decision_mode = total-assignments\n'
    'agent x {\n  atoms a\n  desire dx: true => a & b\n}\n'
    'agent y {\n  atoms b\n  desire dy: true => !(a & b)\n}\n')
# Matching pennies: x wants the coins equal, y wants them different, so
# one of them gains by switching in every profile and no profile is Nash.
PENNIES_SPEC_SRC = (
    'option decision_mode = total-assignments\n'
    'agent x {\n  atoms a\n  desire dx: true => (a & b) | (!a & !b)\n}\n'
    'agent y {\n  atoms b\n  desire dy: true => (a & !b) | (!a & b)\n}\n')


@pytest.mark.parametrize("source, concept, expected", [
    (COIN_SPEC_SRC, nash, (1, 2, 3)),
    (PENNIES_SPEC_SRC, pareto, (0, 1, 2, 3)),
], ids=["coin-keeps-nash", "pennies-falls-back-to-pareto"])
def test_nash_else_pareto_keeps_nash_or_falls_back_to_pareto(
        source, concept, expected):
    game = derive_game(parse_spec(source))
    family = apply_decision_rule(game, "nash-else-pareto")
    assert family == u_closure(game, concept(game).profile_indexes)
    assert family == expected


def test_pipeline_equivalence_on_fixtures(
        single_agent_priorities, interdependence, cooperation, prisoners,
        opposed_interests):
    for spec in (single_agent_priorities, interdependence, cooperation,
                 prisoners, opposed_interests):
        game = derive_game(spec)
        direct = u_closure(game, pareto(game).profile_indexes)
        via = pareto_via_goals(game)
        assert via.pareto_family == direct


def test_goals_first_pool_is_all_feasible(prisoners):
    game = derive_game(prisoners)
    result = pareto_via_goals(game)
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
        family = tuple(members)
        assert representation_check(broken, family) == (expected,)
    monkeypatch.setattr(bdgame.verify, "derive_game", lambda _: broken)
    result = check_representation(spec)
    assert not result.passed
    assert result.details == str(expected)
    assert set(result.counterexample["family"]) == {
        str(profile(x=["a", "b"])), str(profile(x=["a"]))}


def test_representation_checks_the_last_class(monkeypatch):
    # !a is reached by {!a, b} and {!a, !b}, the last class.  With the part
    # of {a, b}, {!a, b} keeps its goal set <+{!a}, -{}> but no longer
    # entails !a, so that class fails and the first one passes.
    spec = parse_spec('option decision_mode = total-assignments\n'
                      'agent x {\n  atoms a b\n  desire d: true => !a\n}\n')
    game = derive_game(spec)
    mine, theirs = (game.index_of(profile(x=names))
                    for names in (["!a", "b"], ["a", "b"]))
    broken = with_part(game, mine, theirs)
    first, last = broken.classes
    assert mine in last and game.goal_sets[mine].positive
    assert representation_check(broken, first) == ()
    assert [v.profile for v in representation_check(broken, last)] == [
        profile(x=["!a", "b"])]
    monkeypatch.setattr(bdgame.verify, "derive_game", lambda _: broken)
    result = check_representation(spec)
    assert not result.passed and result.checked == last[0] + 1
    assert result.counterexample == {
        "family": [str(broken.profile(i)) for i in last]}


def test_representation_fails_a_profile_goal_based_only_for_a_twin_goal_set(
        monkeypatch):
    # {}, {a} and {a, b} leave nothing unreached; {a, b} generates
    # <+{a}, -{}>, the other two <+{}, -{b}>.  With the part of {}, {a, b}
    # is goal-based for its class's other goal set but not for its own,
    # which is what direction (a) asks.
    spec = parse_spec(
        'agent x {\n  atoms a b\n  desire d: b => a\n}\n')
    game = derive_game(spec)
    ab, empty = game.index_of(profile(x=["a", "b"])), \
        game.index_of(profile(x=[]))
    broken = with_part(game, ab, empty)
    shared = game.goal_sets[empty]
    assert game.goal_sets[ab] != shared
    assert is_goal_based(broken, ab, shared)
    family = u_closure(broken, [ab])
    assert len(family) == 3
    assert [v.profile for v in representation_check(broken, family)] == [
        profile(x=["a", "b"])]
    # check --property representation fails it on its first class, the
    # class of {a, b}.
    monkeypatch.setattr(bdgame.verify, "derive_game", lambda _: broken)
    result = check_representation(spec)
    assert not result.passed and result.checked == 1
    assert result.details == (
        f"member-without-goal-set: {profile(x=['a', 'b'])} is not goal-based "
        f"for its own goal set {game.goal_sets[ab]}")
    assert result.counterexample == {"family": [
        str(profile(x=names)) for names in (["a", "b"], ["a"], [])]}


def spy_on_deciders(monkeypatch):
    """Count, where goals and verify build a ``_goal_decider``, the games
    one is built on and the (profile, goal set) pairs each is asked."""
    built, asked = [], Counter()
    goal_decider = bdgame.goals._goal_decider

    def counting(game):
        built.append(game)
        decide = goal_decider(game)

        def counted(index, goals):
            asked[game.profile(index), goals] += 1
            return decide(index, goals)
        return counted

    for module in (bdgame.goals, bdgame.verify):
        monkeypatch.setattr(module, "_goal_decider", counting)
    return built, asked


def test_representation_decides_each_profile_and_goal_set_once(monkeypatch):
    spec, game = shared_goal_set_game()
    built, asked = spy_on_deciders(monkeypatch)
    assert check_representation(spec).passed
    assert len(built) == 1
    # Each profile is decided on its own goal set, once.
    assert set(asked) == {(ep.profile, gs) for ep, gs in zip(
        evaluated_profiles(spec), game.goal_sets)}
    assert max(asked.values()) == 1
    # The goals layer's check asks the family of every profile the same.
    own = Counter(asked)
    built.clear()
    asked.clear()
    assert representation_check(game, u_closure(
        game, range(len(game.positions)))) == ()
    assert len(built) == 1 and asked == own


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
    result = pareto_via_goals(fresh)
    assert compared and max(compared.values()) == 1
    for better, worse in compared:
        assert better != worse
        assert any({better, worse} <= mine for mine in sets)
    assert len(compared) <= sum(len(mine) * (len(mine) - 1) for mine in sets)
    # The route orders goal sets without the tables, the classes or pareto.
    assert not {"orders", "class_ids", "classes"} & set(vars(fresh))
    assert result.pareto_family == u_closure(
        game, pareto(game).profile_indexes)


def tampered_games():
    """Games of SHARED_SPEC_SRC that each break one invariant the
    goals-first route checks, with the message it raises."""
    spec = parse_spec(SHARED_SPEC_SRC)
    game = derive_game(spec)
    foreign = dataclasses.replace(game)
    vars(foreign)["goal_sets"] = tuple(
        GoalSet(gs.positive | {Var("b")}, gs.negative)
        for gs in game.goal_sets)
    yield foreign, "holds a goal of no desire rule"
    # {b} claims the goal set of {a}, which reaches the desire {b} leaves
    # unreached: one goal set, two unreached sets.
    claimed = dataclasses.replace(game)
    b, a = game.index_of(profile(x=["b"])), game.index_of(profile(x=["a"]))
    vars(claimed)["goal_sets"] = tuple(
        game.goal_sets[a] if i == b else gs
        for i, gs in enumerate(game.goal_sets))
    yield claimed, "leave different desires unreached"


def test_goals_first_raises_on_a_broken_invariant():
    for game, message in tampered_games():
        with pytest.raises(RuntimeError, match=message):
            pareto_via_goals(game)


def test_goals_first_raises_on_a_broken_invariant_without_asserts():
    script = (
        "import sys\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit('asserts are on')\n"
        "from bdgame.goals import pareto_via_goals\n"
        "from test_goals import tampered_games\n"
        "for game, message in tampered_games():\n"
        "    try:\n"
        "        pareto_via_goals(game)\n"
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
