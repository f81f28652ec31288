import random
from collections import Counter

import pytest

import bdgame.decision
import bdgame.game
from bdgame.decision import Decision, agent_extension, enumerate_decisions
from bdgame.game import (FAIL, derive_game, dominant, nash, pareto, solve,
                         strongly_pareto)
from bdgame.logic import Literal, Not, Var
from bdgame.model import parse_spec
from bdgame.verify import check_game_laws, random_spec

from conftest import profile


def names(game, indexes):
    return {str(game.profiles[i].profile) for i in indexes}


def test_derive_game_keeps_only_jointly_feasible(interdependence):
    game = derive_game(interdependence)
    profiles = {str(ep.profile) for ep in game.profiles}
    assert "<alpha1={a}, alpha2={b}>" not in profiles
    assert "<alpha1={}, alpha2={b}>" in profiles
    assert len(game.profiles) == 3
    # every kept profile is componentwise feasible by construction
    for ep in game.profiles:
        for d in ep.profile.decisions:
            assert d in game.feasible_decisions[d.agent]


def test_derive_game_outcomes(opposed_interests):
    game = derive_game(opposed_interests)
    assert len(game.profiles) == 4
    world = {"p", "q"}
    outcomes = [
        {s for s in map(str, ep.extension.formulas) if s.lstrip("!") in world}
        for ep in game.profiles]
    assert outcomes == [{"p", "q"}, {"p", "!q"}, {"!p", "q"}, {"!p", "!q"}]


def test_desire_free_spec_has_empty_unreached():
    spec = parse_spec('agent x {\n  atoms a\n  belief a => p\n}\nworld p\n')
    game = derive_game(spec)
    assert game.profiles
    for ep in game.profiles:
        assert ep.report.unreached("x") == set()


def test_pareto_prisoners(prisoners):
    game = derive_game(prisoners)
    report = pareto(game)
    assert names(game, report.profile_indexes) == {
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"}
    excluded = set(report.witnesses)
    assert names(game, excluded) == {"<alpha1={!a}, alpha2={!b}>"}
    witness = next(iter(report.witnesses.values()))
    assert str(game.profiles[witness.other].profile) == \
        "<alpha1={a}, alpha2={b}>"


def test_pareto_single_profile():
    spec = parse_spec('agent x {\n  atoms a\n  desire d: true => a\n'
                      '  initial a\n}\n')
    game = derive_game(spec)
    assert len(game.profiles) == 1
    assert pareto(game).profile_indexes == (0,)


def test_pareto_all_when_interests_oppose(opposed_interests):
    game = derive_game(opposed_interests)
    assert len(pareto(game).profile_indexes) == 4


def test_strongly_pareto_subset_of_pareto(prisoners, opposed_interests,
                                          cooperation):
    for spec in (prisoners, opposed_interests, cooperation):
        game = derive_game(spec)
        assert set(strongly_pareto(game).profile_indexes) <= \
            set(pareto(game).profile_indexes)


def test_strongly_pareto_prisoners(prisoners):
    game = derive_game(prisoners)
    assert names(game, strongly_pareto(game).profile_indexes) == {
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"}


def test_indistinguishable_profiles_share_strong_pareto_status():
    spec = parse_spec(
        'agent x {\n  atoms a b\n  desire d: true => p\n}\nworld p\n')
    game = derive_game(spec)
    chosen = set(strongly_pareto(game).profile_indexes)
    assert chosen == set(range(len(game.profiles))) or not chosen


def test_dominant_empty_on_opposed_interests(opposed_interests):
    game = derive_game(opposed_interests)
    assert dominant(game).profile_indexes == ()


def test_dominant_on_single_agent():
    spec = parse_spec('agent x {\n  atoms a\n  belief a => p\n'
                      '  desire d: true => p\n}\nworld p\n')
    game = derive_game(spec)
    report = dominant(game)
    assert names(game, report.profile_indexes) == {"<x={a}>"}


def test_dominant_subset_of_nash(prisoners, opposed_interests, cooperation):
    for spec in (prisoners, opposed_interests, cooperation):
        game = derive_game(spec)
        assert set(dominant(game).profile_indexes) <= \
            set(nash(game).profile_indexes)


def test_nash_prisoners(prisoners):
    game = derive_game(prisoners)
    report = nash(game)
    assert names(game, report.profile_indexes) == {
        "<alpha1={!a}, alpha2={!b}>"}
    # mutual cooperation fails because defecting improves the defector
    coop = game.index_of(profile(alpha1=["a"], alpha2=["b"]))
    witness = report.witnesses[coop]
    assert witness.decision in (
        Decision("alpha1", frozenset({Literal("a", False)})),
        Decision("alpha2", frozenset({Literal("b", False)})))


def test_nash_opposed_interests(opposed_interests):
    game = derive_game(opposed_interests)
    assert names(game, nash(game).profile_indexes) == {
        "<alpha1={a}, alpha2={!b}>"}


def test_every_profile_nash_when_no_desires():
    spec = parse_spec('agent x {\n  atoms a\n}\nagent y {\n  atoms b\n}\n')
    game = derive_game(spec)
    assert len(nash(game).profile_indexes) == len(game.profiles) == 4


def test_nash_infeasible_swaps_policies(interdependence):
    game = derive_game(interdependence)
    relaxed = nash(game)
    strict = nash(game, infeasible_swaps=FAIL)
    assert set(strict.profile_indexes) <= set(relaxed.profile_indexes)
    # alpha1 deciding a while alpha2 keeps b is jointly infeasible, so the
    # fail policy rejects <{},{b}> outright
    blocked = game.index_of(profile(alpha1=[], alpha2=["b"]))
    assert blocked in relaxed.profile_indexes
    assert blocked not in strict.profile_indexes


def test_solution_sets_invariant_under_renaming(prisoners):
    renamed = parse_spec("""
system "renamed"
option decision_mode = total-assignments
agent beta2 {
  atoms z
  priority identity
  desire e1: true => !z & w
  desire e2: true => w
  desire e3: true => !(z & !w)
}
agent beta1 {
  atoms w
  priority identity
  desire f1: true => z & !w
  desire f2: true => z
  desire f3: true => !(!z & w)
}
""")
    original = derive_game(prisoners)
    twin = derive_game(renamed)

    def shape(game, report):
        out = set()
        for i in report.profile_indexes:
            out.add(frozenset(
                lit.positive for d in game.profiles[i].profile.decisions
                for lit in d.literals))
        return out

    for concept in ("pareto", "strong-pareto", "dominant", "nash"):
        assert shape(original, solve(original, concept)) == \
            shape(twin, solve(twin, concept))


def test_reports_rechecked_on_random_games():
    result = check_game_laws(seed=20260810, samples=120)
    assert result.passed, result


def test_pareto_nonempty_on_random_games():
    rng = random.Random(3)
    for _ in range(80):
        spec = random_spec(rng)
        game = derive_game(spec)
        if game.profiles:
            assert pareto(game).profile_indexes


def test_derive_game_builds_each_agent_extension_once(monkeypatch):
    built = Counter()

    def counting(spec, agent_id, decision):
        built[agent_id, decision] += 1
        return agent_extension(spec, agent_id, decision)

    monkeypatch.setattr(bdgame.decision, "agent_extension", counting)
    monkeypatch.setattr(bdgame.game, "agent_extension", counting)
    rng = random.Random(11)
    for _ in range(30):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=2)
        built.clear()
        derive_game(spec)
        pairs = {(a.id, d) for a in spec.agents
                 for d in enumerate_decisions(spec, a.id)}
        assert set(built) == pairs
        assert set(built.values()) == {1}
