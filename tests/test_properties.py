"""Algebraic laws and cross-module invariants on seeded random instances."""

import random
from importlib import resources

import bdgame.goals
import bdgame.verify
from bdgame import format_spec, load_example, parse_spec
from bdgame.decision import (desire_report, is_feasible_decision,
                             is_feasible_profile, joint_extension, set_geq)
from bdgame.game import derive_game, nash, pareto
from bdgame.goals import apply_decision_rule, goal_set_of, u_closure
from bdgame.verify import (check_extension_laws, check_game_laws,
                           check_heuristic_fragment, check_order_laws,
                           check_pipeline_equivalence, check_representation,
                           check_representation_corpus, random_spec)

from conftest import evaluated_profiles


def unreached_signature(spec, report):
    """Hashable per-agent unreached-set tuple; equal iff indistinguishable."""
    return tuple((a.id, tuple(sorted(report.unreached(a.id))))
                 for a in spec.agents)


def feasible_games(seed, count, **kwargs):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        spec = random_spec(rng, **kwargs)
        game = derive_game(spec)
        if game.positions:
            produced += 1
            yield spec, game


def test_extension_laws_seeded():
    result = check_extension_laws(seed=99, samples=400)
    assert result.passed, result


def test_order_laws_exhaustive():
    result = check_order_laws(max_rules=4)
    assert result.passed, result
    assert "antisymmetry violations: 0" in result.details


def test_game_laws_seeded():
    result = check_game_laws(seed=1234, samples=80)
    assert result.passed, result


def test_feasible_profile_implies_feasible_components():
    for spec, game in feasible_games(5150, 40):
        profiles = [game.profile(i) for i in range(len(game.positions))]
        assert profiles == [ep.profile for ep in evaluated_profiles(spec)]
        for p in profiles:
            assert is_feasible_profile(spec, p)
            for d in p.decisions:
                assert is_feasible_decision(spec, d.agent, d)


def test_strict_subset_of_unreached_improves():
    for spec, game in feasible_games(6021, 40):
        for a in spec.agent_ids:
            order = spec.agent(a).priority
            for i in range(len(game.positions)):
                for j in range(len(game.positions)):
                    ui = game.unreached(i, a)
                    uj = game.unreached(j, a)
                    if ui < uj:
                        assert game.profile_geq(i, j, a)
                    if ui == uj:
                        assert game.profile_geq(i, j, a)
                        assert game.profile_geq(j, i, a)


def test_violated_is_subset_of_unreached():
    for spec, game in feasible_games(7332, 40):
        for ep in evaluated_profiles(spec):
            report = desire_report(spec, ep.profile)
            for a in spec.agent_ids:
                status = report.per_agent[a]
                assert status.violated <= status.unreached
                everything = (status.unreached | status.reached
                              | status.violated | status.inapplicable)
                assert everything == {r.id for r in spec.agent(a).desires}


def test_u_closure_is_idempotent_and_monotone():
    rng = random.Random(88)
    for spec, game in feasible_games(88, 30):
        feasible = [ep.profile for ep in evaluated_profiles(spec)]
        members = rng.sample(feasible, rng.randint(1, len(feasible)))
        closed = u_closure(spec, members, game=game)
        inside = [feasible[i] for i in closed.profile_indexes]
        assert set(members) <= set(inside)
        again = u_closure(spec, inside, game=game)
        assert again.profile_indexes == closed.profile_indexes
        smaller = u_closure(spec, members[:1], game=game)
        assert set(smaller.profile_indexes) <= set(closed.profile_indexes)


def test_decision_rule_families_are_u_closed():
    for spec, game in feasible_games(4242, 30):
        for rule in ("bd-rational", "nash-else-pareto"):
            family = apply_decision_rule(spec, rule, game=game)
            assert family.u_closed
            feasible = evaluated_profiles(spec)
            signatures = {
                unreached_signature(spec, desire_report(spec,
                                                        feasible[i].profile))
                for i in family.profile_indexes}
            for i, ep in enumerate(feasible):
                sig = unreached_signature(spec, desire_report(spec, ep.profile))
                assert (sig in signatures) == (i in family.profile_indexes)


def test_goal_set_components_come_from_desires():
    for spec, game in feasible_games(9771, 40):
        consequents = {r.consequent for r in spec.all_desires()}
        antecedents = {r.antecedent for r in spec.all_desires()}
        for ep in evaluated_profiles(spec):
            gs = goal_set_of(spec, ep.profile)
            assert gs.positive <= consequents
            assert gs.negative <= antecedents


def test_equal_goal_sets_force_equal_unreached_sets():
    for spec, game in feasible_games(3141, 40):
        by_goal_set = {}
        for ep in evaluated_profiles(spec):
            gs = goal_set_of(spec, ep.profile)
            sig = unreached_signature(spec, desire_report(spec, ep.profile))
            by_goal_set.setdefault(gs, set()).add(sig)
        for gs, signatures in by_goal_set.items():
            assert len(signatures) == 1, (gs, signatures)


def test_pipeline_equivalence_seeded():
    for spec, _ in feasible_games(2718, 40, max_rules=3):
        result = check_pipeline_equivalence(spec)
        assert result.passed, result


def test_nash_profiles_survive_deviation_recheck():
    for spec, game in feasible_games(1618, 40):
        report = nash(game)
        feasible = evaluated_profiles(spec)
        for i in report.profile_indexes:
            candidate = feasible[i].profile
            for a in spec.agent_ids:
                for deviation in game.feasible_decisions[a]:
                    j = game.index_of(candidate.with_decision(deviation))
                    if j is None or j == i:
                        continue
                    assert game.profile_geq(i, j, a)


def test_heuristic_fragment_containment_is_logged_not_asserted(capsys):
    result = check_heuristic_fragment(seed=55, samples=80)
    assert result.passed
    assert result.checked > 0
    print(f"heuristic fragment containment: {result.details}")


def test_checks_that_examine_nothing_do_not_pass(monkeypatch):
    spec = parse_spec("agent x {\n  fact p\n  belief true => !p\n}\n"
                      "world p\n")
    for result in (check_representation(spec),
                   check_pipeline_equivalence(spec)):
        assert not result.passed and result.checked == 0
        assert "nothing to check: no feasible profile" in str(result)
    monkeypatch.setattr(bdgame.goals, "fragment_check", lambda spec: False)
    result = check_heuristic_fragment(seed=55, samples=5)
    assert not result.passed and result.checked == 0


def test_representation_corpus_skips_specs_without_feasible_profiles(
        monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(check_representation(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bdgame.verify, "check_representation", recording)
    corpus = check_representation_corpus(seed=3, samples=10,
                                         exhaustive=False)
    assert corpus.passed and corpus.checked == 10
    skipped = [r for r in results if not r.checked]
    assert len(results) == 11 and len(skipped) == 1


def test_equal_specs_hash_equal():
    for path in sorted(resources.files("bdgame").joinpath(
            "examples").iterdir()):
        if not path.name.endswith(".bdg"):
            continue
        spec = load_example(path.name)
        twin = parse_spec(format_spec(spec))
        assert twin == spec and twin is not spec
        assert hash(twin) == hash(spec)
        assert {spec: path.name}[twin] == path.name
