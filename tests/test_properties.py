"""Algebraic laws and cross-module invariants on seeded random instances."""

import random
from dataclasses import replace
from importlib import resources
from itertools import starmap

import pytest

import bdgame.goals
import bdgame.verify
from bdgame import format_spec, load_example, parse_spec
from bdgame.decision import (desire_report, is_feasible_decision,
                             is_feasible_profile, joint_extension, set_geq)
from bdgame.cli import _COMMANDS, _build_parser
from bdgame.extension import Rule
from bdgame.game import (CONCEPTS, ExclusionWitness, SolutionReport,
                         derive_game, nash, pareto, solve)
from bdgame.goals import apply_decision_rule, goal_set_of, u_closure
from bdgame.logic import TRUE
from bdgame.model import RANKED, DecisionMode, PriorityOrder, validate_spec
from bdgame.verify import (check_extension_laws, check_game_laws,
                           check_heuristic_fragment, check_monotonicity,
                           check_order_laws, check_pipeline_equivalence,
                           check_representation, check_representation_corpus,
                           random_spec)

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


def excluded_by_itself(i, w):
    return w and replace(w, other=i)


@pytest.mark.parametrize("name, rewrite, detail", [
    ("pareto", lambda i, w: w or ExclusionWitness(other=i),
     "Pareto empty on a nonempty game"),
    ("strongly_pareto", lambda i, w: None,
     "strongly-Pareto not within Pareto"),
    ("dominant", lambda i, w: None, "dominant not within Nash"),
    ("pareto", excluded_by_itself, "stale Pareto witness"),
    ("strongly_pareto", excluded_by_itself, "stale strongly-Pareto witness"),
    ("dominant", excluded_by_itself, "stale dominant witness"),
    ("nash", excluded_by_itself, "stale Nash witness")],
    ids=["pareto-empty", "strong-pareto-outside-pareto",
         "dominant-outside-nash", "stale-pareto", "stale-strong-pareto",
         "stale-dominant", "stale-nash"])
def test_game_laws_name_a_broken_column(monkeypatch, name, rewrite, detail):
    """One concept's column rewritten entry by entry: the single pass over
    the four columns reports the law it breaks."""
    concept = getattr(bdgame.verify, name)

    def broken(game):
        report = concept(game)
        return SolutionReport(report.concept, tuple(
            starmap(rewrite, enumerate(report.witness))))
    monkeypatch.setattr(bdgame.verify, name, broken)
    result = check_game_laws(seed=1234, samples=80)
    assert not result.passed and result.details == detail, result


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


@pytest.mark.parametrize("suite", [
    check_extension_laws, check_game_laws,
    lambda samples: check_monotonicity(load_example("prisoners"),
                                       samples=samples)],
    ids=["extension-laws", "game-laws", "monotonicity"])
def test_sampled_suites_without_samples_do_not_pass(suite):
    result = suite(samples=0)
    assert not result.passed and result.checked == 0
    assert str(result).endswith("(nothing to check: no instance)")


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


# ---------------------------------------------------------------------------
# Metamorphic relations: spec changes the definitions say change nothing
# ---------------------------------------------------------------------------

METAMORPHIC_SPECS = 200


def metamorphic_specs(seed):
    """Seeded random specs with a feasible profile, each in all three
    decision modes."""
    rng = random.Random(seed)
    produced = 0
    while produced < METAMORPHIC_SPECS:
        spec = random_spec(rng)
        if derive_game(spec).positions:
            produced += 1
            for mode in DecisionMode:
                yield spec.with_options(decision_mode=mode)


def without(atom, indexes, game):
    """The game's profiles at ``indexes``, with ``atom`` dropped from their
    decisions."""
    return {tuple(frozenset(lit for lit in d.literals if lit.atom != atom)
                  for d in game.profile(i).decisions) for i in indexes}


def test_an_idle_decision_atom_changes_no_concept_and_no_goal_set():
    # A decision atom no rule mentions splits every decision of its agent
    # into copies that no desire, belief or priority tells apart.
    rng = random.Random(41)
    for spec in metamorphic_specs(40):
        owner = rng.randrange(len(spec.agents))
        idle = replace(spec, agents=tuple(
            replace(a, decision_atoms=a.decision_atoms + ("z",))
            if k == owner else a for k, a in enumerate(spec.agents)))
        game, twin = derive_game(spec), derive_game(idle)
        assert len(twin.positions) > len(game.positions)
        for concept in CONCEPTS:
            assert without("z", solve(twin, concept).profile_indexes,
                           twin) == without(
                "z", solve(game, concept).profile_indexes, game), concept
        assert set(twin.goal_sets) == set(game.goal_sets)


def test_an_idle_world_atom_leaves_the_json_reports_byte_identical(capsys):
    # The commands run on the spec objects, as ``main`` runs them once it
    # has read the file; each concept's arguments are parsed once.
    parser = _build_parser()
    runs = [[(argv[0], parser.parse_args([*argv, "-", "--format", "json"]))
             for argv in (["profiles"], ["solve", "--concept", concept],
                          ["goals", "--family", concept])]
            for concept in CONCEPTS]
    for k, spec in enumerate(metamorphic_specs(42)):
        idle = replace(spec, world_atoms=spec.world_atoms + ("w",))
        for command, args in runs[k % len(runs)]:
            printed = []
            for s in (spec, idle):
                assert _COMMANDS[command](s, args) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], (command, format_spec(spec))


def test_a_desire_always_reached_leaves_the_solutions_byte_identical(
        capsys):
    # A desire ``true => true`` is reached under every profile, so it never
    # enters an unreached set, and desires add nothing to extensions; ranked
    # lowest (or under the identity order) it outranks no desire either.
    # So every unreached set, every comparison of two of them and every
    # solution stays as it was.
    parser = _build_parser()
    runs = [parser.parse_args(["solve", "--concept", concept, "-",
                               "--format", "json"]) for concept in CONCEPTS]
    rng = random.Random(43)
    for spec in metamorphic_specs(44):
        owner = rng.randrange(len(spec.agents))
        agent = spec.agents[owner]
        always = Rule(f"{agent.id}_always", TRUE, TRUE, "desire", agent.id)
        if agent.priority.mode == RANKED:
            ranks = agent.priority.ranks
            priority = PriorityOrder.ranked(
                {**ranks, always.id: min(ranks.values(), default=1) - 1})
        else:
            priority = PriorityOrder.identity(
                agent.priority.rule_ids | {always.id})
        twin = replace(spec, agents=tuple(
            replace(a, desires=a.desires + (always,), priority=priority)
            if k == owner else a for k, a in enumerate(spec.agents)))
        assert validate_spec(twin) == []
        for args in runs:
            printed = []
            for s in (spec, twin):
                assert _COMMANDS["solve"](s, args) == 0
                printed.append(capsys.readouterr().out)
            assert printed[0] == printed[1], (args.concept, format_spec(spec))


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
