"""Algebraic laws and cross-module invariants on seeded random instances."""

import random
from collections import Counter
from dataclasses import replace
from importlib import resources
from itertools import starmap

import pytest

import bdgame.verify
from bdgame import format_spec, load_example, parse_spec
from bdgame.decision import (desire_report, is_feasible_decision,
                             is_feasible_profile)
from bdgame.cli import _COMMANDS, _build_parser
from bdgame.extension import Rule
from bdgame.game import (CONCEPTS, ExclusionWitness, SolutionReport,
                         derive_game, nash, solve)
from bdgame.goals import (DECISION_RULES, apply_decision_rule,
                          concept_family, pareto_via_goals,
                          representation_check, u_closure)
from bdgame.logic import TRUE
from bdgame.model import DecisionMode, PriorityOrder, validate_spec
from bdgame.verify import (CheckResult, check_extension_laws,
                           check_game_laws, check_heuristic_fragment,
                           check_monotonicity, check_order_laws,
                           check_pipeline_equivalence, check_representation,
                           check_representation_corpus, random_formula,
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
        feasible = range(len(evaluated_profiles(spec)))
        members = rng.sample(feasible, rng.randint(1, len(feasible)))
        closed = u_closure(game, members)
        assert set(members) <= set(closed)
        assert u_closure(game, closed) == closed
        assert set(u_closure(game, members[:1])) <= set(closed)


def test_decision_rule_families_are_u_closed():
    # Every family the goals layer returns is its own U-closure, computed;
    # a rule's family holds exactly the profiles whose unreached sets one
    # of its members leaves.
    for spec, game in feasible_games(4242, 30):
        families = [concept_family(game, concept, fail_infeasible_swaps=fail)
                    for concept in (*CONCEPTS, "all")
                    for fail in (False, True)]
        families += [apply_decision_rule(game, rule,
                                         fail_infeasible_swaps=fail)
                     for rule in DECISION_RULES for fail in (False, True)]
        families.append(pareto_via_goals(game).pareto_family)
        for family in families:
            assert u_closure(game, family) == family
        feasible = evaluated_profiles(spec)
        for rule in DECISION_RULES:
            family = apply_decision_rule(game, rule)
            signatures = {
                unreached_signature(spec, desire_report(spec,
                                                        feasible[i].profile))
                for i in family}
            for i, ep in enumerate(feasible):
                sig = unreached_signature(spec, desire_report(spec, ep.profile))
                assert (sig in signatures) == (i in family)


def test_goal_set_components_come_from_desires():
    for spec, game in feasible_games(9771, 40):
        consequents = {r.consequent for r in spec.all_desires()}
        antecedents = {r.antecedent for r in spec.all_desires()}
        for i in range(len(evaluated_profiles(spec))):
            gs = game.goal_sets[i]
            assert gs.positive <= consequents
            assert gs.negative <= antecedents


def test_equal_goal_sets_force_equal_unreached_sets():
    for spec, game in feasible_games(3141, 40):
        by_goal_set = {}
        for i, ep in enumerate(evaluated_profiles(spec)):
            gs = game.goal_sets[i]
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
    monkeypatch.setattr(bdgame.verify, "fragment_check", lambda spec: False)
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


@pytest.mark.parametrize("failing", [7, 3_600 + 4],
                         ids=["exhaustive-phase", "random-phase"])
def test_representation_corpus_reports_the_spec_that_fails(monkeypatch,
                                                          failing):
    # The exhaustive family holds 3,600 specs; the random phase follows.
    specs = []

    def failing_at(spec):
        specs.append(spec)
        if len(specs) == failing:
            return CheckResult("representation", False, 1, "broken",
                               {"family": ["<a1={a}, a2={c}>"]})
        return CheckResult("representation", True, 1)

    monkeypatch.setattr(bdgame.verify, "check_representation", failing_at)
    result = check_representation_corpus(seed=0, samples=10)
    assert len(specs) == failing
    assert not result.passed and result.checked == failing
    assert result.details == "broken"
    assert result.counterexample == {"spec": format_spec(specs[-1]),
                                     "family": ["<a1={a}, a2={c}>"]}


def broken_tables(game, rng):
    """Copies of a game whose tables break representation on purpose: one
    profile's goal set moved onto a profile of another class, and one
    agent's decision given the part (its extension) of another."""
    size = len(game.positions)
    for _ in range(3):
        i, j = rng.randrange(size), rng.randrange(size)
        if game.class_ids[i] != game.class_ids[j]:
            moved = replace(game)
            vars(moved)["goal_sets"] = tuple(
                game.goal_sets[i] if k == j else gs
                for k, gs in enumerate(game.goal_sets))
            yield moved
        agent = rng.choice(game.spec.agent_ids)
        decisions = game.feasible_decisions[agent]
        mine, theirs = rng.choices(tuple(decisions), k=2)
        yield replace(game, feasible_decisions={
            **game.feasible_decisions,
            agent: {**decisions, mine: decisions[theirs]}})


def test_a_union_of_classes_that_each_pass_passes():
    # Why check --property representation checks the classes alone: on
    # games with broken tables, every U-closed family (a union of classes)
    # whose classes all pass passes too, and so does every family and the
    # whole feasible set once every class passes.
    rng = random.Random(2002)
    seen = Counter()
    for _, game in feasible_games(2002, 300, max_agents=3):
        for broken in broken_tables(game, rng):
            size = len(broken.positions)
            failing = {c for c, members in enumerate(broken.classes)
                       if representation_check(broken, members)}
            seen["games with a failing class"] += bool(failing)
            families = [u_closure(broken, rng.sample(
                range(size), rng.randint(1, size))) for _ in range(5)]
            families.append(tuple(range(size)))
            for family in families:
                classes = {broken.class_ids[i] for i in family}
                if not classes & failing:
                    assert representation_check(broken, family) == ()
                    seen["passing unions beside a failing class"] += \
                        bool(failing)
    assert seen["games with a failing class"] >= 250, seen
    assert seen["passing unions beside a failing class"] >= 80, seen


# ---------------------------------------------------------------------------
# Metamorphic relations: spec changes the definitions say change nothing
# ---------------------------------------------------------------------------

METAMORPHIC_SPECS = 200


def metamorphic_specs(seed, max_agents=2):
    """Seeded random specs with a feasible profile, each in all three
    decision modes."""
    rng = random.Random(seed)
    produced = 0
    while produced < METAMORPHIC_SPECS:
        spec = random_spec(rng, max_agents=max_agents)
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


def json_runs():
    """Per concept, the parsed arguments of ``profiles``, ``solve`` and
    ``goals`` in JSON.  The commands run on the spec objects, as ``main``
    runs them once it has read the file; each concept's arguments are
    parsed once, and a test rotates through the concepts spec by spec."""
    parser = _build_parser()
    return [[(argv[0], parser.parse_args([*argv, "-", "--format", "json"]))
             for argv in (["profiles"], ["solve", "--concept", concept],
                          ["goals", "--family", concept])]
            for concept in CONCEPTS]


def assert_same_reports(spec, twin, runs, capsys):
    """Each run prints the same bytes on ``spec`` and on ``twin``."""
    for command, args in runs:
        printed = []
        for s in (spec, twin):
            assert _COMMANDS[command](s, args) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1], (args, format_spec(twin))


def test_an_idle_world_atom_leaves_the_json_reports_byte_identical(capsys):
    runs = json_runs()
    for k, spec in enumerate(metamorphic_specs(42)):
        idle = replace(spec, world_atoms=spec.world_atoms + ("w",))
        assert_same_reports(spec, idle, runs[k % len(runs)], capsys)


def test_a_desire_always_reached_leaves_the_solutions_byte_identical(
        capsys):
    # A desire ``true => true`` is reached under every profile, so it never
    # enters an unreached set, and desires add nothing to extensions; ranked
    # lowest (or under the identity order) it outranks no desire either.
    # So every unreached set, every comparison of two of them and every
    # solution stays as it was.
    parser = _build_parser()
    runs = [("solve", parser.parse_args(["solve", "--concept", concept, "-",
                                         "--format", "json"]))
            for concept in CONCEPTS]
    rng = random.Random(43)
    for spec in metamorphic_specs(44):
        owner = rng.randrange(len(spec.agents))
        agent = spec.agents[owner]
        always = Rule(f"{agent.id}_always", TRUE, TRUE)
        priority, ranks = agent.priority, agent.priority.ranks
        if ranks is not None:
            priority = PriorityOrder.ranked(
                {**ranks, always.id: min(ranks.values(), default=1) - 1})
        twin = replace(spec, agents=tuple(
            replace(a, desires=a.desires + (always,), priority=priority)
            if k == owner else a for k, a in enumerate(spec.agents)))
        assert validate_spec(twin) == []
        assert_same_reports(spec, twin, runs, capsys)


def test_a_belief_concluding_a_fact_leaves_the_json_reports_byte_identical(
        capsys):
    # A belief ``phi => f`` whose consequent is one of its agent's facts
    # adds no formula when it fires: ``f`` is in the agent's base already.
    # It gets no row in ``AgentSystemSpec.compiled`` and ``f``'s atoms are
    # constrained already, so ``mask_atoms`` stays as it was too.
    runs = json_runs()
    rng = random.Random(45)
    compared = 0
    for k, spec in enumerate(metamorphic_specs(46, max_agents=3)):
        holders = [i for i, a in enumerate(spec.agents) if a.facts]
        if not holders:
            continue
        owner = rng.choice(holders)
        agent = spec.agents[owner]
        belief = Rule(f"{agent.id}_known",
                      random_formula(rng, tuple(spec.vocabulary)),
                      rng.choice(agent.facts))
        twin = replace(spec, agents=tuple(
            replace(a, beliefs=a.beliefs + (belief,)) if i == owner else a
            for i, a in enumerate(spec.agents)))
        assert validate_spec(twin) == []
        assert twin.mask_atoms == spec.mask_atoms
        assert_same_reports(spec, twin, runs[k % len(runs)], capsys)
        compared += 1
    assert compared >= 300


def solution_decisions(game, concept, fail):
    """A concept's solution, each profile read as the set of its agents'
    decisions, whatever order the agents come in."""
    solution = solve(game, concept, fail_infeasible_swaps=fail)
    return {frozenset(game.profile(i).decisions)
            for i in solution.profile_indexes}


def test_permuting_the_agents_changes_no_solution_and_no_goal_set():
    # The concepts quantify over every agent and the goal sets pool every
    # agent's desires, so neither reads the order the agents are listed in.
    rng = random.Random(47)
    permuted = 0
    for spec in metamorphic_specs(48, max_agents=3):
        if len(spec.agents) < 2:
            continue
        agents = tuple(rng.sample(spec.agents, len(spec.agents)))
        if agents == spec.agents:
            agents = agents[::-1]
        game, twin = derive_game(spec), derive_game(replace(spec,
                                                            agents=agents))
        for concept in CONCEPTS:
            for fail in (False, True):
                assert solution_decisions(twin, concept, fail) == \
                    solution_decisions(game, concept, fail), \
                    (concept, fail, format_spec(spec))
        assert set(twin.goal_sets) == set(game.goal_sets)
        permuted += 1
    assert permuted >= 300


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
