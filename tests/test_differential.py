"""Seeded differential test of profile evaluation, solution concepts and
goal sets.

The reference bodies below are the brute-force definitions: extensions
computed over the whole vocabulary, the joint extension rebuilt from
scratch for each profile, desire reports and goal sets decided by
entailment on it, and one loop over profiles per concept.  The library
answers extension and desire queries on masks over the world atoms with
the decision literals substituted, shares each agent extension between
profiles, solves the three exclusion concepts on indistinguishability
classes through one shared loop, and reads goal sets off the desire
reports; all of it must agree with these references on every extension,
report, index, witness and goal set.
"""

import random
from collections import Counter
from itertools import product

from bdgame.decision import (AgentDesireStatus, DecisionProfile, DesireReport,
                             agent_extension, enumerate_decisions,
                             joint_extension)
from bdgame.errors import CombinatorialBoundError
from bdgame.extension import extension
from bdgame.game import (FAIL, SKIP, ExclusionWitness, derive_game, dominant,
                         nash, pareto, strongly_pareto)
from bdgame.goals import GoalSet, goal_set_of
from bdgame.logic import And, Not, _atom_pattern, atoms_of, consistent, entails
from bdgame.model import DecisionMode
from bdgame.verify import random_spec

SMALL_SPECS = 450
LARGE_SPECS = 600  # up to 3 agents x 4 decision atoms each
LARGE_PROFILE_CAP = 32  # candidate profiles; the reference loops are O(P^2)
CLASS_SPECS = 5  # games of 128 or more profiles in 16 to P/4 classes
CLASS_PROFILE_CAP = 256
CONDITIONED_SPECS = 150  # each in all three decision modes
CONDITIONED_PROFILE_CAP = 64


def ref_pareto(game):
    agents = game.spec.agent_ids
    included, witnesses = [], {}
    for i in range(len(game.profiles)):
        witness = next(
            (j for j in range(len(game.profiles)) if j != i
             and all(game.strictly_better(j, i, a) for a in agents)),
            None)
        if witness is None:
            included.append(i)
        else:
            witnesses[i] = ExclusionWitness(other=witness)
    return tuple(included), witnesses


def ref_strongly_pareto(game):
    agents = game.spec.agent_ids
    included, witnesses = [], {}
    for i in range(len(game.profiles)):
        witness = next(
            (j for j in range(len(game.profiles)) if j != i
             and all(game.profile_geq(j, i, a) for a in agents)
             and any(game.strictly_better(j, i, a) for a in agents)),
            None)
        if witness is None:
            included.append(i)
        else:
            witnesses[i] = ExclusionWitness(other=witness)
    return tuple(included), witnesses


def ref_dominant(game):
    agents = game.spec.agent_ids
    included, witnesses = [], {}
    for i in range(len(game.profiles)):
        witness = next(
            ((j, a) for j in range(len(game.profiles)) if j != i
             for a in agents if not game.profile_geq(i, j, a)),
            None)
        if witness is None:
            included.append(i)
        else:
            witnesses[i] = ExclusionWitness(agent=witness[1],
                                            other=witness[0])
    return tuple(included), witnesses


def ref_nash(game, infeasible_swaps):
    included, witnesses = [], {}
    for i, candidate in enumerate(game.profiles):
        witness = None
        for agent_id in game.spec.agent_ids:
            current = candidate.profile.decision_for(agent_id)
            for deviation in game.feasible_decisions[agent_id]:
                if deviation == current:
                    continue
                deviated = game.index_of(
                    candidate.profile.with_decision(deviation))
                if deviated is None:
                    if infeasible_swaps == FAIL:
                        witness = ExclusionWitness(agent=agent_id,
                                                   decision=deviation)
                        break
                    continue
                if not game.profile_geq(i, deviated, agent_id):
                    witness = ExclusionWitness(agent=agent_id, other=deviated,
                                               decision=deviation)
                    break
            if witness is not None:
                break
        if witness is None:
            included.append(i)
        else:
            witnesses[i] = witness
    return tuple(included), witnesses


def ref_desire_report(spec, ext):
    theory = ext.formulas
    atoms = spec.vocabulary.names

    def holds(formula):
        return entails(theory, formula, atoms=atoms, max_atoms=spec.max_atoms)

    per_agent = {}
    for agent in spec.agents:
        unreached, reached, violated, inapplicable = set(), set(), set(), set()
        for rule in agent.desires:
            if not holds(rule.antecedent):
                inapplicable.add(rule.id)
            elif holds(rule.consequent):
                reached.add(rule.id)
            else:
                unreached.add(rule.id)
                if holds(Not(rule.consequent)):
                    violated.add(rule.id)
        per_agent[agent.id] = AgentDesireStatus(
            frozenset(unreached), frozenset(reached),
            frozenset(violated), frozenset(inapplicable))
    return DesireReport(per_agent)


def ref_goal_set(spec, ext):
    theory = ext.formulas
    atoms = spec.vocabulary.names
    positive, negative = set(), set()
    for rule in spec.all_desires():
        if entails(theory, And(rule.antecedent, rule.consequent),
                   atoms=atoms, max_atoms=spec.max_atoms):
            positive.add(rule.consequent)
        if not entails(theory, rule.antecedent, atoms=atoms,
                       max_atoms=spec.max_atoms):
            negative.add(rule.antecedent)
    return GoalSet(frozenset(positive), frozenset(negative))


def seeded_games():
    rng = random.Random(20020707)
    for _ in range(SMALL_SPECS):
        spec = random_spec(rng)
        yield spec, derive_game(spec)
    for _ in range(LARGE_SPECS):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=4)
        try:
            yield spec, derive_game(spec, max_profiles=LARGE_PROFILE_CAP)
        except CombinatorialBoundError:
            continue


def test_concepts_and_goal_sets_match_the_definitions():
    specs = three_agent_specs = widest = profiles = 0
    for spec, game in seeded_games():
        specs += 1
        if len(spec.agents) == 3:
            three_agent_specs += 1
            widest = max(widest, *(len(a.decision_atoms) for a in spec.agents))
        profiles += len(game.profiles)
        for solve, reference in ((pareto, ref_pareto),
                                 (strongly_pareto, ref_strongly_pareto),
                                 (dominant, ref_dominant)):
            got = solve(game)
            assert (got.profile_indexes, got.witnesses) == reference(game)
        for policy in (SKIP, FAIL):
            got = nash(game, infeasible_swaps=policy)
            assert (got.profile_indexes, got.witnesses) == \
                ref_nash(game, policy)
        for ep in game.profiles:
            fresh = joint_extension(spec, ep.profile)
            assert ep.extension == fresh
            assert ep.report == ref_desire_report(spec, fresh)
            expected = ref_goal_set(spec, ep.extension)
            assert goal_set_of(spec, ep.profile, game=game) == expected
            assert goal_set_of(spec, ep.profile) == expected
    assert specs >= 500
    assert three_agent_specs >= 25 and widest == 4
    assert profiles >= 6_000


def class_collapsing_games():
    """Seeded games with many profiles and few indistinguishability classes."""
    rng = random.Random(7)
    for _ in range(400):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=4,
                           max_rules=6, world_atoms=("p", "q", "r"))
        try:
            game = derive_game(spec, max_profiles=CLASS_PROFILE_CAP)
        except CombinatorialBoundError:
            continue
        classes = len(game.classes)
        if len(game.profiles) >= 128 and 16 <= classes <= \
                len(game.profiles) // 4:
            yield game


def test_class_level_concepts_match_the_profile_loops():
    games = excluded = 0
    for game in class_collapsing_games():
        games += 1
        for solve, reference in ((pareto, ref_pareto),
                                 (strongly_pareto, ref_strongly_pareto),
                                 (dominant, ref_dominant)):
            got = solve(game)
            assert (got.profile_indexes, got.witnesses) == reference(game)
            excluded += len(got.witnesses)
        if games == CLASS_SPECS:
            break
    assert games == CLASS_SPECS
    assert excluded >= 1_500


def division_pattern(i, n):
    """Atom i's truth table over n atoms, as one big-integer division."""
    half = 1 << i
    block = ((1 << half) - 1) << half
    return block * (((1 << (1 << n)) - 1) // ((1 << (half << 1)) - 1))


def test_atom_patterns_match_the_division_formula():
    for n in range(1, 17):
        for i in range(n):
            assert _atom_pattern.__wrapped__(i, n) == division_pattern(i, n)


def test_conditioned_route_matches_the_full_vocabulary():
    """Agent extensions, joint feasibility and desire reports on world masks
    against extensions and entailment over the whole vocabulary, in every
    decision mode."""
    rng = random.Random(20021001)
    seen = Counter()
    for _ in range(CONDITIONED_SPECS):
        drawn = random_spec(rng, max_agents=3, max_decision_atoms=3,
                            max_rules=4)
        owner = drawn.vocabulary.owner
        if any(owner(name) not in (None, rule.owner)
               for rule in drawn.all_beliefs()
               for name in atoms_of(rule.antecedent)):
            seen["foreign belief antecedent"] += 1
        for mode in DecisionMode:
            spec = drawn.with_options(decision_mode=mode)
            vocabulary = spec.vocabulary.names
            candidates = []
            for agent in spec.agents:
                decisions = enumerate_decisions(spec, agent.id)
                candidates.append(decisions)
                for decision in decisions:
                    got = agent_extension(spec, agent.id, decision)
                    assert got == extension(
                        agent.beliefs, frozenset(agent.facts)
                        | decision.formulas(), atoms=vocabulary,
                        max_atoms=spec.max_atoms)
                    seen["agent extensions"] += 1
                    if len(decision.literals) < len(agent.decision_atoms):
                        seen[f"free atoms, {mode.value}"] += 1
            try:
                game = derive_game(spec, max_profiles=CONDITIONED_PROFILE_CAP)
            except CombinatorialBoundError:
                continue
            feasible = {ep.profile for ep in game.profiles}
            for combo in product(*candidates):
                joint = joint_extension(spec, DecisionProfile(combo))
                assert joint.consistent == consistent(
                    joint.formulas, atoms=vocabulary)
                assert joint.consistent == (DecisionProfile(combo) in feasible)
            for ep in game.profiles:
                assert ep.report == ref_desire_report(spec, ep.extension)
                seen[f"desire reports, {mode.value}"] += 1
    assert seen["foreign belief antecedent"] >= 50
    assert seen["agent extensions"] >= 6_000
    for mode in DecisionMode:
        assert seen[f"desire reports, {mode.value}"] >= 800
    for mode in (DecisionMode.POSITIVE_SUBSETS, DecisionMode.LITERAL_SUBSETS):
        assert seen[f"free atoms, {mode.value}"] >= 1_000
