"""Seeded differential test of the solution concepts and goal sets.

The reference bodies below are the brute-force definitions: one loop per
concept, and goal sets decided by entailment on the joint extension.  The
library computes the three exclusion concepts through one shared loop and
reads goal sets off the desire reports; both must agree with these
references on every index, every witness and every goal set.
"""

import random

from bdgame.errors import CombinatorialBoundError
from bdgame.game import (FAIL, SKIP, ExclusionWitness, derive_game, dominant,
                         nash, pareto, strongly_pareto)
from bdgame.goals import GoalSet, goal_set_of
from bdgame.logic import And, entails
from bdgame.verify import random_spec

SMALL_SPECS = 450
LARGE_SPECS = 600  # up to 3 agents x 4 decision atoms each
LARGE_PROFILE_CAP = 32  # candidate profiles; the reference loops are O(P^2)


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
            expected = ref_goal_set(spec, ep.extension)
            assert goal_set_of(spec, ep.profile, game=game) == expected
            assert goal_set_of(spec, ep.profile) == expected
    assert specs >= 500
    assert three_agent_specs >= 25 and widest == 4
    assert profiles >= 6_000
