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

The goals layer reads the game's goal-set table and closes families by
class id.  Its reference is the older route: closure by per-agent
unreached-set signatures, goal sets read off a fresh desire report of each
profile, and the representation loops over profiles.
"""

import random
from collections import Counter
from itertools import product

from bdgame.decision import (AgentDesireStatus, Decision, DecisionProfile,
                             DesireReport, agent_extension, desire_report,
                             enumerate_decisions, joint_extension)
from bdgame.errors import CombinatorialBoundError
from bdgame.extension import extension
from bdgame.game import (FAIL, SKIP, ExclusionWitness, derive_game, dominant,
                         nash, pareto, strongly_pareto)
from bdgame.goals import (GoalSet, ProfileFamily, RepresentationViolation,
                          delta_goal_sets, feasible_representation_check,
                          goal_set_key, goal_set_of, representation_check,
                          u_closure)
from bdgame.logic import (And, Not, _atom_pattern, atoms_of, consistent,
                          entails, literal_sort_key)
from bdgame.model import DecisionMode
from bdgame.verify import random_spec

SMALL_SPECS = 450
LARGE_SPECS = 600  # up to 3 agents x 4 decision atoms each
LARGE_PROFILE_CAP = 32  # candidate profiles; the reference loops are O(P^2)
CLASS_SPECS = 5  # games of 128 or more profiles in 16 to P/4 classes
CLASS_PROFILE_CAP = 256
CONDITIONED_SPECS = 150  # each in all three decision modes
CONDITIONED_PROFILE_CAP = 64
GOALS_SPECS = 60
GOALS_PROFILE_CAP = 64


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
                # Both polarities of an atom: no model, every belief fires.
                widest = max(decisions, key=lambda d: len(d.literals))
                for lit in sorted(widest.literals, key=literal_sort_key):
                    clash = Decision(agent.id,
                                     widest.literals | {lit.negated()})
                    got = agent_extension(spec, agent.id, clash)
                    assert got == extension(
                        agent.beliefs, frozenset(agent.facts)
                        | clash.formulas(), atoms=vocabulary,
                        max_atoms=spec.max_atoms)
                    assert not got.consistent
                    seen["contradictory decisions"] += 1
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
    assert seen["contradictory decisions"] >= 1_000
    for mode in DecisionMode:
        assert seen[f"desire reports, {mode.value}"] >= 800
    for mode in (DecisionMode.POSITIVE_SUBSETS, DecisionMode.LITERAL_SUBSETS):
        assert seen[f"free atoms, {mode.value}"] >= 1_000


class RefGoals:
    """The goals layer as it was: closure by unreached-set signatures, goal
    sets read off a fresh desire report of each profile, goal-basedness by
    entailment on a fresh joint extension, and the representation loops
    over profiles.  Signatures and goal sets are built once per profile."""

    def __init__(self, spec, game):
        self.spec, self.game = spec, game
        self.ext, self.signature, self.goal_set = {}, {}, {}
        for ep in game.profiles:
            ext = joint_extension(spec, ep.profile)
            report = desire_report(spec, ep.profile, ext)
            self.ext[ep.profile] = ext
            self.signature[ep.profile] = tuple(
                (a.id, tuple(sorted(report.unreached(a.id))))
                for a in spec.agents)
            positive, negative = set(), set()
            for agent in spec.agents:
                status = report.per_agent[agent.id]
                for rule in agent.desires:
                    if rule.id in status.reached:
                        positive.add(rule.consequent)
                    elif rule.id in status.inapplicable:
                        negative.add(rule.antecedent)
            self.goal_set[ep.profile] = GoalSet(frozenset(positive),
                                                frozenset(negative))

    def goal_based(self, profile, goals):
        theory = self.ext[profile].formulas
        atoms = self.spec.vocabulary.names

        def holds(goal):
            return entails(theory, goal, atoms=atoms,
                           max_atoms=self.spec.max_atoms)
        return (all(map(holds, goals.positive))
                and not any(map(holds, goals.negative)))

    def closure(self, members):
        wanted = {self.signature[p] for p in members}
        return tuple(ep.profile for ep in self.game.profiles
                     if self.signature[ep.profile] in wanted)

    def goal_sets(self, profiles):
        seen = dict.fromkeys(self.goal_set[p] for p in profiles)
        return tuple(sorted(seen, key=goal_set_key))

    def representation(self, profiles):
        violations = []
        for p in profiles:
            gs = self.goal_set[p]
            if not self.goal_based(p, gs):
                violations.append(RepresentationViolation(
                    "member-without-goal-set", p, gs,
                    f"{p} is not goal-based for its own goal set {gs}"))
        goal_sets, members = set(self.goal_sets(profiles)), set(profiles)
        for ep in self.game.profiles:
            if ep.profile in members:
                continue
            gs = self.goal_set[ep.profile]
            if gs in goal_sets:
                violations.append(RepresentationViolation(
                    "goal-based-outside-family", ep.profile, gs,
                    f"{ep.profile} generates the family goal set {gs} but "
                    f"is missing from the family"))
        return tuple(violations)

    def feasible_representation(self):
        classes = {}
        for ep in self.game.profiles:
            classes.setdefault(self.signature[ep.profile], []).append(
                ep.profile)
        violations = []
        for members in classes.values():
            goal_sets = self.goal_sets(members)
            for p in members:
                if not any(self.goal_based(p, gs) for gs in goal_sets):
                    violations.append(RepresentationViolation(
                        "member-without-goal-set", p, None,
                        f"{p} is not goal-based for any goal set of its "
                        f"indistinguishability class"))
        return tuple(violations)


def test_goals_layer_matches_the_profile_route():
    """Closures, goal sets and both representation checks on the game's
    tables against the signature route, on closed families and on families
    flagged closed that are not, so that direction (b) fires."""
    rng = random.Random(20021018)
    seen = Counter()
    while seen["games"] < GOALS_SPECS:
        spec = random_spec(rng, max_agents=3, max_decision_atoms=3,
                           max_rules=4)
        try:
            game = derive_game(spec, max_profiles=GOALS_PROFILE_CAP)
        except CombinatorialBoundError:
            continue
        if not game.profiles:
            continue
        seen["games"] += 1
        ref = RefGoals(spec, game)
        feasible = [ep.profile for ep in game.profiles]
        drawn = [rng.sample(feasible, rng.randint(1, len(feasible)))
                 for _ in range(4)]
        families = [ProfileFamily(tuple(subset), u_closed=True)
                    for subset in drawn]  # flagged closed, often not
        for subset in [[p] for p in feasible] + [feasible] + drawn:
            closed = u_closure(spec, subset, game=game)
            assert closed.u_closed
            assert closed.profiles == ref.closure(subset)
            assert delta_goal_sets(spec, closed, game=game) == \
                ref.goal_sets(closed.profiles)
            families.append(closed)
        for family in families:
            got = representation_check(spec, family, game=game)
            expected = ref.representation(family.profiles)
            assert got.violations == expected
            assert got.passed == (not expected)
            seen["families"] += 1
            seen["outside the family"] += len(expected)
        assert feasible_representation_check(spec, game=game).violations \
            == ref.feasible_representation()
        # Called without a game, each derives one; the answers are the same.
        assert u_closure(spec, drawn[0]).profiles == ref.closure(drawn[0])
        assert goal_set_of(spec, feasible[-1]) == ref.goal_set[feasible[-1]]
        for members in game.classes:
            if len({ref.goal_set[feasible[i]] for i in members}) > 1:
                seen["classes with several goal sets"] += 1
    assert seen["families"] >= 1_500
    assert seen["outside the family"] >= 1_000
    assert seen["classes with several goal sets"] >= 25
