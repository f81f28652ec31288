"""Seeded differential test of profile evaluation, solution concepts and
goal sets.

The reference bodies below are the brute-force definitions: extensions
computed over the whole vocabulary, the joint extension rebuilt from
scratch for each profile, desire reports and goal sets decided by
entailment on it, and one loop over profiles per concept.  The library
answers extension and desire queries on masks over the world atoms that a
fact or belief consequent mentions, with the decision literals substituted
and every other atom quantified, shares each agent extension between
profiles, joins a profile's joint extension from those parts, solves the
three exclusion concepts on indistinguishability classes through per-agent
bitsets over the classes, reads every preference off per-agent tables over
unreached-set ids, finds Nash deviations by mixed-radix index, once per
row and own unreached id, and reads goal sets off the desire reports; all
of it must agree with these references on every extension, report,
index, witness and goal set.
The references compare profiles by ``profile_geq``, which decides by
``set_geq`` on the unreached sets, and find deviations with
``with_decision`` and ``index_of``: none of them reads the tables.  The
game keeps no profile objects; its profiles by index
(``GameSpecification.profile``), its reports and the joint extensions
joined from its parts are held to the definitional object view of
``conftest.evaluated_profiles``, fresh joint extensions and desire
reports of every jointly consistent profile.

The goals layer reads the game's goal-set table and closes families by
class id.  Its reference is the older route: closure by per-agent
unreached-set signatures, goal sets read off a fresh desire report of each
profile, and the representation loops over profiles.  The goals-first
pipeline orders distinct goal sets, one member standing for each; its
reference orders every pair of pool profiles.

The entailment oracles (goal-basedness, rule firing, the fixpoint
certificate and the heuristic check) build each theory's model mask once
and ask every query of it; their references call ``entails`` once per
query, rebuilding the theory each time.
"""

import random
from collections import Counter
from itertools import islice, product
from math import prod

import bdgame.decision
import bdgame.game
from bdgame.decision import (AgentDesireStatus, Decision, DecisionProfile,
                             DesireReport, agent_extension, desire_report,
                             enumerate_decisions, joint_extension)
from bdgame.errors import CombinatorialBoundError
from bdgame.extension import (Extension, applicable_consequents, extension,
                              fixpoint_certificate)
from bdgame.game import (ExclusionWitness, derive_game, dominant, nash,
                         pareto, strongly_pareto)
from bdgame.goals import (GoalSet, RepresentationViolation, _goal_decider,
                          concept_family, delta_goal_sets,
                          feasible_representation_check, fragment_check,
                          goal_set_key, heuristic_goals, is_goal_based,
                          iter_syntactic_goal_sets, pareto_via_goals,
                          representation_check, u_closure)
from bdgame.logic import (And, Not, Var, _atom_pattern, atoms_of, consistent,
                          entails, literal_sort_key)
from bdgame.model import DecisionMode, format_spec
from bdgame.verify import (CheckResult, check_heuristic_fragment,
                           random_formula, random_spec, random_theory)

from conftest import evaluated_profiles

SMALL_SPECS = 450
LARGE_SPECS = 600  # up to 3 agents x 4 decision atoms each
LARGE_PROFILE_CAP = 32  # candidate profiles; the reference loops are O(P^2)
CLASS_SPECS = 5  # games of 128 or more profiles in 16 to P/4 classes
CLASS_PROFILE_CAP = 256
SWAP_DRAWS = 1_500  # keeping the games where a swap breaks feasibility
CONDITIONED_SPECS = 150  # each in all three decision modes
CONDITIONED_PROFILE_CAP = 64
UNCONSTRAINED_SPECS = 400  # each in all three decision modes
GOALS_SPECS = 60
GOALS_PROFILE_CAP = 64
ORACLE_SPECS = 80
FIXPOINT_RULES = 6  # the certificate tries every subset of consequents


def ref_joint_extension(spec, profile):
    """A joint extension by its definition: each agent's extension of its
    facts and decision over the whole vocabulary, the union of their
    formula sets, the largest round count, and consistency decided on the
    union over the whole vocabulary.  Its ``models`` is left unset: the
    library's ranges over a narrower universe."""
    vocabulary = tuple(spec.vocabulary)
    parts = [extension(agent.beliefs, frozenset(agent.facts)
                       | profile.decision_for(agent.id).formulas(),
                       atoms=vocabulary, max_atoms=spec.max_atoms)
             for agent in spec.agents]
    base = frozenset().union(*(ext.base for ext in parts))
    derived = frozenset().union(*(ext.derived for ext in parts)) - base
    return Extension(base, derived,
                     max((ext.iterations for ext in parts), default=0),
                     consistent(base | derived, atoms=vocabulary,
                                max_atoms=spec.max_atoms))


def assert_joint_extension_matches_the_definition(spec, ext, profile):
    ref = ref_joint_extension(spec, profile)
    assert (ext.base, ext.derived, ext.iterations, ext.consistent) == \
        (ref.base, ref.derived, ref.iterations, ref.consistent)


def assert_game_extensions_match_the_definition(game):
    """The joint extension of each feasible profile joined from the game's
    parts, as the product pass joins it, against its definition."""
    for i in range(len(game.positions)):
        profile = game.profile(i)
        parts = tuple(game.feasible_decisions[d.agent][d]
                      for d in profile.decisions)
        assert_joint_extension_matches_the_definition(
            game.spec, joint_extension(game.spec, profile, parts), profile)
    return len(game.positions)


def ref_pareto(game):
    agents = game.spec.agent_ids
    column = []
    for i in range(len(game.positions)):
        witness = next(
            (j for j in range(len(game.positions)) if j != i
             and all(game.strictly_better(j, i, a) for a in agents)),
            None)
        column.append(None if witness is None
                      else ExclusionWitness(other=witness))
    return tuple(column)


def ref_strongly_pareto(game):
    agents = game.spec.agent_ids
    column = []
    for i in range(len(game.positions)):
        witness = next(
            (j for j in range(len(game.positions)) if j != i
             and all(game.profile_geq(j, i, a) for a in agents)
             and any(game.strictly_better(j, i, a) for a in agents)),
            None)
        column.append(None if witness is None
                      else ExclusionWitness(other=witness))
    return tuple(column)


def ref_dominant(game):
    agents = game.spec.agent_ids
    column = []
    for i in range(len(game.positions)):
        witness = next(
            ((j, a) for j in range(len(game.positions)) if j != i
             for a in agents if not game.profile_geq(i, j, a)),
            None)
        column.append(None if witness is None else ExclusionWitness(
            agent=witness[1], other=witness[0]))
    return tuple(column)


def ref_nash(game, fail_infeasible_swaps):
    column = []
    for i, candidate in enumerate(evaluated_profiles(game.spec)):
        witness = None
        for agent_id in game.spec.agent_ids:
            current = candidate.profile.decision_for(agent_id)
            for deviation in game.feasible_decisions[agent_id]:
                if deviation == current:
                    continue
                deviated = game.index_of(
                    candidate.profile.with_decision(deviation))
                if deviated is None:
                    if fail_infeasible_swaps:
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
        column.append(witness)
    return tuple(column)


def assert_column_matches(got, column):
    """A solution is the reference column, one entry per feasible profile,
    and its indexes are where that column holds None."""
    assert got.witness == column
    assert got.profile_indexes == tuple(
        i for i, w in enumerate(column) if w is None)


def ref_desire_report(spec, ext):
    theory = ext.formulas
    atoms = tuple(spec.vocabulary)

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
    atoms = tuple(spec.vocabulary)
    positive, negative = set(), set()
    for rule in spec.all_desires():
        if entails(theory, And(rule.antecedent, rule.consequent),
                   atoms=atoms, max_atoms=spec.max_atoms):
            positive.add(rule.consequent)
        if not entails(theory, rule.antecedent, atoms=atoms,
                       max_atoms=spec.max_atoms):
            negative.add(rule.antecedent)
    return GoalSet(frozenset(positive), frozenset(negative))


def ref_pareto_via_goals(game):
    """The goals-first pool and family by the profile-pair loop: a pool
    profile is kept unless another pool profile strictly improves on it
    for every agent, and the kept ones are closed."""
    feasible_goal_sets = sorted(set(game.goal_sets), key=goal_set_key)
    feasible = evaluated_profiles(game.spec)
    pool = tuple(
        i for i in range(len(feasible))
        if any(is_goal_based(game, i, gs)
               for gs in (game.goal_sets[i], *feasible_goal_sets)))
    agents = game.spec.agent_ids
    best = [i for i in pool
            if not any(all(game.strictly_better(j, i, a) for a in agents)
                       for j in pool if j != i)]
    return pool, u_closure(game, best)


def assert_goals_first_matches_the_pair_loop(game):
    """Returns how many of the game's goal sets have several generators."""
    got = pareto_via_goals(game)
    assert (got.pool, got.pareto_family) == ref_pareto_via_goals(game)
    return sum(n >= 2 for n in Counter(game.goal_sets).values())


def seeded_games():
    rng = random.Random(20020707)
    for _ in range(SMALL_SPECS):
        spec = random_spec(rng)
        yield spec, derive_game(spec)
    for _ in range(LARGE_SPECS):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=4)
        try:
            yield spec, derive_game(
                spec.with_options(max_profiles=LARGE_PROFILE_CAP))
        except CombinatorialBoundError:
            continue


def test_concepts_and_goal_sets_match_the_definitions():
    specs = three_agent_specs = widest = profiles = shared_goal_sets = 0
    for spec, game in seeded_games():
        specs += 1
        shared_goal_sets += assert_goals_first_matches_the_pair_loop(game)
        if len(spec.agents) == 3:
            three_agent_specs += 1
            widest = max(widest, *(len(a.decision_atoms) for a in spec.agents))
        feasible = evaluated_profiles(game.spec)
        profiles += len(feasible)
        for solve, reference in ((pareto, ref_pareto),
                                 (strongly_pareto, ref_strongly_pareto),
                                 (dominant, ref_dominant)):
            assert_column_matches(solve(game), reference(game))
        for fail in (False, True):
            assert_column_matches(nash(game, fail_infeasible_swaps=fail),
                                  ref_nash(game, fail))
        # The columns agree with the reference view, and every candidate's
        # feasible index points back at its position.
        assert [ep.report for ep in feasible] == list(game.reports)
        assert [i for i in game.candidates if i >= 0] == \
            list(range(len(feasible)))
        assert [game.candidates[c] for c in game.positions] == \
            list(range(len(feasible)))
        for chosen, i in zip(product(*map(
                tuple, game.feasible_decisions.values())), game.candidates):
            assert game.index_of(DecisionProfile(chosen)) == \
                (i if i >= 0 else None)
        for i, ep in enumerate(feasible):
            assert game.profile(i) == ep.profile
            parts = tuple(game.feasible_decisions[d.agent][d]
                          for d in ep.profile.decisions)
            assert joint_extension(spec, ep.profile, parts) == ep.extension
            assert game.reports[i] == ref_desire_report(spec, ep.extension)
            expected = ref_goal_set(spec, ep.extension)
            assert game.goal_sets[i] == expected
    assert specs >= 500
    assert three_agent_specs >= 25 and widest == 4
    assert profiles >= 6_000
    assert shared_goal_sets >= 1_000


def class_collapsing_games():
    """Seeded games with many profiles and few indistinguishability classes."""
    rng = random.Random(7)
    for _ in range(400):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=4,
                           max_rules=6, world_atoms=("p", "q", "r"))
        try:
            game = derive_game(
                spec.with_options(max_profiles=CLASS_PROFILE_CAP))
        except CombinatorialBoundError:
            continue
        classes = len(game.classes)
        if len(game.positions) >= 128 and 16 <= classes <= \
                len(game.positions) // 4:
            yield game


def test_class_level_concepts_match_the_profile_loops():
    games = excluded = shared_goal_sets = 0
    for game in class_collapsing_games():
        games += 1
        shared_goal_sets += assert_goals_first_matches_the_pair_loop(game)
        for solve, reference in ((pareto, ref_pareto),
                                 (strongly_pareto, ref_strongly_pareto),
                                 (dominant, ref_dominant)):
            got = solve(game)
            assert_column_matches(got, reference(game))
            excluded += sum(w is not None for w in got.witness)
        for fail in (False, True):
            assert_column_matches(nash(game, fail_infeasible_swaps=fail),
                                  ref_nash(game, fail))
        assert_game_extensions_match_the_definition(game)
        if games == CLASS_SPECS:
            break
    assert games == CLASS_SPECS
    assert excluded >= 1_500
    assert shared_goal_sets >= 200


def test_desire_statuses_are_classified_once_per_distinct_input(
        monkeypatch):
    """An agent's desire status reads the joint world mask and the
    profile's values on the decision atoms of the agent's desire rules, and
    nothing else: within one game it is classified once per distinct
    (agent, joint mask, values) and shared by the profiles that agree."""
    calls = Counter()
    classify = bdgame.decision._classify

    def counting(*args):
        calls["all"] += 1
        return classify(*args)
    for module in (bdgame.decision, bdgame.game):
        monkeypatch.setattr(module, "_classify", counting)
    games = shared = 0
    for game in class_collapsing_games():
        spec = game.spec
        world = set(spec.world_atoms)
        atoms = {a.id: set().union(*(
            (atoms_of(r.antecedent) | atoms_of(r.consequent)) - world
            for r in a.desires)) for a in spec.agents}
        triples = {}
        feasible = evaluated_profiles(spec)
        calls.clear()
        fresh = derive_game(spec.with_options(max_profiles=CLASS_PROFILE_CAP))
        assert len(fresh.reports) == len(feasible)
        for ep, report in zip(feasible, fresh.reports):
            mask = ep.extension.models
            values = {lit.atom: lit.positive
                      for d in ep.profile.decisions for lit in d.literals}
            for a in spec.agent_ids:
                triple = (a, mask, frozenset((x, values.get(x))
                                             for x in atoms[a]))
                status = report.per_agent[a]
                assert triples.setdefault(triple, status) is status
        assert calls["all"] == len(triples)
        shared += len(game.positions) * len(spec.agents) - len(triples)
        games += 1
        if games == CLASS_SPECS:
            break
    assert games == CLASS_SPECS
    assert shared >= 1_000


def swap_breaking_games():
    """Seeded 2- and 3-agent games with fewer feasible profiles than the
    product of the agents' feasible decisions: some unilateral swap leaves
    the feasible set.  The agents' decision counts mostly differ, so do the
    strides of their digits in the candidate index."""
    rng = random.Random(31337)
    for _ in range(SWAP_DRAWS):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=3,
                           max_rules=4, world_atoms=("p",))
        game = derive_game(spec)
        candidates = prod(map(len, game.feasible_decisions.values()))
        if 0 < len(game.positions) < candidates:
            yield game


def test_nash_matches_the_profile_loop_where_swaps_break_feasibility():
    games = three_agent = unequal = decision_only = 0
    for game in swap_breaking_games():
        games += 1
        three_agent += len(game.spec.agents) == 3
        unequal += len(set(map(len, game.feasible_decisions.values()))) > 1
        for fail in (False, True):
            got = nash(game, fail_infeasible_swaps=fail)
            assert_column_matches(got, ref_nash(game, fail))
        decision_only += sum(w is not None and w.other is None
                             for w in got.witness)
    assert games >= 25 and three_agent >= 15 and unequal >= 25
    assert decision_only >= 600


def division_pattern(i, n):
    """Atom i's truth table over n atoms, as one big-integer division."""
    half = 1 << i
    block = ((1 << half) - 1) << half
    return block * (((1 << (1 << n)) - 1) // ((1 << (half << 1)) - 1))


def test_atom_patterns_match_the_division_formula():
    for n in range(1, 17):
        for i in range(n):
            assert _atom_pattern(i, n) == division_pattern(i, n)


def test_conditioned_route_matches_the_full_vocabulary():
    """Agent extensions, joint feasibility and desire reports on world masks
    against extensions and entailment over the whole vocabulary, in every
    decision mode; joint extensions against their definition, the union
    of the agents' extensions over the whole vocabulary."""
    rng = random.Random(20021001)
    seen = Counter()
    for _ in range(CONDITIONED_SPECS):
        drawn = random_spec(rng, max_agents=3, max_decision_atoms=3,
                            max_rules=4)
        owners = drawn.vocabulary
        if any(owners[name] not in (None, rule.owner)
               for rule in drawn.all_beliefs()
               for name in atoms_of(rule.antecedent)):
            seen["foreign belief antecedent"] += 1
        for mode in DecisionMode:
            spec = drawn.with_options(decision_mode=mode)
            vocabulary = tuple(spec.vocabulary)
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
                game = derive_game(
                    spec.with_options(max_profiles=CONDITIONED_PROFILE_CAP))
            except CombinatorialBoundError:
                continue
            feasible = {game.profile(i) for i in range(len(game.positions))}
            for combo in product(*candidates):
                profile = DecisionProfile(combo)
                joint = joint_extension(spec, profile)
                assert_joint_extension_matches_the_definition(
                    spec, joint, profile)
                seen["joint extensions"] += 1
                assert joint.consistent == (profile in feasible)
            seen["game extensions"] += \
                assert_game_extensions_match_the_definition(game)
            for ep, report in zip(evaluated_profiles(game.spec),
                                  game.reports):
                assert report == ref_desire_report(spec, ep.extension)
                seen[f"desire reports, {mode.value}"] += 1
    assert seen["foreign belief antecedent"] >= 50
    assert seen["agent extensions"] >= 6_000
    assert seen["joint extensions"] >= 7_000
    assert seen["game extensions"] >= 5_000
    assert seen["contradictory decisions"] >= 1_000
    for mode in DecisionMode:
        assert seen[f"desire reports, {mode.value}"] >= 800
    for mode in (DecisionMode.POSITIVE_SUBSETS, DecisionMode.LITERAL_SUBSETS):
        assert seen[f"free atoms, {mode.value}"] >= 1_000


def test_world_atoms_no_theory_constrains_are_quantified():
    """The mask universe holds the world atoms that some fact or belief
    consequent mentions; a world atom met only in desires or belief
    antecedents is quantified like a free decision atom.  Agent extensions
    and desire reports against extensions and entailment over the whole
    vocabulary, in every decision mode."""
    rng = random.Random(20021121)
    seen = Counter()
    for _ in range(UNCONSTRAINED_SPECS):
        drawn = random_spec(rng, max_agents=2, max_decision_atoms=2,
                            max_rules=6, world_atoms=("p", "q", "r", "s"))
        constrained = set().union(*map(atoms_of, [
            *(f for a in drawn.agents for f in a.facts),
            *(r.consequent for r in drawn.all_beliefs())]))
        assert drawn.mask_atoms == tuple(
            a for a in drawn.world_atoms if a in constrained)
        outside = set(drawn.world_atoms) - constrained
        seen["world atoms outside the universe"] += len(outside)
        seen["in belief antecedents"] += sum(
            bool(atoms_of(r.antecedent) & outside)
            for r in drawn.all_beliefs())
        quantified = [r for r in drawn.all_desires() if outside & (
            atoms_of(r.antecedent) | atoms_of(r.consequent))]
        seen["in desires"] += len(quantified)
        for mode in DecisionMode:
            spec = drawn.with_options(decision_mode=mode)
            vocabulary = tuple(spec.vocabulary)
            for agent in spec.agents:
                for decision in enumerate_decisions(spec, agent.id):
                    got = agent_extension(spec, agent.id, decision)
                    assert got == extension(
                        agent.beliefs, frozenset(agent.facts)
                        | decision.formulas(), atoms=vocabulary,
                        max_atoms=spec.max_atoms)
                    assert got.models >> (1 << len(spec.mask_atoms)) == 0
                    seen["agent extensions"] += 1
            try:
                game = derive_game(
                    spec.with_options(max_profiles=CONDITIONED_PROFILE_CAP))
            except CombinatorialBoundError:
                continue
            for ep, report in zip(evaluated_profiles(game.spec),
                                  game.reports):
                expected = ref_desire_report(spec, ep.extension)
                assert report == expected
                assert desire_report(spec, ep.profile) == expected
                for rule in quantified:
                    status = expected.per_agent[rule.owner]
                    for outcome in ("reached", "violated", "unreached"):
                        seen[outcome] += rule.id in getattr(status, outcome)
                seen[f"desire reports, {mode.value}"] += 1
    assert seen["world atoms outside the universe"] >= 500
    assert seen["in belief antecedents"] >= 100
    assert seen["in desires"] >= 250
    assert seen["agent extensions"] >= 6_000
    for mode in DecisionMode:
        assert seen[f"desire reports, {mode.value}"] >= 1_500
    for outcome in ("reached", "violated", "unreached"):
        assert seen[outcome] >= 100, (outcome, seen)


class RefGoals:
    """The goals layer as it was: closure by unreached-set signatures, goal
    sets read off a fresh desire report of each profile, goal-basedness by
    entailment on a fresh joint extension, and the representation loops
    over profiles.  Signatures and goal sets are built once per profile."""

    def __init__(self, spec, game):
        self.spec, self.game = spec, game
        self.ext, self.signature, self.goal_set = {}, {}, {}
        self.feasible = []
        for ep in evaluated_profiles(game.spec):
            report = ep.report
            self.feasible.append(ep.profile)
            self.ext[ep.profile] = ep.extension
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
        atoms = tuple(self.spec.vocabulary)

        def holds(goal):
            return entails(theory, goal, atoms=atoms,
                           max_atoms=self.spec.max_atoms)
        return (all(map(holds, goals.positive))
                and not any(map(holds, goals.negative)))

    def closure(self, members):
        wanted = {self.signature[p] for p in members}
        return tuple(p for p in self.feasible if self.signature[p] in wanted)

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
        for p in self.feasible:
            if p in members:
                continue
            gs = self.goal_set[p]
            if gs in goal_sets:
                violations.append(RepresentationViolation(
                    "goal-based-outside-family", p, gs,
                    f"{p} generates the family goal set {gs} but "
                    f"is missing from the family"))
        return tuple(violations)

    def feasible_representation(self):
        classes = {}
        for p in self.feasible:
            classes.setdefault(self.signature[p], []).append(p)
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
    tables against the signature route, on closed families and on drawn
    families that are often not closed, so that direction (b) fires."""
    rng = random.Random(20021018)
    seen = Counter()
    while seen["games"] < GOALS_SPECS:
        spec = random_spec(rng, max_agents=3, max_decision_atoms=3,
                           max_rules=4)
        try:
            game = derive_game(
                spec.with_options(max_profiles=GOALS_PROFILE_CAP))
        except CombinatorialBoundError:
            continue
        if not game.positions:
            continue
        seen["games"] += 1
        ref = RefGoals(spec, game)
        feasible = ref.feasible
        indexes = range(len(feasible))

        def members(family):
            return tuple(feasible[i] for i in family)
        drawn = [rng.sample(indexes, rng.randint(1, len(feasible)))
                 for _ in range(4)]
        families = [tuple(subset) for subset in drawn]  # often not closed
        for subset in [[i] for i in indexes] + [indexes] + drawn:
            closed = u_closure(game, subset)
            assert members(closed) == \
                ref.closure([feasible[i] for i in subset])
            assert delta_goal_sets(game, closed) == \
                ref.goal_sets(members(closed))
            families.append(closed)
        for family in families:
            got = representation_check(game, family)
            expected = ref.representation(members(family))
            assert got.violations == expected
            assert got.passed == (not expected)
            seen["families"] += 1
            seen["outside the family"] += len(expected)
        assert feasible_representation_check(game).violations \
            == ref.feasible_representation()
        everything = concept_family(game, "all")
        assert members(everything) == tuple(feasible)
        seen["last profile alone in its class"] += \
            ref.closure(feasible[-1:]) == tuple(feasible[-1:])
        for members in game.classes:
            if len({ref.goal_set[feasible[i]] for i in members}) > 1:
                seen["classes with several goal sets"] += 1
    assert seen["families"] >= 1_500
    assert seen["outside the family"] >= 1_000
    assert seen["classes with several goal sets"] >= 25
    assert seen["last profile alone in its class"] >= 3


# ---------------------------------------------------------------------------
# Entailment oracles: one theory mask per theory against one entails per query
# ---------------------------------------------------------------------------

def ref_goal_based(spec, ext, goals):
    theory = ext.formulas
    atoms = tuple(spec.vocabulary)
    return (all(entails(theory, g, atoms=atoms, max_atoms=spec.max_atoms)
                for g in goals.positive)
            and not any(entails(theory, g, atoms=atoms,
                                max_atoms=spec.max_atoms)
                        for g in goals.negative))


def ref_applicable_consequents(rules, theory, atoms=None):
    theory, rules = tuple(theory), tuple(rules)
    if atoms is None:
        names = set()
        for f in theory:
            names |= atoms_of(f)
        for r in rules:
            names |= atoms_of(r.antecedent) | atoms_of(r.consequent)
        atoms = sorted(names)
    return frozenset(r.consequent for r in rules
                     if entails(theory, r.antecedent, atoms=atoms))


def ref_fixpoint_certificate(rules, base, claimed, atoms):
    base, claimed = frozenset(base), frozenset(claimed)
    if not base <= claimed:
        return False
    consequents = tuple({r.consequent for r in rules} - base)
    least = None
    for chosen in product((False, True), repeat=len(consequents)):
        candidate = base | {c for c, keep in zip(consequents, chosen) if keep}
        if ref_applicable_consequents(rules, candidate, atoms) <= candidate:
            least = candidate if least is None else least & candidate
    return claimed == least


def ref_check_heuristic_fragment(seed, samples):
    rng = random.Random(seed)
    examined = contained = misses = draws = 0
    first_miss = None
    while examined < samples and draws < samples * 50:
        draws += 1
        spec = random_spec(rng, max_rules=3)
        if not fragment_check(spec):
            continue
        examined += 1
        pool = heuristic_goals(spec)
        ok = True
        for gs in derive_game(spec).goal_sets:
            for goal in gs.positive:
                if not entails(pool, goal, atoms=tuple(spec.vocabulary),
                               max_atoms=spec.max_atoms):
                    ok = False
                    if first_miss is None:
                        first_miss = {"spec": format_spec(spec),
                                      "goal": str(goal)}
        contained += ok
        misses += not ok
    return CheckResult(
        "heuristic-fragment", True, examined,
        f"contained on {contained}/{examined} fragment specs, "
        f"misses on {misses}", first_miss)


def test_goal_basedness_matches_one_entailment_per_goal():
    """Every feasible profile against its game's goal sets, some syntactic
    goal sets and random ones over the vocabulary; and the goals-first
    pool, which is built from the same check.  In each decision mode, one
    shared decider is also asked every pair in shuffled profile order, so
    that a prefix of masks kept from the wrong profile shows."""
    rng = random.Random(20021101)
    seen = Counter()
    while seen["specs"] < ORACLE_SPECS:
        spec = random_spec(rng, max_agents=3, max_decision_atoms=3,
                           max_rules=4)
        vocabulary = tuple(spec.vocabulary)
        drawn = [GoalSet(random_theory(rng, vocabulary, rng.randint(0, 2)),
                         random_theory(rng, vocabulary, rng.randint(0, 2)))
                 for _ in range(6)]
        games = 0
        for mode in DecisionMode:
            try:
                game = derive_game(spec.with_options(
                    decision_mode=mode, max_profiles=GOALS_PROFILE_CAP))
            except CombinatorialBoundError:
                continue
            if not game.positions:
                continue
            seen[mode] += 1
            games += 1
            feasible = evaluated_profiles(game.spec)
            goal_sets = (set(game.goal_sets) | set(drawn)
                         | set(islice(iter_syntactic_goal_sets(spec), 8)))
            expected = {}
            for i, ep in enumerate(feasible):
                for gs in goal_sets:
                    expected[i, gs] = ref_goal_based(spec, ep.extension, gs)
                    assert is_goal_based(game, i, gs) == expected[i, gs]
                    seen[expected[i, gs]] += 1
            asked = sorted(expected, key=lambda pair: (pair[0],
                                                       str(pair[1])))
            rng.shuffle(asked)
            decide = _goal_decider(game)
            for i, gs in asked:
                assert decide(i, gs) == expected[i, gs], (i, gs)
            assert pareto_via_goals(game).pool == tuple(
                i for i in range(len(feasible))
                if any(expected[i, gs]
                       for gs in (game.goal_sets[i], *game.goal_sets)))
        seen["specs"] += games > 0
    assert seen[True] >= 2_000 and seen[False] >= 8_000
    assert all(seen[mode] >= ORACLE_SPECS // 4 for mode in DecisionMode)


def test_rule_firing_and_certificates_match_one_entailment_per_rule():
    """Rule firing on random theories, inconsistent ones included, over the
    rules' own atoms and over the vocabulary; the fixpoint certificate of
    each extension and of a perturbed claim."""
    rng = random.Random(20021102)
    seen = Counter()
    for _ in range(ORACLE_SPECS):
        spec = random_spec(rng, max_agents=2, max_decision_atoms=2,
                           max_rules=3)
        vocabulary = tuple(spec.vocabulary)
        rules = (spec.all_beliefs() + spec.all_desires())[:FIXPOINT_RULES]
        for _ in range(10):
            theory = set(random_theory(rng, vocabulary, rng.randint(0, 4)))
            if rng.random() < 0.25:
                atom = Var(rng.choice(vocabulary))
                theory |= {atom, Not(atom)}
            for atoms in (None, vocabulary):
                expected = ref_applicable_consequents(rules, theory, atoms)
                assert applicable_consequents(rules, theory,
                                              atoms=atoms) == expected
                seen["fired"] += len(expected)
                seen["not fired"] += len(rules) - len(expected)
        base = random_theory(rng, vocabulary, rng.randint(0, 2))
        claimed = extension(rules, base, atoms=vocabulary).formulas
        extra = random_formula(rng, vocabulary)
        for claim in (claimed, claimed | {extra}, claimed - {extra}, base):
            expected = ref_fixpoint_certificate(rules, base, claim, vocabulary)
            assert fixpoint_certificate(rules, base, claim,
                                        atoms=vocabulary) == expected
            seen[f"certificate {expected}"] += 1
    assert seen["fired"] >= 1_000 and seen["not fired"] >= 1_000
    assert seen["certificate True"] >= ORACLE_SPECS
    assert seen["certificate False"] >= ORACLE_SPECS // 2


def test_heuristic_check_matches_one_entailment_per_goal():
    for seed in (0, 55):
        expected = ref_check_heuristic_fragment(seed, samples=60)
        assert check_heuristic_fragment(seed=seed, samples=60) == expected
    assert expected.counterexample is not None  # some goal is missed
