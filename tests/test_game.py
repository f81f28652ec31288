import gc
import random
import tracemalloc
from collections import Counter
from itertools import product

import bdgame.decision
import bdgame.game
from bdgame.decision import (Decision, DecisionProfile, agent_extension,
                             desire_report, enumerate_decisions,
                             joint_extension, set_geq)
from bdgame.game import (GameSpecification, derive_game, dominant, nash,
                         pareto, solve, strongly_pareto)
from bdgame.errors import CombinatorialBoundError
from bdgame.logic import Literal
from bdgame.model import DecisionMode, parse_spec
from bdgame.verify import check_game_laws, random_spec

from conftest import evaluated_profiles, four_by_three_spec, profile


def names(game, indexes):
    """The indexed feasible profiles, printed from the reference view."""
    feasible = evaluated_profiles(game.spec)
    return {str(feasible[i].profile) for i in indexes}


def test_derive_game_keeps_only_jointly_feasible(interdependence):
    game = derive_game(interdependence)
    feasible = evaluated_profiles(interdependence)
    profiles = {str(ep.profile) for ep in feasible}
    assert "<alpha1={a}, alpha2={b}>" not in profiles
    assert "<alpha1={}, alpha2={b}>" in profiles
    assert len(game.positions) == len(feasible) == 3
    # every kept profile is componentwise feasible by construction
    for i, ep in enumerate(feasible):
        assert game.profile(i) == ep.profile
        for d in ep.profile.decisions:
            assert d in game.feasible_decisions[d.agent]


def test_derive_game_outcomes(opposed_interests):
    game = derive_game(opposed_interests)
    feasible = evaluated_profiles(opposed_interests)
    assert len(game.positions) == len(feasible) == 4
    world = {"p", "q"}
    outcomes = [
        {s for s in map(str, ep.extension.formulas) if s.lstrip("!") in world}
        for ep in feasible]
    assert outcomes == [{"p", "q"}, {"p", "!q"}, {"!p", "q"}, {"!p", "!q"}]
    assert [ep.report for ep in feasible] == list(game.reports)


def test_desire_free_spec_has_empty_unreached():
    spec = parse_spec('agent x {\n  atoms a\n  belief a => p\n}\nworld p\n')
    game = derive_game(spec)
    assert game.reports
    for report in game.reports:
        assert report.unreached("x") == set()


def test_pareto_prisoners(prisoners):
    game = derive_game(prisoners)
    report = pareto(game)
    assert names(game, report.profile_indexes) == {
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>"}
    assert len(report.witness) == len(game.positions)
    excluded = [i for i, w in enumerate(report.witness) if w is not None]
    assert names(game, excluded) == {"<alpha1={!a}, alpha2={!b}>"}
    witness = report.witness[excluded[0]]
    assert names(game, [witness.other]) == {"<alpha1={a}, alpha2={b}>"}


def test_pareto_single_profile():
    spec = parse_spec('agent x {\n  atoms a\n  desire d: true => a\n'
                      '  initial a\n}\n')
    game = derive_game(spec)
    assert len(game.positions) == 1
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
    assert chosen == set(range(len(game.positions))) or not chosen


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
    witness = report.witness[coop]
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
    assert len(nash(game).profile_indexes) == len(game.positions) == 4


def test_nash_infeasible_swaps_policies(interdependence):
    game = derive_game(interdependence)
    relaxed = nash(game)
    strict = nash(game, fail_infeasible_swaps=True)
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
        feasible = evaluated_profiles(game.spec)
        out = set()
        for i in report.profile_indexes:
            out.add(frozenset(
                lit.positive for d in feasible[i].profile.decisions
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
        if game.positions:
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


TWENTY_WORLD_ATOMS = """system "twenty world atoms"
option decision_mode = positive-subsets
agent alpha {
  atoms a1 a2 a3 a4
  fact w10 | w11 | w12 | w13 | w14
  belief a1 => w0
  belief a2 => w1 | w2
  belief a3 & a4 => !w3
  belief w0 => w4
  desire true => w4
  desire a2 => w1
}
agent beta {
  atoms b1 b2 b3 b4
  fact w15 | w16 | w17 | w18
  belief b1 => w5
  belief b2 => w6 & w7
  belief b3 => !w8
  belief b4 => w9 | w19
  desire true => w5
  desire b3 => w8
}
world """ + " ".join(f"w{k}" for k in range(20)) + "\n"


def test_the_game_keeps_no_world_mask_per_profile():
    """A joint world mask over 20 atoms is 128 KiB; 256 of them would be
    32 MiB.  The game keeps the desire reports and drops the masks.  Every
    world atom is in a fact or belief consequent, so every mask ranges over
    all 20."""
    spec = parse_spec(TWENTY_WORLD_ATOMS).with_options(max_atoms=32)
    assert len(spec.mask_atoms) == 20
    gc.collect()
    tracemalloc.start()
    try:
        game = derive_game(spec)
        profiles = len(game.positions)
        gc.collect()
        holding = tracemalloc.get_traced_memory()[0]
        del game
        gc.collect()
        kept = holding - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert profiles == 256
    assert kept < 8 << 20


def test_the_game_retains_under_a_kibibyte_per_profile():
    """Profiles share their agents' extensions and desire reports, and the
    game holds no joint extension: 4 agents of 3 decision atoms, 4,096
    profiles."""
    spec = four_by_three_spec()
    gc.collect()
    tracemalloc.start()
    try:
        game = derive_game(spec)
        profiles = len(game.positions)
        gc.collect()
        holding = tracemalloc.get_traced_memory()[0]
        del game
        gc.collect()
        kept = holding - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert profiles == 4_096
    assert kept < profiles * 1024


def test_a_game_retains_its_columns_only_after_its_profiles_are_read():
    """The game holds its columns, the agents' extensions and the shared
    desire reports, and decoding every profile (``profile``) keeps none of
    them: under 128 bytes per profile on 4 agents of 3 decision atoms,
    4,096 profiles.  A full collection before each reading drops what the
    interpreter's free lists keep."""
    spec = four_by_three_spec()
    gc.collect()
    tracemalloc.start()
    try:
        game = derive_game(spec)
        profiles = len(game.reports)
        for i in range(profiles):
            assert game.index_of(game.profile(i)) == i
        gc.collect()
        holding = tracemalloc.get_traced_memory()[0]
        del game
        gc.collect()
        kept = holding - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert profiles == 4_096
    assert kept < profiles * 128


def varied_mask_spec(rng):
    """Two or three agents of two decision atoms, each atom with a belief
    about the world, so every agent's decisions hold several distinct
    masks and some profiles are jointly infeasible."""
    atoms, world = iter("abcdefgh"), ("p", "q", "r")
    lines = ["option decision_mode = positive-subsets"]
    for k in range(rng.randint(2, 3)):
        own = [next(atoms), next(atoms)]
        lines += [f"agent x{k} {{", "  atoms " + " ".join(own)]
        for a in own:
            effects = [rng.choice(("", "!")) + w
                       for w in rng.sample(world, rng.randint(1, 2))]
            lines.append(f"  belief {a} => {' | '.join(effects)}")
        lines += [f"  desire {rng.choice(own)} => {rng.choice(world)}",
                  "}"]
    return parse_spec("\n".join(lines + ["world p q r", ""]))


def test_joint_consistency_is_decided_once_per_part_masks(monkeypatch):
    """The product pass calls ``joint_extension`` once per distinct tuple
    of part masks, with the parts and no profile object, and its columns
    agree with a fresh joint extension and desire report of every
    candidate."""
    decided = Counter()

    def counting(spec, profile=None, parts=None):
        assert profile is None
        decided[tuple(ext.models for ext in parts)] += 1
        return joint_extension(spec, profile, parts)

    monkeypatch.setattr(bdgame.game, "joint_extension", counting)
    rng = random.Random(12)
    shared = infeasible = 0
    for _ in range(60):
        spec = varied_mask_spec(rng)
        decided.clear()
        game = derive_game(spec)
        assert all(len({ext.models for ext in ds.values()}) >= 2
                   for ds in game.feasible_decisions.values())
        combinations = set()
        for combo, i in zip(product(*(
                ds.items() for ds in game.feasible_decisions.values())),
                game.candidates):
            decisions, parts = zip(*combo)
            combinations.add(tuple(ext.models for ext in parts))
            profile = DecisionProfile(decisions)
            fresh = joint_extension(spec, profile)
            assert (i >= 0) == fresh.consistent
            if i >= 0:
                assert game.reports[i] == desire_report(spec, profile, fresh)
            infeasible += i < 0
        assert set(decided) == combinations
        assert set(decided.values()) == {1}
        shared += len(game.candidates) - len(combinations)
    assert shared >= 400 and infeasible >= 200


def test_profile_decodes_the_candidate_digits_and_inverts_index_of():
    """``profile(i)`` is the i-th jointly consistent profile of the product
    of the agents' candidate decisions, consistency decided by a fresh
    joint extension, and ``index_of`` maps it back to i, in every decision
    mode."""
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(300):
        drawn = random_spec(rng, max_agents=3, max_decision_atoms=2,
                            max_rules=4)
        for mode in DecisionMode:
            spec = drawn.with_options(decision_mode=mode, max_profiles=256)
            try:
                game = derive_game(spec)
            except CombinatorialBoundError:
                continue
            consistent = []
            for chosen in product(*(enumerate_decisions(spec, a.id)
                                    for a in spec.agents)):
                candidate = DecisionProfile(chosen)
                if joint_extension(spec, candidate).consistent:
                    consistent.append(candidate)
                else:
                    seen["infeasible"] += 1
            assert len(game.positions) == len(consistent)
            for i, expected in enumerate(consistent):
                assert game.profile(i) == expected
                assert game.index_of(game.profile(i)) == i
            seen[mode] += 1
            seen["profiles"] += len(consistent)
            seen["several agents"] += len(spec.agents) > 1
    assert min(seen[mode] for mode in DecisionMode) >= 250
    assert seen["infeasible"] >= 3_000 and seen["profiles"] >= 15_000
    assert seen["several agents"] >= 500


def seeded_games():
    rng = random.Random(20261018)
    for _ in range(300):
        spec = random_spec(rng, max_agents=3, max_decision_atoms=3,
                           max_rules=5)
        game = derive_game(spec)
        if len(game.positions) > 1:
            yield game


def all_concepts(game):
    for concept in (pareto, strongly_pareto, dominant):
        concept(game)
    for fail in (False, True):
        nash(game, fail_infeasible_swaps=fail)


def test_concepts_decide_each_pair_of_unreached_sets_once(monkeypatch):
    asked = Counter()

    def counting(first, second, order):
        asked[id(order), frozenset(first), frozenset(second)] += 1
        return set_geq(first, second, order)

    monkeypatch.setattr(bdgame.game, "set_geq", counting)
    games = decided = 0
    for game in seeded_games():
        games += 1
        asked.clear()
        all_concepts(game)
        all_concepts(game)  # the tables are kept with the game
        distinct = {
            id(agent.priority): {report.unreached(agent.id)
                                 for report in game.reports}
            for agent in game.spec.agents}
        for (order, first, second), calls in asked.items():
            assert calls == 1
            assert first != second
            assert {first, second} <= distinct[order]
        decided += len(asked)
    assert games >= 150 and decided >= 1_000


def test_orders_match_the_definition():
    """Each bit of each agent's order is ``profile_geq`` on every ordered
    pair of feasible profiles, and ``class_bitsets`` reads the same bits.
    ``profile_geq`` depends only on the two unreached sets, so the ids are
    checked per profile and the bits once per ordered pair of ids."""
    games = pairs = covered = 0
    for game in seeded_games():
        games += 1
        firsts = [members[0] for members in game.classes]
        for k, (agent, (ids, geq)) in enumerate(zip(game.spec.agent_ids,
                                                    game.orders)):
            sets: dict[int, frozenset[str]] = {}
            first_of: dict[int, int] = {}
            for i, x in enumerate(ids):
                assert sets.setdefault(x, game.unreached(i, agent)) == \
                    game.unreached(i, agent)
                first_of.setdefault(x, i)
            assert sorted(sets) == list(range(len(geq)))
            assert len(set(sets.values())) == len(sets)
            for x, i in first_of.items():
                for y, j in first_of.items():
                    assert geq[x] >> y & 1 == game.profile_geq(i, j, agent)
            pairs += len(sets) ** 2
            covered += len(ids) ** 2
            for c, x in enumerate(firsts):
                up, down = game.class_bitsets[c][k]
                for d, y in enumerate(firsts):
                    assert down >> d & 1 == geq[ids[x]] >> ids[y] & 1
                    assert up >> d & 1 == geq[ids[y]] >> ids[x] & 1
    assert games >= 150 and pairs >= 4_000 and covered >= 1_000_000


def test_nash_builds_no_profile_and_looks_none_up(monkeypatch,
                                                  interdependence):
    def refuse(*args, **kwargs):
        raise AssertionError("nash went through profile objects")

    monkeypatch.setattr(DecisionProfile, "with_decision", refuse)
    monkeypatch.setattr(GameSpecification, "index_of", refuse)
    excluded = 0
    for game in [derive_game(interdependence), *seeded_games()]:
        for fail in (False, True):
            excluded += sum(w is not None for w in nash(
                game, fail_infeasible_swaps=fail).witness)
    assert excluded >= 1_000
