import random
from collections import Counter
from itertools import combinations

import pytest

from bdgame.decision import (Decision, ProfileComparison, compare_profiles,
                             desire_report,
                             enumerate_decisions, enumerate_profiles,
                             is_feasible_decision, is_feasible_profile,
                             joint_extension, set_geq)
from bdgame.errors import CombinatorialBoundError, InfeasibleProfileError
from bdgame.logic import Literal, Not, Var
from bdgame.model import PriorityOrder, parse_spec

from conftest import profile


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_positive_subsets_contain_the_initial_decision(single_agent_priorities):
    decisions = enumerate_decisions(single_agent_priorities, "alpha1")
    assert len(decisions) == 16
    assert all(Literal("a") in d.literals for d in decisions)
    plain = {frozenset(l.atom for l in d.literals) for d in decisions}
    for expected in [{"a"}, {"a", "b"}, {"a", "c"}, {"a", "d"}, {"a", "e"},
                     {"a", "d", "e"}]:
        assert expected in plain


def test_total_assignments_for_single_atom(opposed_interests):
    decisions = enumerate_decisions(opposed_interests, "alpha1")
    assert [str(d) for d in decisions] == ["{a}", "{!a}"]


def test_zero_atom_agent_has_one_empty_decision():
    spec = parse_spec('agent x {\n  atoms a\n}\nagent y {\n}\nworld p\n')
    assert enumerate_decisions(spec, "y") == (Decision("y", frozenset()),)


def test_literal_subsets_mode():
    spec = parse_spec('option decision_mode = literal-subsets\n'
                      'agent x {\n  atoms a b\n}\n')
    decisions = enumerate_decisions(spec, "x")
    assert len(decisions) == 9
    assert all(len({l.atom for l in d.literals}) == len(d.literals)
               for d in decisions)


def test_enumeration_cap():
    spec = parse_spec('agent x {\n  atoms a b c d e f g h i j k l m\n}\n')
    with pytest.raises(CombinatorialBoundError):
        enumerate_decisions(spec, "x")


def test_profile_enumeration_order(opposed_interests):
    profiles = enumerate_profiles(opposed_interests)
    assert [str(p) for p in profiles] == [
        "<alpha1={a}, alpha2={b}>", "<alpha1={a}, alpha2={!b}>",
        "<alpha1={!a}, alpha2={b}>", "<alpha1={!a}, alpha2={!b}>"]


# ---------------------------------------------------------------------------
# Joint extensions and feasibility
# ---------------------------------------------------------------------------

def test_joint_extension_inconsistent(single_agent_priorities):
    ext = joint_extension(single_agent_priorities,
                          profile(alpha1=["a", "d", "e"]))
    assert ext.formulas == {Not(Var("p")), Var("a"), Var("d"), Var("e"),
                            Var("q"), Not(Var("q"))}
    assert not ext.consistent


def test_joint_extension_unions_agent_views(interdependence):
    ext = joint_extension(interdependence, profile(alpha1=["a"], alpha2=["b"]))
    assert ext.formulas == {Var("a"), Var("p"), Var("b"), Not(Var("p"))}
    assert not ext.consistent


def test_joint_extension_without_rules_is_the_profile(prisoners):
    ext = joint_extension(prisoners, profile(alpha1=["a"], alpha2=["!b"]))
    assert ext.formulas == {Var("a"), Not(Var("b"))}
    assert ext.consistent


def test_feasible_decision(single_agent_priorities):
    spec = single_agent_priorities
    ok = Decision("alpha1", frozenset({Literal("a"), Literal("c")}))
    bad = Decision("alpha1",
                   frozenset({Literal("a"), Literal("d"), Literal("e")}))
    assert is_feasible_decision(spec, "alpha1", ok)
    assert not is_feasible_decision(spec, "alpha1", bad)


def test_feasible_profile(interdependence):
    assert is_feasible_profile(interdependence,
                               profile(alpha1=[], alpha2=["b"]))
    assert not is_feasible_profile(interdependence,
                                   profile(alpha1=["a"], alpha2=["b"]))


def test_single_agent_profile_feasibility_matches_decision(
        single_agent_priorities):
    spec = single_agent_priorities
    for names in [("a",), ("a", "c"), ("a", "d", "e")]:
        d = Decision("alpha1", frozenset(Literal(n) for n in names))
        assert is_feasible_decision(spec, "alpha1", d) == \
            is_feasible_profile(spec, profile(alpha1=names))


# ---------------------------------------------------------------------------
# Desire classification
# ---------------------------------------------------------------------------

def test_unreached_sets(single_agent_priorities):
    spec = single_agent_priorities
    expected = {
        ("a",): {"d_b", "d_q"},
        ("a", "b"): {"d_bp", "d_q"},
        ("a", "c"): {"d_b"},
        ("a", "d"): {"d_b"},
        ("a", "e"): {"d_b", "d_q"},
        ("a", "b", "c"): {"d_bp"},
    }
    for names, unreached in expected.items():
        report = desire_report(spec, profile(alpha1=names))
        assert report.unreached("alpha1") == unreached, names


def test_classification_buckets(single_agent_priorities):
    spec = single_agent_priorities
    status = desire_report(spec, profile(alpha1=["a", "b"])).per_agent["alpha1"]
    assert status.reached == {"d_a", "d_b"}
    assert status.unreached == {"d_bp", "d_q"}
    # !p is a fact, so the p-desire is violated as well as unreached
    assert status.violated == {"d_bp"}
    assert status.inapplicable == {"d_dq"}
    all_ids = status.reached | status.unreached | status.inapplicable
    assert all_ids == {r.id for r in spec.agents[0].desires}
    assert status.violated <= status.unreached


def test_report_on_infeasible_profile_raises(single_agent_priorities):
    with pytest.raises(InfeasibleProfileError):
        desire_report(single_agent_priorities,
                      profile(alpha1=["a", "d", "e"]))


def test_cross_agent_unreached(opposed_interests):
    spec = opposed_interests
    report = desire_report(spec, profile(alpha1=["a"], alpha2=["b"]))
    assert report.unreached("alpha1") == set()
    assert report.unreached("alpha2") == {"d2_np", "d2_nq"}


def test_reaching_everything(cooperation):
    report = desire_report(cooperation, profile(alpha1=["a"], alpha2=["c"]))
    assert all(report.unreached(a) == set() for a in ("alpha1", "alpha2"))


# ---------------------------------------------------------------------------
# Lifted order
# ---------------------------------------------------------------------------

RANKED = PriorityOrder.ranked({"d1": 1, "d2": 2, "d3": 3, "d4": 4})
IDENT = PriorityOrder.identity()


def test_equal_sets_are_equivalent():
    assert set_geq({"d1", "d3"}, {"d1", "d3"}, RANKED)


def test_priority_pair():
    order = PriorityOrder.ranked({"d_bp": 2, "d_b": 1, "d_tie": 1})
    assert set_geq({"d_bp"}, {"d_b"}, order)
    assert not set_geq({"d_b"}, {"d_bp"}, order)
    # A tie outranks neither way.
    assert not set_geq({"d_b"}, {"d_tie"}, order)
    assert not set_geq({"d_tie"}, {"d_b"}, order)


def test_nonempty_succeeds_empty():
    assert set_geq({"d1"}, set(), RANKED)
    assert not set_geq(set(), {"d1"}, RANKED)
    assert set_geq(set(), set(), RANKED)


def test_identity_mode_is_superset():
    ids = ["d1", "d2", "d3", "d4"]
    subsets = [frozenset(c) for size in range(5)
               for c in combinations(ids, size)]
    for x in subsets:
        for y in subsets:
            assert set_geq(x, y, IDENT) == (y <= x)
    # Neither of two disjoint sets outranks the other.
    assert not set_geq({"d1"}, {"d2"}, IDENT)
    assert not set_geq({"d2"}, {"d1"}, IDENT)


def ref_set_geq(first, second, order):
    """The lifted order as first written, without early exits: every loss
    is outranked by some gain of a strictly higher rank (an unranked rule
    has rank 0, and the identity order ranks nothing above anything)."""
    first_set, second_set = frozenset(first), frozenset(second)
    gains = first_set - second_set
    ranks = order.ranks
    return all(
        ranks is not None
        and any(ranks.get(g, 0) > ranks.get(loss, 0) for g in gains)
        for loss in second_set - first_set)


def test_set_geq_matches_its_definition():
    rng = random.Random(2002)
    answers = Counter()
    for _ in range(300):
        ids = [f"d{k}" for k in range(rng.randint(0, 6))]
        # Ranks drawn from a small range, so ties are common.
        orders = (PriorityOrder.ranked({d: rng.randint(0, 3) for d in ids}),
                  PriorityOrder.identity())
        for _ in range(20):
            first = rng.sample(ids, rng.randint(0, len(ids)))
            second = rng.sample(ids, rng.randint(0, len(ids)))
            for order in orders:
                expected = ref_set_geq(first, second, order)
                assert set_geq(first, second, order) == expected
                losses = set(second) - set(first)
                gains = set(first) - set(second)
                mode = "identity" if order.ranks is None else "ranked"
                answers[expected, bool(losses), bool(gains), mode] += 1
    # Both answers with losses and gains under both modes, and the two
    # early exits.
    for mode in ("ranked", "identity"):
        assert answers[False, True, True, mode] >= 100
        assert answers[True, False, True, mode] >= 100
        assert answers[False, True, False, mode] >= 100
    assert answers[True, True, True, "ranked"] >= 100


# ---------------------------------------------------------------------------
# Profile comparison
# ---------------------------------------------------------------------------

def test_smaller_unreached_set_wins(single_agent_priorities):
    spec = single_agent_priorities
    assert compare_profiles(spec, profile(alpha1=["a", "c"]),
                            profile(alpha1=["a"]), "alpha1") == \
        ProfileComparison.BETTER
    assert compare_profiles(spec, profile(alpha1=["a"]),
                            profile(alpha1=["a", "c"]), "alpha1") == \
        ProfileComparison.WORSE


def test_priority_breaks_singleton_tie(single_agent_priorities):
    spec = single_agent_priorities
    assert compare_profiles(spec, profile(alpha1=["a", "c"]),
                            profile(alpha1=["a", "b", "c"]), "alpha1") == \
        ProfileComparison.BETTER


def test_profile_equals_itself(single_agent_priorities):
    spec = single_agent_priorities
    p = profile(alpha1=["a", "c"])
    assert compare_profiles(spec, p, p, "alpha1") == ProfileComparison.EQUAL


def test_opposed_interests_chains(opposed_interests):
    spec = opposed_interests
    chain1 = [profile(alpha1=["a"], alpha2=["b"]),
              profile(alpha1=["a"], alpha2=["!b"]),
              profile(alpha1=["!a"], alpha2=["b"]),
              profile(alpha1=["!a"], alpha2=["!b"])]
    for better, worse in zip(chain1, chain1[1:]):
        assert compare_profiles(spec, better, worse, "alpha1") == \
            ProfileComparison.BETTER
    for better, worse in zip(chain1[::-1], chain1[::-1][1:]):
        assert compare_profiles(spec, better, worse, "alpha2") == \
            ProfileComparison.BETTER


def test_compare_requires_feasible_profiles(interdependence):
    with pytest.raises(InfeasibleProfileError):
        compare_profiles(interdependence,
                         profile(alpha1=["a"], alpha2=["b"]),
                         profile(alpha1=[], alpha2=["b"]), "alpha1")


def test_indistinguishable_profiles_compare_equal():
    spec = parse_spec(
        'agent x {\n  atoms a b\n  desire d: true => p\n}\nworld p\n')
    first, second = profile(x=["a"]), profile(x=["b"])
    for agent in ("x",):
        assert compare_profiles(spec, first, second, agent) == \
            ProfileComparison.EQUAL


def test_disjoint_unreached_desires_are_incomparable_under_identity():
    spec = parse_spec('agent x {\n  atoms a b\n  desire d1: true => a\n'
                      '  desire d2: true => b\n}\n')
    first, second = profile(x=["a"]), profile(x=["b"])
    assert desire_report(spec, first).unreached("x") == {"d2"}
    assert desire_report(spec, second).unreached("x") == {"d1"}
    assert compare_profiles(spec, first, second, "x") == \
        ProfileComparison.INCOMPARABLE
