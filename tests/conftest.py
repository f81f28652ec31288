import random
from itertools import product
from typing import NamedTuple

import pytest

from bdgame import load_example
from bdgame.decision import (Decision, DecisionProfile, DesireReport,
                             agent_extension, desire_report,
                             enumerate_decisions, joint_extension)
from bdgame.extension import Extension
from bdgame.logic import Literal
from bdgame.model import DecisionMode
from bdgame.verify import random_spec


@pytest.fixture(scope="session")
def conflicting_beliefs():
    return load_example("conflicting_beliefs")


@pytest.fixture(scope="session")
def single_agent_priorities():
    return load_example("single_agent_priorities")


@pytest.fixture(scope="session")
def interdependence():
    return load_example("interdependence")


@pytest.fixture(scope="session")
def opposed_interests():
    return load_example("opposed_interests")


@pytest.fixture(scope="session")
def prisoners():
    return load_example("prisoners")


@pytest.fixture(scope="session")
def cooperation():
    return load_example("cooperation")


def profile(**decisions):
    """Build a decision profile from agent -> literal-name iterables.

    Literal names use the formula syntax for negation: "a" or "!a".
    """
    parts = []
    for agent, names in decisions.items():
        literals = frozenset(
            Literal(n[1:], False) if n.startswith("!") else Literal(n)
            for n in names)
        parts.append(Decision(agent, literals))
    return DecisionProfile(tuple(parts))


def four_by_three_spec():
    """The first seeded draw with 4 agents of 3 decision atoms each, in
    total-assignments mode: 4,096 profiles."""
    rng = random.Random(7)
    while True:
        spec = random_spec(rng, max_agents=4, max_decision_atoms=3,
                           max_rules=6,
                           world_atoms=("p", "q", "r", "s", "t", "u"))
        if len(spec.agents) == 4 and all(
                len(a.decision_atoms) == 3 for a in spec.agents):
            return spec.with_options(
                decision_mode=DecisionMode.TOTAL_ASSIGNMENTS)


class Evaluated(NamedTuple):
    """A profile with its joint extension and, when that is consistent,
    its desire report."""

    profile: DecisionProfile
    extension: Extension
    report: DesireReport | None


def evaluated_profiles(spec, *, feasible_only=True):
    """The definitional object view of a spec's profiles, the reference
    for whatever the library reads off the game's columns: every profile
    of ``itertools.product`` over the agents' ``enumerate_decisions``, in
    canonical order, with a fresh ``joint_extension`` and, when that is
    consistent, a fresh ``desire_report``.  The jointly inconsistent ones
    are left out unless ``feasible_only`` is false.  The feasible ones,
    in order, are the game's feasible profiles by index."""
    per_agent = []
    for agent in spec.agents:
        decisions = enumerate_decisions(spec, agent.id)
        if feasible_only:  # a profile with an inconsistent part is too
            decisions = [d for d in decisions if agent_extension(
                spec, agent.id, d).consistent]
        per_agent.append(decisions)
    out = []
    for chosen in product(*per_agent):
        profile = DecisionProfile(chosen)
        ext = joint_extension(spec, profile)
        if ext.consistent:
            out.append(Evaluated(profile, ext,
                                 desire_report(spec, profile, ext)))
        elif not feasible_only:
            out.append(Evaluated(profile, ext, None))
    return out
