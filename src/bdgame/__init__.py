"""Qualitative decision and game solving over belief and desire rules."""

from importlib import resources

from .decision import (Decision, DecisionProfile, DesireReport,
                       ProfileComparison, compare_profiles, desire_report,
                       enumerate_decisions, enumerate_profiles,
                       is_feasible_decision, is_feasible_profile,
                       joint_extension)
from .errors import (BdgameError, CombinatorialBoundError,
                     FormulaSyntaxError, InfeasibleProfileError,
                     SpecSyntaxError, UndeclaredAtomError,
                     VocabularyLimitError)
from .extension import (Extension, Rule, applicable_consequents, extension,
                        fixpoint_certificate)
from .game import (GameSpecification, SolutionReport, derive_game, dominant,
                   nash, pareto, solve, strongly_pareto)
from .goals import (GoalSet, apply_decision_rule, delta_goal_sets,
                    fragment_check, heuristic_goals, is_goal_based,
                    pareto_via_goals, representation_check,
                    syntactic_goal_sets, u_closure)
from .logic import (Formula, Literal, atoms_of, consistent, entails,
                    format_formula, parse_formula)
from .model import (AgentSpec, AgentSystemSpec, DecisionMode, PriorityOrder,
                    Violation, format_spec, is_valid, parse_spec,
                    validate_spec)

__version__ = "0.1.0"


def example_path(name: str):
    """Path to one of the bundled .bdg example specifications."""
    if not name.endswith(".bdg"):
        name += ".bdg"
    return resources.files(__name__).joinpath("examples", name)


def load_example(name: str) -> AgentSystemSpec:
    return parse_spec(example_path(name).read_text(encoding="utf-8"))
