"""Command-line front end.

Commands:
  validate   parse a spec and report violations
  extension  compute one agent's belief extension for a decision
  profiles   enumerate candidate profiles with extensions and reports
  solve      compute a solution concept over the feasible profiles
  goals      goal sets of a concept's family (or of all feasible profiles)
  check      run a verification suite against the spec

Reports are deterministic: canonical ordering everywhere, and JSON output
is byte-stable for a fixed input, seed, and format.  Exit status: 0 on
success, 1 when `check` finds violations, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import __version__
from .decision import (DEFAULT_DECISION_CAP, DEFAULT_PROFILE_CAP, Decision,
                       DecisionProfile, agent_extension)
from .errors import BdgameError
from .extension import Extension
from .game import (CONCEPTS, GameSpecification, agent_extensions,
                   derive_game, evaluate_product, evaluate_profile)
from .game import solve as solve_game
from .goals import (DECISION_RULES, apply_decision_rule, concept_family,
                    delta_goal_sets, pareto_via_goals, u_closure)
from .logic import DEFAULT_MAX_ATOMS, format_formula, parse_literal
from .model import (AgentSystemSpec, DecisionMode, parse_spec, validate_spec)
from .verify import (check_monotonicity, check_order_laws,
                     check_pipeline_equivalence, check_representation)

ENV_MAX_ATOMS = "BDGAME_MAX_ATOMS"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT_ERROR = 2


@dataclass
class RunConfig:
    path: str
    command: str
    decision_mode: DecisionMode | None = None
    output_format: str = "text"
    infeasible_swaps: str = "skip"
    max_atoms: int | None = None  # None: the environment, then the spec
    max_decisions: int = DEFAULT_DECISION_CAP
    max_profiles: int = DEFAULT_PROFILE_CAP
    seed: int = 0
    samples: int = 200


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"'{text}' is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls
    of ``main`` in the same process; it holds no environment state."""
    parser = argparse.ArgumentParser(
        prog="bdgame",
        description="Solve qualitative games over belief and desire rules.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="input .bdg specification")
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    common.add_argument("--decision-mode",
                        choices=[m.value for m in DecisionMode],
                        help="override the spec's decision mode")
    common.add_argument("--max-atoms", type=_positive_int,
                        help="entailment atom cap; overrides env "
                             f"{ENV_MAX_ATOMS}, which overrides the spec's "
                             f"option max_atoms (default {DEFAULT_MAX_ATOMS})")
    common.add_argument("--max-decisions", type=_positive_int,
                        default=DEFAULT_DECISION_CAP,
                        help="per-agent decision enumeration cap")
    common.add_argument("--max-profiles", type=_positive_int,
                        default=DEFAULT_PROFILE_CAP,
                        help="profile enumeration cap")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the seeded suites")
    common.add_argument("--infeasible-swaps", choices=("skip", "fail"),
                        default="skip",
                        help="how nash treats deviations that break joint "
                             "feasibility")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="report spec violations")
    p_ext = sub.add_parser("extension", parents=[common],
                           help="one agent's belief extension of a decision")
    p_ext.add_argument("--agent", help="agent id (default: joint extension "
                                       "of the initial decisions)")
    p_ext.add_argument("--decision",
                       help="comma-separated literals, e.g. a,!b "
                            "(default: the agent's initial decision)")
    p_prof = sub.add_parser("profiles", parents=[common],
                            help="enumerate candidate decision profiles")
    p_prof.add_argument("--feasible-only", action="store_true",
                        help="drop infeasible profiles from the report")
    p_solve = sub.add_parser("solve", parents=[common],
                             help="compute a solution concept")
    p_solve.add_argument("--concept", choices=CONCEPTS, required=True)
    p_goals = sub.add_parser("goals", parents=[common],
                             help="goal sets of a profile family")
    p_goals.add_argument("--family", choices=CONCEPTS + ("all",),
                         help="which family to close and report (default all)")
    p_goals.add_argument("--all", action="store_true",
                         help="shorthand for --family all")
    p_goals.add_argument("--via-goals", action="store_true",
                         help="drive the family through the goals-first "
                              "pipeline (pareto or all only)")
    p_goals.add_argument("--rule", choices=DECISION_RULES,
                         help="report the family a decision rule selects")
    p_check = sub.add_parser("check", parents=[common],
                             help="run a verification suite on the spec")
    p_check.add_argument("--property", required=True,
                         choices=("representation", "monotonicity",
                                  "order-laws", "pipeline-equivalence"))
    p_check.add_argument("--samples", type=_positive_int, default=200)
    return parser


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _extension_json(ext: Extension) -> list[str]:
    return sorted(format_formula(f) for f in ext.formulas)


def _profile_entry(spec: AgentSystemSpec, profile, ext: Extension,
                   report) -> dict:
    decisions = {
        d.agent: [str(lit) for lit in d.sorted_literals()]
        for d in profile.decisions}
    entry = {
        "decisions": decisions,
        "extension": _extension_json(ext),
        "consistent": ext.consistent,
        "unreached": None,
    }
    if report is not None:
        entry["unreached"] = {a: sorted(report.unreached(a))
                              for a in spec.agent_ids}
    return entry


def _report(spec_name: str, command: str, **sections) -> dict:
    """The JSON report: every section present, empty unless given."""
    report = {
        "system": spec_name,
        "command": command,
        "profiles": [],
        "solutions": {},
        "goal_sets": [],
        "checks": [],
    }
    report.update(sections)
    return report


class _Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list[str] = []

    def text(self, line: str = "") -> None:
        if self.fmt == "text":
            self.lines.append(line)

    def emit(self, build: Callable[[], dict]) -> None:
        """Print the text lines, or the report ``build`` returns: it is only
        built for JSON output."""
        if self.fmt == "json":
            print(json.dumps(build(), indent=2, sort_keys=True))
        else:
            print("\n".join(self.lines))


def _max_atoms(flag: int | None) -> int | None:
    """The atom cap set by the flag, else by the environment; None leaves
    the spec's option (or the default) in force."""
    if flag is not None:
        return flag
    env = os.environ.get(ENV_MAX_ATOMS)
    if env is None:
        return None
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise BdgameError(f"{ENV_MAX_ATOMS}: {exc}") from None


def _load(config: RunConfig, out: _Reporter) -> AgentSystemSpec:
    try:
        with open(config.path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise BdgameError(f"{config.path} is not UTF-8 text: {exc}") from None
    spec = parse_spec(text)
    mode = DecisionMode(config.decision_mode) if config.decision_mode else None
    return spec.with_options(decision_mode=mode,
                             max_atoms=_max_atoms(config.max_atoms))


def _require_valid(spec: AgentSystemSpec) -> None:
    errors = [v for v in validate_spec(spec) if v.severity == "error"]
    if errors:
        raise BdgameError(
            "invalid specification:\n" + "\n".join(str(v) for v in errors))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(spec: AgentSystemSpec, config: RunConfig,
                  out: _Reporter) -> int:
    spec.check_atom_cap()
    violations = validate_spec(spec)
    if not violations:
        out.text(f"{spec.name}: OK")
    for v in violations:
        out.text(str(v))
    out.emit(lambda: _report(spec.name, "validate", checks=[
        {"name": v.code, "passed": False,
         "counterexample": {"agent": v.agent, "message": v.message,
                            "severity": v.severity}}
        for v in violations]))
    errors = any(v.severity == "error" for v in violations)
    return EXIT_INPUT_ERROR if errors else EXIT_OK


def _parse_decision(spec: AgentSystemSpec, agent_id: str,
                    text: str | None) -> Decision:
    if agent_id not in spec.agent_ids:
        raise BdgameError(f"no agent '{agent_id}' in {spec.name}")
    agent = spec.agent(agent_id)
    if text is None:
        return Decision(agent_id, frozenset(agent.initial_decision))
    literals = frozenset(
        parse_literal(tok) for tok in text.replace(",", " ").split())
    for lit in literals:
        if lit.atom not in agent.decision_atoms:
            raise BdgameError(
                f"literal '{lit}' is not over agent {agent_id}'s atoms")
    return Decision(agent_id, literals)


def _cmd_extension(spec: AgentSystemSpec, config: RunConfig, out: _Reporter,
                   agent: str | None, decision_text: str | None) -> int:
    _require_valid(spec)
    if agent is None:
        if decision_text is not None:
            raise BdgameError("--decision requires --agent")
        profile = DecisionProfile(tuple(
            Decision(a.id, frozenset(a.initial_decision))
            for a in spec.agents))
        ep = evaluate_profile(spec, profile)
        ext, report = ep.extension, ep.report
        out.text(f"joint extension of the initial profile {profile}:")
    else:
        decision = _parse_decision(spec, agent, decision_text)
        profile = DecisionProfile((decision,))
        ext, report = agent_extension(spec, agent, decision), None
        out.text(f"extension for {agent}, decision {decision}:")
    flag = "consistent" if ext.consistent else "INCONSISTENT"
    out.text("  {" + ", ".join(_extension_json(ext)) + "}")
    out.text(f"  {flag}; {ext.iterations} productive rounds")
    out.emit(lambda: _report(spec.name, "extension", profiles=[
        _profile_entry(spec, profile, ext, report)]))
    return EXIT_OK


def _cmd_profiles(spec: AgentSystemSpec, config: RunConfig, out: _Reporter,
                  feasible_only: bool) -> int:
    _require_valid(spec)
    built = agent_extensions(spec, max_decisions=config.max_decisions)
    shown = [ep for ep in evaluate_product(spec, built,
                                           max_profiles=config.max_profiles)
             if ep.report is not None or not feasible_only]
    out.text(f"{len(shown)} profiles"
             + (" (feasible only)" if feasible_only else "") + ":")
    for i, ep in enumerate(shown):
        flag = "ok" if ep.extension.consistent else "INFEASIBLE"
        out.text(f"  [{i}] {ep.profile} {flag}")
        out.text("      extension {"
                 + ", ".join(_extension_json(ep.extension)) + "}")
        if ep.report is not None:
            for a in spec.agent_ids:
                unreached = ", ".join(sorted(ep.report.unreached(a))) or "-"
                out.text(f"      unreached[{a}]: {unreached}")
    out.emit(lambda: _report(spec.name, "profiles", profiles=[
        _profile_entry(spec, ep.profile, ep.extension, ep.report)
        for ep in shown]))
    return EXIT_OK


def _game_report(spec: AgentSystemSpec, game: GameSpecification,
                 command: str, **sections) -> dict:
    return _report(spec.name, command, profiles=[
        _profile_entry(spec, ep.profile, ep.extension, ep.report)
        for ep in game.profiles], **sections)


def _cmd_solve(spec: AgentSystemSpec, config: RunConfig, out: _Reporter,
               concept: str) -> int:
    _require_valid(spec)
    game = derive_game(spec, max_decisions=config.max_decisions,
                       max_profiles=config.max_profiles)
    solution = solve_game(game, concept,
                          infeasible_swaps=config.infeasible_swaps)
    out.text(f"{concept}: {len(solution.profile_indexes)} of "
             f"{len(game.profiles)} feasible profiles")
    for i in solution.profile_indexes:
        out.text(f"  [{i}] {game.profiles[i].profile}")
    if solution.witnesses:
        out.text("excluded:")
        for i in sorted(solution.witnesses):
            w = solution.witnesses[i]
            parts = []
            if w.agent is not None:
                parts.append(f"agent {w.agent}")
            if w.other is not None:
                parts.append(f"see [{w.other}] {game.profiles[w.other].profile}")
            if w.decision is not None:
                parts.append(f"deviation {w.decision}")
            out.text(f"  [{i}] {game.profiles[i].profile}: "
                     + ", ".join(parts))
    out.emit(lambda: _game_report(spec, game, "solve", solutions={
        concept: list(solution.profile_indexes)}))
    return EXIT_OK


def _cmd_goals(spec: AgentSystemSpec, config: RunConfig, out: _Reporter,
               family_name: str, via_goals: bool,
               rule_name: str | None) -> int:
    _require_valid(spec)
    game = derive_game(spec, max_decisions=config.max_decisions,
                       max_profiles=config.max_profiles)
    if rule_name is not None:
        family = apply_decision_rule(spec, rule_name, game=game,
                                     infeasible_swaps=config.infeasible_swaps)
        label = f"decision rule {rule_name}"
    elif via_goals:
        if family_name not in ("pareto", "all"):
            raise BdgameError("--via-goals supports --family pareto or all")
        result = pareto_via_goals(spec, game=game)
        family = (result.pareto_family if family_name == "pareto" else
                  u_closure(spec,
                            [game.profiles[i].profile for i in result.pool],
                            game=game))
        label = f"{family_name} family (goals-first pipeline)"
    else:
        family = concept_family(spec, family_name, game=game,
                                infeasible_swaps=config.infeasible_swaps)
        label = f"{family_name} family"
    goal_sets = delta_goal_sets(spec, family, game=game)
    family_indexes = sorted(map(game.index_of, family.profiles))
    generators = {gs: [] for gs in goal_sets}
    for i in family_indexes:
        generators[game.goal_sets[i]].append(i)
    out.text(f"{label}: {len(family.profiles)} profiles, "
             f"{len(goal_sets)} goal sets")
    for i in family_indexes:
        out.text(f"  [{i}] {game.profiles[i].profile}")
    for gi, gs in enumerate(goal_sets):
        out.text(f"  goal set {gi}: {gs} from profiles {generators[gs]}")
    out.emit(lambda: _game_report(
        spec, game, "goals", solutions={"family": family_indexes},
        goal_sets=[{"positive": sorted(map(format_formula, gs.positive)),
                    "negative": sorted(map(format_formula, gs.negative)),
                    "generators": generators[gs]}
                   for gs in goal_sets]))
    return EXIT_OK


def _goals_family(args: argparse.Namespace) -> str:
    """The family ``goals`` reports; flags it would ignore are refused."""
    if args.rule is not None:
        for flag, given in (("--family", args.family is not None),
                            ("--all", args.all),
                            ("--via-goals", args.via_goals)):
            if given:
                raise BdgameError(f"--rule selects its own family; "
                                  f"drop {flag}")
    if args.all and args.family is not None:
        raise BdgameError("--all is short for --family all; give one of them")
    return args.family or "all"


def _cmd_check(spec: AgentSystemSpec, config: RunConfig, out: _Reporter,
               prop: str) -> int:
    _require_valid(spec)
    if prop == "representation":
        result = check_representation(spec, seed=config.seed)
    elif prop == "monotonicity":
        result = check_monotonicity(spec, seed=config.seed,
                                    samples=config.samples)
    elif prop == "order-laws":
        result = check_order_laws()
    else:
        result = check_pipeline_equivalence(spec)
    entry = {"name": result.name, "passed": result.passed}
    if result.counterexample is not None:
        entry["counterexample"] = result.counterexample
    out.text(str(result))
    out.emit(lambda: _report(spec.name, "check", checks=[entry]))
    return EXIT_OK if result.passed else EXIT_VIOLATIONS


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        path=args.path,
        command=args.command,
        decision_mode=getattr(args, "decision_mode", None),
        output_format=args.format,
        infeasible_swaps=args.infeasible_swaps,
        max_atoms=args.max_atoms,
        max_decisions=args.max_decisions,
        max_profiles=args.max_profiles,
        seed=args.seed,
        samples=getattr(args, "samples", 200),
    )
    out = _Reporter(config.output_format)
    try:
        spec = _load(config, out)
        if args.command == "validate":
            return _cmd_validate(spec, config, out)
        if args.command == "extension":
            return _cmd_extension(spec, config, out, args.agent,
                                  args.decision)
        if args.command == "profiles":
            return _cmd_profiles(spec, config, out, args.feasible_only)
        if args.command == "solve":
            return _cmd_solve(spec, config, out, args.concept)
        if args.command == "goals":
            return _cmd_goals(spec, config, out, _goals_family(args),
                              args.via_goals, args.rule)
        if args.command == "check":
            return _cmd_check(spec, config, out, getattr(args, "property"))
        raise AssertionError(f"unhandled command {args.command}")
    except OSError as exc:
        print(f"bdgame: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BdgameError as exc:
        print(f"bdgame: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
