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
from functools import cache, cached_property, lru_cache
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import __version__
from .decision import (Decision, DesireReport, agent_extension,
                       joint_extension)
from .errors import BdgameError
from .extension import Extension
from .game import CONCEPTS, _product_columns, agent_extensions, derive_game
from .game import solve as solve_game
from .goals import (DECISION_RULES, apply_decision_rule, concept_family,
                    delta_goal_sets, pareto_via_goals, u_closure)
from .logic import (DEFAULT_MAX_ATOMS, format_formula, formula_printer,
                    parse_literal)
from .model import (DEFAULT_DECISION_CAP, DEFAULT_PROFILE_CAP,
                    AgentSystemSpec, DecisionMode, parse_spec, validate_spec)
from .verify import (check_monotonicity, check_order_laws,
                     check_pipeline_equivalence, check_representation)

ENV_MAX_ATOMS = "BDGAME_MAX_ATOMS"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT_ERROR = 2


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"'{text}' is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


# The flags each ``check --property`` reads; it refuses the others.
_CHECK_FLAGS = {"representation": (),
                "monotonicity": ("--seed", "--samples"),
                "order-laws": (), "pipeline-equivalence": ()}


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
                        help="per-agent decision enumeration cap "
                             f"(default {DEFAULT_DECISION_CAP})")
    common.add_argument("--max-profiles", type=_positive_int,
                        help="profile enumeration cap "
                             f"(default {DEFAULT_PROFILE_CAP})")
    swaps = argparse.ArgumentParser(add_help=False)
    swaps.add_argument("--infeasible-swaps", choices=("skip", "fail"),
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
    p_solve = sub.add_parser("solve", parents=[common, swaps],
                             help="compute a solution concept")
    p_solve.add_argument("--concept", choices=CONCEPTS, required=True)
    p_goals = sub.add_parser("goals", parents=[common, swaps],
                             help="goal sets of a profile family")
    p_goals.add_argument("--family", choices=CONCEPTS + ("all",),
                         help="which family to close and report (default all)")
    p_goals.add_argument("--via-goals", action="store_true",
                         help="drive the family through the goals-first "
                              "pipeline (pareto or all only)")
    p_goals.add_argument("--rule", choices=DECISION_RULES,
                         help="report the family a decision rule selects")
    p_check = sub.add_parser("check", parents=[common],
                             help="run a verification suite on the spec")
    p_check.add_argument("--property", required=True,
                         choices=tuple(_CHECK_FLAGS))
    # None when not given: a property refuses the flags it does not read.
    p_check.add_argument("--seed", type=int,
                         help="seed of the draws made by --property "
                              "monotonicity (default 0)")
    p_check.add_argument("--samples", type=_positive_int,
                         help="samples drawn by --property monotonicity "
                              "(default 200)")
    return parser


def _fail_infeasible_swaps(args: argparse.Namespace) -> bool:
    """``--infeasible-swaps`` of ``solve`` and ``goals`` as the library's
    ``fail_infeasible_swaps``."""
    return args.infeasible_swaps == "fail"


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _members(lines: list[str], brackets: str, depth: int) -> str:
    """A JSON array or object ``depth`` levels deep, as ``json.dumps`` with
    ``indent=2`` prints it, from its member lines (one level deeper)."""
    if not lines:
        return brackets
    return (brackets[0] + "\n" + ",\n".join(lines) + "\n" + "  " * depth
            + brackets[1])


def _member(key: str, texts: Iterable[str]) -> str:
    """The line of a string array keyed ``key`` in an entry's object."""
    return (f"        {_quote(key)}: "
            + _members(["          " + _quote(t) for t in texts], "[]", 4))


Extensions = Mapping[str, Mapping[Decision, Extension]]


class _Pieces:
    """One report's pieces, read by both renderers, from each agent's
    extension of each decision the report's profiles hold (``extensions``,
    keyed by those objects), for profiles given by their decisions (a
    candidate's digits, or ``GameSpecification.profile``).  Each kind of
    piece is built when a renderer first asks for it: formula texts,
    numbered in sorted order; by decision id, its extension's numbers, its
    literals and text form, and its JSON member line; by agent and
    unreached set, its line in either format.  A joint extension is the
    union of its agents' extensions, and ``format_formula`` is one-to-one,
    so a profile's formulas are the sorted union of its parts' numbers: no
    joint extension is built.  The objects behind the ids live as long as
    the table, so no id is reused."""

    def __init__(self, extensions: Extensions) -> None:
        parts = [(d, {format_formula(f) for f in ext.formulas})
                 for decisions in extensions.values()
                 for d, ext in decisions.items()]
        self.texts = sorted(set().union(*[texts for _, texts in parts]))
        number = {text: n for n, text in enumerate(self.texts)}
        self.numbers = {id(d): frozenset(map(number.__getitem__, texts))
                        for d, texts in parts}
        self.decisions = {id(d): d for d, _ in parts}
        self.unreached_member = cache(
            lambda agent, ids: _member(agent, sorted(ids)))
        self.unreached_text = cache(lambda agent, ids: (
            f"      unreached[{agent}]: {', '.join(sorted(ids)) or '-'}"))

    @cached_property
    def literals(self) -> dict[int, str]:
        return {i: str(d) for i, d in self.decisions.items()}

    @cached_property
    def text(self) -> dict[int, str]:
        return {i: f"{d.agent}={self.literals[i]}"
                for i, d in self.decisions.items()}

    def joint_numbers(self, decisions: tuple[Decision, ...]) -> list[int]:
        own = [self.numbers[id(d)] for d in decisions]
        return sorted(own[0].union(*own[1:]))

    def profile_text(self, decisions: tuple[Decision, ...]) -> str:
        """``str`` of the profile of ``decisions``, from their texts."""
        text = self.text
        return "<" + ", ".join([text[id(d)] for d in decisions]) + ">"

    def extension_text(self, decisions: tuple[Decision, ...]) -> str:
        texts = map(self.texts.__getitem__, self.joint_numbers(decisions))
        return "{" + ", ".join(texts) + "}"

    def entries(self, rows: Iterable[tuple[tuple[Decision, ...], bool,
                                           DesireReport | None]]
                ) -> Iterator[str]:
        """Each profile's JSON entry, keys sorted, as ``json.dumps`` prints
        it in the ``profiles`` array, from its decisions, its consistency
        flag and its report: ``consistent``, ``decisions``, ``extension``
        and ``unreached`` (null for an infeasible profile).  An entry's end
        is kept per desire report, which profiles share."""
        members = {i: _member(d.agent, map(str, d.sorted_literals()))
                   for i, d in self.decisions.items()}
        lines = ["        " + _quote(text) for text in self.texts]
        unreached, by_agent = self.unreached_member, attrgetter("agent")
        ends: dict[int, tuple[object, str]] = {}
        for chosen, consistent, report in rows:
            decisions = sorted(chosen, key=by_agent)
            numbers = self.joint_numbers(chosen)
            end = ends.get(id(report))
            if end is None:
                left = "null" if report is None else _members(
                    [unreached(a, report.unreached(a))
                     for a in sorted(report.per_agent)], "{}", 3)
                end = ends[id(report)] = (
                    report, f',\n      "unreached": {left}\n    }}')
            formulas = ("[\n" + ",\n".join([lines[n] for n in numbers])
                        + "\n      ]" if numbers else "[]")
            yield ('    {\n      "consistent": '
                   + ("true" if consistent else "false")
                   + ',\n      "decisions": {\n'
                   + ",\n".join([members[id(d)] for d in decisions])
                   + f'\n      }},\n      "extension": {formulas}{end[1]}')


def _entries(decisions: Extensions, candidates: Sequence[int],
             reports: Sequence[DesireReport | None],
             feasible_only: bool = True) -> Iterator[str]:
    """Each candidate's JSON entry, built as it is read from the columns of
    a product pass over ``decisions`` (``game._product_columns``);
    infeasible candidates are left out when ``feasible_only``."""
    return _Pieces(decisions).entries(
        (chosen, i >= 0, reports[i] if i >= 0 else None)
        for chosen, i in zip(product(*map(tuple, decisions.values())),
                             candidates) if i >= 0 or not feasible_only)


def _report(spec_name: str, command: str, **sections) -> dict:
    """The JSON report: every section present, empty unless given."""
    return {"system": spec_name, "command": command, "profiles": [],
            "solutions": {}, "goal_sets": [], "checks": [], **sections}


def _emit(output_format: str, lines: Callable[[], Iterable[str]],
          report: Callable[[], dict],
          entries: Callable[[], Iterable[str]] = list) -> None:
    """Write the text lines, or the JSON report, to stdout as they are
    built; only the builders of the chosen format run.  The JSON report is
    one ``json.dumps`` of ``report()`` with ``entries()`` written into its
    profiles array, the one top-level key two spaces in (strings encoded
    by ``json.dumps`` hold no newline)."""
    write = sys.stdout.write
    if output_format == "json":
        text = json.dumps(report(), indent=2, sort_keys=True)
        head, empty, tail = text.partition('\n  "profiles": []')
        write(head)
        opened = False
        for entry in entries():
            write((",\n" if opened else '\n  "profiles": [\n') + entry)
            opened = True
        write(("\n  ]" if opened else empty) + tail + "\n")
    else:
        for line in lines():
            write(line + "\n")


def _max_atoms(flag: int | None) -> int | None:
    """The atom cap set by the flag, else by the environment; None leaves
    the spec's option (or the default) in force."""
    env = os.environ.get(ENV_MAX_ATOMS)
    if flag is not None or env is None:
        return flag
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise BdgameError(f"{ENV_MAX_ATOMS}: {exc}") from None


def _load(args: argparse.Namespace) -> AgentSystemSpec:
    """The spec at ``args.path``, with every spec-level flag applied."""
    try:
        with open(args.path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise BdgameError(f"{args.path} is not UTF-8 text: {exc}") from None
    return parse_spec(text).with_options(
        decision_mode=args.decision_mode, max_atoms=_max_atoms(args.max_atoms),
        max_decisions=args.max_decisions, max_profiles=args.max_profiles)


def _require_valid(spec: AgentSystemSpec) -> None:
    errors = [v for v in validate_spec(spec) if v.severity == "error"]
    if errors:
        raise BdgameError(
            "invalid specification:\n" + "\n".join(str(v) for v in errors))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(spec: AgentSystemSpec, args: argparse.Namespace) -> int:
    spec.check_atom_cap()
    violations = validate_spec(spec)

    def lines() -> Iterator[str]:
        if not violations:
            yield f"{spec.name}: OK"
        yield from map(str, violations)
    _emit(args.format, lines, lambda: _report(spec.name, "validate", checks=[
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


def _cmd_extension(spec: AgentSystemSpec, args: argparse.Namespace) -> int:
    _require_valid(spec)
    agent = args.agent
    if agent is None and args.decision is not None:
        raise BdgameError("--decision requires --agent")
    decisions = tuple(_parse_decision(spec, a, args.decision)
                      for a in (spec.agent_ids if agent is None else (agent,)))
    built = {d.agent: {d: agent_extension(spec, d.agent, d)}
             for d in decisions}
    parts = tuple(built[d.agent][d] for d in decisions)
    if agent is None:
        ext = joint_extension(spec, parts=parts)
        candidates, _, reports = _product_columns(spec, built)
    else:  # one agent's own extension has no desire report
        ext = parts[0]
        candidates, reports = (0 if ext.consistent else -1,), (None,)

    def lines() -> Iterator[str]:
        pieces = _Pieces(built)
        if agent is None:
            yield ("joint extension of the initial profile "
                   f"{pieces.profile_text(decisions)}:")
        else:
            yield f"extension for {agent}, decision {decisions[0]}:"
        flag = "consistent" if ext.consistent else "INCONSISTENT"
        yield "  " + pieces.extension_text(decisions)
        yield f"  {flag}; {ext.iterations} productive rounds"
    _emit(args.format, lines, lambda: _report(spec.name, "extension"),
          lambda: _entries(built, candidates, reports, feasible_only=False))
    return EXIT_OK


def _cmd_profiles(spec: AgentSystemSpec, args: argparse.Namespace) -> int:
    _require_valid(spec)
    feasible_only = args.feasible_only
    built = agent_extensions(spec)
    candidates, _, reports = _product_columns(spec, built)

    def lines() -> Iterator[str]:
        pieces = _Pieces(built)
        count = len(reports) if feasible_only else len(candidates)
        yield (f"{count} profiles"
               + (" (feasible only)" if feasible_only else "") + ":")
        shown = ((chosen, i) for chosen, i in zip(
            product(*map(tuple, built.values())), candidates)
            if i >= 0 or not feasible_only)
        for k, (chosen, i) in enumerate(shown):
            flag = "ok" if i >= 0 else "INFEASIBLE"
            yield f"  [{k}] {pieces.profile_text(chosen)} {flag}"
            yield "      extension " + pieces.extension_text(chosen)
            if i >= 0:
                for a in spec.agent_ids:
                    yield pieces.unreached_text(a, reports[i].unreached(a))
    _emit(args.format, lines, lambda: _report(spec.name, "profiles"),
          lambda: _entries(built, candidates, reports, feasible_only))
    return EXIT_OK


def _cmd_solve(spec: AgentSystemSpec, args: argparse.Namespace) -> int:
    _require_valid(spec)
    concept = args.concept
    game = derive_game(spec)
    solution = solve_game(game, concept,
                          fail_infeasible_swaps=_fail_infeasible_swaps(args))

    def lines() -> Iterator[str]:
        pieces = _Pieces(game.feasible_decisions)

        def profile(i: int) -> str:
            return f"[{i}] {pieces.profile_text(game.profile(i).decisions)}"
        yield (f"{concept}: {len(solution.profile_indexes)} of "
               f"{len(game.positions)} feasible profiles")
        for i in solution.profile_indexes:
            yield "  " + profile(i)
        if len(solution.profile_indexes) < len(game.positions):
            yield "excluded:"
        for i, w in enumerate(solution.witness):
            if w is None:
                continue
            parts = [f"agent {w.agent}"] if w.agent is not None else []
            if w.other is not None:
                parts.append("see " + profile(w.other))
            if w.decision is not None:
                parts.append(f"deviation {pieces.literals[id(w.decision)]}")
            yield f"  {profile(i)}: " + ", ".join(parts)
    _emit(args.format, lines, lambda: _report(
        spec.name, "solve",
        solutions={concept: list(solution.profile_indexes)}),
        lambda: _entries(game.feasible_decisions, game.candidates,
                         game.reports))
    return EXIT_OK


def _cmd_goals(spec: AgentSystemSpec, args: argparse.Namespace) -> int:
    family_name = _goals_family(args)
    _require_valid(spec)
    game = derive_game(spec)
    if args.rule is not None:
        family = apply_decision_rule(
            game, args.rule,
            fail_infeasible_swaps=_fail_infeasible_swaps(args))
        label = f"decision rule {args.rule}"
    elif args.via_goals:
        result = pareto_via_goals(game)
        family = (result.pareto_family if family_name == "pareto" else
                  u_closure(game, result.pool))
        label = f"{family_name} family (goals-first pipeline)"
    else:
        family = concept_family(
            game, family_name,
            fail_infeasible_swaps=_fail_infeasible_swaps(args))
        label = f"{family_name} family"
    goal_sets = delta_goal_sets(game, family)
    generators = {gs: list(game.goal_set_members[gs]) for gs in goal_sets}

    def lines() -> Iterator[str]:
        pieces = _Pieces(game.feasible_decisions)
        yield f"{label}: {len(family)} profiles, {len(goal_sets)} goal sets"
        for i in family:
            yield f"  [{i}] {pieces.profile_text(game.profile(i).decisions)}"
        for gi, gs in enumerate(goal_sets):
            yield f"  goal set {gi}: {gs} from profiles {generators[gs]}"
    text = formula_printer()
    _emit(args.format, lines, lambda: _report(
        spec.name, "goals", solutions={"family": family},
        goal_sets=[{"positive": sorted(map(text, gs.positive)),
                    "negative": sorted(map(text, gs.negative)),
                    "generators": generators[gs]}
                   for gs in goal_sets]),
        lambda: _entries(game.feasible_decisions, game.candidates,
                         game.reports))
    return EXIT_OK


def _goals_family(args: argparse.Namespace) -> str:
    """The family ``goals`` reports; flags it would ignore or cannot serve
    are refused before the spec is validated or a game derived."""
    if args.rule is not None:
        for flag, given in (("--family", args.family is not None),
                            ("--via-goals", args.via_goals)):
            if given:
                raise BdgameError(
                    f"--rule selects its own family; drop {flag}")
    family_name = args.family or "all"
    if args.via_goals and family_name not in ("pareto", "all"):
        raise BdgameError("--via-goals supports --family pareto or all")
    return family_name


def _cmd_check(spec: AgentSystemSpec, args: argparse.Namespace) -> int:
    prop = args.property
    for flag, value in (("--seed", args.seed), ("--samples", args.samples)):
        if value is not None and flag not in _CHECK_FLAGS[prop]:
            raise BdgameError(f"--property {prop} does not read {flag}")
    _require_valid(spec)
    if prop == "representation":
        result = check_representation(spec)
    elif prop == "monotonicity":
        result = check_monotonicity(spec, seed=args.seed or 0,
                                    samples=args.samples or 200)
    elif prop == "order-laws":
        result = check_order_laws()
    else:
        result = check_pipeline_equivalence(spec)
    entry = {"name": result.name, "passed": result.passed}
    if result.counterexample is not None:
        entry["counterexample"] = result.counterexample
    _emit(args.format, lambda: [str(result)],
          lambda: _report(spec.name, "check", checks=[entry]))
    return EXIT_OK if result.passed else EXIT_VIOLATIONS


_COMMANDS = {"validate": _cmd_validate, "extension": _cmd_extension,
             "profiles": _cmd_profiles, "solve": _cmd_solve,
             "goals": _cmd_goals, "check": _cmd_check}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_load(args), args)
    except (OSError, BdgameError) as exc:
        print(f"bdgame: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        # A backstop for specs the caps admit but memory does not, such as
        # truth tables over 30 world atoms.
        print("bdgame: out of memory (lower caps refuse such a spec up "
              "front)", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
