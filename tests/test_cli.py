import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import bdgame.cli
import bdgame.decision
import bdgame.game
import bdgame.goals
from bdgame import example_path
from bdgame.cli import _build_parser, main
from bdgame.decision import (Decision, DecisionProfile, agent_extension,
                             desire_report, joint_extension)
from bdgame.game import GameSpecification, agent_extensions, derive_game
from bdgame.game import solve as solve_game
from bdgame.goals import (DECISION_RULES, apply_decision_rule,
                          concept_family, delta_goal_sets, pareto_via_goals,
                          u_closure)
from bdgame.logic import MAX_NESTING, format_formula
from bdgame.model import format_spec, parse_spec
from bdgame.verify import CheckResult, random_spec

from conftest import Evaluated, evaluated_profiles, four_by_three_spec

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(*args, env=None):
    import os
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "bdgame", *args],
        capture_output=True, text=True, env=merged)


def fixture(name):
    return str(example_path(name))


def test_solve_nash_prisoners_text():
    result = run_cli("solve", "--concept", "nash", fixture("prisoners"))
    assert result.returncode == 0
    assert "nash: 1 of 4 feasible profiles" in result.stdout
    assert "<alpha1={!a}, alpha2={!b}>" in result.stdout


def test_solve_dominant_opposed_interests_empty():
    result = run_cli("solve", "--concept", "dominant",
                     fixture("opposed_interests"))
    assert result.returncode == 0
    assert "dominant: 0 of 4" in result.stdout


def test_extension_command_flags_inconsistency():
    result = run_cli("extension", "--agent", "alpha1", "--decision", "a,d,e",
                     fixture("single_agent_priorities"))
    assert result.returncode == 0
    assert "INCONSISTENT" in result.stdout
    for literal in ("!p", "a", "d", "e", "q", "!q"):
        assert literal in result.stdout


def test_extension_of_initial_decision_by_default():
    result = run_cli("extension", "--agent", "alpha1",
                     fixture("single_agent_priorities"))
    assert result.returncode == 0
    assert "{!p, a}" in result.stdout


def test_contradictory_decision_is_inconsistent(capsys):
    # Both polarities of an atom have no model: every belief fires.
    assert main(["extension", "--agent", "alpha1", "--decision", "a,!a",
                 fixture("cooperation")]) == 0
    assert capsys.readouterr().out == (
        "extension for alpha1, decision {a, !a}:\n"
        "  {!a, !p & q, a, p}\n"
        "  INCONSISTENT; 1 productive rounds\n")


def test_bad_input_is_an_input_error_without_traceback(tmp_path):
    latin1 = tmp_path / "latin1.bdg"
    latin1.write_bytes("agent x {\n  atoms a\n}\n# café\n".encode("latin-1"))
    for argv in (["extension", "--agent", "nosuch", fixture("cooperation")],
                 ["validate", str(latin1)]):
        result = run_cli(*argv)
        assert result.returncode == 2, argv
        assert result.stderr.startswith("bdgame: "), result.stderr
        assert "Traceback" not in result.stderr


def test_validate_ok_and_error_exit_codes(tmp_path):
    ok = run_cli("validate", fixture("cooperation"))
    assert ok.returncode == 0
    assert "OK" in ok.stdout

    bad = tmp_path / "bad.bdg"
    bad.write_text("agent x {\n  atoms a\n  belief true => a\n}\nworld p\n",
                   encoding="utf-8")
    broken = run_cli("validate", str(bad))
    assert broken.returncode == 2
    assert "belief-consequent-not-in-L_W" in broken.stdout

    missing = run_cli("validate", str(tmp_path / "nope.bdg"))
    assert missing.returncode == 2
    assert missing.stderr.strip()


def test_parse_error_goes_to_stderr(tmp_path):
    bad = tmp_path / "syntax.bdg"
    bad.write_text("agent x {\n  atoms a\n  belief a =>\n}\n",
                   encoding="utf-8")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "line 3" in result.stderr


NESTED_SHAPES = {
    "parentheses": lambda n: "(" * n + "b" + ")" * n,
    "negations": lambda n: "!" * n + "b",
    "conjunctions": lambda n: " & ".join(["b"] * (n + 1)),
    "implications": lambda n: " -> ".join(["b"] * (n + 1)),
}


def test_formulas_nest_up_to_the_bound_and_no_deeper(tmp_path, capsys):
    """A desire formula nested ``MAX_NESTING`` deep runs through every
    command that walks it; one level more is a syntax error on its line,
    exit 2, never a RecursionError."""
    commands = (("validate",), ("solve", "--concept", "nash"),
                ("goals", "--via-goals", "--family", "pareto"),
                ("check", "--property", "representation"))
    spec = tmp_path / "deep.bdg"
    for shape, nested in NESTED_SHAPES.items():
        for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
            spec.write_text(
                "agent alpha1 {\n  atoms a\n  desire d1: true => a\n}\n"
                "agent alpha2 {\n  atoms b\n"
                f"  desire d2: true => {nested(depth)}\n}}\n",
                encoding="utf-8")
            for command in commands:
                assert main([*command, str(spec)]) == code, (shape, depth)
                err = capsys.readouterr().err
                if code:
                    assert err.startswith("bdgame: line 7: formula nested "
                                          "deeper than"), err


def test_profiles_feasible_only(tmp_path):
    full = run_cli("profiles", fixture("interdependence"), "--format", "json")
    only = run_cli("profiles", fixture("interdependence"), "--format",
                   "json", "--feasible-only")
    all_entries = json.loads(full.stdout)["profiles"]
    feasible = json.loads(only.stdout)["profiles"]
    assert len(all_entries) == 4
    assert len(feasible) == 3
    assert all(e["consistent"] for e in feasible)
    assert any(not e["consistent"] for e in all_entries)
    infeasible = next(e for e in all_entries if not e["consistent"])
    assert infeasible["unreached"] is None


def test_json_is_byte_stable_and_parallelism_neutral():
    runs = [run_cli("solve", "--concept", "pareto", "--format", "json",
                    fixture("prisoners")).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    report = json.loads(runs[0])
    assert report["solutions"] == {"pareto": [0, 1, 2]}
    assert set(report) == {"system", "command", "profiles", "solutions",
                           "goal_sets", "checks"}


def test_goals_json_schema():
    result = run_cli("goals", "--family", "nash", "--format", "json",
                     fixture("prisoners"))
    report = json.loads(result.stdout)
    assert report["goal_sets"] == [{
        "positive": ["!(!a & b)", "!(a & !b)"],
        "negative": [],
        "generators": [3],
    }]
    assert report["solutions"] == {"family": [3]}


def test_goals_via_goals_matches_direct_pareto():
    direct = run_cli("goals", "--family", "pareto", "--format", "json",
                     fixture("cooperation"))
    via = run_cli("goals", "--family", "pareto", "--via-goals", "--format",
                  "json", fixture("cooperation"))
    assert direct.returncode == via.returncode == 0
    assert json.loads(direct.stdout)["solutions"] == \
        json.loads(via.stdout)["solutions"]


def test_goals_decision_rule():
    result = run_cli("goals", "--rule", "nash-else-pareto",
                     fixture("prisoners"))
    assert result.returncode == 0
    assert "decision rule nash-else-pareto: 1 profiles" in result.stdout


@pytest.mark.parametrize("policy, family", [
    ("skip", "nash family: 2 profiles"),
    ("fail", "pareto family: 3 profiles"),
])
def test_nash_else_pareto_follows_the_infeasible_swaps_policy(policy, family,
                                                               capsys):
    # Under "fail" interdependence has no Nash profile, so the rule falls
    # back to its three Pareto profiles.
    spec = fixture("interdependence")
    swaps = ("--infeasible-swaps", policy)
    assert main(["goals", "--family", "nash", *swaps, spec]) == 0
    assert capsys.readouterr().out.startswith("nash family: 0 profiles") \
        == (policy == "fail")
    concept = family.split()[0]
    assert main(["goals", "--family", concept, *swaps, spec]) == 0
    expected = capsys.readouterr().out
    assert expected.startswith(family)
    assert main(["goals", "--rule", "nash-else-pareto", *swaps, spec]) == 0
    assert capsys.readouterr().out == expected.replace(
        f"{concept} family", "decision rule nash-else-pareto", 1)


@pytest.mark.parametrize("flags, dropped", [
    (("--rule", "bd-rational", "--via-goals"), "--via-goals"),
    (("--rule", "bd-rational", "--family", "pareto"), "--family"),
    (("--rule", "nash-else-pareto", "--family", "all"), "--family"),
])
def test_goals_refuses_flags_it_would_drop(flags, dropped, capsys):
    assert main(["goals", *flags, fixture("cooperation")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bdgame: ") and dropped in captured.err


def test_goals_refuses_a_via_goals_family_before_deriving_the_game(capsys):
    # Under a cap of 1 the game cannot be derived: any other error means
    # the spec was worked on before the flags were checked.
    assert main(["goals", "--via-goals", "--family", "nash",
                 "--max-profiles", "1", fixture("prisoners")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "bdgame: --via-goals supports --family pareto or all\n"


def test_check_commands_pass():
    for prop, flags in (("representation", ()),
                        ("monotonicity", ("--samples", "50")),
                        ("order-laws", ()), ("pipeline-equivalence", ())):
        result = run_cli("check", "--property", prop, *flags,
                         fixture("cooperation"))
        assert result.returncode == 0, (prop, result.stdout, result.stderr)
        assert "PASS" in result.stdout


def test_representation_counts_one_singleton_closure_per_feasible_profile(
        capsys):
    # cooperation has 8 feasible profiles: the check examines each one's
    # class, and no other family.
    assert main(["check", "--property", "representation",
                 fixture("cooperation")]) == 0
    assert capsys.readouterr().out == "PASS representation: 8 instances\n"


def test_check_seed_reproducibility():
    first = run_cli("check", "--property", "monotonicity", "--seed", "9",
                    "--format", "json", fixture("prisoners"))
    second = run_cli("check", "--property", "monotonicity", "--seed", "9",
                     "--format", "json", fixture("prisoners"))
    assert first.stdout == second.stdout


def test_atom_cap_env_var():
    result = run_cli("solve", "--concept", "nash",
                     fixture("single_agent_priorities"),
                     env={"BDGAME_MAX_ATOMS": "3"})
    assert result.returncode == 2
    assert "enumeration bound" in result.stderr
    relaxed = run_cli("solve", "--concept", "nash",
                      fixture("single_agent_priorities"),
                      env={"BDGAME_MAX_ATOMS": "12"})
    assert relaxed.returncode == 0


FOUR_ATOMS = ("agent x {\n  atoms a b\n  desire d: true => p & q\n}\n"
              "world p q\n")


def cli_exit(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code


def test_atom_cap_precedence_flag_env_spec_default(tmp_path, monkeypatch,
                                                   capsys):
    plain = tmp_path / "plain.bdg"
    plain.write_text(FOUR_ATOMS, encoding="utf-8")
    capped = tmp_path / "capped.bdg"
    capped.write_text("option max_atoms = 3\n" + FOUR_ATOMS, encoding="utf-8")
    wide = tmp_path / "wide.bdg"
    wide.write_text("agent x {\n  atoms a\n}\nworld "
                    + " ".join(f"w{i}" for i in range(24)) + "\n",
                    encoding="utf-8")

    def solve(path, *flags):
        return cli_exit("solve", "--concept", "nash", *flags, str(path))

    monkeypatch.delenv("BDGAME_MAX_ATOMS", raising=False)
    assert solve(wide) == 2  # 25 atoms over the default cap of 24
    assert solve(plain) == 0
    assert solve(capped) == 2  # the spec option beats the default
    monkeypatch.setenv("BDGAME_MAX_ATOMS", "4")
    assert solve(capped) == 0  # the environment beats the spec option
    assert solve(capped, "--max-atoms", "3") == 2  # the flag beats both
    monkeypatch.setenv("BDGAME_MAX_ATOMS", "3")
    assert solve(plain) == 2
    assert solve(plain, "--max-atoms", "4") == 0
    assert "enumeration bound" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-3", ""])
def test_bad_atom_cap_env_value_is_an_input_error(value, monkeypatch):
    monkeypatch.setenv("BDGAME_MAX_ATOMS", value)
    result = run_cli("validate", fixture("cooperation"))
    assert result.returncode == 2
    assert result.stderr.startswith("bdgame: BDGAME_MAX_ATOMS")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["check", "--property", "monotonicity", "--samples", "0"],
    ["solve", "--concept", "nash", "--max-atoms", "0"],
    ["solve", "--concept", "nash", "--max-decisions", "-1"],
    ["profiles", "--max-profiles", "0"],
    ["profiles", "--max-profiles", "many"],
])
def test_non_positive_counts_and_caps_are_rejected(argv, capsys):
    assert cli_exit(*argv, fixture("prisoners")) == 2
    assert "PASS" not in capsys.readouterr().out


# Each flag lives on the commands that read it: --seed on check,
# --infeasible-swaps on solve and goals; goals --all (an alias of the
# default family) is gone.
@pytest.mark.parametrize("command, flag", [
    *((command, ("--seed", "1")) for command in (
        ("validate",), ("extension",), ("profiles",),
        ("solve", "--concept", "nash"), ("goals",))),
    *((command, ("--infeasible-swaps", "fail")) for command in (
        ("validate",), ("extension",), ("profiles",),
        ("check", "--property", "order-laws"))),
    (("goals",), ("--all",)),
], ids=lambda value: value[0])
def test_a_flag_the_command_does_not_read_is_refused(command, flag, capsys):
    assert cli_exit(*command, fixture("prisoners"), *flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(flag)}\n" \
        in captured.err
    assert "Traceback" not in captured.err


# check reads --seed and --samples on monotonicity alone; the other
# properties draw nothing and refuse them.
@pytest.mark.parametrize("prop, flag", [
    ("order-laws", ("--seed", "3")),
    ("order-laws", ("--samples", "5")),
    ("pipeline-equivalence", ("--seed", "3")),
    ("pipeline-equivalence", ("--samples", "5")),
    ("representation", ("--seed", "3")),
    ("representation", ("--samples", "5")),
], ids=["order-laws-seed", "order-laws-samples", "pipeline-equivalence-seed",
        "pipeline-equivalence-samples", "representation-seed",
        "representation-samples"])
def test_a_check_property_refuses_the_flags_it_does_not_read(prop, flag,
                                                            capsys):
    assert cli_exit("check", "--property", prop, *flag,
                    fixture("prisoners")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"bdgame: --property {prop} does not read {flag[0]}\n"


def test_the_moved_flags_change_the_output_where_they_are_read(
        monkeypatch, capsys):
    def out(*argv):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    # interdependence has two Nash profiles when infeasible swaps are
    # skipped (the default) and none when they fail the candidate.  The
    # nash-else-pareto policy test above covers the flag on goals.
    spec = fixture("interdependence")
    for flags, head in (((), "nash: 2 of 3"),
                        (("--infeasible-swaps", "skip"), "nash: 2 of 3"),
                        (("--infeasible-swaps", "fail"), "nash: 0 of 3")):
        assert out("solve", "--concept", "nash", *flags, spec).startswith(
            head)

    # A seeded check that passes prints no draw, so it is stubbed by one
    # that prints its seed.
    monkeypatch.setattr(
        bdgame.cli, "check_monotonicity",
        lambda spec, seed, **kwargs: CheckResult("monotonicity", True, 1,
                                                 f"seed {seed}"))
    for flags, seed in (((), 0), (("--seed", "7"), 7)):
        assert out("check", "--property", "monotonicity", *flags, spec) == \
            f"PASS monotonicity: 1 instances (seed {seed})\n"


# cooperation: 4 candidate decisions per agent, 3 of them feasible, so 16
# candidate profiles and 9 from feasible decisions.
@pytest.mark.parametrize("command, profiles", [
    (("solve", "--concept", "nash"), 9),
    (("goals",), 9),
    (("profiles",), 16),
    (("check", "--property", "representation"), 9),
    (("check", "--property", "pipeline-equivalence"), 9),
])
def test_enumeration_caps_hold_on_every_command(command, profiles, capsys):
    path = fixture("cooperation")
    assert main([*command, "--max-profiles", "2", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bdgame: {profiles} candidate profiles (cap 2)\n"
    assert main([*command, "--max-decisions", "1", path]) == 2
    assert capsys.readouterr().err == (
        "bdgame: agent 'alpha1' has 4 candidate decisions (cap 1)\n")
    assert main([*command, "--max-profiles", str(profiles), path]) == 0


def test_decision_mode_override():
    result = run_cli("profiles", "--decision-mode", "total-assignments",
                     "--format", "json", fixture("interdependence"))
    report = json.loads(result.stdout)
    assert len(report["profiles"]) == 4
    for entry in report["profiles"]:
        assert all(len(lits) == 1 for lits in entry["decisions"].values())


@pytest.mark.parametrize("case", sorted(
    p.stem for p in GOLDEN_DIR.glob("*.json")))
def test_golden_reports(case):
    spec_name, _, rest = case.partition("__")
    args = rest.split("_")
    result = run_cli(*args, "--format", "json", fixture(spec_name))
    expected = (GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8")
    assert result.stdout == expected


IN_PROCESS_RUNS = [
    ("solve", "--concept", "pareto", "--format", "json", fixture("prisoners")),
    ("goals", "--family", "nash", fixture("cooperation")),
    ("profiles", "--feasible-only", "--decision-mode", "total-assignments",
     fixture("interdependence")),
    ("extension", "--agent", "alpha1", "--decision", "a,d,e",
     fixture("single_agent_priorities")),
    ("solve", "--concept", "dominant", "--max-atoms", "12", "--format", "json",
     fixture("opposed_interests")),
    ("validate", fixture("conflicting_beliefs")),
]


def test_reused_parser_matches_fresh_runs(capsys, monkeypatch):
    monkeypatch.delenv("BDGAME_MAX_ATOMS", raising=False)
    in_process = []
    for argv in IN_PROCESS_RUNS:
        assert main(list(argv)) == 0
        in_process.append(capsys.readouterr().out)
    assert _build_parser() is _build_parser()
    for argv, out in zip(IN_PROCESS_RUNS, in_process):
        fresh = run_cli(*argv)
        assert fresh.returncode == 0
        assert out == fresh.stdout, argv


def test_parser_is_not_built_at_import():
    probe = ("import bdgame.cli as cli; "
             "print(cli._build_parser.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.stdout.strip() == "0", result.stderr


def test_profiles_builds_each_agent_extension_once(monkeypatch, capsys):
    built = Counter()

    def counting(spec, agent_id, decision):
        built[agent_id, decision] += 1
        return agent_extension(spec, agent_id, decision)

    monkeypatch.setattr(bdgame.game, "agent_extension", counting)
    monkeypatch.setattr(bdgame.decision, "agent_extension", counting)
    assert main(["profiles", "--format", "json", fixture("cooperation")]) == 0
    assert len(json.loads(capsys.readouterr().out)["profiles"]) == 16
    assert len(built) == 8
    assert set(built.values()) == {1}


TEXT_REPORTS = {
    ("solve", "--concept", "nash", fixture("prisoners")):
        "nash: 1 of 4 feasible profiles\n"
        "  [3] <alpha1={!a}, alpha2={!b}>\n"
        "excluded:\n"
        "  [0] <alpha1={a}, alpha2={b}>: agent alpha1, "
        "see [2] <alpha1={!a}, alpha2={b}>, deviation {!a}\n"
        "  [1] <alpha1={a}, alpha2={!b}>: agent alpha1, "
        "see [3] <alpha1={!a}, alpha2={!b}>, deviation {!a}\n"
        "  [2] <alpha1={!a}, alpha2={b}>: agent alpha2, "
        "see [3] <alpha1={!a}, alpha2={!b}>, deviation {!b}\n",
    ("goals", "--family", "pareto", fixture("cooperation")):
        "pareto family: 1 profiles, 1 goal sets\n"
        "  [0] <alpha1={a}, alpha2={c}>\n"
        "  goal set 0: <+{p & q}, -{}> from profiles [0]\n",
}


def test_text_mode_never_builds_the_report(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the JSON report was built in text mode")

    monkeypatch.setattr(bdgame.cli, "_report", refuse)
    monkeypatch.setattr(bdgame.cli, "_entries", refuse)
    for argv, expected in TEXT_REPORTS.items():
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == expected


EXAMPLES = sorted(p.name.removesuffix(".bdg") for p in
                  example_path("prisoners").parent.iterdir()
                  if p.name.endswith(".bdg"))
CONCEPT_NAMES = ("pareto", "strong-pareto", "dominant", "nash")


def test_json_mode_formats_no_text(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__} formatted in JSON mode")

    monkeypatch.setattr(bdgame.decision.DecisionProfile, "__str__", refuse)
    monkeypatch.setattr(bdgame.game.GoalSet, "__str__", refuse)
    commands = [("profiles",), ("goals",),
                *(("solve", "--concept", c) for c in CONCEPT_NAMES)]
    assert len(EXAMPLES) == 6
    for name in EXAMPLES:
        for command in commands:
            assert main([*command, "--format", "json", fixture(name)]) == 0
            assert json.loads(capsys.readouterr().out)["profiles"]


HASH_SEED_DRIVER = """
import json, runpy, sys
for argv in json.loads(sys.argv[1]):
    sys.argv = ["bdgame", *argv]
    try:
        runpy.run_module("bdgame", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        print(f"exit {exc.code}")
"""


def test_output_is_independent_of_the_hash_seed():
    """Set and dict orders of strings change with PYTHONHASHSEED, which the
    benchmark pins; every report must not.  Each hash seed runs every
    command as ``python -m bdgame`` would, in one process."""
    argvs = [[*command, *fmt, fixture(name)] for name in EXAMPLES
             for command, formats in (
                 *((("solve", "--concept", c), ((), ("--format", "json")))
                   for c in CONCEPT_NAMES),
                 (("goals",), ((), ("--format", "json"))),
                 (("profiles",), ((),)), (("extension",), ((),)))
             for fmt in formats]
    assert len(argvs) == 6 * 12
    src = str(Path(bdgame.cli.__file__).parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("BDGAME_MAX_ATOMS", "PYTHONPATH")}
        env.update(PYTHONHASHSEED=seed, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", HASH_SEED_DRIVER, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("exit 0") == len(argvs)
    assert outputs[0] == outputs[1]


NOTHING_FEASIBLE = "agent x {\n  fact p\n  belief true => !p\n}\nworld p\n"


@pytest.mark.parametrize("prop", ["representation", "pipeline-equivalence"])
def test_check_that_examined_nothing_does_not_pass(prop, tmp_path, capsys):
    path = tmp_path / "nothing.bdg"
    path.write_text(NOTHING_FEASIBLE, encoding="utf-8")
    assert main(["check", "--property", prop, str(path)]) == 1
    out = capsys.readouterr().out
    assert "nothing to check: no feasible profile" in out
    assert "PASS" not in out
    assert main(["check", "--property", prop, "--format", "json",
                 str(path)]) == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["passed"] is False


WIDE_SPEC = Path(__file__).parent / "specs" / "wide_vocabulary.bdg"


def test_wide_vocabulary_solves_on_world_masks(monkeypatch, capsys):
    monkeypatch.delenv("BDGAME_MAX_ATOMS", raising=False)
    spec = parse_spec(WIDE_SPEC.read_text(encoding="utf-8"))
    assert len(spec.vocabulary) > 24 and len(spec.world_atoms) <= 16
    # The cap counts the declared vocabulary, not the mask universe.
    assert main(["solve", "--concept", "nash", str(WIDE_SPEC)]) == 2
    assert "26 atoms exceed" in capsys.readouterr().err
    for concept in ("pareto", "nash"):
        assert main(["solve", "--concept", concept, "--max-atoms", "32",
                     "--format", "json", str(WIDE_SPEC)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["profiles"]) == 576
        assert report["solutions"][concept]
    wide = spec.with_options(max_atoms=32)
    assert len(derive_game(wide).positions) == 576
    # The masks that remain are the agent extensions', over the world
    # atoms that a fact or belief consequent mentions.
    built = agent_extensions(wide)
    assert sum(map(len, built.values())) > 0
    for decisions in built.values():
        for ext in decisions.values():
            assert ext.models.bit_length() <= 2 ** len(wide.mask_atoms)


def test_validate_applies_the_atom_cap(monkeypatch, capsys):
    monkeypatch.delenv("BDGAME_MAX_ATOMS", raising=False)
    assert main(["validate", str(WIDE_SPEC)]) == 2
    assert "26 atoms exceed the enumeration bound of 24" in \
        capsys.readouterr().err
    assert main(["validate", "--max-atoms", "32", str(WIDE_SPEC)]) == 0
    assert capsys.readouterr().out == "wide vocabulary: OK\n"


# ---------------------------------------------------------------------------
# JSON reports: entries from shared pieces against one dump of the whole
# ---------------------------------------------------------------------------

def ref_profile_entry(ep):
    """A profile's entry as a dict, built from the profile's own joint
    extension and desire report."""
    entry = {
        "decisions": {d.agent: [str(lit) for lit in d.sorted_literals()]
                      for d in ep.profile.decisions},
        "extension": sorted(format_formula(f) for f in ep.extension.formulas),
        "consistent": ep.extension.consistent,
        "unreached": None,
    }
    if ep.report is not None:
        entry["unreached"] = {a: sorted(status.unreached)
                              for a, status in ep.report.per_agent.items()}
    return entry


def ref_evaluated(spec, command):
    """The profiles the report of ``command`` on ``spec`` holds, from the
    reference view: for ``extension``, the initial profile, or one agent's
    initial decision with its own extension and no report; every candidate
    profile for ``profiles``; the feasible ones otherwise."""
    args = _build_parser().parse_args([*command, "spec.bdg"])
    if args.command == "extension":
        profile = DecisionProfile(tuple(
            Decision(a.id, frozenset(a.initial_decision))
            for a in spec.agents if args.agent in (None, a.id)))
        if args.agent is not None:
            return [Evaluated(profile, agent_extension(
                spec, args.agent, profile.decisions[0]), None)]
        ext = joint_extension(spec, profile)
        return [Evaluated(profile, ext, desire_report(spec, profile, ext)
                          if ext.consistent else None)]
    every = args.command == "profiles" and not args.feasible_only
    return evaluated_profiles(spec, feasible_only=not every)


def ref_emit(output_format, lines, report, entries=list):
    """The report as one ``json.dumps`` of a dict that holds every entry."""
    assert output_format == "json"
    data = report()
    data["profiles"] = entries()
    print(json.dumps(data, indent=2, sort_keys=True))


# Agent ids out of sorted order (uppercase sorts first), a non-ASCII name
# with a '#' in it, and unreached sets of one and two desires.
UNSORTED_AGENTS = """\
system "Spiel für zwei — 博弈 #1"  # a comment
option decision_mode = total-assignments
agent zeta {
  atoms z1 z2
  priority ranked
  belief z1 => p
  belief z2 => !q
  desire d_pq [rank=2]: true => p & q
  desire d_r [rank=1]: z2 => !r
}
agent Mid {
  atoms m
  priority identity
  belief m => q | r
  desire true => q
}
agent alpha {
  atoms x
  priority identity
  fact r
  belief x => !p
  desire x => p
}
world p q r
"""

# Each agent's only decision is feasible, their one profile is not.
NOTHING_JOINTLY_FEASIBLE = """\
system "nothing jointly feasible"
agent x {
  atoms a
  belief a => p
  desire true => p
  initial a
}
agent y {
  atoms c
  belief c => !p
  desire true => !p
  initial c
}
world p
"""


def json_commands(spec):
    yield ("extension",)
    for agent in spec.agent_ids:
        yield ("extension", "--agent", agent)
    yield ("profiles",)
    yield ("profiles", "--feasible-only")
    for concept in CONCEPT_NAMES:
        yield ("solve", "--concept", concept)
    yield ("goals", "--family", "pareto")
    yield ("goals", "--family", "pareto", "--via-goals")
    for rule in DECISION_RULES:
        yield ("goals", "--rule", rule)


def test_json_reports_match_one_dump_of_the_whole_report(
        tmp_path, monkeypatch, capsys):
    paths = [fixture(name) for name in EXAMPLES]
    for name, text in (("unsorted", UNSORTED_AGENTS),
                       ("jointly", NOTHING_JOINTLY_FEASIBLE),
                       ("nothing", NOTHING_FEASIBLE)):
        paths.append(tmp_path / f"{name}.bdg")
        paths[-1].write_text(text, encoding="utf-8")
    rng = random.Random(4242)
    for k in range(50):
        paths.append(tmp_path / f"seeded{k}.bdg")
        paths[-1].write_text(format_spec(random_spec(
            rng, max_agents=3, max_decision_atoms=2, max_rules=4)),
            encoding="utf-8")
    seen, unsorted_keys = Counter(), 0
    for path in paths:
        spec = parse_spec(Path(path).read_text(encoding="utf-8"))
        agents_unsorted = list(spec.agent_ids) != sorted(spec.agent_ids)
        for command in json_commands(spec):
            argv = [*command, "--format", "json", str(path)]
            code = main(argv)
            got = capsys.readouterr()
            expected = [ref_profile_entry(ep)
                        for ep in ref_evaluated(spec, command)]
            with monkeypatch.context() as patched:
                patched.setattr(bdgame.cli, "_emit", ref_emit)
                patched.setattr(bdgame.cli, "_entries",
                                lambda *args, **kwargs: expected)
                assert main(argv) == code
                assert capsys.readouterr() == got, argv
            assert code == 0, got.err
            report = json.loads(got.out)
            entries = report["profiles"]
            seen["reports"] += 1
            seen["empty"] += not entries
            seen["non-ascii"] += "\\u" in got.out
            for entry in entries:
                seen["entries"] += 1
                seen["agents unsorted"] += agents_unsorted
                seen["infeasible"] += entry["unreached"] is None
                unsorted_keys += (list(entry["decisions"])
                                  != sorted(entry["decisions"]))
                seen["empty unreached"] += any(
                    not u for u in (entry["unreached"] or {}).values())
    assert seen["reports"] >= 59 * 12
    assert seen["entries"] >= 5_000
    assert min(seen.values()) >= 10, seen
    # json.loads keeps the printed key order: every key list came out sorted.
    assert unsorted_keys == 0


def test_json_runs_build_joint_formula_sets_only_where_goals_read_them(
        tmp_path, monkeypatch, capsys):
    """``joint_extension`` builds a profile's joint formula sets.  Outside
    the game's product pass, which calls it once per distinct tuple of part
    masks (``test_game``), no ``solve`` report, text or JSON, and no
    ``profiles`` report calls it: their entries print the agents'
    extensions.  The text ``extension`` report calls it once, for the
    formulas, flag and round count it prints.  ``goals --via-goals`` never
    calls it: its goal-basedness decider ANDs the parts' masks itself, so
    that it checks the pass without leaning on it."""
    joined, decided = Counter(), Counter()
    goal_decider = bdgame.goals._goal_decider

    def counting(spec, profile=None, parts=None):
        joined["calls"] += 1
        return joint_extension(spec, profile, parts)

    def recording(game):
        decide = goal_decider(game)

        def recorded(index, goals):
            decided[bool(goals.positive or goals.negative)] += 1
            return decide(index, goals)
        return recorded
    for module in (bdgame.decision, bdgame.cli):
        monkeypatch.setattr(module, "joint_extension", counting)
    monkeypatch.setattr(bdgame.goals, "_goal_decider", recording)
    paths = [fixture(name) for name in EXAMPLES]
    rng = random.Random(2020)
    for k in range(20):
        paths.append(tmp_path / f"seeded{k}.bdg")
        paths[-1].write_text(format_spec(random_spec(
            rng, max_agents=3, max_decision_atoms=2, max_rules=4)),
            encoding="utf-8")
    solved = texts = 0
    for path in paths:
        for concept in CONCEPT_NAMES:
            assert main(["solve", "--concept", concept, "--format", "json",
                         str(path)]) == 0
            solved += len(json.loads(capsys.readouterr().out)["profiles"])
            assert not joined
        for command in (*(("solve", "--concept", c) for c in CONCEPT_NAMES),
                        ("profiles",)):
            assert main([*command, str(path)]) == 0
            texts += capsys.readouterr().out.count("\n")
            assert not joined, command
        assert main(["extension", str(path)]) == 0
        texts += capsys.readouterr().out.count("\n")
        assert joined == {"calls": 1}
        joined.clear()
        assert main(["goals", "--family", "pareto", "--via-goals",
                     "--format", "json", str(path)]) == 0
        capsys.readouterr()
        assert not joined
    # Goal-basedness decisions with a goal to entail, which the oracle
    # answers from the AND of the parts' masks.
    assert solved >= 1_000 and decided[True] >= 200 and texts >= 2_000


def test_json_solve_reads_the_columns_and_builds_no_profile_objects(
        tmp_path, monkeypatch, capsys):
    """A JSON ``solve`` prints its entries from the game's columns and
    builds no ``DecisionProfile``: the product pass decides joint
    consistency with ``joint_extension`` of the parts alone.  Nor does a
    JSON ``goals`` report, of any family or rule: a family holds feasible
    indexes, and no report looks a profile up with ``index_of``.  No
    ``solve`` report, text or JSON, of any concept, and no text ``goals
    --family pareto`` report calls ``joint_extension`` outside that pass,
    at the ``decision`` or ``cli`` binding (``goals`` imports none): the
    text reports print each profile from the decisions of
    ``GameSpecification.profile``.
    """
    paths = [fixture(name) for name in EXAMPLES]
    rng = random.Random(2021)
    for k in range(30):
        paths.append(tmp_path / f"seeded{k}.bdg")
        paths[-1].write_text(format_spec(random_spec(
            rng, max_agents=3, max_decision_atoms=2, max_rules=4)),
            encoding="utf-8")
    built = Counter()
    init = DecisionProfile.__init__

    def counting(self, *args, **kwargs):
        built["profiles"] += 1
        init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a report built a joint extension")

    def look_up(*args, **kwargs):
        raise AssertionError("a report looked a profile up")
    monkeypatch.setattr(DecisionProfile, "__init__", counting)
    monkeypatch.setattr(GameSpecification, "index_of", look_up)
    for module in (bdgame.decision, bdgame.cli):
        monkeypatch.setattr(module, "joint_extension", refuse)
    entries = texts = members = 0
    for path in paths:
        for concept in CONCEPT_NAMES:
            built.clear()
            assert main(["solve", "--concept", concept, "--format", "json",
                         str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert built["profiles"] == 0
            entries += len(report["profiles"])
        for flags in (*(("--family", f) for f in (*CONCEPT_NAMES, "all")),
                      *(("--rule", r) for r in DECISION_RULES)):
            built.clear()
            assert main(["goals", *flags, "--format", "json",
                         str(path)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert built["profiles"] == 0, flags
            members += len(report["solutions"]["family"])
        for command in (*(("solve", "--concept", c) for c in CONCEPT_NAMES),
                        ("goals", "--family", "pareto")):
            assert main([*command, str(path)]) == 0
            texts += capsys.readouterr().out.count("\n")
    assert entries >= 1_200 and texts >= 1_500 and members >= 1_500


# ---------------------------------------------------------------------------
# Text reports: the shared pieces against per-profile formatting
# ---------------------------------------------------------------------------

def ref_text(spec, command):
    """The text report of ``command`` on ``spec``, from the reference view
    (``ref_evaluated``): each profile formatted on its own with ``str`` and
    its joint extension's formulas sorted."""
    args = _build_parser().parse_args([*command, "spec.bdg"])
    shown = ref_evaluated(spec, command)

    def formulas(ext):
        return ("{" + ", ".join(sorted(format_formula(f)
                                       for f in ext.formulas)) + "}")
    lines = []
    if args.command == "extension":
        (ep,) = shown
        if args.agent is None:
            lines.append(
                f"joint extension of the initial profile {ep.profile}:")
        else:
            lines.append(f"extension for {args.agent}, decision "
                         f"{ep.profile.decisions[0]}:")
        ext = ep.extension
        flag = "consistent" if ext.consistent else "INCONSISTENT"
        lines.append("  " + formulas(ext))
        lines.append(f"  {flag}; {ext.iterations} productive rounds")
    elif args.command == "profiles":
        lines.append(f"{len(shown)} profiles"
                     + (" (feasible only)" if args.feasible_only else "")
                     + ":")
        for i, ep in enumerate(shown):
            flag = "ok" if ep.extension.consistent else "INFEASIBLE"
            lines.append(f"  [{i}] {ep.profile} {flag}")
            lines.append("      extension " + formulas(ep.extension))
            if ep.report is not None:
                for a in spec.agent_ids:
                    unreached = ", ".join(sorted(ep.report.unreached(a)))
                    lines.append(f"      unreached[{a}]: {unreached or '-'}")
    elif args.command == "solve":
        game = derive_game(spec)
        solution = solve_game(
            game, args.concept,
            fail_infeasible_swaps=args.infeasible_swaps == "fail")
        lines.append(f"{args.concept}: {len(solution.profile_indexes)} of "
                     f"{len(shown)} feasible profiles")
        for i in solution.profile_indexes:
            lines.append(f"  [{i}] {shown[i].profile}")
        excluded = [(i, w) for i, w in enumerate(solution.witness)
                    if w is not None]
        if excluded:
            lines.append("excluded:")
        for i, w in excluded:
            parts = []
            if w.agent is not None:
                parts.append(f"agent {w.agent}")
            if w.other is not None:
                parts.append(f"see [{w.other}] {shown[w.other].profile}")
            if w.decision is not None:
                parts.append(f"deviation {w.decision}")
            lines.append(f"  [{i}] {shown[i].profile}: " + ", ".join(parts))
    else:
        game = derive_game(spec)
        name = args.family or "all"
        if args.rule is not None:
            family = apply_decision_rule(
                game, args.rule,
                fail_infeasible_swaps=args.infeasible_swaps == "fail")
            label = f"decision rule {args.rule}"
        elif args.via_goals:
            result = pareto_via_goals(game)
            family = (result.pareto_family if name == "pareto" else
                      u_closure(game, result.pool))
            label = f"{name} family (goals-first pipeline)"
        elif name == "all":
            family = tuple(range(len(shown)))
            label = "all family"
        else:
            family = concept_family(
                game, name,
                fail_infeasible_swaps=args.infeasible_swaps == "fail")
            label = f"{name} family"
        goal_sets = delta_goal_sets(game, family)
        indexes = sorted(family)
        lines.append(f"{label}: {len(indexes)} profiles, "
                     f"{len(goal_sets)} goal sets")
        for i in indexes:
            lines.append(f"  [{i}] {shown[i].profile}")
        for gi, gs in enumerate(goal_sets):
            generators = [i for i in indexes if game.goal_sets[i] == gs]
            lines.append(f"  goal set {gi}: {gs} from profiles {generators}")
    return "\n".join(lines) + "\n"


def test_text_reports_match_per_profile_formatting(tmp_path, capsys):
    paths = [fixture(name) for name in EXAMPLES]
    for name, text in (("unsorted", UNSORTED_AGENTS),
                       ("jointly", NOTHING_JOINTLY_FEASIBLE),
                       ("nothing", NOTHING_FEASIBLE)):
        paths.append(tmp_path / f"{name}.bdg")
        paths[-1].write_text(text, encoding="utf-8")
    rng = random.Random(4242)
    for k in range(50):
        paths.append(tmp_path / f"seeded{k}.bdg")
        paths[-1].write_text(format_spec(random_spec(
            rng, max_agents=3, max_decision_atoms=2, max_rules=4)),
            encoding="utf-8")
    seen = Counter()
    for path in paths:
        spec = parse_spec(Path(path).read_text(encoding="utf-8"))
        for command in json_commands(spec):
            assert main([*command, str(path)]) == 0
            out = capsys.readouterr().out
            assert out == ref_text(spec, command), (command, path)
            seen[command[0]] += 1
            seen["lines"] += out.count("\n")
            seen["inconsistent"] += "INCONSISTENT" in out
            seen["infeasible"] += "INFEASIBLE" in out
            seen["excluded"] += "excluded:" in out
    assert seen["lines"] >= 10_000
    assert min(seen.values()) >= 5, seen


def four_by_three_file(tmp_path):
    path = tmp_path / "four_by_three.bdg"
    path.write_text(format_spec(four_by_three_spec()), encoding="utf-8")
    return str(path)


class Discard:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command", [
    ("solve", "--concept", "nash", "--format", "json"), ("profiles",)])
def test_reports_are_written_as_they_are_built(command, tmp_path,
                                               monkeypatch):
    """Writing a report costs its game and its pieces, not the report:
    4,096 profiles, about 3 MiB of JSON, into a stdout that keeps
    nothing."""
    monkeypatch.delenv("BDGAME_MAX_ATOMS", raising=False)
    path = four_by_three_file(tmp_path)
    monkeypatch.setattr(sys, "stdout", Discard())
    gc.collect()
    tracemalloc.start()
    try:
        assert main([*command, path]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


@pytest.mark.parametrize("command", [
    ("profiles",), ("solve", "--concept", "nash", "--format", "json")])
def test_a_reader_that_closes_early_ends_in_one_error_line(command, tmp_path):
    path = four_by_three_file(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "BDGAME_MAX_ATOMS"}
    env["PYTHONPATH"] = str(Path(bdgame.cli.__file__).parents[1])
    child = subprocess.Popen([sys.executable, "-m", "bdgame", *command, path],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=env)
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert err.startswith("bdgame: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_running_out_of_memory_ends_in_one_error_line(tmp_path):
    """A spec the atom cap admits but whose truth tables do not fit: 30
    world atoms that facts mention, in a child limited to 512 MiB of
    address space."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "oversized.bdg"
    path.write_text(
        "agent x {\n  atoms a b\n"
        + "".join(f"  fact w{i} | w{i + 1}\n" for i in range(29))
        + "  desire a => w0\n}\n"
        "agent y {\n  atoms c d\n  desire c => w1\n}\n"
        "world " + " ".join(f"w{i}" for i in range(30)) + "\n",
        encoding="utf-8")
    limit = 512 << 20

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {k: v for k, v in os.environ.items() if k != "BDGAME_MAX_ATOMS"}
    env["PYTHONPATH"] = str(Path(bdgame.cli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "bdgame", "solve", "--concept", "nash",
         "--max-atoms", "40", str(path)],
        capture_output=True, text=True, env=env,
        preexec_fn=limit_address_space, timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("bdgame: ") and \
        run.stderr.count("\n") == 1, run.stderr
    assert "Traceback" not in run.stderr
