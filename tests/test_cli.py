import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bdgame.cli
import bdgame.decision
import bdgame.game
from bdgame import example_path
from bdgame.cli import _build_parser, main
from bdgame.decision import agent_extension
from bdgame.game import derive_game
from bdgame.model import parse_spec

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
    (("--rule", "bd-rational", "--all"), "--all"),
    (("--all", "--family", "nash"), "--family"),
    (("--all", "--family", "all"), "--family"),
])
def test_goals_refuses_flags_it_would_drop(flags, dropped, capsys):
    assert main(["goals", *flags, fixture("cooperation")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bdgame: ") and dropped in captured.err


def test_check_commands_pass():
    for prop in ("representation", "monotonicity", "order-laws",
                 "pipeline-equivalence"):
        result = run_cli("check", "--property", prop, "--samples", "50",
                         fixture("cooperation"))
        assert result.returncode == 0, (prop, result.stdout, result.stderr)
        assert "PASS" in result.stdout


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

    monkeypatch.setattr(bdgame.cli, "_game_report", refuse)
    for argv, expected in TEXT_REPORTS.items():
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == expected


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
    world = len(spec.world_atoms)
    assert len(spec.vocabulary) > 24 and world <= 16
    # The cap counts the declared vocabulary, not the mask universe.
    assert main(["solve", "--concept", "nash", str(WIDE_SPEC)]) == 2
    assert "26 atoms exceed" in capsys.readouterr().err
    for concept in ("pareto", "nash"):
        assert main(["solve", "--concept", concept, "--max-atoms", "32",
                     "--format", "json", str(WIDE_SPEC)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["profiles"]) == 576
        assert report["solutions"][concept]
    game = derive_game(spec.with_options(max_atoms=32))
    assert len(game.profiles) == 576
    for ep in game.profiles:
        assert ep.extension.models.bit_length() <= 2 ** world


def test_validate_applies_the_atom_cap(monkeypatch, capsys):
    monkeypatch.delenv("BDGAME_MAX_ATOMS", raising=False)
    assert main(["validate", str(WIDE_SPEC)]) == 2
    assert "26 atoms exceed the enumeration bound of 24" in \
        capsys.readouterr().err
    assert main(["validate", "--max-atoms", "32", str(WIDE_SPEC)]) == 0
    assert capsys.readouterr().out == "wide vocabulary: OK\n"
