"""Checks on the library's source text."""

import ast
from pathlib import Path
from types import ModuleType

import bdgame
from mutants import MUTANTS, ROOT, failed_ids

LIBRARY = Path(bdgame.__file__).parent
SOURCES = sorted(LIBRARY.glob("*.py"))


def test_the_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check the library
    # relies on may be one; ``raise AssertionError`` survives ``-O``.
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_cli_and_the_checks_derive_a_game():
    # Everything below them takes the game it reads, so no layer derives
    # a second game from a spec that may not be the one the game came from.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    callers = {name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and "derive_game" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))}
    assert callers == {"cli.py", "verify.py"}


def test_every_private_name_imported_across_modules_is_listed():
    # A private name belongs to its module; each one another library
    # module imports is a crossing a refactor should see, and add or drop
    # here on purpose.
    crossings = sorted(
        f"{path.name} <- {node.module}.{alias.name}" for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__"))
    assert crossings == [
        "cli.py <- game._product_columns",
        "extension.py <- logic._universe",
        "game.py <- decision._check_profile_cap",
        "game.py <- decision._classify",
        "model.py <- logic._IDENT_RE",
        "model.py <- logic._RESERVED",
        "model.py <- logic._TOO_DEEP",
        "model.py <- logic._models",
        "model.py <- logic._walk",
        "verify.py <- goals._goal_decider",
        "verify.py <- goals._representation_violations",
    ]


# Names a module imports only so that callers can import them from it.
RE_EXPORTS = {"__init__.py": None}  # the package's public surface


def test_the_public_surface_is_listed():
    # What ``import bdgame`` offers beyond its modules; a name added to or
    # dropped from the package's surface is added or dropped here on
    # purpose.
    exported = sorted(name for name, value in vars(bdgame).items()
                      if not name.startswith("_")
                      and not isinstance(value, ModuleType))
    assert exported == [
        "AgentSpec", "AgentSystemSpec", "BdgameError",
        "CombinatorialBoundError", "Decision", "DecisionMode",
        "DecisionProfile", "DesireReport", "Extension", "Formula",
        "FormulaSyntaxError", "GameSpecification", "GoalSet",
        "InfeasibleProfileError", "Literal", "PriorityOrder",
        "ProfileComparison", "Rule", "SolutionReport", "SpecSyntaxError",
        "UndeclaredAtomError", "Violation",
        "VocabularyLimitError", "applicable_consequents",
        "apply_decision_rule", "atoms_of", "compare_profiles", "consistent",
        "delta_goal_sets", "derive_game", "desire_report", "dominant",
        "entails", "enumerate_decisions", "enumerate_profiles",
        "example_path", "extension",
        "fixpoint_certificate", "format_formula", "format_spec",
        "fragment_check", "heuristic_goals",
        "is_feasible_decision", "is_feasible_profile", "is_goal_based",
        "is_valid", "joint_extension", "load_example", "nash", "pareto",
        "pareto_via_goals", "parse_formula", "parse_spec",
        "representation_check", "solve", "strongly_pareto",
        "syntactic_goal_sets", "u_closure", "validate_spec",
    ]


def unused_imports(paths):
    unused = []
    for path in paths:
        exempt = RE_EXPORTS.get(path.name, set())
        if exempt is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items()
                   if name not in read and name not in exempt
                   and name != "annotations"]
    return unused


def test_the_library_imports_nothing_it_does_not_use():
    assert unused_imports(SOURCES) == []


def test_the_tests_import_nothing_they_do_not_use():
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert len(tests) >= 10
    assert unused_imports(tests) == []


def test_no_public_goals_function_takes_a_profile():
    # Families, solutions and the goal-set table are columns over feasible
    # indexes, and ``game.index_of`` is the one way from a profile to one.
    tree = ast.parse((LIBRARY / "goals.py").read_text(encoding="utf-8"))
    public = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    assert {"u_closure", "is_goal_based"} <= {f.name for f in public}
    taking = [f"{f.name}({arg.arg})" for f in public
              for arg in (f.args.posonlyargs + f.args.args
                          + f.args.kwonlyargs)
              if arg.arg == "profile" or "DecisionProfile" in ast.unparse(
                  arg.annotation or ast.Constant(None))]
    assert taking == []


def test_every_mutant_applies_once_and_names_existing_tests():
    # The catalogue of tests/mutants.py runs in CI; this keeps it in step
    # with the source and the tests it names.
    assert len(MUTANTS) >= 5
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in SOURCES}
    for mutant in MUTANTS:
        assert sources[mutant.module].count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet, mutant.name
        # A replacement that does not parse fails every test, so the runner
        # would count it killed whatever the tests check.
        ast.parse(sources[mutant.module].replace(mutant.snippet,
                                                 mutant.replacement),
                  filename=f"{mutant.module} under {mutant.name}")
        for test in mutant.tests:
            path, _, name = test.partition("::")
            name = name.partition("[")[0]  # a parametrized test's id
            assert f"\ndef {name}(" in (ROOT / path).read_text(
                encoding="utf-8"), test


def test_the_mutant_runner_reads_whole_failed_ids():
    # pytest ends a FAILED line's id at " - ", before the error; a
    # parametrized id may hold spaces of its own.
    test = ("tests/test_cli.py::test_nash_else_pareto_follows_the_"
            "infeasible_swaps_policy[fail-pareto family: 3 profiles]")
    stdout = (f"F.\nFAILED {test} - AssertionError: assert 1 == 0\n"
              "FAILED tests/test_game.py::test_pareto_prisoners\n"
              "1 failed, 1 passed in 0.1s\n")
    assert failed_ids(stdout) == {
        test, "tests/test_game.py::test_pareto_prisoners"}
