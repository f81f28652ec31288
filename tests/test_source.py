"""Checks on the library's source text."""

import ast
from pathlib import Path

import bdgame
from mutants import MUTANTS, ROOT

SOURCES = sorted(Path(bdgame.__file__).parent.glob("*.py"))


def test_the_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check the library
    # relies on may be one; ``raise AssertionError`` survives ``-O``.
    assert len(SOURCES) >= 10
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


# Names a module imports only so that callers can import them from it.
RE_EXPORTS = {"__init__.py": None,  # the package's public surface
              "decision.py": {"DEFAULT_DECISION_CAP", "DEFAULT_PROFILE_CAP"}}


def test_the_library_imports_nothing_it_does_not_use():
    unused = []
    for path in SOURCES:
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
    assert unused == []


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
