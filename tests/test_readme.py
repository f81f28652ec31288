"""The README's examples run against the library as it is."""

import re
import shlex
from pathlib import Path

from bdgame.cli import main

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(
        encoding="utf-8"), flags=re.MULTILINE | re.DOTALL)


def shell_examples():
    """Each ``$ bdgame ...`` line of the sh blocks, with the output lines
    shown under it (up to the next ``$`` line or the end of the block)."""
    for block in blocks("sh"):
        for example in re.split(r"^(?=\$ )", block, flags=re.MULTILINE):
            command, _, shown = example.partition("\n")
            if command.startswith("$ bdgame "):
                yield command, shown.splitlines()


def test_readme_python_blocks_run():
    sources = blocks("python")
    assert sources
    for number, source in enumerate(sources):
        exec(compile(source, f"README.md, python block {number}", "exec"),
             {"__name__": "readme"})


def test_readme_shell_examples_print_what_they_show(monkeypatch, capsys):
    # Output shown before a "..." line is a prefix of the real output;
    # without one, it is the whole output.
    examples = list(shell_examples())
    assert examples
    monkeypatch.chdir(ROOT)
    for command, shown in examples:
        assert main(shlex.split(command)[2:]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        if shown and shown[-1] == "...":
            shown.pop()
            printed = printed[:len(shown)]
        assert printed == shown, command
