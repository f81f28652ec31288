"""The README's Python examples run against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(
        encoding="utf-8"), flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks
    for number, source in enumerate(blocks):
        exec(compile(source, f"README.md, python block {number}", "exec"),
             {"__name__": "readme"})
