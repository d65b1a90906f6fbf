"""The README's library example runs against the current API."""
import re
from pathlib import Path

import v2isim

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_library_example_runs(capsys):
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
        # a line `print(...)  # text` documents the line it prints
        expected = [line.split("  # ", 1)[1] for line in block.splitlines()
                    if "print(" in line]
        assert capsys.readouterr().out.splitlines() == expected


def test_mentioned_names_are_exported():
    # every `v.<name>` the README shows is part of the package's API
    mentioned = set(re.findall(r"\bv\.(\w+)", README.read_text()))
    assert mentioned
    assert sorted(mentioned - set(v2isim.__all__)) == []
