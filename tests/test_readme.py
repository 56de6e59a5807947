"""README's library layout and examples against the package."""

import importlib
import re
import shlex
from pathlib import Path

from clirun import run_cli

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows():
    """(module, names) for each row of the "Library layout" table."""
    section = README.read_text().split("## Library layout", 1)[1]
    rows = re.findall(r"^\| `(parafrob\.\w+)` \| (.*) \|$", section, re.M)
    return [(module, re.findall(r"`(\w+)[`(]", contents))
            for module, contents in rows]


def test_library_layout_names_exist():
    rows = layout_rows()
    assert len(rows) == 8
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module_name, missing)


def fenced_block(after: str, lang: str) -> str:
    """The first ```lang block of README after the text ``after``."""
    section = README.read_text().split(after, 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_command_line_examples_run(tmp_path, monkeypatch):
    # The grammar examples are the files the command examples read.
    for name, after in [("family.txt", "Family file"),
                        ("system.txt", "Plain constraint system"),
                        ("exclusion.txt", "Exclusion problem")]:
        (tmp_path / name).write_text(fenced_block(after, "text"))
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)[1:]
                for line in fenced_block("## Command line", "sh").splitlines()
                if line.startswith("parafrob ")]
    assert len(commands) == 7
    for args in commands:
        res = run_cli(args)
        assert res.exit_code == 0, (args, res.output)
