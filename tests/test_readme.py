"""README's library layout against the modules it describes."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def layout_rows():
    """(module, names) for each row of the "Library layout" table."""
    section = README.read_text().split("## Library layout", 1)[1]
    rows = re.findall(r"^\| `(parafrob\.\w+)` \| (.*) \|$", section, re.M)
    return [(module, re.findall(r"`(\w+)`", contents))
            for module, contents in rows]


def test_library_layout_names_exist():
    rows = layout_rows()
    assert len(rows) == 8
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (module_name, missing)
