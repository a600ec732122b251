"""The README's "Public names" list is the library's public surface: per
module, exactly the functions and classes it defines without a leading
underscore. Read from the source, without importing the library."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "figurate"

#: Modules whose surface is not a list of names: the CLI's is its argv.
NOT_LISTED = {"__init__", "cli"}


def defined_public_names(source: str) -> set[str]:
    """Names of the module-level functions and classes of the source that
    do not start with an underscore."""
    return {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def readme_public_names() -> dict[str, set[str]]:
    """module -> names, from the list under the README's "Public names"
    heading: "- `module`: `name`, `name`, ..." with continuation lines, up
    to the first blank line after it."""
    text = ROOT.joinpath("README.md").read_text()
    section = text.split("### Public names\n", 1)[1]
    bullets = section[section.index("\n- ") :].split("\n\n", 1)[0]
    listed = {}
    for bullet in re.split(r"^- ", bullets, flags=re.M)[1:]:
        module, names = bullet.split(":", 1)
        listed[module.strip("`")] = set(re.findall(r"`(\w+)`", names))
    return listed


def test_detects_public_definitions():
    source = "import os\nX = 1\ndef f(): pass\ndef _g(): pass\nclass C:\n    def m(self): pass\n"
    assert defined_public_names(source) == {"f", "C"}


def test_readme_lists_every_public_name():
    defined = {
        path.stem: defined_public_names(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in NOT_LISTED
    }
    assert readme_public_names() == defined
