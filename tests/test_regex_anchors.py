"""No regular expression in ``src/forge`` ends in an unescaped ``$``.

``$`` also matches before a final newline, so ``re.match(r"^name$", "x\\n")``
accepts the newline. A check of a whole value uses ``fullmatch`` with an
unanchored pattern instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "forge"

# The functions of ``re`` whose first argument is a pattern.
_PATTERN_FUNCTIONS = {
    "compile", "findall", "finditer", "fullmatch", "match", "search", "split", "sub", "subn",
}


def _pattern_end(node: ast.expr) -> str | None:
    """The literal text a pattern argument ends with, if it is a literal."""

    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _ends_in_anchor(pattern: str) -> bool:
    backslashes = len(pattern[:-1]) - len(pattern[:-1].rstrip("\\"))
    return pattern.endswith("$") and backslashes % 2 == 0


def test_no_pattern_ends_in_an_unescaped_dollar() -> None:
    found = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.func.attr in _PATTERN_FUNCTIONS
                and node.args
            ):
                end = _pattern_end(node.args[0])
                if end is not None and _ends_in_anchor(end):
                    found.append(f"{path.name}:{node.lineno}: {end!r}")
    assert not found, f"use fullmatch and drop the trailing $: {found}"


def test_the_guard_tells_an_anchor_from_an_escaped_dollar() -> None:
    assert _ends_in_anchor(r"^[a-z]+$")
    assert _ends_in_anchor(r"a\\$")
    assert not _ends_in_anchor(r"price\$")
    assert not _ends_in_anchor(r"[a-z]+")
    assert re.match(r"^[a-z]+$", "name\n") and not re.fullmatch(r"[a-z]+", "name\n")
