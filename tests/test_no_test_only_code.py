"""Every top-level function and class in ``src/forge`` has a caller there.

Code that only tests call belongs in ``tests/``. A name counts as used
when some module in the package refers to it (by name, attribute or
import) outside its own definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "forge"

# A module-level __getattr__ is called by the import system (PEP 562).
ALLOWED = {"__getattr__"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_top_level_name_has_a_caller_in_the_package() -> None:
    definitions: dict[str, str] = {}
    references: set[str] = set()
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            own = statement.name if isinstance(statement, _DEFINITIONS) else None
            if own is not None:
                definitions[own] = path.name
            for node in ast.walk(statement):
                name = _referenced_name(node)
                # Recursion is not a caller.
                if name is not None and name != own:
                    references.add(name)

    unused = sorted(
        f"{module}:{name}"
        for name, module in definitions.items()
        if name not in references and name not in ALLOWED
    )
    assert not unused, (
        "defined in src/forge but referenced only by tests or not at all; "
        f"move or delete: {unused}"
    )
