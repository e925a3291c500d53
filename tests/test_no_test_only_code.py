"""Every top-level function and class in ``src/forge`` has a caller there,
and every parameter with a default is passed by some call there but not by all.

Code that only tests call belongs in ``tests/``. A name counts as used
when some module in the package refers to it (by name, attribute or
import) outside its own definition. A parameter counts as used when some
call in the package to a function of that name passes it, by keyword or
by position; a default only tests override is a knob with one value in
use. A default that every call in the package overrides serves only the
tests that leave it out, so the parameter should be required. Record
fields are not parameters here.
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


# Parameters that exist so tests can reach past the process boundary: the
# argument list and engine driver of the CLI entry point, and the text of the
# base image table in place of the packaged data file.
TEST_SEAMS = {("main", "argv"), ("main", "driver"), ("load_base_image_table", "text")}


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, position or None if keyword-only) per defaulted parameter.

    A method is called by its own name, and ``__init__`` by its class name;
    neither counts ``self`` or ``cls`` as a position.
    """

    owner: dict[ast.AST, ast.ClassDef] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner[item] = node
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        callee = node.name
        positional = [*node.args.posonlyargs, *node.args.args]
        if node in owner:
            if callee == "__init__":
                callee = owner[node].name
            decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
            if "staticmethod" not in decorators:
                positional = positional[1:]
        defaulted = positional[len(positional) - len(node.args.defaults):]
        for arg in defaulted:
            found.append((callee, arg.arg, positional.index(arg)))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found.append((callee, arg.arg, None))
    return found


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _parameters_and_calls() -> tuple[
    list[tuple[str, str, str, int | None]], dict[str, list[ast.Call]]
]:
    """Defaulted parameters as (module, callee, parameter, position), and calls by callee name."""

    parameters: list[tuple[str, str, str, int | None]] = []
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(SOURCE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parameters += [(path.name, *entry) for entry in _defaulted_parameters(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _referenced_name(node.func)
                if name is not None:
                    calls.setdefault(name, []).append(node)
    return parameters, calls


def test_every_defaulted_parameter_is_passed_in_the_package() -> None:
    parameters, calls = _parameters_and_calls()
    unused = sorted(
        f"{module}:{callee}({parameter})"
        for module, callee, parameter, position in parameters
        if (callee, parameter) not in TEST_SEAMS
        and not any(_passes(call, parameter, position) for call in calls.get(callee, []))
    )
    assert not unused, (
        "parameters whose default every call in src/forge relies on; "
        f"drop the parameter or list it as a test seam: {unused}"
    )


def test_no_default_is_overridden_by_every_call_in_the_package() -> None:
    parameters, calls = _parameters_and_calls()
    always_passed = sorted(
        f"{module}:{callee}({parameter})"
        for module, callee, parameter, position in parameters
        if calls.get(callee)
        and all(_passes(call, parameter, position) for call in calls[callee])
    )
    assert not always_passed, (
        "parameters whose default no call in src/forge uses; "
        f"make them required and pass the value in the tests: {always_passed}"
    )
