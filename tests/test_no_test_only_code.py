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
# argument list and engine driver of the CLI entry point.
TEST_SEAMS = {("main", "argv"), ("main", "driver")}


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(call form, callee name, parameter, position or None if keyword-only) per defaulted parameter.

    A method is called as an attribute by its own name, and ``__init__`` by
    its class name; neither counts ``self`` or ``cls`` as a position. Every
    other function is called by bare name.
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
        form, callee = "name", node.name
        positional = [*node.args.posonlyargs, *node.args.args]
        if node in owner:
            if callee == "__init__":
                callee = owner[node].name
            else:
                form = "attribute"
            decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
            if "staticmethod" not in decorators:
                positional = positional[1:]
        defaulted = positional[len(positional) - len(node.args.defaults):]
        for arg in defaulted:
            found.append((form, callee, arg.arg, positional.index(arg)))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found.append((form, callee, arg.arg, None))
    return found


def _call_key(func: ast.expr) -> tuple[str, str] | None:
    """(call form, callee name) of a call's function expression."""

    if isinstance(func, ast.Name):
        return ("name", func.id)
    if isinstance(func, ast.Attribute):
        return ("attribute", func.attr)
    return None


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _parameters_and_calls(
    modules: list[tuple[str, ast.Module]],
) -> tuple[list[tuple[str, str, str, str, int | None]], dict[tuple[str, str], list[ast.Call]]]:
    """Defaulted parameters as (module, call form, callee, parameter, position),
    and calls by (call form, callee name)."""

    parameters: list[tuple[str, str, str, str, int | None]] = []
    calls: dict[tuple[str, str], list[ast.Call]] = {}
    for module, tree in modules:
        parameters += [(module, *entry) for entry in _defaulted_parameters(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                key = _call_key(node.func)
                if key is not None:
                    calls.setdefault(key, []).append(node)
    return parameters, calls


def _defaults_no_call_passes(modules: list[tuple[str, ast.Module]]) -> list[str]:
    parameters, calls = _parameters_and_calls(modules)
    return sorted(
        f"{module}:{callee}({parameter})"
        for module, form, callee, parameter, position in parameters
        if (callee, parameter) not in TEST_SEAMS
        and not any(_passes(call, parameter, position) for call in calls.get((form, callee), []))
    )


def _defaults_every_call_passes(modules: list[tuple[str, ast.Module]]) -> list[str]:
    parameters, calls = _parameters_and_calls(modules)
    return sorted(
        f"{module}:{callee}({parameter})"
        for module, form, callee, parameter, position in parameters
        if calls.get((form, callee))
        and all(_passes(call, parameter, position) for call in calls[(form, callee)])
    )


def _package_modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(SOURCE_DIR.glob("*.py"))
    ]


def test_every_defaulted_parameter_is_passed_in_the_package() -> None:
    unused = _defaults_no_call_passes(_package_modules())
    assert not unused, (
        "parameters whose default every call in src/forge relies on; "
        f"drop the parameter or list it as a test seam: {unused}"
    )


def test_no_default_is_overridden_by_every_call_in_the_package() -> None:
    always_passed = _defaults_every_call_passes(_package_modules())
    assert not always_passed, (
        "parameters whose default no call in src/forge uses; "
        f"make them required and pass the value in the tests: {always_passed}"
    )


# A method of the same name as a function must not count as a call to it,
# nor the function's calls as calls to the method.
_SAME_NAMED_METHOD = """
def resolve(keys, repos=()):
    return keys

class Root:
    def resolve(self, strict=False, follow=True):
        return self

resolve(1)
Root().resolve(True, False)
Root().resolve()
"""


def test_calls_are_matched_by_call_form() -> None:
    modules = [("snippet.py", ast.parse(_SAME_NAMED_METHOD))]
    assert _defaults_no_call_passes(modules) == ["snippet.py:resolve(repos)"]
    assert _defaults_every_call_passes(modules) == []
