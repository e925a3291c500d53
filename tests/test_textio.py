"""YAML reading through one loader class, and the composed-document reader."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
import yaml

from forge.errors import UserError
from forge.textio import ComposedDocument, load_yaml


def safe_load(text: str) -> object:
    """The whole document, as forge builds an input file."""

    return load_yaml(text, "in.yaml", UserError)

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "forge"

_LOADER_NAMES = {"CSafeLoader", "SafeLoader"}
_YAML_READERS = {"load", "compose"}


def _loader_uses(path: Path) -> list[str]:
    """Each place in ``path`` that names a YAML loader class or ``yaml.load``/``yaml.compose``."""

    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and node.id in _LOADER_NAMES:
            uses.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in _LOADER_NAMES:
            uses.append(node.attr)
        elif isinstance(node, ast.Attribute) and node.attr in _YAML_READERS:
            if isinstance(node.value, ast.Name) and node.value.id == "yaml":
                uses.append(f"yaml.{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in _LOADER_NAMES:
            uses.append(repr(node.value))
        elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
            uses += [alias.name for alias in node.names if alias.name in _LOADER_NAMES | _YAML_READERS]
    return [f"{path.name}:{use}" for use in uses]


def test_only_textio_picks_a_yaml_loader() -> None:
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert _loader_uses(SOURCE_DIR / "textio.py")
    assert [use for path in paths if path.name != "textio.py" for use in _loader_uses(path)] == []


def test_mapping_keys_are_what_safe_load_makes_of_them() -> None:
    text = (
        "base: &b {x: 1, y: 2}\n"
        "m:\n  <<: *b\n  y: 3\n  'q': 4\n  !!str t: 5\n  8: 6\n  x: 7\n  ~: 8\n"
    )
    doc = ComposedDocument(text, "in.yaml")
    top = doc.mapping(doc.root)
    assert list(top) == ["base", "m"]
    pairs = doc.mapping(top["m"])
    built = {key: doc.construct(node) for key, node in pairs.items()}
    assert built == safe_load(text)["m"]
    assert list(built) == list(safe_load(text)["m"]) == ["x", "y", "q", "t", 8, None]


@pytest.mark.parametrize("text", ["[a]\n", "!!set {a, b}\n", "!!omap [a: 1]\n", "a\n", "~\n"])
def test_only_a_plain_mapping_node_is_read_by_key(text: str) -> None:
    doc = ComposedDocument(text, "in.yaml")
    assert doc.mapping(doc.root) is None
    assert doc.construct(doc.root) == safe_load(text)


@pytest.mark.parametrize(
    "text", ["? [a]\n: 1\n", "a: 1\n<<: [x]\n", "a: 1\n<<: 5\n", "? !!int x\n: 1\n"]
)
def test_a_key_safe_load_rejects_is_a_yaml_error(text: str) -> None:
    with pytest.raises(UserError, match=r"^in\.yaml: not valid YAML: "):
        safe_load(text)
    doc = ComposedDocument(text, "in.yaml")
    with pytest.raises(yaml.YAMLError):
        doc.mapping(doc.root)
