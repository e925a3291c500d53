"""YAML reading through one loader class, the composed-document reader, and
YAML writing through one dumper class."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import UserError
from forge.textio import ComposedDocument, dump_yaml, load_yaml


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


_DUMPER_NAMES = {"CSafeDumper", "SafeDumper", "safe_dump", "dump"}


def _dumper_uses(path: Path) -> list[str]:
    """Each ``yaml.<dumper>`` attribute and dumper name as text in ``path``."""

    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in _DUMPER_NAMES:
            if isinstance(node.value, ast.Name) and node.value.id == "yaml":
                uses.append(f"yaml.{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in _DUMPER_NAMES:
            uses.append(repr(node.value))
    return [f"{path.name}:{use}" for use in uses]


def test_only_textio_picks_a_yaml_dumper() -> None:
    # libyaml's emitter where PyYAML has it: about three times faster.
    assert "textio.py:'CSafeDumper'" in _dumper_uses(SOURCE_DIR / "textio.py")
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert [use for path in paths if path.name != "textio.py" for use in _dumper_uses(path)] == []


def _documents(text: st.SearchStrategy[str]) -> st.SearchStrategy[object]:
    """Mappings and sequences as forge writes them: non-empty keys, scalar and nested values."""

    scalars = st.one_of(text, st.integers(), st.booleans(), st.none())
    keys = text.filter(bool)
    return st.recursive(
        st.lists(scalars, max_size=4) | st.dictionaries(keys, scalars, min_size=1, max_size=4),
        lambda inner: st.lists(inner | scalars, max_size=4)
        | st.dictionaries(keys, inner | scalars, min_size=1, max_size=4),
        max_leaves=20,
    )


# Printable ASCII, newline and tab: what the property below holds for.
_PLAIN_TEXT = st.text(alphabet=[chr(c) for c in range(32, 127)] + ["\n", "\t"], max_size=200)
_ANY_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200)


@settings(max_examples=300, deadline=None)
@given(_documents(_PLAIN_TEXT), st.booleans(), st.sampled_from([80, 120]))
def test_plain_text_is_written_as_safe_dump_writes_it(doc, sort_keys, width) -> None:
    expected = yaml.safe_dump(doc, sort_keys=sort_keys, default_flow_style=False, width=width)
    assert dump_yaml(doc, sort_keys=sort_keys, width=width) == expected


@settings(max_examples=300, deadline=None)
@given(_documents(_ANY_TEXT), st.booleans(), st.sampled_from([80, 120]))
def test_any_text_parses_back_to_what_safe_dump_writes(doc, sort_keys, width) -> None:
    # Long double-quoted scalars with escapes may fold at other places.
    text = dump_yaml(doc, sort_keys=sort_keys, width=width)
    expected = yaml.safe_dump(doc, sort_keys=sort_keys, default_flow_style=False, width=width)
    assert yaml.safe_load(text) == yaml.safe_load(expected) == doc


def test_a_lone_surrogate_is_escaped_as_safe_dump_escapes_it() -> None:
    # What surrogateescape makes of the byte 0xff in a path.
    doc = {"workspace": "ws\udcff", "packages": ["a"]}
    text = dump_yaml(doc, sort_keys=True)
    assert text == yaml.safe_dump(doc, sort_keys=True) == 'packages:\n- a\nworkspace: "ws\\uDCFF"\n'
