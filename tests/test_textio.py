"""YAML reading through one loader class, the composed-document reader,
YAML writing through one dumper class, and digests without OpenSSL."""

from __future__ import annotations

import ast
import hashlib
import re
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.errors import UserError
import forge.textio
from forge.textio import ComposedDocument, dump_yaml, hex_digest


def safe_load(text: str) -> object:
    """The whole document, built from its tree."""

    doc = ComposedDocument(text, "in.yaml", UserError)
    return None if doc.root is None else doc.construct(doc.root)

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


def _yaml_uses(path: Path) -> list[str]:
    """Each import of ``yaml`` (or a submodule) in ``path``, and each name ``YAMLError``."""

    uses = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            uses += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "yaml"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "yaml":
            uses.append(f"from {node.module} import")
        elif isinstance(node, ast.Name) and node.id == "YAMLError":
            uses.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "YAMLError":
            uses.append(node.attr)
    return [f"{path.name}:{use}" for use in uses]


def test_only_textio_picks_a_yaml_loader() -> None:
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert _loader_uses(SOURCE_DIR / "textio.py")
    assert [use for path in paths if path.name != "textio.py" for use in _loader_uses(path)] == []
    # Only textio reads YAML and turns its errors into each input's own.
    assert "textio.py:import yaml" in _yaml_uses(SOURCE_DIR / "textio.py")
    assert [use for path in paths if path.name != "textio.py" for use in _yaml_uses(path)] == []


def test_mapping_keys_are_what_safe_load_makes_of_them() -> None:
    text = (
        "base: &b {x: 1, y: 2}\n"
        "m:\n  <<: *b\n  y: 3\n  'q': 4\n  !!str t: 5\n  8: 6\n  x: 7\n  ~: 8\n"
    )
    doc = ComposedDocument(text, "in.yaml", UserError)
    top = doc.mapping(doc.root)
    assert list(top) == ["base", "m"]
    pairs = doc.mapping(top["m"][1])
    built = {key: doc.construct(node) for key, (_, node) in pairs.items()}
    assert built == safe_load(text)["m"]
    assert list(built) == list(safe_load(text)["m"]) == ["x", "y", "q", "t", 8, None]
    # Each key's node is its last one's, merged keys coming first.
    positions = [doc.position(key_node) for key_node, _ in pairs.values()]
    assert positions == [f"in.yaml:{line}:3" for line in (8, 4, 5, 6, 7, 9)]


@pytest.mark.parametrize("text", ["[a]\n", "!!set {a, b}\n", "!!omap [a: 1]\n", "a\n", "~\n"])
def test_only_a_plain_mapping_node_is_read_by_key(text: str) -> None:
    doc = ComposedDocument(text, "in.yaml", UserError)
    assert doc.mapping(doc.root) is None
    assert doc.construct(doc.root) == safe_load(text)


@pytest.mark.parametrize(
    "text", ["!!str 5\n", "'5'\n", "|\n  a\n  b\n", "!!str\n", "!!binary aGk=\n", "0o17\n"]
)
def test_a_tagged_or_quoted_scalar_is_built_as_safe_load_builds_it(text: str) -> None:
    doc = ComposedDocument(text, "in.yaml", UserError)
    assert doc.construct(doc.root) == safe_load(text)


@given(st.one_of(st.text(), st.integers(), st.floats(allow_nan=False), st.booleans(), st.none()))
def test_any_scalar_is_built_as_safe_load_builds_it(value: object) -> None:
    text = yaml.safe_dump(value)
    doc = ComposedDocument(text, "in.yaml", UserError)
    assert doc.construct(doc.root) == safe_load(text) == value


@pytest.mark.parametrize(
    "text", ["? [a]\n: 1\n", "a: 1\n<<: [x]\n", "a: 1\n<<: 5\n", "? !!int x\n: 1\n"]
)
def test_a_key_safe_load_rejects_is_a_yaml_error(text: str) -> None:
    with pytest.raises(UserError, match=r"^in\.yaml: not valid YAML: "):
        safe_load(text)
    doc = ComposedDocument(text, "in.yaml", UserError)
    with pytest.raises(UserError, match=r"^in\.yaml: not valid YAML: "):
        doc.mapping(doc.root)


@pytest.mark.parametrize(
    ("text", "line", "column"),
    [
        ("a: {<<: {x: 1}, y: [1, !!int z]}\n", 1, 24),
        ("b: &m {k: !!int q}\nc: {<<: *m}\n", 1, 11),
        ("x: &a [*a, [1, {2020-13-45: v}]]\n", 1, 17),
        ("m: {ok: 1, !!bool q: 2}\n", 1, 12),
    ],
    ids=["merged", "alias", "recursive", "key"],
)
def test_a_value_that_cannot_be_built_is_marked_where_it_fails(text: str, line: int, column: int) -> None:
    with pytest.raises(UserError) as caught:
        safe_load(text)
    assert str(caught.value).startswith("in.yaml: not valid YAML: cannot construct a value: ")
    assert re.search(rf'\n  in "in\.yaml", line {line}, column {column}\b', str(caught.value))


def test_a_tag_without_a_constructor_below_a_value_that_fails_is_the_documents_error() -> None:
    # PyYAML builds the mapping last, so !!int fails first and the search
    # for the failing node then meets !foo.
    with pytest.raises(UserError) as caught:
        safe_load("[{a: !foo x}, !!int y]\n")
    assert str(caught.value) == (
        "in.yaml: not valid YAML: could not determine a constructor for the tag '!foo'\n"
        '  in "in.yaml", line 1, column 6'
    )


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


@pytest.mark.parametrize("hidden", [None, "_sha2", "_sha256", "_blake2"])
@given(data=st.binary())
def test_hex_digest_is_hashlibs(hidden: str | None, data: bytes) -> None:
    # A hidden module cannot be imported, so its name falls back to hashlib.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forge.textio, "_hash_new", {})
        if hidden:
            patch.setitem(sys.modules, hidden, None)
        assert hex_digest("sha256", data) == hashlib.sha256(data).hexdigest()
        assert hex_digest("blake2b", data) == hashlib.blake2b(data, digest_size=32).hexdigest()


def test_hex_digest_loads_each_module_once(monkeypatch) -> None:
    monkeypatch.setattr(forge.textio, "_hash_new", {})
    hex_digest("blake2b", b"a")
    new = forge.textio._hash_new["blake2b"]
    hex_digest("blake2b", b"b")
    assert forge.textio._hash_new == {"blake2b": new}
