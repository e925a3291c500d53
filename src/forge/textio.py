"""Reading input text, writing YAML output and keeping JSON cache files.

Every YAML document forge reads is composed into a node tree by
:class:`ComposedDocument`, with libyaml's ``CSafeLoader`` when PyYAML was
built with it and with the pure-Python ``SafeLoader`` otherwise. Both
build the same plain objects; libyaml is several times faster on large
rosdep databases. :func:`load_yaml` builds an input file's whole document
from its tree; a rosdep database is read node by node, so that only the
keys and the one OS record per key that forge uses are built. A value
PyYAML's constructor fails on with a Python exception (``!!int abc``)
raises :class:`yaml.YAMLError` like a syntax error, which
:func:`yaml_errors` turns into the caller's error naming the file, whose
path is also the stream name that PyYAML's marks print. Every YAML
document forge writes goes through :func:`dump_yaml`, with libyaml's
``CSafeDumper`` under the same fallback.

Cache files under forge's cache directory are named by :func:`cache_key`,
read with :func:`read_json` and replaced with :func:`write_json`. A cache
file is only ever a shortcut: one that cannot be read is a miss, and one
that cannot be written is skipped.
"""

from __future__ import annotations

import contextlib
import io
import os
from collections.abc import Hashable, Iterator
from pathlib import Path

import yaml

from .errors import UserError

_MAP_TAG = "tag:yaml.org,2002:map"
_STR_TAG = "tag:yaml.org,2002:str"


def load_yaml(text: str, path: str | Path, error: type[UserError]) -> object:
    """Plain objects from the YAML ``text`` of ``path``; invalid YAML raises ``error`` naming it."""

    with yaml_errors(path, error):
        doc = ComposedDocument(text, str(path))
        return None if doc.root is None else doc.construct(doc.root)


def dump_yaml(value: object, sort_keys: bool, width: int = 80) -> str:
    """``value`` as block-style YAML text, lines folded at ``width``.

    For a mapping or a sequence whose strings hold only printable ASCII,
    newlines and tabs, and whose keys are not empty, the text is byte for
    byte that of ``yaml.safe_dump``. A string that must be written
    double-quoted with escapes (a control or non-ASCII character) may be
    folded at another place, or become an explicit ``?`` key, when libyaml
    writes it; both texts parse to the same value. libyaml writes UTF-8,
    which cannot hold a lone surrogate (what ``surrogateescape`` makes of a
    non-UTF-8 byte in a path), so such a value is written by the
    pure-Python emitter, which escapes it.
    """

    options = {"sort_keys": sort_keys, "default_flow_style": False, "width": width}
    try:
        return yaml.dump(value, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), **options)
    except UnicodeEncodeError:
        return yaml.dump(value, Dumper=yaml.SafeDumper, **options)


@contextlib.contextmanager
def yaml_errors(path: str | Path, error: type[UserError]) -> Iterator[None]:
    """Raise ``error`` as ``<path>: not valid YAML: ...`` for a YAML error in the block."""

    try:
        yield
    except yaml.YAMLError as exc:
        raise error(f"{path}: not valid YAML: {exc}") from exc


class ComposedDocument:
    """One YAML document as a node tree; nodes are built only on request.

    ``name`` is the document's path: PyYAML's error marks print it, and
    :meth:`position` starts with it. ``root`` is None for an empty
    document. Raises :class:`yaml.YAMLError` for text that is not valid
    YAML.
    """

    def __init__(self, text: str, name: str) -> None:
        stream = io.StringIO(text)
        stream.name = name
        self.name = name
        self._loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(stream)
        try:
            self.root = self._loader.get_single_node()
        finally:
            self._loader.dispose()

    def construct(self, node: yaml.Node) -> object:
        """``node`` and everything below it as plain objects, as ``yaml.safe_load`` builds them."""

        try:
            return self._loader.construct_document(node)
        # SafeConstructor's own failures on a scalar its tag does not fit: a
        # month out of range and ``!!int abc`` raise ValueError, ``!!bool abc``
        # KeyError and ``!!timestamp abc`` AttributeError.
        except (ValueError, KeyError, AttributeError) as exc:
            raise yaml.YAMLError(f"cannot construct a value: {exc}") from exc

    def mapping(self, node: yaml.Node) -> dict[object, yaml.Node] | None:
        """The keys of a plain mapping node, each with its value node; None for any other node.

        Keys are what ``yaml.safe_load`` makes of them: ``<<`` merges are
        flattened as SafeConstructor flattens them, a string key is its
        text, any other key is built and must be hashable, and a duplicate
        key's last value wins, in its first place. No value is built.
        """

        if not isinstance(node, yaml.MappingNode) or node.tag != _MAP_TAG:
            return None
        self._loader.flatten_mapping(node)
        pairs: dict[object, yaml.Node] = {}
        for key_node, value_node in node.value:
            if key_node.tag == _STR_TAG and isinstance(key_node, yaml.ScalarNode):
                key = key_node.value
            else:
                key = self.construct(key_node)
                if not isinstance(key, Hashable):
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        "found unhashable key", key_node.start_mark,
                    )
            pairs[key] = value_node
        return pairs

    def position(self, node: yaml.Node) -> str:
        """``name:line:column`` of where ``node`` starts, counting from 1."""

        mark = node.start_mark
        return f"{self.name}:{mark.line + 1}:{mark.column + 1}"


def read_utf8(path: str | Path, error: type[UserError]) -> str:
    """Text of ``path``; a file that cannot be read or is not UTF-8 raises ``error`` naming it."""

    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def cache_key(*parts: str) -> str:
    """sha256 hex digest over ``parts``, each length-prefixed so none can run into the next."""

    # hashlib, json and tempfile are imported on use: commands that cache
    # nothing, such as ``forge --version``, then do not pay for them at startup.
    import hashlib

    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def read_json(path: Path) -> object:
    """The JSON value stored in ``path``, or None when it cannot be read or decoded."""

    import json

    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None


def write_json(path: Path, value: object) -> None:
    """Replace ``path`` atomically with ``value`` as compact JSON; ignore I/O errors."""

    import json
    import tempfile

    # json.dumps runs the C encoder; json.dump streams through the pure-Python one.
    text = json.dumps(value, separators=(",", ":"))
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
    except OSError:
        pass
