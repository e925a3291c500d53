"""Reading input text, writing YAML output and keeping JSON cache files.

Every YAML document forge reads is composed into a node tree by
:class:`ComposedDocument`, with libyaml's ``CSafeLoader`` when PyYAML was
built with it and with the pure-Python ``SafeLoader`` otherwise. Both
build the same plain objects; libyaml is several times faster on large
rosdep databases. Only the nodes forge uses are built: of a rosdep
database, the keys and the one OS record per key. A document raises its
input's own error class, as ``<path>: not valid YAML: ...`` for text that
is not valid YAML, a merge or key ``yaml.safe_load`` rejects, or a value
PyYAML's constructor fails on (``!!int abc``, marked at the innermost node
that fails), and at a node's ``path:line:column`` from
:meth:`ComposedDocument.fail`. No other module imports ``yaml``. Every
YAML document forge writes goes through :func:`dump_yaml`, with libyaml's
``CSafeDumper`` under the same fallback.

A cache file under forge's cache directory is a JSON object that stores
its own key, a list of strings, under ``"key"``. The file is named by the
CRC-32 of that key (:func:`cache_name`), read with :func:`read_cache` and
replaced with :func:`write_json`. A cache file is only ever a shortcut:
one that cannot be read, or that holds another key, is a miss, and one
that cannot be written is skipped.

:func:`hex_digest` hashes with CPython's own hash modules, so no forge
command loads ``hashlib``, whose import links OpenSSL (``_hashlib``).
"""

from __future__ import annotations

import binascii
import contextlib
import io
import os
from collections.abc import Callable, Hashable, Sequence
from functools import partial
from pathlib import Path
from typing import Literal, NoReturn

import yaml

from .errors import UserError

_MAP_TAG = "tag:yaml.org,2002:map"
_STR_TAG = "tag:yaml.org,2002:str"

Node = yaml.Node
Pairs = dict[object, tuple[Node, Node]]


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


class ComposedDocument:
    """One YAML document as a node tree; nodes are built only on request.

    ``name`` is the document's path: PyYAML's error marks print it, and
    :meth:`position` starts with it. ``root`` is None for an empty
    document. Every error about the document, from composing it, reading a
    mapping or building a value, is an ``error``.
    """

    def __init__(self, text: str, name: str, error: type[UserError]) -> None:
        stream = io.StringIO(text)
        stream.name = name
        self.name, self.error = name, error
        self._loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)(stream)
        try:
            self.root = self._loader.get_single_node()
        except yaml.YAMLError as exc:
            raise self._invalid(exc) from exc
        finally:
            self._loader.dispose()

    def construct(self, node: Node) -> object:
        """``node`` and everything below it as plain objects, as ``yaml.safe_load`` builds them."""

        if node.tag == _STR_TAG and isinstance(node, yaml.ScalarNode):
            return node.value  # what the constructor returns, without its setup
        try:
            try:
                return self._loader.construct_document(node)
            except _BUILD_ERRORS as exc:
                # Finding the failing node may build one that raises a YAMLError.
                raise yaml.constructor.ConstructorError(
                    None, None, f"cannot construct a value: {exc}", _failing(node).start_mark
                ) from exc
        except yaml.YAMLError as exc:
            raise self._invalid(exc) from exc

    def mapping(self, node: Node | None) -> Pairs | None:
        """The keys of a plain mapping node, each with its key node and value node.

        None for any other node. Keys are what ``yaml.safe_load`` makes of
        them: ``<<`` merges are flattened as SafeConstructor flattens them,
        a string key is its text, any other key is built and must be
        hashable, and a duplicate key's last nodes win, in its first place.
        No value is built.
        """

        if not isinstance(node, yaml.MappingNode) or node.tag != _MAP_TAG:
            return None
        pairs: Pairs = {}
        try:
            self._loader.flatten_mapping(node)
            for pair in node.value:
                key_node = pair[0]
                if key_node.tag == _STR_TAG and isinstance(key_node, yaml.ScalarNode):
                    key = key_node.value
                elif not isinstance(key := self.construct(key_node), Hashable):
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        "found unhashable key", key_node.start_mark,
                    )
                pairs[key] = pair
        except yaml.YAMLError as exc:
            raise self._invalid(exc) from exc
        return pairs

    def section(self, key: str) -> tuple[Node, Pairs]:
        """The node and keys of the top-level ``key``'s mapping; anything else is an error."""

        top = self.mapping(self.root) or {}
        _, node = top.get(key, (None, self.root))
        pairs = self.mapping(node) if key in top else None
        if pairs is None:
            where = self.name if node is None else self.position(node)
            raise self.error(f"{where}: expected a top-level {key!r} mapping")
        return node, pairs

    def fields(self, node: Node, pairs: Pairs, names: Sequence[str]) -> list[tuple[object, Node]]:
        """Each of ``names`` in the mapping ``node``: its value and node, or None and ``node``."""

        at = [pairs.get(name, (None, node))[1] for name in names]
        return [(None if n is node else self.construct(n), n) for n in at]

    def position(self, node: Node) -> str:
        """``name:line:column`` of where ``node`` starts, counting from 1."""

        mark = node.start_mark
        return f"{self.name}:{mark.line + 1}:{mark.column + 1}"

    def fail(self, node: Node, message: str) -> NoReturn:
        """Raise the document's error with ``message`` at ``node``'s position."""

        raise self.error(f"{self.position(node)}: {message}")

    def _invalid(self, exc: yaml.YAMLError) -> UserError:
        return self.error(f"{self.name}: not valid YAML: {exc}")


# SafeConstructor's own failures on a scalar its tag does not fit: a month
# out of range and ``!!int abc`` raise ValueError, ``!!bool abc`` KeyError
# and ``!!timestamp abc`` AttributeError.
_BUILD_ERRORS = (ValueError, KeyError, AttributeError)


def _failing(node: Node) -> Node:
    """Of ``node``, which fails to build, and the nodes below it, the innermost that fails."""

    seen = set()
    while True:
        seen.add(id(node))
        if isinstance(node, yaml.MappingNode):
            children = [child for pair in node.value for child in pair]
        else:
            children = node.value if isinstance(node, yaml.SequenceNode) else []
        for child in children:
            if id(child) in seen:  # an alias of a node that holds it
                continue
            try:
                yaml.constructor.SafeConstructor().construct_document(child)
            except _BUILD_ERRORS:
                node = child
                break
        else:
            return node


def read_utf8(path: str | Path, error: type[UserError]) -> str:
    """Text of ``path``; a file that cannot be read or is not UTF-8 raises ``error`` naming it."""

    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def cache_name(key: list[str]) -> str:
    """Eight hex digits of CRC-32 over ``key``'s parts, each length-prefixed.

    The prefix keeps one part from running into the next. A part is taken
    as UTF-8 with ``surrogateescape``, so a path holding a byte that is not
    UTF-8 counts as its bytes on disk. The name only places a file:
    :func:`read_cache` compares the key stored in it, so two keys with one
    name take turns in one file.
    """

    # A CRC: binascii comes with yaml, so naming a file imports nothing.
    crc = 0
    for part in key:
        data = part.encode("utf-8", "surrogateescape")
        crc = binascii.crc32(data, binascii.crc32(len(data).to_bytes(8, "big"), crc))
    return f"{crc:08x}"


_HASH_MODULES = {"sha256": ("_sha2", "_sha256"), "blake2b": ("_blake2",)}
_hash_new: dict[str, Callable[[bytes], object]] = {}


def hex_digest(name: Literal["sha256", "blake2b"], data: bytes) -> str:
    """The hex digest of ``data``: SHA-256, or BLAKE2b with a 32-byte digest.

    Each comes from CPython's own module (``_sha2``, or ``_sha256``
    before 3.12, and ``_blake2``), imported once, on first use. Those
    modules are private, so an interpreter without them uses ``hashlib``'s
    constructor of the same name; the digests are the same.
    """

    new = _hash_new.get(name)
    if new is None:
        for module in _HASH_MODULES[name]:
            with contextlib.suppress(ImportError):
                new = getattr(__import__(module), name)
                break
        else:
            import hashlib

            new = getattr(hashlib, name)
        new = _hash_new[name] = partial(new, digest_size=32) if name == "blake2b" else new
    return new(data).hexdigest()  # type: ignore[attr-defined]


def read_cache(path: Path, key: list[str]) -> dict | None:
    """The JSON object stored in ``path`` if its ``"key"`` is ``key``.

    None when it holds another key or value, or cannot be read or decoded.
    """

    # json and tempfile are imported on use: commands that cache nothing,
    # such as ``forge --version``, then do not pay for them at startup.
    import json

    try:
        value = json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None
    return value if type(value) is dict and value.get("key") == key else None


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
