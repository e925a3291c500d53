"""Reading input text and keeping JSON cache files.

Every YAML document forge reads goes through :func:`safe_load`, which
parses with libyaml's ``CSafeLoader`` when PyYAML was built with it and
with the pure-Python ``SafeLoader`` otherwise. Both build the same plain
objects; libyaml is several times faster on large rosdep databases.

Cache files under forge's cache directory are named by :func:`cache_key`,
read with :func:`read_json` and replaced with :func:`write_json`. A cache
file is only ever a shortcut: one that cannot be read is a miss, and one
that cannot be written is skipped.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import yaml

from .errors import UserError


def safe_load(text: str) -> object:
    """Parse one YAML document into plain Python objects.

    Raises :class:`yaml.YAMLError` for text that is not valid YAML.
    """

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml.load(text, Loader=loader)


def read_utf8(path: str | Path, error: type[UserError]) -> str:
    """Text of ``path``; bytes that are not UTF-8 raise ``error`` naming the file."""

    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc


def cache_key(*parts: str) -> str:
    """sha256 hex digest over ``parts``, each length-prefixed so none can run into the next."""

    # hashlib and tempfile are imported on use: commands that cache nothing,
    # such as ``forge --version``, then do not pay for them at startup.
    import hashlib

    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def read_json(path: Path) -> object:
    """The JSON value stored in ``path``, or None when it cannot be read or decoded."""

    try:
        return json.loads(path.read_bytes())
    except (OSError, ValueError, RecursionError):
        return None


def write_json(path: Path, value: object) -> None:
    """Replace ``path`` atomically with ``value`` as compact JSON; ignore I/O errors."""

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
