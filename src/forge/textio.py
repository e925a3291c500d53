"""Reading input text: UTF-8 files and YAML documents.

Every YAML document forge reads goes through :func:`safe_load`, which
parses with libyaml's ``CSafeLoader`` when PyYAML was built with it and
with the pure-Python ``SafeLoader`` otherwise. Both build the same plain
objects; libyaml is several times faster on large rosdep databases.
"""

from __future__ import annotations

from pathlib import Path

import yaml

from .errors import UserError


def safe_load(text: str) -> object:
    """Parse one YAML document into plain Python objects.

    Raises :class:`yaml.YAMLError` for text that is not valid YAML.
    """

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    return yaml.load(text, Loader=loader)


def read_utf8(path: Path, error: type[UserError]) -> str:
    """Text of ``path``; bytes that are not UTF-8 raise ``error`` naming the file."""

    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
