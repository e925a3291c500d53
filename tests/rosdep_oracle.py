"""Reference rosdep loader that builds every document whole.

This is forge's rosdep loader before it composed documents and built only
the ``ubuntu`` records: each document goes through one ``yaml.load`` with
the given loader class, and the same shape checks run on the result.
forge's loader must give the same records, or a MalformedDatabase error
where this one does, on any document whose every value PyYAML's
constructor accepts.
"""

from __future__ import annotations

import yaml

from forge.depgraph import ROSDEP_OS, RosdepEntry, _parse_record
from forge.errors import MalformedDatabase


def load_whole(
    documents: list[str], loader: type
) -> tuple[dict[str, object], dict[str, RosdepEntry]]:
    """Merged raw :data:`ROSDEP_OS` records and their entries, later documents winning."""

    records: dict[str, object] = {}
    entries: dict[str, RosdepEntry] = {}
    for n, text in enumerate(documents):
        try:
            doc = yaml.load(text, Loader=loader)
        except yaml.YAMLError as exc:
            raise MalformedDatabase(f"database document {n} is not valid YAML: {exc}") from exc
        if doc is None:
            continue
        if not isinstance(doc, dict):
            raise MalformedDatabase(f"database document {n} is not a mapping")
        for key, per_os in doc.items():
            if not isinstance(key, str) or not key:
                raise MalformedDatabase(f"database document {n} has a non-string key")
            if per_os is None:
                continue
            if not isinstance(per_os, dict):
                raise MalformedDatabase(f"key {key!r} does not map OS names to records")
            if ROSDEP_OS not in per_os:
                continue
            records[key] = per_os[ROSDEP_OS]
            entries[key] = _parse_record(key, records[key])
    return records, entries
