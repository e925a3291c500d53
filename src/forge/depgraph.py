"""Dependency key resolution against pinned databases.

Declared manifest keys are classified into buckets with a fixed
precedence: workspace-internal packages first, then keys satisfied by
source repository clones, then ROS distro packages from a distro index,
then a rosdep-style database, and finally the unresolved remainder.

Both the rosdep snapshot and the distro indexes ship with the package as
versioned YAML fixtures and can be overridden from the command line.
Parsed rosdep databases can be memoized in a cache directory; each cache
file holds the documents it was parsed from.
"""

from __future__ import annotations

import re
from importlib import resources
from pathlib import Path
from typing import Literal, NamedTuple, Sequence

from . import KNOWN_DISTROS, __version__
from .errors import MalformedDatabase, shown
from .manifest import Workspace
from .sources import RepoSpec
from .textio import ComposedDocument, cache_name, read_cache, write_json, yaml_errors

ROSDEP_CACHE_FORMAT = 2
"""Layout version of cached rosdep databases; part of every cache key."""

ROSDEP_OS = "ubuntu"
"""The OS whose rosdep records forge resolves against; part of every cache key."""

_INDEX_PACKAGE_RE = re.compile(r"[a-z][a-z0-9_]*")
_WHITESPACE = re.compile(r"\s").search
# A name that apt-get and pip read as one package: no whitespace, and no
# leading "-", which would make it an option.
is_package_name = re.compile(r"(?!-)\S+").fullmatch


class RosdepEntry(NamedTuple):
    """Resolution record for one key: OS packages or pip packages."""

    kind: Literal["system", "python"]
    packages: tuple[str, ...]


class RosdepDatabase(NamedTuple):
    """Key to record mapping for :data:`ROSDEP_OS`."""

    entries: dict[str, RosdepEntry]


class DistroIndex(NamedTuple):
    """Names of released packages for one ROS distribution."""

    distro: str
    ros_version: int
    packages: frozenset[str]


class DeclaredKeys(NamedTuple):
    """Dependency keys aggregated over a workspace, by scope."""

    build: frozenset[str]
    exec: frozenset[str]

    @classmethod
    def from_workspace(cls, workspace: Workspace) -> "DeclaredKeys":
        build: set[str] = set()
        exec_: set[str] = set()
        for pkg in workspace.packages:
            build.update(pkg.deps_build)
            exec_.update(pkg.deps_exec)
        return cls(build=frozenset(build), exec=frozenset(exec_))

    @property
    def all(self) -> frozenset[str]:
        return self.build | self.exec


class ResolvedDependencies(NamedTuple):
    """Outcome of classifying declared keys.

    ``source_keys`` records which declared keys the source repositories
    satisfy. All name lists are sorted and duplicate free.
    """

    internal: tuple[str, ...]
    ros_distro_pkgs: tuple[str, ...]
    system_pkgs: tuple[str, ...]
    python_pkgs: tuple[str, ...]
    source_keys: tuple[str, ...]
    unresolved: tuple[str, ...]
    scope: Literal["all", "exec_only"]


def distro_package_name(distro: str, key: str) -> str:
    """OS package name of a released ROS package (underscores become dashes)."""

    return f"ros-{distro}-{key.replace('_', '-')}"


def load_rosdep_db(
    documents: Sequence[str],
    names: Sequence[str],
    cache_dir: Path | None,
    write_cache: bool,
) -> RosdepDatabase:
    """Build a database from YAML documents, later documents winning key-wise.

    ``names[n]`` is the path of ``documents[n]``; every error message
    starts with it, and a bad record's with its ``path:line:column``.
    Two record shapes are accepted under :data:`ROSDEP_OS`: a bare list of
    OS packages, or ``{pip: {packages: [...]}}`` for pip-installed keys. A
    key without an entry for that OS is skipped (it simply cannot be
    resolved here); any other shape raises :class:`MalformedDatabase`.
    Each document is composed whole, but only its keys and their
    :data:`ROSDEP_OS` records are built, so a value that only PyYAML's
    constructor rejects (``!!int x``) is an error only inside such a record.

    With ``cache_dir``, the merged records for that OS are memoized there as
    ``rosdep-<crc>.json``, which holds ``{"key": ..., "records": ...}``. The
    key is the cache format, the forge version, :data:`ROSDEP_OS` and the
    documents in order; the names are not part of it. Cached records pass
    the same record checks as parsed ones; a cache file that cannot be
    read, decoded or checked, or that holds another key, is a miss. The
    cache is written only after a successful parse, and only when
    ``write_cache`` is true. Cache I/O errors fall back silently to parsing.
    """

    cache_path = None
    if cache_dir is not None:
        key = [f"rosdep/{ROSDEP_CACHE_FORMAT}", __version__, ROSDEP_OS, *documents]
        cache_path = Path(cache_dir) / f"rosdep-{cache_name(key)}.json"
        cached = _cached_entries(read_cache(cache_path, key))
        if cached is not None:
            return RosdepDatabase(entries=cached)

    records: dict[str, object] = {}
    entries: dict[str, RosdepEntry] = {}
    for text, name in zip(documents, names, strict=True):
        with yaml_errors(name, MalformedDatabase):
            _read_records(ComposedDocument(text, name), records, entries)

    if cache_path is not None and write_cache:
        write_json(cache_path, {"key": key, "records": records})
    return RosdepDatabase(entries=entries)


def _read_records(
    doc: ComposedDocument, records: dict[str, object], entries: dict[str, RosdepEntry]
) -> None:
    """Add each key's :data:`ROSDEP_OS` record in ``doc`` to ``records`` and ``entries``."""

    if doc.root is None:
        return
    keys = doc.mapping(doc.root)
    if keys is None:
        if doc.construct(doc.root) is None:
            return
        raise MalformedDatabase(f"{doc.position(doc.root)}: the document is not a mapping")
    for key, (key_node, node) in keys.items():
        if not isinstance(key, str) or not key:
            raise MalformedDatabase(
                f"{doc.position(key_node)}: key {key!r} must be a non-empty string"
            )
        per_os = doc.mapping(node)
        if per_os is None:
            # Only a mapping node builds a dict, so any other value but null is wrong.
            if doc.construct(node) is None:
                continue
            raise MalformedDatabase(
                f"{doc.position(node)}: key {key!r} does not map OS names to records"
            )
        _, record = per_os.get(ROSDEP_OS, (None, None))
        if record is None:
            continue
        records[key] = doc.construct(record)
        try:
            entries[key] = _parse_record(key, records[key])
        except MalformedDatabase as exc:
            raise MalformedDatabase(f"{doc.position(record)}: {exc}") from None


def _cached_entries(cached: dict | None) -> dict[str, RosdepEntry] | None:
    """Checked entries from a cache file's object, or None when it is not usable."""

    records = cached and cached.get("records")
    if not isinstance(records, dict) or "" in records:
        return None
    try:
        return {key: _parse_record(key, record) for key, record in records.items()}
    except MalformedDatabase:
        return None


def _parse_record(key: str, record: object) -> RosdepEntry:
    if isinstance(record, list):
        packages = _string_list(key, record)
        return RosdepEntry(kind="system", packages=packages)
    if isinstance(record, dict):
        if set(record) == {"pip"} and isinstance(record["pip"], dict):
            pip = record["pip"]
            if set(pip) == {"packages"} and isinstance(pip["packages"], list):
                packages = _string_list(key, pip["packages"])
                return RosdepEntry(kind="python", packages=packages)
    raise MalformedDatabase(f"key {key!r} has an unsupported record shape")


def _string_list(key: str, raw: list[object]) -> tuple[str, ...]:
    if not raw:
        raise MalformedDatabase(f"key {key!r} has an empty package list")
    for item in raw:
        if not isinstance(item, str) or not item:
            raise MalformedDatabase(f"key {key!r} lists a non-string package")
        if not is_package_name(item):
            raise MalformedDatabase(
                f"key {key!r} has whitespace inside package {item!r}" if _WHITESPACE(item)
                else f"key {key!r} lists package {item!r}, which starts with '-'"
            )
    return tuple(raw)  # type: ignore[arg-type]


def load_distro_index(text: str, path: str) -> DistroIndex:
    """Parse the distro index file ``path``: ``distro: {name, ros_version, packages}``.

    Every error starts with ``path``, and one about a value with the
    ``path:line:column`` of its node, or of the ``distro`` mapping for a
    missing value. Only ``name``, ``ros_version`` and ``packages`` are
    built as values.
    """

    with yaml_errors(path, MalformedDatabase):
        doc = ComposedDocument(text, path)
        top = doc.mapping(doc.root) or {}
        _, node = top.get("distro", (None, doc.root))
        body = doc.mapping(node) if "distro" in top else None
        if body is None:
            where = path if node is None else doc.position(node)
            raise MalformedDatabase(f"{where}: expected a top-level 'distro' mapping")
        # Each value's node, or the mapping's for a missing value.
        at = {key: body.get(key, (None, node))[1] for key in ("name", "ros_version", "packages")}
        name, ros_version, packages = (None if n is node else doc.construct(n) for n in at.values())
    if not isinstance(name, str) or name not in KNOWN_DISTROS:
        raise MalformedDatabase(f"{doc.position(at['name'])}: unknown distro name {shown(name)}")
    # A bool or float equal to the version would reach ROS_VERSION as "True" or "2.0".
    if type(ros_version) is not int or ros_version != KNOWN_DISTROS[name]:
        raise MalformedDatabase(
            f"{doc.position(at['ros_version'])}: distro {name!r} must declare "
            f"ros_version {KNOWN_DISTROS[name]}"
        )
    if not isinstance(packages, list):
        raise MalformedDatabase(
            f"{doc.position(at['packages'])}: distro {name!r} has no package list"
        )
    # Only a sequence node builds a list, one item per node.
    for pkg, item in zip(packages, at["packages"].value):
        if not isinstance(pkg, str) or not _INDEX_PACKAGE_RE.fullmatch(pkg):
            raise MalformedDatabase(
                f"{doc.position(item)}: distro {name!r} lists invalid package {shown(pkg)}"
            )
    return DistroIndex(distro=name, ros_version=ros_version, packages=frozenset(packages))


def packaged_distro_index(distro: str) -> DistroIndex:
    """Load the distro index fixture shipped with this package for a known distro."""

    path = resources.files("forge.data").joinpath(f"distros/{distro}.yaml")
    return load_distro_index(path.read_text("utf-8"), str(path))


def packaged_rosdep_db() -> tuple[list[str], list[str]]:
    """Texts and resource paths of the rosdep snapshot documents shipped with this package."""

    path = resources.files("forge.data").joinpath("rosdep/base.yaml")
    return [path.read_text("utf-8")], [str(path)]


def resolve(
    keys: DeclaredKeys,
    db: RosdepDatabase,
    index: DistroIndex,
    internal: set[str] | frozenset[str],
    repos: Sequence[RepoSpec],
    scope: Literal["all", "exec_only"] = "all",
) -> ResolvedDependencies:
    """Classify declared keys into buckets.

    Precedence per key: internal, then source repositories (matched by
    repository local name), then the distro index, then the rosdep
    database, else unresolved. ``scope`` selects which declared keys take
    part: build plus exec, or exec only.
    """

    declared = keys.all if scope == "all" else keys.exec
    repo_names = {repo.local_name for repo in repos}

    internal_hits: set[str] = set()
    source_hits: set[str] = set()
    distro_keys: set[str] = set()
    system_pkgs: set[str] = set()
    python_pkgs: set[str] = set()
    unresolved: set[str] = set()

    for key in declared:
        if key in internal:
            internal_hits.add(key)
        elif key in repo_names:
            source_hits.add(key)
        elif key in index.packages:
            distro_keys.add(key)
        elif key in db.entries:
            entry = db.entries[key]
            if entry.kind == "system":
                system_pkgs.update(entry.packages)
            else:
                python_pkgs.update(entry.packages)
        else:
            unresolved.add(key)

    return ResolvedDependencies(
        internal=tuple(sorted(internal_hits)),
        ros_distro_pkgs=tuple(
            sorted(distro_package_name(index.distro, key) for key in distro_keys)
        ),
        system_pkgs=tuple(sorted(system_pkgs)),
        python_pkgs=tuple(sorted(python_pkgs)),
        source_keys=tuple(sorted(source_hits)),
        unresolved=tuple(sorted(unresolved)),
        scope=scope,
    )


def runtime_subset(
    resolved: ResolvedDependencies,
    keys: DeclaredKeys,
    db: RosdepDatabase,
    index: DistroIndex,
    internal: set[str] | frozenset[str],
    repos: Sequence[RepoSpec],
) -> ResolvedDependencies:
    """Exec-scope re-resolution, for runtime images without build-only deps."""

    if resolved.scope != "all":
        raise ValueError("runtime_subset expects an all-scope resolution")
    return resolve(keys, db, index, internal, repos, scope="exec_only")
