"""Parsing of ROS package manifests and workspace discovery.

A workspace is any directory tree holding one or more ``package.xml``
manifests. Manifest formats 1 through 3 are accepted uniformly; the
dependency tags of each format are folded into two scopes (build and
exec); test dependencies are checked but kept in neither. Elements outside
the supported subset, such as ``<export>``, are ignored so that newer
manifest additions do not break scanning.

Parsed manifests can be memoized in a cache directory, one file per
workspace, each record under the BLAKE2b-256 digest of its ``package.xml``
file's bytes; the bytes are decoded and the XML parsed, and ``xml.etree``
imported, only for manifests the memo does not hold. Beside the records
the memo keeps a stat snapshot of the walk that wrote it: while every
path it watched (see :func:`_walk`) still stats the same, a scan builds
its result from the snapshot without listing a directory, reading a
manifest or hashing one (see :data:`RACY_MARGIN_NS` for when a snapshot
can be trusted).
"""

from __future__ import annotations

import errno
import functools
import operator
import os
import re
import time
from pathlib import Path
from typing import Iterable, NamedTuple

from . import __version__
from .errors import (
    DuplicatePackageName,
    EmptyWorkspace,
    MalformedManifest,
    UnreadableWorkspace,
    UnsupportedFormat,
)
from .textio import cache_name, hex_digest, read_cache, write_json

PACKAGE_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
VERSION_RE = re.compile(r"\d+(\.\d+)*")

IGNORE_MARKERS = ("AMENT_IGNORE", "CATKIN_IGNORE", "COLCON_IGNORE")

MANIFEST_MEMO_FORMAT = 7
"""Layout version of memoized manifests; part of every memo key."""

RACY_MARGIN_NS = 2_000_000_000
"""How much older than a walk's start each stat time must be for its snapshot to be kept.

Git's racy-clean rule (``Documentation/technical/racy-git.txt`` in git's
source). File timestamps come from a coarse clock: a jiffy (10 ms at
most) behind the time of day, whole seconds on ext3 and HFS+, even
seconds on FAT. A file changed just after the walk read it could keep
its size and timestamps, unless each was this much older than the walk;
then any later change gets a newer one. Nothing can set a ctime, so an
edit that keeps the size and restores the mtime is still seen.
"""

_ABSENT = (-1, -1, -1, -1, -1)
"""The stat signature of a path that names nothing."""

# Dependency tag -> scopes it contributes to. ``depend`` expands to both
# build and exec; the build, build-export and buildtool tags (REP 149) count
# as build-scope because each is needed to compile against the package.
# Nothing installs test dependencies, so ``test_depend`` adds to no scope;
# ``doc_depend``, which rosdep leaves out by default, is not read at all.
_DEP_TAG_SCOPES = {
    "depend": ("build", "exec"),
    "build_depend": ("build",),
    "build_export_depend": ("build",),
    "buildtool_depend": ("build",),
    "buildtool_export_depend": ("build",),
    "exec_depend": ("exec",),
    "run_depend": ("exec",),
    "test_depend": (),
}

# Compiled on first use (``re`` keeps it): a scan the memo serves evaluates no condition.
_CONDITION_TOKEN = r"\s*(\$\w+|[=!<>]=|[<>]|\(|\)|'[^']*'|\"[^\"]*\"|[^\s()'\"=!<>]+)"
# REP 149's comparisons, which compare the two values as strings.
_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class PackageManifest(NamedTuple):
    """One parsed ``package.xml``.

    ``source_dir`` is the package directory relative to the workspace root
    as a POSIX path string: ``src/pkg``, or ``.`` for a package at the root.
    """

    name: str
    deps_build: frozenset[str] = frozenset()
    deps_exec: frozenset[str] = frozenset()
    source_dir: str = "."


class Workspace(NamedTuple):
    """What a scan found: packages, and directories skipped for an ignore marker."""

    packages: list[PackageManifest]
    ignored_dirs: list[Path]


class ManifestMemo:
    """Parsed manifests by the digest of their file's bytes, for :func:`parse_manifest`.

    ``cached`` holds the records read from a memo file and is only looked up.
    ``records`` gets the record of every manifest that passes through the
    memo, so it holds exactly one scan's manifests.
    """

    def __init__(self, cached: dict[str, object]) -> None:
        self.cached = cached
        self.records: dict[str, object] = {}


def evaluate_condition(expression: str, env: dict[str, str]) -> bool:
    """Evaluate a manifest ``condition`` attribute.

    Supports ``$VAR <op> literal`` comparisons, with ``<op>`` one of ``==``,
    ``!=``, ``<``, ``<=``, ``>`` and ``>=`` comparing strings, joined by
    ``and`` / ``or`` with optional parentheses. A comparison referencing
    a variable absent from ``env`` is false. Syntax outside this subset
    raises :class:`MalformedManifest`.
    """

    token_re = re.compile(_CONDITION_TOKEN)
    tokens = []
    pos = 0
    while pos < len(expression):
        match = token_re.match(expression, pos)
        if match is None:
            break
        tokens.append(match.group(1))
        pos = match.end()
    if expression[pos:].strip():
        raise MalformedManifest(f"invalid condition syntax: {expression!r}")

    def strip_quotes(token: str) -> str:
        if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
            return token[1:-1]
        return token

    def parse_operand(index: int) -> tuple[str, bool, int]:
        """Return (value, defined, next_index) for one comparison operand."""
        if index >= len(tokens):
            raise MalformedManifest(f"truncated condition: {expression!r}")
        token = tokens[index]
        if token.startswith("$"):
            var = token[1:]
            return env.get(var, ""), var in env, index + 1
        if token in ("(", ")", "and", "or") or token in _COMPARISONS:
            raise MalformedManifest(f"invalid condition syntax: {expression!r}")
        return strip_quotes(token), True, index + 1

    def parse_primary(index: int) -> tuple[bool, int]:
        if index < len(tokens) and tokens[index] == "(":
            value, index = parse_or(index + 1)
            if index >= len(tokens) or tokens[index] != ")":
                raise MalformedManifest(f"unbalanced parentheses: {expression!r}")
            return value, index + 1
        left, left_defined, index = parse_operand(index)
        if index >= len(tokens) or tokens[index] not in _COMPARISONS:
            raise MalformedManifest(f"expected comparison in condition: {expression!r}")
        op = tokens[index]
        right, right_defined, index = parse_operand(index + 1)
        # A comparison over an unset variable is false regardless of operator.
        if not (left_defined and right_defined):
            return False, index
        return _COMPARISONS[op](left, right), index

    def parse_and(index: int) -> tuple[bool, int]:
        value, index = parse_primary(index)
        while index < len(tokens) and tokens[index] == "and":
            rhs, index = parse_primary(index + 1)
            value = value and rhs
        return value, index

    def parse_or(index: int) -> tuple[bool, int]:
        value, index = parse_and(index)
        while index < len(tokens) and tokens[index] == "or":
            rhs, index = parse_and(index + 1)
            value = value or rhs
        return value, index

    if not tokens:
        raise MalformedManifest("empty condition attribute")
    result, index = parse_or(0)
    if index != len(tokens):
        raise MalformedManifest(f"trailing tokens in condition: {expression!r}")
    return result


@functools.lru_cache(maxsize=1024)
def _condition_holds(expression: str, env_items: tuple[tuple[str, str], ...]) -> bool:
    """:func:`evaluate_condition`, memoized: a workspace repeats few expressions."""

    return evaluate_condition(expression, dict(env_items))


def parse_manifest(
    digest: str,
    data: bytes | None,
    condition_env: dict[str, str],
    source_dir: str,
    memo: ManifestMemo,
) -> PackageManifest | None:
    """The :class:`PackageManifest` of the ``package.xml`` file whose bytes have ``digest``.

    ``digest`` is the BLAKE2b-256 digest of those bytes (see
    :func:`~forge.textio.hex_digest`); a record ``memo`` holds under it
    stands for their decode and parse once it passes the same checks.
    Else ``data``, the bytes, are decoded as UTF-8 (else
    :class:`UnicodeDecodeError`) and parsed; the XML parser translates
    newlines as text-mode ``open`` does (XML 1.0 §2.11). With no
    ``data``, as for a stat snapshot's row, the result is None.
    ``condition_env`` supplies the variables (conventionally ROS_VERSION
    and ROS_DISTRO) that ``condition`` attributes are evaluated against; a
    ``memo`` must only ever be used with one ``condition_env``.
    """

    record = memo.cached.get(digest)
    manifest = _from_record(record, source_dir)
    if manifest is None:
        if data is None:
            return None
        manifest = _parse_xml(data, condition_env, source_dir)
        record = _record(manifest)
    memo.records[digest] = record
    return manifest


def _record(manifest: PackageManifest) -> list[str]:
    """The memo record of ``manifest``: see :func:`_from_record`."""

    scopes = (manifest.deps_build, manifest.deps_exec)
    return [manifest.name, *(" ".join(sorted(keys)) for keys in scopes)]


def _from_record(record: object, source_dir: str) -> PackageManifest | None:
    """The manifest a memo record describes, or None unless it passes the parse checks.

    A record is ``[name, build keys, exec keys]``, each scope's keys joined
    by spaces. ``str.split`` gives no key that is empty or holds whitespace,
    which is what the parse checks of a key come to.
    """

    if type(record) is not list or len(record) != 3:
        return None
    name, build, exec_ = record
    if not (type(name) is type(build) is type(exec_) is str and PACKAGE_NAME_RE.fullmatch(name)):
        return None
    return PackageManifest(name, frozenset(build.split()), frozenset(exec_.split()), source_dir)


def _parse_xml(data: bytes, env: dict[str, str], source_dir: str) -> PackageManifest:
    # Imported on first use: a warm memo parses no XML.
    import xml.etree.ElementTree as ET

    xml_text = data.decode("utf-8")
    env_items = tuple(sorted(env.items()))

    def active(element: ET.Element) -> bool:
        condition = element.get("condition")
        return condition is None or _condition_holds(condition, env_items)

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedManifest(f"not well formed XML: {exc}") from exc
    if root.tag != "package":
        raise MalformedManifest(f"root element is <{root.tag}>, expected <package>")

    fmt_attr = root.get("format", "1")
    try:
        manifest_format = int(fmt_attr)
    except ValueError:
        raise UnsupportedFormat(f"non-numeric manifest format {fmt_attr!r}") from None
    if manifest_format not in (1, 2, 3):
        raise UnsupportedFormat(f"manifest format {manifest_format} is not supported")

    name_el = root.find("name")
    if name_el is None or not (name_el.text or "").strip():
        raise MalformedManifest("manifest has no <name>")
    name = (name_el.text or "").strip()
    if not PACKAGE_NAME_RE.fullmatch(name):
        raise MalformedManifest(f"invalid package name {name!r}")

    version_el = root.find("version")
    if version_el is None or not (version_el.text or "").strip():
        raise MalformedManifest(f"package {name!r} has no <version>")
    version = (version_el.text or "").strip()
    if not VERSION_RE.fullmatch(version):
        raise MalformedManifest(f"package {name!r} has invalid version {version!r}")

    scopes: dict[str, set[str]] = {"build": set(), "exec": set()}
    for element in root:
        targets = _DEP_TAG_SCOPES.get(element.tag)
        if targets is None or not active(element):
            continue
        key = (element.text or "").strip()
        if not key:
            raise MalformedManifest(f"package {name!r} has an empty <{element.tag}>")
        if key.split() != [key]:
            raise MalformedManifest(
                f"package {name!r} has whitespace inside a <{element.tag}> key: {key!r}"
            )
        for scope in targets:
            scopes[scope].add(key)

    return PackageManifest(
        name=name,
        deps_build=frozenset(scopes["build"]),
        deps_exec=frozenset(scopes["exec"]),
        source_dir=source_dir,
    )


def _is_file(entry: os.DirEntry) -> bool:
    """``entry.is_file()``, but False for a link that loops or runs through a file.

    ``Path.is_file`` answers False there too; ``DirEntry.is_file`` raises.
    """

    try:
        return entry.is_file()
    except OSError as exc:
        if exc.errno in (errno.ENOTDIR, errno.ELOOP):
            return False
        raise


def _signature(path: str | int) -> tuple[int, ...]:
    """The stat signature of what ``path`` or a file descriptor names, links followed.

    ``_ABSENT`` when that is nothing, or cannot be stat'ed.
    """

    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return _ABSENT
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def scan_workspace(
    root: Path,
    condition_env: dict[str, str],
    cache_dir: Path | None,
    write_cache: bool,
) -> Workspace:
    """Discover every package under ``root``, as colcon and catkin_pkg do.

    A directory holding an AMENT_IGNORE, CATKIN_IGNORE or COLCON_IGNORE
    marker is skipped with its subtree. Otherwise a directory holding a
    ``package.xml`` file is a package, and nothing below it is searched.
    Child directories whose names start with ``.`` and symlinked
    directories are not visited. Directories are visited parent first,
    children in name order. Packages are returned sorted by name;
    duplicate names and package-less trees are hard errors.

    Each live ``package.xml`` is read once, as bytes. With ``cache_dir``,
    parsed manifests are memoized there as ``manifests-<crc>.json``, one
    file per workspace, which holds ``{"key": ..., "records": ...,
    "snapshot": ...}``. The key is the memo format, the forge version, the
    absolute root and the sorted ``condition_env``; a file that holds
    another key is a miss, as one that cannot be read is. Each record is
    stored under the BLAKE2b-256 digest of its manifest file's bytes, so a
    manifest the memo holds is neither decoded nor parsed. The snapshot is
    the last walk's, or null (see :func:`_walk` for when a walk stores
    none); while it holds (see :func:`_from_snapshot`) no directory is
    listed and no manifest read. Only when ``write_cache`` is true, and only when the
    records change or the walk stores a snapshot, the file is replaced by
    this scan's manifests and snapshot. Memo I/O errors fall back silently
    to walking and parsing.
    """

    root = Path(root)
    if not root.is_dir():
        raise EmptyWorkspace(f"workspace root {root} is not a directory")
    if cache_dir is None:
        return _walk(root, condition_env, ManifestMemo({}))[0]

    env_parts = [part for item in sorted(condition_env.items()) for part in item]
    key = [f"manifests/{MANIFEST_MEMO_FORMAT}", __version__, os.path.abspath(root), *env_parts]
    memo_path = Path(cache_dir) / f"manifests-{cache_name(key)}.json"
    cached = read_cache(memo_path, key) or {}
    records = cached.get("records")
    if not isinstance(records, dict):
        records = {}
    workspace = _from_snapshot(cached.get("snapshot"), root, condition_env, ManifestMemo(records))
    if workspace is not None:
        return workspace
    memo = ManifestMemo(records)
    workspace, snapshot = _walk(root, condition_env, memo)
    content = {"key": key, "records": memo.records, "snapshot": snapshot}
    # A snapshot that failed is left in place, not rewritten as null: that
    # would write the whole memo to save a failed check, and the next walk
    # that stores a snapshot replaces it.
    if write_cache and (snapshot is not None or memo.records != records) and content != cached:
        write_json(memo_path, content)
    return workspace


def _from_snapshot(
    snapshot: object, root: Path, condition_env: dict[str, str], memo: ManifestMemo
) -> Workspace | None:
    """The workspace a memo's snapshot stands for, or None unless it still holds.

    The snapshot must be ``[paths, digests, stats]`` as :func:`_walk`
    returns it, read from the memo whose key names this root, with no racy
    time in ``stats``, and every path must still stat to its five ints
    there. The rows then give the result by the walk's own rules: a row
    with a digest is a package in the directory that holds the
    ``package.xml``, whose record must pass :func:`parse_manifest`'s
    checks, and a present ignore marker ignores its directory. Package
    names must be unique. A digest is trusted as a record is: only
    hashing the manifest could check it.
    """

    if type(snapshot) is not list or len(snapshot) != 3:
        return None
    paths, digests, stats = snapshot
    if not (
        set(map(type, snapshot)) == {list}
        and paths
        and len(digests) == len(paths)
        and len(stats) == 5 * len(paths)
        and set(map(type, paths)) == set(map(type, digests)) == {str}
        and set(map(type, stats)) == {int}
        and max(max(stats[3::5]), max(stats[4::5])) < time.time_ns() - RACY_MARGIN_NS
    ):
        return None
    head = _head(str(root))
    ints = iter(stats)
    signatures = list(zip(ints, ints, ints, ints, ints))
    # A miss stops at the first change.
    for path, signature in zip(paths, signatures):
        if _signature(head + path) != signature:
            return None

    packages = []
    ignored = set()
    for path, digest, signature in zip(paths, digests, signatures):
        directory, _, name = path.rpartition("/")
        if digest:
            if name != "package.xml":
                return None
            manifest = parse_manifest(digest, None, condition_env, directory or ".", memo)
            if manifest is None:
                return None
            packages.append(manifest)
        elif name in IGNORE_MARKERS and signature != _ABSENT:
            ignored.add(directory)
    if not packages or len({pkg.name for pkg in packages}) != len(packages):
        return None
    packages.sort(key=lambda p: p.name)
    return Workspace(packages, _ignored_dirs(root, ignored))


def _head(directory: str) -> str:
    """``directory`` as a prefix for the names in it.

    Only a root such as "/" already ends in a slash.
    """

    return directory if directory.endswith("/") else directory + "/"


def _ignored_dirs(root: Path, ignored: Iterable[str]) -> list[Path]:
    return sorted(Path(_head(str(root)) + rel) if rel else root for rel in ignored)


def _walk(
    root: Path, condition_env: dict[str, str], memo: ManifestMemo
) -> tuple[Workspace, list | None]:
    """List ``root`` for :func:`scan_workspace`; also return the walk's snapshot.

    The snapshot is ``[paths, digests, stats]``, one row per watched path:
    each directory listed, and each ignore marker and ``package.xml``
    entry seen, relative to ``root``; the manifest's digest for a
    ``package.xml`` that was read, else ""; and five stat ints
    ``(st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)`` for each,
    links followed, ``_ABSENT`` for a name that points nowhere. Of an
    ignored directory only its present markers are watched, so files
    written under it do not spoil the snapshot. A directory is stat'ed
    before it is listed, and a manifest through the open file before it
    is read, so a change made during the walk shows as a newer time. The
    snapshot is None when a time in it is racy (see
    :data:`RACY_MARGIN_NS`), and when the memo held no record: a
    workspace scanned for the first time, as in every CI job, may never
    be scanned again, so only its next walk stats its directories.
    """

    start = time.time_ns()
    track = bool(memo.cached)
    # Each live manifest in walk order: (path relative to root, path, bytes, digest).
    found: list[tuple[str, str, bytes, str]] = []
    ignored: list[str] = []
    paths: list[str] = []
    digests: list[str] = []
    stats: list[int] = []
    failure = None

    def watch(path: str, digest: str, signature: tuple[int, ...]) -> None:
        paths.append(path)
        digests.append(digest)
        stats.extend(signature)

    # Directories left to visit as (path, path relative to root), next last.
    stack = [(str(root), "")]
    while stack:
        directory, rel = stack.pop()
        rel_head = rel + "/" if rel else ""
        rows = len(paths)
        markers: list[tuple[str, tuple[int, ...]]] = []
        manifest_path = None
        children: list[str] = []
        try:
            if track:
                # A directory that cannot be stat'ed cannot be listed either.
                watch(rel, "", _signature(directory))
            with os.scandir(directory) as entries:
                for entry in entries:
                    name = entry.name
                    if name in IGNORE_MARKERS:
                        markers.append((rel_head + name, _signature(entry.path)))
                    elif name == "package.xml" and _is_file(entry):
                        manifest_path = entry.path
                    else:
                        if track and name == "package.xml":
                            # A link that names no file can come to name
                            # one while this directory stays the same.
                            watch(rel_head + name, "", _signature(entry.path))
                        if not name.startswith(".") and entry.is_dir(follow_symlinks=False):
                            children.append(name)
            # A dangling marker symlink does not count.
            ignore = any(signature is not _ABSENT for _, signature in markers)
            if track:
                if ignore:
                    # Only a present marker's removal can change that.
                    del paths[rows:], digests[rows:], stats[5 * rows:]
                for marker, signature in markers:
                    if not (ignore and signature is _ABSENT):
                        watch(marker, "", signature)
            if manifest_path is not None and not ignore:
                with open(manifest_path, "rb", buffering=0) as handle:
                    if track:
                        manifest_signature = _signature(handle.fileno())
                    data = handle.read()
        except OSError as exc:
            # Raised once the manifests found before it have parsed.
            failure = exc, directory
            break
        if ignore:
            ignored.append(rel)
        elif manifest_path is not None:
            found.append((rel, manifest_path, data, hex_digest("blake2b", data)))
            if track:
                watch(rel_head + "package.xml", found[-1][3], manifest_signature)
        else:
            children.sort(reverse=True)
            head = _head(directory)
            stack.extend([(head + name, rel_head + name) for name in children])

    packages: list[PackageManifest] = []
    for rel, manifest_path, data, digest in found:
        try:
            manifest = parse_manifest(digest, data, condition_env, rel or ".", memo)
        except (MalformedManifest, UnsupportedFormat) as exc:
            where = f"{rel}/package.xml" if rel else "package.xml"
            raise type(exc)(f"{where}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise MalformedManifest(
                f"{manifest_path} is not UTF-8: {exc.reason} at byte {exc.start}"
            ) from exc
        packages.append(manifest)
    if failure:
        exc, directory = failure
        where = exc.filename or directory
        raise UnreadableWorkspace(f"cannot read {where}: {exc.strerror}") from exc

    if not packages:
        raise EmptyWorkspace(f"no package manifests found under {root}")

    seen: dict[str, str] = {}
    for pkg in packages:
        if pkg.name in seen:
            raise DuplicatePackageName(
                f"package {pkg.name!r} appears in both {seen[pkg.name]} and {pkg.source_dir}"
            )
        seen[pkg.name] = pkg.source_dir

    packages.sort(key=lambda p: p.name)
    workspace = Workspace(packages=packages, ignored_dirs=_ignored_dirs(root, ignored))
    if not track or max(max(stats[3::5]), max(stats[4::5])) >= start - RACY_MARGIN_NS:
        return workspace, None
    return workspace, [paths, digests, stats]
