"""Workspace scanning: the reference walk, the manifest memo, depth and errors.

Mutated workspace inputs (manifests, ``.repos`` files, ``forge.yaml``,
rosdep databases and distro indexes) make ``analyze`` and ``generate
dockerfile`` exit 0 or 2, never crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forge.manifest
from forge.cli import main
from forge.errors import (
    DuplicatePackageName,
    MalformedManifest,
    UnreadableWorkspace,
    UnsupportedFormat,
)
from forge.manifest import scan_workspace
from forge.textio import cache_name

from dockerfile_syntax import dockerfile_problems
from scan_oracle import oracle_scan, parse_bytes

ENV = {"ROS_VERSION": "2", "ROS_DISTRO": "humble"}


def manifest_xml(name: str, extra: str = "") -> str:
    return (
        f'<package format="3"><name>{name}</name><version>1.0.0</version>{extra}'
        "<export><build_type>ament_cmake</build_type></export></package>\n"
    )


CONDITIONAL = (
    '<depend condition="$ROS_VERSION == 2">rclcpp</depend>'
    '<depend condition="$ROS_VERSION == 1">roscpp</depend>'
)
# Keys of one scope each, so that a record with its scopes swapped shows.
SCOPED = "<build_depend>ament_cmake</build_depend><exec_depend>python3-yaml</exec_depend>"

# Package names: a pool small enough that duplicates turn up.
_PACKAGES = [f"pkg_{letter}" for letter in "abcdefghijkl"]
# Manifests that fail to parse or to decode.
_BAD = [
    b"<package><name>broken</name>",
    manifest_xml("future").replace('format="3"', 'format="4"').encode(),
    manifest_xml("latin").encode() + b"<!-- caf\xe9 -->\n",
]
# Valid manifests whose bytes differ from the text a text-mode read gives,
# so the bytes-keyed memo and the decode step see them differently: CRLF
# and lone-CR line endings, a UTF-8 byte order mark, non-ASCII text.
_DESCRIPTION = "<description>Café ロボット</description>"
_ENCODINGS = [
    lambda xml: xml.replace("><", ">\r\n<").encode(),
    lambda xml: xml.replace("><", ">\r<").encode(),
    lambda xml: b"\xef\xbb\xbf" + xml.encode(),
    lambda xml: xml.replace("</version>", "</version>" + _DESCRIPTION).encode(),
]
# Symlink targets: a manifest file and a package directory outside the
# workspace, a missing path, and the link itself (a loop).
_LINK_TARGETS = ["store_file", "store_dir", "missing", "loop"]


@st.composite
def manifest_entries(draw: st.DrawFn):
    """What a directory holds under the name ``package.xml``."""

    kind = draw(st.integers(0, 19))
    if kind == 0:
        return ("file", draw(st.sampled_from(_BAD)))
    if kind <= 2:
        return ("link", draw(st.sampled_from(_LINK_TARGETS)))
    if kind == 3:
        return {"package.xml": ("file", manifest_xml("nested").encode())}
    name = draw(st.sampled_from(_PACKAGES))
    extra = draw(st.sampled_from(["", CONDITIONAL, SCOPED]))
    if kind <= 5:
        return ("file", draw(st.sampled_from(_ENCODINGS))(manifest_xml(name, extra)))
    return ("file", manifest_xml(name, extra).encode())


_MARKERS = st.one_of(
    st.just(("file", b"")),
    st.just({}),
    st.sampled_from(_LINK_TARGETS).map(lambda target: ("link", target)),
)


@st.composite
def trees(draw: st.DrawFn, depth: int = 0) -> dict:
    """A directory: maybe a manifest, rarely a marker, up to four children.

    A child is a subtree, possibly a dot-directory, or, rarely, a symlink
    to a package directory.
    """

    tree: dict = {}
    if draw(st.booleans()):
        tree["package.xml"] = draw(manifest_entries())
    if draw(st.integers(0, 9)) == 0:
        tree[draw(st.sampled_from(["AMENT_IGNORE", "CATKIN_IGNORE", "COLCON_IGNORE"]))] = draw(
            _MARKERS
        )
    if depth < 4:
        names = st.sampled_from(["a", "b", "c", ".git"])
        for name in draw(st.lists(names, unique=True, max_size=4)):
            if draw(st.integers(0, 9)) == 0:
                tree[name] = ("link", "store_dir")
            else:
                tree[name] = draw(trees(depth + 1))
    return tree


def build_tree(directory: Path, tree: dict, store: Path) -> None:
    directory.mkdir()
    for name, node in tree.items():
        path = directory / name
        if isinstance(node, dict):
            build_tree(path, node, store)
        elif node[0] == "file":
            path.write_bytes(node[1])
        else:
            path.symlink_to(path if node[1] == "loop" else store / node[1])


def outcome(scan, root: Path) -> tuple:
    try:
        return ("ok", scan(root, ENV))
    except Exception as exc:  # compared, not swallowed
        return ("error", type(exc), str(exc))


def build_workspace(base: Path, tree: dict) -> Path:
    """``tree`` built as ``base/ws``, next to the store its symlinks point into."""

    store = base / "store"
    (store / "store_dir").mkdir(parents=True)
    (store / "store_file").write_text(manifest_xml("linked"), encoding="utf-8")
    (store / "store_dir" / "package.xml").write_text(manifest_xml("followed"), encoding="utf-8")
    root = base / "ws"
    build_tree(root, tree, store)
    return root


@settings(max_examples=200, deadline=None)
@given(trees())
def test_scan_matches_reference_walk(tree: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = build_workspace(Path(tmp), tree)
        assert outcome(scan_with(None), root) == outcome(oracle_scan, root)


def test_reference_walk_sees_every_rule(tmp_path) -> None:
    # One fixed tree holding each case the property test draws from, so a
    # strategy change that stops producing them cannot go unnoticed.
    alpha, beta = (("file", manifest_xml(name).encode()) for name in ("alpha", "beta"))
    tree = {
        # a package directory is not searched, so its nested package and
        # its bad manifest below are never read
        "a": {
            "package.xml": alpha,
            "b": {"package.xml": beta},
            "c": {"package.xml": ("file", _BAD[0])},
        },
        # dot-directories are not entered
        ".git": {"package.xml": beta},
        "g": {".hidden": {"package.xml": beta}, "h": {"package.xml": beta}},
        # a symlinked manifest counts; a dangling marker symlink does not
        "b": {"package.xml": ("link", "store_file"), "COLCON_IGNORE": ("link", "missing")},
        # a directory named package.xml is walked into
        "package.xml": {"package.xml": ("file", manifest_xml("gamma", CONDITIONAL).encode())},
        # a marker that is a directory, and a plain marker file; an ignored
        # manifest is never read, so its bad bytes raise nothing
        "c": {"COLCON_IGNORE": {}, "package.xml": ("file", _BAD[2])},
        "d": {"CATKIN_IGNORE": ("file", b""), "e": {"package.xml": beta}},
        # a marker symlinked to a file counts, and beats a manifest
        "i": {"AMENT_IGNORE": ("link", "store_file"), "package.xml": alpha},
        # a symlinked package directory is not followed; a looping link is no file
        "e": ("link", "store_dir"),
        "f": {"package.xml": ("link", "loop")},
    }
    root = build_workspace(tmp_path, {"src": tree})
    workspace = scan_workspace(root, ENV, None, True)
    assert workspace == oracle_scan(root, ENV)
    assert [(p.name, str(p.source_dir)) for p in workspace.packages] == [
        ("alpha", "src/a"),
        ("beta", "src/g/h"),
        ("gamma", "src/package.xml"),
        ("linked", "src/b"),
    ]
    assert workspace.packages[2].deps_build == frozenset({"rclcpp"})
    assert workspace.ignored_dirs == [root / "src" / name for name in ("c", "d", "i")]


def test_scan_survives_a_tree_deeper_than_the_recursion_limit(tmp_path) -> None:
    # Built and removed one level at a time: pathlib's and shutil's own
    # recursive helpers would hit the limit too.
    depth = sys.getrecursionlimit() + 100
    bottom = tmp_path
    for _ in range(depth):
        bottom = bottom / "d"
        bottom.mkdir()
    (bottom / "package.xml").write_text(manifest_xml("deep"), encoding="utf-8")
    # A sibling of the chain: a manifest at the root would end the scan there.
    (tmp_path / "top").mkdir()
    (tmp_path / "top" / "package.xml").write_text(manifest_xml("top"), encoding="utf-8")
    try:
        workspace = scan_workspace(tmp_path, ENV, None, True)
        assert [(p.name, p.source_dir) for p in workspace.packages] == [
            ("deep", "/".join(["d"] * depth)),
            ("top", "top"),
        ]
    finally:
        (bottom / "package.xml").unlink()
        while bottom != tmp_path:
            bottom.rmdir()
            bottom = bottom.parent


# --- the manifest memo -------------------------------------------------------


def memo_files(cache: Path) -> list[Path]:
    return sorted(cache.glob("manifests-*.json"))


def scan_with(cache: Path | None):
    return lambda root, env: scan_workspace(root, env, cache, True)


@settings(max_examples=100, deadline=None)
@given(trees())
def test_cold_and_warm_memo_scan_like_no_memo(tree: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = build_workspace(Path(tmp), tree)
        cache = Path(tmp) / "cache"
        expected = outcome(scan_with(None), root)
        assert outcome(scan_with(cache), root) == expected
        if expected[0] == "ok":
            with mock.patch("forge.manifest._parse_xml", side_effect=AssertionError("parsed")):
                assert outcome(scan_with(cache), root) == expected
        else:
            assert outcome(scan_with(cache), root) == expected


def _memo_workspace(root: Path) -> None:
    for name in ("alpha", "beta"):
        (root / "src" / name).mkdir(parents=True)
        (root / "src" / name / "package.xml").write_text(
            manifest_xml(name, CONDITIONAL + "<test_depend>gtest</test_depend>"),
            encoding="utf-8",
        )
    (root / "build").mkdir()
    (root / "build" / "COLCON_IGNORE").touch()


def _warm(tmp_path: Path) -> tuple[Path, Path, bytes]:
    """A workspace, a cache holding its memo, and the memo file's bytes.

    The first scan stores the records, the second the snapshot, unless
    the workspace is too new for one (see ``no_racy_margin``).
    """

    root = tmp_path / "ws"
    _memo_workspace(root)
    cache = tmp_path / "cache"
    for _ in range(2):
        scan_workspace(root, ENV, cache, True)
    (path,) = memo_files(cache)
    return root, cache, path.read_bytes()


def test_a_memo_without_records_gets_its_snapshot_on_the_next_walk(
    tmp_path, no_racy_margin
) -> None:
    root = tmp_path / "ws"
    _memo_workspace(root)
    cache = tmp_path / "cache"
    scan_workspace(root, ENV, cache, True)
    (path,) = memo_files(cache)
    assert json.loads(path.read_bytes())["snapshot"] is None
    scan_workspace(root, ENV, cache, True)
    assert json.loads(path.read_bytes())["snapshot"] is not None


# Every character that ``str.split`` splits at, and a few that it does not.
_KEY_TEXT = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u200bab_-"))


@given(st.one_of(_KEY_TEXT, st.text()), st.one_of(_KEY_TEXT, st.text()))
def test_any_memo_key_string_gives_only_words(build: str, exec_: str) -> None:
    manifest = forge.manifest._from_record(["pkg", build, exec_], ".")
    for key in manifest.deps_build | manifest.deps_exec:
        assert key and key.split() == [key]


_WORDS = st.frozensets(st.from_regex(r"[A-Za-z0-9_.+é-]+", fullmatch=True), max_size=4)


@given(_WORDS, _WORDS)
def test_memo_record_round_trips_a_parsed_manifest(build: frozenset, exec_: frozenset) -> None:
    extra = "".join(f"<build_depend>{key}</build_depend>" for key in build)
    extra += "".join(f"<exec_depend>{key}</exec_depend>" for key in exec_)
    memo = forge.manifest.ManifestMemo({})
    parsed = parse_bytes(manifest_xml("pkg", extra).encode(), ENV, "src/pkg", memo)
    assert (parsed.deps_build, parsed.deps_exec) == (build, exec_)
    (record,) = json.loads(json.dumps(list(memo.records.values())))
    assert forge.manifest._from_record(record, "src/pkg") == parsed


@pytest.fixture
def no_racy_margin(monkeypatch) -> None:
    """Keep the snapshot of a workspace written just before the scan.

    Only for tests that change no file of the workspace after its first
    scan: a change within the timestamp clock's granularity could go unseen.
    """

    monkeypatch.setattr(forge.manifest, "RACY_MARGIN_NS", 0)


def test_warm_memo_skips_the_parse_and_the_write(tmp_path) -> None:
    root, cache, good = _warm(tmp_path)
    records = json.loads(good)["records"]
    assert sorted(records.values()) == [["alpha", "rclcpp", "rclcpp"], ["beta", "rclcpp", "rclcpp"]]
    (path,) = memo_files(cache)
    inode = path.stat().st_ino
    expected = scan_workspace(root, ENV, None, True)
    with mock.patch("forge.manifest._parse_xml", side_effect=AssertionError("parsed")):
        assert scan_workspace(root, ENV, cache, True) == expected
    # A scan without a miss leaves the file alone; a write would replace it.
    assert path.stat().st_ino == inode


def _set_field(index: int, value: object):
    def damage(records: dict) -> object:
        for record in records.values():
            record[index] = value
        return records

    return damage


def _damaged_memo(good: bytes, part: str, damage) -> str:
    """The memo file ``good`` with ``damage`` applied to its ``part``; a string replaces the file."""

    doc = json.loads(good)
    damaged = damage(doc[part])
    return damaged if isinstance(damaged, str) else json.dumps({**doc, part: damaged})


@pytest.mark.parametrize(
    "damage",
    [
        lambda records: "not json",
        lambda records: list(records.values()),
        lambda records: {digest: dict(enumerate(r)) for digest, r in records.items()},
        lambda records: {digest: r[:2] for digest, r in records.items()},
        lambda records: {digest: [*r, "gtest"] for digest, r in records.items()},
        lambda records: {digest: "".join(map(str, r)) for digest, r in records.items()},
        _set_field(0, "9lives"),
        _set_field(0, "name\n"),
        _set_field(1, 7),
        _set_field(2, ["rclcpp"]),
    ],
    ids=["not-json", "not-a-dict", "record-dict", "record-short", "record-long", "record-string",
         "bad-name", "name-newline", "non-string-deps", "deps-list"],
)
def test_damaged_memo_is_a_rewritten_miss(tmp_path, no_racy_margin, damage) -> None:
    # The snapshot holds, so each damaged record is met on the snapshot's
    # path first, then by the walk it falls back to.
    root, cache, good = _warm(tmp_path)
    assert json.loads(good)["snapshot"] is not None
    (path,) = memo_files(cache)
    path.write_text(_damaged_memo(good, "records", damage), "utf-8")
    assert scan_workspace(root, ENV, cache, True) == scan_workspace(root, ENV, None, True)
    assert json.loads(path.read_bytes())["records"] == json.loads(good)["records"]
    # A memo that lost every record gets its snapshot back on the next walk.
    scan_workspace(root, ENV, cache, True)
    assert path.read_bytes() == good


def _set_snapshot_part(index: int, change):
    def damage(snapshot: list) -> list:
        snapshot[index] = change(snapshot[index])
        return snapshot

    return damage


def _add_row(path: str, like: str):
    """Add a row for ``path`` with the digest and stats of the row for ``like``."""

    def damage(snapshot: list) -> list:
        paths, digests, stats = snapshot
        row = paths.index(like)
        return [[*paths, path], [*digests, digests[row]], stats + stats[5 * row:5 * row + 5]]

    return damage


def _rename_rows(renames: dict[str, str]):
    return _set_snapshot_part(0, lambda paths: [renames.get(path, path) for path in paths])


_ALPHA, _BETA = "src/alpha/package.xml", "src/beta/package.xml"


@pytest.mark.parametrize(
    "damage",
    [
        lambda snapshot: {"snapshot": snapshot},
        lambda snapshot: snapshot[:2],
        _set_snapshot_part(2, lambda stats: stats[:-1]),
        _set_snapshot_part(2, lambda stats: list(map(str, stats))),
        _set_snapshot_part(1, lambda digests: [digest and "0" * 64 for digest in digests]),
        _add_row(_ALPHA, _ALPHA),
        lambda snapshot: [*snapshot, "extra"],
        _rename_rows({_ALPHA: "src/package.xml"}),
        _rename_rows({_ALPHA: _BETA, _BETA: _ALPHA}),
        _rename_rows({"build/COLCON_IGNORE": "src/COLCON_IGNORE"}),
        _add_row("src/alpha/COLCON_IGNORE", "build/COLCON_IGNORE"),
    ],
    ids=["not-a-list", "snapshot-short", "stats-short", "non-int-stats", "digest-not-in-records",
         "duplicate-package", "snapshot-long", "source-dir-changed", "source-dirs-swapped",
         "ignored-changed", "ignored-added"],
)
def test_damaged_snapshot_is_a_rewritten_miss(tmp_path, no_racy_margin, damage) -> None:
    root, cache, good = _warm(tmp_path)
    (path,) = memo_files(cache)
    path.write_text(_damaged_memo(good, "snapshot", damage), "utf-8")
    assert scan_workspace(root, ENV, cache, True) == scan_workspace(root, ENV, None, True)
    assert path.read_bytes() == good


def test_snapshot_written_for_another_root_is_a_rewritten_miss(tmp_path, no_racy_margin) -> None:
    # A link to the workspace is another root, with its own memo, whose
    # snapshot's paths stat the same as the workspace's own.
    root, cache, good = _warm(tmp_path)
    other = tmp_path / "link"
    other.symlink_to(root)
    for _ in range(2):
        scan_workspace(other, ENV, cache, True)
    (path,) = [memo for memo in memo_files(cache) if memo.read_bytes() == good]
    (other_path,) = [memo for memo in memo_files(cache) if memo != path]
    assert json.loads(other_path.read_bytes())["snapshot"] == json.loads(good)["snapshot"]
    path.write_bytes(other_path.read_bytes())
    expected = scan_workspace(root, ENV, None, True)
    with mock.patch("forge.manifest._walk", wraps=forge.manifest._walk) as walk:
        assert scan_workspace(root, ENV, cache, True) == expected
    assert walk.call_count == 1
    # The walk found no record under this root's key, so only the next adds the snapshot.
    scan_workspace(root, ENV, cache, True)
    assert path.read_bytes() == good


@pytest.mark.parametrize("part", [0, 1, 2, 3], ids=["format", "version", "root", "condition-env"])
def test_memo_holding_another_key_is_a_rewritten_miss(tmp_path, no_racy_margin, part) -> None:
    # A well-formed memo at this key's file name: what a CRC-32 collision,
    # or a file copied from another cache, looks like.
    root, cache, good = _warm(tmp_path)
    (path,) = memo_files(cache)
    doc = json.loads(good)
    doc["key"][part] += "-other"
    other = json.dumps(doc).encode()
    path.write_bytes(other)
    expected = scan_workspace(root, ENV, None, True)
    for write_cache in (False, True):
        with mock.patch("forge.manifest._parse_xml", wraps=forge.manifest._parse_xml) as parsed:
            assert scan_workspace(root, ENV, cache, write_cache) == expected
        assert parsed.call_count == 2
        if not write_cache:
            assert path.read_bytes() == other
    assert json.loads(path.read_bytes())["key"] == json.loads(good)["key"]
    scan_workspace(root, ENV, cache, True)
    assert path.read_bytes() == good


def test_a_format_5_memo_is_a_rewritten_miss(tmp_path, no_racy_margin) -> None:
    # Format 5 keyed each record by the sha256 of its manifest's bytes;
    # format 6 keys it by BLAKE2b-256. The old memo is met at its own name
    # and, as after a CRC-32 collision, at the new one.
    root, cache, good = _warm(tmp_path)
    (path,) = memo_files(cache)
    doc = json.loads(good)
    manifests = [(root / "src" / name / "package.xml").read_bytes() for name in ("alpha", "beta")]
    blake2b = {hashlib.blake2b(data, digest_size=32).hexdigest(): data for data in manifests}
    assert set(doc["records"]) == set(blake2b)
    sha256 = {digest: hashlib.sha256(data).hexdigest() for digest, data in blake2b.items()}
    paths, digests, stats = doc["snapshot"]
    old = {
        "key": ["manifests/5", *doc["key"][1:]],
        "records": {sha256[digest]: record for digest, record in doc["records"].items()},
        "snapshot": [paths, [sha256.get(digest, digest) for digest in digests], stats],
    }
    old_path = cache / f"manifests-{cache_name(old['key'])}.json"
    for memo in (path, old_path):
        memo.write_text(json.dumps(old), "utf-8")
    expected = scan_workspace(root, ENV, None, True)
    with mock.patch("forge.manifest._parse_xml", wraps=forge.manifest._parse_xml) as parsed:
        assert scan_workspace(root, ENV, cache, True) == expected
    assert parsed.call_count == 2
    assert json.loads(path.read_bytes())["key"] == doc["key"]
    assert json.loads(path.read_bytes())["records"] == doc["records"]
    scan_workspace(root, ENV, cache, True)
    assert path.read_bytes() == good
    assert json.loads(old_path.read_bytes()) == old


def test_snapshot_hit_lists_no_directory_and_reads_no_manifest(
    tmp_path, monkeypatch, no_racy_margin
) -> None:
    root, cache, good = _warm(tmp_path)
    expected = scan_workspace(root, ENV, None, True)
    (path,) = memo_files(cache)
    inode = path.stat().st_ino
    monkeypatch.setattr(os, "scandir", mock.Mock(side_effect=AssertionError("listed")))
    monkeypatch.setattr(forge.manifest, "open", mock.Mock(side_effect=AssertionError("read")),
                        raising=False)
    monkeypatch.setattr(forge.manifest, "_parse_xml", mock.Mock(side_effect=AssertionError("xml")))
    assert scan_workspace(root, ENV, cache, True) == expected
    assert path.stat().st_ino == inode


def test_racy_snapshot_is_not_stored(tmp_path) -> None:
    # The workspace was written just now, well inside the racy margin.
    root, cache, good = _warm(tmp_path)
    assert json.loads(good)["snapshot"] is None


def test_a_racy_walk_leaves_a_failed_snapshot_in_place(tmp_path) -> None:
    with mock.patch.object(forge.manifest, "RACY_MARGIN_NS", 0):
        root, cache, good = _warm(tmp_path)
    assert json.loads(good)["snapshot"] is not None
    (path,) = memo_files(cache)
    inode = path.stat().st_ino
    # An editor's save next to a manifest: the package directory changes.
    (root / "src" / "alpha" / "CMakeLists.txt").write_text("project(alpha)\n", "utf-8")
    expected = scan_workspace(root, ENV, None, True)
    with mock.patch("forge.manifest._walk", wraps=forge.manifest._walk) as walk:
        assert scan_workspace(root, ENV, cache, True) == expected
    assert walk.call_count == 1
    assert path.stat().st_ino == inode


def test_a_file_written_under_an_ignored_directory_keeps_the_snapshot(
    tmp_path, no_racy_margin
) -> None:
    root, cache, good = _warm(tmp_path)
    (root / "build" / "alpha").mkdir()
    (root / "build" / "alpha" / "package.xml").write_text(manifest_xml("alpha"), "utf-8")
    expected = scan_workspace(root, ENV, None, True)
    assert expected.ignored_dirs == [root / "build"]
    with mock.patch("forge.manifest._walk", side_effect=AssertionError("walked")):
        assert scan_workspace(root, ENV, cache, True) == expected


def test_non_utf8_workspace_path_round_trips_through_the_memo(tmp_path, no_racy_margin) -> None:
    root = Path(os.fsdecode(bytes(tmp_path) + b"/ws\xff"))
    _memo_workspace(root)
    cache = tmp_path / "cache"
    expected = scan_workspace(root, ENV, None, True)
    for _ in range(2):
        assert scan_workspace(root, ENV, cache, True) == expected
    (path,) = memo_files(cache)
    assert json.loads(path.read_bytes())["key"][2] == str(root)
    with mock.patch("forge.manifest._walk", side_effect=AssertionError("walked")):
        assert scan_workspace(root, ENV, cache, True) == expected
    assert main(["analyze", str(root)]) == 0


# --- snapshot equivalence under edits ----------------------------------------
#
# Each drawn edit changes the workspace after a scan that stored a snapshot;
# the scan after it must see the change. The margin is kept just above the
# timestamp clock's granularity, and the first scan waits it out.

_MARGIN_S = 0.05


def _entries(root: Path, match) -> list[Path]:
    """Paths under ``root`` (links not followed) for which ``match`` holds, in order."""

    found = []
    for directory, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(dirnames + filenames):
            path = Path(directory, name)
            if match(path):
                found.append(path)
    return found


def _rewrite_same_size(path: Path, data: bytes) -> None:
    """Replace ``path``'s bytes in place with ``data``, padded to its size, mtime restored."""

    before = path.stat()
    size = before.st_size
    path.write_bytes(data[:size].ljust(size, b" "))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))


def _edit_manifest_in_place(draw, root: Path, store: Path) -> None:
    files = _entries(root, lambda p: p.name == "package.xml" and p.is_file() and not p.is_symlink())
    if files:
        path = draw(st.sampled_from(files))
        data = path.read_bytes()
        name = draw(st.sampled_from([n for n in _PACKAGES if n.encode() not in data])).encode()
        data = re.sub(rb"<name>[^<]*</name>", b"<name>" + name + b"</name>", data)
        _rewrite_same_size(path, data)


def _edit_link_target_in_place(draw, root: Path, store: Path) -> None:
    target = store / draw(st.sampled_from(["store_file", "store_dir/package.xml"]))
    if target.exists():
        _rewrite_same_size(target, manifest_xml(draw(st.sampled_from(_PACKAGES))).encode())


def _edit_marker(draw, root: Path, store: Path) -> None:
    directory = draw(st.sampled_from(_entries(root, Path.is_dir) + [root]))
    marker = directory / draw(st.sampled_from(["AMENT_IGNORE", "CATKIN_IGNORE", "COLCON_IGNORE"]))
    if marker.is_symlink() or marker.exists():
        if marker.is_dir() and not marker.is_symlink():
            return
        marker.unlink()
        if draw(st.booleans()):
            return
    if draw(st.booleans()):
        marker.write_bytes(b"")
    else:
        marker.symlink_to(store / "missing")


def _retarget_manifest_link(draw, root: Path, store: Path) -> None:
    links = _entries(root, lambda p: p.name == "package.xml" and p.is_symlink())
    if links:
        link = draw(st.sampled_from(links))
        link.unlink()
        link.symlink_to(store / draw(st.sampled_from(["store_file", "store_dir", "missing"])))


def _remove_link_target(draw, root: Path, store: Path) -> None:
    (store / "store_file").unlink(missing_ok=True)


def _create_missing_target(draw, root: Path, store: Path) -> None:
    # Every dangling link, marker or manifest, comes to name a file.
    if not (store / "missing").exists():
        (store / "missing").write_text(manifest_xml(draw(st.sampled_from(_PACKAGES))), "utf-8")


def _rename_directory(draw, root: Path, store: Path) -> None:
    directories = _entries(root, lambda p: p.is_dir() and not p.is_symlink())
    if directories:
        directory = draw(st.sampled_from(directories))
        destination = directory.with_name(
            draw(st.sampled_from(["a", "b", "c", "d", ".git"])) + "_renamed"
        )
        if not os.path.lexists(destination):
            directory.rename(destination)


def _write_under_ignored_directory(draw, root: Path, store: Path) -> None:
    def ignored(path: Path) -> bool:
        markers = forge.manifest.IGNORE_MARKERS
        return path.is_dir() and any(os.path.exists(path / marker) for marker in markers)

    directories = _entries(root, ignored)
    if directories:
        (draw(st.sampled_from(directories)) / "written.log").write_bytes(b"log\n")


def _move_package(draw, root: Path, store: Path) -> None:
    packages = _entries(root, lambda p: (p / "package.xml").is_file() and not p.is_symlink())
    directories = _entries(root, lambda p: p.is_dir() and not p.is_symlink()) + [root]
    if packages:
        package = draw(st.sampled_from(packages))
        destination = draw(st.sampled_from(directories)) / "moved"
        if not destination.exists() and package not in destination.parents:
            package.rename(destination)


_EDITS = [
    _edit_manifest_in_place,
    _edit_link_target_in_place,
    _edit_marker,
    _retarget_manifest_link,
    _remove_link_target,
    _create_missing_target,
    _rename_directory,
    _write_under_ignored_directory,
    _move_package,
]


@pytest.mark.parametrize(
    "tree",
    [
        {"a": {"package.xml": ("link", "missing")}},
        {"a": {"COLCON_IGNORE": ("link", "missing"),
               "package.xml": ("file", manifest_xml("alpha").encode())}},
    ],
    ids=["manifest-link", "marker-link"],
)
def test_snapshot_sees_a_dangling_link_come_to_name_a_file(tmp_path, tree: dict) -> None:
    # Nothing in the workspace changes: the link in "a" names a file only
    # once its target is created outside it.
    beta = ("file", manifest_xml("beta").encode())
    root = build_workspace(tmp_path, {"src": {**tree, "b": {"package.xml": beta}}})
    cache = tmp_path / "cache"
    with mock.patch.object(forge.manifest, "RACY_MARGIN_NS", int(_MARGIN_S * 1e9)):
        time.sleep(_MARGIN_S)
        for _ in range(2):
            before = scan_workspace(root, ENV, cache, True)
        (path,) = memo_files(cache)
        assert json.loads(path.read_bytes())["snapshot"] is not None
        (tmp_path / "store" / "missing").write_text(manifest_xml("created"), "utf-8")
        expected = oracle_scan(root, ENV)
        assert expected != before
        assert scan_workspace(root, ENV, cache, True) == expected


@settings(max_examples=150, deadline=None)
@given(trees(), st.lists(st.sampled_from(_EDITS), min_size=1, max_size=3), st.data())
def test_snapshot_scan_sees_every_edit(tree: dict, edits: list, data: st.DataObject) -> None:
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        forge.manifest, "RACY_MARGIN_NS", int(_MARGIN_S * 1e9)
    ):
        root = build_workspace(Path(tmp), tree)
        cache = Path(tmp) / "cache"
        time.sleep(_MARGIN_S)
        # The second of two scans that succeed stores a snapshot.
        assume(outcome(scan_with(cache), root)[0] == "ok")
        scan_with(cache)(root, ENV)
        for edit in edits:
            edit(data.draw, root, Path(tmp) / "store")
        expected = outcome(scan_with(None), root)
        assert outcome(oracle_scan, root) == expected
        assert outcome(scan_with(cache), root) == expected


def test_unreadable_memo_is_a_miss(tmp_path) -> None:
    root, cache, _ = _warm(tmp_path)
    (path,) = memo_files(cache)
    path.unlink()
    path.mkdir()
    assert scan_workspace(root, ENV, cache, True) == scan_workspace(root, ENV, None, True)
    assert path.is_dir()


def test_edited_manifest_is_parsed_again_and_replaces_its_record(tmp_path) -> None:
    root, cache, _ = _warm(tmp_path)
    (root / "src" / "beta" / "package.xml").write_text(
        manifest_xml("beta", "<exec_depend>python3</exec_depend>"), encoding="utf-8"
    )
    workspace = scan_workspace(root, ENV, cache, True)
    assert workspace.packages[1].deps_exec == frozenset({"python3"})
    (path,) = memo_files(cache)
    assert len(json.loads(path.read_bytes())["records"]) == 2
    uncached = scan_workspace(root, ENV, None, True)
    assert scan_workspace(root, ENV, cache, True) == workspace == uncached


@pytest.mark.parametrize(
    ("content", "error", "message"),
    [
        (b"<package><name>x</name>", MalformedManifest,
         "src/bad/package.xml: not well formed XML"),
        (manifest_xml("x").replace('format="3"', 'format="9"').encode(), UnsupportedFormat,
         "src/bad/package.xml: manifest format 9"),
        (manifest_xml("latin").encode() + b"<!-- caf\xe9 -->", MalformedManifest,
         "/src/bad/package.xml is not UTF-8"),
    ],
    ids=["xml", "format", "utf8"],
)
def test_bad_manifest_raises_the_same_error_and_is_never_stored(
    tmp_path, content: bytes, error: type, message: str
) -> None:
    root, cache, good = _warm(tmp_path)
    (root / "src" / "bad").mkdir()
    (root / "src" / "bad" / "package.xml").write_bytes(content)
    expected = outcome(scan_with(None), root)
    assert expected[1] is error and message in expected[2]
    for _ in range(2):
        assert outcome(scan_with(cache), root) == expected
        assert [path.read_bytes() for path in memo_files(cache)] == [good]


def test_condition_env_selects_its_own_memo(tmp_path) -> None:
    root = tmp_path / "ws"
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "package.xml").write_text(
        manifest_xml("pkg", '<depend condition="$ROS_DISTRO == humble">humble_only</depend>'),
        encoding="utf-8",
    )
    cache = tmp_path / "cache"
    iron = {**ENV, "ROS_DISTRO": "iron"}
    for _ in range(2):
        assert scan_workspace(root, ENV, cache, True).packages[0].deps_exec == {"humble_only"}
        assert scan_workspace(root, iron, cache, True).packages[0].deps_exec == frozenset()
    assert len(memo_files(cache)) == 2


def test_memo_is_not_written_without_write_cache(tmp_path) -> None:
    root = tmp_path / "ws"
    _memo_workspace(root)
    cache = tmp_path / "cache"
    uncached = scan_workspace(root, ENV, None, True)
    assert scan_workspace(root, ENV, cache, write_cache=False) == uncached
    assert not cache.exists()


def test_build_dry_run_reads_the_memo_but_never_writes_it(
    tmp_path, monkeypatch, no_racy_margin
) -> None:
    root, _, _ = _warm(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    dockerfile = str(tmp_path / "Dockerfile")
    assert main(["build", str(root), "--dry-run", "--dockerfile-out", dockerfile]) == 0
    assert memo_files(tmp_path / "xdg" / "forge") == []
    for _ in range(2):
        assert main(["analyze", str(root)]) == 0
    (path,) = memo_files(tmp_path / "xdg" / "forge")
    good = path.read_bytes()
    assert json.loads(good)["snapshot"] is not None
    inode = path.stat().st_ino
    # The snapshot holds: the dry run takes it and writes nothing.
    with mock.patch("forge.manifest._walk", side_effect=AssertionError("walked")):
        assert main(["build", str(root), "--dry-run", "--dockerfile-out", dockerfile]) == 0
    assert path.stat().st_ino == inode
    # A manifest of another size: the snapshot no longer holds, and the
    # dry run's walk does not replace it.
    (root / "src" / "beta" / "package.xml").write_text(manifest_xml("beta"), encoding="utf-8")
    assert main(["build", str(root), "--dry-run", "--dockerfile-out", dockerfile]) == 0
    assert memo_files(tmp_path / "xdg" / "forge") == [path]
    assert path.read_bytes() == good


_VALID = manifest_xml("pkg_a", CONDITIONAL + "<test_depend>gtest</test_depend>").encode()
_TAGS = ["package", "name", "version", "depend", "test_depend", "export", "build_type"]


def _damaged_bytes(draw: st.DrawFn, valid: bytes) -> bytes:
    """``valid`` truncated, with a byte flipped, or with ``\\xff`` spliced in."""

    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    offset = draw(st.integers(0, len(valid) - 1))
    if kind == "truncate":
        return valid[:offset]
    if kind == "splice":
        return valid[:offset] + b"\xff" + valid[offset:]
    flipped = valid[offset] ^ draw(st.integers(1, 255))
    return valid[:offset] + bytes([flipped]) + valid[offset + 1 :]


@st.composite
def mutated_manifests(draw: st.DrawFn) -> bytes:
    """A valid manifest with damaged bytes or a tag renamed."""

    if draw(st.booleans()):
        return _damaged_bytes(draw, _VALID)
    old = draw(st.sampled_from(_TAGS)).encode()
    new = draw(st.sampled_from([*_TAGS, "exec_depend", "buildtool_export_depend", "x"])).encode()
    return re.sub(rb"(</?)" + old + rb"\b", rb"\g<1>" + new, _VALID)


def _forge(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(mutated_manifests())
def test_cli_analyze_of_mutated_manifest_bytes_exits_cleanly_cold_and_warm(data: bytes) -> None:
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ws"
        for command in (["analyze"], ["generate", "dockerfile", "-o", "-"]):
            for name, valid in (("mutated", _VALID), ("other", manifest_xml("pkg_b").encode())):
                (root / "src" / name).mkdir(parents=True, exist_ok=True)
                (root / "src" / name / "package.xml").write_bytes(valid)
            argv = [*command, str(root)]
            with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(Path(tmp) / "cache" / command[0])}):
                # The memo first holds the unmutated manifest's record.
                assert _forge(argv)[0] == 0
                (root / "src" / "mutated" / "package.xml").write_bytes(data)
                cold = _forge(argv)
                warm = _forge(argv)
            with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(Path(tmp) / "empty" / command[0])}):
                runs[command[0]] = (cold, warm, _forge(argv))
    for command, (cold, warm, fresh) in runs.items():
        code, _, err = cold
        assert code == 0 or (code == 2 and err.startswith("forge: error: ")), (command, cold)
        assert warm == cold == fresh, command


_REPO = {"type": "git", "url": "https://git.example.com/acme/tools.git", "version": "main"}
# A name ending in a newline must not reach the Dockerfile's repository list.
_REPOS = st.sampled_from(["tools", "tools\n"]).map(lambda name: {"repositories": {name: _REPO}})
_CONFIG = {
    "registry": "reg.example",
    "default_distro": "humble",
    "rosdep_dbs": [],
    "parallelism": 3,
    "strict": True,
}
_ROSDEP = {
    "forge_sys": {"ubuntu": ["libforge-dev"], "fedora": ["forge-devel"]},
    "forge_pip": {"ubuntu": {"pip": {"packages": ["forge-py"]}}},
    "forge_other_os": {"fedora": ["forge"]},
}
_INDEX = {"distro": {"name": "humble", "ros_version": 2, "packages": ["rclcpp", "std_msgs"]}}
_NODES = [None, 0, True, "x", [], ["x"], {}, {"x": "y"}]


def _node_paths(node: object, path: tuple = ()):
    """The path of every node of a parsed YAML document, the root's first."""

    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _node_paths(child, (*path, key))


def _replaced(node: object, path: tuple, value: object) -> object:
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


# Scalars that PyYAML's SafeConstructor fails on with a Python exception;
# safe_dump never writes them, so they are spliced into its text.
_UNCONSTRUCTABLE = [b"2020-13-45", b"!!int abc", b"!!float abc", b"!!bool abc", b"!!timestamp abc"]
_SPLICE = "forge-splice-point"


@st.composite
def mutated_yaml(draw: st.DrawFn, docs: st.SearchStrategy[dict]) -> bytes:
    """A document drawn from ``docs`` as YAML with damaged bytes, or one node swapped
    for a node of another type or for the raw text of a scalar PyYAML cannot build."""

    doc = draw(docs)
    kind = draw(st.sampled_from(["damage", "swap", "splice"]))
    if kind == "damage":
        return _damaged_bytes(draw, yaml.safe_dump(doc).encode())
    path = draw(st.sampled_from(list(_node_paths(doc))))
    if kind == "swap":
        return yaml.safe_dump(_replaced(doc, path, draw(st.sampled_from(_NODES)))).encode()
    text = yaml.safe_dump(_replaced(doc, path, _SPLICE)).encode()
    return text.replace(_SPLICE.encode(), draw(st.sampled_from(_UNCONSTRUCTABLE)))


@pytest.mark.parametrize(
    ("name", "doc", "flag", "depends"),
    [
        # forge.yaml and .repos files in the workspace root are read without a flag.
        ("deps.repos", _REPOS, None, ""),
        ("forge.yaml", st.just(_CONFIG), None, ""),
        (
            "rosdep.yaml", st.just(_ROSDEP), "--rosdep-db",
            "<depend>forge_sys</depend><exec_depend>forge_pip</exec_depend>",
        ),
        ("index.yaml", st.just(_INDEX), "--distro-index", "<depend>rclcpp</depend><depend>std_msgs</depend>"),
    ],
    ids=["deps.repos-doc0", "forge.yaml-doc1", "rosdep.yaml-doc2", "index.yaml-doc3"],
)
def test_cli_analyze_of_mutated_yaml_inputs_exits_cleanly_cold_and_warm(
    name: str, doc: st.SearchStrategy[dict], flag: str | None, depends: str
) -> None:
    @settings(max_examples=100, deadline=None)
    @given(mutated_yaml(doc))
    def exits_cleanly(data: bytes) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "ws"
            (root / "src" / "pkg").mkdir(parents=True)
            (root / "src" / "pkg" / "package.xml").write_bytes(manifest_xml("pkg_a", depends).encode())
            (root / name).write_bytes(data)
            options = [flag, str(root / name)] if flag else []
            runs = {}
            for command in (["analyze"], ["generate", "dockerfile", "-o", "-"]):
                cache = str(Path(tmp) / "cache" / command[0])
                with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": cache}):
                    runs[command[0]] = [_forge([*command, str(root), *options]) for _ in ("cold", "warm")]
        for command, (cold, warm) in runs.items():
            code, _, err = cold
            assert code == 0 or (code == 2 and err.startswith("forge: error: ")), (command, cold)
            assert warm == cold, command
            # Every error in a .repos file, an index or a rosdep document names the file.
            if name != "forge.yaml" and code == 2:
                assert str(root / name) in err, (command, cold)
        code, dockerfile, _ = runs["generate"][0]
        if code == 0:
            assert dockerfile_problems(dockerfile) == []

    exits_cleanly()


# --- errors name the file ----------------------------------------------------


@pytest.mark.parametrize(
    "text,error,detail",
    [
        ("<package><name>x</name>", MalformedManifest, "not well formed XML"),
        (manifest_xml("x").replace('format="3"', 'format="9"'), UnsupportedFormat, "format 9"),
        (manifest_xml("x", '<depend condition="$A =">k</depend>'), MalformedManifest, "condition"),
        (manifest_xml("x", "<depend>x\r\ny</depend>"), MalformedManifest,
         "package 'x' has whitespace inside a <depend> key: 'x\\ny'"),
    ],
)
def test_scan_errors_name_the_manifest(tmp_path, text: str, error: type, detail: str) -> None:
    (tmp_path / "src" / "bad").mkdir(parents=True)
    (tmp_path / "src" / "bad" / "package.xml").write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        scan_workspace(tmp_path, ENV, None, True)
    assert type(info.value) is error
    assert str(info.value).startswith("src/bad/package.xml: ")
    assert detail in str(info.value)


def test_root_manifest_error_names_package_xml(tmp_path) -> None:
    (tmp_path / "package.xml").write_text("<package>", encoding="utf-8")
    with pytest.raises(MalformedManifest, match=r"^package.xml: not well formed XML"):
        scan_workspace(tmp_path, ENV, None, True)


def test_malformed_condition_raises_on_every_scan(tmp_path) -> None:
    # Condition results are memoized; a syntax error must not be.
    (tmp_path / "package.xml").write_text(
        manifest_xml("x", '<depend condition="$A ==">k</depend>'), encoding="utf-8"
    )
    for _ in range(2):
        with pytest.raises(MalformedManifest, match="truncated condition"):
            scan_workspace(tmp_path, ENV, None, True)


def test_cli_names_the_bad_manifest(tmp_path, capsys) -> None:
    (tmp_path / "src" / "bad").mkdir(parents=True)
    (tmp_path / "src" / "bad" / "package.xml").write_text("<package>", encoding="utf-8")
    assert main(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "forge: error: MalformedManifest: src/bad/package.xml: not well formed XML" in err


# --- unreadable directories and manifests -------------------------------------
#
# Tests may run as root, which reads mode-000 directories, so the failures
# are injected by replacing the calls that list and read.


def _two_packages(root: Path) -> None:
    for name in ("good", "locked"):
        (root / "src" / name).mkdir(parents=True)
        (root / "src" / name / "package.xml").write_text(manifest_xml(name), encoding="utf-8")


def _refuse_listing(*paths: str | None):
    """``os.scandir``, but refused for ``paths`` as for directories without read permission."""

    real_scandir = os.scandir

    def scandir(directory):
        if os.fspath(directory) in paths:
            raise PermissionError(13, "Permission denied", os.fspath(directory))
        return real_scandir(directory)

    return scandir


def _refuse_reading(*paths: str):
    """The builtin ``open``, but refused for ``paths`` as for files without read permission."""

    def fake_open(path, *args, **kwargs):
        if os.fspath(path) in paths:
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return open(path, *args, **kwargs)

    return fake_open


def test_unlistable_directory_is_a_user_error(tmp_path, monkeypatch, capsys) -> None:
    _two_packages(tmp_path)
    locked = str(tmp_path / "src" / "locked")
    monkeypatch.setattr(os, "scandir", _refuse_listing(locked))
    with pytest.raises(UnreadableWorkspace, match=f"cannot read {locked}: Permission denied"):
        scan_workspace(tmp_path, ENV, None, True)
    assert main(["analyze", str(tmp_path)]) == 2
    assert f"UnreadableWorkspace: cannot read {locked}" in capsys.readouterr().err


def test_unreadable_manifest_is_a_user_error(tmp_path, monkeypatch, capsys) -> None:
    _two_packages(tmp_path)
    locked = tmp_path / "src" / "locked" / "package.xml"
    # scan_workspace reads every manifest through the builtin open.
    monkeypatch.setattr(forge.manifest, "open", _refuse_reading(str(locked)), raising=False)
    with pytest.raises(UnreadableWorkspace, match=f"cannot read {locked}: Permission denied"):
        scan_workspace(tmp_path, ENV, None, True)
    assert main(["analyze", str(tmp_path)]) == 2
    assert f"UnreadableWorkspace: cannot read {locked}" in capsys.readouterr().err


# --- the first fault in walk order ------------------------------------------


def _numbered_workspace(root: Path, manifests: list[bytes]) -> None:
    for index, data in enumerate(manifests):
        (root / "src" / f"p{index:02d}").mkdir(parents=True)
        (root / "src" / f"p{index:02d}" / "package.xml").write_bytes(data)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_BAD), mutated_manifests(), st.none()), min_size=2,
             max_size=8),
    st.none() | st.integers(0, 7),
)
def test_a_scan_raises_the_first_fault_in_walk_order(drawn: list, locked: int | None) -> None:
    # None draws a good manifest of its own name; ``locked`` names a
    # directory that cannot be listed. The walk visits src/p00, src/p01, …
    # in turn and reaches no directory after the locked one.
    manifests = [manifest_xml(f"p{i}").encode() if data is None else data
                 for i, data in enumerate(drawn)]
    if locked is not None and locked >= len(manifests):
        locked = None
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ws"
        _numbered_workspace(root, manifests)
        locked_dir = str(root / "src" / f"p{locked:02d}") if locked is not None else None
        with mock.patch.object(os, "scandir", _refuse_listing(locked_dir)):
            scans = [outcome(scan_with(cache), root) for cache in (None, Path(tmp) / "cache")]
        # The reference walk lists no directory it can be refused, so it
        # walks what the scan reached: a manifest fault there comes first,
        # and else the locked directory is the fault.
        for index in range(len(manifests) if locked is None else locked, len(manifests)):
            shutil.rmtree(root / "src" / f"p{index:02d}")
        expected = outcome(oracle_scan, root)
        if locked is not None and expected[1] not in (MalformedManifest, UnsupportedFormat):
            expected = ("error", UnreadableWorkspace, f"cannot read {locked_dir}: Permission denied")
        assert scans == [expected, expected]


def test_a_malformed_manifest_before_an_unlistable_directory_wins(tmp_path, monkeypatch) -> None:
    manifests = [manifest_xml(f"p{i}").encode() for i in range(4)]
    manifests[1] = _BAD[0]
    _numbered_workspace(tmp_path, manifests)
    locked = str(tmp_path / "src" / "p03")
    monkeypatch.setattr(os, "scandir", _refuse_listing(locked))
    for cache in (None, tmp_path / "cache"):
        with pytest.raises(MalformedManifest, match=r"^src/p01/package.xml: not well formed"):
            scan_workspace(tmp_path, ENV, cache, True)
    (tmp_path / "src" / "p01" / "package.xml").write_bytes(manifest_xml("p1").encode())
    with pytest.raises(UnreadableWorkspace, match=f"cannot read {locked}: Permission denied"):
        scan_workspace(tmp_path, ENV, None, True)


# Each fault a package can carry, with the error a scan raises for it. The
# first four are in the manifest's bytes ("duplicate" repeats src/p00's
# name); the last two refuse to read the manifest or list its directory.
_FAULT_ERRORS = {
    "malformed": MalformedManifest,
    "unsupported": UnsupportedFormat,
    "not-utf8": MalformedManifest,
    "duplicate": DuplicatePackageName,
    "unreadable": UnreadableWorkspace,
    "unlistable": UnreadableWorkspace,
}
_FAULT_BYTES = {
    "malformed": _BAD[0],
    "unsupported": _BAD[1],
    "not-utf8": _BAD[2],
    "duplicate": manifest_xml("p0").encode(),
}


def _scan_with_faults(root: Path, faults: dict[int, str], cache: Path | None) -> tuple:
    """The outcome of scanning packages src/p00 to src/p03, each good unless ``faults`` names it."""

    refused: dict[str, list[str]] = {"unlistable": [], "unreadable": []}
    for index in range(4):
        directory = root / "src" / f"p{index:02d}"
        directory.mkdir(parents=True, exist_ok=True)
        fault = faults.get(index)
        (directory / "package.xml").write_bytes(
            _FAULT_BYTES.get(fault, manifest_xml(f"p{index}").encode())
        )
        if fault == "unlistable":
            refused[fault].append(str(directory))
        elif fault == "unreadable":
            refused[fault].append(str(directory / "package.xml"))
    with (
        mock.patch.object(os, "scandir", _refuse_listing(*refused["unlistable"])),
        mock.patch.object(
            forge.manifest, "open", _refuse_reading(*refused["unreadable"]), create=True
        ),
    ):
        return outcome(scan_with(cache), root)


@pytest.mark.parametrize("second", _FAULT_ERRORS)
@pytest.mark.parametrize("first", _FAULT_ERRORS)
def test_of_two_faults_a_scan_raises_the_first_in_walk_order(
    tmp_path, first: str, second: str
) -> None:
    # src/p01 carries the first fault and src/p02 the second. A duplicate
    # name is found only once every manifest has parsed, so any other
    # fault wins over it, wherever it lies.
    root = tmp_path / "ws"
    both = [_scan_with_faults(root, {1: first, 2: second}, cache)
            for cache in (None, tmp_path / "cache")]
    index, winner = (2, second) if first == "duplicate" != second else (1, first)
    alone = _scan_with_faults(root, {index: winner}, None)
    assert alone[:2] == ("error", _FAULT_ERRORS[winner])
    assert both == [alone, alone]


@pytest.mark.parametrize("packages", [8, 1024])
def test_a_scan_hashes_each_manifest_it_reads_once(
    tmp_path, monkeypatch, no_racy_margin, packages: int
) -> None:
    hashed: list[str] = []
    real_hex_digest = forge.manifest.hex_digest

    def hex_digest(name: str, data: bytes) -> str:
        hashed.append(name)
        return real_hex_digest(name, data)

    monkeypatch.setattr(forge.manifest, "hex_digest", hex_digest)
    root = tmp_path / "ws"
    _numbered_workspace(root, [manifest_xml(f"p{i}").encode() for i in range(packages)])
    cache = tmp_path / "cache"

    def hashes() -> int:
        hashed.clear()
        assert len(scan_workspace(root, ENV, cache, True).packages) == packages
        return len(hashed)

    assert hashes() == packages  # cold: the memo stores records and no snapshot
    assert hashes() == packages  # a walk, since there is no snapshot to take
    assert hashes() == 0  # the snapshot holds
    (path,) = memo_files(cache)
    moved = _set_snapshot_part(2, lambda stats: [stats[0] + 1, *stats[1:]])
    path.write_text(_damaged_memo(path.read_bytes(), "snapshot", moved), "utf-8")
    assert hashes() == packages  # the snapshot fails: a walk finds every record
