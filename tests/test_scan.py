"""Workspace scanning: equivalence with the reference walk, depth and errors."""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path, PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.cli import main
from forge.errors import (
    MalformedManifest,
    UnreadableWorkspace,
    UnsupportedFormat,
)
from forge.manifest import scan_workspace

from scan_oracle import oracle_scan

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

# Package names: a pool small enough that duplicates turn up.
_PACKAGES = [f"pkg_{letter}" for letter in "abcdefghijkl"]
# Manifests that fail to parse or to decode.
_BAD = [
    b"<package><name>broken</name>",
    manifest_xml("future").replace('format="3"', 'format="4"').encode(),
    manifest_xml("latin").encode() + b"<!-- caf\xe9 -->\n",
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
    extra = CONDITIONAL if draw(st.booleans()) else ""
    return ("file", manifest_xml(name, extra).encode())


_MARKERS = st.one_of(
    st.just(("file", b"")),
    st.just({}),
    st.sampled_from(_LINK_TARGETS).map(lambda target: ("link", target)),
)


@st.composite
def trees(draw: st.DrawFn, depth: int = 0) -> dict:
    """A directory: maybe a manifest, rarely a marker, up to three children.

    A child is a subtree or, rarely, a symlink to a package directory.
    """

    tree: dict = {}
    if draw(st.integers(0, 3)):
        tree["package.xml"] = draw(manifest_entries())
    if draw(st.integers(0, 9)) == 0:
        tree[draw(st.sampled_from(["COLCON_IGNORE", "CATKIN_IGNORE"]))] = draw(_MARKERS)
    if depth < 4:
        for name in draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3)):
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


@settings(max_examples=200, deadline=None)
@given(trees())
def test_scan_matches_reference_walk(tree: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        store = base / "store"
        (store / "store_dir").mkdir(parents=True)
        (store / "store_file").write_text(manifest_xml("linked"), encoding="utf-8")
        (store / "store_dir" / "package.xml").write_text(
            manifest_xml("followed"), encoding="utf-8"
        )
        root = base / "ws"
        build_tree(root, tree, store)
        assert outcome(scan_workspace, root) == outcome(oracle_scan, root)


def test_reference_walk_sees_every_rule(tmp_path) -> None:
    # One fixed tree holding each case the property test draws from, so a
    # strategy change that stops producing them cannot go unnoticed.
    store = tmp_path / "store"
    (store / "store_dir").mkdir(parents=True)
    (store / "store_file").write_text(manifest_xml("linked"), encoding="utf-8")
    (store / "store_dir" / "package.xml").write_text(manifest_xml("followed"), encoding="utf-8")
    alpha, beta = (("file", manifest_xml(name).encode()) for name in ("alpha", "beta"))
    tree = {
        # nested packages
        "a": {"package.xml": alpha, "b": {"package.xml": beta}},
        # a symlinked manifest counts; a dangling marker symlink does not
        "b": {"package.xml": ("link", "store_file"), "COLCON_IGNORE": ("link", "missing")},
        # a directory named package.xml is walked into
        "package.xml": {"package.xml": ("file", manifest_xml("gamma", CONDITIONAL).encode())},
        # a marker that is a directory, and a plain marker file; an ignored
        # manifest is never read, so its bad bytes raise nothing
        "c": {"COLCON_IGNORE": {}, "package.xml": ("file", _BAD[2])},
        "d": {"CATKIN_IGNORE": ("file", b""), "e": {"package.xml": beta}},
        # a symlinked package directory is not followed; a looping link is no file
        "e": ("link", "store_dir"),
        "f": {"package.xml": ("link", "loop")},
    }
    root = tmp_path / "ws"
    build_tree(root, {"src": tree}, store)
    workspace = scan_workspace(root, ENV)
    assert workspace == oracle_scan(root, ENV)
    assert [(p.name, str(p.source_dir)) for p in workspace.packages] == [
        ("alpha", "src/a"),
        ("beta", "src/a/b"),
        ("gamma", "src/package.xml"),
        ("linked", "src/b"),
    ]
    assert workspace.packages[2].deps_build == frozenset({"rclcpp"})
    assert workspace.ignored_dirs == [root / "src" / "c", root / "src" / "d"]


def test_scan_survives_a_tree_deeper_than_the_recursion_limit(tmp_path) -> None:
    # Built and removed one level at a time: pathlib's and shutil's own
    # recursive helpers would hit the limit too.
    depth = sys.getrecursionlimit() + 100
    bottom = tmp_path
    for _ in range(depth):
        bottom = bottom / "d"
        bottom.mkdir()
    (bottom / "package.xml").write_text(manifest_xml("deep"), encoding="utf-8")
    (tmp_path / "package.xml").write_text(manifest_xml("top"), encoding="utf-8")
    try:
        workspace = scan_workspace(tmp_path, ENV)
        assert [(p.name, p.source_dir) for p in workspace.packages] == [
            ("deep", PurePosixPath("/".join(["d"] * depth))),
            ("top", PurePosixPath(".")),
        ]
    finally:
        (bottom / "package.xml").unlink()
        while bottom != tmp_path:
            bottom.rmdir()
            bottom = bottom.parent


# --- errors name the file ----------------------------------------------------


@pytest.mark.parametrize(
    "text,error,detail",
    [
        ("<package><name>x</name>", MalformedManifest, "not well formed XML"),
        (manifest_xml("x").replace('format="3"', 'format="9"'), UnsupportedFormat, "format 9"),
        (manifest_xml("x", '<depend condition="$A =">k</depend>'), MalformedManifest, "condition"),
    ],
)
def test_scan_errors_name_the_manifest(tmp_path, text: str, error: type, detail: str) -> None:
    (tmp_path / "src" / "bad").mkdir(parents=True)
    (tmp_path / "src" / "bad" / "package.xml").write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        scan_workspace(tmp_path, ENV)
    assert type(info.value) is error
    assert str(info.value).startswith("src/bad/package.xml: ")
    assert detail in str(info.value)


def test_root_manifest_error_names_package_xml(tmp_path) -> None:
    (tmp_path / "package.xml").write_text("<package>", encoding="utf-8")
    with pytest.raises(MalformedManifest, match=r"^package.xml: not well formed XML"):
        scan_workspace(tmp_path, ENV)


def test_malformed_condition_raises_on_every_scan(tmp_path) -> None:
    # Condition results are memoized; a syntax error must not be.
    (tmp_path / "package.xml").write_text(
        manifest_xml("x", '<depend condition="$A ==">k</depend>'), encoding="utf-8"
    )
    for _ in range(2):
        with pytest.raises(MalformedManifest, match="truncated condition"):
            scan_workspace(tmp_path, ENV)


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


def test_unlistable_directory_is_a_user_error(tmp_path, monkeypatch, capsys) -> None:
    _two_packages(tmp_path)
    locked = str(tmp_path / "src" / "locked")
    real_scandir = os.scandir

    def scandir(path):
        if os.fspath(path) == locked:
            raise PermissionError(13, "Permission denied", locked)
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    with pytest.raises(UnreadableWorkspace, match=f"cannot read {locked}: Permission denied"):
        scan_workspace(tmp_path, ENV)
    assert main(["analyze", str(tmp_path)]) == 2
    assert f"UnreadableWorkspace: cannot read {locked}" in capsys.readouterr().err


def test_unreadable_manifest_is_a_user_error(tmp_path, monkeypatch, capsys) -> None:
    _two_packages(tmp_path)
    locked = tmp_path / "src" / "locked" / "package.xml"
    real_read_text = Path.read_text

    def read_text(self, *args, **kwargs):
        if self == locked:
            raise PermissionError(13, "Permission denied", str(self))
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    with pytest.raises(UnreadableWorkspace, match=f"cannot read {locked}: Permission denied"):
        scan_workspace(tmp_path, ENV)
    assert main(["analyze", str(tmp_path)]) == 2
    assert f"UnreadableWorkspace: cannot read {locked}" in capsys.readouterr().err
