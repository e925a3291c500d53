"""Package manifest parsing, condition evaluation and workspace scanning."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.cli import main
from forge.errors import (
    DuplicatePackageName,
    EmptyWorkspace,
    MalformedManifest,
    UnsupportedFormat,
)
from forge.manifest import (
    PackageManifest,
    evaluate_condition,
    scan_workspace,
)

from scan_oracle import parse_bytes

ENV = {"ROS_VERSION": "2", "ROS_DISTRO": "humble"}
TOP = "."


# Hand-computed truth table for the condition subset. Each row was worked
# out by hand from the operator rules before the evaluator existed.
CONDITION_CASES = [
    ("$ROS_VERSION == 2", True),
    ("$ROS_VERSION == 1", False),
    ("$ROS_VERSION != 1", True),
    ("$ROS_DISTRO == humble", True),
    ("$ROS_DISTRO == 'humble'", True),
    ('$ROS_DISTRO == "noetic"', False),
    ("$ROS_VERSION == 2 and $ROS_DISTRO == humble", True),
    ("$ROS_VERSION == 1 and $ROS_DISTRO == humble", False),
    ("$ROS_VERSION == 1 or $ROS_DISTRO == humble", True),
    ("$ROS_VERSION == 1 or $ROS_DISTRO == noetic", False),
    # or binds looser than and: 1==1 or (1==2 and 2==2) is true.
    ("$ROS_VERSION == 2 or $ROS_VERSION == 1 and $ROS_VERSION == 2", True),
    ("($ROS_VERSION == 2 or $ROS_VERSION == 1) and $ROS_DISTRO == noetic", False),
    # Comparisons over unset variables are false for both operators.
    ("$UNSET == 2", False),
    ("$UNSET != 2", False),
    ("$UNSET != 2 or $ROS_VERSION == 2", True),
    # REP 149's ordering comparisons compare the values as strings.
    ("$ROS_VERSION >= 2", True),
    ("$ROS_VERSION>=2", True),
    ("$ROS_VERSION > 2", False),
    ("$ROS_VERSION <= 1", False),
    ("$ROS_VERSION < 3", True),
    ("$ROS_VERSION < 10", False),
    ("$ROS_DISTRO < iron", True),
    ("2<=$ROS_VERSION", True),
    ("$UNSET < 2", False),
    ("$UNSET >= 2", False),
]


@pytest.mark.parametrize("expression,expected", CONDITION_CASES)
def test_condition_truth_table(expression: str, expected: bool) -> None:
    assert evaluate_condition(expression, ENV) is expected


@pytest.mark.parametrize(
    "expression",
    [
        "",
        "$ROS_VERSION ==",
        "== 2",
        "$ROS_VERSION = 2",
        "$ROS_VERSION => 2",
        "$ROS_VERSION << 2",
        "$ROS_VERSION >= <",
        "($ROS_VERSION == 2",
        "$ROS_VERSION == 2)",
        "$ROS_VERSION == 2 and",
        "not $ROS_VERSION == 2",
        "$ROS_VERSION",
    ],
)
def test_condition_rejects_malformed(expression: str) -> None:
    with pytest.raises(MalformedManifest):
        evaluate_condition(expression, ENV)


MINIMAL_XML = """\
<?xml version="1.0"?>
<package format="3">
  <name>demo</name>
  <version>1.0.0</version>
  <export><build_type>ament_python</build_type></export>
</package>
"""


def test_parse_minimal() -> None:
    manifest = parse_bytes(MINIMAL_XML.encode(), ENV, TOP)
    assert manifest == PackageManifest("demo", source_dir=TOP)


def test_parse_dependency_scopes() -> None:
    text = b"""\
<package format="2">
  <name>demo</name>
  <version>0.1.0</version>
  <depend>both_scope</depend>
  <build_depend>build_only</build_depend>
  <build_export_depend>export_only</build_export_depend>
  <buildtool_depend>tool_only</buildtool_depend>
  <buildtool_export_depend>tool_export_only</buildtool_export_depend>
  <exec_depend>exec_only</exec_depend>
  <run_depend>legacy_exec</run_depend>
  <test_depend>test_only</test_depend>
  <export><build_type>ament_cmake</build_type></export>
</package>
"""
    manifest = parse_bytes(text, ENV, TOP)
    assert manifest.deps_build == frozenset(
        {"both_scope", "build_only", "export_only", "tool_only", "tool_export_only"}
    )
    assert manifest.deps_exec == frozenset({"both_scope", "exec_only", "legacy_exec"})
    assert "test_only" not in manifest.deps_build | manifest.deps_exec


def test_analyze_resolves_a_buildtool_export_key(capsys, tmp_path) -> None:
    # A key only this tag names reaches a bucket, here the rosdep snapshot's.
    xml = MINIMAL_XML.replace(
        "</version>", "</version>\n  <buildtool_export_depend>yaml-cpp</buildtool_export_depend>"
    )
    (tmp_path / "demo").mkdir()
    (tmp_path / "demo" / "package.xml").write_text(xml, encoding="utf-8")
    assert main(["analyze", str(tmp_path), "--format", "json", "--dry-run"]) == 0
    buckets = json.loads(capsys.readouterr().out)
    assert buckets["all"]["system_pkgs"] == ["libyaml-cpp-dev"]
    assert buckets["exec_only"]["system_pkgs"] == []


def test_parse_conditional_dependency() -> None:
    text = b"""\
<package format="3">
  <name>demo</name>
  <version>0.1.0</version>
  <depend condition="$ROS_VERSION == 2">only_ros2</depend>
  <depend condition="$ROS_VERSION == 1">only_ros1</depend>
  <export><build_type>ament_cmake</build_type></export>
</package>
"""
    manifest = parse_bytes(text, ENV, TOP)
    assert "only_ros2" in manifest.deps_build
    assert "only_ros1" not in manifest.deps_build
    assert "only_ros1" not in manifest.deps_exec


def test_export_is_not_read() -> None:
    export = '<build_type condition="not a condition">catkin</build_type><x/>'
    text = MINIMAL_XML.replace("<build_type>ament_python</build_type>", export)
    assert parse_bytes(text.encode(), ENV, TOP) == PackageManifest("demo")


@pytest.mark.parametrize(
    "mutation",
    [
        ("<name>demo</name>", "<name>9bad</name>"),
        ("<name>demo</name>", "<name>has-dash</name>"),
        ("<version>1.0.0</version>", "<version>v1</version>"),
        ("<name>demo</name>", ""),
        ("<version>1.0.0</version>", ""),
        ("</version>", "</version><depend>x\r\ny</depend>"),
        ("</version>", "</version><test_depend> </test_depend>"),
        ("</version>", "</version><test_depend>x y</test_depend>"),
        ("</version>", '</version><test_depend condition="$ROS_VERSION =">x</test_depend>'),
        ("</version>", "</version><buildtool_export_depend/>"),
    ],
)
def test_parse_rejects_bad_fields(mutation: tuple[str, str]) -> None:
    old, new = mutation
    with pytest.raises(MalformedManifest):
        parse_bytes(MINIMAL_XML.replace(old, new).encode(), ENV, TOP)


def test_parse_rejects_unknown_format() -> None:
    with pytest.raises(UnsupportedFormat):
        parse_bytes(MINIMAL_XML.replace('format="3"', 'format="4"').encode(), ENV, TOP)


def test_parse_rejects_invalid_xml() -> None:
    with pytest.raises(MalformedManifest):
        parse_bytes(b"<package><name>demo</name>", ENV, TOP)


# --- render / parse round trip --------------------------------------------

_name = st.from_regex(r"[a-z][a-z0-9_]{0,12}", fullmatch=True)
_version = st.from_regex(r"[0-9]{1,2}(\.[0-9]{1,2}){0,2}", fullmatch=True)
_keys = st.frozensets(_name, max_size=5)
_BUILD_TAGS = st.sampled_from(
    ["build_depend", "build_export_depend", "buildtool_depend", "buildtool_export_depend"]
)


@st.composite
def manifest_documents(draw: st.DrawFn) -> tuple[PackageManifest, str]:
    """A manifest and canonical XML for it.

    Keys in both build and exec scope are emitted as ``<depend>``; the
    remainder use their narrowest tag, a build-only key any of REP 149's
    four build tags. The format, version, test and doc dependencies and
    the build type are drawn too: ``parse_manifest`` keeps none of them.
    """

    both = draw(_keys)
    manifest = PackageManifest(
        name=draw(_name),
        deps_build=draw(_keys) | both,
        deps_exec=draw(_keys) | both,
    )
    lines = [
        '<?xml version="1.0"?>',
        f'<package format="{draw(st.sampled_from([2, 3]))}">',
        f"  <name>{manifest.name}</name>",
        f"  <version>{draw(_version)}</version>",
    ]
    both = sorted(manifest.deps_build & manifest.deps_exec)
    build_only = sorted(manifest.deps_build - manifest.deps_exec)
    exec_only = sorted(manifest.deps_exec - manifest.deps_build)
    for key in both:
        lines.append(f"  <depend>{key}</depend>")
    for key in build_only:
        tag = draw(_BUILD_TAGS)
        lines.append(f"  <{tag}>{key}</{tag}>")
    for key in exec_only:
        lines.append(f"  <exec_depend>{key}</exec_depend>")
    for key in sorted(draw(_keys)):
        lines.append(f"  <test_depend>{key}</test_depend>")
    for key in sorted(draw(_keys)):
        lines.append(f"  <doc_depend>{key}</doc_depend>")
    build_type = draw(st.sampled_from(["ament_cmake", "ament_python", "catkin"]))
    lines.append("  <export>")
    lines.append(f"    <build_type>{build_type}</build_type>")
    lines.append("  </export>")
    lines.append("</package>")
    return manifest, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(manifest_documents())
def test_render_parse_round_trip(document: tuple[PackageManifest, str]) -> None:
    manifest, text = document
    assert parse_bytes(text.encode(), ENV, TOP) == manifest


# --- workspace scanning ----------------------------------------------------


def _write_pkg(root, rel: str, name: str) -> None:
    directory = root / rel
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "package.xml").write_text(
        MINIMAL_XML.replace("demo", name), encoding="utf-8"
    )


def test_scan_finds_nested_packages(tmp_path) -> None:
    _write_pkg(tmp_path, "src/alpha", "alpha")
    _write_pkg(tmp_path, "src/vendor/beta", "beta")
    workspace = scan_workspace(tmp_path, ENV, None, True)
    assert [p.name for p in workspace.packages] == ["alpha", "beta"]
    assert workspace.packages[0].source_dir == "src/alpha"
    assert workspace.packages[1].source_dir == "src/vendor/beta"


def test_scan_is_sorted_by_name(tmp_path) -> None:
    _write_pkg(tmp_path, "src/zzz", "aaa")
    _write_pkg(tmp_path, "src/aaa", "zzz")
    workspace = scan_workspace(tmp_path, ENV, None, True)
    assert [p.name for p in workspace.packages] == ["aaa", "zzz"]


@pytest.mark.parametrize("marker", ["COLCON_IGNORE", "CATKIN_IGNORE", "AMENT_IGNORE"])
def test_scan_skips_ignored_subtrees(tmp_path, marker: str) -> None:
    _write_pkg(tmp_path, "src/kept", "kept")
    _write_pkg(tmp_path, "src/skipped", "skipped")
    _write_pkg(tmp_path, "src/skipped/inner", "inner")
    (tmp_path / "src/skipped" / marker).write_text("", encoding="utf-8")
    workspace = scan_workspace(tmp_path, ENV, None, True)
    assert [p.name for p in workspace.packages] == ["kept"]
    assert any("skipped" in str(d) for d in workspace.ignored_dirs)


def test_scan_descends_into_package_dirs(tmp_path) -> None:
    # As in colcon and catkin_pkg, a package directory is not searched: a
    # manifest below another package is not a package of the workspace.
    _write_pkg(tmp_path, "src/outer", "outer")
    _write_pkg(tmp_path, "src/outer/embedded", "embedded")
    workspace = scan_workspace(tmp_path, ENV, None, True)
    assert [p.name for p in workspace.packages] == ["outer"]


def test_scan_duplicate_names(tmp_path) -> None:
    _write_pkg(tmp_path, "src/one", "same")
    _write_pkg(tmp_path, "src/two", "same")
    with pytest.raises(DuplicatePackageName):
        scan_workspace(tmp_path, ENV, None, True)


def test_scan_empty_workspace(tmp_path) -> None:
    (tmp_path / "src").mkdir()
    with pytest.raises(EmptyWorkspace):
        scan_workspace(tmp_path, ENV, None, True)


def test_scan_rejects_non_utf8_manifest(tmp_path) -> None:
    _write_pkg(tmp_path, "src/good", "good")
    bad = tmp_path / "src" / "bad" / "package.xml"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(MINIMAL_XML.replace("demo", "bad").encode() + b"<!-- caf\xe9 -->\n")
    with pytest.raises(MalformedManifest, match="not UTF-8") as info:
        scan_workspace(tmp_path, ENV, None, True)
    assert str(bad) in str(info.value)


def test_fixture_workspaces_scan(minimal_analysis, multi_repo_analysis) -> None:
    assert [p.name for p in minimal_analysis.workspace.packages] == ["hello_node"]
    assert [p.name for p in multi_repo_analysis.workspace.packages] == [
        "nav_core",
        "sensor_common",
    ]
    nav = multi_repo_analysis.workspace.packages[0]
    assert "rclcpp_components" in nav.deps_build
