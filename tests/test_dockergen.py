"""Stage planning, plan validation and Dockerfile rendering."""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import TARGETS
from forge.dockergen import (
    APT_LIST,
    STAGES,
    CopyContext,
    CopyFromStage,
    DockerfilePlan,
    ImageSpec,
    RunShell,
    _render_run,
    plan_stages,
    render,
    render_dockerignore,
    validate_plan,
)
from forge.cli import main
from forge.depgraph import ResolvedDependencies
from forge.errors import UnresolvedDependencies
from forge.manifest import PackageManifest, scan_workspace

from conftest import image_spec
from dockerfile_syntax import (
    copy_destination,
    copy_operands,
    copy_source,
    dockerfile_problems,
    ignore_admits,
    instructions,
)


def make_plan(analysis, **kwargs) -> DockerfilePlan:
    spec = image_spec(analysis, **kwargs)
    return plan_stages(spec, analysis.resolved, analysis.resolved_exec, analysis.root)


def stage_text(dockerfile: str, stage: str) -> str:
    """The block of a rendered Dockerfile belonging to one stage."""

    blocks = dockerfile.split("\nFROM ")
    for block in blocks[1:]:
        header = block.splitlines()[0]
        if header.endswith(f" AS {stage}"):
            return block
    raise AssertionError(f"stage {stage} not found")


# Spec variants that add or drop instructions in some stage: (fixture,
# ImageSpec fields). Custom scripts are planned against a context that
# holds them.
_GRAPH_VARIANTS = [
    ("minimal_analysis", {}),
    ("minimal_analysis", {"slim_runtime": True}),
    ("minimal_analysis", {"nonroot_run": True}),
    ("minimal_analysis", {"custom_script_pre": "pre.sh", "custom_script_post": "post.sh"}),
    ("multi_repo_analysis", {}),
    ("multi_repo_analysis", {"slim_runtime": True, "nonroot_run": True}),
]


def _assert_stage_graph_follows_the_table(request, tmp_path, target: str) -> None:
    rows = [(row.name, row.parent) for row in STAGES if target in row.targets]
    for name in ("pre.sh", "post.sh"):
        (tmp_path / name).write_text("true\n", encoding="utf-8")
    for fixture, fields in _GRAPH_VARIANTS:
        analysis = request.getfixturevalue(fixture)
        context = tmp_path if "custom_script_pre" in fields else analysis.root
        spec = image_spec(analysis, target=target, **fields)
        plan = plan_stages(spec, analysis.resolved, analysis.resolved_exec, context)
        assert [(s.name, s.parent) for s in plan.stages] == rows, (fixture, fields)
        assert validate_plan(plan) == [], (fixture, fields)


def test_run_target_stage_graph(request, tmp_path) -> None:
    _assert_stage_graph_follows_the_table(request, tmp_path, "run")


def test_dev_target_stage_graph(request, tmp_path) -> None:
    _assert_stage_graph_follows_the_table(request, tmp_path, "dev")


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize(
    "fixture", ["minimal_analysis", "multi_repo_analysis", "catkin_analysis"]
)
def test_validate_passes_on_fixtures(request, fixture: str, target: str) -> None:
    analysis = request.getfixturevalue(fixture)
    plan = make_plan(analysis, target=target)
    assert validate_plan(plan) == []


def test_validate_passes_with_slim_runtime(multi_repo_analysis) -> None:
    plan = make_plan(multi_repo_analysis, target="run", slim_runtime=True)
    assert validate_plan(plan) == []


def test_strict_mode_rejects_unresolved(unresolved_analysis) -> None:
    with pytest.raises(UnresolvedDependencies) as excinfo:
        make_plan(unresolved_analysis, target="run", strict=True)
    assert "no_such_thing" in str(excinfo.value)


def test_lenient_mode_tolerates_unresolved(unresolved_analysis) -> None:
    plan = make_plan(unresolved_analysis, target="run")
    assert validate_plan(plan) == []


def test_spec_properties() -> None:
    ros2 = ImageSpec(ros_distro="humble")
    assert ros2.ros_version == 2
    assert ros2.build_tool == "colcon"
    ros1 = ImageSpec(ros_distro="noetic")
    assert ros1.ros_version == 1
    assert ros1.build_tool == "catkin"


@pytest.mark.parametrize(
    ("fixture", "base", "expected"),
    [
        ("minimal_analysis", "", "ros:humble"),
        ("catkin_analysis", "", "ros:noetic"),
        ("minimal_analysis", "ubuntu:22.04", "ubuntu:22.04"),
    ],
)
def test_base_image_defaults_to_the_distro_image(request, fixture, base, expected) -> None:
    analysis = request.getfixturevalue(fixture)
    text = render(make_plan(analysis, target="run", base_image=base))
    assert f"\nARG BASE_IMAGE={expected}\n" in text


# --- mutation tests for each validation rule -------------------------------


def _replace_stage(plan: DockerfilePlan, name: str, **changes) -> DockerfilePlan:
    stages = tuple(
        s._replace(**changes) if s.name == name else s
        for s in plan.stages
    )
    return plan._replace(stages=stages)


def _with_instruction(plan: DockerfilePlan, name: str, instruction) -> DockerfilePlan:
    stage = plan.stage(name)
    return _replace_stage(
        plan, name, instructions=stage.instructions + (instruction,)
    )


def test_rule_stage_order(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    broken = plan._replace(stages=tuple(reversed(plan.stages)))
    assert [v.rule for v in validate_plan(broken)] == ["stage-order"]
    # A dev plan lacks the stages STAGES keeps for the run target.
    dev_plan = make_plan(minimal_analysis, target="dev")
    assert [v.rule for v in validate_plan(dev_plan._replace(target="run"))] == ["stage-order"]


def test_rule_stage_parent(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    broken = _replace_stage(plan, "run", parent="dev")
    assert [v.rule for v in validate_plan(broken)] == ["stage-parent"]


def test_rule_manifests_only(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    leak = CopyContext(src="src/hello_node/hello_node/main.py", dst="/ws/main.py")
    broken = _with_instruction(plan, "dependencies", leak)
    assert [v.rule for v in validate_plan(broken)] == ["manifests-only"]


@pytest.mark.parametrize("src", ["src/hello_node/", "src", "../", "/", "src/hello_node/package.xml"])
def test_rule_source_roots_only(minimal_analysis, src: str) -> None:
    plan = make_plan(minimal_analysis, target="dev")
    broken = _with_instruction(plan, "dev", CopyContext(src=src, dst="/ws/src/x/"))
    assert [v.rule for v in validate_plan(broken)] == ["source-roots-only"]


def test_rule_no_source_leak(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    leak = CopyContext(src="src/", dst="/ws/src/")
    broken = _with_instruction(plan, "run", leak)
    assert [v.rule for v in validate_plan(broken)] == ["no-source-leak"]


def test_rule_install_space_copy_missing(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    run = plan.stage("run")
    stripped = tuple(
        i for i in run.instructions if not isinstance(i, CopyFromStage)
    )
    broken = _replace_stage(plan, "run", instructions=stripped)
    assert [v.rule for v in validate_plan(broken)] == ["install-space-copy"]


def test_rule_install_space_copy_duplicated(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    extra = CopyFromStage(stage="build", src="/ws/install", dst="/ws/install")
    broken = _with_instruction(plan, "run", extra)
    assert [v.rule for v in validate_plan(broken)] == ["install-space-copy"]


def test_rule_install_superset(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    sneak = RunShell(command="apt-get install -y sneaky", category="pkg-os", packages=("sneaky",))
    broken = _with_instruction(plan, "run", sneak)
    rules = [v.rule for v in validate_plan(broken)]
    assert rules == ["install-superset", "install-equality"]


def test_rule_install_equality_without_slim(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    extra = RunShell(command="apt-get install -y devtool", category="pkg-os", packages=("devtool",))
    broken = _with_instruction(plan, "dev", extra)
    assert [v.rule for v in validate_plan(broken)] == ["install-equality"]


def test_slim_dev_carries_build_only_delta(multi_repo_analysis) -> None:
    plan = make_plan(multi_repo_analysis, target="run", slim_runtime=True)
    shared = plan.stage("dependencies-install")
    dev = plan.stage("dev")

    def pkgs(stage, category):
        out = set()
        for i in stage.instructions:
            if isinstance(i, RunShell) and i.category == category:
                out.update(i.packages)
        return out

    # eigen is build-only in the fixture, so its OS package must move out
    # of the shared stage and into the dev delta.
    assert "libeigen3-dev" not in pkgs(shared, "pkg-os")
    assert "libeigen3-dev" in pkgs(dev, "pkg-os")
    # transforms3d is exec scope, so it stays shared.
    assert "transforms3d" in pkgs(shared, "pkg-pip")


def test_full_runtime_shares_everything(multi_repo_analysis) -> None:
    plan = make_plan(multi_repo_analysis, target="run", slim_runtime=False)
    shared = plan.stage("dependencies-install")
    os_pkgs = set()
    for i in shared.instructions:
        if isinstance(i, RunShell) and i.category == "pkg-os":
            os_pkgs.update(i.packages)
    assert "libeigen3-dev" in os_pkgs
    dev = plan.stage("dev")
    assert not any(
        isinstance(i, RunShell) and i.category in ("pkg-os", "pkg-pip")
        for i in dev.instructions
    )


# --- rendering -------------------------------------------------------------


def header_digest(dockerfile: str) -> str:
    """The sha256 that a rendered Dockerfile's second line names."""

    line = dockerfile.splitlines()[1]
    match = re.fullmatch(r"# Generated by forge \S+ \(plan sha256 ([0-9a-f]{64})\)", line)
    assert match, line
    return match.group(1)


def test_render_header_and_syntax(minimal_analysis) -> None:
    text = render(make_plan(minimal_analysis, target="run"))
    lines = text.splitlines(keepends=True)
    assert lines[0] == "# syntax=docker/dockerfile:1\n"
    assert lines[2:4] == ["# Regenerate instead of editing by hand.\n", "\n"]
    body = "".join(lines[4:])
    assert body.startswith("ARG BASE_IMAGE=ros:humble\n")
    assert header_digest(text) == hashlib.sha256(body.encode("utf-8")).hexdigest()
    assert text.endswith("\n")


def test_render_byte_deterministic(multi_repo_analysis) -> None:
    first = render(make_plan(multi_repo_analysis, target="run"))
    second = render(make_plan(multi_repo_analysis, target="run"))
    assert first == second


def test_render_invariant_under_input_permutation(multi_repo_analysis) -> None:
    spec = image_spec(multi_repo_analysis, target="run")
    assert len(spec.packages) > 1
    assert len(spec.source_repos) > 1
    permuted = spec._replace(
        packages=tuple(reversed(spec.packages)),
        source_repos=tuple(reversed(spec.source_repos)),
    )
    resolved = multi_repo_analysis.resolved
    resolved_exec = multi_repo_analysis.resolved_exec
    root = multi_repo_analysis.root
    assert render(plan_stages(spec, resolved, resolved_exec, root)) == render(
        plan_stages(permuted, resolved, resolved_exec, root)
    )


def test_render_run_stage_copy_rule(minimal_analysis) -> None:
    text = render(make_plan(minimal_analysis, target="run"))
    run_block = stage_text(text, "run")
    assert run_block.count("COPY --from=") == 1
    assert "COPY --from=build /ws/install /ws/install" in run_block


def test_render_base_stage_guard(minimal_analysis) -> None:
    text = render(make_plan(minimal_analysis, target="run"))
    base_block = stage_text(text, "base")
    assert 'if [ ! -d "/opt/ros/${ROS_DISTRO}" ]' in base_block
    assert "ros-${ROS_DISTRO}-ros-core" in base_block
    assert "ARG BASE_IMAGE" in text.split("\nFROM ", 1)[0]


def test_render_command_wiring(minimal_analysis) -> None:
    plan = make_plan(
        minimal_analysis, target="run", launch_command=("hello", "--verbose")
    )
    block = stage_text(render(plan), "run")
    assert "ARG COMMAND=" in block
    assert "hello --verbose" in block
    assert 'ENV FORGE_COMMAND="${COMMAND}"' in block
    assert "CMD []" in block
    assert "ENTRYPOINT" in block


def test_render_credentials_stay_placeholders(multi_repo_analysis) -> None:
    text = render(make_plan(multi_repo_analysis, target="run"))
    assert "${GIT_TOKEN}" in text
    assert "ARG GIT_TOKEN" in stage_text(text, "dependencies-install")
    # The placeholder must ride in a single-quoted printf argument so the
    # artifact file carries it verbatim.
    assert "'private_tools https://x-access-token:${GIT_TOKEN}@" in text


def test_render_dependencies_stage_copies_manifests_only(multi_repo_analysis) -> None:
    text = render(make_plan(multi_repo_analysis, target="run"))
    block = stage_text(text, "dependencies")
    for line in block.splitlines():
        if line.startswith("COPY "):
            assert line.endswith("package.xml") or ".repos" in line, line


@pytest.mark.parametrize(
    ("name", "source_dir", "manifest_copy", "source_copy"),
    [
        ("solo", ".", "COPY package.xml /ws/src/solo/package.xml",
         "COPY --chown=1000:1000 ./ /ws/src/solo/"),
        ("core", "src/core", "COPY src/core/package.xml /ws/src/core/package.xml",
         "COPY --chown=1000:1000 src/ /ws/src/"),
        ("pkg", "ros/pkg", "COPY ros/pkg/package.xml /ws/src/ros/pkg/package.xml",
         "COPY --chown=1000:1000 ros/ /ws/src/ros/"),
    ],
    ids=["workspace-root", "under-src", "outside-src"],
)
def test_render_maps_each_package_directory_below_src(
    minimal_analysis, name: str, source_dir: str, manifest_copy: str, source_copy: str
) -> None:
    package = PackageManifest(name, source_dir=source_dir)
    text = render(make_plan(minimal_analysis, target="dev", packages=(package,)))
    copies = [line for line in text.splitlines() if line.startswith("COPY ")]
    assert manifest_copy in stage_text(text, "dependencies").splitlines()
    assert source_copy in stage_text(text, "dev").splitlines()
    assert [line for line in copies if "--from=" not in line] == [manifest_copy, source_copy]


def test_render_zero_dep_workspace_writes_empty_lists(minimal_analysis) -> None:
    text = render(make_plan(minimal_analysis, target="run"))
    assert f": > {APT_LIST}" in text


def test_render_dev_stage_user(minimal_analysis) -> None:
    block = stage_text(render(make_plan(minimal_analysis, target="dev")), "dev")
    assert "USER ros" in block
    assert "useradd --uid 1000" in block
    assert "COPY --chown=1000:1000 src/ /ws/src/" in block


def test_render_catkin_build_command(catkin_analysis) -> None:
    block = stage_text(render(make_plan(catkin_analysis, target="run")), "build")
    assert "catkin_make_isolated --install" in block
    assert "colcon" not in block


def test_render_colcon_build_command(minimal_analysis) -> None:
    block = stage_text(render(make_plan(minimal_analysis, target="run")), "build")
    assert "colcon build --install-base /ws/install" in block


def test_fingerprint_tracks_content(minimal_analysis) -> None:
    base = render(make_plan(minimal_analysis, target="run"))
    same = render(make_plan(minimal_analysis, target="run"))
    different = render(
        make_plan(minimal_analysis, target="run", launch_command=("hello",))
    )
    assert header_digest(base) == header_digest(same)
    assert header_digest(base) != header_digest(different)


# --- RUN wrapping ----------------------------------------------------------

_segment = st.from_regex(r"[a-z0-9 _./=-]{1,30}", fullmatch=True).filter(
    lambda s: " && " not in s and s.strip()
)


@settings(max_examples=120, deadline=None)
@given(st.lists(_segment, min_size=1, max_size=6))
def test_run_wrapping_round_trips(segments: list[str]) -> None:
    command = " && ".join(segments)
    lines = _render_run(command)
    assert lines[0].startswith("RUN ")
    if len(lines) == 1:
        assert lines[0] == f"RUN {command}"
        return
    # Wrapping happens only at " && " joints: strip the continuation
    # markers and indentation, rejoin, and the command comes back exactly.
    pieces = [lines[0][len("RUN ") :]] + [
        line[4:] if line.startswith("    ") else line for line in lines[1:]
    ]
    for piece in pieces[:-1]:
        assert piece.endswith(" && \\")
    rebuilt = " && ".join(
        piece[: -len(" && \\")] if piece.endswith(" && \\") else piece
        for piece in pieces
    )
    assert rebuilt == command


# --- source roots and the .dockerignore -------------------------------------

_NO_DEPS = ResolvedDependencies((), (), (), (), (), (), "all")


def _forge(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _manifest(name: str) -> str:
    return f'<package format="3"><name>{name}</name><version>1.0.0</version></package>\n'


def test_dockerignore_escapes_wildcards_and_backslashes(minimal_analysis) -> None:
    package = PackageManifest("odd", source_dir="src/a[1]*?\\b c")
    plan = make_plan(minimal_analysis, target="dev", packages=(package,))
    ignore = render_dockerignore(plan, "")
    assert "!src/a\\[1]\\*\\?\\\\b c\n" in ignore
    assert ignore_admits(ignore)("src/a[1]*?\\b c/package.xml")
    assert not ignore_admits(ignore)("src/a1xyb c/package.xml")


def test_a_package_at_the_root_leaves_nothing_out(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="dev", packages=(PackageManifest("solo"),))
    assert plan.context_paths == (".",)
    assert ignore_admits(render_dockerignore(plan, ""))("any/file")


# Path components with every character BuildKit's COPY reads specially.
_COMPONENTS = st.text(alphabet="ab[]*?$'\"\\- {}^!", min_size=1, max_size=6).filter(
    lambda part: part not in (".", "..") and part == part.strip()
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COMPONENTS, min_size=1, max_size=3), st.booleans())
def test_every_copy_operand_names_exactly_its_path(minimal_analysis, parts, below_src) -> None:
    rel = "/".join(["src", *parts] if below_src else parts)
    plan = make_plan(minimal_analysis, target="dev", packages=(PackageManifest("odd", source_dir=rel),))
    text = render(plan)
    assert dockerfile_problems(text) == []
    planned = sorted(
        (i.src, i.dst) for stage in plan.stages for i in stage.instructions
        if isinstance(i, (CopyContext, CopyFromStage))
    )
    read = sorted(
        (copy_source(operands[0]), copy_destination(operands[1]))
        for line in instructions(text) if line.startswith("COPY ")
        for operands in [copy_operands(line)]
    )
    assert read == planned


@pytest.mark.parametrize(
    ("path", "copy"),
    [
        ("src/odd[1]", "COPY src/odd[[]1]/package.xml /ws/src/odd[1]/package.xml"),
        ("src/st*r", "COPY src/st[*]r/package.xml /ws/src/st*r/package.xml"),
        ("src/$HOME", "COPY src/\\$HOME/package.xml /ws/src/\\$HOME/package.xml"),
        ("src/a\\b/c?", "COPY src/a\\\\b/c[?]/package.xml /ws/src/a\\\\b/c?/package.xml"),
        ("src/c?/a\\b", "COPY src/c[?]/a\\\\\\\\b/package.xml /ws/src/c?/a\\\\b/package.xml"),
        ("--from=x", "COPY \\--from=x/package.xml /ws/src/--from=x/package.xml"),
        ("[x]", 'COPY ["[[]x]/package.xml", "/ws/src/[x]/package.xml"]'),
        ("src/it's [x]", 'COPY ["src/it\\\\\'s [[]x]/package.xml", "/ws/src/it\\\\\'s [x]/package.xml"]'),
    ],
)
def test_a_copy_operand_escapes_what_buildkit_reads_specially(
    minimal_analysis, path: str, copy: str
) -> None:
    plan = make_plan(minimal_analysis, target="run", packages=(PackageManifest("odd", source_dir=path),))
    assert copy in render(plan).splitlines()


@pytest.mark.parametrize("name", ["my pkg", "two  spaces", "nb\u00a0pkg"])
def test_whitespace_in_a_package_path_gives_two_copy_operands(tmp_path, name: str) -> None:
    (tmp_path / "src" / name).mkdir(parents=True)
    (tmp_path / "src" / name / "package.xml").write_text(_manifest("spaced"), encoding="utf-8")
    code, text, err = _forge(["generate", "dockerfile", str(tmp_path), "-o", "-"])
    assert code == 0, err
    assert dockerfile_problems(text) == []
    copies = [copy_operands(line) for line in instructions(text) if line.startswith("COPY ")]
    assert len(copies) == 4 and all(len(operands) == 2 for operands in copies), copies
    assert [f"src/{name}/package.xml", f"/ws/src/{name}/package.xml"] in copies


@pytest.mark.parametrize(
    ("path", "script"),
    [
        ("src/a\x01b", None),
        ("src/a\nb", None),
        ("src/pkg ", None),
        (" top", None),
        ("src/pkg", "pre.sh "),
        ("src/a\udcffb", None),
    ],
    ids=["control", "newline", "trailing-space", "leading-space", "script", "not-utf8"],
)
def test_a_path_no_copy_and_ignore_line_can_name_exits_2(tmp_path, path: str, script) -> None:
    (tmp_path / path).mkdir(parents=True)
    (tmp_path / path / "package.xml").write_text(_manifest("pkg"), encoding="utf-8")
    (tmp_path / "pre.sh ").write_text("true\n", encoding="utf-8")
    options = ["--script-pre", script] if script else []
    code, out, err = _forge(["generate", "dockerfile", str(tmp_path), "-o", "-", *options])
    assert (code, out) == (2, "")
    assert err.startswith("forge: error: InvalidSpec: "), err
    assert repr(script or path) in err and "cannot be named exactly" in err, err


# Package, ignored and loose files of the drawn workspaces.
_PACKAGE_FILES = [
    "CMakeLists.txt", "src/main.cpp", ".hidden/notes", "attic/COLCON_IGNORE", "attic/package.xml",
]
_LOOSE_FILES = [
    "README.md", "src/README.md", "src/g1/CMakeLists.txt", "docs/guide.md", ".gitignore",
    "src/.git/pkg_git/package.xml",
]
_GROUPS = ["", "g1", "g2/sub", "my group", "odd[1]*?", "back\\slash"]
_MARKERS = ["COLCON_IGNORE", "CATKIN_IGNORE", "AMENT_IGNORE"]
# A workspace's own .dockerignore, and which files it leaves out.
_OWN_IGNORES = {
    "": lambda name: False,
    "**/main.cpp\n": lambda name: name.split("/")[-1] == "main.cpp",
    "# mine\n.hidden\n**/.hidden\n": lambda name: ".hidden" in name.split("/"),
}


@st.composite
def workspaces(draw: st.DrawFn) -> dict:
    """A workspace as files to write, and what of it is live.

    Packages sit under ``src/``, also under a second top-level directory,
    as that directory itself, or as one package at the root.
    """

    layout = draw(st.sampled_from(["src", "two", "top", "root"]))
    count = 1 if layout == "root" else draw(st.integers(1, 300))
    second = draw(st.sampled_from(["tools", "my tools"]))
    live: list[str] = []
    for index in range(count):
        if layout == "root":
            live.append(".")
        elif layout == "top" and index == 0:
            live.append(second)
        elif layout == "two" and (index == 0 or draw(st.booleans())):
            live.append(f"{second}/pkg_{index}")
        else:
            group = draw(st.sampled_from(_GROUPS))
            live.append(f"src/{group}/pkg_{index}".replace("//", "/"))
    # Every 50th package holds more files than its manifest, which keeps
    # the file count near the package count.
    extras = draw(st.sets(st.sampled_from(_PACKAGE_FILES)))
    files = {}
    for index, rel in enumerate(live):
        head = "" if rel == "." else rel + "/"
        files[f"{head}package.xml"] = _manifest(f"pkg_{index}")
        if index % 50 == 0:
            files.update({f"{head}{name}": "x\n" for name in extras})
    for marker in draw(st.sets(st.sampled_from(_MARKERS))):
        # An ignored subtree, with a package in it, below a source root and at the top.
        for attic in (f"src/attic_{marker}", f"legacy_{marker}"):
            files[f"{attic}/{marker}"] = ""
            files[f"{attic}/old/package.xml"] = _manifest(f"old_{marker.lower()}")
            files[f"{attic}/old/main.cpp"] = "x\n"
    files.update({name: "x\n" for name in draw(st.sets(st.sampled_from(_LOOSE_FILES)))})
    repos = sorted(draw(st.sets(st.sampled_from(["deps.repos", "more deps.repos"]))))
    scripts = draw(st.sampled_from([(), ("scripts/pre.sh",), ("scripts/pre.sh", "post.sh")]))
    files.update({name: "x\n" for name in (*repos, *scripts)})
    own_ignore = draw(st.sampled_from(sorted(_OWN_IGNORES)))
    return {
        "files": files, "live": live, "repos": tuple(repos), "scripts": scripts,
        "own_ignore": own_ignore,
    }


def _dev_layers(text: str) -> int:
    return sum(1 for line in instructions(stage_text(text, "dev"))
               if line.split(" ", 1)[0] in ("RUN", "COPY", "ADD"))


@settings(max_examples=25, deadline=None)
@given(workspaces(), st.sampled_from(TARGETS))
def test_dev_copies_each_source_root_once_and_the_ignore_file_keeps_the_rest_out(
    workspace: dict, target: str
) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for parent in {(root / name).parent for name in workspace["files"]}:
            parent.mkdir(parents=True, exist_ok=True)
        for name, text in workspace["files"].items():
            (root / name).write_text(text, encoding="utf-8")
        packages = tuple(scan_workspace(root, {}, None, False).packages)
        scripts = dict(zip(("custom_script_pre", "custom_script_post"), workspace["scripts"]))
        spec = ImageSpec(
            ros_distro="humble", target=target, packages=packages,
            repos_files=workspace["repos"], **scripts,
        )
        plan = plan_stages(spec, _NO_DEPS, _NO_DEPS, root)
        one_per_root = {p.source_dir.split("/")[0]: p for p in packages}
        small = spec._replace(packages=tuple(one_per_root.values()))
        small_text = render(plan_stages(small, _NO_DEPS, _NO_DEPS, root))

    assert sorted(p.source_dir for p in packages) == sorted(workspace["live"])
    assert validate_plan(plan) == []
    text = render(plan)
    assert dockerfile_problems(text) == []
    assert _dev_layers(text) == _dev_layers(small_text) == 3 + len(one_per_root)

    # The live package directory each file lies in, if any.
    owner = {
        name: rel for name in workspace["files"] for rel in workspace["live"]
        if rel == "." or name.startswith(rel + "/")
    }
    # The ignore file admits the live packages, .repos files and scripts,
    # less what the workspace's own .dockerignore leaves out, nothing else.
    admits = ignore_admits(render_dockerignore(plan, workspace["own_ignore"]))
    admitted = {name for name in workspace["files"] if admits(name)}
    left_out = _OWN_IGNORES[workspace["own_ignore"]]
    wanted = set(owner) | set(workspace["repos"]) | set(workspace["scripts"])
    assert admitted == {name for name in wanted if not left_out(name)}
    owner = {name: rel for name, rel in owner.items() if not left_out(name)}
    copied = [i.src for stage in plan.stages for i in stage.instructions
              if isinstance(i, CopyContext) and stage.name != "dev"]
    assert all(admits(src) for src in copied), copied

    # dev holds each live package's files where a per-package copy put them:
    # below /ws/src/, a package at the root as /ws/src/<name>.
    names = {p.source_dir: p.name for p in packages}
    expected = set()
    for name, rel in owner.items():
        if rel == ".":
            expected.add(f"/ws/src/{names[rel]}/{name}")
        else:
            expected.add(f"/ws/{rel if rel.startswith('src/') else 'src/' + rel}{name[len(rel):]}")
    held = set()
    for copy in plan.stage("dev").instructions:
        if isinstance(copy, CopyContext):
            prefix = "" if copy.src == "./" else copy.src
            held |= {copy.dst + name[len(prefix):] for name in admitted if name.startswith(prefix)}
    assert held == expected
