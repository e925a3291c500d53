"""Stage planning, plan validation and Dockerfile rendering."""

from __future__ import annotations

import hashlib
import re

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
    validate_plan,
)
from forge.errors import UnresolvedDependencies
from forge.manifest import PackageManifest

from conftest import image_spec


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
         "COPY --chown=1000:1000 src/core/ /ws/src/core/"),
        ("pkg", "ros/pkg", "COPY ros/pkg/package.xml /ws/src/ros/pkg/package.xml",
         "COPY --chown=1000:1000 ros/pkg/ /ws/src/ros/pkg/"),
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
    assert "COPY --chown=1000:1000 src/hello_node/ /ws/src/hello_node/" in block


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
