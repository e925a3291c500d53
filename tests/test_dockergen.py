"""Stage planning, plan validation and Dockerfile rendering."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from forge import TARGETS
from forge.dockergen import (
    APT_LIST,
    ARTIFACT_DIR,
    MAX_LINEAGE_LAYERS,
    PIP_LIST,
    REPOS_LIST,
    STAGES,
    CopyContext,
    CopyFromStage,
    DockerfilePlan,
    ImageSpec,
    Install,
    _run,
    plan_stages,
    render,
    render_dockerignore,
    validate_plan,
)
from forge.cli import main
from forge.depgraph import ResolvedDependencies
from forge.errors import UnresolvedDependencies
from forge.manifest import PackageManifest, scan_workspace
from forge.sources import RepoSpec

from conftest import image_spec
from dockerfile_syntax import (
    arg_default,
    copy_landings,
    copy_operands,
    dockerfile_problems,
    ignore_admits,
    instructions,
    lineage_layers,
    stage_text,
)


def make_plan(analysis, **kwargs) -> DockerfilePlan:
    spec = image_spec(analysis, **kwargs)
    return plan_stages(spec, analysis.resolved, analysis.resolved_exec, analysis.root)


# Spec fields that add or drop instructions in some stage. Custom scripts
# are planned against a context that holds them.
_GRAPH_FIELDS = st.fixed_dictionaries({}, optional={
    "slim_runtime": st.booleans(),
    "nonroot_run": st.booleans(),
    "custom_script_pre": st.just("pre.sh"),
    "custom_script_post": st.just("post.sh"),
})


@settings(max_examples=60, deadline=None)
@given(fixture=st.sampled_from(range(3)), target=st.sampled_from(TARGETS), fields=_GRAPH_FIELDS)
def test_every_plan_has_the_stages_and_parents_of_its_target(
    minimal_analysis, multi_repo_analysis, catkin_analysis, fixture, target, fields
) -> None:
    analysis = (minimal_analysis, multi_repo_analysis, catkin_analysis)[fixture]
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("pre.sh", "post.sh"):
            (Path(tmp) / name).write_text("true\n", encoding="utf-8")
        spec = image_spec(analysis, target=target, **fields)
        plan = plan_stages(spec, analysis.resolved, analysis.resolved_exec, Path(tmp))
    rows = [row for row in STAGES if target in row.targets]
    assert list(plan.stages) == [row.name for row in rows]
    assert [line for line in instructions(render(plan)) if line.startswith("FROM ")] == [
        f"FROM {row.parent} AS {row.name}" for row in rows
    ]
    assert validate_plan(plan) == []


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


def _replace_stage(plan: DockerfilePlan, name: str, instructions) -> DockerfilePlan:
    return plan._replace(stages={**plan.stages, name: tuple(instructions)})


def _with_instruction(plan: DockerfilePlan, name: str, instruction) -> DockerfilePlan:
    return _replace_stage(plan, name, (*plan.stages[name], instruction))


_MAIN_PY = "src/hello_node/hello_node/main.py"


@pytest.mark.parametrize(
    "leak",
    [
        CopyContext((_MAIN_PY,), "/ws/main.py"),
        CopyContext(("src/a/package.xml", _MAIN_PY, "deps.repos"), "/ws/"),
    ],
    ids=["one-source", "many-sources"],
)
def test_rule_manifests_only(minimal_analysis, leak: CopyContext) -> None:
    plan = make_plan(minimal_analysis, target="run")
    broken = _with_instruction(plan, "dependencies", leak)
    assert [(v.rule, v.detail) for v in validate_plan(broken)] == [
        ("manifests-only", f"copies {_MAIN_PY!r}, not a manifest or repository list")
    ]


@pytest.mark.parametrize("src", ["src/hello_node/", "src", "../", "/", "src/hello_node/package.xml"])
@pytest.mark.parametrize("many", [False, True], ids=["one-source", "many-sources"])
def test_rule_source_roots_only(minimal_analysis, src: str, many: bool) -> None:
    plan = make_plan(minimal_analysis, target="dev")
    srcs, dst = (("tools/", src, "ros/"), "/ws/src/") if many else ((src,), "/ws/src/x/")
    broken = _with_instruction(plan, "dev", CopyContext(srcs, dst))
    assert [(v.rule, v.detail) for v in validate_plan(broken)] == [
        ("source-roots-only", f"copies {src!r}, not a whole top-level directory")
    ]


def test_rule_no_source_leak(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    leak = CopyContext(("src/",), "/ws/src/")
    broken = _with_instruction(plan, "run", leak)
    assert [v.rule for v in validate_plan(broken)] == ["no-source-leak"]


@pytest.mark.parametrize(("target", "stage"), [("dev", "dev"), ("run", "build"), ("run", "run")])
def test_rule_lineage_layers(minimal_analysis, target: str, stage: str) -> None:
    plan = make_plan(minimal_analysis, target=target)
    room = MAX_LINEAGE_LAYERS - lineage_layers(render(plan))[stage]
    filled = _replace_stage(plan, stage, (*plan.stages[stage], *["RUN true"] * room))
    assert validate_plan(filled) == []
    assert lineage_layers(render(filled))[stage] == MAX_LINEAGE_LAYERS
    broken = _with_instruction(filled, stage, "RUN true")
    assert [(v.stage, v.rule, v.detail) for v in validate_plan(broken)] == [
        (stage, "lineage-layers",
         f"its lineage holds {MAX_LINEAGE_LAYERS + 1} layers, more than {MAX_LINEAGE_LAYERS}")
    ]


def test_rule_install_space_copy_missing(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    stripped = [i for i in plan.stages["run"] if not isinstance(i, CopyFromStage)]
    broken = _replace_stage(plan, "run", stripped)
    assert [v.rule for v in validate_plan(broken)] == ["install-space-copy"]


def test_rule_install_space_copy_duplicated(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    extra = CopyFromStage(stage="build", src="/ws/install", dst="/ws/install")
    broken = _with_instruction(plan, "run", extra)
    assert [v.rule for v in validate_plan(broken)] == ["install-space-copy"]


def test_rule_install_superset(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    sneak = Install("apt", ("sneaky",), "apt-get install -y sneaky")
    broken = _with_instruction(plan, "run", sneak)
    rules = [v.rule for v in validate_plan(broken)]
    assert rules == ["install-superset", "install-equality"]


def test_rule_install_equality_without_slim(minimal_analysis) -> None:
    plan = make_plan(minimal_analysis, target="run")
    extra = Install("apt", ("devtool",), "apt-get install -y devtool")
    broken = _with_instruction(plan, "dev", extra)
    assert [v.rule for v in validate_plan(broken)] == ["install-equality"]


def test_slim_dev_carries_build_only_delta(multi_repo_analysis) -> None:
    plan = make_plan(multi_repo_analysis, target="run", slim_runtime=True)

    def pkgs(stage, manager):
        return {
            package for i in plan.stages[stage] if isinstance(i, Install) and i.manager == manager
            for package in i.packages
        }

    # eigen is build-only in the fixture, so its OS package must move out
    # of the shared stage and into the dev delta.
    assert "libeigen3-dev" not in pkgs("dependencies-install", "apt")
    assert "libeigen3-dev" in pkgs("dev", "apt")
    # transforms3d is exec scope, so it stays shared.
    assert "transforms3d" in pkgs("dependencies-install", "pip")


def test_full_runtime_shares_everything(multi_repo_analysis) -> None:
    plan = make_plan(multi_repo_analysis, target="run", slim_runtime=False)
    os_pkgs = {
        package for i in plan.stages["dependencies-install"]
        if isinstance(i, Install) and i.manager == "apt" for package in i.packages
    }
    assert "libeigen3-dev" in os_pkgs
    assert not any(isinstance(i, Install) for i in plan.stages["dev"])


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
    assert lines[0] == "# syntax=docker/dockerfile:1-labs\n"
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
    text = render(make_plan(multi_repo_analysis, target="run", repos_files=("deps.repos",)))
    copies = [line for line in instructions(stage_text(text, "dependencies")) if line.startswith("COPY ")]
    assert [copy_landings(line) for line in copies] == [[
        ("src/nav_core/package.xml", "/ws/src/nav_core/package.xml"),
        ("src/sensor_common/package.xml", "/ws/src/sensor_common/package.xml"),
        ("deps.repos", "/ws/deps.repos"),
    ]]


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


# --- ARG defaults and RUN bodies, read back ---------------------------------

# Printable text, and printable words: no whitespace.
_PRINTABLE = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
_WORD = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Z")), min_size=1, max_size=8)
# An extra package name: a word that apt-get or pip would not read as an option.
_EXTRA = _WORD.filter(lambda word: not word.startswith("-"))


@settings(max_examples=200, deadline=None)
@given(base=_PRINTABLE, argv=st.lists(_PRINTABLE, min_size=1, max_size=4))
@example(base="", argv=["echo", "$HOME"])
@example(base="", argv=["echo", "a\\\\b"])
@example(base="", argv=["a;b"])
def test_every_arg_default_reads_back_as_planned(minimal_analysis, base, argv) -> None:
    plan = make_plan(minimal_analysis, target="run", base_image=base, launch_command=tuple(argv))
    read = [
        (match[1], arg_default(line)) for line in instructions(render(plan))
        if (match := re.match(r"ARG (\w+)=", line))
    ]
    assert read == [
        ("BASE_IMAGE", base or "ros:humble"), ("ROS_DISTRO", "humble"),
        ("COMMAND", "bash"), ("COMMAND", shlex.join(argv)),
    ]
    # The entrypoint's sh -c runs the words the command was given as.
    assert shlex.split(read[-1][1]) == argv


# Three ways a shell word is written: single-quoted, double-quoted with
# ``\``, ``"``, ``$`` and backquote escaped, or with every character
# that is not a letter or digit escaped.
_QUOTINGS = {
    "single": shlex.quote,
    "double": lambda word: '"' + re.sub(r'[\\"$`]', r"\\\g<0>", word) + '"',
    "escaped": lambda word: re.sub(r"\W", r"\\\g<0>", word) or "''",
}
_SHELL_WORD = st.one_of(_PRINTABLE, st.text(st.sampled_from(" &&\\$\"'`;|x"), max_size=8))


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.tuples(st.sampled_from(sorted(_QUOTINGS)), _SHELL_WORD), max_size=4),
    min_size=1, max_size=4,
))
@example([[("escaped", "&& \\")], [("single", "a && b")], [("double", '" && $x')]])
def test_every_run_line_reads_back_as_its_command(commands) -> None:
    command = " && ".join(
        " ".join(["echo", *(_QUOTINGS[quoting](word) for quoting, word in words)])
        for words in commands
    )
    # A Dockerfile line that ends in a backslash goes on in the next; no
    # command forge plans ends in one.
    assume(not command.endswith("\\"))
    line = _run(command)
    assert line.count("\n") == len(commands) - 1
    [joined] = instructions(line)
    assert shlex.split(joined[len("RUN "):]) == shlex.split(command)
    assert dockerfile_problems(line) == []


def _printf_words(path: str, items) -> list[str]:
    return ["printf", "%s\\n", *items, ">", path] if items else [":", ">", path]


_REPOS = st.lists(
    st.tuples(
        st.from_regex(r"[A-Za-z0-9_-][A-Za-z0-9_.-]{0,7}", fullmatch=True),
        _WORD,
        st.none() | _WORD,
    ),
    max_size=4,
    unique_by=lambda repo: repo[0],
)


@settings(max_examples=150, deadline=None)
@given(
    repos=_REPOS,
    apt=st.lists(_EXTRA, max_size=3),
    pip=st.lists(_EXTRA, max_size=3),
    build_only=st.lists(_WORD, max_size=3),
    slim=st.booleans(),
)
@example(repos=[("x", "&&", "v1")], apt=[], pip=[], build_only=[], slim=False)
def test_every_run_body_reads_back_as_planned(repos, apt, pip, build_only, slim) -> None:
    build_deps = _NO_DEPS._replace(
        system_pkgs=tuple(sorted(set(build_only))), python_pkgs=tuple(sorted(set(build_only)))
    )
    spec = ImageSpec(
        ros_distro="humble", source_repos=tuple(RepoSpec(*repo) for repo in repos),
        extra_apt=tuple(apt), extra_pip=tuple(pip), slim_runtime=slim,
    )
    plan = plan_stages(spec, build_deps, _NO_DEPS, Path("."))
    read = [shlex.split(line[4:]) for line in instructions(render(plan)) if line.startswith("RUN ")]
    for install in (i for stage in plan.stages.values() for i in stage if isinstance(i, Install)):
        assert shlex.split(install.command) in read

    installed = {
        i.manager: i.packages for i in plan.stages["dependencies-install"] if isinstance(i, Install)
    }
    lines = [" ".join(part for part in repo if part) for repo in sorted(repos)]
    artifacts = next(words for words in read if words[:3] == ["mkdir", "-p", ARTIFACT_DIR])
    assert artifacts == [
        "mkdir", "-p", ARTIFACT_DIR,
        "&&", *_printf_words(APT_LIST, installed.get("apt", ())),
        "&&", *_printf_words(PIP_LIST, installed.get("pip", ())),
        "&&", *_printf_words(REPOS_LIST, lines),
    ]
    # In slim mode dev names the build-only remainder in its install commands.
    for install in plan.stages["dev"]:
        if isinstance(install, Install):
            assert set(install.packages) <= set(shlex.split(install.command)), install


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


def _planned_landings(plan: DockerfilePlan) -> list[tuple[str, str]]:
    """Each planned COPY source with where the plan says it lands."""

    landings = []
    for copy in (i for stage in plan.stages.values() for i in stage):
        if isinstance(copy, CopyFromStage):
            landings.append((copy.src, copy.dst))
        elif isinstance(copy, CopyContext):
            landings += [(src, copy.dst + src if len(copy.srcs) > 1 else copy.dst) for src in copy.srcs]
    return sorted(landings)


def _read_landings(text: str) -> list[tuple[str, str]]:
    """Each COPY source of ``text`` with where BuildKit lands it."""

    return sorted(
        landing for line in instructions(text) if line.startswith("COPY ")
        for landing in copy_landings(line)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(_COMPONENTS, min_size=1, max_size=3), st.booleans()),
        min_size=1, max_size=3, unique_by=lambda package: (package[0][0], package[1]),
    )
)
def test_every_copy_operand_names_exactly_its_path(minimal_analysis, packages) -> None:
    # Each package its own top-level directory or its own one below src/,
    # so none lies inside another; several share a COPY of many sources.
    packages = tuple(
        PackageManifest(f"odd{index}", source_dir="/".join(["src", *parts] if below_src else parts))
        for index, (parts, below_src) in enumerate(packages)
    )
    plan = make_plan(minimal_analysis, target="dev", packages=packages)
    text = render(plan)
    assert dockerfile_problems(text) == []
    assert _read_landings(text) == _planned_landings(plan)


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


def _copy_operand_counts(root: Path, name: str) -> tuple[list[int], str]:
    """The operand count of each COPY, and the Dockerfile, that forge writes for
    packages in ``src/<name>``, ``src/plain`` and ``tools``."""

    for rel, package in ((f"src/{name}", "spaced"), ("src/plain", "plain"), ("tools", "tools")):
        (root / rel).mkdir(parents=True)
        (root / rel / "package.xml").write_text(_manifest(package), encoding="utf-8")
    code, text, err = _forge(["generate", "dockerfile", str(root), "-o", "-"])
    assert code == 0, err
    return [len(copy_operands(line)) for line in instructions(text) if line.startswith("COPY ")], text


@pytest.mark.parametrize("name", ["my pkg", "two  spaces", "nb\u00a0pkg"])
def test_whitespace_in_a_package_path_adds_no_copy_operand(tmp_path, name: str) -> None:
    counts, text = _copy_operand_counts(tmp_path / "spaced", name)
    assert dockerfile_problems(text) == []
    assert counts == _copy_operand_counts(tmp_path / "plain", "pkg")[0]
    # The manifests below src/ share a COPY in the JSON-array form, one operand a line.
    manifest = json.dumps(f"src/{name}/package.xml", ensure_ascii=False)
    assert f'COPY --parents \\\n    ["src/plain/package.xml", \\\n    {manifest}, \\\n' in text
    assert (f"src/{name}/package.xml", f"/ws/src/{name}/package.xml") in _read_landings(text)


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
    as that directory itself, each as a top-level directory of its own
    (flat), or as one package at the root.
    """

    layout = draw(st.sampled_from(["src", "two", "top", "flat", "root"]))
    count = 1 if layout == "root" else draw(st.integers(1, 300))
    second = draw(st.sampled_from(["tools", "my tools"]))
    live: list[str] = []
    for index in range(count):
        if layout == "root":
            live.append(".")
        elif layout == "top" and index == 0:
            live.append(second)
        elif layout == "flat":
            live.append(f"pkg_{index}")
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


def _kind(source_dir: str) -> str:
    """Where a package directory lies: the context root, below ``src/`` or elsewhere."""

    return "." if source_dir == "." else "src" if source_dir.split("/")[0] == "src" else "other"


def _below_ws(rel: str, name: str) -> str:
    """Where one COPY per item put directory ``rel`` of the context, which holds
    package ``name`` or is a package directory: below ``/ws/src/``, and the
    context root as ``/ws/src/<name>``."""

    if rel == ".":
        return f"/ws/src/{name}"
    return f"/ws/{rel}" if rel.split("/")[0] == "src" else f"/ws/src/{rel}"


def _landings(text: str, stage: str) -> dict[str, str]:
    """Where each context path that ``stage`` copies lands; each is copied once."""

    pairs = [
        landing for line in instructions(stage_text(text, stage)) if line.startswith("COPY ")
        and "--from=" not in line for landing in copy_landings(line)
    ]
    assert len(pairs) == len(dict(pairs)), pairs
    return dict(pairs)


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
        one_per_kind = {_kind(p.source_dir): p for p in packages}
        small = spec._replace(packages=tuple(one_per_kind.values()))
        small_text = render(plan_stages(small, _NO_DEPS, _NO_DEPS, root))

    assert sorted(p.source_dir for p in packages) == sorted(workspace["live"])
    assert validate_plan(plan) == []
    text = render(plan)
    assert dockerfile_problems(text) == []
    # No lineage's layer count grows with the packages: it is that of one
    # package of each kind, and under the bound.
    layers = lineage_layers(text)
    assert layers == lineage_layers(small_text)
    assert max(layers.values()) <= MAX_LINEAGE_LAYERS

    # Each manifest, .repos file and source root lands where a COPY of its own put it.
    names = {p.source_dir: p.name for p in packages}
    assert _landings(text, "dependencies") == {
        **{
            "package.xml" if rel == "." else f"{rel}/package.xml": f"{_below_ws(rel, name)}/package.xml"
            for rel, name in names.items()
        },
        **{name: f"/ws/{name}" for name in workspace["repos"]},
    }
    roots = {rel.split("/")[0]: name for rel, name in names.items()}
    dev = _landings(text, "dev")
    assert dev == {f"{root}/": f"{_below_ws(root, name)}/" for root, name in roots.items()}

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
    copied = [src for name, stage in plan.stages.items() for i in stage
              if isinstance(i, CopyContext) and name != "dev" for src in i.srcs]
    assert all(admits(src) for src in copied), copied

    # dev holds each live package's files where a per-package copy put them.
    expected = {
        f"{_below_ws(rel, names[rel])}/{name if rel == '.' else name[len(rel) + 1:]}"
        for name, rel in owner.items()
    }
    held = {
        dst + name[len(src) if src != "./" else 0:]
        for src, dst in dev.items() for name in admitted if src == "./" or name.startswith(src)
    }
    assert held == expected


def test_a_flat_workspace_of_200_packages_stays_under_the_layer_bound(tmp_path) -> None:
    # Each package a top-level directory, as when a repository is the workspace.
    for index in range(200):
        (tmp_path / f"pkg_{index:03}").mkdir()
        (tmp_path / f"pkg_{index:03}" / "package.xml").write_text(
            _manifest(f"pkg_{index:03}"), encoding="utf-8"
        )
    code, text, err = _forge(["generate", "dockerfile", str(tmp_path), "-o", "-"])
    assert code == 0, err
    assert dockerfile_problems(text) == []
    assert lineage_layers(text) == {
        "base": 1, "dependencies": 3, "dependencies-install": 3, "dev": 7, "build": 8, "run": 4,
    }
    assert _landings(text, "dev") == {
        f"pkg_{index:03}/": f"/ws/src/pkg_{index:03}/" for index in range(200)
    }
    assert max(len(line) for line in text.splitlines() if "pkg_" in line) < 40


def test_the_largest_plan_stays_under_the_layer_bound(tmp_path, multi_repo_analysis) -> None:
    # Every option that adds a layer: custom scripts, credentials, slim
    # runtime with build-only packages of both managers, a non-root run,
    # and packages below src/ and below another top-level directory.
    for name in ("pre.sh", "post.sh"):
        (tmp_path / name).write_text("true\n", encoding="utf-8")
    build_only = _NO_DEPS._replace(system_pkgs=("libfoo-dev",), python_pkgs=("foo",))
    spec = ImageSpec(
        ros_distro="humble", target="run",
        packages=(PackageManifest("core", source_dir="src/core"), PackageManifest("tool", source_dir="tools/tool")),
        repos_files=("deps.repos",), source_repos=multi_repo_analysis.repos,
        custom_script_pre="pre.sh", custom_script_post="post.sh",
        slim_runtime=True, nonroot_run=True, extra_apt=("curl",), extra_pip=("requests",),
    )
    plan = plan_stages(spec, build_only, _NO_DEPS, tmp_path)
    text = render(plan)
    assert "ARG GIT_TOKEN" in text and "USER ros" in stage_text(text, "run")
    assert validate_plan(plan) == []
    assert max(lineage_layers(text).values()) == lineage_layers(text)["build"] == 18
