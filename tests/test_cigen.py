"""CI pipeline generation for both hosting platforms."""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dockerfile_syntax import shell_words
from pipeline_graph import job_graph

from forge import TARGETS
from forge.cigen import (
    _GITLAB_LOGIN,
    TEST_HOOK,
    PipelineSpec,
    default_output_path,
    generate_pipeline,
)
from forge.cli import main


def spec(**kwargs) -> PipelineSpec:
    defaults = dict(
        platform="github",
        image_name="robot-stack",
        registry="registry.example.com/group",
    )
    defaults.update(kwargs)
    return PipelineSpec(**defaults)


def forge_ci(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``forge generate ci -o -``, with ``argv`` last."""

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["generate", "ci", "--platform", "github", "--image-name", "robot-stack",
                     "-o", "-", *argv])
    return code, out.getvalue(), err.getvalue()


def assert_acyclic(graph: dict[str, list[str]]) -> None:
    seen: dict[str, int] = {}

    def visit(node: str) -> None:
        state = seen.get(node, 0)
        assert state != 1, f"cycle through {node}"
        if state == 2:
            return
        seen[node] = 1
        for dep in graph.get(node, []):
            assert dep in graph, f"{node} needs unknown job {dep}"
            visit(dep)
        seen[node] = 2

    for node in graph:
        visit(node)


def transitive_needs(graph: dict[str, list[str]], node: str) -> set[str]:
    out: set[str] = set()
    frontier = list(graph.get(node, []))
    while frontier:
        dep = frontier.pop()
        if dep not in out:
            out.add(dep)
            frontier.extend(graph.get(dep, []))
    return out


@pytest.mark.parametrize("platform", ["github", "gitlab"])
def test_pipeline_parses_as_yaml(platform: str) -> None:
    text = generate_pipeline(spec(platform=platform))
    doc = yaml.safe_load(text)
    assert isinstance(doc, dict)


@pytest.mark.parametrize("platform", ["github", "gitlab"])
@pytest.mark.parametrize("platforms", [("amd64",), ("amd64", "arm64")])
def test_graph_acyclic_and_push_covers_builds(
    platform: str, platforms: tuple[str, ...]
) -> None:
    text = generate_pipeline(spec(platform=platform, platforms=platforms))
    graph = job_graph(text)
    assert_acyclic(graph)
    push_jobs = [name for name in graph if name.startswith("push")]
    assert push_jobs
    build_jobs = {name for name in graph if name.startswith("build-")}
    assert build_jobs == {
        f"build-{stage}-{arch}" for stage in TARGETS for arch in platforms
    }
    for push in push_jobs:
        assert build_jobs <= transitive_needs(graph, push)


@pytest.mark.parametrize("platform", ["github", "gitlab"])
def test_merge_jobs_only_for_multi_platform(platform: str) -> None:
    single = job_graph(generate_pipeline(spec(platform=platform)))
    assert not any(name.startswith("merge-") for name in single)
    multi = job_graph(
        generate_pipeline(spec(platform=platform, platforms=("amd64", "arm64")))
    )
    assert {"merge-dev", "merge-run"} <= set(multi)
    for stage in TARGETS:
        assert set(multi[f"merge-{stage}"]) == {
            f"build-{stage}-amd64",
            f"build-{stage}-arm64",
        }


@pytest.mark.parametrize("platform", ["github", "gitlab"])
def test_test_job_sits_between_build_and_merge(platform: str) -> None:
    text = generate_pipeline(
        spec(platform=platform, platforms=("amd64", "arm64"), enable_test_stage=True)
    )
    graph = job_graph(text)
    assert "test" in graph
    assert any(dep.startswith("build-dev-") for dep in graph["test"])
    assert "test" in transitive_needs(graph, "merge-dev")
    assert "test" in transitive_needs(graph, "push")
    assert "catkin_make_isolated" in text
    assert "colcon test" in text


@pytest.mark.parametrize(
    ("ros_version", "calls"),
    [
        (
            "1",
            ["catkin_make_isolated --catkin-make-args run_tests", "catkin_test_results build_isolated"],
        ),
        ("2", ["colcon build", "colcon test", "colcon test-result --verbose"]),
    ],
)
def test_test_hook_picks_the_build_tool_by_ros_version(tmp_path, ros_version, calls) -> None:
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for tool in ("catkin_make_isolated", "catkin_test_results", "colcon"):
        stub = bin_dir / tool
        stub.write_text(f'#!/bin/sh\necho {tool} "$@" >> "{tmp_path}/calls"\n')
        stub.chmod(0o755)
    setup = tmp_path / "setup.sh"
    setup.write_text(f"ROS_VERSION={ros_version}\n")
    hook = TEST_HOOK.replace("/opt/ros/$ROS_DISTRO/setup.sh", str(setup))
    hook = hook.replace("cd /ws ", f"cd {tmp_path} ")
    assert str(setup) in hook and f"cd {tmp_path} " in hook
    subprocess.run(["/bin/sh", "-c", hook], check=True, env={"PATH": f"{bin_dir}:/usr/bin:/bin"})
    assert (tmp_path / "calls").read_text().splitlines() == calls


def test_test_stage_requires_dev_target() -> None:
    message = "the test stage runs the dev image; include dev in targets"
    assert forge_ci("--enable-test", "--targets", "run") == (
        2, "", f"forge: error: InvalidSpec: {message}\n"
    )


def test_github_uses_secret_references_only() -> None:
    text = generate_pipeline(spec(platform="github"))
    assert "${{ secrets.REGISTRY_USERNAME }}" in text
    assert "${{ secrets.REGISTRY_PASSWORD }}" in text
    doc = yaml.safe_load(text)
    push = doc["jobs"]["push"]
    assert push["if"] == "github.ref == 'refs/heads/main'"


def test_github_triggers_on_all_branches() -> None:
    doc = yaml.safe_load(generate_pipeline(spec(platform="github")))
    # YAML parses the bare key `on` as boolean true.
    trigger = doc.get("on") or doc.get(True)
    assert trigger["push"]["branches"] == ["**"]


def test_gitlab_uses_ci_variables_and_branch_rule() -> None:
    text = generate_pipeline(spec(platform="gitlab", push_on_branch="release"))
    assert "$CI_REGISTRY_USER" in text
    assert "$CI_REGISTRY_PASSWORD" in text
    doc = yaml.safe_load(text)
    push = doc["push"]
    rules = push["rules"]
    assert rules[0]["if"] == '$CI_COMMIT_BRANCH == "release"'
    assert "stages" in doc


def test_jobs_invoke_the_cli() -> None:
    for platform in ("github", "gitlab"):
        text = generate_pipeline(spec(platform=platform))
        assert "forge build . --target dev" in text
        assert "forge build . --target run" in text
        assert "--push" in text


def test_base_image_forwarded() -> None:
    text = generate_pipeline(spec(base_image="ubuntu:22.04"))
    assert "--base ubuntu:22.04" in text


def test_generation_deterministic() -> None:
    for platform in ("github", "gitlab"):
        configuration = spec(platform=platform, platforms=("amd64", "arm64"))
        assert generate_pipeline(configuration) == generate_pipeline(configuration)


def test_default_output_paths() -> None:
    assert default_output_path("github") == ".github/workflows/forge.yml"
    assert default_output_path("gitlab") == ".gitlab-ci.yml"


def test_tag_grammar_in_output() -> None:
    text = generate_pipeline(spec(platforms=("amd64", "arm64")))
    assert "registry.example.com/group/robot-stack:dev-amd64" in text
    assert "registry.example.com/group/robot-stack:dev-candidate" in text
    assert "registry.example.com/group/robot-stack:dev " in text or (
        "registry.example.com/group/robot-stack:dev\n" in text
    )


# Characters git treats specially in a branch name, quotes and ordinary ones.
_BRANCH_TEXT = st.text(alphabet=list("ab./-@{}~^:?*[\\'\" \tHEADlock\x7f\x01\u00e9"), max_size=10)
_BRANCH_EDGES = [
    "HEAD", "@", "a.lock", "a.lock/b", ".a", "a/.b", "a..b", "-a", "a/", "/a", "a.", "a//b",
    "x/HEAD", "feature/x-1", "r\u00e9sum\u00e9", "x' || true || '", 'x" || "1',
]


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
@settings(max_examples=200, deadline=None)
@given(_BRANCH_TEXT | st.sampled_from(_BRANCH_EDGES))
def test_a_push_branch_is_a_git_branch_name_without_quotes(tmp_path_factory, branch: str) -> None:
    git = subprocess.run(
        ["git", "check-ref-format", "--branch", branch],
        cwd=tmp_path_factory.getbasetemp(), capture_output=True, check=False,
    )
    # git reads @{...} as a reflog expression; forge takes none of them.
    valid = git.returncode == 0 and not {"'", '"'} & set(branch) and "@{" not in branch
    code, out, err = forge_ci("--platform=gitlab", f"--push-branch={branch}")
    if valid:
        assert code == 0, err
        rule = yaml.safe_load(out)["push"]["rules"][0]["if"]
        assert rule == f'$CI_COMMIT_BRANCH == "{branch}"'
    else:
        assert (code, out) == (2, "")
        assert err.startswith("forge: error: InvalidSpec: ") and repr(branch) in err, err


def test_a_quote_in_the_push_branch_cannot_widen_the_condition() -> None:
    code, out, err = forge_ci("--push-branch", "x' || true || '")
    assert (code, out) == (2, "") and "not a git branch name" in err


_PRINTABLE = st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40)


@st.composite
def pipeline_specs(draw: st.DrawFn) -> PipelineSpec:
    """Specs generate_pipeline accepts, every value printable ASCII."""

    targets = draw(st.lists(st.sampled_from(TARGETS), min_size=1, unique=True))
    return PipelineSpec(
        platform=draw(st.sampled_from(("github", "gitlab"))),
        image_name=draw(st.from_regex(r"[a-z0-9][a-z0-9_.\-/]{0,30}", fullmatch=True)),
        registry=draw(_PRINTABLE.filter(bool)),
        platforms=tuple(draw(st.lists(st.sampled_from(("amd64", "arm64")), min_size=1, unique=True))),
        enable_test_stage="dev" in targets and draw(st.booleans()),
        push_on_branch=draw(
            st.from_regex(r"[a-z0-9]{1,12}(?:[/_-][a-z0-9]{1,12}){0,4}", fullmatch=True)
        ),
        base_image=draw(_PRINTABLE),
        target_stages=tuple(targets),
    )


@settings(max_examples=200, deadline=None)
@given(pipeline_specs())
def test_a_pipeline_is_written_as_the_pure_python_emitter_writes_it(pipeline: PipelineSpec) -> None:
    text = generate_pipeline(pipeline)
    document = yaml.safe_load(text)
    assert text == yaml.safe_dump(document, sort_keys=False, default_flow_style=False, width=120)


def _engine_commands(pipeline: PipelineSpec) -> list[list[str]]:
    """The words of each command the pipeline's jobs run besides their setup, in job order."""

    def tag(suffix: str) -> str:
        return f"{pipeline.registry}/{pipeline.image_name}:{suffix}"

    stages = [stage for stage in TARGETS if stage in pipeline.target_stages]
    base = ["--base", pipeline.base_image] if pipeline.base_image else []
    commands = [
        ["forge", "build", ".", "--target", stage, "--platform", arch, *base,
         "--tag", tag(f"{stage}-{arch}"), "--push"]
        for stage in stages for arch in pipeline.platforms
    ]
    if pipeline.enable_test_stage:
        image = tag(f"dev-{pipeline.platforms[0]}")
        commands.append(["docker", "run", "--rm", image, "/bin/sh", "-c", TEST_HOOK])
    create = ["docker", "buildx", "imagetools", "create", "--tag"]
    published = {stage: tag(f"{stage}-{pipeline.platforms[0]}") for stage in stages}
    if len(pipeline.platforms) > 1:
        for stage in stages:
            published[stage] = tag(f"{stage}-candidate")
            arch_tags = [tag(f"{stage}-{arch}") for arch in pipeline.platforms]
            commands.append([*create, published[stage], *arch_tags])
    return commands + [[*create, tag(stage), published[stage]] for stage in stages]


_SETUP = {
    "python3 -m pip install forge", "apk add --no-cache python3 py3-pip", "pip3 install forge",
    _GITLAB_LOGIN,
}


@settings(max_examples=200, deadline=None)
@given(pipeline_specs())
@example(spec(registry="[::1]:5000", platforms=("amd64", "arm64"), enable_test_stage=True))
@example(spec(registry="[::1]:5000", platform="gitlab"))
def test_every_ci_command_runs_the_words_it_was_built_from(pipeline: PipelineSpec) -> None:
    document = yaml.safe_load(generate_pipeline(pipeline))
    if pipeline.platform == "github":
        lines = [step["run"] for job in document["jobs"].values() for step in job["steps"]
                 if "run" in step]
    else:
        lines = [line for job in document.values() if isinstance(job, dict) and "script" in job
                 for line in job["script"]]
    read = [shell_words(line) for line in lines if line not in _SETUP]
    assert read == _engine_commands(pipeline)
