"""The golden corpus: names mapped to generator calls.

Shared by the golden test (byte comparison) and scripts/regen_goldens.py
(rewrite after an intentional output change).
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
from typing import Callable

from forge import TARGETS
from forge.cigen import PipelineSpec, generate_pipeline
from forge.cli import main
from forge.dockergen import DockerfilePlan, plan_stages, render, render_dockerignore
from forge.matrix import build_plan_document, enumerate_matrix, load_base_image_table

from conftest import FIXTURE_ROOT, analysis_for, image_spec


def _plan(fixture: str, distro: str, **spec_kwargs) -> DockerfilePlan:
    analysis = analysis_for(fixture, distro=distro)
    spec = image_spec(analysis, **spec_kwargs)
    return plan_stages(spec, analysis.resolved, analysis.resolved_exec, analysis.root)


def minimal_dev() -> DockerfilePlan:
    return _plan("minimal", "humble", target="dev")


def minimal_run() -> DockerfilePlan:
    return _plan("minimal", "humble", target="run", launch_command=("hello",))


def multi_repo_run_slim() -> DockerfilePlan:
    return _plan(
        "multi_repo",
        "humble",
        target="run",
        repos_files=("deps.repos",),
        slim_runtime=True,
        launch_command=("ros2", "launch", "nav_core", "bringup.launch.py"),
    )


def catkin_noetic_run() -> DockerfilePlan:
    return _plan(
        "catkin_noetic",
        "noetic",
        target="run",
        launch_command=("roslaunch", "drive_base", "base.launch"),
    )


def _ci_spec(platform: str) -> PipelineSpec:
    return PipelineSpec(
        platform=platform,
        image_name="robot-stack",
        registry="registry.example.com/acme",
        platforms=("amd64", "arm64"),
        enable_test_stage=True,
    )


def ci_github() -> str:
    return generate_pipeline(_ci_spec("github"))


def ci_gitlab() -> str:
    return generate_pipeline(_ci_spec("gitlab"))


def _ci_grid_specs() -> list[PipelineSpec]:
    """Both platforms x one or two arches x test on/off x target sets.

    Multi-arch specs without a test job build from a custom base image and
    GitLab specs with a test job push from a release branch, so both of
    those inputs appear in the grid too.
    """

    specs = []
    for platform in ("github", "gitlab"):
        for arches in (("amd64",), ("amd64", "arm64")):
            for test in (False, True):
                for targets in (("dev",), ("run",), TARGETS):
                    if test and "dev" not in targets:
                        continue
                    specs.append(
                        PipelineSpec(
                            platform=platform,
                            image_name="robot-stack",
                            registry="registry.example.com/acme",
                            platforms=arches,
                            enable_test_stage=test,
                            push_on_branch="release" if test and platform == "gitlab" else "main",
                            base_image="ros:humble-ros-base" if len(arches) > 1 and not test else "",
                            target_stages=targets,
                        )
                    )
    return specs


def ci_grid() -> str:
    parts = []
    for spec in _ci_grid_specs():
        parts.append(
            f"# {spec.platform} platforms={','.join(spec.platforms)} "
            f"test={spec.enable_test_stage} targets={','.join(spec.target_stages)} "
            f"base={spec.base_image or '-'} branch={spec.push_on_branch}\n"
        )
        parts.append(generate_pipeline(spec))
    return "".join(parts)


def _forge(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``forge argv``, run beside the fixture workspaces.

    argparse wraps help text at ``$COLUMNS``, so it is pinned to 80.
    """

    out, err = io.StringIO(), io.StringIO()
    columns, cwd = os.environ.get("COLUMNS"), os.getcwd()
    os.environ["COLUMNS"] = "80"
    os.chdir(FIXTURE_ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


def analyze_multi_repo() -> str:
    code, out, err = _forge(["analyze", "multi_repo", "--format", "yaml", "--dry-run"])
    assert (code, err) == (0, ""), err
    return out


def matrix_plan_humble() -> str:
    """What ``matrix build --distro humble --plan-out PATH`` writes to PATH."""

    entries = enumerate_matrix(["humble"], None, None, None)
    return build_plan_document(
        entries, "localhost", "Dockerfile.base-matrix", load_base_image_table()
    )


def matrix_list_humble_core() -> str:
    code, out, err = _forge(
        ["matrix", "list", "--distro", "humble", "--component", "core", "--format", "yaml"]
    )
    assert (code, err) == (0, ""), err
    return out


# Every parser's help, an unknown subcommand, a missing required option, and
# an option before the subcommand that takes it.
_PARSER_ARGVS = (
    ["-h"],
    ["generate", "-h"],
    ["analyze", "-h"],
    ["generate", "dockerfile", "-h"],
    ["generate", "ci", "-h"],
    ["build", "-h"],
    ["matrix", "-h"],
    ["matrix", "list", "-h"],
    ["matrix", "build", "-h"],
    ["run", "-h"],
    ["bench", "-h"],
    ["bench", "startup", "-h"],
    ["deploy", "ws"],
    ["generate", "ci", "--platform", "github"],
    ["generate", "--dry-run", "ci", "--platform", "github", "--image-name", "app"],
)


def cli_parser() -> str:
    parts = []
    for argv in _PARSER_ARGVS:
        code, out, err = _forge(argv)
        parts.append(
            f"$ forge {shlex.join(argv)}\n# exit {code}\n# stdout\n{out}# stderr\n{err}"
        )
    return "".join(parts)


# Each planned image gives a Dockerfile golden and, beside it, its ignore file.
_PLANS = (minimal_dev, minimal_run, multi_repo_run_slim, catkin_noetic_run)

CASES: dict[str, Callable[[], str]] = {
    **{f"{plan.__name__}.Dockerfile": (lambda plan=plan: render(plan())) for plan in _PLANS},
    **{
        f"{plan.__name__}.dockerignore": (lambda plan=plan: render_dockerignore(plan(), ""))
        for plan in _PLANS
    },
    "ci_github.yml": ci_github,
    "ci_gitlab.yml": ci_gitlab,
    "ci_grid.yml": ci_grid,
    "analyze_multi_repo.yml": analyze_multi_repo,
    "matrix_plan_humble.yml": matrix_plan_humble,
    "matrix_list_humble_core.yml": matrix_list_humble_core,
    "cli_parser.txt": cli_parser,
}
