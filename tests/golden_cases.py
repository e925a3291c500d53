"""The golden corpus: names mapped to generator calls.

Shared by the golden test (byte comparison) and scripts/regen_goldens.py
(rewrite after an intentional output change).
"""

from __future__ import annotations

from typing import Callable

from forge import TARGETS
from forge.cigen import PipelineSpec, generate_pipeline
from forge.dockergen import DockerfilePlan, plan_stages, render, render_dockerignore

from conftest import analysis_for, image_spec


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
}
