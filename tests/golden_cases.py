"""The golden corpus: names mapped to generator calls.

Shared by the golden test (byte comparison) and scripts/regen_goldens.py
(rewrite after an intentional output change).
"""

from __future__ import annotations

from typing import Callable

from forge import TARGETS
from forge.cigen import PipelineSpec, generate_pipeline
from forge.dockergen import plan_stages, render

from conftest import analysis_for, image_spec


def _dockerfile(fixture: str, distro: str, **spec_kwargs) -> str:
    analysis = analysis_for(fixture, distro=distro)
    spec = image_spec(analysis, **spec_kwargs)
    return render(plan_stages(spec, analysis.resolved, analysis.resolved_exec, analysis.root))


def minimal_dev() -> str:
    return _dockerfile("minimal", "humble", target="dev")


def minimal_run() -> str:
    return _dockerfile("minimal", "humble", target="run", launch_command=("hello",))


def multi_repo_run_slim() -> str:
    return _dockerfile(
        "multi_repo",
        "humble",
        target="run",
        repos_files=("deps.repos",),
        slim_runtime=True,
        launch_command=("ros2", "launch", "nav_core", "bringup.launch.py"),
    )


def catkin_noetic_run() -> str:
    return _dockerfile(
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


CASES: dict[str, Callable[[], str]] = {
    "minimal_dev.Dockerfile": minimal_dev,
    "minimal_run.Dockerfile": minimal_run,
    "multi_repo_run_slim.Dockerfile": multi_repo_run_slim,
    "catkin_noetic_run.Dockerfile": catkin_noetic_run,
    "ci_github.yml": ci_github,
    "ci_gitlab.yml": ci_gitlab,
    "ci_grid.yml": ci_grid,
}
