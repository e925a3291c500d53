"""CI pipeline generation for GitHub Actions and GitLab CI.

One PipelineSpec fans out to a build job per target stage and
platform, an optional test job running the workspace tests inside the
development image, a manifest merge job per stage for multi-platform
builds, and a branch-gated push job publishing the final tags. Generated
jobs call this tool's own CLI so local and CI builds share one code path.

Registry credentials are referenced through each platform's native secret
mechanism and never inlined.
"""

from __future__ import annotations

import shlex
from typing import NamedTuple

from . import TARGETS
from .textio import dump_yaml

# The workspace tests inside the development image. The ROS setup script
# sets ROS_VERSION, so ROS 1 images test with catkin and ROS 2 with colcon.
TEST_HOOK = (
    '. /opt/ros/$ROS_DISTRO/setup.sh && cd /ws && if [ "$ROS_VERSION" = 1 ]; then '
    "catkin_make_isolated --catkin-make-args run_tests && catkin_test_results build_isolated; "
    "else colcon build && colcon test && colcon test-result --verbose; fi"
)


class PipelineSpec(NamedTuple):
    """What to generate, as the command line checked it: platform, image, matrix, gating."""

    platform: str
    image_name: str
    registry: str
    platforms: tuple[str, ...] = ("amd64",)
    enable_test_stage: bool = False
    push_on_branch: str = "main"
    base_image: str = ""
    target_stages: tuple[str, ...] = TARGETS


def default_output_path(platform: str) -> str:
    """Where ``platform`` (``github`` or ``gitlab``) reads its pipeline file."""

    return ".github/workflows/forge.yml" if platform == "github" else ".gitlab-ci.yml"


def _tag(spec: PipelineSpec, suffix: str) -> str:
    return f"{spec.registry}/{spec.image_name}:{suffix}"


def _forge_build_command(spec: PipelineSpec, stage: str, arch: str) -> str:
    parts = ["forge", "build", ".", "--target", stage, "--platform", arch]
    if spec.base_image:
        parts += ["--base", spec.base_image]
    parts += ["--tag", _tag(spec, f"{stage}-{arch}"), "--push"]
    return shlex.join(parts)


def _imagetools_create(target: str, *sources: str) -> str:
    return shlex.join(["docker", "buildx", "imagetools", "create", "--tag", target, *sources])


class Job(NamedTuple):
    """One platform-neutral CI job.

    ``stage`` is ``build``, ``test``, ``merge`` or ``push``; the emitters
    add each platform's setup steps for it. The push job is the only one
    gated on ``PipelineSpec.push_on_branch``.
    """

    name: str
    stage: str
    needs: tuple[str, ...]
    commands: tuple[str, ...]
    arch: str = "amd64"


def _jobs(spec: PipelineSpec) -> list[Job]:
    """The build -> test -> merge -> push graph, in emission order."""

    stages = [stage for stage in TARGETS if stage in spec.target_stages]
    jobs = [
        Job(f"build-{stage}-{arch}", "build", (), (_forge_build_command(spec, stage, arch),), arch)
        for stage in stages
        for arch in spec.platforms
    ]
    last_layer = tuple(job.name for job in jobs)

    if spec.enable_test_stage:
        image = _tag(spec, f"dev-{spec.platforms[0]}")
        test = shlex.join(["docker", "run", "--rm", image, "/bin/sh", "-c", TEST_HOOK])
        jobs.append(Job("test", "test", last_layer, (test,)))
        last_layer = ("test",)

    # What push publishes per stage: the merged candidate, or the only arch.
    published = {stage: _tag(spec, f"{stage}-{spec.platforms[0]}") for stage in stages}
    if len(spec.platforms) > 1:
        for stage in stages:
            published[stage] = _tag(spec, f"{stage}-candidate")
            arch_tags = [_tag(spec, f"{stage}-{arch}") for arch in spec.platforms]
            merge = _imagetools_create(published[stage], *arch_tags)
            builds = tuple(f"build-{stage}-{arch}" for arch in spec.platforms)
            needs = ("test",) if spec.enable_test_stage else builds
            jobs.append(Job(f"merge-{stage}", "merge", needs, (merge,)))
        last_layer = tuple(f"merge-{stage}" for stage in stages)

    publish = tuple(_imagetools_create(_tag(spec, stage), published[stage]) for stage in stages)
    jobs.append(Job("push", "push", last_layer, publish))
    return jobs


def generate_pipeline(spec: PipelineSpec) -> str:
    """Render the pipeline configuration as YAML text.

    Output is byte-deterministic for equal inputs and round-trips
    through a YAML parser.
    """

    emit = _github_document if spec.platform == "github" else _gitlab_document
    document = emit(spec, _jobs(spec))
    return dump_yaml(document, sort_keys=False, width=120)


# --- GitHub Actions --------------------------------------------------------


def _github_login_step(spec: PipelineSpec) -> dict[str, object]:
    registry_host = spec.registry.split("/", 1)[0]
    return {
        "uses": "docker/login-action@v3",
        "with": {
            "registry": registry_host,
            "username": "${{ secrets.REGISTRY_USERNAME }}",
            "password": "${{ secrets.REGISTRY_PASSWORD }}",
        },
    }


def _github_job(spec: PipelineSpec, job: Job) -> dict[str, object]:
    # Every step dict is new: one shared between jobs would make dump_yaml
    # emit YAML anchors and aliases.
    steps: list[dict[str, object]] = []
    if job.stage == "build":
        steps.append({"uses": "actions/checkout@v4"})
        if job.arch != "amd64":
            steps.append({"uses": "docker/setup-qemu-action@v3"})
    if job.stage != "test":
        steps.append({"uses": "docker/setup-buildx-action@v3"})
    steps.append(_github_login_step(spec))
    if job.stage == "build":
        steps.append({"run": "python3 -m pip install forge"})
    steps += [{"run": command} for command in job.commands]

    body: dict[str, object] = {"runs-on": "ubuntu-latest"}
    if job.stage == "push":
        body["if"] = f"github.ref == 'refs/heads/{spec.push_on_branch}'"
    if job.needs:
        body["needs"] = list(job.needs)
    body["steps"] = steps
    return body


def _github_document(spec: PipelineSpec, jobs: list[Job]) -> dict[str, object]:
    return {
        "name": "forge",
        "on": {"push": {"branches": ["**"]}},
        "jobs": {job.name: _github_job(spec, job) for job in jobs},
    }


# --- GitLab CI -------------------------------------------------------------

_GITLAB_LOGIN = 'docker login -u "$CI_REGISTRY_USER" -p "$CI_REGISTRY_PASSWORD" "$CI_REGISTRY"'


def _gitlab_job(spec: PipelineSpec, job: Job) -> dict[str, object]:
    script = [_GITLAB_LOGIN]
    if job.stage == "build":
        script += ["apk add --no-cache python3 py3-pip", "pip3 install forge"]
    script += job.commands

    body: dict[str, object] = {"stage": job.stage, "needs": list(job.needs)}
    if job.stage == "push":
        body["rules"] = [{"if": f'$CI_COMMIT_BRANCH == "{spec.push_on_branch}"'}]
    body["script"] = script
    return body


def _gitlab_document(spec: PipelineSpec, jobs: list[Job]) -> dict[str, object]:
    document: dict[str, object] = {
        "stages": list(dict.fromkeys(job.stage for job in jobs)),
        "default": {
            "image": "docker:24.0",
            "services": ["docker:24.0-dind"],
        },
    }
    for job in jobs:
        document[job.name] = _gitlab_job(spec, job)
    return document
