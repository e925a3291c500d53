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

import re
from dataclasses import dataclass

import yaml

from .errors import InvalidSpec
from .textio import safe_load

_IMAGE_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_.\-/]*$")

TEST_HOOK = (
    '. /opt/ros/$ROS_DISTRO/setup.sh && cd /ws && '
    "colcon build && colcon test && colcon test-result --verbose"
)


@dataclass(frozen=True)
class PipelineSpec:
    """What to generate: platform, image coordinates, matrix, gating."""

    platform: str
    image_name: str
    registry: str
    platforms: tuple[str, ...] = ("amd64",)
    enable_test_stage: bool = False
    push_on_branch: str = "main"
    base_image: str = ""
    target_stages: tuple[str, ...] = ("dev", "run")


def default_output_path(platform: str) -> str:
    if platform == "github":
        return ".github/workflows/forge.yml"
    if platform == "gitlab":
        return ".gitlab-ci.yml"
    raise InvalidSpec(f"unknown CI platform {platform!r}")


def _check_spec(spec: PipelineSpec) -> None:
    if spec.platform not in ("github", "gitlab"):
        raise InvalidSpec(f"unknown CI platform {spec.platform!r}")
    if not spec.image_name or not _IMAGE_NAME_RE.match(spec.image_name):
        raise InvalidSpec(f"invalid image name {spec.image_name!r}")
    if not spec.registry:
        raise InvalidSpec("registry must be non-empty")
    if not spec.platforms:
        raise InvalidSpec("at least one platform is required")
    for platform in spec.platforms:
        if platform not in ("amd64", "arm64"):
            raise InvalidSpec(f"unsupported build platform {platform!r}")
    if not spec.target_stages:
        raise InvalidSpec("at least one target stage is required")
    for stage in spec.target_stages:
        if stage not in ("dev", "run"):
            raise InvalidSpec(f"unsupported target stage {stage!r}")
    if spec.enable_test_stage and "dev" not in spec.target_stages:
        raise InvalidSpec("the test stage runs the dev image; include dev in targets")
    if not spec.push_on_branch:
        raise InvalidSpec("push_on_branch must be non-empty")


def _ordered_stages(spec: PipelineSpec) -> list[str]:
    order = [s for s in ("dev", "run") if s in spec.target_stages]
    return order


def _image_base(spec: PipelineSpec) -> str:
    return f"{spec.registry}/{spec.image_name}"


def _arch_tag(spec: PipelineSpec, stage: str, arch: str) -> str:
    return f"{_image_base(spec)}:{stage}-{arch}"


def _candidate_tag(spec: PipelineSpec, stage: str) -> str:
    return f"{_image_base(spec)}:{stage}-candidate"


def _final_tag(spec: PipelineSpec, stage: str) -> str:
    return f"{_image_base(spec)}:{stage}"


def _build_jobs(spec: PipelineSpec) -> list[tuple[str, str, str]]:
    """(job name, stage, arch) triples in canonical order."""

    return [
        (f"build-{stage}-{arch}", stage, arch)
        for stage in _ordered_stages(spec)
        for arch in spec.platforms
    ]


def _merge_needed(spec: PipelineSpec) -> bool:
    return len(spec.platforms) > 1


def _forge_build_command(spec: PipelineSpec, stage: str, arch: str) -> str:
    parts = ["forge", "build", ".", "--target", stage, "--platform", arch]
    if spec.base_image:
        parts += ["--base", spec.base_image]
    parts += ["--tag", _arch_tag(spec, stage, arch), "--push"]
    return " ".join(parts)


def _merge_command(spec: PipelineSpec, stage: str) -> str:
    sources = " ".join(_arch_tag(spec, stage, arch) for arch in spec.platforms)
    return (
        "docker buildx imagetools create --tag "
        f"{_candidate_tag(spec, stage)} {sources}"
    )


def _push_commands(spec: PipelineSpec) -> list[str]:
    commands = []
    for stage in _ordered_stages(spec):
        if _merge_needed(spec):
            source = _candidate_tag(spec, stage)
        else:
            source = _arch_tag(spec, stage, spec.platforms[0])
        commands.append(
            f"docker buildx imagetools create --tag {_final_tag(spec, stage)} {source}"
        )
    return commands


def generate_pipeline(spec: PipelineSpec) -> str:
    """Render the pipeline configuration as YAML text.

    Output is byte-deterministic for equal inputs and round-trips
    through a YAML parser.
    """

    _check_spec(spec)
    if spec.platform == "github":
        return _generate_github(spec)
    return _generate_gitlab(spec)


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


def _generate_github(spec: PipelineSpec) -> str:
    build_jobs = _build_jobs(spec)
    build_names = [name for name, _, _ in build_jobs]
    jobs: dict[str, object] = {}

    for name, stage, arch in build_jobs:
        steps: list[object] = [{"uses": "actions/checkout@v4"}]
        if arch != "amd64":
            steps.append({"uses": "docker/setup-qemu-action@v3"})
        steps.append({"uses": "docker/setup-buildx-action@v3"})
        steps.append(_github_login_step(spec))
        steps.append({"run": "python3 -m pip install forge"})
        steps.append({"run": _forge_build_command(spec, stage, arch)})
        jobs[name] = {"runs-on": "ubuntu-latest", "steps": steps}

    last_layer = list(build_names)

    if spec.enable_test_stage:
        jobs["test"] = {
            "runs-on": "ubuntu-latest",
            "needs": list(build_names),
            "steps": [
                _github_login_step(spec),
                {
                    "run": "docker run --rm "
                    + _arch_tag(spec, "dev", spec.platforms[0])
                    + f" /bin/sh -c '{TEST_HOOK}'"
                },
            ],
        }
        last_layer = ["test"]

    if _merge_needed(spec):
        merge_names = []
        for stage in _ordered_stages(spec):
            name = f"merge-{stage}"
            needs = (
                ["test"]
                if spec.enable_test_stage
                else [f"build-{stage}-{arch}" for arch in spec.platforms]
            )
            jobs[name] = {
                "runs-on": "ubuntu-latest",
                "needs": needs,
                "steps": [
                    {"uses": "docker/setup-buildx-action@v3"},
                    _github_login_step(spec),
                    {"run": _merge_command(spec, stage)},
                ],
            }
            merge_names.append(name)
        last_layer = merge_names

    jobs["push"] = {
        "runs-on": "ubuntu-latest",
        "if": f"github.ref == 'refs/heads/{spec.push_on_branch}'",
        "needs": list(last_layer),
        "steps": [
            {"uses": "docker/setup-buildx-action@v3"},
            _github_login_step(spec),
            *({"run": command} for command in _push_commands(spec)),
        ],
    }

    document = {
        "name": "forge",
        "on": {"push": {"branches": ["**"]}},
        "jobs": jobs,
    }
    return yaml.safe_dump(document, sort_keys=False, default_flow_style=False, width=120)


# --- GitLab CI -------------------------------------------------------------

_GITLAB_LOGIN = 'docker login -u "$CI_REGISTRY_USER" -p "$CI_REGISTRY_PASSWORD" "$CI_REGISTRY"'


def _generate_gitlab(spec: PipelineSpec) -> str:
    build_jobs = _build_jobs(spec)
    build_names = [name for name, _, _ in build_jobs]
    stages = ["build"]
    if spec.enable_test_stage:
        stages.append("test")
    if _merge_needed(spec):
        stages.append("merge")
    stages.append("push")

    document: dict[str, object] = {
        "stages": stages,
        "default": {
            "image": "docker:24.0",
            "services": ["docker:24.0-dind"],
        },
    }

    for name, stage, arch in build_jobs:
        document[name] = {
            "stage": "build",
            "needs": [],
            "script": [
                _GITLAB_LOGIN,
                "apk add --no-cache python3 py3-pip",
                "pip3 install forge",
                _forge_build_command(spec, stage, arch),
            ],
        }

    last_layer = list(build_names)

    if spec.enable_test_stage:
        document["test"] = {
            "stage": "test",
            "needs": list(build_names),
            "script": [
                _GITLAB_LOGIN,
                "docker run --rm "
                + _arch_tag(spec, "dev", spec.platforms[0])
                + f" /bin/sh -c '{TEST_HOOK}'",
            ],
        }
        last_layer = ["test"]

    if _merge_needed(spec):
        merge_names = []
        for stage in _ordered_stages(spec):
            name = f"merge-{stage}"
            needs = (
                ["test"]
                if spec.enable_test_stage
                else [f"build-{stage}-{arch}" for arch in spec.platforms]
            )
            document[name] = {
                "stage": "merge",
                "needs": needs,
                "script": [_GITLAB_LOGIN, _merge_command(spec, stage)],
            }
            merge_names.append(name)
        last_layer = merge_names

    document["push"] = {
        "stage": "push",
        "needs": list(last_layer),
        "rules": [{"if": f'$CI_COMMIT_BRANCH == "{spec.push_on_branch}"'}],
        "script": [_GITLAB_LOGIN, *_push_commands(spec)],
    }

    return yaml.safe_dump(document, sort_keys=False, default_flow_style=False, width=120)


def job_graph(document_text: str) -> dict[str, list[str]]:
    """Job name to dependency list, extracted from generated YAML.

    Works for both platforms: GitHub jobs live under ``jobs``; GitLab jobs
    are top-level mappings with a ``stage`` key. Edges come from ``needs``.
    """

    doc = safe_load(document_text)
    if not isinstance(doc, dict):
        raise InvalidSpec("pipeline document is not a mapping")
    graph: dict[str, list[str]] = {}
    if "jobs" in doc and isinstance(doc["jobs"], dict):
        items = doc["jobs"].items()
    else:
        items = [
            (name, body)
            for name, body in doc.items()
            if isinstance(body, dict) and "stage" in body and "script" in body
        ]
    for name, body in items:
        needs = body.get("needs") or []
        graph[str(name)] = [str(n) for n in needs]
    return graph
