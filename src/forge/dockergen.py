"""Multi-stage container build planning and rendering.

A build is planned as a semantic stage graph first and rendered to
Dockerfile text second. :data:`STAGES` fixes the graph: each stage's
parent, the targets whose Dockerfile holds it, and what it may copy from
the build context. :func:`validate_plan` checks a plan against it.

Deployment images therefore never receive the workspace source tree; the
single cross-stage copy into ``run`` is the compiled install space.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
import re
import shlex
from pathlib import Path
from typing import Iterable, NamedTuple, Union

from . import KNOWN_DISTROS, TARGETS
from .depgraph import ResolvedDependencies
from .errors import InvalidSpec, UnresolvedDependencies
from .manifest import PackageManifest
from .sources import RepoSpec, required_credential_vars

ARTIFACT_DIR = "/opt/forge"
APT_LIST = f"{ARTIFACT_DIR}/apt-packages.txt"
PIP_LIST = f"{ARTIFACT_DIR}/pip-packages.txt"
REPOS_LIST = f"{ARTIFACT_DIR}/repos.txt"
ENTRYPOINT_PATH = "/forge-entrypoint.sh"

ROS_APT_KEY_URL = "https://raw.githubusercontent.com/ros/rosdistro/master/ros.key"
ROS_KEYRING = "/usr/share/keyrings/ros-archive-keyring.gpg"


# --- semantic instructions -------------------------------------------------


class BuildArg(NamedTuple):
    name: str
    default: str | None = None


class EnvSet(NamedTuple):
    name: str
    value: str


class Workdir(NamedTuple):
    path: str


class CopyContext(NamedTuple):
    src: str
    dst: str
    chown: str | None = None


class CopyFromStage(NamedTuple):
    stage: str
    src: str
    dst: str


class RunShell(NamedTuple):
    """One shell command; ``category`` tags its role for plan validation.

    ``packages`` carries the OS or pip package set of a transaction so the
    development/deployment superset law can be checked on the plan without
    re-parsing shell text.
    """

    command: str
    category: str = "shell"
    packages: tuple[str, ...] = ()


class UserSet(NamedTuple):
    user: str


class Entrypoint(NamedTuple):
    argv: tuple[str, ...]


class DefaultCommand(NamedTuple):
    argv: tuple[str, ...]


Instruction = Union[
    BuildArg,
    EnvSet,
    Workdir,
    CopyContext,
    CopyFromStage,
    RunShell,
    UserSet,
    Entrypoint,
    DefaultCommand,
]


class StageRow(NamedTuple):
    """One stage of the image layout.

    ``context`` is what the stage may copy from the build context: ``any``
    file, only ``manifests`` (``package.xml`` and ``.repos`` files), only
    whole source ``roots`` (a top-level directory, or ``./`` for a package
    at the workspace root), or ``none``.
    """

    name: str
    parent: str
    targets: tuple[str, ...]
    context: str


# The image layout, in Dockerfile order. Of the source tree, ``run`` holds
# only what ``build`` installs: it derives from ``dependencies-install``,
# which both lineages share, not from ``dev``.
STAGES = (
    StageRow("base", "${BASE_IMAGE}", TARGETS, "any"),
    StageRow("dependencies", "base", TARGETS, "manifests"),
    StageRow("dependencies-install", "base", TARGETS, "any"),
    StageRow("dev", "dependencies-install", TARGETS, "roots"),
    StageRow("build", "dev", ("run",), "any"),
    StageRow("run", "dependencies-install", ("run",), "none"),
)


class Stage(NamedTuple):
    name: str
    parent: str
    instructions: tuple[Instruction, ...]


class DockerfilePlan(NamedTuple):
    """A planned build; ``context_paths`` are what it reads from the build context.

    They are each live package directory, each ``.repos`` file and each
    custom script, sorted; ``.`` stands for a package at the context root,
    which is the whole context.
    """

    stages: tuple[Stage, ...]
    base_image: str
    target: str
    workspace_dir: str
    slim_runtime: bool
    context_paths: tuple[str, ...]

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)


class Violation(NamedTuple):
    """One broken plan invariant, naming the stage and the rule."""

    stage: str
    rule: str
    detail: str


class ImageSpec(NamedTuple):
    """Everything needed to plan one image build.

    An empty ``base_image`` means the distro's ``ros:<distro>`` image.
    """

    ros_distro: str
    base_image: str = ""
    target: str = "run"
    launch_command: tuple[str, ...] = ("bash",)
    workspace_dir: str = "/ws"
    packages: tuple[PackageManifest, ...] = ()
    repos_files: tuple[str, ...] = ()
    source_repos: tuple[RepoSpec, ...] = ()
    custom_script_pre: str | None = None
    custom_script_post: str | None = None
    extra_apt: tuple[str, ...] = ()
    extra_pip: tuple[str, ...] = ()
    slim_runtime: bool = False
    strict: bool = False
    nonroot_run: bool = False

    @property
    def ros_version(self) -> int:
        return KNOWN_DISTROS[self.ros_distro]

    @property
    def build_tool(self) -> str:
        return "catkin" if self.ros_version == 1 else "colcon"


# A path that a Dockerfile COPY and a .dockerignore line cannot both name
# exactly: one with a control character, with whitespace at either end,
# which the ignore file trims, or with a lone surrogate (what
# surrogateescape makes of a byte that is not UTF-8), which neither UTF-8
# file can hold. Only a path that holds whitespace, a control character or
# a surrogate at all can be one.
_UNNAMEABLE_RE = re.compile(r"[\x00-\x1f\x7f-\x9f\ud800-\udfff]|\A\s|\s\Z")
_SPACE_OR_CONTROL_RE = re.compile(r"[\s\x00-\x1f\x7f-\x9f\ud800-\udfff]")


def _check_spec(spec: ImageSpec, context_root: Path) -> tuple[str, ...]:
    """Check what the command line does not; return the plan's ``context_paths``."""

    # The distro index checks the distro, the command line the target, the
    # launch command and workspace_dir.
    for extra in (*spec.extra_apt, *spec.extra_pip):
        if not extra or any(c.isspace() for c in extra):
            raise InvalidSpec(f"invalid extra package name {extra!r}")
    scripts = [s for s in (spec.custom_script_pre, spec.custom_script_post) if s is not None]
    for script in scripts:
        if not (context_root / script).is_file():
            raise InvalidSpec(f"custom script {script!r} not found in build context")
    named = [("package directory", p.source_dir) for p in spec.packages]
    named += [("repository list", name) for name in spec.repos_files]
    named += [("custom script", posixpath.normpath(script)) for script in scripts]
    paths = [path for _, path in named]
    # One search over all paths in the common case, not one per package.
    if _SPACE_OR_CONTROL_RE.search("/".join(paths)):
        for what, path in named:
            if _UNNAMEABLE_RE.search(path):
                raise InvalidSpec(
                    f"{what} {path!r} cannot be named exactly in a Dockerfile COPY "
                    "and a .dockerignore line"
                )
    return tuple(sorted(set(paths)))


def _container_rel_dir(rel: str, name: str) -> str:
    """Directory ``rel`` of the build context below the container workspace.

    Every path lands under ``src/``; the context root, a package's own
    directory, becomes ``src/<name>``.
    """

    if rel == ".":
        return f"src/{name}"
    if rel == "src" or rel.startswith("src/"):
        return rel
    return f"src/{rel}"


def _q(token: str) -> str:
    return shlex.quote(token)


def _write_lines_cmd(path: str, lines: Iterable[str]) -> str:
    items = list(lines)
    if not items:
        return f": > {path}"
    return "printf '%s\\n' " + " ".join(_q(line) for line in items) + f" > {path}"


def _apt_cleanup() -> str:
    return "rm -rf /var/lib/apt/lists/*"


def _apt_install(args: str) -> str:
    return (
        "apt-get update && DEBIAN_FRONTEND=noninteractive "
        f"apt-get install -y --no-install-recommends {args} && " + _apt_cleanup()
    )


def _ros_core_guard(ros_version: int) -> RunShell:
    suite = "ros" if ros_version == 1 else "ros2"
    repo_line = (
        f'echo "deb [signed-by={ROS_KEYRING}] http://packages.ros.org/{suite}/ubuntu '
        '$(. /etc/os-release; echo ${UBUNTU_CODENAME}) main" '
        f"> /etc/apt/sources.list.d/{suite}.list"
    )
    command = (
        'if [ ! -d "/opt/ros/${ROS_DISTRO}" ]; then '
        + _apt_install("ca-certificates curl")
        + f" && curl -fsSL {ROS_APT_KEY_URL} -o {ROS_KEYRING}"
        + f" && {repo_line}"
        + " && "
        + _apt_install("ros-${ROS_DISTRO}-ros-core")
        + "; fi"
    )
    return RunShell(command=command, category="ros-core-guard")


def _entrypoint_script_cmd(workspace_dir: str) -> RunShell:
    lines = [
        "#!/bin/sh",
        "set -e",
        'if [ -f "/opt/ros/${ROS_DISTRO}/setup.sh" ]; then . "/opt/ros/${ROS_DISTRO}/setup.sh"; fi',
        f'if [ -f "{workspace_dir}/install/setup.sh" ]; then . "{workspace_dir}/install/setup.sh"; fi',
        'if [ "$#" -gt 0 ]; then exec "$@"; fi',
        'if [ -n "${FORGE_COMMAND:-}" ]; then exec /bin/sh -c "${FORGE_COMMAND}"; fi',
        "exec /bin/sh",
    ]
    command = (
        _write_lines_cmd(ENTRYPOINT_PATH, lines) + f" && chmod 0755 {ENTRYPOINT_PATH}"
    )
    return RunShell(command=command, category="entrypoint-setup")


def _user_setup() -> RunShell:
    command = (
        "{ getent group ros >/dev/null || groupadd --gid 1000 ros; } && "
        "{ id -u ros >/dev/null 2>&1 || "
        "useradd --uid 1000 --gid ros --non-unique --create-home --shell /bin/bash ros; }"
    )
    return RunShell(command=command, category="user-setup")


def _os_transaction(packages: tuple[str, ...], list_file: str | None) -> RunShell:
    """Install ``packages`` with apt, read from ``list_file`` or, if None, named inline."""

    if list_file is None:
        command = _apt_install(" ".join(packages))
    else:
        command = (
            "apt-get update && DEBIAN_FRONTEND=noninteractive "
            f"xargs -a {list_file} apt-get install -y --no-install-recommends && "
            + _apt_cleanup()
        )
    return RunShell(command=command, category="pkg-os", packages=packages)


def _pip_transaction(packages: tuple[str, ...], list_file: str | None) -> RunShell:
    """Install ``packages`` with pip, read from ``list_file`` or, if None, named inline."""

    bootstrap = (
        "if ! command -v pip3 >/dev/null; then " + _apt_install("python3-pip") + "; fi"
    )
    source = " ".join(packages) if list_file is None else f"-r {list_file}"
    command = bootstrap + " && pip3 install --no-cache-dir " + source
    return RunShell(command=command, category="pkg-pip", packages=packages)


def _clone_transaction(workspace_dir: str) -> RunShell:
    bootstrap = (
        "if ! command -v git >/dev/null; then "
        + _apt_install("git ca-certificates")
        + "; fi"
    )
    loop = (
        "while read -r name url version; do "
        'eval "u=\\"$url\\"" && '
        f'git clone --recurse-submodules "$u" "{workspace_dir}/src/$name" && '
        "if [ -n \"$version\" ]; then "
        f'git -C "{workspace_dir}/src/$name" checkout --recurse-submodules "$version"; fi '
        "|| exit 1; "
        f"done < {REPOS_LIST}"
    )
    return RunShell(command=bootstrap + " && " + loop, category="clone")


def _repos_lines(repos: tuple[RepoSpec, ...]) -> list[str]:
    lines = []
    for repo in repos:
        parts = [repo.local_name, repo.url]
        if repo.version:
            parts.append(repo.version)
        lines.append(" ".join(parts))
    return lines


def _merged_os_packages(resolved: ResolvedDependencies, extra: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted({*resolved.ros_distro_pkgs, *resolved.system_pkgs, *extra}))


def _merged_pip_packages(resolved: ResolvedDependencies, extra: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted({*resolved.python_pkgs, *extra}))


def plan_stages(
    spec: ImageSpec,
    resolved: ResolvedDependencies,
    resolved_exec: ResolvedDependencies,
    context_root: Path,
) -> DockerfilePlan:
    """Plan the stage graph for one image build: the ``spec.target`` rows of :data:`STAGES`.

    With ``slim_runtime`` the shared ``dependencies-install`` stage only
    installs exec-scope dependencies and the ``dev`` stage adds the
    build-only remainder; otherwise the shared stage installs everything
    and both lineages are identical up to tooling. Custom scripts must
    exist under ``context_root``, the build context.
    """

    context_paths = _check_spec(spec, context_root)
    if spec.strict and resolved.unresolved:
        raise UnresolvedDependencies(list(resolved.unresolved))

    ws = spec.workspace_dir
    packages = tuple(sorted(spec.packages, key=lambda p: p.name))
    repos = tuple(sorted(spec.source_repos, key=lambda r: r.local_name))
    # Each package's directory in the build context and below the workspace.
    package_dirs = [(p.source_dir, _container_rel_dir(p.source_dir, p.name)) for p in packages]

    shared = resolved_exec if spec.slim_runtime else resolved
    shared_os = _merged_os_packages(shared, spec.extra_apt)
    shared_pip = _merged_pip_packages(shared, spec.extra_pip)
    all_os = _merged_os_packages(resolved, spec.extra_apt)
    all_pip = _merged_pip_packages(resolved, spec.extra_pip)
    delta_os = tuple(sorted(set(all_os) - set(shared_os)))
    delta_pip = tuple(sorted(set(all_pip) - set(shared_pip)))

    instructions: dict[str, tuple[Instruction, ...]] = {}

    # base: the guarded ROS core install shared by every lineage.
    instructions["base"] = (
        BuildArg("ROS_DISTRO", spec.ros_distro),
        EnvSet("ROS_DISTRO", "${ROS_DISTRO}"),
        _ros_core_guard(spec.ros_version),
    )

    # dependencies: manifests and repository lists only, then the three
    # dependency artifact files consumed by dependencies-install.
    dep_instructions: list[Instruction] = [Workdir(ws)]
    for source_dir, rel in package_dirs:
        src = "package.xml" if source_dir == "." else f"{source_dir}/package.xml"
        dep_instructions.append(CopyContext(src, f"{ws}/{rel}/package.xml"))
    for repos_file in sorted(spec.repos_files):
        dep_instructions.append(CopyContext(src=repos_file, dst=f"{ws}/{repos_file}"))
    artifact_cmd = (
        f"mkdir -p {ARTIFACT_DIR} && "
        + _write_lines_cmd(APT_LIST, shared_os)
        + " && "
        + _write_lines_cmd(PIP_LIST, shared_pip)
        + " && "
        + _write_lines_cmd(REPOS_LIST, _repos_lines(repos))
    )
    dep_instructions.append(RunShell(command=artifact_cmd, category="dep-artifacts"))
    instructions["dependencies"] = tuple(dep_instructions)

    # dependencies-install: consume the artifacts; shared by dev and run.
    install_instructions: list[Instruction] = [
        Workdir(ws),
        CopyFromStage("dependencies", ARTIFACT_DIR, ARTIFACT_DIR),
    ]
    if shared_os:
        install_instructions.append(_os_transaction(shared_os, APT_LIST))
    if shared_pip:
        install_instructions.append(_pip_transaction(shared_pip, PIP_LIST))
    if spec.custom_script_pre is not None:
        install_instructions.append(
            CopyContext(src=spec.custom_script_pre, dst=f"{ARTIFACT_DIR}/custom-pre.sh")
        )
        install_instructions.append(
            RunShell(command=f"sh {ARTIFACT_DIR}/custom-pre.sh", category="custom-script")
        )
    if repos:
        for var in required_credential_vars(repos):
            install_instructions.append(BuildArg(var))
        install_instructions.append(_clone_transaction(ws))
    if spec.custom_script_post is not None:
        install_instructions.append(
            CopyContext(src=spec.custom_script_post, dst=f"{ARTIFACT_DIR}/custom-post.sh")
        )
        install_instructions.append(
            RunShell(command=f"sh {ARTIFACT_DIR}/custom-post.sh", category="custom-script")
        )
    install_instructions.append(_entrypoint_script_cmd(ws))
    instructions["dependencies-install"] = tuple(install_instructions)

    # dev: the build-only dependency remainder (slim mode), build tooling,
    # full source, and a non-root user.
    dev_instructions: list[Instruction] = [_user_setup()]
    if delta_os:
        dev_instructions.append(_os_transaction(delta_os, None))
    if delta_pip:
        dev_instructions.append(_pip_transaction(delta_pip, None))
    tooling = ["build-essential", "git"]
    if spec.build_tool == "colcon":
        tooling.append("python3-colcon-common-extensions")
    dev_instructions.append(
        RunShell(command=_apt_install(" ".join(sorted(tooling))), category="tooling")
    )
    # One copy per source root: each top-level directory that holds a
    # package, or the context root for a package there. The .dockerignore
    # text keeps all but the package directories out of each.
    roots = {p.source_dir.split("/", 1)[0]: p.name for p in packages}
    for root, name in sorted(roots.items()):
        rel = _container_rel_dir(root, name)
        dev_instructions.append(CopyContext(f"{root}/", f"{ws}/{rel}/", "1000:1000"))
    dev_instructions.append(
        RunShell(
            command=(
                f"install -d -o 1000 -g 1000 {ws}/build {ws}/install {ws}/log && "
                f"chown 1000:1000 {ws} {ws}/src"
            ),
            category="user-setup",
        )
    )
    dev_instructions.append(UserSet("ros"))
    dev_instructions.append(Entrypoint((ENTRYPOINT_PATH,)))
    dev_instructions.append(DefaultCommand(("bash",)))
    instructions["dev"] = tuple(dev_instructions)

    # build and run: the deployment lineage, kept only for the run target.
    if spec.build_tool == "catkin":
        build_cmd = (
            '. "/opt/ros/${ROS_DISTRO}/setup.sh" && '
            f"catkin_make_isolated --install --install-space {ws}/install"
        )
    else:
        build_cmd = (
            '. "/opt/ros/${ROS_DISTRO}/setup.sh" && '
            f"colcon build --install-base {ws}/install"
        )
    instructions["build"] = (RunShell(command=build_cmd, category="build"),)

    run_instructions: list[Instruction] = [
        CopyFromStage("build", f"{ws}/install", f"{ws}/install"),
    ]
    if spec.nonroot_run:
        run_instructions.append(_user_setup())
        run_instructions.append(
            RunShell(command=f"chown -R 1000:1000 {ws}", category="user-setup")
        )
        run_instructions.append(UserSet("ros"))
    run_instructions.append(Entrypoint((ENTRYPOINT_PATH,)))
    run_instructions.append(DefaultCommand(spec.launch_command))
    instructions["run"] = tuple(run_instructions)

    return DockerfilePlan(
        stages=tuple(
            Stage(row.name, row.parent, instructions[row.name])
            for row in STAGES
            if spec.target in row.targets
        ),
        base_image=spec.base_image or f"ros:{spec.ros_distro}",
        target=spec.target,
        workspace_dir=ws,
        slim_runtime=spec.slim_runtime,
        context_paths=context_paths,
    )


# --- validation ------------------------------------------------------------


def _lineage(plan: DockerfilePlan, name: str) -> list[Stage]:
    """Stages from the root of the parent chain down to ``name``."""

    chain: list[Stage] = []
    by_name = {stage.name: stage for stage in plan.stages}
    current: str | None = name
    while current in by_name:
        stage = by_name[current]
        chain.append(stage)
        parent = stage.parent
        current = parent if parent in by_name else None
    chain.reverse()
    return chain


def _lineage_packages(plan: DockerfilePlan, name: str, category: str) -> set[str]:
    packages: set[str] = set()
    for stage in _lineage(plan, name):
        for instruction in stage.instructions:
            if isinstance(instruction, RunShell) and instruction.category == category:
                packages.update(instruction.packages)
    return packages


def validate_plan(plan: DockerfilePlan) -> list[Violation]:
    """Check the stage graph invariants; an empty list means conformant.

    Stage order, parents and build context copies are checked against the
    :data:`STAGES` rows of ``plan.target``.
    """

    violations: list[Violation] = []
    rows = [row for row in STAGES if plan.target in row.targets]
    names = [stage.name for stage in plan.stages]
    expected = [row.name for row in rows]
    if names != expected:
        violations.append(
            Violation(
                stage=",".join(names),
                rule="stage-order",
                detail=f"expected stages {expected}, found {names}",
            )
        )
        return violations

    for stage, row in zip(plan.stages, rows):
        if stage.parent != row.parent:
            violations.append(
                Violation(
                    stage=stage.name,
                    rule="stage-parent",
                    detail=f"parent is {stage.parent!r}, expected {row.parent!r}",
                )
            )
        for instruction in stage.instructions:
            if not isinstance(instruction, CopyContext):
                continue
            if row.context == "none":
                violations.append(
                    Violation(
                        stage=stage.name,
                        rule="no-source-leak",
                        detail=f"copies {instruction.src!r} from the build context",
                    )
                )
            elif row.context == "manifests" and not instruction.src.endswith(
                ("package.xml", ".repos")
            ):
                violations.append(
                    Violation(
                        stage=stage.name,
                        rule="manifests-only",
                        detail=f"copies {instruction.src!r}, not a manifest or repository list",
                    )
                )
            elif row.context == "roots":
                head, slash, tail = instruction.src.partition("/")
                if not slash or tail or head in ("", ".."):
                    violations.append(
                        Violation(
                            stage=stage.name,
                            rule="source-roots-only",
                            detail=f"copies {instruction.src!r}, not a whole top-level directory",
                        )
                    )

    if plan.target == "run":
        run = plan.stage("run")
        cross = [i for i in run.instructions if isinstance(i, CopyFromStage)]
        install_path = f"{plan.workspace_dir}/install"
        if len(cross) != 1 or cross[0].stage != "build" or cross[0].src != install_path:
            violations.append(
                Violation(
                    stage="run",
                    rule="install-space-copy",
                    detail=(
                        "expected exactly one cross-stage copy of "
                        f"{install_path!r} from build, found "
                        + str([(c.stage, c.src) for c in cross])
                    ),
                )
            )

        for category in ("pkg-os", "pkg-pip"):
            dev_packages = _lineage_packages(plan, "dev", category)
            run_packages = _lineage_packages(plan, "run", category)
            if not dev_packages >= run_packages:
                violations.append(
                    Violation(
                        stage="dev",
                        rule="install-superset",
                        detail=(
                            f"{category} packages {sorted(run_packages - dev_packages)} "
                            "in run lineage but not dev lineage"
                        ),
                    )
                )
            if not plan.slim_runtime and dev_packages != run_packages:
                violations.append(
                    Violation(
                        stage="dev",
                        rule="install-equality",
                        detail=(
                            f"{category} packages differ without slim_runtime: "
                            f"{sorted(dev_packages ^ run_packages)}"
                        ),
                    )
                )

    return violations


# --- rendering -------------------------------------------------------------


def _render_run(command: str) -> list[str]:
    segments = command.split(" && ")
    if len(segments) == 1:
        return [f"RUN {command}"]
    lines = [f"RUN {segments[0]} && \\"]
    for segment in segments[1:-1]:
        lines.append(f"    {segment} && \\")
    lines.append(f"    {segments[-1]}")
    return lines


def _render_value(value: str) -> str:
    if value == "" or any(c.isspace() for c in value):
        return '"' + value.replace('"', '\\"') + '"'
    return value


def _json_array(argv: tuple[str, ...]) -> str:
    return json.dumps(list(argv))


# An operand BuildKit reads as it is written: no leading ``-``, and no
# whitespace, control character or character that the rules below escape.
_PLAIN_OPERAND_RE = re.compile(r"(?!-)[^\s\x00-\x1f\x7f-\x9f\\$'\"*?[]*")
# BuildKit's shell-word lexer, which reads every COPY operand in either
# form, takes ``\`` as an escape, ``$`` as a variable and quotes as quoting;
# a leading ``-`` would make the flag parser read the word as a flag.
_LEXER_SPECIAL_RE = re.compile(r"[\\$'\"]|\A-")
# From the first component holding ``*``, ``?`` or ``[`` on, a source is a
# pattern for Go's filepath.Match, where ``[c]`` is the character c and
# ``\`` escapes; the components before it are a plain path.
_WILDCARD_RE = re.compile(r"[*?[]")
_PATTERN_SPECIAL_RE = re.compile(r"[\\*?[]")
_PATTERN_LITERAL = {"\\": "\\\\", "*": "[*]", "?": "[?]", "[": "[[]"}


def _copy_word(path: str, is_source: bool) -> str:
    """``path`` written so that BuildKit's COPY reads exactly it, as a source or a destination."""

    if is_source and (wildcard := _WILDCARD_RE.search(path)):
        start = path.rfind("/", 0, wildcard.start()) + 1
        pattern = _PATTERN_SPECIAL_RE.sub(lambda m: _PATTERN_LITERAL[m[0]], path[start:])
        path = path[:start] + pattern
    return _LEXER_SPECIAL_RE.sub(r"\\\g<0>", path)


def _copy_operands(src: str, dst: str) -> str:
    """COPY's operands, each read by BuildKit as exactly that path.

    They are in the JSON-array form when one holds whitespace or a control
    character, or when the source starts with ``[``, which BuildKit would
    try to read as that form.
    """

    if _PLAIN_OPERAND_RE.fullmatch(src) and _PLAIN_OPERAND_RE.fullmatch(dst):
        return f"{src} {dst}"
    words = [_copy_word(src, True), _copy_word(dst, False)]
    if words[0].startswith("[") or _SPACE_OR_CONTROL_RE.search(src + dst):
        return json.dumps(words, ensure_ascii=False)
    return " ".join(words)


def _render_instruction(instruction: Instruction) -> list[str]:
    if isinstance(instruction, BuildArg):
        if instruction.default is None:
            return [f"ARG {instruction.name}"]
        return [f"ARG {instruction.name}={_render_value(instruction.default)}"]
    if isinstance(instruction, EnvSet):
        return [f"ENV {instruction.name}={_render_value(instruction.value)}"]
    if isinstance(instruction, Workdir):
        return [f"WORKDIR {instruction.path}"]
    if isinstance(instruction, CopyContext):
        chown = f"--chown={instruction.chown} " if instruction.chown else ""
        return [f"COPY {chown}{_copy_operands(instruction.src, instruction.dst)}"]
    if isinstance(instruction, CopyFromStage):
        operands = _copy_operands(instruction.src, instruction.dst)
        return [f"COPY --from={instruction.stage} {operands}"]
    if isinstance(instruction, RunShell):
        return _render_run(instruction.command)
    if isinstance(instruction, UserSet):
        return [f"USER {instruction.user}"]
    if isinstance(instruction, Entrypoint):
        return [f"ENTRYPOINT {_json_array(instruction.argv)}"]
    if isinstance(instruction, DefaultCommand):
        joined = shlex.join(instruction.argv)
        return [
            f"ARG COMMAND={_render_value(joined)}",
            'ENV FORGE_COMMAND="${COMMAND}"',
            "CMD []",
        ]
    raise TypeError(f"unknown instruction {instruction!r}")


def render(plan: DockerfilePlan) -> str:
    """Render a plan to Dockerfile text, byte-deterministic for equal plans.

    The four header lines name the sha256 of the body below them, from
    ``ARG BASE_IMAGE`` to the end, so ``tail -n +5 Dockerfile | sha256sum``
    checks a file against its header.
    """

    from . import GENERATOR_NAME, __version__

    lines = [f"ARG BASE_IMAGE={plan.base_image}", f"ARG TARGET={plan.target}"]
    for stage in plan.stages:
        lines.append("")
        lines.append(f"FROM {stage.parent} AS {stage.name}")
        for instruction in stage.instructions:
            lines.extend(_render_instruction(instruction))
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (
        "# syntax=docker/dockerfile:1\n"
        f"# Generated by {GENERATOR_NAME} {__version__} (plan sha256 {digest})\n"
        "# Regenerate instead of editing by hand.\n"
        "\n" + body
    )


def plan_digest(dockerfile: str) -> str:
    """The plan sha256 that :func:`render` names in the header of ``dockerfile``."""

    return dockerfile.split("\n", 2)[1].rpartition(" ")[2].rstrip(")")


# The characters a .dockerignore pattern reads as a wildcard or an escape.
_IGNORE_SPECIAL_RE = re.compile(r"[\\*?[]")


def render_dockerignore(plan: DockerfilePlan, workspace_ignore: str) -> str:
    """The ``.dockerignore`` text for ``plan``'s Dockerfile.

    It leaves out everything, then takes back each of ``plan.context_paths``
    as a literal pattern, which also takes back all below it. So ``dev``'s
    copies of whole source roots hold exactly the package directories, and
    ignored subtrees and files outside every package stay out. With a
    package at the context root, nothing is left out.

    BuildKit reads this file in place of the context's own ``.dockerignore``,
    so that file's text, ``workspace_ignore``, follows forge's lines: the
    last matching line decides, and the user's exclusions still hold.
    """

    from . import GENERATOR_NAME, __version__

    text = (
        f"# Generated by {GENERATOR_NAME} {__version__}: only what the Dockerfile of the "
        "same name reads enters the build context.\n"
        "# Regenerate instead of editing by hand.\n"
    )
    if "." not in plan.context_paths:
        patterns = "".join(f"!{path}\n" for path in plan.context_paths)
        text += "*\n" + _IGNORE_SPECIAL_RE.sub(r"\\\g<0>", patterns)
    if workspace_ignore:
        text += "# The workspace's own .dockerignore:\n" + workspace_ignore
        if not workspace_ignore.endswith("\n"):
            text += "\n"
    return text
