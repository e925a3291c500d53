"""Multi-stage container build planning and rendering.

A build is planned as a semantic stage graph first and rendered to
Dockerfile text second. :data:`STAGES` fixes the graph: each stage's
parent, the targets whose Dockerfile holds it, and what it may copy from
the build context. :func:`validate_plan` checks a plan against it.

An instruction is a record only where a rule reads its fields: the two
kinds of COPY, :class:`CopyContext` and :class:`CopyFromStage`, and each
package transaction, :class:`Install`. Every other instruction is planned
as its Dockerfile line, RUN included, which :func:`_run` writes. A plan
maps each stage's name to its instructions; its parent is its
:data:`STAGES` row.

Deployment images therefore never receive the workspace source tree; the
single cross-stage copy into ``run`` is the compiled install space.
"""

from __future__ import annotations

import json
import posixpath
import re
import shlex
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Union

from . import KNOWN_DISTROS, TARGETS
from .depgraph import ResolvedDependencies
from .errors import InvalidSpec, UnresolvedDependencies
from .manifest import PackageManifest
from .sources import RepoSpec, required_credential_vars
from .textio import hex_digest

ARTIFACT_DIR = "/opt/forge"
APT_LIST = f"{ARTIFACT_DIR}/apt-packages.txt"
PIP_LIST = f"{ARTIFACT_DIR}/pip-packages.txt"
REPOS_LIST = f"{ARTIFACT_DIR}/repos.txt"
ENTRYPOINT_PATH = "/forge-entrypoint.sh"
APT_CLEANUP = "rm -rf /var/lib/apt/lists/*"

ROS_APT_KEY_URL = "https://raw.githubusercontent.com/ros/rosdistro/master/ros.key"
ROS_KEYRING = "/usr/share/keyrings/ros-archive-keyring.gpg"


# --- semantic instructions -------------------------------------------------


class CopyContext(NamedTuple):
    """One COPY of ``srcs``, paths in the build context, to ``dst``.

    One source, a file or a directory's content, lands at ``dst``. Several
    are written ``COPY --parents``, which lands each at its own context
    path below ``dst``.
    """

    srcs: tuple[str, ...]
    dst: str
    chown: str | None = None


class CopyFromStage(NamedTuple):
    stage: str
    src: str
    dst: str


class Install(NamedTuple):
    """One package transaction: ``command`` installs ``packages`` with ``manager``.

    ``manager`` is ``apt`` or ``pip``. The packages let the
    development/deployment superset law be checked on the plan without
    re-parsing shell text.
    """

    manager: str
    packages: tuple[str, ...]
    command: str


Instruction = Union[CopyContext, CopyFromStage, Install, str]


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


_ROWS = {row.name: row for row in STAGES}


class DockerfilePlan(NamedTuple):
    """A planned build.

    ``stages`` maps the name of each :data:`STAGES` row that the target
    holds, in table order, to that stage's instructions. ``context_paths``
    are what the build reads from the build context: each live package
    directory, each ``.repos`` file and each custom script, sorted; ``.``
    stands for a package at the context root, which is the whole context.
    """

    stages: dict[str, tuple[Instruction, ...]]
    base_image: str
    target: str
    workspace_dir: str
    slim_runtime: bool
    context_paths: tuple[str, ...]


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
        # A leading "-" would be an apt-get or pip option.
        if extra[:1] in ("", "-") or any(c.isspace() for c in extra):
            raise InvalidSpec(f"invalid extra package name {extra!r}")
    scripts = [s for s in (spec.custom_script_pre, spec.custom_script_post) if s is not None]
    for script in scripts:
        # BuildKit reads a COPY source below the context, also "/x" or "../x".
        if posixpath.normpath(script).split("/")[0] in ("", ".."):
            raise InvalidSpec(f"custom script {script!r} is outside the build context")
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


def _copies(items: Iterable[tuple[str, str]], ws: str, chown: str | None = None) -> list[CopyContext]:
    """One COPY per destination root for ``items``, pairs of a context path and where it lands.

    An item that lands at its own context path below ``ws/`` or ``ws/src/``
    joins that root's ``COPY --parents``, so the layer count does not grow
    with the number of items. A root with one item, and an item that lands
    elsewhere, gets a plain COPY to where it lands.
    """

    roots: dict[str, list[str]] = {f"{ws}/": [], f"{ws}/src/": []}
    copies = []
    for src, dst in items:
        root = next((root for root in roots if dst == root + src), None)
        if root is None:
            copies.append(CopyContext((src,), dst, chown))
        else:
            roots[root].append(src)
    for root, srcs in roots.items():
        if len(srcs) == 1:
            copies.append(CopyContext((srcs[0],), root + srcs[0], chown))
        elif srcs:
            copies.append(CopyContext(tuple(srcs), root, chown))
    return copies


# Where a RUN body wraps: after each `` && `` outside quotes. Quoted strings
# and escaped characters are matched whole, so a `` && `` in them is never
# a match of its own. The shell reads the indentation that BuildKit keeps
# when it joins the lines as a word separator.
_RUN_JOINT_RE = re.compile(r"""'[^']*'|"(?:[^"\\]|\\.)*"|\\.| && """, re.S)


def _run(command: str) -> str:
    """The RUN line of ``command``, wrapped after each `` && `` outside quotes."""

    body = _RUN_JOINT_RE.sub(lambda m: " && \\\n    " if m[0] == " && " else m[0], command)
    return f"RUN {body}"


def _write_lines_cmd(path: str, lines: Iterable[str]) -> str:
    items = list(lines)
    if not items:
        return f": > {path}"
    return f"printf '%s\\n' {shlex.join(items)} > {path}"


def _apt_install(args: str) -> str:
    return (
        "apt-get update && DEBIAN_FRONTEND=noninteractive "
        f"apt-get install -y --no-install-recommends {args} && {APT_CLEANUP}"
    )


def _ros_core_guard(ros_version: int) -> str:
    suite = "ros" if ros_version == 1 else "ros2"
    repo_line = (
        f'echo "deb [signed-by={ROS_KEYRING}] http://packages.ros.org/{suite}/ubuntu '
        '$(. /etc/os-release; echo ${UBUNTU_CODENAME}) main" '
        f"> /etc/apt/sources.list.d/{suite}.list"
    )
    return _run(
        'if [ ! -d "/opt/ros/${ROS_DISTRO}" ]; then '
        + _apt_install("ca-certificates curl")
        + f" && curl -fsSL {ROS_APT_KEY_URL} -o {ROS_KEYRING}"
        + f" && {repo_line}"
        + " && "
        + _apt_install("ros-${ROS_DISTRO}-ros-core")
        + "; fi"
    )


def _entrypoint_script_cmd(workspace_dir: str) -> str:
    lines = [
        "#!/bin/sh",
        "set -e",
        'if [ -f "/opt/ros/${ROS_DISTRO}/setup.sh" ]; then . "/opt/ros/${ROS_DISTRO}/setup.sh"; fi',
        f'if [ -f "{workspace_dir}/install/setup.sh" ]; then . "{workspace_dir}/install/setup.sh"; fi',
        'if [ "$#" -gt 0 ]; then exec "$@"; fi',
        'if [ -n "${FORGE_COMMAND:-}" ]; then exec /bin/sh -c "${FORGE_COMMAND}"; fi',
        "exec /bin/sh",
    ]
    return _run(_write_lines_cmd(ENTRYPOINT_PATH, lines) + f" && chmod 0755 {ENTRYPOINT_PATH}")


def _entrypoint_lines(argv: tuple[str, ...]) -> list[str]:
    """The entrypoint and its default command ``argv``, which ``--build-arg COMMAND`` overrides."""

    return [
        f"ENTRYPOINT {json.dumps([ENTRYPOINT_PATH])}",
        f"ARG COMMAND={_arg_value(shlex.join(argv))}",
        'ENV FORGE_COMMAND="${COMMAND}"',
        "CMD []",
    ]


_USER_SETUP = (
    "{ getent group ros >/dev/null || groupadd --gid 1000 ros; } && "
    "{ id -u ros >/dev/null 2>&1 || "
    "useradd --uid 1000 --gid ros --non-unique --create-home --shell /bin/bash ros; }"
)


def _os_transaction(packages: tuple[str, ...], list_file: str | None) -> Install:
    """Install ``packages`` with apt, read from ``list_file`` or, if None, named inline."""

    if list_file is None:
        command = _apt_install(shlex.join(packages))
    else:
        command = (
            "apt-get update && DEBIAN_FRONTEND=noninteractive "
            f"xargs -a {list_file} apt-get install -y --no-install-recommends && {APT_CLEANUP}"
        )
    return Install("apt", packages, command)


def _pip_transaction(packages: tuple[str, ...], list_file: str | None) -> Install:
    """Install ``packages`` with pip, read from ``list_file`` or, if None, named inline."""

    bootstrap = (
        "if ! command -v pip3 >/dev/null; then " + _apt_install("python3-pip") + "; fi"
    )
    source = shlex.join(packages) if list_file is None else f"-r {list_file}"
    command = bootstrap + " && pip3 install --no-cache-dir " + source
    return Install("pip", packages, command)


def _clone_transaction(workspace_dir: str) -> str:
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
    return _run(bootstrap + " && " + loop)


def _repos_lines(repos: tuple[RepoSpec, ...]) -> list[str]:
    lines = []
    for repo in repos:
        parts = [repo.local_name, repo.url]
        if repo.version:
            parts.append(repo.version)
        lines.append(" ".join(parts))
    return lines


def _merged(resolved: ResolvedDependencies, spec: ImageSpec) -> tuple[tuple[str, ...], ...]:
    """The OS and the pip packages that ``resolved`` and the spec's extras name, each sorted."""

    return (
        tuple(sorted({*resolved.ros_distro_pkgs, *resolved.system_pkgs, *spec.extra_apt})),
        tuple(sorted({*resolved.python_pkgs, *spec.extra_pip})),
    )


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
    shared_os, shared_pip = _merged(shared, spec)
    all_os, all_pip = _merged(resolved, spec)
    delta_os = tuple(sorted(set(all_os) - set(shared_os)))
    delta_pip = tuple(sorted(set(all_pip) - set(shared_pip)))

    instructions: dict[str, tuple[Instruction, ...]] = {}

    # base: the guarded ROS core install shared by every lineage.
    instructions["base"] = (
        f"ARG ROS_DISTRO={_arg_value(spec.ros_distro)}",
        "ENV ROS_DISTRO=${ROS_DISTRO}",
        _ros_core_guard(spec.ros_version),
    )

    # dependencies: manifests and repository lists only, then the three
    # dependency artifact files consumed by dependencies-install.
    manifests = [
        ("package.xml" if source_dir == "." else f"{source_dir}/package.xml", f"{ws}/{rel}/package.xml")
        for source_dir, rel in package_dirs
    ]
    manifests += [(name, f"{ws}/{name}") for name in sorted(spec.repos_files)]
    dep_instructions: list[Instruction] = [f"WORKDIR {ws}", *_copies(manifests, ws)]
    artifact_cmd = (
        f"mkdir -p {ARTIFACT_DIR} && "
        + _write_lines_cmd(APT_LIST, shared_os)
        + " && "
        + _write_lines_cmd(PIP_LIST, shared_pip)
        + " && "
        + _write_lines_cmd(REPOS_LIST, _repos_lines(repos))
    )
    dep_instructions.append(_run(artifact_cmd))
    instructions["dependencies"] = tuple(dep_instructions)

    # dependencies-install: consume the artifacts; shared by dev and run.
    install_instructions: list[Instruction] = [
        f"WORKDIR {ws}",
        CopyFromStage("dependencies", ARTIFACT_DIR, ARTIFACT_DIR),
    ]
    if shared_os:
        install_instructions.append(_os_transaction(shared_os, APT_LIST))
    if shared_pip:
        install_instructions.append(_pip_transaction(shared_pip, PIP_LIST))
    if spec.custom_script_pre is not None:
        install_instructions.append(
            CopyContext((spec.custom_script_pre,), f"{ARTIFACT_DIR}/custom-pre.sh")
        )
        install_instructions.append(_run(f"sh {ARTIFACT_DIR}/custom-pre.sh"))
    if repos:
        for var in required_credential_vars(repos):
            install_instructions.append(f"ARG {var}")
        install_instructions.append(_clone_transaction(ws))
    if spec.custom_script_post is not None:
        install_instructions.append(
            CopyContext((spec.custom_script_post,), f"{ARTIFACT_DIR}/custom-post.sh")
        )
        install_instructions.append(_run(f"sh {ARTIFACT_DIR}/custom-post.sh"))
    install_instructions.append(_entrypoint_script_cmd(ws))
    instructions["dependencies-install"] = tuple(install_instructions)

    # dev: the build-only dependency remainder (slim mode), build tooling,
    # full source, and a non-root user.
    dev_instructions: list[Instruction] = [_run(_USER_SETUP)]
    if delta_os:
        dev_instructions.append(_os_transaction(delta_os, None))
    if delta_pip:
        dev_instructions.append(_pip_transaction(delta_pip, None))
    tooling = ["build-essential", "git"]
    if spec.build_tool == "colcon":
        tooling.append("python3-colcon-common-extensions")
    dev_instructions.append(_run(_apt_install(" ".join(sorted(tooling)))))
    # The source roots: each top-level directory that holds a package, or
    # the context root for a package there. The .dockerignore text keeps
    # all but the package directories out of each.
    roots = {p.source_dir.split("/", 1)[0]: p.name for p in packages}
    dev_instructions += _copies(
        ((f"{root}/", f"{ws}/{_container_rel_dir(root, name)}/") for root, name in sorted(roots.items())),
        ws,
        "1000:1000",
    )
    dev_instructions.append(
        _run(
            f"install -d -o 1000 -g 1000 {ws}/build {ws}/install {ws}/log && "
            f"chown 1000:1000 {ws} {ws}/src"
        )
    )
    dev_instructions += ["USER ros", *_entrypoint_lines(("bash",))]
    instructions["dev"] = tuple(dev_instructions)

    # build and run: the deployment lineage, kept only for the run target.
    if spec.build_tool == "catkin":
        build_cmd = f"catkin_make_isolated --install --install-space {ws}/install"
    else:
        build_cmd = f"colcon build --install-base {ws}/install"
    setup = '. "/opt/ros/${ROS_DISTRO}/setup.sh" && '
    instructions["build"] = (_run(setup + build_cmd),)

    run_instructions: list[Instruction] = [
        CopyFromStage("build", f"{ws}/install", f"{ws}/install"),
    ]
    if spec.nonroot_run:
        run_instructions += [_run(_USER_SETUP), _run(f"chown -R 1000:1000 {ws}"), "USER ros"]
    run_instructions += _entrypoint_lines(spec.launch_command)
    instructions["run"] = tuple(run_instructions)

    return DockerfilePlan(
        stages={row.name: instructions[row.name] for row in STAGES if spec.target in row.targets},
        base_image=spec.base_image or f"ros:{spec.ros_distro}",
        target=spec.target,
        workspace_dir=ws,
        slim_runtime=spec.slim_runtime,
        context_paths=context_paths,
    )


# --- validation ------------------------------------------------------------


# Most layers, RUN and COPY instructions, one lineage may hold. Docker's
# overlay2 driver stacks at most 128 layers, the base image's own included,
# so forge keeps its share well below that. No plan's count depends on the
# number of packages; the largest, with every option, holds 18.
MAX_LINEAGE_LAYERS = 32


def _lineage(plan: DockerfilePlan, name: str) -> Iterator[Instruction]:
    """The instructions of stage ``name`` and of the planned stages it derives from."""

    while name in plan.stages:
        yield from plan.stages[name]
        name = _ROWS[name].parent


def _lineage_packages(plan: DockerfilePlan, name: str, manager: str) -> set[str]:
    """What ``manager`` installs in stage ``name`` and the planned stages it derives from."""

    installs = [i for i in _lineage(plan, name) if isinstance(i, Install) and i.manager == manager]
    return {package for install in installs for package in install.packages}


def validate_plan(plan: DockerfilePlan) -> list[Violation]:
    """Check the stage graph invariants; an empty list means conformant.

    Build context copies are checked against the :data:`STAGES` row of
    their stage, and each lineage is read through the rows' parents.
    """

    violations: list[Violation] = []
    for name, stage in plan.stages.items():
        context = _ROWS[name].context
        for src in (src for i in stage if isinstance(i, CopyContext) for src in i.srcs):
            if context == "none":
                violations.append(
                    Violation(
                        stage=name,
                        rule="no-source-leak",
                        detail=f"copies {src!r} from the build context",
                    )
                )
            elif context == "manifests" and not src.endswith(("package.xml", ".repos")):
                violations.append(
                    Violation(
                        stage=name,
                        rule="manifests-only",
                        detail=f"copies {src!r}, not a manifest or repository list",
                    )
                )
            elif context == "roots":
                head, slash, tail = src.partition("/")
                if not slash or tail or head in ("", ".."):
                    violations.append(
                        Violation(
                            stage=name,
                            rule="source-roots-only",
                            detail=f"copies {src!r}, not a whole top-level directory",
                        )
                    )
        layers = sum(not isinstance(i, str) or i.startswith("RUN ") for i in _lineage(plan, name))
        if layers > MAX_LINEAGE_LAYERS:
            detail = f"its lineage holds {layers} layers, more than {MAX_LINEAGE_LAYERS}"
            violations.append(Violation(stage=name, rule="lineage-layers", detail=detail))

    if plan.target == "run":
        cross = [i for i in plan.stages["run"] if isinstance(i, CopyFromStage)]
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

        for manager in ("apt", "pip"):
            dev_packages = _lineage_packages(plan, "dev", manager)
            run_packages = _lineage_packages(plan, "run", manager)
            if not dev_packages >= run_packages:
                violations.append(
                    Violation(
                        stage="dev",
                        rule="install-superset",
                        detail=(
                            f"{manager} packages {sorted(run_packages - dev_packages)} "
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
                            f"{manager} packages differ without slim_runtime: "
                            f"{sorted(dev_packages ^ run_packages)}"
                        ),
                    )
                )

    return violations


# --- rendering -------------------------------------------------------------


# An ARG default BuildKit's shell-word lexer reads as it is written: no
# whitespace, which ends the word, and no escape, quote or variable.
_PLAIN_ARG_RE = re.compile(r"[^\s\\\"$']+")


def _arg_value(value: str) -> str:
    """``value`` written so that BuildKit reads exactly it as an ``ARG`` default.

    Between double quotes BuildKit's lexer reads ``\\`` before ``\\``, ``"``
    or ``$`` as an escape, and every other character as it is.
    """

    if _PLAIN_ARG_RE.fullmatch(value):
        return value
    return '"' + re.sub(r'[\\"$]', r"\\\g<0>", value) + '"'


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
# What such a pattern, and a .dockerignore pattern, read as a wildcard or an escape.
_PATTERN_SPECIAL_RE = re.compile(r"[\\*?[]")
_PATTERN_LITERAL = {"\\": "\\\\", "*": "[*]", "?": "[?]", "[": "[[]"}


def _copy_word(path: str, is_source: bool) -> str:
    """``path`` written so that BuildKit's COPY reads exactly it, as a source or a destination."""

    if is_source and (wildcard := _WILDCARD_RE.search(path)):
        start = path.rfind("/", 0, wildcard.start()) + 1
        pattern = _PATTERN_SPECIAL_RE.sub(lambda m: _PATTERN_LITERAL[m[0]], path[start:])
        path = path[:start] + pattern
    return _LEXER_SPECIAL_RE.sub(r"\\\g<0>", path)


def _copy(flags: list[str], srcs: tuple[str, ...], dst: str) -> str:
    """The COPY of ``srcs`` to ``dst``, each operand read by BuildKit as exactly that path.

    The operands are in the JSON-array form when one holds whitespace or a
    control character, or when the first source starts with ``[``, which
    BuildKit would try to read as that form. A COPY of one source is one
    line; one of more sources puts each operand on a line of its own, so
    no line grows with the number of sources.
    """

    head = " ".join(["COPY", *flags])
    joint = " " if len(srcs) == 1 else " \\\n    "
    paths = [*srcs, dst]
    if all(_PLAIN_OPERAND_RE.fullmatch(path) for path in paths):
        return joint.join([head, *paths])
    words = [*(_copy_word(src, True) for src in srcs), _copy_word(dst, False)]
    if words[0].startswith("[") or _SPACE_OR_CONTROL_RE.search("".join(paths)):
        return head + joint + json.dumps(words, ensure_ascii=False, separators=("," + joint, ":"))
    return joint.join([head, *words])


def _render_instruction(instruction: Instruction) -> str:
    if isinstance(instruction, str):
        return instruction
    if isinstance(instruction, CopyContext):
        flags = ["--parents"] if len(instruction.srcs) > 1 else []
        if instruction.chown:
            flags.append(f"--chown={instruction.chown}")
        return _copy(flags, instruction.srcs, instruction.dst)
    if isinstance(instruction, CopyFromStage):
        return _copy([f"--from={instruction.stage}"], (instruction.src,), instruction.dst)
    return _run(instruction.command)


def render(plan: DockerfilePlan) -> str:
    """Render a plan to Dockerfile text, byte-deterministic for equal plans.

    The four header lines name the sha256 of the body below them, from
    ``ARG BASE_IMAGE`` to the end, so ``tail -n +5 Dockerfile | sha256sum``
    checks a file against its header.
    """

    from . import GENERATOR_NAME, __version__

    lines = [f"ARG BASE_IMAGE={_arg_value(plan.base_image)}"]
    for name, stage in plan.stages.items():
        lines += ("", f"FROM {_ROWS[name].parent} AS {name}")
        lines += map(_render_instruction, stage)
    body = "\n".join(lines) + "\n"
    digest = hex_digest("sha256", body.encode("utf-8"))
    return (
        "# syntax=docker/dockerfile:1-labs\n"
        f"# Generated by {GENERATOR_NAME} {__version__} (plan sha256 {digest})\n"
        "# Regenerate instead of editing by hand.\n"
        "\n" + body
    )


def plan_digest(dockerfile: str) -> str:
    """The plan sha256 that :func:`render` names in the header of ``dockerfile``."""

    return dockerfile.split("\n", 2)[1].rpartition(" ")[2].rstrip(")")


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
        text += "*\n" + _PATTERN_SPECIAL_RE.sub(r"\\\g<0>", patterns)
    if workspace_ignore:
        text += "# The workspace's own .dockerignore:\n" + workspace_ignore
        if not workspace_ignore.endswith("\n"):
            text += "\n"
    return text
