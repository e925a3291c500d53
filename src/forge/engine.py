"""Container engine command synthesis and execution.

Argv construction is pure and fully covered by unit tests; process
execution sits behind a small driver seam so tests (and ``--dry-run``)
can record commands instead of spawning anything. The engine binary is
``docker`` by default but any CLI-compatible engine (podman) works.
"""

from __future__ import annotations

import json
import shutil
import threading
from typing import NamedTuple, Protocol, Sequence

from .errors import (
    EngineUnavailable,
    InvalidRequest,
    MalformedEngineOutput,
    NonZeroExit,
)

# Engine verb to acceptable argv[0] values; multi-platform builds go
# through the buildx subcommand.
_VERB_HEADS = {
    "build": ("build", "buildx"),
    "run": ("run",),
    "exec": ("exec",),
    "inspect": ("inspect",),
    "rm": ("rm",),
}


class _EngineCommandFields(NamedTuple):
    verb: str
    argv: tuple[str, ...]


class EngineCommand(_EngineCommandFields):
    """One engine CLI invocation, without the engine binary itself."""

    __slots__ = ()

    def __new__(cls, verb: str, argv: tuple[str, ...]) -> EngineCommand:
        if verb not in _VERB_HEADS:
            raise InvalidRequest(f"unknown engine verb {verb!r}")
        if not argv or argv[0] not in _VERB_HEADS[verb]:
            raise InvalidRequest(
                f"argv for {verb!r} must start with " + " or ".join(_VERB_HEADS[verb])
            )
        return super().__new__(cls, verb, argv)


class EngineResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class ContainerState(NamedTuple):
    name: str
    exists: bool
    running: bool


class Mount(NamedTuple):
    host: str
    container: str
    mode: str = "rw"


class RunInvocation(NamedTuple):
    """A fully synthesized ``run`` request.

    ``passthrough`` tokens are forwarded verbatim and contiguously, right
    before the image reference.
    """

    image: str
    name: str | None = None
    env: tuple[tuple[str, str], ...] = ()
    mounts: tuple[Mount, ...] = ()
    gpu_all: bool = False
    user_map: tuple[int, int] | None = None
    workdir: str | None = None
    interactive_tty: bool = True
    remove_on_exit: bool = True
    passthrough: tuple[str, ...] = ()
    command: tuple[str, ...] = ()


class BuildRequest(NamedTuple):
    context: str
    dockerfile_path: str
    target: str
    tags: tuple[str, ...]
    platforms: tuple[str, ...] = ("amd64",)
    build_args: tuple[tuple[str, str], ...] = ()
    push: bool = False


def _platform_ref(arch: str) -> str:
    return arch if "/" in arch else f"linux/{arch}"


def build_argv(request: BuildRequest) -> EngineCommand:
    """Engine argv for one image build.

    Sections are ordered: file, target, platforms, build args (sorted by
    name), tags, context. Multi-platform requests (and pushes) use the
    multi-platform builder form.
    """

    if not request.tags:
        raise InvalidRequest("a build request needs at least one tag")
    if not request.platforms:
        raise InvalidRequest("a build request needs at least one platform")

    multi = len(request.platforms) > 1 or request.push
    argv: list[str] = ["buildx", "build"] if multi else ["build"]
    argv += ["--file", request.dockerfile_path, "--target", request.target]
    argv += ["--platform", ",".join(_platform_ref(p) for p in request.platforms)]
    for name, value in sorted(request.build_args):
        argv += ["--build-arg", f"{name}={value}"]
    for tag in request.tags:
        argv += ["--tag", tag]
    if request.push:
        argv.append("--push")
    argv.append(request.context)
    return EngineCommand(verb="build", argv=tuple(argv))


def run_argv(invocation: RunInvocation) -> EngineCommand:
    """Engine argv for one container run.

    Section order: removal and interactivity flags, name, environment,
    mounts, GPU access, user mapping, working directory, passthrough
    (verbatim, contiguous), image, command.
    """

    argv: list[str] = ["run"]
    if invocation.remove_on_exit:
        argv.append("--rm")
    if invocation.interactive_tty:
        argv.append("-it")
    if invocation.name:
        argv += ["--name", invocation.name]
    for key, value in sorted(invocation.env):
        argv += ["--env", f"{key}={value}"]
    for mount in invocation.mounts:
        argv += ["--volume", f"{mount.host}:{mount.container}:{mount.mode}"]
    if invocation.gpu_all:
        argv += ["--gpus", "all"]
    if invocation.user_map is not None:
        uid, gid = invocation.user_map
        argv += ["--user", f"{uid}:{gid}"]
    if invocation.workdir:
        argv += ["--workdir", invocation.workdir]
    argv += list(invocation.passthrough)
    argv.append(invocation.image)
    argv += list(invocation.command)
    return EngineCommand(verb="run", argv=tuple(argv))


def exec_argv(
    name: str,
    command: Sequence[str],
    interactive: bool,
    user_map: tuple[int, int] | None,
) -> EngineCommand:
    argv: list[str] = ["exec"]
    if interactive:
        argv.append("-it")
    if user_map is not None:
        argv += ["--user", f"{user_map[0]}:{user_map[1]}"]
    argv.append(name)
    argv += list(command)
    return EngineCommand(verb="exec", argv=tuple(argv))


def rm_argv(name: str) -> EngineCommand:
    return EngineCommand(verb="rm", argv=("rm", "-f", name))


def inspect_argv(name: str) -> EngineCommand:
    return EngineCommand(verb="inspect", argv=("inspect", "--type", "container", name))


class EngineDriver(Protocol):
    def execute(self, command: EngineCommand) -> EngineResult: ...


class SubprocessDriver:
    """Runs engine commands through the engine's own CLI binary."""

    def __init__(self, binary: str) -> None:
        self.binary = binary

    def available(self) -> bool:
        return shutil.which(self.binary) is not None

    def execute(self, command: EngineCommand) -> EngineResult:
        if not self.available():
            raise EngineUnavailable(f"engine binary {self.binary!r} not found on PATH")
        # Imported here, so commands that spawn nothing do not load it.
        import subprocess

        completed = subprocess.run(
            [self.binary, *command.argv],
            capture_output=True,
            text=True,
            check=False,
        )
        return EngineResult(
            exit_code=completed.returncode,
            stdout=completed.stdout,
            stderr=completed.stderr,
        )


def execute(command: EngineCommand, driver: EngineDriver) -> EngineResult:
    """Run one command; a non-zero exit raises NonZeroExit."""

    result = driver.execute(command)
    if result.exit_code != 0:
        raise NonZeroExit(list(command.argv), result.exit_code, result.stderr)
    return result


def inspect_container(name: str, driver: EngineDriver) -> ContainerState:
    """Existence and run state of a named container."""

    result = driver.execute(inspect_argv(name))
    if result.exit_code != 0:
        return ContainerState(name=name, exists=False, running=False)
    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        raise MalformedEngineOutput(f"inspect output is not JSON: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        return ContainerState(name=name, exists=False, running=False)
    try:
        running = bool(doc[0]["State"]["Running"])
    except (KeyError, TypeError, IndexError) as exc:
        raise MalformedEngineOutput("inspect output lacks State.Running") from exc
    return ContainerState(name=name, exists=True, running=running)


def run_builds(
    tagged_commands: Sequence[tuple[str, EngineCommand]],
    driver: EngineDriver,
    max_workers: int,
) -> list[EngineResult]:
    """Execute builds with bounded parallelism, serialized per image tag."""

    locks: dict[str, threading.Lock] = {}
    for tag, _ in tagged_commands:
        locks.setdefault(tag, threading.Lock())

    def worker(item: tuple[str, EngineCommand]) -> EngineResult:
        tag, command = item
        with locks[tag]:
            return execute(command, driver)

    if max_workers <= 1 or len(tagged_commands) <= 1:
        return [worker(item) for item in tagged_commands]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(worker, tagged_commands))
