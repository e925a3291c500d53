"""Container engine command synthesis and execution.

An engine command is just its argv without the engine binary, a tuple
whose head is a literal written here. Argv construction is pure and fully
covered by unit tests; process execution, captured or on the terminal,
sits behind a small driver seam so tests (and ``--dry-run``) can record
commands instead of spawning anything. Credentials are build args passed
by name only (``--build-arg NAME``), so their values stay in the
engine's environment and never enter an argv. The engine binary is
``docker`` by default but any CLI-compatible engine (podman) works.
"""

from __future__ import annotations

from typing import NamedTuple, Protocol, Sequence

from .errors import EngineUnavailable, MalformedEngineOutput, NonZeroExit

# One engine CLI invocation: its argv without the engine binary itself.
EngineCommand = tuple[str, ...]


class EngineResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


class ContainerState(NamedTuple):
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
    build_args: tuple[tuple[str, str | None], ...] = ()
    push: bool = False


def _platform_ref(arch: str) -> str:
    return arch if "/" in arch else f"linux/{arch}"


def build_argv(request: BuildRequest) -> EngineCommand:
    """Engine argv for one image build.

    Sections are ordered: file, target, platforms, build args (sorted by
    name), tags, context. A build arg whose value is None is passed by
    name alone, so the engine reads the value from its own environment.
    Multi-platform requests (and pushes) use the multi-platform builder
    form.
    """

    multi = len(request.platforms) > 1 or request.push
    argv: list[str] = ["buildx", "build"] if multi else ["build"]
    argv += ["--file", request.dockerfile_path, "--target", request.target]
    argv += ["--platform", ",".join(_platform_ref(p) for p in request.platforms)]
    for name, value in sorted(request.build_args):
        argv += ["--build-arg", name if value is None else f"{name}={value}"]
    for tag in request.tags:
        argv += ["--tag", tag]
    if request.push:
        argv.append("--push")
    argv.append(request.context)
    return tuple(argv)


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
    return tuple(argv)


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
    return tuple(argv)


def rm_argv(name: str) -> EngineCommand:
    return ("rm", "-f", name)


def inspect_argv(name: str) -> EngineCommand:
    return ("inspect", "--type", "container", name)


class EngineDriver(Protocol):
    def execute(self, command: EngineCommand) -> EngineResult: ...

    # Runs the command on this process's terminal and returns its exit code.
    def attach(self, command: EngineCommand) -> int: ...


class SubprocessDriver:
    """Runs engine commands through the engine's own CLI binary."""

    def __init__(self, binary: str) -> None:
        self.binary = binary

    def _spawn(self, command: EngineCommand, capture: bool) -> EngineResult:
        # Imported here, so commands that spawn nothing do not load it.
        import subprocess

        try:
            completed = subprocess.run(
                [self.binary, *command], capture_output=capture, text=True, check=False
            )
        except (FileNotFoundError, PermissionError) as exc:
            raise EngineUnavailable(f"engine binary {self.binary!r} not found on PATH") from exc
        return EngineResult(completed.returncode, completed.stdout or "", completed.stderr or "")

    def execute(self, command: EngineCommand) -> EngineResult:
        return self._spawn(command, capture=True)

    def attach(self, command: EngineCommand) -> int:
        return self._spawn(command, capture=False).exit_code


def execute(command: EngineCommand, driver: EngineDriver) -> EngineResult:
    """Run one command; a non-zero exit raises NonZeroExit."""

    result = driver.execute(command)
    if result.exit_code != 0:
        raise NonZeroExit(list(command), result.exit_code, result.stderr)
    return result


def inspect_container(name: str, driver: EngineDriver) -> ContainerState:
    """Existence and run state of a named container."""

    result = driver.execute(inspect_argv(name))
    if result.exit_code != 0:
        return ContainerState(exists=False, running=False)
    import json

    try:
        doc = json.loads(result.stdout)
    except json.JSONDecodeError as exc:
        raise MalformedEngineOutput(f"inspect output is not JSON: {exc}") from exc
    if not isinstance(doc, list) or not doc:
        return ContainerState(exists=False, running=False)
    try:
        running = bool(doc[0]["State"]["Running"])
    except (KeyError, TypeError, IndexError) as exc:
        raise MalformedEngineOutput("inspect output lacks State.Running") from exc
    return ContainerState(exists=True, running=running)


def run_builds(
    commands: Sequence[EngineCommand],
    driver: EngineDriver,
    max_workers: int,
) -> list[EngineResult]:
    """Execute builds with bounded parallelism; each builds its own tag."""

    if max_workers <= 1 or len(commands) <= 1:
        return [execute(command, driver) for command in commands]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(lambda command: execute(command, driver), commands))
