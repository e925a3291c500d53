"""Ergonomic development runs: probe the host, synthesize the run.

The host probe gathers display, GPU, identity and workspace facts; the
synthesizer turns those plus user wishes into a :class:`RunInvocation`
with X11 forwarding, GPU access, user mapping and a source mount, each
individually suppressible. Attach logic reuses a running container of
the same name instead of starting a second one.

Plugins are pure invocation transforms. External plugins are executable
files in a configuration directory; they receive the invocation as a
versioned JSON document on stdin and print the transformed document.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .engine import (
    ContainerState,
    EngineCommand,
    Mount,
    RunInvocation,
    exec_argv,
    rm_argv,
    run_argv,
)
from .errors import InvalidArgs, PluginViolation

X11_SOCKET_DIR = "/tmp/.X11-unix"
SCHEMA_ID = "forge.run-invocation/1"

_NAME_OK_RE = re.compile(r"[a-zA-Z0-9][a-zA-Z0-9_.-]*")

PluginTransform = tuple[str, Callable[[RunInvocation], RunInvocation]]


class HostEnvironment(NamedTuple):
    """Facts about the machine a development container will run on."""

    display: str | None
    gpu_count: int
    uid: int
    gid: int
    cwd: Path
    detected_workspace: Path | None
    tty_available: bool


class UserArgs(NamedTuple):
    """What the user asked for on the command line."""

    image: str
    command: tuple[str, ...] = ()
    name: str | None = None
    no_x11: bool = False
    no_gpu: bool = False
    no_user_map: bool = False
    mount_workspace: bool = True
    passthrough: tuple[str, ...] = ()


def _count_gpus() -> int:
    binary = shutil.which("nvidia-smi")
    if binary is None:
        return 0
    import subprocess

    try:
        completed = subprocess.run(
            [binary, "--list-gpus"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return 0
    if completed.returncode != 0:
        return 0
    return sum(1 for line in completed.stdout.splitlines() if line.strip())


def _find_workspace(start: Path) -> Path | None:
    """Nearest ancestor (or start itself) whose src/ holds a manifest."""

    for candidate in (start, *start.parents):
        src = candidate / "src"
        if src.is_dir():
            try:
                found = next(src.rglob("package.xml"), None)
            except OSError:
                found = None
            if found is not None:
                return candidate
    return None


def probe_host() -> HostEnvironment:
    """Inspect the host this process runs on."""

    cwd = Path.cwd()
    return HostEnvironment(
        display=os.environ.get("DISPLAY") or None,
        gpu_count=_count_gpus(),
        uid=os.getuid(),
        gid=os.getgid(),
        cwd=cwd,
        detected_workspace=_find_workspace(cwd),
        tty_available=sys.stdin.isatty() and sys.stdout.isatty(),
    )


def default_container_name(image: str, cwd: Path) -> str:
    """Container name derived from the image and directory, sanitized."""

    repo = image.split("@", 1)[0]
    repo = repo.rsplit("/", 1)[-1]
    repo = repo.split(":", 1)[0]
    raw = f"{repo}-{cwd.name}" if cwd.name else repo
    cleaned = re.sub(r"[^a-zA-Z0-9_.-]", "-", raw)
    cleaned = cleaned.lstrip("-._")
    return cleaned or "forge-dev"


def synthesize_invocation(
    host: HostEnvironment, args: UserArgs, workspace_dir: str
) -> RunInvocation:
    """Fold host facts and user wishes into one run invocation.

    Feature rules: X11 forwarding iff a display exists and was not
    suppressed; GPU access iff GPUs exist and were not suppressed; user
    mapping unless suppressed; the workspace source mount iff requested
    and a workspace was detected. ``workspace_dir`` is an absolute path
    below ``/`` whose segments are ``[A-Za-z0-9_.-]+``.
    """

    env: list[tuple[str, str]] = []
    mounts: list[Mount] = []
    workdir: str | None = None

    if host.display is not None and not args.no_x11:
        env.append(("DISPLAY", host.display))
        mounts.append(Mount(X11_SOCKET_DIR, X11_SOCKET_DIR, "rw"))

    if args.mount_workspace and host.detected_workspace is not None:
        mounts.append(Mount(str(host.detected_workspace / "src"), f"{workspace_dir}/src", "rw"))
        workdir = workspace_dir

    invocation = RunInvocation(
        image=args.image,
        name=default_container_name(args.image, host.cwd) if args.name is None else args.name,
        env=tuple(sorted(env)),
        mounts=tuple(mounts),
        gpu_all=host.gpu_count > 0 and not args.no_gpu,
        user_map=None if args.no_user_map else (host.uid, host.gid),
        workdir=workdir,
        interactive_tty=host.tty_available,
        remove_on_exit=True,
        passthrough=tuple(args.passthrough),
        command=tuple(args.command),
    )
    problems = check_invocation(invocation)
    if problems:
        raise InvalidArgs("; ".join(problems))
    return invocation


def _pair_of(value: object, kind: type) -> bool:
    return isinstance(value, tuple) and len(value) == 2 and all(type(v) is kind for v in value)


def check_invocation(invocation: RunInvocation) -> list[str]:
    """Invariant problems of an invocation; empty means valid.

    This is the one check of a run invocation: synthesis ends with it and
    every plugin result passes it, so a field may hold a value of any type.
    """

    inv = invocation
    problems: list[str] = []
    if not isinstance(inv.image, str):
        problems.append(f"image must be a string, got {inv.image!r}")
    elif not inv.image:
        problems.append("image is empty")
    if not isinstance(inv.name, str) or not _NAME_OK_RE.fullmatch(inv.name):
        problems.append(f"container name {inv.name!r} is invalid")
    if not isinstance(inv.env, tuple) or not all(_pair_of(e, str) for e in inv.env):
        problems.append(f"env must hold pairs of strings, got {inv.env!r}")
    else:
        keys = [key for key, _ in inv.env]
        for duplicate in sorted({k for k in keys if keys.count(k) > 1}):
            problems.append(f"duplicate environment key {duplicate!r}")
    if not isinstance(inv.mounts, tuple) or not all(isinstance(m, Mount) for m in inv.mounts):
        problems.append(f"mounts must hold Mount entries, got {inv.mounts!r}")
    else:
        for mount in inv.mounts:
            if not isinstance(mount.host, str) or not isinstance(mount.container, str):
                problems.append(f"mount paths must be strings: {mount!r}")
            if mount.mode not in ("rw", "ro"):
                problems.append(f"invalid mount mode {mount.mode!r}")
        targets = [m.container for m in inv.mounts if isinstance(m.container, str)]
        for duplicate in sorted({t for t in targets if targets.count(t) > 1}):
            problems.append(f"duplicate mount target {duplicate!r}")
    if inv.user_map is not None and not _pair_of(inv.user_map, int):
        problems.append(f"user_map must be null or two integers, got {inv.user_map!r}")
    if inv.workdir is not None and not isinstance(inv.workdir, str):
        problems.append(f"workdir must be null or a string, got {inv.workdir!r}")
    for field in ("gpu_all", "interactive_tty", "remove_on_exit"):
        if not isinstance(getattr(inv, field), bool):
            problems.append(f"{field} must be a boolean, got {getattr(inv, field)!r}")
    for field in ("passthrough", "command"):
        tokens = getattr(inv, field)
        if not isinstance(tokens, tuple) or not all(isinstance(t, str) for t in tokens):
            problems.append(f"{field} must hold strings, got {tokens!r}")
    if not problems:
        # No process argument can hold a NUL byte; the name's pattern excludes it.
        texts = {
            "image": (inv.image,),
            "env": [text for pair in inv.env for text in pair],
            "mounts": [path for mount in inv.mounts for path in (mount.host, mount.container)],
            "workdir": (inv.workdir or "",),
            "passthrough": inv.passthrough,
            "command": inv.command,
        }
        for field, values in texts.items():
            if any("\0" in value for value in values):
                problems.append(f"{field} holds a NUL byte")
    return problems


def _is_contiguous_subsequence(needle: tuple[str, ...], haystack: tuple[str, ...]) -> bool:
    size = len(needle)
    return any(haystack[at : at + size] == needle for at in range(len(haystack) - size + 1))


def apply_plugins(
    invocation: RunInvocation, plugins: Sequence[PluginTransform]
) -> RunInvocation:
    """Left-fold plugin transforms over the invocation.

    Invariants are re-checked after every step; passthrough tokens must
    survive in order and contiguously. A failure names the plugin.
    """

    current = invocation
    for name, transform in plugins:
        candidate = transform(current)
        problems = check_invocation(candidate)
        if not problems and not _is_contiguous_subsequence(
            current.passthrough, candidate.passthrough
        ):
            problems.append("passthrough tokens were reordered or rewritten")
        if problems:
            raise PluginViolation(name, problems)
        current = candidate
    return current


def attach_or_run(
    invocation: RunInvocation, state: ContainerState
) -> tuple[EngineCommand, ...]:
    """Commands realizing the attach decision for the invocation's container.

    Running container: exec an interactive shell under the same user
    mapping. Stopped container of the same name: remove, then run. No
    container: run. The invocation has passed :func:`check_invocation`.
    """

    name = invocation.name
    if state.running:
        return (
            exec_argv(
                name,
                ("bash",),
                interactive=invocation.interactive_tty,
                user_map=invocation.user_map,
            ),
        )
    if state.exists:
        return (rm_argv(name), run_argv(invocation))
    return (run_argv(invocation),)


# --- external plugin interface --------------------------------------------


def invocation_to_doc(invocation: RunInvocation) -> dict[str, object]:
    """Serialize an invocation to the versioned plugin document."""

    doc = invocation._asdict()
    doc["env"] = dict(invocation.env)
    doc["mounts"] = [mount._asdict() for mount in invocation.mounts]
    return {"schema": SCHEMA_ID, **doc}


def invocation_from_doc(doc: dict[str, object]) -> RunInvocation:
    """Map the plugin document back onto an invocation's fields.

    Lists become tuples, the env mapping sorted pairs and each mount
    mapping a :class:`Mount`; an absent field takes its default. Values
    are not coerced, :func:`check_invocation` judges them.
    """

    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_ID:
        raise InvalidArgs(f"plugin document must declare schema {SCHEMA_ID!r}")
    fields = {key: doc[key] for key in RunInvocation._fields if key in doc}
    for key, value in fields.items():
        if isinstance(value, list):
            fields[key] = tuple(value)
    if isinstance(fields.get("env"), dict):
        fields["env"] = tuple(sorted(fields["env"].items()))
    try:
        if isinstance(fields.get("mounts"), tuple):
            fields["mounts"] = tuple(Mount(**mount) for mount in fields["mounts"])
        return RunInvocation(**fields)
    except TypeError as exc:
        raise InvalidArgs(f"malformed plugin document: {exc}") from exc


def _external_transform(path: Path) -> Callable[[RunInvocation], RunInvocation]:
    def transform(invocation: RunInvocation) -> RunInvocation:
        import json
        import subprocess

        payload = json.dumps(invocation_to_doc(invocation))
        try:
            completed = subprocess.run(
                [str(path)],
                input=payload,
                capture_output=True,
                text=True,
                timeout=30,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise PluginViolation(path.name, [f"could not execute: {exc}"]) from exc
        if completed.returncode != 0:
            raise PluginViolation(
                path.name,
                [f"exited {completed.returncode}: {completed.stderr.strip()}"],
            )
        try:
            doc = json.loads(completed.stdout)
        except (ValueError, RecursionError) as exc:
            raise PluginViolation(path.name, [f"emitted invalid JSON: {exc}"]) from exc
        try:
            return invocation_from_doc(doc)
        except InvalidArgs as exc:
            raise PluginViolation(path.name, [str(exc)]) from exc

    return transform


def load_plugins(config_dir: Path) -> list[PluginTransform]:
    """Executable plugin files in ``config_dir``, ordered by file name."""

    try:
        paths = sorted(config_dir.iterdir())
    except OSError as exc:
        raise InvalidArgs(f"cannot list --plugin-dir {str(config_dir)!r}: {exc.strerror}") from exc
    plugins: list[PluginTransform] = []
    for path in paths:
        if path.is_file() and os.access(path, os.X_OK):
            plugins.append((path.name, _external_transform(path)))
    return plugins
