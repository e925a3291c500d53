"""Command line frontend.

Subcommands: ``analyze`` (dependency report), ``generate dockerfile`` and
``generate ci`` (emit files), ``build`` (generate plus engine build),
``matrix`` (list or build the prebuilt base image matrix), ``run``
(ergonomic development container) and ``bench startup`` (container
startup overhead report).

Exit codes: 0 on success, 1 for engine or internal failures, 2 for user
or input errors, 130 when interrupted. Each subcommand takes only the
options its handler reads. ``--dry-run`` runs no engine command and
writes only the files named on the command line.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import io
import os
import re
import shlex
import sys
import time
from pathlib import Path, PurePosixPath
from typing import Callable, NamedTuple, NoReturn

from . import ARCHITECTURES, KNOWN_DISTROS, TARGETS, __version__
from .errors import (
    ConfigError,
    ForgeError,
    InvalidArgs,
    MalformedDatabase,
    MalformedReposFile,
    MissingCredential,
    NonZeroExit,
    UnreadableWorkspace,
    UnresolvedDependencies,
    UnwritableOutput,
    shown,
)
from .textio import dump_yaml, load_yaml, read_utf8

GENERATED_DIR = ".forge"

# The names this module uses from each layer. So that a command imports only
# the layers it runs, every function that uses one of these names first calls
# _bind for its layer; __getattr__ binds a name first read from outside.
_LAYER_NAMES = {
    "cigen": ("PipelineSpec", "default_output_path", "generate_pipeline"),
    "depgraph": (
        "DeclaredKeys", "DistroIndex", "ResolvedDependencies", "load_distro_index",
        "load_rosdep_db", "packaged_distro_index", "packaged_rosdep_db", "resolve",
        "runtime_subset",
    ),
    "devrun": (
        "UserArgs", "apply_plugins", "attach_or_run", "load_plugins", "probe_host",
        "synthesize_invocation",
    ),
    "dockergen": (
        "ImageSpec", "plan_digest", "plan_stages", "render", "render_dockerignore",
        "validate_plan",
    ),
    "engine": (
        "BuildRequest", "ContainerState", "EngineCommand", "EngineDriver", "SubprocessDriver",
        "build_argv", "execute", "inspect_container", "run_builds",
    ),
    "manifest": ("Workspace", "scan_workspace"),
    "matrix": (
        "MatrixEntry", "build_plan_document", "base_dockerfile_args", "enumerate_matrix",
        "load_base_image_table", "tag_of",
    ),
    "sources": (
        "ReposList", "clone_plan", "combine_repos", "parse_repos", "redact",
        "required_credential_vars", "safe_relative_path",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}


def _bind(*layers: str) -> None:
    """Import ``layers`` and bind their names here, keeping any already bound.

    A name that is already bound keeps its value, so a replacement set on
    this module (a test's monkeypatch, a tracing wrapper) stays in effect.
    """

    namespace = globals()
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _LAYER_NAMES[layer]:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str) -> object:
    """Bind a layer name on first access as an attribute (PEP 562)."""

    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(layer)
    return globals()[name]


class GlobalConfig(NamedTuple):
    """Layered configuration: flags beat environment beat file beat defaults."""

    registry: str = "localhost"
    default_distro: str = "humble"
    rosdep_db_paths: tuple[str, ...] = ()
    distro_index_path: str | None = None
    parallelism: int = 2
    strict: bool = False


def _parse_flag(value: object, name: str) -> bool:
    """A YAML bool, or one of the true/false words in any case."""

    if isinstance(value, bool):
        return value
    word = value.strip().lower() if isinstance(value, str) else None
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"{name} must be a boolean, got {shown(value)}")


def _parse_count(value: object, name: str) -> int:
    """A positive integer, or a string holding one; bools are rejected."""

    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError
        count = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {shown(value)}") from None
    if count < 1:
        raise ConfigError(f"{name} must be at least 1, got {count}")
    return count


def _parse_string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {shown(value)}")
    return value


def _parse_nonempty(value: object, name: str) -> str:
    if not (text := _parse_string(value, name)):
        raise ConfigError(f"{name} must be non-empty")
    return text


# An image registry as the Docker reference grammar writes the part of a
# name before the repository: host[:port][/path], where host is a domain
# name or a bracketed IPv6 address and each path component is lower case.
_DOMAIN_COMPONENT = r"(?:[a-zA-Z0-9]|[a-zA-Z0-9][a-zA-Z0-9-]*[a-zA-Z0-9])"
_REGISTRY_RE = re.compile(
    rf"(?:{_DOMAIN_COMPONENT}(?:\.{_DOMAIN_COMPONENT})*|\[[a-fA-F0-9:]+\])(?::[0-9]+)?"
    r"(?:/[a-z0-9]+(?:(?:[._]|__|-+)[a-z0-9]+)*)*"
)


def _parse_registry(value: object, name: str) -> str:
    if not _REGISTRY_RE.fullmatch(text := _parse_nonempty(value, name)):
        raise ConfigError(f"{name} must be a registry host[:port][/path], got {text!r}")
    return text


def _parse_distro(value: object, name: str) -> str:
    if (text := _parse_string(value, name)) not in KNOWN_DISTROS:
        raise ConfigError(f"{name}: unknown distro {text!r}")
    return text


def _parse_file(value: object, name: str) -> str:
    if not Path(text := _parse_string(value, name)).is_file():
        raise ConfigError(f"{name}: referenced file {text!r} does not exist")
    return text


def _parse_paths(value: object, name: str) -> tuple[str, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of paths")
    return tuple(_parse_file(p, name) for p in value)


# GlobalConfig field, forge.yaml key, environment variable, flag dest, parser.
# load_config takes each setting from its highest layer (a flag is given when
# not None) but parses every layer's value, so the first bad value in table
# order is the error. A parser checks type and range and names the layer;
# FORGE_ROSDEP_DBS is split on os.pathsep, and --rosdep-db extends the list.
_CONFIG_TABLE = (
    ("registry", "registry", "FORGE_REGISTRY", "registry", _parse_registry),
    ("default_distro", "default_distro", "FORGE_DISTRO", "distro", _parse_distro),
    ("rosdep_db_paths", "rosdep_dbs", "FORGE_ROSDEP_DBS", "rosdep_db", _parse_paths),
    ("distro_index_path", "distro_index", "FORGE_DISTRO_INDEX", "distro_index", _parse_file),
    ("parallelism", "parallelism", "FORGE_PARALLELISM", "parallelism", _parse_count),
    ("strict", "strict", "FORGE_STRICT", "strict", _parse_flag),
)


def load_config(args: argparse.Namespace, workspace_root: Path | None) -> GlobalConfig:
    explicit = getattr(args, "config", None)
    if explicit is None:
        config_path = (workspace_root or Path()) / "forge.yaml"
    else:
        config_path = Path(_parse_nonempty(explicit, "--config"))
    doc = {}
    if config_path.is_file():
        doc = load_yaml(read_utf8(config_path, ConfigError), config_path, ConfigError) or {}
        if not isinstance(doc, dict):
            raise ConfigError(f"{config_path}: the document is not a mapping")
    elif explicit:
        raise ConfigError(f"config file {explicit!r} not found")

    values: dict[str, object] = {}
    for field, key, var, dest, parse in _CONFIG_TABLE:
        if key in doc:
            values[field] = parse(doc[key], f"config key {key}")
        if var in os.environ:
            text = os.environ[var]
            value = [p for p in text.split(os.pathsep) if p] if parse is _parse_paths else text
            values[field] = parse(value, var)
        flag = getattr(args, dest, None)
        if flag is not None:
            value = parse(flag, "--" + dest.replace("_", "-"))
            values[field] = (*values.get(field, ()), *value) if parse is _parse_paths else value
    return GlobalConfig(**values)


class WorkspaceAnalysis(NamedTuple):
    """Everything derived from one workspace scan and resolution."""

    root: Path
    workspace: Workspace
    index: DistroIndex
    repos_files: tuple[str, ...]  # names of the *.repos files in the workspace root
    repos: ReposList
    resolved: ResolvedDependencies
    resolved_exec: ResolvedDependencies


def cache_dir() -> Path | None:
    """forge's cache directory: ``$XDG_CACHE_HOME/forge``, else ``~/.cache/forge``.

    None when neither base is an absolute path. Deleting it is always safe.
    """

    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "forge") if os.path.isabs(base) else None


def analyze_workspace(
    root: Path,
    cfg: GlobalConfig,
    repos_paths: tuple[str, ...],
    write_cache: bool,
) -> WorkspaceAnalysis:
    """Scan and resolve a workspace; ``write_cache=False`` only reads the cache."""

    _bind("depgraph", "manifest", "sources")
    if cfg.distro_index_path:
        path = cfg.distro_index_path
        index = load_distro_index(read_utf8(path, MalformedDatabase), path)
    else:
        index = packaged_distro_index(cfg.default_distro)

    documents, names = packaged_rosdep_db()
    for path in cfg.rosdep_db_paths:
        documents.append(read_utf8(path, MalformedDatabase))
        names.append(path)
    cache = cache_dir()
    db = load_rosdep_db(documents, names, cache_dir=cache, write_cache=write_cache)

    condition_env = {"ROS_VERSION": str(index.ros_version), "ROS_DISTRO": index.distro}
    workspace = scan_workspace(root, condition_env, cache_dir=cache, write_cache=write_cache)

    repos_files = sorted(root.glob("*.repos"))
    repos = combine_repos([
        (str(path), parse_repos(read_utf8(path, MalformedReposFile), str(path)))
        for path in [*repos_files, *repos_paths]
    ])

    declared = DeclaredKeys.from_workspace(workspace)
    internal = {pkg.name for pkg in workspace.packages}
    resolved = resolve(declared, db, index, internal, repos)
    resolved_exec = runtime_subset(resolved, declared, db, index, internal, repos)
    return WorkspaceAnalysis(
        root=root,
        workspace=workspace,
        index=index,
        repos_files=tuple(path.name for path in repos_files),
        repos=repos,
        resolved=resolved,
        resolved_exec=resolved_exec,
    )


def _analyze_args(args: argparse.Namespace) -> tuple[GlobalConfig, WorkspaceAnalysis]:
    """Config and analysis for a workspace subcommand's arguments."""

    root = Path(args.workspace)
    cfg = load_config(args, root if root.is_dir() else None)
    analysis = analyze_workspace(
        root, cfg, tuple(args.repos or ()), write_cache=not args.dry_run
    )
    return cfg, analysis


def _resolution_doc(analysis: WorkspaceAnalysis) -> dict[str, object]:
    doc: dict[str, object] = {
        "workspace": str(analysis.root),
        "distro": analysis.index.distro,
        "ros_version": analysis.index.ros_version,
        "packages": [p.name for p in analysis.workspace.packages],
        "source_repos": [
            {"name": r.local_name, "url": r.url, "version": r.version}
            for r in analysis.repos
        ],
    }
    # Each bucket under its scope, "all" or "exec_only".
    for resolved in (analysis.resolved, analysis.resolved_exec):
        buckets = resolved._asdict()
        doc[buckets.pop("scope")] = buckets
    return doc


def _print_bucket(label: str, items: tuple[str, ...]) -> None:
    if items:
        print(f"{label} ({len(items)}): " + ", ".join(items))
    else:
        print(f"{label} (0)")


def cmd_analyze(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    cfg, analysis = _analyze_args(args)
    resolved = analysis.resolved
    if args.format == "json":
        import json

        print(json.dumps(_resolution_doc(analysis), indent=2, sort_keys=True))
    elif args.format == "yaml":
        print(dump_yaml(_resolution_doc(analysis), sort_keys=True), end="")
    else:
        version = "ROS 1" if analysis.index.ros_version == 1 else "ROS 2"
        print(
            f"workspace: {analysis.root} "
            f"({len(analysis.workspace.packages)} packages)"
        )
        print(f"distro: {analysis.index.distro} ({version})")
        _print_bucket("internal", resolved.internal)
        _print_bucket("ros packages", resolved.ros_distro_pkgs)
        _print_bucket("system packages", resolved.system_pkgs)
        _print_bucket("python packages", resolved.python_pkgs)
        _print_bucket("source-satisfied keys", resolved.source_keys)
        if analysis.repos:
            print(
                f"source repos ({len(analysis.repos)}): "
                + ", ".join(r.local_name for r in analysis.repos)
            )
        _print_bucket("unresolved", resolved.unresolved)

    if cfg.strict and resolved.unresolved:
        raise UnresolvedDependencies(list(resolved.unresolved))
    return 0


def _render_for_workspace(
    args: argparse.Namespace, analysis: WorkspaceAnalysis, cfg: GlobalConfig
) -> tuple[str, str]:
    """The Dockerfile text and its ``.dockerignore`` text.

    The workspace's own ``.dockerignore``, which BuildKit skips when the
    Dockerfile has one of its own, is carried into the latter.
    """

    _bind("dockergen")
    spec = ImageSpec(
        ros_distro=analysis.index.distro,
        packages=tuple(analysis.workspace.packages),
        base_image=args.base or "",
        target=args.target,
        launch_command=args.command or ("bash",),
        workspace_dir=args.workspace_dir,
        repos_files=analysis.repos_files,
        source_repos=analysis.repos,
        custom_script_pre=args.script_pre,
        custom_script_post=args.script_post,
        extra_apt=tuple(args.extra_apt or ()),
        extra_pip=tuple(args.extra_pip or ()),
        slim_runtime=args.slim_runtime,
        strict=cfg.strict,
        nonroot_run=args.nonroot_run,
    )
    plan = plan_stages(
        spec, analysis.resolved, analysis.resolved_exec, context_root=analysis.root
    )
    violations = validate_plan(plan)
    if violations:
        details = "; ".join(f"{v.stage}: {v.rule}: {v.detail}" for v in violations)
        raise ForgeError(f"generated plan violates its invariants: {details}")
    own_ignore = analysis.root / ".dockerignore"
    workspace_ignore = read_utf8(own_ignore, UnreadableWorkspace) if own_ignore.is_file() else ""
    return render(plan), render_dockerignore(plan, workspace_ignore)


def cmd_generate_dockerfile(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    cfg, analysis = _analyze_args(args)
    text, ignore = _render_for_workspace(args, analysis, cfg)
    _write_output(text, args.output, str(analysis.root / "Dockerfile"), args.dry_run, ignore)
    return 0


def _write_file(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, creating its directory."""

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc.strerror}") from exc


def _write_dockerfile(path: Path, text: str, ignore: str) -> None:
    """Write a Dockerfile and, as ``<path>.dockerignore``, its ignore file."""

    _write_file(path, text)
    _write_file(Path(f"{path}.dockerignore"), ignore)


def _write_output(
    text: str, output: str | None, default: str, dry_run: bool, ignore: str | None = None
) -> None:
    """Print ``text`` for ``-``, else write it to ``output`` or ``default``.

    A Dockerfile's ``ignore`` text is written beside it, never printed. A
    dry run writes only a path named on the command line.
    """

    if output == "-":
        print(text, end="")
        return
    if dry_run and not output:
        also = "" if ignore is None else f" and {default}.dockerignore"
        print(f"[dry-run] would write {default}{also}")
        return
    path = Path(output or default)
    if ignore is None:
        _write_file(path, text)
    else:
        _write_dockerfile(path, text, ignore)
    print(f"wrote {path}")


def cmd_generate_ci(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("cigen")
    cfg = load_config(args, None)
    spec = PipelineSpec(
        platform=args.platform,
        image_name=args.image_name,
        registry=cfg.registry,
        platforms=tuple(dict.fromkeys(args.arch or ("amd64",))),
        enable_test_stage=bool(args.enable_test),
        push_on_branch=args.push_branch,
        base_image=args.base or "",
        target_stages=tuple(args.targets.split(",")) if args.targets else TARGETS,
    )
    text = generate_pipeline(spec)
    _write_output(text, args.output, default_output_path(args.platform), args.dry_run)
    return 0


def _print_dry_run(commands: list[EngineCommand], binary: str) -> None:
    for command in commands:
        print(f"[dry-run] {shlex.join([binary, *command])}")


def _make_driver(args: argparse.Namespace, driver: EngineDriver | None) -> EngineDriver:
    _bind("engine")
    return driver if driver is not None else SubprocessDriver(args.engine)


def cmd_build(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("engine", "sources")
    cfg, analysis = _analyze_args(args)
    text, ignore = _render_for_workspace(args, analysis, cfg)

    root = analysis.root
    dockerfile = Path(args.dockerfile_out or root / GENERATED_DIR / "Dockerfile")
    # A dry run writes nothing into the workspace, only to a path the user named.
    written = bool(args.dockerfile_out or not args.dry_run)
    if written:
        _write_dockerfile(dockerfile, text, ignore)

    needed = required_credential_vars(analysis.repos)
    missing = [name for name in needed if name not in os.environ]
    if missing:
        raise MissingCredential("credential variables not set: " + ", ".join(missing))
    for line in clone_plan(analysis.repos, f"{args.workspace_dir}/src"):
        print(line)

    tags = tuple(args.tag or (f"{cfg.registry}/{root.resolve().name}:{args.target}",))
    request = BuildRequest(
        context=str(root),
        dockerfile_path=str(dockerfile),
        target=args.target,
        tags=tags,
        platforms=tuple(dict.fromkeys(args.platform or ("amd64",))),
        # By name only: the engine reads each value from its environment.
        build_args=tuple((name, None) for name in needed),
        push=bool(args.push),
    )
    command = build_argv(request)

    if args.dry_run:
        if not written:
            print(
                f"[dry-run] would write {dockerfile} and {dockerfile}.dockerignore "
                f"(plan sha256 {plan_digest(text)})"
            )
        _print_dry_run([command], args.engine)
        return 0
    try:
        execute(command, _make_driver(args, driver))
    except NonZeroExit as exc:
        # The engine may echo a credential value (in a clone URL, say); the
        # original exception is dropped so no traceback holds it.
        secrets = [os.environ[name] for name in needed]
        raise NonZeroExit(exc.argv, exc.engine_exit_code, redact(exc.stderr, secrets)) from None
    print(f"built {', '.join(tags)}")
    return 0


def _matrix_entries(args: argparse.Namespace) -> list[MatrixEntry]:
    _bind("matrix")
    return enumerate_matrix(
        distros=args.distros or None,
        components=args.component or None,
        ml_flavors=args.ml or None,
        architectures=args.arch or None,
    )


def cmd_matrix_list(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("matrix")
    cfg = load_config(args, None)
    entries = _matrix_entries(args)
    if args.format in ("json", "yaml"):
        table = load_base_image_table()
        doc = [
            {
                "tag": tag_of(entry, cfg.registry),
                "distro": entry.distro,
                "component": entry.component,
                "ml_flavor": entry.ml_flavor,
                "architectures": list(entry.architectures),
                "build_args": base_dockerfile_args(entry, table),
            }
            for entry in entries
        ]
        if args.format == "json":
            import json

            print(json.dumps(doc, indent=2))
        else:
            print(dump_yaml(doc, sort_keys=False), end="")
    else:
        for entry in entries:
            print(tag_of(entry, cfg.registry))
    return 0


def cmd_matrix_build(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("matrix", "engine")
    cfg = load_config(args, None)
    entries = _matrix_entries(args)
    table = load_base_image_table()

    if args.plan_out:
        text = build_plan_document(entries, cfg.registry, args.dockerfile, table)
        _write_file(Path(args.plan_out), text)
        print(f"wrote {args.plan_out}")

    commands: list[EngineCommand] = []
    for entry in entries:
        request = BuildRequest(
            context=args.context,
            dockerfile_path=args.dockerfile,
            target="run",
            tags=(tag_of(entry, cfg.registry),),
            platforms=entry.architectures,
            build_args=tuple(sorted(base_dockerfile_args(entry, table).items())),
            push=bool(args.push),
        )
        commands.append(build_argv(request))

    if args.dry_run:
        _print_dry_run(commands, args.engine)
        return 0
    engine = _make_driver(args, driver)
    run_builds(commands, engine, max_workers=cfg.parallelism)
    print(f"built {len(commands)} images")
    return 0


def _split_run_argv(tokens: list[str]) -> tuple[list[str], list[str], list[str]]:
    """Split ``run`` arguments at ``--`` into head, passthrough, command."""

    sections: list[list[str]] = [[]]
    for token in tokens:
        if token == "--" and len(sections) < 3:
            sections.append([])
        else:
            sections[-1].append(token)
    head = sections[0]
    passthrough = sections[1] if len(sections) > 1 else []
    command = sections[2] if len(sections) > 2 else []
    return head, passthrough, command


def cmd_run(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("devrun", "engine")
    host = probe_host()
    user_args = UserArgs(
        image=args.image,
        command=tuple(args.run_command),
        name=args.name,
        no_x11=args.no_x11,
        no_gpu=args.no_gpu,
        no_user_map=args.no_user_map,
        mount_workspace=not args.no_workspace,
        passthrough=tuple(args.passthrough),
    )
    invocation = synthesize_invocation(host, user_args, workspace_dir=args.workspace_dir)

    if args.plugin_dir:
        invocation = apply_plugins(invocation, load_plugins(Path(args.plugin_dir)))

    if args.dry_run:
        absent = ContainerState(exists=False, running=False)
        _print_dry_run(list(attach_or_run(invocation, absent)), args.engine)
        return 0

    engine = _make_driver(args, driver)
    commands = attach_or_run(invocation, inspect_container(invocation.name, engine))
    # All but the last command are housekeeping (container removal); the
    # final run/exec inherits this terminal.
    for command in commands[:-1]:
        execute(command, engine)
    return engine.attach(commands[-1])


def cmd_bench_startup(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("engine")
    if args.runs < 1:
        raise InvalidArgs(f"--runs must be at least 1, got {args.runs}")
    command = ("run", "--rm", args.image, "true")
    if args.dry_run:
        _print_dry_run([command], args.engine)
        return 0
    engine = _make_driver(args, driver)
    timings: list[float] = []
    for _ in range(args.runs):
        started = time.perf_counter()
        execute(command, engine)
        timings.append(time.perf_counter() - started)
    mean = sum(timings) / len(timings)
    print(f"runs: {len(timings)}")
    print(f"mean startup overhead: {mean:.3f}s")
    print(f"fastest: {min(timings):.3f}s  slowest: {max(timings):.3f}s")
    print("note: reported for information only; no threshold is enforced")
    return 0


# The options several subcommands share, each defined once. A subcommand
# names the ones its handler reads.
_SHARED_OPTIONS: dict[str, dict[str, object]] = {
    "--config": {"help": "path to a forge.yaml config file"},
    "--registry": {"help": "registry prefix for image tags"},
    "--parallelism": {"help": "bounded parallelism for matrix builds"},
    "--strict": {
        "action": "store_true",
        "default": None,
        "help": "exit 2 when any dependency key is unresolved",
    },
    "--dry-run": {"action": "store_true", "help": "run no engine command, write only named files"},
    "--engine": {"default": "docker", "help": "container engine binary (default: docker)"},
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])


def _add_workspace_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workspace", type=_PATHS["workspace"], help="workspace root directory")
    parser.add_argument("--distro", help="ROS distro (default from config)")
    parser.add_argument(
        "--rosdep-db",
        action="append",
        help="additional rosdep database YAML (repeatable, later wins)",
    )
    parser.add_argument("--distro-index", help="distro index YAML override")
    parser.add_argument(
        "--repos", action="append", help="additional .repos file (repeatable)"
    )


def _container_path(text: str) -> str:
    """``--workspace-dir``: ``/`` and then a path that ``sources.safe_relative_path`` accepts."""

    _bind("sources")
    if not (text.startswith("/") and safe_relative_path(text[1:])):
        raise InvalidArgs(f"--workspace-dir must be an absolute path below /, got {text!r}")
    return str(PurePosixPath(text))


def _image_ref(text: str) -> str:
    """``--base``: an image reference; a leading ``-`` would be an option in CI ``forge build``."""

    if not re.fullmatch(r"(?:[A-Za-z0-9][A-Za-z0-9_.:/@+-]*)?", text):
        raise InvalidArgs(f"--base must be an image reference, got {text!r}")
    return text


def _launch_command(text: str) -> tuple[str, ...]:
    """``--command``: printable shell-style text, split into words."""

    if text.isprintable():
        try:
            return tuple(shlex.split(text))
        except ValueError:  # an unclosed quote or a trailing backslash
            pass
    raise InvalidArgs(f"--command must be printable shell-style text, got {text!r}")


def _path(name: str) -> Callable[[str], str]:
    """The type of the path argument ``name``: any path but "", which reads as not given."""

    def check(text: str) -> str:
        if not text:
            raise InvalidArgs(f"{name} must be a non-empty path")
        return text

    return check


def _plugin_dir(text: str) -> str:
    """``--plugin-dir``: a directory; any other path would run no plugin and say nothing."""

    if not os.path.isdir(_path("--plugin-dir")(text)):
        raise InvalidArgs(f"--plugin-dir {text!r} is not a directory")
    return text


_PATHS = {dest: _path(name) for dest, name in (
    ("workspace", "workspace"), ("output", "--output"), ("dockerfile_out", "--dockerfile-out"),
    ("plan_out", "--plan-out"), ("dockerfile", "--dockerfile"), ("context", "--context"),
)} | {"plugin_dir": _plugin_dir}

_VALUE_CHECKS = (
    ("base", _image_ref), ("command", _launch_command), ("workspace_dir", _container_path),
    *_PATHS.items(),
)


def _add_image_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--target", choices=TARGETS, default="run", help="image flavor"
    )
    parser.add_argument("--base", type=_image_ref, help="base image (default: ros:<distro>)")
    parser.add_argument(
        "--command", type=_launch_command, help="launch command (shell-style, default: bash)"
    )
    parser.add_argument(
        "--workspace-dir",
        type=_container_path,
        default="/ws",
        help="workspace path inside the image",
    )
    parser.add_argument(
        "--slim-runtime",
        action="store_true",
        help="install only exec-scope dependencies in the shared stage",
    )
    parser.add_argument(
        "--nonroot-run", action="store_true", help="run stage uses the ros user"
    )
    parser.add_argument("--extra-apt", action="append", help="extra OS package")
    parser.add_argument("--extra-pip", action="append", help="extra pip package")
    parser.add_argument("--script-pre", help="custom script before source clones")
    parser.add_argument("--script-post", help="custom script after source clones")


def _add_matrix_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--distro", action="append", dest="distros", help="restrict distros")
    parser.add_argument("--component", action="append", help="restrict components")
    parser.add_argument("--ml", action="append", help="restrict ML flavors")
    parser.add_argument("--arch", action="append", help="restrict architectures")


def _analyze_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--config", "--strict", "--dry-run")
    _add_workspace_options(p)
    p.add_argument("--format", choices=("table", "json", "yaml"), default="table")
    p.set_defaults(handler=cmd_analyze)


def _dockerfile_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--config", "--strict", "--dry-run")
    _add_workspace_options(p)
    _add_image_options(p)
    p.add_argument("--output", "-o", type=_PATHS["output"], help="output path ('-' for stdout)")
    p.set_defaults(handler=cmd_generate_dockerfile)


def _ci_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--config", "--registry", "--dry-run")
    p.add_argument(
        "--platform", choices=("github", "gitlab"), required=True, help="CI platform"
    )
    p.add_argument("--image-name", required=True, help="image repository name")
    p.add_argument("--arch", action="append", help="build architecture (repeatable)")
    p.add_argument(
        "--enable-test", action="store_true", help="run workspace tests in CI"
    )
    p.add_argument("--push-branch", default="main", help="branch that may push")
    p.add_argument("--base", type=_image_ref, help="base image forwarded to builds")
    p.add_argument("--targets", help=f"comma list of target stages ({','.join(TARGETS)})")
    p.add_argument("--output", "-o", type=_PATHS["output"], help="output path ('-' for stdout)")
    p.set_defaults(handler=cmd_generate_ci)


def _build_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--config", "--registry", "--strict", "--dry-run", "--engine")
    _add_workspace_options(p)
    _add_image_options(p)
    p.add_argument(
        "--platform", action="append", choices=ARCHITECTURES, help="target platform (repeatable)"
    )
    p.add_argument("--tag", action="append", help="image tag (repeatable)")
    p.add_argument("--push", action="store_true", help="push after building")
    p.add_argument(
        "--dockerfile-out", type=_PATHS["dockerfile_out"],
        help="where to write the generated Dockerfile",
    )
    p.set_defaults(handler=cmd_build)


def _matrix_list_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--config", "--registry")
    _add_matrix_filters(p)
    p.add_argument("--format", choices=("text", "json", "yaml"), default="text")
    p.set_defaults(handler=cmd_matrix_list)


def _matrix_build_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--config", "--registry", "--parallelism", "--dry-run", "--engine")
    _add_matrix_filters(p)
    p.add_argument(
        "--dockerfile",
        type=_PATHS["dockerfile"],
        default="Dockerfile.base-matrix",
        help="generic base image Dockerfile the plan references",
    )
    p.add_argument(
        "--context", type=_PATHS["context"], default=".", help="build context for matrix images"
    )
    p.add_argument(
        "--plan-out", type=_PATHS["plan_out"], help="also write the machine-readable build plan"
    )
    p.add_argument("--push", action="store_true", help="push after building")
    p.set_defaults(handler=cmd_matrix_build)


def _run_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--dry-run", "--engine")
    p.add_argument("image", help="image reference")
    p.add_argument("--name", help="container name (default derived)")
    p.add_argument("--no-x11", action="store_true", help="disable X11 forwarding")
    p.add_argument("--no-gpu", action="store_true", help="disable GPU access")
    p.add_argument(
        "--no-user-map", action="store_true", help="do not map the host user"
    )
    p.add_argument(
        "--no-workspace", action="store_true", help="do not mount the workspace"
    )
    p.add_argument(
        "--workspace-dir", type=_container_path, default="/ws", help="workspace path in image"
    )
    p.add_argument(
        "--plugin-dir", type=_PATHS["plugin_dir"], help="directory of executable run plugins"
    )
    p.set_defaults(handler=cmd_run, passthrough=[], run_command=[])


def _bench_startup_options(p: argparse.ArgumentParser) -> None:
    _add_shared(p, "--dry-run", "--engine")
    p.add_argument("image", help="image reference")
    p.add_argument("--runs", type=int, default=5, help="number of timed runs")
    p.set_defaults(handler=cmd_bench_startup)


# The command table, one row per command: its name, its help, and what it
# holds. A command holds the function that adds its options and sets its
# handler; a group holds the dest of its choice and its own rows.
_COMMANDS = (
    ("analyze", "report resolved dependencies", _analyze_options),
    ("generate", "emit files", ("generate_what", (
        ("dockerfile", "write a multi-stage Dockerfile", _dockerfile_options),
        ("ci", "write a CI pipeline configuration", _ci_options),
    ))),
    ("build", "generate and build an image", _build_options),
    ("matrix", "prebuilt base image matrix", ("matrix_what", (
        ("list", "list matrix tags", _matrix_list_options),
        ("build", "build matrix images", _matrix_build_options),
    ))),
    ("run", "run a development container with host integration", _run_options),
    ("bench", "measurement harnesses", ("bench_what", (
        ("startup", "report container startup overhead", _bench_startup_options),
    ))),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """forge's parser for ``argv``: every command's name and help, and the options of argv's own.

    Help, usage lines and "invalid choice" errors read as those of a parser
    holding every command's options, and ``argv`` parses to the same
    values; the other commands' options are never built.
    """

    parser = argparse.ArgumentParser(
        prog="forge",
        description="Container images and CI pipelines for ROS workspaces.",
    )
    parser.add_argument("--version", action="version", version=f"forge {__version__}")
    _add_commands(parser, "subcommand", _COMMANDS, argv)
    return parser


def _add_commands(
    parser: argparse.ArgumentParser, dest: str, rows: tuple, argv: list[str]
) -> None:
    """Register ``rows`` as ``parser``'s subcommands; build only the one ``argv`` chooses."""

    # A group's own options (-h, --version) take no value, so argparse reads
    # its first word that is not an option as the choice.
    index = next((i for i, word in enumerate(argv) if word[:1] != "-" or word == "-"), None)
    chosen = None if index is None else argv[index]
    subparsers = parser.add_subparsers(dest=dest, required=True)
    for name, help_text, holds in rows:
        sub = subparsers.add_parser(name, help=help_text)
        if name != chosen:
            continue
        if callable(holds):
            holds(sub)
        else:
            _add_commands(sub, *holds, argv[index + 1:])


def main(argv: list[str] | None = None, driver: EngineDriver | None = None) -> int:
    # A byte of a path that is not UTF-8 reaches forge as a lone surrogate;
    # print it back as that byte, as stdout does in a UTF-8 locale, also
    # where PYTHONIOENCODING asks for strict errors.
    if isinstance(sys.stdout, io.TextIOWrapper) and sys.stdout.errors == "strict":
        sys.stdout.reconfigure(errors="surrogateescape")
    try:
        code = _main(sys.argv[1:] if argv is None else argv, driver)
        # A reader that closed early shows here, not in the exit-time flush.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone (``forge ... | head``). Point stdout
        # at /dev/null so the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: list[str], driver: EngineDriver | None) -> int:
    parser = build_parser(argv)
    try:
        if argv and argv[0] == "run":
            head, passthrough, run_command = _split_run_argv(argv[1:])
            args, unknown = parser.parse_known_args(["run", *head])
            # Unrecognized flags are forwarded to the engine, ahead of the
            # explicit passthrough section.
            args.passthrough = [*unknown, *passthrough]
            args.run_command = run_command
        else:
            args = parser.parse_args(argv)
        # Python 3.11's argparse reads ``--base=--`` as an empty list that no
        # type function has seen; check it as the text ``--``.
        for dest, check in _VALUE_CHECKS:
            if getattr(args, dest, None) == []:
                setattr(args, dest, check("--"))
        return int(args.handler(args, driver))
    except SystemExit as exc:
        return int(exc.code or 0)
    except ForgeError as exc:
        print(f"forge: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        # Ctrl-C. subprocess.run has killed an engine it was waiting for.
        print("forge: interrupted", file=sys.stderr)
        return 130


def entry() -> NoReturn:
    """The ``forge`` process: ``main`` without cyclic garbage collection or teardown.

    A command leaves the same few hundred objects in reference cycles
    whatever the size of its input (``tests/test_entry.py`` checks this),
    and ``os._exit`` drops them, so the collector stays off during ``main``.
    When ``main`` returns, forge's files are closed, its threads joined and
    its child processes waited for. So after the ``atexit`` handlers
    (coverage's, logging's) and a flush of what they printed, ``os._exit``
    skips the last garbage collection and the freeing of every module and
    object, as forked ``multiprocessing`` children do. An exception that
    escapes ``main`` takes the normal exit path.
    """

    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
