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
import posixpath
import re
import shlex
import sys
import time
from pathlib import Path, PurePosixPath
from typing import Callable, NamedTuple, NoReturn, Sequence

from . import ARCHITECTURES, COMPONENTS, KNOWN_DISTROS, ML_FLAVORS, TARGETS, __version__
from .errors import (
    ConfigError,
    ForgeError,
    InvalidArgs,
    InvalidSpec,
    MalformedDatabase,
    MalformedReposFile,
    MissingCredential,
    NonZeroExit,
    UnreadableWorkspace,
    UnresolvedDependencies,
    UnwritableOutput,
    shown,
)
from .textio import ComposedDocument, dump_yaml, read_utf8

GENERATED_DIR = ".forge"

# The names this module uses from each layer. So that a command imports only
# the layers it runs, every function that uses one of these names first calls
# _bind for its layer; __getattr__ binds a name first read from outside.
_LAYER_NAMES = {
    "cigen": ("PipelineSpec", "default_output_path", "generate_pipeline"),
    "depgraph": (
        "DeclaredKeys", "DistroIndex", "ResolvedDependencies", "is_package_name",
        "load_distro_index", "load_rosdep_db", "packaged_distro_index", "packaged_rosdep_db",
        "resolve", "runtime_subset",
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


# Docker's image reference grammar, from
# https://github.com/distribution/reference/blob/main/regexp.go, as pattern
# text that re compiles on first use, so that importing this module compiles none.
_DOMAIN_COMPONENT = r"(?:[a-zA-Z0-9]|[a-zA-Z0-9][a-zA-Z0-9-]*[a-zA-Z0-9])"
_DOMAIN = rf"(?:{_DOMAIN_COMPONENT}(?:\.{_DOMAIN_COMPONENT})*|\[[a-fA-F0-9:]+\])(?::[0-9]+)?"
_PATH_COMPONENT = r"[a-z0-9]+(?:(?:[._]|__|-+)[a-z0-9]+)*"
_REGISTRY = rf"{_DOMAIN}(?:/{_PATH_COMPONENT})*"
_REPOSITORY = rf"{_PATH_COMPONENT}(?:/{_PATH_COMPONENT})*"
_DIGEST = r"[A-Za-z][A-Za-z0-9]*(?:[-_+.][A-Za-z][A-Za-z0-9]*)*:[0-9a-fA-F]{32,}"
# name[:tag], and name[:tag][@digest] or "", which is the default base.
_TAGGED = rf"(?:{_DOMAIN}/)?{_REPOSITORY}(?::[A-Za-z0-9_][A-Za-z0-9_.-]{{0,127}})?"
_BASE = rf"(?:{_TAGGED}(?:@{_DIGEST})?)?"


def _parse_registry(value: object, name: str) -> str:
    if not re.fullmatch(_REGISTRY, text := _parse_nonempty(value, name)):
        raise ConfigError(f"{name} must be a registry host[:port][/path], got {text!r}")
    if re.match(_PATH_BRACKET, text):
        raise ConfigError(f"{name} {_BRACKETED}, got {text!r}")
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


def _beside(config_path: Path, value: object) -> object:
    """A path ``value`` read from ``config_path``, joined to that file's directory; else ``value``."""

    if isinstance(value, str) and value:
        return os.path.join(os.path.dirname(config_path), value)
    return value


# GlobalConfig field, forge.yaml key, environment variable, flag dest, parser.
# load_config takes each setting from its highest layer (a flag is given when
# not None) but parses every layer's value, so the first bad value in table
# order is the error. A parser checks type and range and names the layer, a
# forge.yaml value with its path:line:column; a key not in the table is an
# error. FORGE_ROSDEP_DBS is split on os.pathsep, and --rosdep-db extends the list.
_CONFIG_TABLE = (
    ("registry", "registry", "FORGE_REGISTRY", "registry", _parse_registry),
    ("default_distro", "default_distro", "FORGE_DISTRO", "distro", _parse_distro),
    ("rosdep_db_paths", "rosdep_dbs", "FORGE_ROSDEP_DBS", "rosdep_db", _parse_paths),
    ("distro_index_path", "distro_index", "FORGE_DISTRO_INDEX", "distro_index", _parse_file),
    ("parallelism", "parallelism", "FORGE_PARALLELISM", "parallelism", _parse_count),
    ("strict", "strict", "FORGE_STRICT", "strict", _parse_flag),
)
_CONFIG_KEYS = {key for _, key, *_ in _CONFIG_TABLE}


def load_config(args: argparse.Namespace, workspace_root: Path | None) -> GlobalConfig:
    explicit = getattr(args, "config", None)
    if explicit is None:
        config_path = (workspace_root or Path()) / "forge.yaml"
    else:
        config_path = Path(_parse_nonempty(explicit, "--config"))
    # Each forge.yaml key's value, and where that value starts.
    written: dict[object, tuple[object, str]] = {}
    if config_path.is_file():
        path = str(config_path)
        doc = ComposedDocument(read_utf8(path, ConfigError), path, ConfigError)
        pairs = {} if doc.root is None else doc.mapping(doc.root)
        if pairs is None:
            doc.fail(doc.root, "the document is not a mapping")
        for key, (key_node, node) in pairs.items():
            if key not in _CONFIG_KEYS:
                doc.fail(key_node, f"unknown config key {shown(key)}")
            written[key] = (doc.construct(node), doc.position(node))
    elif explicit:
        raise ConfigError(f"config file {explicit!r} not found")

    values: dict[str, object] = {}
    for field, key, var, dest, parse in _CONFIG_TABLE:
        if key in written:
            value, where = written[key]
            # A relative path in forge.yaml names a file beside it.
            if parse is _parse_file:
                value = _beside(config_path, value)
            elif parse is _parse_paths and isinstance(value, list):
                value = [_beside(config_path, item) for item in value]
            values[field] = parse(value, f"{where}: config key {key}")
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
    resolved_exec = runtime_subset(declared, db, index, internal, repos)
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


def _print_bucket(label: str, items: Sequence[str]) -> None:
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
            _print_bucket("source repos", [r.local_name for r in analysis.repos])
        _print_bucket("unresolved", resolved.unresolved)

    _check_strict(cfg, resolved)
    return 0


def _check_strict(cfg: GlobalConfig, resolved: ResolvedDependencies) -> None:
    if cfg.strict and resolved.unresolved:
        raise UnresolvedDependencies(list(resolved.unresolved))


def _render_for_workspace(
    args: argparse.Namespace,
) -> tuple[GlobalConfig, WorkspaceAnalysis, str, str]:
    """Config, analysis, and the Dockerfile text and its ``.dockerignore`` text.

    The workspace's own ``.dockerignore``, which BuildKit skips when the
    Dockerfile has one of its own, is carried into the latter.
    """

    _bind("dockergen")
    for script in (args.script_pre, args.script_post):
        if script is not None and not Path(args.workspace, script).is_file():
            raise InvalidSpec(f"custom script {script!r} not found in build context")
    cfg, analysis = _analyze_args(args)
    _check_strict(cfg, analysis.resolved)
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
        nonroot_run=args.nonroot_run,
    )
    plan = plan_stages(spec, analysis.resolved, analysis.resolved_exec)
    violations = validate_plan(plan)
    if violations:
        details = "; ".join(f"{v.stage}: {v.rule}: {v.detail}" for v in violations)
        # A RUN body too long for the kernel comes of the input's dependency
        # set; every other broken invariant is forge's own fault.
        error = InvalidSpec if all(v.rule == "run-length" for v in violations) else ForgeError
        raise error(f"generated plan violates its invariants: {details}")
    own_ignore = analysis.root / ".dockerignore"
    workspace_ignore = read_utf8(own_ignore, UnreadableWorkspace) if own_ignore.is_file() else ""
    return cfg, analysis, render(plan), render_dockerignore(plan, workspace_ignore)


def cmd_generate_dockerfile(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _, analysis, text, ignore = _render_for_workspace(args)
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
    if args.enable_test and "dev" not in args.targets:
        raise InvalidSpec("the test stage runs the dev image; include dev in targets")
    cfg = load_config(args, None)
    _docker_ref(f"{cfg.registry}/{args.image_name}", f"--image-name under {cfg.registry!r}")
    spec = PipelineSpec(
        platform=args.platform,
        image_name=args.image_name,
        registry=cfg.registry,
        platforms=tuple(dict.fromkeys(args.arch or ("amd64",))),
        enable_test_stage=args.enable_test,
        push_on_branch=args.push_branch,
        base_image=args.base or "",
        target_stages=args.targets,
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
    cfg, analysis, text, ignore = _render_for_workspace(args)
    root = analysis.root
    needed = required_credential_vars(analysis.repos)
    missing = [name for name in needed if name not in os.environ]
    if missing:
        raise MissingCredential("credential variables not set: " + ", ".join(missing))
    tags = tuple(args.tag or (_default_tag(cfg.registry, root, args.target),))

    dockerfile = Path(args.dockerfile_out or root / GENERATED_DIR / "Dockerfile")
    # A dry run writes nothing into the workspace, only to a path the user named.
    written = bool(args.dockerfile_out or not args.dry_run)
    if written:
        _write_dockerfile(dockerfile, text, ignore)
    for line in clone_plan(analysis.repos, f"{args.workspace_dir}/src"):
        print(line)

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


def _default_tag(registry: str, root: Path, target: str) -> str:
    """``build``'s tag without ``--tag``: the workspace directory's name made a path component."""

    directory = root.resolve().name
    name = directory.lower()
    if not re.fullmatch(_PATH_COMPONENT, name):
        name = re.sub(r"[^a-z0-9]+", "-", name).strip("-")
    if not name:
        raise InvalidArgs(f"workspace directory {directory!r} gives no image name; give --tag")
    return _docker_ref(f"{registry}/{name}:{target}", f"the default tag of {directory!r}")


def _matrix_entries(args: argparse.Namespace, registry: str) -> list[MatrixEntry]:
    """The matrix the filters select, once docker takes the longest tag under ``registry``."""

    _bind("matrix")
    entries = enumerate_matrix(
        distros=args.distros, components=args.component, ml_flavors=args.ml,
        architectures=args.arch,
    )
    longest = max((tag_of(entry, registry) for entry in entries), key=len)
    _docker_ref(longest, f"a matrix tag under --registry {registry!r}")
    return entries


def cmd_matrix_list(args: argparse.Namespace, driver: EngineDriver | None) -> int:
    _bind("matrix")
    cfg = load_config(args, None)
    entries = _matrix_entries(args, cfg.registry)
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
    entries = _matrix_entries(args, cfg.registry)
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
    head, passthrough, command = [*sections, [], []][:3]
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


def _path(name: str) -> Callable[[str], str]:
    """The type of the path argument ``name``: any path but "", which reads as not given."""

    def check(text: str) -> str:
        if not text:
            raise InvalidArgs(f"{name} must be a non-empty path")
        return text

    return check


def _container_path(text: str) -> str:
    """``--workspace-dir``: ``/`` and then a path that ``sources.safe_relative_path`` accepts."""

    _bind("sources")
    if not (text.startswith("/") and safe_relative_path(text[1:])):
        raise InvalidArgs(f"--workspace-dir must be an absolute path below /, got {text!r}")
    return str(PurePosixPath(text))


def _image_ref(
    name: str, pattern: str, what: str = "an image reference", docker: bool = True
) -> Callable[[str], str]:
    """The type of image option ``name``: the grammar's form ``pattern``, and with ``docker``
    a reference that docker takes."""

    def check(text: str) -> str:
        if not re.fullmatch(pattern, text):
            raise InvalidArgs(f"{name} must be {what}, got {text!r}")
        return _docker_ref(text, name) if docker else text

    return check


# Docker reads a bracketed host without ":" or A-F ("[0]/a") as a path, which "[" cannot start.
_PATH_BRACKET = r"\[[0-9a-f]+\](?:/|$)"
_BRACKETED = "must not start with a bracketed host without ':', which docker reads as a path"


def _docker_ref(ref: str, what: str) -> str:
    """``ref``, which the grammar accepts, if docker's ``ParseNormalizedNamed`` takes it too.

    That refuses 64 lower-case hex digits, an image ID, and a repository path (the name
    after its domain) over 255 characters once normalize.go has given a one-part name on
    the default domain its ``library/``: https://github.com/distribution/reference
    """

    if re.fullmatch(r"[a-f0-9]{64}", ref):
        raise InvalidArgs(f"{what} must not be 64 hex digits, which docker reads as an image ID")
    if re.match(_PATH_BRACKET, ref):
        raise InvalidArgs(f"{what} {_BRACKETED}, got {ref!r}")
    name = re.fullmatch(r"(.*?)(?::[\w.-]+)?(?:@.*)?", ref)[1]  # without tag and digest
    domain, _, path = name.partition("/")
    if not (path and (domain == "localhost" or re.search("[.:A-Z]", domain))):
        domain, path = "docker.io", name
    if domain in ("docker.io", "index.docker.io") and "/" not in path:
        path = f"library/{path}"
    if len(path) > 255:
        raise InvalidArgs(f"{what} must be a docker repository of at most 255 characters: {path!r}")
    return ref


def _extra_package(text: str) -> str:
    """``--extra-apt`` and ``--extra-pip``: a name that ``is_package_name`` accepts."""

    _bind("depgraph")
    if not is_package_name(text):
        raise InvalidSpec(f"invalid extra package name {text!r}")
    return text


def _script(text: str) -> str:
    """``--script-pre`` and ``--script-post``: a path below the build context, as BuildKit reads."""

    if posixpath.normpath(text).split("/")[0] in ("", ".."):
        raise InvalidSpec(f"custom script {text!r} is outside the build context")
    return text


# What makes a push branch unusable: a name ``git check-ref-format --branch``
# rejects (a control, space or ``~^:?*[\`` character, ``..``, ``@{``, an
# empty component or one that starts with ``.`` or ends with ``.lock``, a
# leading ``-`` or ``/``, a trailing ``/`` or ``.``, or ``HEAD``), a
# quote, which would end the string literal of the platform's condition,
# or a lone surrogate (a byte that is not UTF-8), which the UTF-8 pipeline
# file cannot name.
_BAD_BRANCH = (
    r"""[\x00-\x20\x7f~^:?*[\\'"\ud800-\udfff]|\.\.|@\{|//|(?:\A|/)\."""
    r"|\.lock(?:/|\Z)|\A[-/]|[/.]\Z|\AHEAD\Z"
)


def _push_branch(text: str) -> str:
    """``--push-branch``: a git branch name that the push condition can quote."""

    if not text or re.search(_BAD_BRANCH, text):
        raise InvalidSpec(f"push branch {text!r} is not a git branch name without quotes")
    return text


def _runs(text: str) -> int:
    """``--runs``: a count by the rule of the ``parallelism`` setting, as an ``InvalidArgs``."""

    try:
        return _parse_count(text, "--runs")
    except ConfigError as exc:
        raise InvalidArgs(str(exc)) from None


def _launch_command(text: str) -> tuple[str, ...]:
    """``--command``: printable shell-style text, split into words."""

    if text.isprintable():
        try:
            return tuple(shlex.split(text))
        except ValueError:  # an unclosed quote or a trailing backslash
            pass
    raise InvalidArgs(f"--command must be printable shell-style text, got {text!r}")


def _targets(text: str) -> tuple[str, ...]:
    """``--targets``: a comma list of target stages."""

    names = tuple(text.split(","))
    if not set(names) <= set(TARGETS):
        raise InvalidArgs(f"--targets must be a comma list of {'/'.join(TARGETS)}, got {text!r}")
    return names


def _plugin_dir(text: str) -> str:
    """``--plugin-dir``: a directory; any other path would run no plugin and say nothing."""

    if not os.path.isdir(_path("--plugin-dir")(text)):
        raise InvalidArgs(f"--plugin-dir {text!r} is not a directory")
    return text


# The commands that take an option; a command is named by its words.
_WORKSPACE = ("analyze", "generate dockerfile", "build")
_IMAGE = ("generate dockerfile", "build")
_MATRIX = ("matrix list", "matrix build")

# The option table, one row per option: the commands that take it, its flags
# and its add_argument keywords. A command's parser adds its rows in table
# order, which is the order its help lists them in.
_OPTIONS = (
    ((*_WORKSPACE, "generate ci", *_MATRIX), "--config",
     dict(help="path to a forge.yaml config file")),
    (("generate ci", "build", *_MATRIX), "--registry", dict(help="registry prefix for image tags")),
    (("matrix build",), "--parallelism", dict(help="bounded parallelism for matrix builds")),
    (_WORKSPACE, "--strict",
     dict(action="store_true", default=None, help="exit 2 when any dependency key is unresolved")),
    ((*_WORKSPACE, "generate ci", "matrix build", "run", "bench startup"), "--dry-run",
     dict(action="store_true", help="run no engine command, write only named files")),
    (("build", "matrix build", "run", "bench startup"), "--engine", dict(
        type=_path("--engine"), default="docker", help="container engine binary (default: docker)"
    )),
    (_WORKSPACE, "workspace", dict(type=_path("workspace"), help="workspace root directory")),
    (("run", "bench startup"), "image", dict(help="image reference")),
    (_WORKSPACE, "--distro", dict(help="ROS distro (default from config)")),
    (_WORKSPACE, "--rosdep-db",
     dict(action="append", help="additional rosdep database YAML (repeatable, later wins)")),
    (_WORKSPACE, "--distro-index", dict(help="distro index YAML override")),
    (_WORKSPACE, "--repos",
     dict(action="append", type=_path("--repos"), help="additional .repos file (repeatable)")),
    (("analyze",), "--format", dict(choices=("table", "json", "yaml"), default="table")),
    (_IMAGE, "--target", dict(choices=TARGETS, default="run", help="image flavor")),
    (_IMAGE, "--base",
     dict(type=_image_ref("--base", _BASE), help="base image (default: ros:<distro>)")),
    (_IMAGE, "--command",
     dict(type=_launch_command, help="launch command (shell-style, default: bash)")),
    (_IMAGE, "--workspace-dir",
     dict(type=_container_path, default="/ws", help="workspace path inside the image")),
    (_IMAGE, "--slim-runtime",
     dict(action="store_true", help="install only exec-scope dependencies in the shared stage")),
    (_IMAGE, "--nonroot-run", dict(action="store_true", help="run stage uses the ros user")),
    (_IMAGE, "--extra-apt", dict(action="append", type=_extra_package, help="extra OS package")),
    (_IMAGE, "--extra-pip", dict(action="append", type=_extra_package, help="extra pip package")),
    (_IMAGE, "--script-pre", dict(type=_script, help="custom script before source clones")),
    (_IMAGE, "--script-post", dict(type=_script, help="custom script after source clones")),
    (("generate ci",), "--platform",
     dict(choices=("github", "gitlab"), required=True, help="CI platform")),
    (("generate ci",), "--image-name", dict(
        type=_image_ref("--image-name", _REPOSITORY, "an image repository", docker=False),
        required=True, help="image repository name",
    )),
    (("generate ci",), "--arch",
     dict(action="append", choices=ARCHITECTURES, help="build architecture (repeatable)")),
    (("generate ci",), "--enable-test",
     dict(action="store_true", help="run workspace tests in CI")),
    (("generate ci",), "--push-branch",
     dict(type=_push_branch, default="main", help="branch that may push")),
    (("generate ci",), "--base",
     dict(type=_image_ref("--base", _BASE), help="base image forwarded to builds")),
    (("generate ci",), "--targets", dict(
        type=_targets, default=TARGETS, help=f"comma list of target stages ({','.join(TARGETS)})"
    )),
    (("generate dockerfile", "generate ci"), "--output -o",
     dict(type=_path("--output"), help="output path ('-' for stdout)")),
    (("build",), "--platform",
     dict(action="append", choices=ARCHITECTURES, help="target platform (repeatable)")),
    (("build",), "--tag",
     dict(action="append", type=_image_ref("--tag", _TAGGED), help="image tag (repeatable)")),
    (_MATRIX, "--distro",
     dict(action="append", dest="distros", choices=tuple(KNOWN_DISTROS), help="restrict distros")),
    (_MATRIX, "--component", dict(action="append", choices=COMPONENTS, help="restrict components")),
    (_MATRIX, "--ml", dict(action="append", choices=ML_FLAVORS, help="restrict ML flavors")),
    (_MATRIX, "--arch",
     dict(action="append", choices=ARCHITECTURES, help="restrict architectures")),
    (("matrix list",), "--format", dict(choices=("text", "json", "yaml"), default="text")),
    (("matrix build",), "--dockerfile", dict(
        type=_path("--dockerfile"), default="Dockerfile.base-matrix",
        help="generic base image Dockerfile the plan references",
    )),
    (("matrix build",), "--context",
     dict(type=_path("--context"), default=".", help="build context for matrix images")),
    (("matrix build",), "--plan-out",
     dict(type=_path("--plan-out"), help="also write the machine-readable build plan")),
    (("build", "matrix build"), "--push", dict(action="store_true", help="push after building")),
    (("build",), "--dockerfile-out",
     dict(type=_path("--dockerfile-out"), help="where to write the generated Dockerfile")),
    (("run",), "--name", dict(help="container name (default derived)")),
    (("run",), "--no-x11", dict(action="store_true", help="disable X11 forwarding")),
    (("run",), "--no-gpu", dict(action="store_true", help="disable GPU access")),
    (("run",), "--no-user-map", dict(action="store_true", help="do not map the host user")),
    (("run",), "--no-workspace", dict(action="store_true", help="do not mount the workspace")),
    (("run",), "--workspace-dir",
     dict(type=_container_path, default="/ws", help="workspace path in image")),
    (("run",), "--plugin-dir", dict(type=_plugin_dir, help="directory of executable run plugins")),
    (("bench startup",), "--runs", dict(type=_runs, default=5, help="number of timed runs")),
)


# The command table, one row per command: its name, its help, and what it
# holds. A command holds its handler; a group holds the dest of its choice
# and its own rows.
_COMMANDS = (
    ("analyze", "report resolved dependencies", cmd_analyze),
    ("generate", "emit files", ("generate_what", (
        ("dockerfile", "write a multi-stage Dockerfile", cmd_generate_dockerfile),
        ("ci", "write a CI pipeline configuration", cmd_generate_ci),
    ))),
    ("build", "generate and build an image", cmd_build),
    ("matrix", "prebuilt base image matrix", ("matrix_what", (
        ("list", "list matrix tags", cmd_matrix_list),
        ("build", "build matrix images", cmd_matrix_build),
    ))),
    ("run", "run a development container with host integration", cmd_run),
    ("bench", "measurement harnesses", ("bench_what", (
        ("startup", "report container startup overhead", cmd_bench_startup),
    ))),
)


def _add_options(parser: argparse.ArgumentParser, command: str, handler: Callable) -> None:
    """Add the ``_OPTIONS`` rows of ``command`` to its parser, and its handler."""

    for commands, flags, keywords in _OPTIONS:
        if command in commands:
            parser.add_argument(*flags.split(), **keywords)
    # The handler is looked up by name now, not taken as bound at import, so
    # a wrapper set on this module (a test's monkeypatch, a tracer) runs.
    parser.set_defaults(handler=globals()[handler.__name__])


class _Parser(argparse.ArgumentParser):
    """Gives ``--opt=--`` the text ``--`` to check, as Python 3.12 does; 3.11 stores ``[]``."""

    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> object:
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            self._check_value(action, value := self._get_value(action, "--"))
            return value
        return super()._get_values(action, arg_strings)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """forge's parser for ``argv``: every command's name and help, and the options of argv's own.

    Help, usage lines and "invalid choice" errors read as those of a parser
    holding every command's options, and ``argv`` parses to the same
    values; the other commands' options are never built.
    """

    parser = _Parser(
        prog="forge",
        description="Container images and CI pipelines for ROS workspaces.",
    )
    parser.add_argument("--version", action="version", version=f"forge {__version__}")
    _add_commands(parser, "subcommand", _COMMANDS, argv)
    return parser


def _add_commands(
    parser: argparse.ArgumentParser, dest: str, rows: tuple, argv: list[str], prefix: str = ""
) -> None:
    """Register ``rows`` as ``parser``'s subcommands; build only the one ``argv`` chooses.

    ``prefix`` holds the words of the group that ``parser`` parses, each
    followed by a space.
    """

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
            _add_options(sub, prefix + name, holds)
        else:
            _add_commands(sub, *holds, argv[index + 1:], f"{prefix}{name} ")


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
