"""Every option of every subcommand changes what forge does.

The table below holds one row for each argument that ``build_parser``
gives a subcommand, so an option added without a row fails here. Each row
runs the subcommand with and without a valid non-default value of its
argument, in a fresh copy of the same inputs, and requires a difference
in the exit code, the output, the files written (the cache included), or
the engine commands and their peak concurrency as a recording driver sees
them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from forge.cli import _CONFIG_TABLE, GlobalConfig, build_parser, main
from forge.devrun import HostEnvironment

from recording_driver import ConcurrencyDriver

# Arguments each subcommand starts from; a positional argument comes first.
BASE = {
    "analyze": ["ws"],
    "generate dockerfile": ["ws"],
    "generate ci": ["--platform", "github", "--image-name", "app"],
    "build": ["ws"],
    "matrix list": ["--distro", "humble", "--component", "core"],
    "matrix build": ["--distro", "humble", "--component", "core"],
    # Without --dry-run, run stops at the recording driver's empty inspect
    # answer (exit 1), before it would hand the terminal to the engine.
    "run": ["img"],
    "bench startup": ["img"],
}

DRY = ("--dry-run",)


class Row(NamedTuple):
    subcommand: str
    argument: str  # the long option, or a positional argument's name
    value: tuple[str, ...]  # sets it; a positional's value replaces BASE's
    context: tuple[str, ...] = ()  # added to both runs


def _workspace_rows(sub: str) -> list[Row]:
    return [
        Row(sub, "workspace", ("other",)),
        Row(sub, "--config", ("--config", "alt.yaml")),
        Row(sub, "--strict", ("--strict",)),
        Row(sub, "--dry-run", ("--dry-run",)),
        Row(sub, "--distro", ("--distro", "iron")),
        Row(sub, "--rosdep-db", ("--rosdep-db", "extra-db.yaml")),
        Row(sub, "--distro-index", ("--distro-index", "index.yaml")),
        Row(sub, "--repos", ("--repos", "extra.repos")),
    ]


def _image_rows(sub: str) -> list[Row]:
    return [
        Row(sub, "--target", ("--target", "dev")),
        Row(sub, "--base", ("--base", "ubuntu:22.04")),
        Row(sub, "--command", ("--command", "ros2 run app main")),
        Row(sub, "--workspace-dir", ("--workspace-dir", "/opt/ws")),
        Row(sub, "--slim-runtime", ("--slim-runtime",)),
        Row(sub, "--nonroot-run", ("--nonroot-run",)),
        Row(sub, "--extra-apt", ("--extra-apt", "curl")),
        Row(sub, "--extra-pip", ("--extra-pip", "numpy")),
        Row(sub, "--script-pre", ("--script-pre", "pre.sh")),
        Row(sub, "--script-post", ("--script-post", "post.sh")),
    ]


def _matrix_filter_rows(sub: str) -> list[Row]:
    return [
        Row(sub, "--config", ("--config", "alt.yaml")),
        Row(sub, "--registry", ("--registry", "reg.example")),
        Row(sub, "--distro", ("--distro", "iron")),
        Row(sub, "--component", ("--component", "base")),
        Row(sub, "--ml", ("--ml", "none")),
    ]


ROWS = [
    *_workspace_rows("analyze"),
    Row("analyze", "--format", ("--format", "json")),
    *_workspace_rows("generate dockerfile"),
    *_image_rows("generate dockerfile"),
    Row("generate dockerfile", "--output", ("-o", "-")),
    Row("generate ci", "--config", ("--config", "alt.yaml")),
    Row("generate ci", "--registry", ("--registry", "reg.example")),
    Row("generate ci", "--dry-run", ("--dry-run",)),
    Row("generate ci", "--platform", ("--platform", "gitlab")),
    Row("generate ci", "--image-name", ("--image-name", "other")),
    Row("generate ci", "--arch", ("--arch", "arm64")),
    Row("generate ci", "--enable-test", ("--enable-test",)),
    Row("generate ci", "--push-branch", ("--push-branch", "release")),
    Row("generate ci", "--base", ("--base", "ubuntu:22.04")),
    Row("generate ci", "--targets", ("--targets", "dev")),
    Row("generate ci", "--output", ("-o", "-")),
    *_workspace_rows("build"),
    *_image_rows("build"),
    Row("build", "--registry", ("--registry", "reg.example")),
    Row("build", "--engine", ("--engine", "nope"), DRY),
    Row("build", "--platform", ("--platform", "arm64")),
    Row("build", "--tag", ("--tag", "reg.example/app:1")),
    Row("build", "--push", ("--push",)),
    Row("build", "--dockerfile-out", ("--dockerfile-out", "out/Dockerfile")),
    *_matrix_filter_rows("matrix list"),
    # Tags name no architecture, so only the entries' documents show it.
    Row("matrix list", "--arch", ("--arch", "arm64"), ("--format", "json")),
    Row("matrix list", "--format", ("--format", "json")),
    *_matrix_filter_rows("matrix build"),
    Row("matrix build", "--arch", ("--arch", "arm64")),
    Row("matrix build", "--parallelism", ("--parallelism", "1")),
    Row("matrix build", "--dry-run", ("--dry-run",)),
    Row("matrix build", "--engine", ("--engine", "nope"), DRY),
    Row("matrix build", "--dockerfile", ("--dockerfile", "other.Dockerfile")),
    Row("matrix build", "--context", ("--context", "ctx")),
    Row("matrix build", "--plan-out", ("--plan-out", "plan.yml")),
    Row("matrix build", "--push", ("--push",)),
    Row("run", "image", ("other",), DRY),
    Row("run", "--dry-run", ("--dry-run",)),
    Row("run", "--engine", ("--engine", "nope"), DRY),
    Row("run", "--name", ("--name", "box"), DRY),
    Row("run", "--no-x11", ("--no-x11",), DRY),
    Row("run", "--no-gpu", ("--no-gpu",), DRY),
    Row("run", "--no-user-map", ("--no-user-map",), DRY),
    Row("run", "--no-workspace", ("--no-workspace",), DRY),
    Row("run", "--workspace-dir", ("--workspace-dir", "/opt/ws"), DRY),
    Row("run", "--plugin-dir", ("--plugin-dir", "plugins"), DRY),
    Row("bench startup", "image", ("other",)),
    Row("bench startup", "--dry-run", ("--dry-run",)),
    Row("bench startup", "--engine", ("--engine", "nope"), DRY),
    Row("bench startup", "--runs", ("--runs", "2")),
]


def _manifest(name: str, depends: str) -> str:
    return (
        f'<package format="3"><name>{name}</name><version>1.0.0</version>{depends}'
        "<export><build_type>ament_cmake</build_type></export></package>\n"
    )


# Relative path: content. One package with a build-only, an exec-only and
# an unresolved dependency, so the scope and strictness options all matter.
INPUTS = {
    "ws/src/app/package.xml": _manifest(
        "app",
        "<build_depend>eigen</build_depend><exec_depend>rclcpp</exec_depend>"
        "<depend>no_such_thing</depend>",
    ),
    "ws/pre.sh": "true\n",
    "ws/post.sh": "true\n",
    "other/src/other_app/package.xml": _manifest("other_app", ""),
    "alt.yaml": "registry: cfg.example\nstrict: true\n",
    "extra-db.yaml": "no_such_thing:\n  ubuntu: [libnst-dev]\n",
    "index.yaml": "distro:\n  name: humble\n  ros_version: 2\n  packages: [ament_cmake]\n",
    "extra.repos": (
        "repositories:\n  tools:\n    type: git\n"
        "    url: https://git.example.com/acme/tools.git\n    version: main\n"
    ),
    "plugins/10-name": (
        f"#!{sys.executable}\nimport json, sys\n"
        "doc = json.load(sys.stdin)\ndoc['name'] = 'plugged'\nprint(json.dumps(doc))\n"
    ),
}

README = Path(__file__).resolve().parent.parent / "README.md"

# bench startup prints wall times, which differ from run to run.
_SECONDS = re.compile(r"\d+\.\d+s")


def _choices(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommand parsers of ``parser`` by name; empty for a command."""

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def full_parser(path: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The parser of ``path`` with every command below it built.

    ``build_parser`` builds only the command its argv names, so each
    command's parser is taken from a ``build_parser`` call naming it.
    """

    parser = build_parser(list(path))
    for name in path:
        parser = _choices(parser)[name]
    choices = _choices(parser)
    for name in choices:
        choices[name] = full_parser((*path, name))
    return parser


def _subcommand_parsers(parser: argparse.ArgumentParser, path: str = ""):
    if choices := _choices(parser):
        for name, sub in choices.items():
            yield from _subcommand_parsers(sub, f"{path} {name}".strip())
        return
    yield path, parser


def parser_arguments() -> set[tuple[str, str]]:
    """(subcommand, argument) for every argument but ``--help``."""

    pairs = set()
    for sub, parser in _subcommand_parsers(full_parser()):
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                pairs.add((sub, max(action.option_strings, key=len, default=action.dest)))
    return pairs


def write_inputs(root: Path) -> None:
    """A fresh copy of INPUTS at ``root``, which becomes the current directory."""

    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    os.chdir(root)
    for name, text in INPUTS.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    (root / "plugins" / "10-name").chmod(0o755)


def observe(argv: list[str], root: Path) -> tuple:
    """Run ``forge argv`` in a fresh copy of INPUTS at ``root``; what it did."""

    write_inputs(root)
    # Only matrix build runs engine commands side by side.
    driver = ConcurrencyDriver(wait_s=0.5 if argv[:2] == ["matrix", "build"] else 0.0)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, driver=driver)
    files = {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }
    stdout = _SECONDS.sub("Ns", out.getvalue())
    return code, stdout, err.getvalue(), files, sorted(driver.commands), driver.peak


@pytest.fixture
def run_root(monkeypatch, tmp_path) -> Path:
    root = tmp_path / "run"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XDG_CACHE_HOME", str(root / "cache"))
    host = HostEnvironment(
        display=":1",
        gpu_count=1,
        uid=1000,
        gid=1000,
        cwd=root / "ws",
        detected_workspace=root / "ws",
        tty_available=True,
    )
    monkeypatch.setattr("forge.cli.probe_host", lambda: host)
    return root


def test_every_argument_has_a_row() -> None:
    rows = [(row.subcommand, row.argument) for row in ROWS]
    assert len(rows) == len(set(rows))
    assert set(rows) == parser_arguments()


@pytest.mark.parametrize("subcommand", sorted(BASE))
def test_base_runs_are_repeatable(run_root, subcommand: str) -> None:
    argv = [*subcommand.split(), *BASE[subcommand]]
    assert observe(argv, run_root) == observe(argv, run_root)


@pytest.mark.parametrize("row", ROWS, ids=[f"{r.subcommand} {r.argument}" for r in ROWS])
def test_argument_changes_what_forge_does(run_root, row: Row) -> None:
    base = BASE[row.subcommand]
    if row.argument.startswith("-"):
        with_value = [*base, *row.value]
    else:
        with_value = [*row.value, *base[1:]]
    command = row.subcommand.split()
    without = observe([*command, *base, *row.context], run_root)
    assert observe([*command, *with_value, *row.context], run_root) != without


@pytest.mark.parametrize("row", ROWS, ids=[f"{r.subcommand} {r.argument}" for r in ROWS])
def test_the_command_parser_reads_argv_as_the_full_parser_does(run_root, row: Row) -> None:
    # Among INPUTS, as a parser type such as --plugin-dir's reads the file system.
    write_inputs(run_root)
    base = BASE[row.subcommand]
    with_value = [*base, *row.value] if row.argument.startswith("-") else [*row.value, *base[1:]]
    for rest in (base, with_value):
        argv = [*row.subcommand.split(), *rest, *row.context]
        own = build_parser(argv).parse_known_args(argv)
        assert own == full_parser().parse_known_args(argv)
        assert own[0].handler.__name__.startswith("cmd_")


# The value-taking options for which "--" is a legitimate value: a path of
# that name, an engine binary of that name, or a launch command of that word.
DASHES_ARE_A_VALUE = {
    "--output", "--dockerfile-out", "--plan-out", "--dockerfile", "--context", "--command",
    "--engine",
}

VALUE_ROWS = [row for row in ROWS if row.argument.startswith("--") and len(row.value) == 2]


@pytest.mark.parametrize("row", VALUE_ROWS, ids=[f"{r.subcommand} {r.argument}" for r in VALUE_ROWS])
def test_an_option_given_two_dashes_checks_them_as_its_value(run_root, row: Row) -> None:
    # Python 3.11's argparse alone drops the value of ``--opt=--`` unchecked.
    parser = dict(_subcommand_parsers(full_parser()))[row.subcommand]
    (action,) = (a for a in parser._actions if row.argument in a.option_strings)
    argv = [*row.subcommand.split(), *BASE[row.subcommand], f"{row.argument}=--", *row.context]
    code, out, err, *_ = observe(argv, run_root)
    if row.argument in DASHES_ARE_A_VALUE:
        assert (code, err) == (0, "")
        return
    assert code == 2 and err.count("error: ") == 1 and "[]" not in err, err
    if action.choices:
        assert f"error: argument {row.argument}: invalid choice: '--'" in err


def test_a_command_parser_builds_only_its_own_command() -> None:
    parser = build_parser(["generate", "ci", "--platform", "github"])
    generate = _choices(parser)["generate"]
    assert [a.dest for a in _choices(generate)["ci"]._actions][:2] == ["help", "config"]
    assert [a.dest for a in _choices(generate)["dockerfile"]._actions] == ["help"]
    assert all(
        [a.dest for a in sub._actions] == ["help"]
        for name, sub in _choices(parser).items()
        if name != "generate"
    )


def readme_config_rows() -> list[list[str]]:
    """The cells of each row of README's Configuration table."""

    section = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1].split("\n## ")[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def test_readme_configuration_table_matches_the_config_table() -> None:
    readers: dict[str, list[str]] = {}
    for sub, parser in _subcommand_parsers(full_parser()):
        for action in parser._actions:
            readers.setdefault(action.dest, []).append(sub)
    expected = []
    for field, key, var, dest, _ in _CONFIG_TABLE:
        default = GlobalConfig._field_defaults[field]
        expected.append([
            f"`{key}`",
            f"`{var}`",
            f"`--{dest.replace('_', '-')}`",
            "packaged" if default in ((), None) else f"`{str(default).lower()}`",
            ", ".join(f"`{sub}`" for sub in readers[dest]),
        ])
    assert readme_config_rows() == expected
