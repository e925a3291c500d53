"""The forge process: ``python -m forge.cli`` and the ``forge`` console script.

Both run ``cli.entry``, which turns the cyclic garbage collector off, runs
``main`` and ends the process with ``os._exit`` once ``main`` has returned.
Each test here runs a command as that process and, where it can, the same
command in this interpreter through ``main``, and requires the same output:
nothing may be lost by skipping interpreter teardown. The cyclic garbage a
command leaves must not grow with its workspace, since the process never
collects it.
"""

from __future__ import annotations

import ast
import gc
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import forge
import forge.cli as cli
from forge.cli import main

from conftest import FIXTURE_ROOT

SOURCE_ROOT = Path(forge.__file__).resolve().parent.parent
MINIMAL = str(FIXTURE_ROOT / "minimal")
PIPE_BUFFER = 1 << 16  # Linux's default pipe capacity


def _process(
    argv: list[str], cwd: Path, cache: Path, run: tuple[str, ...] = ("-m", "forge.cli"), **options
) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``python -m forge.cli argv``, or of ``python *run argv``."""

    # Unbuffered stdout would hide output that only a final flush writes.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SOURCE_ROOT), XDG_CACHE_HOME=str(cache))
    completed = subprocess.run(
        [sys.executable, *run, *argv],
        capture_output=True,
        cwd=cwd,
        env=env,
        timeout=120,
        **options,
    )
    return completed.returncode, completed.stdout, completed.stderr


def _in_process(argv: list[str], capsys, monkeypatch, cache: Path) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``main(argv)`` in this interpreter."""

    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out.encode(), err.encode()


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _large_workspace(root: Path, count: int) -> Path:
    for i in range(count):
        name = f"package_with_a_deliberately_long_name_{i:04d}"
        depends = "<depend>rclcpp</depend>"
        if i:
            depends += f"<depend>package_with_a_deliberately_long_name_{i - 1:04d}</depend>"
        package = root / "src" / name
        package.mkdir(parents=True)
        (package / "package.xml").write_text(
            f'<?xml version="1.0"?>\n<package format="3"><name>{name}</name>'
            "<version>0.1.0</version><description>d</description>"
            '<maintainer email="m@example.com">m</maintainer><license>MIT</license>'
            f"{depends}<export><build_type>ament_cmake</build_type></export></package>\n",
            encoding="utf-8",
        )
    return root


def test_stdout_larger_than_a_pipe_arrives_whole(capsys, monkeypatch, tmp_path) -> None:
    root = _large_workspace(tmp_path / "ws", 500)
    argv = ["analyze", str(root), "--format", "json"]
    process = _process(argv, tmp_path, tmp_path / "process-cache")
    in_process = _in_process(argv, capsys, monkeypatch, tmp_path / "in-process-cache")
    assert len(process[1]) > PIPE_BUFFER
    assert process == in_process
    # Each cache file, the manifest memo among them, is written whole.
    written = _files(tmp_path / "process-cache")
    assert any(name.startswith("forge/manifests-") for name in written)
    assert written == _files(tmp_path / "in-process-cache")


def test_generated_files_are_complete(capsys, monkeypatch, tmp_path) -> None:
    outputs = {}
    for side in ("process", "in-process"):
        argv = ["generate", "dockerfile", MINIMAL, "-o", str(tmp_path / side / "Dockerfile")]
        if side == "process":
            result = _process(argv, tmp_path, tmp_path / "cache-1")
        else:
            result = _in_process(argv, capsys, monkeypatch, tmp_path / "cache-2")
        assert result == (0, f"wrote {tmp_path / side / 'Dockerfile'}\n".encode(), b"")
        outputs[side] = _files(tmp_path / side)
    assert sorted(outputs["process"]) == ["Dockerfile", "Dockerfile.dockerignore"]
    assert outputs["process"] == outputs["in-process"]
    assert outputs["process"]["Dockerfile"].endswith(b"\n")


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["--version"], 0),
        (["bench", "startup", "--engine", "false", "--runs", "1", "img"], 1),
        (["analyze", "does-not-exist"], 2),
        (["no-such-command"], 2),
    ],
    ids=["0-version", "1-engine-failed", "2-user-error", "2-usage"],
)
def test_exit_codes_keep_their_output(capsys, monkeypatch, tmp_path, argv, code) -> None:
    monkeypatch.chdir(tmp_path)
    process = _process(argv, tmp_path, tmp_path / "cache")
    assert process[0] == code
    assert process == _in_process(argv, capsys, monkeypatch, tmp_path / "cache")


# A handler registered before forge runs, the way coverage registers its own
# ahead of ``coverage run -m forge.cli``; it prints to the buffered stdout.
_WITH_EXIT_HANDLER = """
import atexit, runpy
atexit.register(print, "exit handler ran")
runpy.run_module("forge.cli", run_name="__main__", alter_sys=True)
"""


def test_exit_handlers_run_and_their_output_is_flushed(capsys, monkeypatch, tmp_path) -> None:
    code, out, err = _in_process(["--version"], capsys, monkeypatch, tmp_path)
    process = _process(["--version"], tmp_path, tmp_path, ("-c", _WITH_EXIT_HANDLER))
    assert process == (code, out + b"exit handler ran\n", err)


def _console_script() -> tuple[str, str]:
    """Module and function that ``[project.scripts] forge`` names."""

    tomllib = pytest.importorskip("tomllib")
    with open(SOURCE_ROOT.parent / "pyproject.toml", "rb") as handle:
        module, function = tomllib.load(handle)["project"]["scripts"]["forge"].split(":")
    return module, function


# Each runs forge after registering a handler that reports, once ``main`` has
# returned, whether the collector was on while it ran.
_REPORT_GC = 'import atexit, gc; atexit.register(lambda: print("gc enabled:", gc.isenabled()))\n'


def test_the_process_runs_main_without_the_cyclic_collector(tmp_path) -> None:
    module, function = _console_script()
    runs = {
        "python -m": _REPORT_GC + 'import runpy; runpy.run_module("forge.cli", run_name="__main__")',
        # What an installed ``forge`` script does.
        "console script": _REPORT_GC + f"import sys, {module}; sys.exit({module}.{function}())",
    }
    for how, run in runs.items():
        code, out, err = _process(["--version"], tmp_path, tmp_path, ("-c", run))
        assert (code, out.splitlines()[-1], err) == (0, b"gc enabled: False", b""), how


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(enabled) -> None:
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["--version"]) == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(scope="module")
def workspaces(tmp_path_factory) -> dict[int, Path]:
    return {
        count: _large_workspace(tmp_path_factory.mktemp(f"ws{count}"), count)
        for count in (10, 300)
    }


# The commands the benchmark times, as argv for a workspace ``root`` and an
# output directory ``out``.
_COMMANDS = {
    "analyze": lambda root, out: ["analyze", str(root), "--format", "json"],
    "generate-dockerfile": lambda root, out: [
        "generate", "dockerfile", str(root), "-o", str(out / "Dockerfile")
    ],
    "build-dry-run": lambda root, out: [
        "build", str(root), "--target", "run", "--dry-run", "--dockerfile-out", str(out / "b")
    ],
    "generate-ci": lambda root, out: [
        "generate", "ci", "--platform", "gitlab", "--image-name", "bench/app",
        "--arch", "amd64", "--arch", "arm64", "--enable-test", "-o", "-",
    ],
    "run-dry-run": lambda root, out: ["run", "--dry-run", "ros:humble"],
}


@pytest.mark.parametrize(
    ("command", "cache"),
    [("analyze", "warm"), ("analyze", "cold")] + [(c, "warm") for c in list(_COMMANDS)[1:]],
    ids=["analyze-warm", "analyze-cold", *list(_COMMANDS)[1:]],
)
def test_cyclic_garbage_does_not_grow_with_the_workspace(
    capsys, monkeypatch, tmp_path, workspaces, command, cache
) -> None:
    """``entry`` never collects, so what a command leaves in cycles must stay bounded."""

    def run(root: Path, name: str) -> None:
        out = tmp_path / name
        monkeypatch.chdir(root)
        monkeypatch.setenv("XDG_CACHE_HOME", str(out if cache == "cold" else tmp_path / root.name))
        assert main(_COMMANDS[command](root, out)) == 0, capsys.readouterr()
        capsys.readouterr()

    # The first run imports the command's layers and fills caches and memos;
    # a warm cache is filled for each workspace before it is measured.
    run(workspaces[10], "warm-up")
    if cache == "warm":
        run(workspaces[300], "warm-up-300")
    garbage = {}
    was = gc.isenabled()
    try:
        for count, root in workspaces.items():
            gc.collect()
            gc.disable()
            run(root, f"measured-{count}")
            garbage[count] = gc.collect()
    finally:
        (gc.enable if was else gc.disable)()
    assert garbage[10] == garbage[300]


def test_ctrl_c_exits_130_with_one_line_and_no_traceback(tmp_path) -> None:
    engine = tmp_path / "engine"
    # SIGINT to forge while it waits for the engine, as a terminal's Ctrl-C.
    engine.write_text('#!/bin/sh\nkill -INT "$PPID"\nexec sleep 30\n', encoding="utf-8")
    engine.chmod(0o755)
    code, out, err = _process(
        ["run", "--engine", str(engine), "ros:humble"],
        tmp_path,
        tmp_path / "cache",
        # A shell that started this test in the background may have set
        # SIGINT to be ignored, and Python keeps that.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    assert (code, err) == (130, b"forge: interrupted\n")


def test_the_console_script_runs_what_python_m_runs() -> None:
    script = ":".join(_console_script())
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (statement,) = block.body
    assert isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Call)
    call = statement.value
    assert not call.args and not call.keywords
    assert script == f"forge.cli:{ast.unparse(call.func)}"
    assert callable(getattr(cli, ast.unparse(call.func)))
