"""Each subcommand imports only the layers it uses.

``forge.cli`` binds the names it takes from each layer on first use, so a
short-lived ``forge`` process pays only for the modules its command runs.
Every subcommand runs here in a fresh interpreter, which also shows a
missing bind as a failing command.

forge's records are NamedTuples, so no command loads ``dataclasses`` (which
loads ``inspect``). Only code that spawns a process loads ``subprocess``,
and only code that reads or writes JSON loads ``json``.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forge
import forge.cli as cli

from conftest import FIXTURE_ROOT

MINIMAL = str(FIXTURE_ROOT / "minimal")
SOURCE_ROOT = str(Path(forge.__file__).resolve().parent.parent)

# The module list is taken before the script imports json to print it.
_SCRIPT = """
import sys
import forge.cli
code = forge.cli.main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""

# Command id, argv ("{tmp}" is the test's temporary directory), forge layers
# that must stay unimported, and whether the command may load json.
COMMANDS = [
    ("version", ["--version"], None, False),
    ("analyze", ["analyze", MINIMAL], {"dockergen", "engine", "devrun", "cigen", "matrix"}, True),
    ("generate-dockerfile", ["generate", "dockerfile", MINIMAL, "-o", "{tmp}/Dockerfile"],
     {"engine", "devrun", "cigen", "matrix"}, True),
    ("generate-ci", ["generate", "ci", "--platform", "github", "--image-name", "app",
                     "-o", "{tmp}/ci.yml"],
     {"depgraph", "manifest", "dockergen", "engine", "devrun", "matrix"}, False),
    ("build", ["build", MINIMAL, "--dry-run", "--dockerfile-out", "{tmp}/Dockerfile"],
     {"devrun", "cigen", "matrix"}, True),
    ("matrix-list", ["matrix", "list", "--distro", "humble"],
     {"depgraph", "manifest", "dockergen", "engine", "devrun", "cigen"}, False),
    ("matrix-build", ["matrix", "build", "--distro", "noetic", "--component", "core",
                      "--dry-run", "--plan-out", "{tmp}/plan.yml"],
     {"depgraph", "manifest", "dockergen", "devrun", "cigen"}, False),
    ("run", ["run", "--dry-run", "ros:humble"],
     {"depgraph", "manifest", "dockergen", "cigen", "matrix"}, False),
    ("bench-startup", ["bench", "startup", "--dry-run", "ros:humble"],
     {"depgraph", "manifest", "dockergen", "devrun", "cigen", "matrix"}, False),
]


def _modules_after(argv: list[str], tmp_path: Path) -> set[str]:
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SOURCE_ROOT, os.environ.get("PYTHONPATH")])),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
    }
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["code"] == 0, completed.stderr
    return set(report["modules"])


@pytest.mark.parametrize(
    ("argv", "unloaded", "reads_json"), [c[1:] for c in COMMANDS], ids=[c[0] for c in COMMANDS]
)
def test_command_imports_only_its_layers(tmp_path, argv, unloaded, reads_json) -> None:
    modules = _modules_after([arg.format(tmp=tmp_path) for arg in argv], tmp_path)
    loaded = {name for name in modules if name.startswith("forge.")}
    if unloaded is None:
        assert loaded <= {"forge.cli", "forge.errors", "forge.textio"}
    else:
        assert not loaded & {f"forge.{layer}" for layer in unloaded}
    if argv[:2] != ["matrix", "build"]:
        assert "concurrent.futures" not in modules
    assert not modules & {"dataclasses", "inspect"}
    if not reads_json:
        assert "json" not in modules
    # run spawns nvidia-smi to count GPUs on a host that has it.
    if argv[0] != "run":
        assert "subprocess" not in modules


def test_warm_analyze_loads_no_xml_parser(tmp_path) -> None:
    # The second run shares the first one's cache, so every manifest is a
    # memo hit and no XML is parsed.
    assert "xml.etree.ElementTree" in _modules_after(["analyze", MINIMAL], tmp_path)
    assert "xml.etree.ElementTree" not in _modules_after(["analyze", MINIMAL], tmp_path)


# --- the lazy-name contract --------------------------------------------------


def test_every_layer_name_resolves_to_its_module() -> None:
    for name, layer in cli._LAYER_OF.items():
        module = importlib.import_module(f"forge.{layer}")
        assert getattr(cli, name) is getattr(module, name), name


def test_unknown_name_raises_attribute_error() -> None:
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    assert not hasattr(cli, "no_such_name")


def test_replacement_survives_binding(capsys, monkeypatch, tmp_path) -> None:
    monkeypatch.chdir(tmp_path)
    real = cli.scan_workspace
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_workspace", spy)
    assert cli.main(["analyze", MINIMAL]) == 0
    assert len(calls) == 1
    assert cli.scan_workspace is spy
