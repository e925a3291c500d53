"""The benchmark's span tracer keeps seeing every handler and manifest parse.

``perfbench/tracer.py`` replaces each command handler on ``forge.cli``
before forge builds its parser, so the parser must look its handler up
there when it is built: each traced command then records one
``cli.handler`` span, inside ``cli.main``.

``perfbench/tracer.py`` wraps ``forge.manifest.parse_manifest`` by name, and
the benchmark's per-layer report needs at least one such span per traced
run. A warm manifest memo must therefore still send every live manifest
through that module global. This runs the tracer as the benchmark does,
three times over one private cache: the first run parses every manifest,
the second finds each in the memo and stores a stat snapshot of the
workspace, and the third takes that snapshot.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import forge
import forge.manifest

from conftest import FIXTURE_ROOT

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACER = REPO_ROOT / "perfbench" / "tracer.py"
SOURCE_ROOT = str(Path(forge.__file__).resolve().parent.parent)


def _traced(args: list[str], tmp_path: Path, run: int) -> list[dict]:
    spans_path = tmp_path / f"spans-{run}.json"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SOURCE_ROOT, os.environ.get("PYTHONPATH")])),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
    }
    completed = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), str(run), "--", *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(spans_path.read_text(encoding="utf-8"))


# The commands whose handler the tracer wraps, as the benchmark runs them.
TRACED_COMMANDS = {
    "analyze": ["analyze", "{ws}", "--format", "json"],
    "generate dockerfile": ["generate", "dockerfile", "{ws}", "-o", "{tmp}/Dockerfile"],
    "generate ci": ["generate", "ci", "--platform", "github", "--image-name", "app", "-o", "-"],
    "build": ["build", "{ws}", "--dry-run", "--dockerfile-out", "{tmp}/build.Dockerfile"],
    "run": ["run", "--dry-run", "ros:humble"],
}


@pytest.mark.parametrize("command", sorted(TRACED_COMMANDS))
def test_each_traced_command_records_one_handler_span(tmp_path, command: str) -> None:
    workspace = FIXTURE_ROOT / "minimal"
    args = [word.format(ws=workspace, tmp=tmp_path) for word in TRACED_COMMANDS[command]]
    spans = _traced(args, tmp_path, 1)
    (main,) = [span for span in spans if span["name"] == "cli.main"]
    handlers = [span for span in spans if span["name"] == "cli.handler"]
    assert [span["parent"] for span in handlers] == [main["id"]]


def test_warm_scan_still_traces_one_parse_per_package(tmp_path) -> None:
    workspace = FIXTURE_ROOT / "minimal"
    # The second run stores a snapshot only once every file of the workspace
    # is older than the racy margin; a fresh checkout may not be yet.
    margin = forge.manifest.RACY_MARGIN_NS
    stats = [os.lstat(path) for path in [workspace, *workspace.rglob("*")]]
    newest = max(max(st.st_mtime_ns, st.st_ctime_ns) for st in stats)
    time.sleep(min(margin, max(0, newest + margin - time.time_ns())) / 1e9)
    for run in (1, 2, 3):
        spans = _traced(["analyze", str(workspace)], tmp_path, run)
        (scan,) = [span for span in spans if span["name"] == "manifest.scan_workspace"]
        parses = [span for span in spans if span["name"] == "manifest.parse_manifest"]
        assert scan["counts"]["packages"] == 1
        assert len(parses) == 1
        assert all(span["parent"] == scan["id"] for span in parses)
        (memo,) = (tmp_path / "cache" / "forge").glob("manifests-*.json")
    # The snapshot the second run stored holds, so the third run took it.
    doc = json.loads(memo.read_bytes())
    taken = forge.manifest._from_snapshot(
        doc["snapshot"], workspace, {}, forge.manifest.ManifestMemo(doc["records"])
    )
    assert taken is not None and len(taken.packages) == 1
