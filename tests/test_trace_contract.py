"""The benchmark's span tracer keeps seeing every manifest parse.

``perfbench/tracer.py`` wraps ``forge.manifest.parse_manifest`` by name, and
the benchmark's per-layer report needs at least one such span per traced
run. A warm manifest memo must therefore still send every live manifest
through that module global. This runs the tracer as the benchmark does,
twice over one private cache.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import forge

from conftest import FIXTURE_ROOT

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACER = REPO_ROOT / "perfbench" / "tracer.py"
SOURCE_ROOT = str(Path(forge.__file__).resolve().parent.parent)


def _traced_analyze(workspace: Path, tmp_path: Path, run: int) -> list[dict]:
    spans_path = tmp_path / f"spans-{run}.json"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SOURCE_ROOT, os.environ.get("PYTHONPATH")])),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
    }
    completed = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), str(run), "--", "analyze", str(workspace)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(spans_path.read_text(encoding="utf-8"))


def test_warm_scan_still_traces_one_parse_per_package(tmp_path) -> None:
    for run in (1, 2):
        spans = _traced_analyze(FIXTURE_ROOT / "minimal", tmp_path, run)
        (scan,) = [span for span in spans if span["name"] == "manifest.scan_workspace"]
        parses = [span for span in spans if span["name"] == "manifest.parse_manifest"]
        assert scan["counts"]["packages"] == 1
        assert len(parses) == 1
        assert all(span["parent"] == scan["id"] for span in parses)
    assert len(list((tmp_path / "cache" / "forge").glob("manifests-*.json"))) == 1
