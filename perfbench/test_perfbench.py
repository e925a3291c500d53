"""Tests of the benchmark itself: generator, oracle, Dockerfile parser, spans.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
import yaml

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import dockerfile  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workload as wl  # noqa: E402
from forge import cli  # noqa: E402


def tree(root: Path) -> dict[str, bytes | None]:
    return {
        p.relative_to(root).as_posix(): (p.read_bytes() if p.is_file() else None)
        for p in sorted(root.rglob("*"))
    }


@pytest.mark.parametrize("name", sorted(wl.SHAPES))
def test_generator_is_deterministic_per_seed(name: str, tmp_path: Path) -> None:
    first = wl.generate(name, 7, tmp_path / "a", REPO)
    second = wl.generate(name, 7, tmp_path / "b", REPO)
    other = wl.generate(name, 8, tmp_path / "c", REPO)
    assert tree(tmp_path / "a") == tree(tmp_path / "b")
    assert tree(tmp_path / "a") != tree(tmp_path / "c")
    assert oracle.analyze_document(first)["all"] == oracle.analyze_document(second)["all"]
    assert len(other.packages) == wl.SHAPES[name].packages


def forge_stdout(capsys: pytest.CaptureFixture[str], argv: list[str]) -> str:
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(wl.SHAPES))
def test_oracle_agrees_with_forge(
    name: str, seed: int, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    load = wl.generate(name, seed, tmp_path / "fixture", REPO)
    db_args = [a for doc in load.rosdep_docs for a in ("--rosdep-db", str(doc))]

    doc = json.loads(forge_stdout(capsys, ["analyze", str(load.root), *db_args, "--format", "json"]))
    assert doc == oracle.analyze_document(load)
    # Keys behind false conditions or only in test scope never surface.
    seen = {k for bucket in doc["all"].values() for k in bucket}
    assert not seen & (load.inactive_keys | load.test_only_keys)

    out = tmp_path / "Dockerfile"
    forge_stdout(capsys, ["generate", "dockerfile", str(load.root), *db_args, "-o", str(out)])
    stages = {s.name: s for s in dockerfile.parse(out.read_text(encoding="utf-8"))}
    assert dockerfile.artifact_lists(list(stages.values())) == oracle.artifact_lists(load)
    assert dockerfile.copy_sources(stages["dependencies"]) == oracle.manifest_copy_sources(load)
    assert not dockerfile.context_copies(stages["run"])


def test_database_overrides_follow_later_document_rules(tmp_path: Path) -> None:
    load = wl.generate("ws100-db500", 3, tmp_path, REPO)
    texts = [p.read_text(encoding="utf-8") for p in load.rosdep_docs]
    first = yaml.safe_load(texts[0])
    second = yaml.safe_load(texts[1])
    assert len(first) == 500 and len(second) == 50
    # An override without an ubuntu record leaves the first record standing.
    kept = [k for k, v in second.items() if v is not None and "ubuntu" not in v and "ubuntu" in first[k]]
    assert kept
    for key in kept:
        record = first[key]["ubuntu"]
        expected = record if isinstance(record, list) else record["pip"]["packages"]
        assert list(load.db[key].packages) == expected
    missing = [k for k, v in first.items() if "ubuntu" not in v and "ubuntu" not in (second.get(k) or {})]
    assert missing and not set(missing) & set(load.db)


DOCKERFILE = """\
# syntax=docker/dockerfile:1
ARG BASE_IMAGE=ros:humble

FROM ${BASE_IMAGE} AS base
RUN apt-get update && \\
    apt-get install -y a && \\
    rm -rf /var/lib/apt/lists/*

FROM base AS dependencies
COPY src/a/package.xml /ws/src/a/package.xml
RUN mkdir -p /artifacts && \\
    printf '%s\\n' libx-dev 'ros-humble-y' > /artifacts/apt-packages.txt && \\
    : > /artifacts/pip-packages.txt

FROM base AS run
COPY --from=dependencies /artifacts /artifacts
ENV X=1
"""


def test_dockerfile_metrics_from_text() -> None:
    stages = dockerfile.parse(DOCKERFILE)
    assert [s.name for s in stages] == ["base", "dependencies", "run"]
    assert dockerfile.lineage_layers(stages) == {"base": 1, "dependencies": 3, "run": 2}
    assert dockerfile.apt_transactions(stages) == 1
    assert dockerfile.artifact_lists(stages) == {"apt": ["libx-dev", "ros-humble-y"], "pip": []}
    assert dockerfile.copy_sources(stages[1]) == {"src/a/package.xml"}
    assert dockerfile.context_copies(stages[2]) == []
    image = dockerfile.metrics(DOCKERFILE)
    assert image.layers_max == 3
    assert image.stage_layers == {"base": 1, "dependencies": 2, "run": 1}


def test_self_time_subtracts_direct_children() -> None:
    spans = [
        {"inv": "1", "id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0},
        {"inv": "1", "id": 1, "parent": 0, "name": "cli.handler", "start": 1.0, "end": 9.0},
        {"inv": "1", "id": 2, "parent": 1, "name": "depgraph.resolve", "start": 2.0, "end": 3.0,
         "counts": {"unresolved": 4}},
        {"inv": "1", "id": 3, "parent": 1, "name": "depgraph.resolve", "start": 4.0, "end": 6.0},
        {"inv": "2", "id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 1.0},
    ]
    per = run.per_invocation(spans)
    assert per["1"]["cli.handler.self"] == 5.0
    assert per["1"]["cli.main.self"] == 2.0
    assert per["1"]["depgraph.resolve.total"] == 3.0
    assert per["1"]["depgraph.resolve.calls"] == 2
    assert per["1"]["unresolved"] == 4
    assert per["2"] == {"cli.main.total": 1.0, "cli.main.self": 1.0, "cli.main.calls": 1}


def test_refuses_to_run_outside_a_checkout(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "ws10", "--seed", "1", "--seconds", "1"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(
    trace: int, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.chdir(REPO)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert run.main(["--workload", "ws10", "--seed", "5", "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert all(value["value"] != 0 for value in result["metrics"].values())


def test_samples_are_scaled_by_the_starts_around_them(tmp_path: Path) -> None:
    bench = run.Bench(checkout=tmp_path, work=tmp_path, load=None, env={})  # type: ignore[arg-type]
    bench.calibrations = [0.05, 0.15, 0.1]
    assert bench.scaled(run.Sample(0.4, 0.4, 1, calibration=0)) == pytest.approx(
        0.4 / 0.1 * run.CALIBRATION_REFERENCE_S
    )
    assert bench.scaled(run.Sample(0.5, 0.5, 1, calibration=1)) == pytest.approx(
        0.5 / 0.125 * run.CALIBRATION_REFERENCE_S
    )
