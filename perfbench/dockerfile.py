"""Static image metrics read from generated Dockerfile text.

The text is parsed from outside, without forge's plan objects: stages from
``FROM <parent> AS <name>``, instructions with their backslash
continuations joined, and layers as RUN, COPY and ADD instructions. A
stage's lineage is its ``FROM`` chain inside the file; the external base
image's own layers are not counted.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field

LAYER_KEYWORDS = ("RUN", "COPY", "ADD")
# Artifact list kinds by the file name the dependencies stage writes.
ARTIFACT_FILES = {
    "apt-packages.txt": "apt",
    "pip-packages.txt": "pip",
    "repos.txt": "repos",
}


@dataclass
class Stage:
    name: str
    parent: str
    instructions: list[tuple[str, str]] = field(default_factory=list)  # (keyword, rest)

    @property
    def layers(self) -> int:
        return sum(1 for keyword, _ in self.instructions if keyword in LAYER_KEYWORDS)


def parse(text: str) -> list[Stage]:
    stages: list[Stage] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not pending and (not line or line.startswith("#")):
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line, pending = pending + line, ""
        keyword, _, rest = line.partition(" ")
        keyword = keyword.upper()
        if keyword == "FROM":
            parts = rest.split()
            name = parts[2] if len(parts) == 3 and parts[1].upper() == "AS" else parts[0]
            stages.append(Stage(name=name, parent=parts[0]))
        elif stages:
            stages[-1].instructions.append((keyword, rest))
    return stages


def lineage_layers(stages: list[Stage]) -> dict[str, int]:
    """Layers along each stage's FROM chain inside the file."""

    by_name = {stage.name: stage for stage in stages}
    totals: dict[str, int] = {}
    for stage in stages:
        total, current, seen = 0, stage, set()
        while current is not None and current.name not in seen:
            seen.add(current.name)
            total += current.layers
            current = by_name.get(current.parent)
        totals[stage.name] = total
    return totals


def apt_transactions(stages: list[Stage]) -> int:
    """``apt-get install`` invocations over all RUN instructions."""

    return sum(
        rest.count("apt-get install")
        for stage in stages
        for keyword, rest in stage.instructions
        if keyword == "RUN"
    )


def context_copies(stage: Stage) -> list[str]:
    """COPY instructions of ``stage`` that read from the build context."""

    return [
        rest
        for keyword, rest in stage.instructions
        if keyword in ("COPY", "ADD") and not rest.startswith("--from=")
    ]


def copy_sources(stage: Stage) -> set[str]:
    sources = set()
    for rest in context_copies(stage):
        args = [a for a in rest.split() if not a.startswith("--")]
        sources.update(args[:-1])
    return sources


def artifact_lists(stages: list[Stage]) -> dict[str, list[str]]:
    """Lines the ``dependencies`` stage writes into each artifact file."""

    found: dict[str, list[str]] = {}
    for stage in stages:
        for keyword, rest in stage.instructions:
            if keyword != "RUN":
                continue
            for segment in rest.split(" && "):
                tokens = shlex.split(segment)
                if len(tokens) < 2 or tokens[-2] != ">":
                    continue
                kind = ARTIFACT_FILES.get(tokens[-1].rsplit("/", 1)[-1])
                if kind is None:
                    continue
                # "printf '%s\n' a b > file" or ": > file" for an empty list.
                found[kind] = tokens[2:-2] if tokens[0] == "printf" else []
    return found


@dataclass(frozen=True)
class ImageMetrics:
    stage_layers: dict[str, int]
    lineage_layers: dict[str, int]
    apt_transactions: int
    instructions: int
    bytes: int

    @property
    def layers_max(self) -> int:
        return max(self.lineage_layers.values())


def metrics(text: str) -> ImageMetrics:
    stages = parse(text)
    return ImageMetrics(
        stage_layers={stage.name: stage.layers for stage in stages},
        lineage_layers=lineage_layers(stages),
        apt_transactions=apt_transactions(stages),
        instructions=sum(len(stage.instructions) + 1 for stage in stages),
        bytes=len(text.encode("utf-8")),
    )
