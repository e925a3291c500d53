"""Byte-exact comparison of generated output against the golden corpus."""

from __future__ import annotations

import hashlib

import pytest

from forge.dockergen import plan_stages, render
from forge.sources import RepoSpec

from conftest import GOLDEN_ROOT, image_spec
from dockerfile_syntax import dockerfile_problems
from golden_cases import CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name: str) -> None:
    expected = (GOLDEN_ROOT / name).read_text(encoding="utf-8")
    actual = CASES[name]()
    assert actual == expected, (
        f"{name} drifted from its golden file; if the change is intentional "
        "run scripts/regen_goldens.py and review the diff"
    )


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_ROOT.glob("*.Dockerfile")))
def test_dockerfile_golden_header_names_its_body(name: str) -> None:
    lines = (GOLDEN_ROOT / name).read_text(encoding="utf-8").splitlines(keepends=True)
    digest = hashlib.sha256("".join(lines[4:]).encode("utf-8")).hexdigest()
    assert lines[1].endswith(f"(plan sha256 {digest})\n"), (
        f"{name}: the header digest does not match the text below the header; "
        "regenerate the file instead of editing it"
    )


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_ROOT.glob("*.Dockerfile")))
def test_dockerfile_golden_is_well_formed(name: str) -> None:
    assert dockerfile_problems((GOLDEN_ROOT / name).read_text(encoding="utf-8")) == []


def test_the_well_formed_check_finds_a_line_a_newline_split(minimal_analysis) -> None:
    # A repository name ending in a newline, as parse_repos once let through.
    analysis = minimal_analysis
    repo = RepoSpec("dep\n", "https://git.example.com/dep.git", "main")
    spec = image_spec(analysis, source_repos=(repo,))
    plan = plan_stages(spec, analysis.resolved, analysis.resolved_exec)
    problems = dockerfile_problems(render(plan))
    assert len(problems) == 2
    assert problems[0].startswith("RUN body is not shell")
    assert problems[1].startswith("not an instruction: \" https://git.example.com/dep.git main'")


@pytest.mark.parametrize("name", sorted(CASES))
def test_generation_is_repeatable(name: str) -> None:
    assert CASES[name]() == CASES[name]()
