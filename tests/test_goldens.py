"""Byte-exact comparison of generated output against the golden corpus."""

from __future__ import annotations

import hashlib

import pytest

from conftest import GOLDEN_ROOT
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_generation_is_repeatable(name: str) -> None:
    assert CASES[name]() == CASES[name]()
