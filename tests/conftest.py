"""Shared paths and pre-analyzed fixture workspaces."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from forge.cli import GlobalConfig, WorkspaceAnalysis, analyze_workspace
from forge.dockergen import ImageSpec

FIXTURE_ROOT = Path(__file__).resolve().parent / "fixtures" / "workspaces"
GOLDEN_ROOT = Path(__file__).resolve().parent / "goldens"


def analysis_for(name: str, distro: str = "humble") -> WorkspaceAnalysis:
    cfg = GlobalConfig(default_distro=distro)
    return analyze_workspace(FIXTURE_ROOT / name, cfg, (), True)


def image_spec(analysis: WorkspaceAnalysis, **fields) -> ImageSpec:
    """The spec ``forge generate dockerfile`` builds for ``analysis``, with ``fields`` changed."""

    defaults = {
        "ros_distro": analysis.index.distro,
        "packages": tuple(analysis.workspace.packages),
        "source_repos": analysis.repos,
    }
    return ImageSpec(**{**defaults, **fields})


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point XDG_CACHE_HOME at a temporary directory for the whole session.

    The CLI caches parsed rosdep databases there; without this a test run
    would write into the developer's real ``~/.cache/forge``.
    """

    with pytest.MonkeyPatch.context() as patch:
        cache_home = tmp_path_factory.mktemp("xdg-cache")
        patch.setenv("XDG_CACHE_HOME", str(cache_home))
        yield cache_home


def _fixture_files() -> dict[str, tuple[str, int]]:
    """Content hash and modification time of every file under ``tests/fixtures``."""

    files = {}
    for path in sorted(FIXTURE_ROOT.parent.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            files[str(path.relative_to(FIXTURE_ROOT.parent))] = (digest, path.stat().st_mtime_ns)
    return files


@pytest.fixture(scope="session", autouse=True)
def fixtures_unchanged():
    """Fail the session if any test created, changed or rewrote a fixture file.

    Commands that write next to the workspace (``forge build`` without
    ``--dockerfile-out``) must be pointed at a temporary directory instead.
    """

    before = _fixture_files()
    yield
    after = _fixture_files()
    changed = sorted(
        name for name in before.keys() | after.keys() if before.get(name) != after.get(name)
    )
    assert not changed, f"tests wrote into tests/fixtures: {', '.join(changed)}"


@pytest.fixture(scope="session")
def fixture_root() -> Path:
    return FIXTURE_ROOT


@pytest.fixture(scope="session")
def minimal_analysis() -> WorkspaceAnalysis:
    return analysis_for("minimal")


@pytest.fixture(scope="session")
def multi_repo_analysis() -> WorkspaceAnalysis:
    return analysis_for("multi_repo")


@pytest.fixture(scope="session")
def catkin_analysis() -> WorkspaceAnalysis:
    return analysis_for("catkin_noetic", distro="noetic")


@pytest.fixture(scope="session")
def unresolved_analysis() -> WorkspaceAnalysis:
    return analysis_for("unresolved")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    """One line per acceptance criterion, after the normal summary."""

    from acceptance_report import RESULTS

    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(RESULTS):
        status, title, detail = RESULTS[criterion]
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{status} {criterion} {title}{suffix}")
