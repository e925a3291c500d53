"""Source repository lists and clone planning.

Repository lists follow the vcstool file convention: a ``repositories``
mapping of local names to ``{type, url, version}`` entries. Only git is
supported. URLs may embed credential placeholders (``${VAR}``). No
credential value enters a string forge builds: the clone plan shows each
placeholder as ``***``, and the engine takes each value from its own
environment, passed by name. Only the engine's own error output can echo
a value, so :func:`redact` serves that one text.
"""

from __future__ import annotations

import re
from pathlib import PurePosixPath
from typing import Iterable, NamedTuple, Sequence

from .errors import MalformedReposFile, UnsupportedVcsType
from .textio import load_yaml

_SEGMENT_RE = re.compile(r"[A-Za-z0-9_.-]+")
_PLACEHOLDER_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")
# A URL's userinfo, up to the last ``@`` of its authority.
_USERINFO_RE = re.compile(r"(?<=://)[^\s/?#'\"]+@")

ReposList = tuple["RepoSpec", ...]


class RepoSpec(NamedTuple):
    """One repository entry from a ``.repos`` file."""

    local_name: str
    url: str
    version: str | None = None


def safe_relative_path(text: str) -> bool:
    """Whether ``text`` is a relative path of ``[A-Za-z0-9_.-]+`` segments, none of them ``..``."""

    parts = PurePosixPath(text).parts  # an absolute path's first part, "/" or "//", fails
    return bool(parts) and all(part != ".." and _SEGMENT_RE.fullmatch(part) for part in parts)


def parse_repos(yaml_text: str, path: str) -> ReposList:
    """Parse the repository list file ``path``, sorted by local name; errors start with ``path``."""

    doc = load_yaml(yaml_text, path, MalformedReposFile)
    if not isinstance(doc, dict) or not isinstance(doc.get("repositories"), dict):
        raise MalformedReposFile(f"{path}: expected a top-level 'repositories' mapping")

    repos: list[RepoSpec] = []
    for name, body in doc["repositories"].items():
        if not isinstance(name, str) or not safe_relative_path(name):
            raise MalformedReposFile(f"{path}: invalid repository name {name!r}")
        where = f"{path}: repository {name!r}"
        if not isinstance(body, dict):
            raise MalformedReposFile(f"{where} is not a mapping")
        vcs_type = body.get("type")
        if not isinstance(vcs_type, str) or not vcs_type:
            raise MalformedReposFile(f"{where} is missing a vcs type")
        if vcs_type != "git":
            raise UnsupportedVcsType(f"{where} uses {vcs_type!r}, only git is supported")
        url = body.get("url")
        if not isinstance(url, str) or not url or re.search(r"\s", url):
            raise MalformedReposFile(f"{where} has an invalid url")
        version = body.get("version")
        if version is not None:
            if not isinstance(version, str) or not version or re.search(r"\s", version):
                raise MalformedReposFile(f"{where} has an invalid version")
        repos.append(RepoSpec(local_name=name, url=url, version=version))

    repos.sort(key=lambda r: r.local_name)
    return tuple(repos)


def combine_repos(lists: Iterable[tuple[str, ReposList]]) -> ReposList:
    """Merge (path, list) pairs; a local name in two lists is an error naming both paths."""

    merged: dict[str, tuple[str, RepoSpec]] = {}
    for path, repos in lists:
        for repo in repos:
            if repo.local_name in merged:
                raise MalformedReposFile(
                    f"repository {repo.local_name!r} appears in "
                    f"{merged[repo.local_name][0]} and {path}"
                )
            merged[repo.local_name] = (path, repo)
    return tuple(sorted((repo for _, repo in merged.values()), key=lambda r: r.local_name))


def required_credential_vars(repos: Sequence[RepoSpec]) -> list[str]:
    """Sorted names of the ``${VAR}`` placeholders in any repository URL."""

    names: set[str] = set()
    for repo in repos:
        names.update(_PLACEHOLDER_RE.findall(repo.url))
    return sorted(names)


def redact(text: str, secrets: Iterable[str]) -> str:
    """``text`` with each URL's userinfo and each non-empty secret replaced by ``***``.

    ``scheme://userinfo@`` becomes ``scheme://***@`` first, which also hides
    a credential in the percent-encoded form git prints. Then a value is
    replaced only where no ``[A-Za-z0-9_-]`` character flanks it, so a short
    credential leaves a word that contains it (``tok`` in ``x-access-token``)
    alone. Longer values go first, so a secret that contains another is
    hidden whole rather than in part.
    """

    text = _USERINFO_RE.sub("***@", text)
    for value in sorted(secrets, key=len, reverse=True):
        if value:
            pattern = rf"(?<![\w-]){re.escape(value)}(?![\w-])"
            text = re.sub(pattern, "***", text, flags=re.ASCII)
    return text


def clone_plan(repos: Sequence[RepoSpec], dest_root: str) -> list[str]:
    """One log line per clone of ``repos`` under ``dest_root``, safe to print.

    Each ``${VAR}`` placeholder is shown as ``***``; no credential value
    is read. Order follows the repository list.
    """

    lines = []
    root = PurePosixPath(dest_root)
    for repo in repos:
        shown = _PLACEHOLDER_RE.sub("***", repo.url)
        version = repo.version or "(default branch)"
        lines.append(f"clone {shown} @ {version} -> {root / repo.local_name}")
    return lines
