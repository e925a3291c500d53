"""Well-formedness of Dockerfile text, checked from outside forge.

Backslash continuations are joined first. Then every line that is not
blank or a comment must start with an instruction keyword, every RUN
body must pass ``/bin/sh -n``, which parses shell text without running
it, and every COPY must name at least one source and a destination, in
the whitespace-separated form or the JSON-array form.

:func:`ignore_admits` models how Docker reads a ``.dockerignore``, for the
patterns forge writes and those of a workspace's own file.
"""

from __future__ import annotations

import json
import posixpath
import re
import subprocess
from typing import Callable

KEYWORDS = frozenset({
    "ADD", "ARG", "CMD", "COPY", "ENTRYPOINT", "ENV", "EXPOSE", "FROM", "HEALTHCHECK",
    "LABEL", "ONBUILD", "RUN", "SHELL", "STOPSIGNAL", "USER", "VOLUME", "WORKDIR",
})


def instructions(text: str) -> list[str]:
    """The instructions of ``text``, one line each with continuations joined."""

    joined: list[str] = []
    pending = ""
    for line in text.splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        joined.append(pending + line)
        pending = ""
    if pending:
        joined.append(pending)
    return joined


def copy_operands(line: str) -> list[str] | None:
    """The operands of one COPY instruction after its ``--`` flags; None if the
    JSON-array form does not parse as a list of strings."""

    rest = re.match(r"\s*\S+(?:\s+--\S+)*\s*(.*)", line).group(1)
    if not rest.startswith("["):
        return rest.split()
    try:
        operands = json.loads(rest)
    except ValueError:
        return None
    if not isinstance(operands, list) or not all(isinstance(o, str) for o in operands):
        return None
    return operands


def dockerfile_problems(text: str) -> list[str]:
    """What makes ``text`` not a well-formed Dockerfile; empty when it is one."""

    problems = []
    for line in instructions(text):
        keyword, _, body = line.strip().partition(" ")
        if keyword.upper() not in KEYWORDS:
            problems.append(f"not an instruction: {line!r}")
        elif keyword.upper() == "RUN":
            shell = subprocess.run(["/bin/sh", "-n", "-c", body], capture_output=True, text=True)
            if shell.returncode != 0:
                problems.append(f"RUN body is not shell ({shell.stderr.strip()}): {body!r}")
        elif keyword.upper() == "COPY":
            operands = copy_operands(line.strip())
            if operands is None or len(operands) < 2:
                problems.append(f"COPY without a source and a destination: {line!r}")
    return problems


def _pattern_re(pattern: str) -> re.Pattern[str]:
    """A ``.dockerignore`` pattern as a regex over slash-separated paths."""

    out, index = [], 0
    while index < len(pattern):
        char = pattern[index]
        if pattern.startswith("**/", index):
            out.append("(?:.*/)?")
            index += 3
            continue
        if pattern.startswith("**", index):
            out.append(".*")
            index += 2
            continue
        if char == "\\":
            index += 1
            out.append(re.escape(pattern[index]))
        elif char == "[":
            end = pattern.index("]", index + 2)
            members = pattern[index + 1:end]
            out.append("[" + ("^" + members[1:] if members[0] in "!^" else members) + "]")
            index = end
        else:
            out.append({"*": "[^/]*", "?": "[^/]"}.get(char, re.escape(char)))
        index += 1
    return re.compile("".join(out))


def ignore_admits(text: str) -> Callable[[str], bool]:
    """Whether the ignore file ``text`` lets a context path in.

    Models Docker's reading: lines are trimmed, ``#`` lines are comments,
    ``!`` takes back, ``*``, ``?``, ``**`` and ``[...]`` are wildcards and
    ``\\`` escapes. A pattern that matches a directory matches all below it,
    and the last matching pattern decides.
    """

    rules = []
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        admit = line.startswith("!")
        pattern = posixpath.normpath(line[1:].strip() if admit else line).lstrip("/")
        rules.append((admit, _pattern_re(pattern)))

    def admits(path: str) -> bool:
        parts = path.split("/")
        prefixes = ["/".join(parts[:depth]) for depth in range(1, len(parts) + 1)]
        verdict = True
        for admit, pattern in rules:
            if any(pattern.fullmatch(prefix) for prefix in prefixes):
                verdict = admit
        return verdict

    return admits
