"""Well-formedness of Dockerfile text, checked from outside forge.

Backslash continuations are joined first. Then every line that is not
blank or a comment must start with an instruction keyword, and every RUN
body must pass ``/bin/sh -n``, which parses shell text without running it.
"""

from __future__ import annotations

import subprocess

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
    return problems
