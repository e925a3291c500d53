"""Well-formedness of Dockerfile text, checked from outside forge.

Backslash continuations are joined first. Then every line that is not
blank or a comment must start with an instruction keyword, every RUN
body must pass ``/bin/sh -n``, which parses shell text without running
it, and every COPY must name at least one source and a destination, in
the whitespace-separated form or the JSON-array form. A COPY of several
sources must go to a directory, and ``COPY --parents`` needs the labs
channel of the Dockerfile frontend.

:func:`copy_source` and :func:`copy_destination` model how BuildKit reads a
COPY operand, :func:`copy_landings` where each source of a COPY lands,
:func:`lineage_layers` the layers each stage's image holds,
:func:`arg_default` how it reads an ``ARG`` default, and
:func:`ignore_admits` how Docker reads a ``.dockerignore``, for the
patterns forge writes and those of a workspace's own file.
:func:`shell_words` reads one command line the way a shell does, for the
``run:`` lines of a CI pipeline.
"""

from __future__ import annotations

import json
import posixpath
import re
import shlex
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


def stage_text(dockerfile: str, stage: str) -> str:
    """The block of a rendered Dockerfile belonging to one stage, from after ``FROM``."""

    for block in dockerfile.split("\nFROM ")[1:]:
        if block.splitlines()[0].endswith(f" AS {stage}"):
            return block
    raise AssertionError(f"stage {stage} not found")


def copy_flags(line: str) -> list[str]:
    """The ``--`` flags of one COPY instruction."""

    return re.match(r"\s*\S+((?:\s+--\S+)*)", line).group(1).split()


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


def shell_word(operand: str) -> str | None:
    """What BuildKit's shell-word lexer makes of one COPY operand, in either form.

    ``\\`` makes the next character plain. None where an unescaped ``$``
    would expand a variable or a quote would start quoting, or where the
    operand ends in a lone ``\\``.
    """

    out, index = [], 0
    while index < len(operand):
        char = operand[index]
        if char == "\\":
            index += 1
            if index == len(operand):
                return None
            char = operand[index]
        elif char in "$'\"":
            return None
        out.append(char)
        index += 1
    return "".join(out)


# One part of an ARG default: an escaped character, a single-quoted string,
# a double-quoted string without an unescaped ``$``, or plain characters.
_ARG_PART_RE = re.compile(r"""\\(.)|'([^']*)'|"((?:[^"\\$]|\\.)*)"|([^\s\\'"$]+)""", re.S)


def arg_default(line: str) -> str | None:
    """The default BuildKit's lexer reads from one ``ARG NAME=value`` instruction.

    Outside quotes ``\\`` makes the next character plain; between single
    quotes every character is plain; between double quotes ``\\`` escapes
    only ``\\``, ``"`` and ``$``. None where an unescaped ``$`` would expand
    a variable, where whitespace outside quotes would end the word, or
    where a quote is not closed or the value ends in a lone ``\\``.
    """

    match = re.fullmatch(r"ARG [A-Za-z_][A-Za-z0-9_]*=(.*)", line, re.S)
    if match is None:
        return None
    value, out, index = match[1], [], 0
    while index < len(value):
        part = _ARG_PART_RE.match(value, index)
        if part is None:
            return None
        escaped, single, double, plain = part.groups()
        if double is not None:
            out.append(re.sub(r'\\([\\"$])', r"\1", double))
        else:
            out.append(escaped if escaped is not None else single if single is not None else plain)
        index = part.end()
    return "".join(out)


# A quoted string or an escaped character: the shell reads the characters
# in it as they are, except ``$`` and a backquote between double quotes.
_SHELL_QUOTED_RE = re.compile(r"""'[^']*'|"(?:[^"\\]|\\.)*"|\\.""", re.S)
# Outside quotes, what the shell reads as more than a character: an
# expansion, a glob, a brace expansion, an operator, a comment or ``~``.
_SHELL_SPECIAL_RE = re.compile(r"[$`*?[\]{}~#;&|<>()]")


def shell_words(line: str) -> list[str] | None:
    """The words a shell runs for one command line, as :func:`shlex.split` reads them.

    None where the shell would read a character of the line as more than
    itself outside quotes, or a ``$`` or backquote between double quotes,
    or where a quote is not closed.
    """

    def outside(quoted: re.Match[str]) -> str:
        return "$" if quoted[0][0] == '"' and re.search("[$`]", quoted[0]) else ""

    if _SHELL_SPECIAL_RE.search(_SHELL_QUOTED_RE.sub(outside, line)):
        return None
    try:
        return shlex.split(line)
    except ValueError:
        return None


def _contains_wildcards(component: str) -> bool:
    """Go's check in BuildKit's copy: ``*``, ``?`` or ``[`` not after a ``\\``."""

    index = 0
    while index < len(component):
        if component[index] == "\\":
            index += 1
        elif component[index] in "*?[":
            return True
        index += 1
    return False


def _match_literal(pattern: str) -> str | None:
    """The one name Go's ``filepath.Match(pattern, name)`` accepts; None if it
    accepts any other name, or no name because the pattern is malformed.

    ``\\c`` is c, and a class ``[c]`` or ``[\\c]`` is c; ``*``, ``?``, a
    negated class, a range and a class of more characters match more.
    """

    out, index = [], 0
    while index < len(pattern):
        char = pattern[index]
        if char in "*?":
            return None
        if char == "\\":
            index += 1
            if index == len(pattern):
                return None
            char = pattern[index]
        elif char == "[":
            member = pattern[index + 1:index + 2]
            if member in ("", "^", "]", "-"):
                return None
            step = 2
            if member == "\\":
                member = pattern[index + 2:index + 3]
                step = 3
            if not member or pattern[index + step:index + step + 1] != "]":
                return None
            char = member
            index += step
        out.append(char)
        index += 1
    return "".join(out)


def copy_source(operand: str) -> str | None:
    """The one context path a COPY source operand names; None if it names a
    pattern that other paths match, or expands a variable.

    After the lexer, BuildKit reads the path's components up to the first
    that holds a wildcard as plain names, and matches the rest with Go's
    ``filepath.Match``.
    """

    word = shell_word(operand)
    if word is None:
        return None
    parts = word.split("/")
    first = next((i for i, part in enumerate(parts) if _contains_wildcards(part)), len(parts))
    matched = [_match_literal(part) for part in parts[first:]]
    if None in matched:
        return None
    return "/".join([*parts[:first], *matched])


def copy_destination(operand: str) -> str | None:
    """The container path a COPY destination operand names; None if it expands a variable."""

    return shell_word(operand)


def copy_landings(line: str) -> list[tuple[str, str]] | None:
    """Each context path one COPY instruction names, with the container path it lands at.

    With ``--parents`` each source keeps its context path below the
    destination (https://docs.docker.com/reference/dockerfile/#copy---parents).
    Without it a source that ends in ``/``, a directory, lands at the
    destination, which then holds its content; a file lands there too,
    or below it under its own name when the destination ends in ``/``.
    None where an operand names no one path.
    """

    operands = copy_operands(line)
    if operands is None or len(operands) < 2:
        return None
    sources = [copy_source(operand) for operand in operands[:-1]]
    destination = copy_destination(operands[-1])
    if destination is None or None in sources:
        return None
    if "--parents" in copy_flags(line):
        return [(source, posixpath.join(destination, source)) for source in sources]
    return [
        (source, destination + posixpath.basename(source)
         if destination.endswith("/") and not source.endswith("/") else destination)
        for source in sources
    ]


def lineage_layers(text: str) -> dict[str, int]:
    """The layers, RUN, COPY and ADD instructions, that each stage's image holds.

    A stage holds its own and those of the stage of the file it derives
    from through ``FROM``, and so on up; an image from outside the file
    adds none.
    """

    parents: dict[str, str] = {}
    own: dict[str, int] = {}
    name = ""
    for line in instructions(text):
        keyword, _, rest = line.strip().partition(" ")
        if keyword.upper() == "FROM":
            parent, _, name = rest.split()
            parents[name], own[name] = parent, 0
        elif keyword.upper() in ("RUN", "COPY", "ADD") and name:
            own[name] += 1
    layers = {}
    for stage in own:
        layers[stage], name = 0, stage
        while name in own:
            layers[stage] += own[name]
            name = parents[name]
    return layers


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
            elif len(operands) > 2 and not operands[-1].endswith("/"):
                problems.append(f"COPY of several sources not to a directory: {line!r}")
            # The flag came in the labs channel of the Dockerfile frontend.
            if "--parents" in copy_flags(line) and not text.startswith(
                "# syntax=docker/dockerfile:1-labs\n"
            ):
                problems.append(f"COPY --parents without the labs syntax line: {line!r}")
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
