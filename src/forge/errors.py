"""Exception hierarchy shared across the package.

Two families matter for the command line frontend: ``UserError`` covers
bad input (malformed files, failing plugins, impossible requests, missing
credentials) and maps to exit code 2; every other ``ForgeError``, such as
a failure of the container engine, maps to 1.
"""

from __future__ import annotations


def shown(value: object) -> str:
    """``repr(value)`` for an error message; a value nested too deeply to print is named by type."""

    try:
        return repr(value)
    except RecursionError:
        return f"a deeply nested {type(value).__name__}"


class ForgeError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class UserError(ForgeError):
    """Invalid input supplied by the caller."""

    exit_code = 2


# --- workspace manifests ---------------------------------------------------


class MalformedManifest(UserError):
    """A package manifest is not well formed XML or misses required fields."""


class UnsupportedFormat(UserError):
    """A package manifest declares a format version outside 1..3."""


class DuplicatePackageName(UserError):
    """Two packages in one workspace share a name."""


class EmptyWorkspace(UserError):
    """A workspace scan found no package manifests."""


class UnreadableWorkspace(UserError):
    """A workspace directory or package manifest could not be read."""


# --- dependency databases --------------------------------------------------


class MalformedDatabase(UserError):
    """A dependency database or distro index file has an invalid shape."""


# --- source repository lists -----------------------------------------------


class MalformedReposFile(UserError):
    """A repository list file has an invalid shape."""


class UnsupportedVcsType(UserError):
    """A repository entry uses a version control system other than git."""


class MissingCredential(UserError):
    """A repository URL references a credential variable that is not set."""


# --- image planning --------------------------------------------------------


class InvalidSpec(UserError):
    """An image or pipeline option, or a path the Dockerfile names, violates its constraints."""


class UnresolvedDependencies(UserError):
    """Strict mode forbids unresolved dependency keys."""

    def __init__(self, keys: list[str]) -> None:
        super().__init__("unresolved dependency keys: " + ", ".join(keys))


# --- output files ----------------------------------------------------------


class UnwritableOutput(UserError):
    """A file forge was asked to write could not be written."""


# --- configuration ---------------------------------------------------------


class ConfigError(UserError):
    """The layered configuration is invalid or references missing files."""


# --- engine ----------------------------------------------------------------


class EngineUnavailable(ForgeError):
    """No container engine binary could be found."""


class NonZeroExit(ForgeError):
    """The engine returned a non-zero exit code."""

    def __init__(self, argv: list[str], exit_code: int, stderr: str) -> None:
        super().__init__(
            f"engine command {' '.join(argv)!r} failed with exit code {exit_code}: "
            + stderr.strip()
        )
        self.argv = list(argv)
        self.engine_exit_code = exit_code
        self.stderr = stderr


class MalformedEngineOutput(ForgeError):
    """The engine produced output that could not be parsed."""


# --- development runs ------------------------------------------------------


class InvalidArgs(UserError):
    """Command line arguments are invalid."""


class PluginViolation(UserError):
    """A run plugin (user configuration) failed or broke an invocation invariant."""

    def __init__(self, plugin: str, problems: list[str]) -> None:
        super().__init__(f"plugin {plugin!r} broke invariants: " + "; ".join(problems))
