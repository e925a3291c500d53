"""Every YAML input, however broken, ends forge with exit 0 or one error naming the file.

forge reads four YAML inputs: ``forge.yaml``, ``.repos`` files, distro
indexes and rosdep databases. Each is drawn here as arbitrary text or as
near-valid YAML (bad tags, merges, unhashable keys, aliases) and given to
``main``. A run must exit 0, or exit 2 with one ``forge: error:
<UserError subclass>: <path>...`` message; never exit 1 or a traceback.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import forge.errors
from forge.cli import main

# Pieces of YAML that a loader rejects, or builds into a value of a type
# forge does not expect, or that only parse in some places.
_FRAGMENTS = [
    "!!int x", "!!bool q", "!!timestamp 2020-13-45", "!!float abc", "!!binary -", "!foo x",
    "!!set {a, b}", "!!omap [a: 1]", "!!str", "&a [*a]", "*nope", "[1, 2", "{a: 1", "[a]",
    "{a: 1}", "? [a]\n: 1", "? {a: 1}\n: 2", "<<: 5", "<<: [x]", "<<: {type: git}", "<<: *m",
    "&m {url: u}", "~", "''", "-1", "0o17", "1e999", "|\n  x", ">\n  y", "- a", "- [b]",
    "[{a: !foo x}, !!int y]", "%TAG ! x\n---", "---\n---", "...", "\t", "\x00", "@", "`", ":", "- ", "&x", "*x",
]
_USER_ERRORS = sorted(
    cls.__name__ for cls in vars(forge.errors).values()
    if isinstance(cls, type) and issubclass(cls, forge.errors.UserError)
)
# Any text a file can hold: no surrogates, and of the control characters,
# which YAML refuses, only newline, tab and (among the fragments) NUL.
_CHARACTERS = st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from("\n\t")
_TEXT = st.text(_CHARACTERS, max_size=12)
_VALUES = st.one_of(st.sampled_from(_FRAGMENTS), _TEXT, st.integers().map(str))


def _documents(template: str, valid: tuple[str, ...]) -> st.SearchStrategy[str]:
    """Arbitrary text; lines of ``key: value`` at drawn indents; or ``template``
    filled with its ``valid`` values, but for at most one drawn value."""

    words = [*re.findall(r"[a-z_]+", template), *valid]
    keys = st.one_of(st.sampled_from(words), st.sampled_from(_FRAGMENTS), _TEXT)
    lines = st.one_of(
        st.builds("{}{}: {}".format, st.sampled_from(["", "  ", "    ", "- "]), keys, _VALUES),
        st.sampled_from(_FRAGMENTS),
    )

    def near_valid(slot: int, value: str) -> str:
        return template.format(*(value if i == slot else v for i, v in enumerate(valid)))

    return st.one_of(
        st.text(_CHARACTERS, max_size=80),
        st.lists(lines, max_size=10).map("\n".join),
        st.builds(near_valid, st.integers(0, len(valid)), _VALUES),
    )


# Each input: a template of a valid document, its slots' valid values, its flag.
_INPUTS = {
    "forge.yaml": (
        "registry: {}\nparallelism: {}\nstrict: {}\ndefault_distro: {}\n{}: 1\n",
        ("localhost", "2", "true", "humble", "parallelism"),
        "--config",
    ),
    "deps.repos": (
        "repositories:\n  {}:\n    type: {}\n    url: {}\n    version: {}\n",
        ("ros2", "git", "https://example.com/a.git", "main"),
        "--repos",
    ),
    "index.yaml": (
        "distro:\n  name: {}\n  ros_version: {}\n  packages: [{}, {}]\n",
        ("humble", "2", "rclcpp", "std_msgs"),
        "--distro-index",
    ),
    "rosdep.yaml": (
        "{}:\n  ubuntu: {}\n  debian: [x]\n{}:\n  ubuntu:\n    pip:\n      packages: {}\n",
        ("eigen", "[libeigen3-dev]", "numpy", "[numpy]"),
        "--rosdep-db",
    ),
}

_PACKAGE = """\
<package format="3">
  <name>solo</name>
  <version>0.1.0</version>
  <export><build_type>ament_cmake</build_type></export>
</package>
"""


def _run(name: str, text: str, needs: str = "") -> None:
    """``forge analyze`` of a package without dependencies, reading ``text`` as ``name``."""

    *_, flag = _INPUTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        # No dependencies, so no drawn distro or --strict can leave one unresolved.
        (Path(tmp, "ws") / "solo").mkdir(parents=True)
        Path(tmp, "ws", "solo", "package.xml").write_text(_PACKAGE, encoding="utf-8")
        path = Path(tmp, name)
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(Path(tmp, "ws")), "--dry-run", flag, str(path)])
    message = err.getvalue()
    if code == 0:
        assert (message, needs) == ("", ""), message
        return
    assert code == 2 and needs in message, message
    assert re.match(rf"forge: error: (?:{'|'.join(_USER_ERRORS)}): {re.escape(str(path))}", message)
    assert message.count("forge: error:") == 1 and "Traceback" not in message, message


_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(_documents(*_INPUTS["forge.yaml"][:2]))
def test_any_forge_yaml_ends_in_success_or_a_config_error(text: str) -> None:
    _run("forge.yaml", text)


@_SETTINGS
@given(_documents(*_INPUTS["deps.repos"][:2]))
def test_any_repos_file_ends_in_success_or_an_error_naming_it(text: str) -> None:
    _run("deps.repos", text)


@_SETTINGS
@given(_documents(*_INPUTS["index.yaml"][:2]))
def test_any_distro_index_ends_in_success_or_an_error_naming_it(text: str) -> None:
    _run("index.yaml", text)


@_SETTINGS
@given(_documents(*_INPUTS["rosdep.yaml"][:2]))
def test_any_rosdep_database_ends_in_success_or_an_error_naming_it(text: str) -> None:
    _run("rosdep.yaml", text)


@pytest.mark.parametrize("name", list(_INPUTS))
def test_a_tag_without_a_constructor_below_a_value_that_fails_names_the_file(name: str) -> None:
    # !!int fails first; the search for the node that failed then meets !foo.
    template, valid, _ = _INPUTS[name]
    _run(name, template.format("[{a: !foo x}, !!int y]", *valid[1:]), "could not determine")
