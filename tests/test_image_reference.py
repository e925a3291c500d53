"""Every image reference forge takes or writes follows Docker's reference grammar.

The grammar is transcribed here from
https://github.com/distribution/reference/blob/main/regexp.go on its own,
not imported from forge, so a slip in forge's copy shows as a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forge.cli
from forge import ARCHITECTURES, TARGETS
from forge.cli import main

from conftest import FIXTURE_ROOT
from recording_driver import RecordingDriver

MINIMAL = str(FIXTURE_ROOT / "minimal")

# regexp.go, term by term. Go's \w and [[:xdigit:]] are ASCII.
ALPHANUMERIC = r"[a-z0-9]+"
SEPARATOR = r"(?:[._]|__|[-]+)"
DOMAIN_NAME_COMPONENT = r"(?:[a-zA-Z0-9]|[a-zA-Z0-9][a-zA-Z0-9-]*[a-zA-Z0-9])"
OPTIONAL_PORT = r"(?::[0-9]+)?"
TAG = r"[\w][\w.-]{0,127}"
DIGEST = r"[A-Za-z][A-Za-z0-9]*(?:[-_+.][A-Za-z][A-Za-z0-9]*)*[:][0-9a-fA-F]{32,}"
IPV6_ADDRESS = r"\[(?:[a-fA-F0-9:]+)\]"
DOMAIN_NAME = rf"{DOMAIN_NAME_COMPONENT}(?:\.{DOMAIN_NAME_COMPONENT})*"
HOST = rf"(?:{DOMAIN_NAME}|{IPV6_ADDRESS})"
DOMAIN_AND_PORT = HOST + OPTIONAL_PORT
PATH_COMPONENT = rf"{ALPHANUMERIC}(?:{SEPARATOR}{ALPHANUMERIC})*"
REMOTE_NAME = rf"{PATH_COMPONENT}(?:/{PATH_COMPONENT})*"
NAME = rf"(?:{DOMAIN_AND_PORT}/)?{REMOTE_NAME}"

# The forms forge's options take.
FORMS = {
    "registry": re.compile(rf"{DOMAIN_AND_PORT}(?:/{PATH_COMPONENT})*", re.ASCII),
    "repository": re.compile(REMOTE_NAME, re.ASCII),
    "tagged": re.compile(rf"{NAME}(?::{TAG})?", re.ASCII),
    "base": re.compile(rf"(?:{NAME}(?::{TAG})?(?:@{DIGEST})?)?", re.ASCII),
}
TAGGED = FORMS["tagged"]


def _forge(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, driver=RecordingDriver())
    return code, out.getvalue(), err.getvalue()


def test_importing_the_command_line_compiles_no_pattern() -> None:
    # Compiling the grammar would cost every process, --version included.
    assert not [name for name, value in vars(forge.cli).items() if isinstance(value, re.Pattern)]


_SHA256 = "sha256:" + "0123456789abcdef" * 4
_VALID = [
    "ros:humble", "localhost:5000/app:1", "nvcr.io/nvidia/l4t-base:r35.1.0", "[::1]:5000/a",
    f"ubuntu@{_SHA256}", "Registry.Example.com/ros:humble", "app:" + "t" * 128,
]
_INVALID = ["My/App:run", "a::b", "a//b.", "localhost/My WS:run", "app:", "-x", "app:" + "t" * 129]

# Each option: its form, the command that takes it, and the error class.
_CI = ["generate", "ci", "--platform", "github", "-o", "-"]
_OPTIONS = {
    "--tag": ("tagged", ["build", MINIMAL, "--dry-run"], "InvalidArgs"),
    "--base": ("base", ["generate", "dockerfile", MINIMAL, "-o", "-"], "InvalidArgs"),
    "--image-name": ("repository", _CI, "InvalidArgs"),
    "--registry": ("registry", ["matrix", "list"], "ConfigError"),
}


def test_the_examples_are_read_as_the_spec_reads_them() -> None:
    assert all(FORMS["base"].fullmatch(text) for text in _VALID)
    assert not any(FORMS["base"].fullmatch(text) for text in _INVALID)
    assert not FORMS["tagged"].fullmatch(f"ubuntu@{_SHA256}")


@pytest.mark.parametrize("text", [*_VALID, *_INVALID, "", "ros", "a/b", "reg.io:5000"])
@pytest.mark.parametrize("option", list(_OPTIONS))
def test_an_option_takes_exactly_its_form_of_the_grammar(option: str, text: str) -> None:
    form, argv, error = _OPTIONS[option]
    code, out, err = _forge([*argv, f"{option}={text}"])
    if FORMS[form].fullmatch(text):
        assert (code, err) == (0, ""), err
    else:
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"forge: error: {error}: {option} must .*\n", err), err
        assert err.count("\n") == 1


def test_generate_ci_also_checks_the_base() -> None:
    argv = [*_CI, "--image-name", "app"]
    assert _forge([*argv, f"--base=ubuntu@{_SHA256}"])[0] == 0
    assert _forge([*argv, "--base=a::b"]) == (
        2, "", "forge: error: InvalidArgs: --base must be an image reference, got 'a::b'\n"
    )


_REGISTRIES = st.from_regex(FORMS["registry"], fullmatch=True)


@settings(max_examples=40, deadline=None)
@given(registry=_REGISTRIES)
@example(registry="[::1]:5000/group")
def test_every_matrix_tag_is_a_reference(registry: str) -> None:
    code, out, err = _forge(["matrix", "list", f"--registry={registry}"])
    assert code == 0, err
    tags = out.splitlines()
    assert len(tags) == 180
    assert all(TAGGED.fullmatch(tag) for tag in tags), tags


def _tags(document: object) -> list[str]:
    """The word after each ``--tag`` in every command line of a pipeline document."""

    if isinstance(document, dict):
        return [tag for value in document.values() for tag in _tags(value)]
    if isinstance(document, list):
        return [tag for value in document for tag in _tags(value)]
    words = shlex.split(document) if isinstance(document, str) and "--tag" in document else []
    return [words[i + 1] for i, word in enumerate(words) if word == "--tag"]


@settings(max_examples=60, deadline=None)
@given(
    platform=st.sampled_from(("github", "gitlab")),
    registry=_REGISTRIES,
    image_name=st.from_regex(FORMS["repository"], fullmatch=True),
    archs=st.lists(st.sampled_from(ARCHITECTURES), min_size=1, unique=True),
    targets=st.lists(st.sampled_from(TARGETS), min_size=1, unique=True),
    test_stage=st.booleans(),
)
def test_every_ci_tag_is_a_reference(
    platform, registry, image_name, archs, targets, test_stage
) -> None:
    argv = ["generate", "ci", "--platform", platform, f"--registry={registry}",
            f"--image-name={image_name}", "--targets", ",".join(targets), "-o", "-"]
    argv += [f"--arch={arch}" for arch in archs]
    argv += ["--enable-test"] if test_stage and "dev" in targets else []
    code, out, err = _forge(argv)
    assert code == 0, err
    tags = _tags(yaml.safe_load(out))
    assert len(tags) >= len(targets) * len(archs)
    assert all(TAGGED.fullmatch(tag) for tag in tags), tags


def _default_tag(name: str) -> tuple[int, str | None, str]:
    """Exit code, ``--tag`` and stderr of ``build --dry-run`` on a workspace directory ``name``."""

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, name)
        shutil.copytree(MINIMAL, root)
        code, out, err = _forge(["build", str(root), "--dry-run"])
    tag = re.search(r" --tag (\S+)", out)
    return code, tag and tag[1], err


@pytest.mark.parametrize(
    ("name", "tag"),
    [("My WS", "my-ws"), ("MyRobot", "myrobot"), ("ros2_ws", "ros2_ws"), ("my.ws", "my.ws"),
     ("_ws_", "ws"), ("a..b", "a-b"), ("Ärger", "rger")],
)
def test_the_default_build_tag_is_named_after_the_workspace(name: str, tag: str) -> None:
    assert _default_tag(name) == (0, f"localhost/{tag}:run", "")


_DIRECTORY_NAMES = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1, max_size=20,
).filter(lambda name: name not in (".", ".."))
# Path components short enough for a file name.
_COMPONENTS = st.from_regex(
    r"[a-z0-9]{1,8}(?:(?:[._]|__|-{1,3})[a-z0-9]{1,8}){0,4}", fullmatch=True
)


@settings(max_examples=60, deadline=None)
@given(name=_DIRECTORY_NAMES | _COMPONENTS)
@example(name="--")
@example(name="Ü")
def test_the_default_build_tag_is_a_reference_or_asks_for_one(name: str) -> None:
    code, tag, err = _default_tag(name)
    if code == 2:
        assert tag is None and not re.search("[a-z0-9]", name.lower())
        assert err == (
            f"forge: error: InvalidArgs: workspace directory {name!r} gives no image name; "
            "give --tag\n"
        )
    else:
        assert (code, err) == (0, "")
        assert TAGGED.fullmatch(tag), tag
        if re.fullmatch(PATH_COMPONENT, name):
            assert tag == f"localhost/{name}:run"
