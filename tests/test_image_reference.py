"""Every image reference forge takes or writes follows Docker's reference grammar.

The grammar is transcribed here from
https://github.com/distribution/reference/blob/main/regexp.go on its own,
not imported from forge, so a slip in forge's copy shows as a mismatch.
So are the two rules ``ParseNormalizedNamed`` adds, from normalize.go and
reference.go in the same repository.
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
from forge.matrix import enumerate_matrix, tag_of

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

# normalize.go: ParseNormalizedNamed refuses an identifier, then parses the
# reference with splitDockerDomain's domain, and reference.go's Parse refuses
# a repository path (the name after its domain) longer than
# RepositoryNameTotalLengthMax.
ANCHORED_IDENTIFIER = re.compile(r"[a-f0-9]{64}")
REPOSITORY_NAME_TOTAL_LENGTH_MAX = 255
REFERENCE = re.compile(rf"({NAME})(?::{TAG})?(?:@{DIGEST})?", re.ASCII)


def split_docker_domain(name: str) -> tuple[str, str]:
    i = name.find("/")
    first = name[:i]
    plain = not any(c in first for c in ".:") and first != "localhost" and first.lower() == first
    if i == -1 or plain:
        domain, remainder = "docker.io", name
    else:
        domain, remainder = first, name[i + 1 :]
    if domain == "index.docker.io":
        domain = "docker.io"
    if domain == "docker.io" and "/" not in remainder:
        remainder = "library/" + remainder
    return domain, remainder


def docker_takes(reference: str) -> bool:
    """Whether ``ParseNormalizedNamed`` takes ``reference``, which the grammar accepts."""

    if ANCHORED_IDENTIFIER.fullmatch(reference):
        return False
    domain, remainder = split_docker_domain(reference)
    parsed = REFERENCE.fullmatch(f"{domain}/{remainder}")
    if parsed is None:
        return False
    path = parsed[1][len(domain) + 1 :]
    return len(path) <= REPOSITORY_NAME_TOTAL_LENGTH_MAX


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


def docker_domain(registry: str) -> bool:
    """Whether docker reads a bracketed host that starts ``registry`` as a domain."""

    return not split_docker_domain(f"{registry}/x")[1].startswith("[")


def _refuses_the_registry(registry: str, code: int, out: str, err: str) -> bool:
    """Whether ``registry`` is one docker does not read as a domain, refused as such."""

    if docker_domain(registry):
        return False
    assert (code, out, err) == (2, "", (
        f"forge: error: ConfigError: --registry must not start with a bracketed host "
        f"without ':', which docker reads as a path, got {registry!r}\n"
    ))
    return True


@pytest.mark.parametrize(
    ("registry", "taken"),
    [("[0]", False), ("[ab]/x", False), ("[0:1]", True), ("[0]:5000/x", True), ("[AB]", True)],
)
@pytest.mark.parametrize(
    "argv", [["matrix", "list"], [*_CI, "--image-name=app"], ["build", MINIMAL, "--dry-run"]]
)
def test_a_bracketed_registry_host_is_taken_when_docker_reads_it_as_a_domain(
    argv, registry, taken
) -> None:
    assert docker_domain(registry) == taken
    code, out, err = _forge([*argv, f"--registry={registry}"])
    if taken:
        assert (code, err) == (0, ""), err
    else:
        assert _refuses_the_registry(registry, code, out, err)


@settings(max_examples=40, deadline=None)
@given(registry=_REGISTRIES)
@example(registry="[::1]:5000/group")
@example(registry="[0]")
def test_every_matrix_tag_is_a_reference(registry: str) -> None:
    code, out, err = _forge(["matrix", "list", f"--registry={registry}"])
    if _refuses_the_registry(registry, code, out, err):
        return
    if not all(map(docker_takes, _matrix_tags(registry))):
        assert (code, out) == (2, "") and "InvalidArgs: a matrix tag under --registry" in err
        return
    assert code == 0, err
    tags = out.splitlines()
    assert len(tags) == 180
    assert all(TAGGED.fullmatch(tag) for tag in tags), tags


def _matrix_tags(registry: str) -> list[str]:
    return [tag_of(entry, registry) for entry in enumerate_matrix(None, None, None, None)]


@pytest.mark.parametrize("argv", [["matrix", "list"], ["matrix", "build", "--dry-run"]])
def test_matrix_tags_too_long_for_docker_are_refused(argv) -> None:
    # The longest repository path is the registry's then "/ros2-torch-cpp".
    suffix = "/ros2-torch-cpp"
    assert max(len(tag.partition(":")[0]) for tag in _matrix_tags("r")) == len("r" + suffix)
    fits = "ghcr.io/" + "a" * (255 - len(suffix))
    assert _forge([*argv, f"--registry={fits}"])[0] == 0
    registry = "ghcr.io/" + "a" * 253
    assert _forge([*argv, f"--registry={registry}"]) == (
        2, "", f"forge: error: InvalidArgs: a matrix tag under --registry {registry!r} must be "
        f"a docker repository of at most 255 characters: {'a' * 253 + suffix!r}\n"
    )


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
    if _refuses_the_registry(registry, code, out, err):
        return
    if not docker_takes(f"{registry}/{image_name}"):
        assert (code, out) == (2, ""), err
        assert err.startswith(f"forge: error: InvalidArgs: --image-name under {registry!r} must")
        return
    assert code == 0, err
    tags = _tags(yaml.safe_load(out))
    assert len(tags) >= len(targets) * len(archs)
    assert all(TAGGED.fullmatch(tag) and docker_takes(tag) for tag in tags), tags


def _default_tag(name: str, registry: str = "localhost") -> tuple[int, str | None, str]:
    """Exit code, ``--tag`` and stderr of ``build --dry-run`` on a workspace directory ``name``."""

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp, name)
        shutil.copytree(MINIMAL, root)
        code, out, err = _forge(["build", str(root), "--dry-run", f"--registry={registry}"])
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


# normalize_test.go, TestValidateReferenceName: names docker takes and refuses.
_DOCKER_VALID = [
    "docker/docker", "library/debian", "debian", "localhost/library/debian", "localhost/debian",
    "docker.io/docker/docker", "docker.io/library/debian", "docker.io/debian",
    "index.docker.io/docker/docker", "index.docker.io/library/debian", "index.docker.io/debian",
    "127.0.0.1:5000/docker/docker", "127.0.0.1:5000/library/debian", "127.0.0.1:5000/debian",
    "192.168.0.1", "192.168.0.1:80", "192.168.0.1:8/debian", "192.168.0.2:25000/debian",
    "thisisthesongthatneverendsitgoesonandonandonthisisthesongthatnev",
    "[fc00::1]:5000/docker", "[fc00::1]:5000/docker/docker",
    "[fc00:1:2:3:4:5:6:7]:5000/library/debian",
    "docker.io/1a3f5e7d9c1b3a5f7e9d1c3b5a7f9e1d3c5b7a9f1e3d5d7c9b1a3f5e7d9c1b3a",
]
_DOCKER_INVALID = [
    "https://github.com/docker/docker", "docker/Docker", "-docker", "-docker/docker",
    "-docker.io/docker/docker", "docker///docker", "docker.io/docker/Docker",
    "docker.io/docker///docker", "[fc00::1]", "[fc00::1]:5000", "fc00::1:5000/debian",
    "[fe80::1%eth0]:5000/debian", "[2001:db8:3:4::192.0.2.33]:5000/debian",
    "1a3f5e7d9c1b3a5f7e9d1c3b5a7f9e1d3c5b7a9f1e3d5d7c9b1a3f5e7d9c1b3a",
]
# Each as the docker 28.2.2 client's `docker build --tag` reads it. A length
# counts the repository path, with library/ for a one-part name on docker.io,
# but not the domain, tag or digest. reference_test.go's longest path is
# "a/" * 127 + "a".
_NORMALIZED = {
    "a" * 247: True,
    "a" * 248: False,
    "a" * 247 + ":" + "t" * 128: True,
    "a/" * 127 + "a:tag": True,
    "a/" * 128 + "a:tag": False,
    "localhost/" + "a" * 255: True,
    "localhost/" + "a" * 256: False,
    "index.docker.io/" + "a" * 247: True,
    "index.docker.io/" + "a" * 248: False,
    "reg.io:5000/" + "a" * 255: True,
    "reg.io:5000/" + "a" * 256: False,
    "ns/" + "a" * 252: True,
    "ns/" + "a" * 253: False,
    "[0]/a": False,  # not a domain without ":", and not a path component
    "[0:0]/a": True,
}


@pytest.mark.parametrize("text", [*_DOCKER_VALID, *_DOCKER_INVALID, *_NORMALIZED])
@pytest.mark.parametrize("option", ["--tag", "--base"])
def test_an_image_option_takes_what_docker_takes(option: str, text: str) -> None:
    form, argv, _ = _OPTIONS[option]
    takes = bool(FORMS[form].fullmatch(text)) and docker_takes(text)
    assert takes == (text in _DOCKER_VALID or _NORMALIZED.get(text, False))
    code, out, err = _forge([*argv, f"{option}={text}"])
    if takes:
        assert (code, err) == (0, ""), err
    else:
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"forge: error: InvalidArgs: {option} must .*\n", err), err


def test_an_identifier_is_refused_with_its_reason() -> None:
    hex64 = "0123456789abcdef" * 4
    message = " must not be 64 hex digits, which docker reads as an image ID\n"
    assert _forge(["build", MINIMAL, "--dry-run", f"--tag={hex64}"]) == (
        2, "", "forge: error: InvalidArgs: --tag" + message
    )
    assert _forge(["generate", "dockerfile", MINIMAL, "-o", "-", f"--base={hex64}"])[2] == (
        "forge: error: InvalidArgs: --base" + message
    )
    for near in (hex64[1:], hex64 + "0", f"docker.io/{hex64}", f"{hex64}:tag"):
        assert _forge(["build", MINIMAL, "--dry-run", f"--tag={near}"])[0] == 0


@settings(max_examples=60, deadline=None)
@given(
    domain=st.sampled_from(["", "localhost/", "index.docker.io/", "reg.io:5000/", "ns/", "Up/"]),
    parts=st.integers(1, 5),
    length=st.integers(225, 265),
    suffix=st.sampled_from(["", ":run", "@sha256:" + "0" * 64]),
)
def test_a_long_base_is_taken_exactly_when_docker_takes_it(domain, parts, length, suffix) -> None:
    size = max(1, (length - len(domain)) // parts)
    text = domain + "/".join(["a" * size] * parts) + suffix
    code, _, err = _forge(["generate", "dockerfile", MINIMAL, "-o", "-", f"--base={text}"])
    assert code == (0 if docker_takes(text) else 2), err


def test_the_ci_image_name_is_measured_under_its_registry() -> None:
    argv = [*_CI, "--registry=ghcr.io/org"]
    assert _forge([*argv, "--image-name=" + "a" * 251])[0] == 0
    name = "a" * 252
    assert _forge([*argv, f"--image-name={name}"]) == (
        2, "", "forge: error: InvalidArgs: --image-name under 'ghcr.io/org' must be a docker "
        f"repository of at most 255 characters: 'org/{name}'\n"
    )
    # A registry without a domain is a namespace on docker.io.
    assert _forge([*_CI, "--registry=org", "--image-name=" + "a" * 251])[0] == 0
    assert _forge([*_CI, "--registry=org", "--image-name=" + "a" * 252])[0] == 2


def test_a_default_build_tag_too_long_for_docker_is_refused() -> None:
    # A directory name has at most 255 bytes, so only a registry path can push it over.
    assert _default_tag("a" * 255) == (0, f"localhost/{'a' * 255}:run", "")
    assert _default_tag("a" * 251, "ghcr.io/org")[0] == 0
    name = "a" * 252
    assert _default_tag(name, "ghcr.io/org") == (
        2, None, f"forge: error: InvalidArgs: the default tag of {name!r} must be a docker "
        f"repository of at most 255 characters: 'org/{name}'\n"
    )
