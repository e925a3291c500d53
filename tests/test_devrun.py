"""Host probing, run synthesis, plugin folding and attach decisions."""

from __future__ import annotations

import json
import stat
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forge.devrun as devrun
from forge.devrun import (
    HostEnvironment,
    SCHEMA_ID,
    UserArgs,
    X11_SOCKET_DIR,
    apply_plugins,
    attach_or_run,
    check_invocation,
    default_container_name,
    invocation_from_doc,
    invocation_to_doc,
    load_plugins,
    probe_host,
    synthesize_invocation,
)
from forge.engine import ContainerState, Mount, RunInvocation, run_argv
from forge.errors import InvalidArgs, PluginViolation

def host(**changes) -> HostEnvironment:
    facts = {
        "display": None,
        "gpu_count": 0,
        "uid": 1000,
        "gid": 1000,
        "cwd": Path("/somewhere"),
        "detected_workspace": None,
        "tty_available": True,
    }
    return HostEnvironment(**{**facts, **changes})


@pytest.fixture
def no_gpus(monkeypatch) -> None:
    monkeypatch.setattr(devrun, "_count_gpus", lambda: 0)


def test_probe_reads_display_from_environment(monkeypatch, tmp_path, no_gpus) -> None:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DISPLAY", ":1")
    probed = probe_host()
    assert probed.display == ":1"
    assert probed.gpu_count == 0
    assert probed.cwd == tmp_path
    assert probed.detected_workspace is None
    monkeypatch.setenv("DISPLAY", "")
    assert probe_host().display is None
    monkeypatch.delenv("DISPLAY")
    assert probe_host().display is None


def test_probe_detects_workspace_from_cwd(monkeypatch, fixture_root, no_gpus) -> None:
    monkeypatch.chdir(fixture_root / "minimal" / "src" / "hello_node")
    assert probe_host().detected_workspace == fixture_root / "minimal"


def test_default_container_name() -> None:
    assert default_container_name("reg.io/team/app:latest", Path("/h/ws")) == "app-ws"
    assert default_container_name("app", Path("/")) == "app"
    assert (
        default_container_name("ghcr.io/a/b@sha256:abc", Path("/x/my proj"))
        == "b-my-proj"
    )
    assert default_container_name(":::", Path("/")) == "forge-dev"


def test_synthesize_requires_image() -> None:
    with pytest.raises(InvalidArgs):
        synthesize_invocation(host(), UserArgs(image=""), "/ws")


def test_synthesize_rejects_bad_name() -> None:
    with pytest.raises(InvalidArgs):
        synthesize_invocation(host(), UserArgs(image="img", name="-bad name-"), "/ws")


def test_synthesize_x11_wiring() -> None:
    invocation = synthesize_invocation(host(display=":1"), UserArgs(image="img"), "/ws")
    assert ("DISPLAY", ":1") in invocation.env
    assert Mount(X11_SOCKET_DIR, X11_SOCKET_DIR, "rw") in invocation.mounts
    suppressed = synthesize_invocation(
        host(display=":1"), UserArgs(image="img", no_x11=True), "/ws"
    )
    assert all(key != "DISPLAY" for key, _ in suppressed.env)
    assert all(m.container != X11_SOCKET_DIR for m in suppressed.mounts)


def test_synthesize_gpu_wiring() -> None:
    assert synthesize_invocation(host(gpu_count=2), UserArgs(image="img"), "/ws").gpu_all
    assert not synthesize_invocation(host(gpu_count=0), UserArgs(image="img"), "/ws").gpu_all
    assert not synthesize_invocation(
        host(gpu_count=2), UserArgs(image="img", no_gpu=True), "/ws"
    ).gpu_all


def test_synthesize_user_map_wiring() -> None:
    mapped = synthesize_invocation(host(uid=1234, gid=99), UserArgs(image="img"), "/ws")
    assert mapped.user_map == (1234, 99)
    unmapped = synthesize_invocation(host(), UserArgs(image="img", no_user_map=True), "/ws")
    assert unmapped.user_map is None


def test_synthesize_workspace_mount(fixture_root) -> None:
    ws = fixture_root / "minimal"
    mounted = synthesize_invocation(host(detected_workspace=ws), UserArgs(image="img"), "/ws")
    assert Mount(str(ws / "src"), "/ws/src", "rw") in mounted.mounts
    assert mounted.workdir == "/ws"
    skipped = synthesize_invocation(
        host(detected_workspace=ws), UserArgs(image="img", mount_workspace=False), "/ws"
    )
    assert all(m.container != "/ws/src" for m in skipped.mounts)
    assert skipped.workdir is None
    undetected = synthesize_invocation(host(), UserArgs(image="img"), "/ws")
    assert all(m.container != "/ws/src" for m in undetected.mounts)
    elsewhere = synthesize_invocation(
        host(detected_workspace=ws), UserArgs(image="img"), workspace_dir="/opt/ws"
    )
    assert Mount(str(ws / "src"), "/opt/ws/src", "rw") in elsewhere.mounts
    assert elsewhere.workdir == "/opt/ws"


def test_synthesize_passthrough_and_command_preserved() -> None:
    invocation = synthesize_invocation(
        host(),
        UserArgs(image="img", command=("bash", "-c", "x"), passthrough=("--ipc=host",)),
        "/ws",
    )
    assert invocation.passthrough == ("--ipc=host",)
    assert invocation.command == ("bash", "-c", "x")


# --- biconditional property (mirrors the acceptance check) -----------------

hosts = st.builds(
    HostEnvironment,
    display=st.none() | st.sampled_from([":0", ":1", "localhost:10.0"]),
    gpu_count=st.integers(min_value=0, max_value=4),
    uid=st.integers(min_value=0, max_value=2**16),
    gid=st.integers(min_value=0, max_value=2**16),
    cwd=st.just(Path("/home/dev")),
    detected_workspace=st.none() | st.just(Path("/home/dev/ws")),
    tty_available=st.booleans(),
)

user_args = st.builds(
    UserArgs,
    image=st.just("img"),
    command=st.just(()),
    name=st.none() | st.just("box"),
    no_x11=st.booleans(),
    no_gpu=st.booleans(),
    no_user_map=st.booleans(),
    mount_workspace=st.booleans(),
    passthrough=st.lists(
        st.from_regex(r"--[a-z]{1,8}(=[a-z0-9]{1,8})?", fullmatch=True), max_size=3
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(host=hosts, args=user_args)
def test_feature_biconditionals(host: HostEnvironment, args: UserArgs) -> None:
    invocation = synthesize_invocation(host, args, "/ws")
    x11_on = any(key == "DISPLAY" for key, _ in invocation.env)
    assert x11_on == (host.display is not None and not args.no_x11)
    assert invocation.gpu_all == (host.gpu_count > 0 and not args.no_gpu)
    assert (invocation.user_map is not None) == (not args.no_user_map)
    argv = run_argv(invocation)
    assert ("--gpus" in argv) == invocation.gpu_all
    image_at = argv.index("img")
    assert argv[image_at - len(args.passthrough) : image_at] == args.passthrough


# --- invariants and plugins ------------------------------------------------


def test_check_invocation_problems() -> None:
    bad = RunInvocation(
        image="",
        name="-x",
        env=(("A", "1"), ("A", "2")),
        mounts=(Mount("/a", "/same"), Mount("/b", "/same"), Mount("/c", "/d", "zz")),
    )
    problems = check_invocation(bad)
    joined = " ".join(problems)
    assert "image is empty" in joined
    assert "duplicate mount target" in joined
    assert "duplicate environment key" in joined
    assert "invalid mount mode" in joined
    assert check_invocation(RunInvocation(image="img", name="box")) == []


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("image", None),
        ("image", 5),
        ("name", None),
        ("name", 5),
        ("name", "box\n"),
        ("env", (("A", 1),)),
        ("env", (["A", "b"],)),
        ("env", "AB"),
        ("mounts", (("/a", "/b", "rw"),)),
        ("mounts", (Mount(5, "/b"),)),
        ("mounts", (Mount("/a", None),)),
        ("mounts", (Mount("/a", "/b", None),)),
        ("mounts", None),
        ("user_map", (1,)),
        ("user_map", (1, True)),
        ("user_map", ("1", "2")),
        ("workdir", 5),
        ("gpu_all", 1),
        ("interactive_tty", "yes"),
        ("remove_on_exit", None),
        ("passthrough", "abc"),
        ("passthrough", ("--a", 5)),
        ("command", ["bash"]),
    ],
)
def test_check_invocation_reports_each_ill_typed_field(field: str, value: object) -> None:
    valid = synthesize_invocation(host(display=":1"), UserArgs(image="img", name="box"), "/ws")
    problems = check_invocation(valid._replace(**{field: value}))
    assert len(problems) == 1
    named = {"name": "container name", "mounts": "mount"}.get(field, field)
    assert named in problems[0]


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("image", "im\0g"),
        ("name", "b\0x"),
        ("env", (("A\0", "1"),)),
        ("env", (("A", "1\0"),)),
        ("mounts", (Mount("/a\0", "/b"),)),
        ("mounts", (Mount("/a", "/b\0"),)),
        ("workdir", "/w\0"),
        ("passthrough", ("--a\0",)),
        ("command", ("a\0b",)),
    ],
)
def test_check_invocation_reports_a_nul_byte_in_any_string(field: str, value: object) -> None:
    valid = synthesize_invocation(host(display=":1"), UserArgs(image="img", name="box"), "/ws")
    problems = check_invocation(valid._replace(**{field: value}))
    assert len(problems) == 1
    assert problems[0] == (
        "container name 'b\\x00x' is invalid" if field == "name" else f"{field} holds a NUL byte"
    )


def test_apply_plugins_folds_in_order() -> None:
    base = synthesize_invocation(host(), UserArgs(image="img"), "/ws")

    def add_env(inv: RunInvocation) -> RunInvocation:
        return inv._replace(env=inv.env + (("EXTRA", "1"),))

    def set_workdir(inv: RunInvocation) -> RunInvocation:
        return inv._replace(workdir="/elsewhere")

    result = apply_plugins(base, [("env", add_env), ("wd", set_workdir)])
    assert ("EXTRA", "1") in result.env
    assert result.workdir == "/elsewhere"
    assert apply_plugins(base, []) == base


def test_apply_plugins_rejects_invariant_break() -> None:
    base = synthesize_invocation(host(), UserArgs(image="img"), "/ws")

    def duplicate_mount(inv: RunInvocation) -> RunInvocation:
        extra = (Mount("/x", "/dup"), Mount("/y", "/dup"))
        return inv._replace(mounts=inv.mounts + extra)

    with pytest.raises(PluginViolation) as excinfo:
        apply_plugins(base, [("bad-plugin", duplicate_mount)])
    assert "bad-plugin" in str(excinfo.value)


def test_apply_plugins_rejects_passthrough_tampering() -> None:
    base = synthesize_invocation(
        host(), UserArgs(image="img", passthrough=("--a", "--b")), "/ws"
    )

    def reorder(inv: RunInvocation) -> RunInvocation:
        return inv._replace(passthrough=("--b", "--a"))

    with pytest.raises(PluginViolation):
        apply_plugins(base, [("reorder", reorder)])

    def extend(inv: RunInvocation) -> RunInvocation:
        # Appending after the existing block keeps the original contiguous.
        return inv._replace(passthrough=inv.passthrough + ("--c",))

    extended = apply_plugins(base, [("extend", extend)])
    assert extended.passthrough == ("--a", "--b", "--c")


# --- attach decision table -------------------------------------------------


def _named_invocation(name: str = "box") -> RunInvocation:
    return synthesize_invocation(host(), UserArgs(image="img", name=name), "/ws")


def test_attach_running_execs() -> None:
    invocation = _named_invocation()
    (command,) = attach_or_run(invocation, ContainerState(True, True))
    assert command[0] == "exec"
    assert command[-2:] == ("box", "bash")
    assert "--user" in command


def test_attach_stopped_removes_then_runs() -> None:
    invocation = _named_invocation()
    commands = attach_or_run(invocation, ContainerState(True, False))
    assert [c[0] for c in commands] == ["rm", "run"]
    assert commands[0] == ("rm", "-f", "box")
    assert commands[1][-1] == "img"


def test_attach_absent_runs() -> None:
    invocation = _named_invocation()
    (command,) = attach_or_run(invocation, ContainerState(False, False))
    assert command[0] == "run"


def test_attach_phantom_running_still_execs() -> None:
    # exists=False, running=True cannot really happen; running wins.
    invocation = _named_invocation()
    (command,) = attach_or_run(invocation, ContainerState(False, True))
    assert command[0] == "exec"


def test_attach_requires_a_container_name() -> None:
    # attach_or_run takes checked invocations; the check rejects a nameless one.
    invocation = _named_invocation()._replace(name=None)
    assert check_invocation(invocation) == ["container name None is invalid"]


# --- external plugins ------------------------------------------------------


def test_invocation_doc_round_trip() -> None:
    invocation = synthesize_invocation(
        host(display=":1", gpu_count=1),
        UserArgs(image="img", passthrough=("--a",), command=("bash",)),
        "/ws",
    )
    doc = invocation_to_doc(invocation)
    assert doc["schema"] == SCHEMA_ID
    assert invocation_from_doc(json.loads(json.dumps(doc))) == invocation


def test_invocation_from_doc_rejects_wrong_schema() -> None:
    with pytest.raises(InvalidArgs):
        invocation_from_doc({"schema": "other/9", "image": "img"})


def test_invocation_from_doc_maps_fields_without_coercion() -> None:
    doc = {
        "schema": SCHEMA_ID,
        "image": "img",
        "name": 5,
        "env": {"B": "2", "A": 1},
        "mounts": [{"host": "/h", "container": "/c"}],
        "user_map": [1, 2],
        "passthrough": "abc",
        "command": ["bash", 3],
        "unknown": "ignored",
    }
    assert invocation_from_doc(doc) == RunInvocation(
        image="img",
        name=5,
        env=(("A", 1), ("B", "2")),
        mounts=(Mount("/h", "/c", "rw"),),
        user_map=(1, 2),
        passthrough="abc",
        command=("bash", 3),
    )


def _doc(**changes: object) -> dict[str, object]:
    return {**invocation_to_doc(_named_invocation()), **changes}


@pytest.mark.parametrize(
    "doc",
    [
        {key: value for key, value in _doc().items() if key != "image"},
        _doc(mounts=[{"host": "/h", "container": "/c", "size": 1}]),
        _doc(mounts=[{"host": "/h"}]),
        _doc(mounts=[5]),
    ],
)
def test_invocation_from_doc_construction_errors_are_invalid_args(doc: dict) -> None:
    with pytest.raises(InvalidArgs, match="malformed plugin document"):
        invocation_from_doc(doc)


def _write_plugin(directory: Path, name: str, body: str) -> Path:
    path = directory / name
    path.write_text(body, encoding="utf-8")
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return path


def test_load_plugins_empty_and_missing(tmp_path) -> None:
    # A directory that cannot be listed is an error naming it, not "no plugins".
    with pytest.raises(InvalidArgs, match="cannot list --plugin-dir .*absent"):
        load_plugins(tmp_path / "absent")
    assert load_plugins(tmp_path) == []
    (tmp_path / "not-executable").write_text("#!/bin/sh\n", encoding="utf-8")
    assert load_plugins(tmp_path) == []


def test_external_plugin_transforms_invocation(tmp_path) -> None:
    body = f"""#!{sys.executable}
import json, sys
doc = json.load(sys.stdin)
doc["env"]["FROM_PLUGIN"] = "yes"
print(json.dumps(doc))
"""
    _write_plugin(tmp_path, "10-env", body)
    plugins = load_plugins(tmp_path)
    assert [name for name, _ in plugins] == ["10-env"]
    base = _named_invocation()
    result = apply_plugins(base, plugins)
    assert ("FROM_PLUGIN", "yes") in result.env


def test_external_plugin_failure_names_plugin(tmp_path) -> None:
    _write_plugin(tmp_path, "20-broken", "#!/bin/sh\nexit 3\n")
    plugins = load_plugins(tmp_path)
    with pytest.raises(PluginViolation) as excinfo:
        apply_plugins(_named_invocation(), plugins)
    assert "20-broken" in str(excinfo.value)


def test_external_plugin_bad_json(tmp_path) -> None:
    _write_plugin(tmp_path, "30-garbage", "#!/bin/sh\necho not-json\n")
    plugins = load_plugins(tmp_path)
    with pytest.raises(PluginViolation):
        apply_plugins(_named_invocation(), plugins)


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("name", 5),
        ("workdir", 5),
        ("env", [["A", "b"]]),
        ("user_map", [1]),
        ("image", None),
        ("passthrough", "abc"),
    ],
)
def test_external_plugin_with_an_ill_typed_field_is_named(tmp_path, field: str, value: object) -> None:
    body = f"""#!{sys.executable}
import json, sys
doc = json.load(sys.stdin)
doc[{field!r}] = json.loads({json.dumps(value)!r})
print(json.dumps(doc))
"""
    _write_plugin(tmp_path, "40-typo", body)
    with pytest.raises(PluginViolation) as excinfo:
        apply_plugins(_named_invocation(), load_plugins(tmp_path))
    assert excinfo.value.exit_code == 2
    assert "'40-typo'" in str(excinfo.value)
    assert field in str(excinfo.value)


def test_external_plugins_ordered_by_name(tmp_path) -> None:
    body = f"""#!{sys.executable}
import json, sys
doc = json.load(sys.stdin)
doc["env"]["ORDER"] = doc["env"].get("ORDER", "") + "%s"
print(json.dumps(doc))
"""
    _write_plugin(tmp_path, "2-second", body % "b")
    _write_plugin(tmp_path, "1-first", body % "a")
    result = apply_plugins(_named_invocation(), load_plugins(tmp_path))
    assert ("ORDER", "ab") in result.env
