"""Engine argv synthesis and driver-seam execution behavior."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forge.engine import (
    BuildRequest,
    ContainerState,
    EngineResult,
    Mount,
    RunInvocation,
    SubprocessDriver,
    build_argv,
    exec_argv,
    execute,
    inspect_argv,
    inspect_container,
    rm_argv,
    run_argv,
    run_builds,
)
from forge.errors import EngineUnavailable, MalformedEngineOutput, NonZeroExit

from recording_driver import RecordingDriver


def test_build_argv_single_platform() -> None:
    request = BuildRequest(
        context=".",
        dockerfile_path=".forge/Dockerfile",
        target="run",
        tags=("reg/app:run",),
        build_args=(("B", "2"), ("TOKEN", None), ("A", "1")),
    )
    command = build_argv(request)
    assert command == (
        "build",
        "--file",
        ".forge/Dockerfile",
        "--target",
        "run",
        "--platform",
        "linux/amd64",
        "--build-arg",
        "A=1",
        "--build-arg",
        "B=2",
        "--build-arg",
        "TOKEN",
        "--tag",
        "reg/app:run",
        ".",
    )


def test_build_argv_multi_platform_uses_buildx() -> None:
    request = BuildRequest(
        context=".",
        dockerfile_path="Dockerfile",
        target="dev",
        tags=("t:dev",),
        platforms=("amd64", "arm64"),
    )
    command = build_argv(request)
    assert command[:2] == ("buildx", "build")
    assert "--platform" in command
    index = command.index("--platform")
    assert command[index + 1] == "linux/amd64,linux/arm64"


def test_build_argv_push_uses_buildx() -> None:
    request = BuildRequest(
        context=".", dockerfile_path="Dockerfile", target="run", tags=("t",), push=True
    )
    command = build_argv(request)
    assert command[0] == "buildx"
    assert command[-2:] == ("--push", ".")


def test_run_argv_full_shape() -> None:
    invocation = RunInvocation(
        image="reg/dev:latest",
        name="dev-box",
        env=(("B", "2"), ("A", "1")),
        mounts=(Mount("/tmp/.X11-unix", "/tmp/.X11-unix"), Mount("/h/src", "/ws/src")),
        gpu_all=True,
        user_map=(1000, 1000),
        workdir="/ws",
        passthrough=("--network", "host"),
        command=("bash", "-lc", "true"),
    )
    command = run_argv(invocation)
    assert command == (
        "run",
        "--rm",
        "-it",
        "--name",
        "dev-box",
        "--env",
        "A=1",
        "--env",
        "B=2",
        "--volume",
        "/tmp/.X11-unix:/tmp/.X11-unix:rw",
        "--volume",
        "/h/src:/ws/src:rw",
        "--gpus",
        "all",
        "--user",
        "1000:1000",
        "--workdir",
        "/ws",
        "--network",
        "host",
        "reg/dev:latest",
        "bash",
        "-lc",
        "true",
    )


def test_run_argv_minimal_shape() -> None:
    command = run_argv(
        RunInvocation(image="img", interactive_tty=False, remove_on_exit=False)
    )
    assert command == ("run", "img")


_tokens = st.lists(
    st.from_regex(r"--?[a-z][a-z0-9=-]{0,10}", fullmatch=True), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(
    passthrough=_tokens,
    gpu=st.booleans(),
    name=st.none() | st.just("box"),
    env=st.dictionaries(st.from_regex(r"[A-Z]{1,6}", fullmatch=True), st.just("v"), max_size=3),
)
def test_run_argv_passthrough_contiguous_before_image(
    passthrough: list[str], gpu: bool, name: str | None, env: dict[str, str]
) -> None:
    invocation = RunInvocation(
        image="the-image",
        name=name,
        env=tuple(sorted(env.items())),
        gpu_all=gpu,
        passthrough=tuple(passthrough),
        command=("cmd",),
    )
    argv = run_argv(invocation)
    image_at = argv.index("the-image")
    assert argv[image_at - len(passthrough) : image_at] == tuple(passthrough)
    assert argv[image_at + 1 :] == ("cmd",)


def test_exec_argv_shape() -> None:
    command = exec_argv("box", ("bash",), interactive=True, user_map=(10, 20))
    assert command == ("exec", "-it", "--user", "10:20", "box", "bash")
    plain = exec_argv("box", ("true",), interactive=False, user_map=None)
    assert plain == ("exec", "box", "true")


def test_small_argv_shapes() -> None:
    assert rm_argv("box") == ("rm", "-f", "box")
    assert inspect_argv("box") == ("inspect", "--type", "container", "box")


def test_execute_raises_on_failure() -> None:
    driver = RecordingDriver(scripted={("rm",): EngineResult(1, "", "denied")})
    with pytest.raises(NonZeroExit) as excinfo:
        execute(rm_argv("box"), driver)
    assert excinfo.value.exit_code == 1
    assert "denied" in str(excinfo.value)


def _inspect_payload(running: bool) -> str:
    return json.dumps([{"State": {"Running": running}}])


def test_inspect_container_states() -> None:
    running = RecordingDriver(
        scripted={("inspect",): EngineResult(0, _inspect_payload(True), "")}
    )
    assert inspect_container("box", running) == ContainerState(True, True)

    stopped = RecordingDriver(
        scripted={("inspect",): EngineResult(0, _inspect_payload(False), "")}
    )
    assert inspect_container("box", stopped) == ContainerState(True, False)

    absent = RecordingDriver(
        scripted={("inspect",): EngineResult(1, "", "no such container")}
    )
    assert inspect_container("box", absent) == ContainerState(False, False)


def test_inspect_container_rejects_malformed_output() -> None:
    bad_json = RecordingDriver(scripted={("inspect",): EngineResult(0, "not json", "")})
    with pytest.raises(MalformedEngineOutput):
        inspect_container("box", bad_json)
    bad_shape = RecordingDriver(
        scripted={("inspect",): EngineResult(0, json.dumps([{"Id": "x"}]), "")}
    )
    with pytest.raises(MalformedEngineOutput):
        inspect_container("box", bad_shape)


def test_run_builds_executes_everything() -> None:
    driver = RecordingDriver()
    commands = [
        build_argv(
            BuildRequest(context=".", dockerfile_path="f", target="run", tags=(f"reg/img:{i}",))
        )
        for i in range(6)
    ]
    results = run_builds(commands, driver, max_workers=3)
    assert len(results) == 6
    assert all(r.exit_code == 0 for r in results)
    assert sorted(driver.commands) == sorted(commands)


def test_run_builds_serial_path() -> None:
    driver = RecordingDriver()
    request = BuildRequest(context=".", dockerfile_path="f", target="run", tags=("t",))
    results = run_builds([build_argv(request)], driver, max_workers=1)
    assert len(results) == 1


def test_scripted_prefix_beats_verb() -> None:
    driver = RecordingDriver(
        scripted={
            ("rm", "-f", "special"): EngineResult(3, "", ""),
            ("rm",): EngineResult(0, "", ""),
        }
    )
    assert driver.execute(rm_argv("special")).exit_code == 3
    assert driver.execute(rm_argv("other")).exit_code == 0


def test_subprocess_driver_captures_execute_and_returns_the_attached_exit_code() -> None:
    # Any binary stands in for the engine; the argv after it is the command.
    driver = SubprocessDriver(sys.executable)
    captured = driver.execute(("-c", "import sys; print('out'); sys.exit(3)"))
    assert captured == EngineResult(3, "out\n", "")
    assert driver.attach(("-c", "import sys; sys.exit(7)")) == 7


@pytest.mark.parametrize("method", ["execute", "attach"])
def test_subprocess_driver_without_its_binary_is_engine_unavailable(tmp_path, method: str) -> None:
    driver = SubprocessDriver(str(tmp_path / "no-engine"))
    with pytest.raises(EngineUnavailable, match="no-engine"):
        getattr(driver, method)(("version",))
