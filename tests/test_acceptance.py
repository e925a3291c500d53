"""Whole-toolchain acceptance checks.

Nine checks, one per release criterion, each recording a single summary
line (printed by conftest after the run). Thresholds are exact: exact
cardinalities, zero violations, byte equality. The final check exercises
a real container engine end to end and is skipped, not failed, when no
engine is available.
"""

from __future__ import annotations

import functools
import random
import shutil
import subprocess
from pathlib import Path

import pytest
import yaml

from acceptance_report import RESULTS, record
from conftest import FIXTURE_ROOT, GOLDEN_ROOT, analysis_for, image_spec
from dockerfile_syntax import stage_text
from golden_cases import CASES
from pipeline_graph import job_graph
from recording_driver import RecordingDriver
from resolution_oracle import load_oracle_db, partition

from forge import cli
from forge.cigen import PipelineSpec, generate_pipeline
from forge.depgraph import (
    DeclaredKeys,
    load_rosdep_db,
    packaged_distro_index,
    packaged_rosdep_db,
    resolve,
    runtime_subset,
)
from forge.devrun import HostEnvironment, UserArgs, attach_or_run, synthesize_invocation
from forge.dockergen import (
    STAGES,
    CopyContext,
    CopyFromStage,
    Install,
    plan_stages,
    render,
    validate_plan,
)
from forge.engine import (
    ContainerState,
    EngineResult,
    RunInvocation,
    inspect_container,
    run_argv,
)
from forge.sources import RepoSpec, combine_repos, parse_repos

RUN_FIXTURES = (
    ("minimal", "humble", ()),
    ("multi_repo", "humble", ("deps.repos",)),
    ("catkin_noetic", "noetic", ()),
)


def criterion(cid: str, title: str):
    """Record one summary line per check, whatever the outcome.

    The wrapped check returns a detail string on success and raises on
    failure; unexpected crashes still produce a FAIL line.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                if cid not in RESULTS:
                    record(cid, title, "FAIL", f"{type(exc).__name__}: {exc}")
                raise
            record(cid, title, "PASS", detail or "")

        return inner

    return wrap


def _fail(cid: str, title: str, problems: list[str]) -> None:
    shown = "; ".join(problems[:3])
    if len(problems) > 3:
        shown += f" (+{len(problems) - 3} more)"
    record(cid, title, "FAIL", shown)
    raise AssertionError(f"{cid} {title}: " + "; ".join(problems))


def _run_plan(name: str, distro: str, repos_files: tuple[str, ...], **kwargs):
    analysis = analysis_for(name, distro)
    spec = image_spec(analysis, target="run", repos_files=repos_files, **kwargs)
    return plan_stages(spec, analysis.resolved, analysis.resolved_exec)


@criterion("C1", "image matrix enumerates 180 unique tags")
def test_c1_matrix_cardinality(capsys) -> str:
    rc = cli.main(["matrix", "list"])
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if len(lines) != 180:
        problems.append(f"{len(lines)} tags emitted, expected exactly 180")
    if len(set(lines)) != len(lines):
        problems.append("duplicate tags in listing")
    if problems:
        _fail("C1", "image matrix enumerates 180 unique tags", problems)
    return "180 tags, all unique"


@criterion("C2", "run stage ships the install space and nothing from src")
def test_c2_no_source_leak() -> str:
    problems = []
    for name, distro, repos_files in RUN_FIXTURES:
        plan = _run_plan(name, distro, repos_files)
        violations = validate_plan(plan)
        if violations:
            problems.append(f"{name}: {len(violations)} plan violations")
            continue
        cross = [i for i in plan.stages["run"] if isinstance(i, CopyFromStage)]
        context = [i for i in plan.stages["run"] if isinstance(i, CopyContext)]
        if context:
            problems.append(f"{name}: run stage copies from the build context")
        if len(cross) != 1 or cross[0].stage != "build":
            problems.append(f"{name}: expected one cross-stage copy from build")
        elif cross[0].src != f"{plan.workspace_dir}/install":
            problems.append(f"{name}: cross-stage copy is not the install space")
        text_block = stage_text(render(plan), "run")
        if text_block.count("COPY --from=") != 1:
            problems.append(f"{name}: rendered run stage has extra cross-stage copies")
    if problems:
        _fail("C2", "run stage ships the install space and nothing from src", problems)
    return f"{len(RUN_FIXTURES)} fixture workspaces, zero violations"


def _table_lineage(name: str) -> list[str]:
    """``name`` and its ancestors in the image layout table."""

    parents = {row.name: row.parent for row in STAGES}
    chain = []
    while name in parents:
        chain.append(name)
        name = parents[name]
    return chain


def _lineage_packages(plan, stage_names) -> set[tuple[str, str]]:
    found: set[tuple[str, str]] = set()
    for stage_name in stage_names:
        for instruction in plan.stages[stage_name]:
            if isinstance(instruction, Install):
                found.update((instruction.manager, pkg) for pkg in instruction.packages)
    return found


@criterion("C3", "dev image installs cover the run image installs")
def test_c3_dev_run_superset() -> str:
    fixtures = RUN_FIXTURES + (("unresolved", "humble", ()),)
    problems = []
    combos = 0
    for name, distro, repos_files in fixtures:
        for slim in (False, True):
            combos += 1
            plan = _run_plan(name, distro, repos_files, slim_runtime=slim)
            dev_set = _lineage_packages(plan, _table_lineage("dev"))
            run_set = _lineage_packages(plan, _table_lineage("run"))
            if not run_set <= dev_set:
                problems.append(
                    f"{name} slim={slim}: run installs {sorted(run_set - dev_set)} "
                    "missing from dev"
                )
            if not slim and dev_set != run_set:
                problems.append(
                    f"{name} full runtime: install sets differ by "
                    f"{sorted(dev_set ^ run_set)}"
                )
    if problems:
        _fail("C3", "dev image installs cover the run image installs", problems)
    return f"{combos} fixture and slim combinations hold"


def _oracle_buckets(result) -> dict[str, tuple[str, ...]]:
    return {
        "internal": result.internal,
        "source": result.source_keys,
        "ros": result.ros_distro_pkgs,
        "system": result.system_pkgs,
        "python": result.python_pkgs,
        "unresolved": result.unresolved,
    }


@criterion("C4", "resolver matches the brute-force classifier")
def test_c4_resolver_oracle_equivalence() -> str:
    documents, names = packaged_rosdep_db()
    db = load_rosdep_db(documents, names, None, True)
    index = packaged_distro_index("humble")
    table = load_oracle_db(documents)
    if len(db.entries) != 50:
        _fail(
            "C4",
            "resolver matches the brute-force classifier",
            [f"fixture database has {len(db.entries)} keys, expected 50"],
        )

    internal = {"pkg_alpha", "pkg_beta"}
    repo_names = {"cloned_lib", "rclcpp", "eigen"}
    repos = tuple(
        RepoSpec(name, f"https://h/{name}.git", None)
        for name in sorted(repo_names)
    )
    universe = (
        sorted(db.entries)
        + sorted(index.packages)
        + sorted(internal)
        + sorted(repo_names)
        + ["ghost_key", "another_missing", "not_a_dep"]
    )

    rng = random.Random(20260823)
    mismatches = 0
    for _ in range(200):
        chosen = set(rng.sample(universe, rng.randint(0, len(universe) // 2)))
        expected = partition(
            chosen, internal, repo_names, "humble", set(index.packages), table
        )
        keys = DeclaredKeys(build=frozenset(chosen), exec=frozenset(chosen))
        result = resolve(keys, db, index, internal, repos)
        if _oracle_buckets(result) != expected:
            mismatches += 1
    if mismatches:
        _fail(
            "C4",
            "resolver matches the brute-force classifier",
            [f"{mismatches} of 200 trials disagree"],
        )
    return "200 randomized trials on the 50 key database, exact agreement"


@criterion("C5", "generated artifacts are byte deterministic")
def test_c5_determinism() -> str:
    problems = []

    def build_spec(analysis):
        return image_spec(
            analysis,
            target="run",
            repos_files=("deps.repos",),
            extra_apt=("curl", "zip"),
            extra_pip=("typer",),
        )

    first_analysis = analysis_for("multi_repo")
    baseline = render(
        plan_stages(
            build_spec(first_analysis),
            first_analysis.resolved,
            first_analysis.resolved_exec,
        )
    )

    second_analysis = analysis_for("multi_repo")
    second = render(
        plan_stages(
            build_spec(second_analysis),
            second_analysis.resolved,
            second_analysis.resolved_exec,
        )
    )
    if second != baseline:
        problems.append("two independent runs rendered different bytes")

    spec = build_spec(first_analysis)
    permuted_spec = spec._replace(
        packages=tuple(reversed(spec.packages)),
        extra_apt=tuple(reversed(spec.extra_apt)),
        extra_pip=tuple(reversed(spec.extra_pip)),
    )
    if (
        render(
            plan_stages(
                permuted_spec,
                first_analysis.resolved,
                first_analysis.resolved_exec,
            )
        )
        != baseline
    ):
        problems.append("permuting package and extra lists changed the bytes")

    rng = random.Random(5)
    shuffled_documents = []
    documents, names = packaged_rosdep_db()
    for text in documents:
        items = list(yaml.safe_load(text).items())
        rng.shuffle(items)
        shuffled_documents.append(yaml.safe_dump(dict(items), sort_keys=False))
    shuffled_db = load_rosdep_db(shuffled_documents, names, None, True)

    repos_doc = yaml.safe_load(
        (FIXTURE_ROOT / "multi_repo" / "deps.repos").read_text(encoding="utf-8")
    )
    reversed_doc = {
        "repositories": dict(reversed(list(repos_doc["repositories"].items())))
    }
    permuted_repos = combine_repos(
        [("deps.repos", parse_repos(yaml.safe_dump(reversed_doc, sort_keys=False), "deps.repos"))]
    )

    declared = DeclaredKeys.from_workspace(first_analysis.workspace)
    internal = {pkg.name for pkg in first_analysis.workspace.packages}
    resolved = resolve(
        declared,
        shuffled_db,
        first_analysis.index,
        internal,
        permuted_repos,
    )
    resolved_exec = runtime_subset(
        declared,
        shuffled_db,
        first_analysis.index,
        internal,
        permuted_repos,
    )
    repos_spec = spec._replace(source_repos=tuple(reversed(permuted_repos)))
    if render(plan_stages(repos_spec, resolved, resolved_exec)) != baseline:
        problems.append("permuting database and repos documents changed the bytes")

    for platform in ("github", "gitlab"):
        ci_spec = PipelineSpec(
            platform=platform,
            image_name="robot-stack",
            registry="registry.example.com/acme",
            platforms=("amd64", "arm64"),
            enable_test_stage=True,
        )
        if generate_pipeline(ci_spec) != generate_pipeline(ci_spec):
            problems.append(f"{platform} pipeline rendering is not repeatable")

    if len(CASES) < 6:
        problems.append(f"golden corpus has {len(CASES)} entries, expected at least 6")
    drifted = [
        name
        for name in sorted(CASES)
        if CASES[name]() != (GOLDEN_ROOT / name).read_text(encoding="utf-8")
    ]
    if drifted:
        problems.append(f"goldens drifted: {', '.join(drifted)}")

    if problems:
        _fail("C5", "generated artifacts are byte deterministic", problems)
    return f"re-runs, permuted inputs and {len(CASES)} goldens all byte identical"


def _random_host(rng: random.Random) -> HostEnvironment:
    display = rng.choice([None, ":0", ":1", "localhost:10.0"])
    return HostEnvironment(
        display=display,
        gpu_count=rng.choice([0, 0, 0, 1, 2, 8]),
        uid=rng.randint(0, 60000),
        gid=rng.randint(0, 60000),
        cwd=Path("/home/dev/proj"),
        detected_workspace=rng.choice([None, Path("/home/dev/proj")]),
        tty_available=rng.random() < 0.5,
    )


def _random_args(rng: random.Random) -> UserArgs:
    pool = (
        "--privileged",
        "--network=host",
        "--cap-add=SYS_PTRACE",
        "--shm-size=1g",
        "--ipc=host",
        "-v",
        "/data:/data:ro",
    )
    passthrough = tuple(
        rng.choice(pool) for _ in range(rng.randint(0, 4))
    )
    return UserArgs(
        image=rng.choice(["dev:latest", "registry.example.com/team/app:dev", "ros2"]),
        command=rng.choice([(), ("bash",), ("ros2", "topic", "list")]),
        name=rng.choice([None, "devbox", "a1-b2.c3"]),
        no_x11=rng.random() < 0.5,
        no_gpu=rng.random() < 0.5,
        no_user_map=rng.random() < 0.5,
        mount_workspace=rng.random() < 0.5,
        passthrough=passthrough,
    )


@criterion("C6", "runner feature flags are sound over randomized hosts")
def test_c6_runner_flag_soundness() -> str:
    rng = random.Random(8461)
    violations = []
    for trial in range(1000):
        host = _random_host(rng)
        args = _random_args(rng)
        invocation = synthesize_invocation(host, args, "/ws")
        argv = run_argv(invocation)

        x11_expected = host.display is not None and not args.no_x11
        x11_env = any(
            token.startswith("DISPLAY=") for token in argv
        )
        x11_mount = any(".X11-unix" in token for token in argv)
        if x11_env != x11_expected or x11_mount != x11_expected:
            violations.append(f"trial {trial}: X11 tokens do not match the rule")

        gpu_expected = host.gpu_count > 0 and not args.no_gpu
        if ("--gpus" in argv) != gpu_expected:
            violations.append(f"trial {trial}: GPU token does not match the rule")

        user_expected = not args.no_user_map
        if ("--user" in argv) != user_expected:
            violations.append(f"trial {trial}: user mapping does not match the rule")
        elif user_expected:
            position = argv.index("--user")
            if argv[position + 1] != f"{host.uid}:{host.gid}":
                violations.append(f"trial {trial}: wrong uid:gid mapping")

        image_index = len(argv) - 1 - len(invocation.command)
        if argv[image_index] != args.image:
            violations.append(f"trial {trial}: image is not before the command")
        window = argv[image_index - len(args.passthrough) : image_index]
        if tuple(window) != args.passthrough:
            violations.append(f"trial {trial}: passthrough tokens were disturbed")

        if len(violations) > 10:
            break
    if violations:
        _fail(
            "C6",
            "runner feature flags are sound over randomized hosts",
            violations,
        )
    return "1000 randomized host and argument pairs, zero violations"


@criterion("C7", "attach decision table is exact")
def test_c7_attach_decision_table() -> str:
    import json

    invocation = RunInvocation(
        image="dev:latest",
        name="devbox",
        interactive_tty=True,
        user_map=(1000, 1000),
    )
    running_doc = json.dumps([{"State": {"Running": True}}])
    stopped_doc = json.dumps([{"State": {"Running": False}}])
    scripted = {
        (False, False): EngineResult(1, "", "Error: No such object: devbox"),
        (True, False): EngineResult(0, stopped_doc, ""),
        (True, True): EngineResult(0, running_doc, ""),
    }

    problems = []
    shapes: dict[tuple[bool, bool], tuple[str, ...]] = {}
    for combo, result in scripted.items():
        driver = RecordingDriver(scripted={("inspect",): result})
        state = inspect_container("devbox", driver)
        if (state.exists, state.running) != combo:
            problems.append(f"inspect mapped {combo} to {state}")
            continue
        shapes[combo] = tuple(c[0] for c in attach_or_run(invocation, state))

    phantom = ContainerState(exists=False, running=True)
    shapes[(False, True)] = tuple(c[0] for c in attach_or_run(invocation, phantom))

    expected = {
        (False, False): ("run",),
        (True, False): ("rm", "run"),
        (True, True): ("exec",),
        (False, True): ("exec",),
    }
    if shapes != expected:
        problems.append(f"decision shapes {shapes} != {expected}")

    state = ContainerState(exists=True, running=False)
    composite = attach_or_run(invocation, state)
    if composite[0] != ("rm", "-f", "devbox"):
        problems.append("remove half of the composite is not a forced rm")
    if composite[1][0] != "run" or "dev:latest" not in composite[1]:
        problems.append("run half of the composite does not run the image")

    if problems:
        _fail("C7", "attach decision table is exact", problems)
    return "four existence and run-state combinations, exact shapes"


def _has_cycle(graph: dict[str, list[str]]) -> bool:
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for dep in graph.get(node, []):
            mark = state.get(dep, 0)
            if mark == 1:
                return True
            if mark == 0 and visit(dep):
                return True
        state[node] = 2
        return False

    return any(visit(node) for node in graph if state.get(node, 0) == 0)


def _transitive(graph: dict[str, list[str]], start: str) -> set[str]:
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for dep in graph.get(node, []):
            if dep not in seen:
                seen.add(dep)
                frontier.append(dep)
    return seen


@criterion("C8", "pipelines parse and push depends on every build")
def test_c8_pipeline_validity() -> str:
    problems = []
    checked = 0
    for platform in ("github", "gitlab"):
        for archs in (("amd64",), ("amd64", "arm64")):
            for test_stage in (False, True):
                checked += 1
                label = f"{platform} {'+'.join(archs)} test={test_stage}"
                spec = PipelineSpec(
                    platform=platform,
                    image_name="robot-stack",
                    registry="registry.example.com/acme",
                    platforms=archs,
                    enable_test_stage=test_stage,
                )
                text = generate_pipeline(spec)
                document = yaml.safe_load(text)
                if not isinstance(document, dict):
                    problems.append(f"{label}: output is not a YAML mapping")
                    continue
                graph = job_graph(text)
                if _has_cycle(graph):
                    problems.append(f"{label}: job graph has a cycle")
                builds = {job for job in graph if job.startswith("build-")}
                if not builds:
                    problems.append(f"{label}: no build jobs found")
                push_jobs = [job for job in graph if job.startswith("push")]
                if not push_jobs:
                    problems.append(f"{label}: no push job found")
                for push in push_jobs:
                    missing = builds - _transitive(graph, push)
                    if missing:
                        problems.append(
                            f"{label}: push does not depend on {sorted(missing)}"
                        )
    if problems:
        _fail("C8", "pipelines parse and push depends on every build", problems)
    return f"{checked} generated pipelines, all acyclic with covering push"


@criterion("C9", "end-to-end build splits dev and run images")
def test_c9_end_to_end(capsys, tmp_path) -> str:
    title = "end-to-end build splits dev and run images"
    binary = shutil.which("docker")
    if binary is None:
        record("C9", title, "SKIP", "no container engine on PATH")
        pytest.skip("no container engine on PATH")
    probe = subprocess.run(
        [binary, "info"], capture_output=True, text=True, timeout=60
    )
    if probe.returncode != 0:
        record("C9", title, "SKIP", "engine present but daemon unavailable")
        pytest.skip("engine present but daemon unavailable")

    workspace = FIXTURE_ROOT / "minimal"
    dev_tag = "forge-acceptance:dev"
    run_tag = "forge-acceptance:run"
    problems = []
    try:
        rc_dev = cli.main(
            [
                "build",
                str(workspace),
                "--target",
                "dev",
                "--tag",
                dev_tag,
                "--dockerfile-out",
                str(tmp_path / "dev.Dockerfile"),
            ]
        )
        rc_run = cli.main(
            [
                "build",
                str(workspace),
                "--target",
                "run",
                "--tag",
                run_tag,
                "--command",
                "hello",
                "--dockerfile-out",
                str(tmp_path / "run.Dockerfile"),
            ]
        )
        capsys.readouterr()
        if rc_dev != 0 or rc_run != 0:
            problems.append(f"builds exited {rc_dev} and {rc_run}")
        else:

            def probe_image(tag: str, shell: str) -> int:
                completed = subprocess.run(
                    [binary, "run", "--rm", "--entrypoint", "sh", tag, "-c", shell],
                    capture_output=True,
                    text=True,
                    timeout=120,
                )
                return completed.returncode

            if probe_image(run_tag, "test -d /ws/install") != 0:
                problems.append("run image lacks the install space")
            if probe_image(run_tag, "test -e /ws/src/hello_node/setup.py") == 0:
                problems.append("run image leaks workspace source")
            if probe_image(dev_tag, "test -f /ws/src/hello_node/setup.py") != 0:
                problems.append("dev image lacks workspace source")

            launched = subprocess.run(
                [binary, "run", "--rm", run_tag],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if "hello_node ready" not in launched.stdout:
                problems.append("default run command did not print the startup line")

        bench_note = "startup benchmark not run"
        if not problems:
            try:
                cli.main(["bench", "startup", run_tag, "--runs", "3"])
                bench_out = capsys.readouterr().out
                mean_lines = [
                    line for line in bench_out.splitlines() if "mean" in line
                ]
                bench_note = mean_lines[0].strip() if mean_lines else "bench ran"
            except Exception as exc:
                bench_note = f"bench failed: {type(exc).__name__}"
    finally:
        for tag in (dev_tag, run_tag):
            subprocess.run(
                [binary, "rmi", "-f", tag], capture_output=True, text=True, timeout=60
            )

    if problems:
        _fail("C9", title, problems)
    return f"dev keeps src, run keeps install only; {bench_note}"
