"""forge benchmark: whole-process time of each user-facing command.

Run from the repository root:

    python3 perfbench/run.py --workload ws10 --seed 1 --seconds 35 --trace 0

forge is a short-lived generator, so what a user or a CI job waits for is
one process from exec to exit. Each command therefore runs as a real
``python -m forge.cli`` process with ``PYTHONPATH=src``. Load is a closed
loop of one client: one forge process at a time, started by this process
after the previous one exited.

Workloads (seeded, written under ``.perfbench/`` in the checkout; forge
receives only the generated files):

* ``ws10``: 10 packages, packaged rosdep database. Interpreter start and
  imports dominate every command, so import changes show here and database
  or scan changes should not.
* ``ws100-db500``: 100 packages and two extra rosdep documents with 500
  keys over four OSes, the second overriding 10% of the first. Database
  load is the largest layer, so loader or parsed-database cache changes
  show here.
* ``ws1000``: 1000 packages in 50 repository directories, mixed manifest
  formats, conditional dependencies and ignored subtrees holding duplicate
  package names. Scan, plan and render scale with package count here while
  database load is about 2%.

The database and package counts are the largest at which one run of
35 s still takes enough samples of every command for steady medians on a
2-core host whose process times vary by about 10% from one sample to the
next even after calibration.

Every workload runs every command: ``--version``, ``analyze``, ``generate
dockerfile``, ``build --dry-run``, ``generate ci`` for GitHub and GitLab,
``run --dry-run``, and ``analyze`` with a fresh cache dir (``setup_s``).

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
interleaving the commands and taking the median of each command's samples,
each scaled by the bare interpreter starts timed around it (see
``CALIBRATION``). ``--trace 1`` spends half the
time on untraced processes (for the per-process CPU split) and half on
processes run through ``tracer.py``, which records spans around each
layer's entry points; it prints the per-layer metrics. Every invocation's
output is checked against ``oracle.py``; a failed check counts in
``failed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with sample counts, quartiles, machine information and the
metrics that cannot be measured without a container engine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from statistics import median, quantiles
from typing import Callable

import yaml

import dockerfile
import oracle
import workload as wl

INVOCATION_TIMEOUT_S = 120
IMPORTTIME_SAMPLES = 3
CI_PLATFORMS = ("github", "gitlab")
CI_ARCHES = ("amd64", "arm64")
# Measured round-robin in this order, cheap and expensive commands alternating.
COMMANDS = ("startup", "analyze", "ci", "generate", "run_dryrun", "build_dryrun", "setup")
TRACED_COMMANDS = tuple(name for name in COMMANDS if name != "setup")
# On a shared host the speed of every process can shift by a third within
# seconds, for minutes at a time. So a bare interpreter start, which runs no
# forge code, is timed right before each sample and once after the last; each
# sample is divided by the mean of the starts on either side of it, and an
# end-to-end timing is the median of those ratios times
# CALIBRATION_REFERENCE_S: seconds on a host where a bare start takes that
# long. Raw medians are in the report.
CALIBRATION = [sys.executable, "-c", "pass"]
CALIBRATION_REFERENCE_S = 0.07
STAGES = ("base", "dependencies", "dependencies-install", "dev", "build", "run")
ENGINE_SIDE_REASON = (
    "not measured: per-stage build time and size need a container engine "
    "daemon, and the benchmark never runs an engine"
)


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_kb: int
    calibration: int | None = None  # index of the bare start timed just before


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    sample: Sample


@dataclass
class Bench:
    checkout: Path
    work: Path
    load: wl.Workload
    env: dict[str, str]
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    traced: dict[str, list[Sample]] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    dockerfile_digest: str | None = None
    dockerfile_text: str = ""
    root_listing: list[str] = field(default_factory=list)
    ci_jobs: dict[str, int] = field(default_factory=dict)
    calibrations: list[float] = field(default_factory=list)
    counter: int = 0

    @cached_property
    def expected_analysis(self) -> dict[str, object]:
        return oracle.analyze_document(self.load)

    @cached_property
    def expected_artifacts(self) -> dict[str, list[str]]:
        return oracle.artifact_lists(self.load)

    # --- processes -------------------------------------------------------

    def spawn(self, argv: list[str], cwd: Path, env: dict[str, str]) -> Outcome:
        """Run one process to completion; time it and read its rusage."""

        self.counter += 1
        out_path = self.work / "io" / f"{self.counter}.out"
        err_path = self.work / "io" / f"{self.counter}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
            )
            timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            sample=Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss),
        )
        out_path.unlink()
        err_path.unlink()
        return outcome

    def forge(self, args: list[str], cwd: Path, env: dict[str, str], trace: bool) -> Outcome:
        if not trace:
            return self.spawn([sys.executable, "-m", "forge.cli", *args], cwd, env)
        spans_path = self.work / "io" / f"spans-{self.counter + 1}.json"
        tracer = str(self.checkout / "perfbench" / "tracer.py")
        outcome = self.spawn(
            [sys.executable, tracer, str(spans_path), str(self.counter + 1), "--", *args],
            cwd,
            env,
        )
        if spans_path.exists():
            self.spans.extend(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        return outcome

    # --- commands --------------------------------------------------------

    def workspace_args(self) -> list[str]:
        args = [str(self.load.root)]
        for doc in self.load.rosdep_docs:
            args += ["--rosdep-db", str(doc)]
        return args

    def command(self, name: str) -> list[tuple[list[str], Path, Callable[[Outcome], str | None]]]:
        """Invocations making up one sample of ``name``: (args, cwd, check)."""

        cwd = self.work / "cwd"
        out = self.work / "out"
        if name == "startup":
            return [(["--version"], cwd, self.check_version)]
        if name in ("analyze", "setup"):
            return [(["analyze", *self.workspace_args(), "--format", "json"], cwd, self.check_analyze)]
        if name == "generate":
            path = out / "generate.Dockerfile"
            return [(
                ["generate", "dockerfile", *self.workspace_args(), "-o", str(path)],
                cwd,
                lambda o: self.check_dockerfile(o, path, f"wrote {path}"),
            )]
        if name == "build_dryrun":
            path = out / "build.Dockerfile"
            args = ["build", *self.workspace_args(), "--target", "run", "--dry-run"]
            return [(args + ["--dockerfile-out", str(path)], cwd, lambda o: self.check_build(o, path))]
        if name == "ci":
            arches = [a for arch in CI_ARCHES for a in ("--arch", arch)]
            return [
                (
                    ["generate", "ci", "--platform", plat, "--image-name", "bench/app",
                     *arches, "--enable-test", "-o", "-"],
                    cwd,
                    lambda o, plat=plat: self.check_ci(o, plat),
                )
                for plat in CI_PLATFORMS
            ]
        if name == "run_dryrun":
            return [(["run", "--dry-run", "ros:humble"], self.load.root, self.check_run)]
        raise KeyError(name)

    def sample(self, name: str, trace: bool = False) -> None:
        """Run every invocation of command ``name`` once and record a sample."""

        calibration = self.calibrate()
        env = self.env
        if name == "setup":
            cache = Path(tempfile.mkdtemp(prefix="cold-cache-", dir=self.work))
            env = {**self.env, "XDG_CACHE_HOME": str(cache)}
        parts = []
        for args, cwd, check in self.command(name):
            for stale in (self.work / "out").iterdir():
                stale.unlink()
            outcome = self.forge(args, cwd, env, trace)
            self.attempted += 1
            problem = self.check_common(outcome) or check(outcome)
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{name}: {problem}")
            parts.append(outcome.sample)
        if name == "setup":
            shutil.rmtree(cache)
        total = Sample(
            sum(p.wall for p in parts),
            sum(p.cpu for p in parts),
            max(p.rss_kb for p in parts),
            calibration,
        )
        (self.traced if trace else self.samples).setdefault(name, []).append(total)

    def calibrate(self) -> int:
        """Time one bare interpreter start; return its index in ``calibrations``."""

        env = {k: v for k, v in self.env.items() if k != "PYTHONPATH"}
        outcome = self.spawn(CALIBRATION, self.work / "cwd", env)
        if outcome.code != 0:
            raise RuntimeError(f"calibration process failed: {outcome.stderr[-300:]}")
        self.calibrations.append(outcome.sample.wall)
        return len(self.calibrations) - 1

    def scaled(self, sample: Sample) -> float:
        """``sample``'s wall time over the mean of the starts around it."""

        assert sample.calibration is not None
        around = self.calibrations[sample.calibration : sample.calibration + 2]
        return sample.wall / (sum(around) / len(around)) * CALIBRATION_REFERENCE_S

    def measure(self, commands: tuple[str, ...], seconds: float, trace: bool = False) -> None:
        """Sample ``commands`` round-robin until ``seconds`` pass; each at least once."""

        deadline = time.perf_counter() + seconds
        store = self.traced if trace else self.samples
        while True:
            name = min(commands, key=lambda n: len(store.get(n, ())))
            if store.get(name) and time.perf_counter() >= deadline:
                break
            self.sample(name, trace)
        self.calibrate()  # the start after the last sample

    # --- checks ----------------------------------------------------------

    def check_common(self, o: Outcome) -> str | None:
        if o.code != 0:
            return f"exit code {o.code}: {o.stderr.strip()[-300:]}"
        if wl.FAKE_GIT_TOKEN in o.stdout or wl.FAKE_GIT_TOKEN in o.stderr:
            return "GIT_TOKEN value in output"
        if sorted(os.listdir(self.load.root)) != self.root_listing:
            return "workspace root changed"
        return None

    def check_version(self, o: Outcome) -> str | None:
        return None if o.stdout.startswith("forge ") else "no version line"

    def check_analyze(self, o: Outcome) -> str | None:
        try:
            doc = json.loads(o.stdout)
        except ValueError:
            return "analyze output is not JSON"
        for key, value in self.expected_analysis.items():
            if doc.get(key) != value:
                return f"analyze {key} differs from the oracle"
        return None

    def check_dockerfile(self, o: Outcome, path: Path, stdout: str | None) -> str | None:
        if stdout is not None and o.stdout.strip() != stdout:
            return f"unexpected output {o.stdout.strip()[:200]!r}"
        if not path.is_file():
            return "no Dockerfile written"
        text = path.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.dockerfile_digest is None:
            self.dockerfile_digest, self.dockerfile_text = digest, text
            return self.check_dockerfile_text(text)
        if digest != self.dockerfile_digest:
            return "Dockerfile differs from an earlier invocation's"
        return None

    def check_dockerfile_text(self, text: str) -> str | None:
        stages = dockerfile.parse(text)
        if [s.name for s in stages] != list(STAGES):
            return f"stages {[s.name for s in stages]}"
        by_name = {s.name: s for s in stages}
        if dockerfile.artifact_lists(stages) != self.expected_artifacts:
            return "artifact lists differ from the oracle"
        if dockerfile.copy_sources(by_name["dependencies"]) != oracle.manifest_copy_sources(self.load):
            return "dependencies stage copies other files than the live manifests"
        if dockerfile.context_copies(by_name["run"]):
            return "run stage copies from the build context"
        return None

    def check_build(self, o: Outcome, path: Path) -> str | None:
        lines = o.stdout.splitlines()
        clones = [line for line in lines if line.startswith("clone ")]
        if len(clones) != len(self.load.repos):
            return f"{len(clones)} clone lines for {len(self.load.repos)} repositories"
        if not lines or not lines[-1].startswith("[dry-run] docker build "):
            return "no dry-run build line"
        return self.check_dockerfile(o, path, None)

    def check_ci(self, o: Outcome, plat: str) -> str | None:
        try:
            doc = yaml.safe_load(o.stdout)
        except yaml.YAMLError:
            return f"{plat} pipeline is not YAML"
        if not isinstance(doc, dict):
            return f"{plat} pipeline is not a mapping"
        self.ci_jobs[plat] = ci_jobs(doc, plat)
        if self.ci_jobs[plat] != expected_ci_jobs():
            return f"{plat} pipeline has {self.ci_jobs[plat]} jobs"
        return None

    def check_run(self, o: Outcome) -> str | None:
        mount = f"--volume {self.load.root}/src:/ws/src:rw"
        line = o.stdout.strip()
        if not line.startswith("[dry-run] docker run ") or mount not in line:
            return f"unexpected run line {line[:200]!r}"
        if "DISPLAY" in line or not line.endswith(" ros:humble"):
            return f"unexpected run line {line[:200]!r}"
        return None


def ci_jobs(doc: dict, plat: str) -> int:
    if plat == "github":
        return len(doc.get("jobs") or {})
    return sum(1 for value in doc.values() if isinstance(value, dict) and "script" in value)


def expected_ci_jobs() -> int:
    """Build per target and arch, one test job, a merge per target, push."""

    targets = 2
    return targets * len(CI_ARCHES) + 1 + targets + 1


def fingerprint(root: Path) -> str:
    """Digest of every path, mode, size and mtime under ``root``."""

    digest = hashlib.sha256()
    stack = [str(root)]
    while stack:
        with os.scandir(stack.pop()) as it:
            entries = sorted(it, key=lambda e: e.name)
        for entry in entries:
            st = entry.stat(follow_symlinks=False)
            digest.update(
                f"{entry.path}\0{st.st_mode}\0{st.st_size}\0{st.st_mtime_ns}\n".encode()
            )
            if entry.is_dir(follow_symlinks=False):
                stack.append(entry.path)
    return digest.hexdigest()


# --- metrics ---------------------------------------------------------------


def describe(values: list[float]) -> dict[str, object]:
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "median": median(values), "q1": q[0], "q3": q[2]}


E2E_COMMANDS = {
    "startup_s": "startup",
    "analyze_s": "analyze",
    "generate_s": "generate",
    "build_dryrun_s": "build_dryrun",
    "ci_s": "ci",
    "run_dryrun_s": "run_dryrun",
    "setup_s": "setup",
}


def end_to_end(bench: Bench) -> tuple[dict[str, tuple[float, str]], dict[str, object]]:
    metrics: dict[str, tuple[float, str]] = {}
    detail: dict[str, object] = {"calibration_s": describe(bench.calibrations)}
    for metric, command in E2E_COMMANDS.items():
        samples = bench.samples[command]
        scaled = [bench.scaled(s) for s in samples]
        metrics[metric] = (median(scaled), "s")
        detail[metric] = {"scaled": describe(scaled), "raw": describe([s.wall for s in samples])}
    rss = max(s.rss_kb for samples in bench.samples.values() for s in samples)
    metrics["peak_rss_mb"] = (rss / 1024, "MB")
    image = dockerfile.metrics(bench.dockerfile_text)
    metrics["image_layers_max"] = (float(image.layers_max), "count")
    metrics["dockerfile_bytes"] = (float(image.bytes), "bytes")
    detail["image"] = {
        "layers_per_stage": image.stage_layers,
        "layers_per_lineage": image.lineage_layers,
        "apt_transactions": image.apt_transactions,
        "engine_build_seconds_per_stage": None,
        "engine_size_bytes_per_stage": None,
        "engine_reason": ENGINE_SIDE_REASON,
    }
    return metrics, detail


def import_times(bench: Bench) -> dict[str, float]:
    """Medians from ``python -X importtime -c "import forge.cli"``."""

    totals: dict[str, list[float]] = {"total": [], "yaml": [], "forge_self": []}
    argv = [sys.executable, "-X", "importtime", "-c", "import forge.cli"]
    for _ in range(IMPORTTIME_SAMPLES):
        outcome = bench.spawn(argv, bench.work / "cwd", bench.env)
        bench.attempted += 1
        rows = []
        for line in outcome.stderr.splitlines():
            if line.startswith("import time:") and "|" in line and "self" not in line:
                self_us, cumulative_us, name = line[len("import time:"):].split("|")
                rows.append((name.strip(), int(self_us), int(cumulative_us)))
        top = {name: cumulative for name, _, cumulative in rows}
        if outcome.code != 0 or "forge.cli" not in top or "yaml" not in top:
            bench.failed += 1
            bench.failures.append("importtime: forge.cli did not import")
            continue
        totals["total"].append(top["forge.cli"] / 1000)
        totals["yaml"].append(top["yaml"] / 1000)
        totals["forge_self"].append(
            sum(s for name, s, _ in rows if name == "forge" or name.startswith("forge.")) / 1000
        )
    return {key: median(values) for key, values in totals.items() if values}


def per_invocation(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per invocation: summed duration and self time of each span name, and counts."""

    by_id = {(s["inv"], s["id"]): s for s in spans}
    child_time: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["inv"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]
    result: dict[str, dict[str, float]] = {}
    for key, s in by_id.items():
        inv = result.setdefault(s["inv"], {})
        duration = s["end"] - s["start"]
        inv[s["name"] + ".total"] = inv.get(s["name"] + ".total", 0.0) + duration
        inv[s["name"] + ".self"] = inv.get(s["name"] + ".self", 0.0) + duration - child_time.get(key, 0.0)
        inv[s["name"] + ".calls"] = inv.get(s["name"] + ".calls", 0) + 1
        for count, value in (s.get("counts") or {}).items():
            inv[count] = value
    return result


SPAN_METRICS = {
    # metric: (span name, "total" or "self")
    "cli.load_config_ms": ("cli.load_config", "total"),
    "cli.handler_self_ms": ("cli.handler", "self"),
    "depgraph.load_rosdep_db_ms": ("depgraph.load_rosdep_db", "total"),
    "depgraph.distro_index_ms": ("depgraph.distro_index", "total"),
    # Both scopes: runtime_subset's resolve is a span of the same name.
    "depgraph.resolve_ms": ("depgraph.resolve", "total"),
    "manifest.scan_workspace_ms": ("manifest.scan_workspace", "total"),
    "manifest.parse_manifest_ms": ("manifest.parse_manifest", "total"),
    "sources.parse_repos_ms": ("sources.parse_repos", "total"),
    "sources.clone_plan_ms": ("sources.clone_plan", "total"),
    "dockergen.plan_stages_ms": ("dockergen.plan_stages", "total"),
    "dockergen.validate_plan_ms": ("dockergen.validate_plan", "total"),
    "dockergen.render_ms": ("dockergen.render", "total"),
    "engine.build_argv_ms": ("engine.build_argv", "total"),
    "cigen.generate_pipeline_ms": ("cigen.generate_pipeline", "total"),
    "devrun.probe_host_ms": ("devrun.probe_host", "total"),
    "devrun.synthesize_invocation_ms": ("devrun.synthesize_invocation", "total"),
}
SPAN_COUNTS = {
    # metric: (count recorded on a span, unit)
    "depgraph.db_bytes": ("db_bytes", "bytes"),
    "depgraph.db_keys_loaded": ("db_keys_loaded", "count"),
    "depgraph.db_keys_used": ("db_keys_used", "count"),
    "depgraph.resolve_calls": ("depgraph.resolve.calls", "count"),
    "depgraph.keys_declared": ("keys_declared", "count"),
    "depgraph.unresolved": ("unresolved", "count"),
    "manifest.parse_manifest_calls": ("manifest.parse_manifest.calls", "count"),
    "manifest.packages": ("packages", "count"),
    "manifest.ignored_dirs": ("ignored_dirs", "count"),
    "sources.repos": ("repos", "count"),
}


def per_layer(bench: Bench, imports: dict[str, float]) -> tuple[dict[str, tuple[float, str]], dict[str, object]]:
    invocations = per_invocation(bench.spans)
    metrics: dict[str, tuple[float, str]] = {
        "import.total_ms": (imports["total"], "ms"),
        "import.yaml_ms": (imports["yaml"], "ms"),
        "import.forge_self_ms": (imports["forge_self"], "ms"),
    }
    detail: dict[str, object] = {"traced_invocations": len(invocations)}

    def median_over(key: Callable[[dict], float | None]) -> float:
        values = [v for v in (key(inv) for inv in invocations.values()) if v is not None]
        return median(values)

    for metric, (span, kind) in SPAN_METRICS.items():
        value = median_over(lambda inv, k=f"{span}.{kind}": inv.get(k))
        metrics[metric] = (value * 1000, "ms")
    for metric, (count, unit) in SPAN_COUNTS.items():
        metrics[metric] = (float(median_over(lambda inv, c=count: inv.get(c))), unit)
    metrics["depgraph.db_use_ratio"] = (
        metrics["depgraph.db_keys_used"][0] / metrics["depgraph.db_keys_loaded"][0],
        "ratio",
    )

    image = dockerfile.metrics(bench.dockerfile_text)
    metrics["dockergen.instructions"] = (float(image.instructions), "count")
    for stage in STAGES:
        metrics[f"dockergen.layers.{stage}"] = (float(image.stage_layers[stage]), "count")
    metrics["dockergen.apt_transactions"] = (float(image.apt_transactions), "count")
    metrics["cigen.jobs"] = (float(sum(bench.ci_jobs.values())), "count")

    for command in E2E_COMMANDS.values():
        samples = bench.samples[command]
        cpu = median([s.cpu for s in samples])
        metrics[f"proc.{command}.cpu_s"] = (cpu, "s")
        metrics[f"proc.{command}.offcpu_s"] = (median([s.wall - s.cpu for s in samples]), "s")
    overhead = 0.0
    for command, traced in bench.traced.items():
        overhead += median(bench.scaled(s) for s in traced)
        overhead -= median(bench.scaled(s) for s in bench.samples[command])
    metrics["trace.overhead_s"] = (overhead, "s")

    detail["largest_self_time"] = largest_self_time(invocations, imports)
    return metrics, detail


def largest_self_time(invocations: dict[str, dict[str, float]], imports: dict[str, float]) -> list:
    """Median self time per span name over the invocations that ran it, with
    the import of forge.cli as one more layer; largest first."""

    names = {key[: -len(".self")] for inv in invocations.values() for key in inv if key.endswith(".self")}
    ranked = {"import": imports["total"]}
    for name in names:
        values = [inv[f"{name}.self"] for inv in invocations.values() if f"{name}.self" in inv]
        if name == "manifest.scan_workspace":
            # The scan's own work includes the manifest parsing it drives.
            values = [
                inv[f"{name}.self"] + inv.get("manifest.parse_manifest.total", 0.0)
                for inv in invocations.values()
                if f"{name}.self" in inv
            ]
        ranked[name] = median(values) * 1000
    ordered = sorted(ranked.items(), key=lambda item: -item[1])
    return [[name, ms] for name, ms in ordered[:6]]


def machine_info(checkout: Path, seed: int) -> dict[str, object]:
    commit = None
    if (checkout / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((checkout / "src" / "forge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(path.relative_to(checkout).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "yaml_with_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "git_commit": commit,
        "git_commit_reason": None if commit else "checkout is not a git repository",
        "source_sha256": sources.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "forge" / "cli.py").is_file():
        print("perfbench: run from a forge checkout (src/forge/cli.py not found)", file=sys.stderr)
        return 2

    scratch = checkout / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        for sub in ("io", "out", "cwd", "home", "cache", "tmp"):
            (work / sub).mkdir()
        load = wl.generate(args.workload, args.seed, work / "fixture", checkout)
        env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(checkout / "src"),
            "HOME": str(work / "home"),
            "XDG_CACHE_HOME": str(work / "cache"),
            "TMPDIR": str(work / "tmp"),
            "GIT_TOKEN": wl.FAKE_GIT_TOKEN,
            "LANG": "C.UTF-8",
            "LC_ALL": "C.UTF-8",
        }
        bench = Bench(checkout=checkout, work=work, load=load, env=env)
        bench.root_listing = sorted(os.listdir(load.root))
        before = fingerprint(work / "fixture")

        # Untimed warm-up: byte-compiles forge and fills any persistent cache.
        bench.sample("startup")
        bench.sample("analyze")
        bench.samples.clear()

        if args.trace:
            bench.measure(COMMANDS, args.seconds / 2)
            imports = import_times(bench)
            bench.measure(TRACED_COMMANDS, args.seconds / 2, trace=True)
        else:
            bench.measure(COMMANDS, args.seconds)

        bench.attempted += 1
        if fingerprint(work / "fixture") != before:
            bench.failed += 1
            bench.failures.append("fixture tree changed during the run")

        if not bench.dockerfile_text:
            print("perfbench: forge wrote no Dockerfile; failures:", file=sys.stderr)
            print("\n".join(bench.failures[:20]), file=sys.stderr)
            return 1
        e2e, e2e_detail = end_to_end(bench)
        report: dict[str, object] = {
            "workload": args.workload,
            "machine": machine_info(checkout, args.seed),
            "seconds": args.seconds,
            "trace": args.trace,
            "samples": {name: len(s) for name, s in bench.samples.items()},
            "end_to_end": e2e_detail,
            "failures": bench.failures[:20],
        }
        if args.trace:
            metrics, layer_detail = per_layer(bench, imports)
            report["per_layer"] = layer_detail
        else:
            metrics = e2e
        report["error_rate"] = bench.failed / bench.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
