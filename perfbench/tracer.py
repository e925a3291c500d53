"""Run one forge command in this interpreter with a span around each layer.

Usage: python3 perfbench/tracer.py SPANS_JSON INVOCATION_ID -- FORGE_ARGS...

Each layer's public entry point is replaced on the module attribute the
calling code looks it up from (``forge.cli.scan_workspace``, and
``forge.manifest.parse_manifest`` for the calls inside the scan). A span
records name, start, end, parent span and invocation id, plus counts taken
from the call's arguments and result after the span has ended. Spans stay
in memory and are written to SPANS_JSON when forge returns; the exit code
is forge's.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], dict]


class Tracer:
    def __init__(self, invocation: str) -> None:
        self.invocation = invocation
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def wrap(self, module: Any, attr: str, name: str, count: Counter | None = None) -> None:
        original = getattr(module, attr)
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "inv": self.invocation,
                "name": name,
                "start": clock(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = clock()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _db_counts(args: tuple, kwargs: dict, db: Any) -> dict:
    documents = args[0] if args else kwargs["documents"]
    return {
        "db_bytes": sum(len(text.encode("utf-8")) for text in documents),
        "db_keys_loaded": len(db.entries),
    }


def _resolve_counts(args: tuple, kwargs: dict, resolved: Any) -> dict:
    keys, db, index, internal = args[:4]
    repos = args[4] if len(args) > 4 else kwargs.get("repos", ())
    if resolved.scope != "all":
        return {}
    repo_names = {repo.local_name for repo in repos}
    used = sum(
        1
        for key in keys.all
        if key not in internal
        and key not in repo_names
        and key not in index.packages
        and key in db.entries
    )
    return {
        "keys_declared": len(keys.all),
        "db_keys_used": used,
        "unresolved": len(resolved.unresolved),
    }


def install(tracer: Tracer) -> Any:
    import forge.cli as cli
    import forge.depgraph as depgraph
    import forge.manifest as manifest

    t = tracer
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "load_config", "cli.load_config")
    for handler in ("cmd_analyze", "cmd_generate_dockerfile", "cmd_generate_ci", "cmd_build", "cmd_run"):
        t.wrap(cli, handler, "cli.handler")
    t.wrap(cli, "load_rosdep_db", "depgraph.load_rosdep_db", _db_counts)
    t.wrap(cli, "packaged_distro_index", "depgraph.distro_index")
    t.wrap(cli, "load_distro_index", "depgraph.distro_index")
    # runtime_subset calls resolve through forge.depgraph's own global.
    t.wrap(cli, "resolve", "depgraph.resolve", _resolve_counts)
    t.wrap(depgraph, "resolve", "depgraph.resolve", _resolve_counts)
    t.wrap(cli, "runtime_subset", "depgraph.runtime_subset")
    t.wrap(
        cli,
        "scan_workspace",
        "manifest.scan_workspace",
        lambda a, k, ws: {"packages": len(ws.packages), "ignored_dirs": len(ws.ignored_dirs)},
    )
    t.wrap(manifest, "parse_manifest", "manifest.parse_manifest")
    t.wrap(cli, "parse_repos", "sources.parse_repos", lambda a, k, repos: {"repos": len(repos)})
    t.wrap(cli, "clone_plan", "sources.clone_plan")
    t.wrap(cli, "plan_stages", "dockergen.plan_stages")
    t.wrap(cli, "validate_plan", "dockergen.validate_plan")
    t.wrap(cli, "render", "dockergen.render")
    t.wrap(cli, "build_argv", "engine.build_argv")
    t.wrap(cli, "generate_pipeline", "cigen.generate_pipeline")
    t.wrap(cli, "probe_host", "devrun.probe_host")
    t.wrap(cli, "synthesize_invocation", "devrun.synthesize_invocation")
    return cli


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, invocation, forge_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(invocation)
    cli = install(tracer)
    try:
        code = cli.main(forge_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    # Import forge from PYTHONPATH exactly as ``python -m forge.cli`` does,
    # not from this script's directory.
    sys.path.pop(0)
    raise SystemExit(main(sys.argv[1:]))
