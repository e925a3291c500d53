"""Expected forge output, derived from the generator's ground truth.

This is an independent model of the resolution rules the README states,
not a call into forge: per key, a workspace package wins, then a source
repository's local name, then the distro index, then the rosdep database
(later documents winning, keys without an ubuntu record skipped, as the
generator already folded them), else the key is unresolved.
"""

from __future__ import annotations

from workload import DISTRO, ROS_VERSION, Workload

BUCKETS = (
    "internal",
    "ros_distro_pkgs",
    "system_pkgs",
    "python_pkgs",
    "source_keys",
    "unresolved",
)


def declared_keys(workload: Workload, scope: str) -> set[str]:
    keys: set[str] = set()
    for pkg in workload.packages.values():
        keys |= pkg.exec
        if scope == "all":
            keys |= pkg.build
    return keys


def buckets(workload: Workload, scope: str) -> dict[str, list[str]]:
    """The resolver's buckets for ``scope`` ("all" or "exec_only")."""

    repo_names = {name for name, _, _ in workload.repos}
    out: dict[str, set[str]] = {name: set() for name in BUCKETS}
    for key in declared_keys(workload, scope):
        if key in workload.packages:
            out["internal"].add(key)
        elif key in repo_names:
            out["source_keys"].add(key)
        elif key in workload.index:
            out["ros_distro_pkgs"].add(f"ros-{DISTRO}-{key.replace('_', '-')}")
        elif key in workload.db:
            record = workload.db[key]
            target = "system_pkgs" if record.kind == "system" else "python_pkgs"
            out[target].update(record.packages)
        else:
            out["unresolved"].add(key)
    return {name: sorted(values) for name, values in out.items()}


def analyze_document(workload: Workload) -> dict[str, object]:
    """What ``forge analyze --format json`` must print."""

    return {
        "workspace": str(workload.root),
        "distro": DISTRO,
        "ros_version": ROS_VERSION,
        "packages": sorted(workload.packages),
        "source_repos": [
            {"name": name, "url": url, "version": version}
            for name, url, version in sorted(workload.repos)
        ],
        "all": buckets(workload, "all"),
        "exec_only": buckets(workload, "exec_only"),
    }


def artifact_lists(workload: Workload) -> dict[str, list[str]]:
    """The apt, pip and repository lists the ``dependencies`` stage writes.

    Without ``--slim-runtime`` the shared stage installs the all-scope set.
    """

    resolved = buckets(workload, "all")
    repos = [
        " ".join(part for part in (name, url, version) if part)
        for name, url, version in sorted(workload.repos)
    ]
    return {
        "apt": sorted({*resolved["ros_distro_pkgs"], *resolved["system_pkgs"]}),
        "pip": sorted(resolved["python_pkgs"]),
        "repos": repos,
    }


def manifest_copy_sources(workload: Workload) -> set[str]:
    """Context paths the ``dependencies`` stage copies: live manifests only."""

    return {f"{pkg.source_dir}/package.xml" for pkg in workload.packages.values()} | {
        "deps.repos"
    }
