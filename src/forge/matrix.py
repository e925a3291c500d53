"""Enumeration of the prebuilt ROS base image matrix.

The matrix spans five distributions, six component bundles, and six ML
flavors (including plain). Tags follow a fixed grammar so that every
combination maps to exactly one tag: ``<registry>/<family>:<distro>-
<component>`` where the repository family is ``ros`` or ``ros2`` plus an
ML flavor suffix. Upstream base references come from a data table, not
from code.
"""

from __future__ import annotations

from importlib import resources
from typing import Iterable, NamedTuple, Sequence

from . import ARCHITECTURES, KNOWN_DISTROS
from .errors import InvalidSpec, MalformedDatabase
from .textio import dump_yaml, load_yaml

_FLAVOR_SUFFIX = {
    "none": "",
    "cuda": "-cuda",
    "tf-py": "-tf",
    "tf-cpp": "-tf-cpp",
    "torch-py": "-torch",
    "torch-cpp": "-torch-cpp",
}

DISTROS = tuple(KNOWN_DISTROS)
COMPONENTS = ("core", "base", "robot", "perception", "desktop", "desktop-full")
ML_FLAVORS = tuple(_FLAVOR_SUFFIX)


class MatrixEntry(NamedTuple):
    """One buildable image: distro, component bundle, ML flavor, arches."""

    distro: str
    component: str
    ml_flavor: str
    architectures: tuple[str, ...] = ARCHITECTURES

    @property
    def ros_version(self) -> int:
        return KNOWN_DISTROS[self.distro]


class BaseImageTable(NamedTuple):
    """Upstream base references per distro: plain OS and accelerator bases."""

    os_bases: dict[str, str]
    accelerator_bases: dict[str, dict[str, str]]


def load_base_image_table() -> BaseImageTable:
    """The base reference table of the packaged ``ml_bases.yaml``; its shape is checked by tests."""

    path = resources.files("forge.data").joinpath("ml_bases.yaml")
    doc = load_yaml(path.read_text("utf-8"), str(path), MalformedDatabase)
    return BaseImageTable(os_bases=doc["os_bases"], accelerator_bases=doc["accelerator_bases"])


def _check_values(kind: str, values: Iterable[str], allowed: Sequence[str]) -> tuple[str, ...]:
    out = tuple(values)
    for value in out:
        if value not in allowed:
            raise InvalidSpec(f"unknown {kind} {value!r}; choose from {', '.join(allowed)}")
    return out


def enumerate_matrix(
    distros: Iterable[str] | None,
    components: Iterable[str] | None,
    ml_flavors: Iterable[str] | None,
    architectures: Iterable[str] | None,
) -> list[MatrixEntry]:
    """All matrix entries, restricted per dimension unless that filter is None.

    The order is total and deterministic: distros, components and flavors
    iterate in their canonical declaration order.
    """

    wanted_distros = _check_values("distro", distros or DISTROS, DISTROS)
    wanted_components = _check_values("component", components or COMPONENTS, COMPONENTS)
    wanted_flavors = _check_values("ml flavor", ml_flavors or ML_FLAVORS, ML_FLAVORS)
    wanted_arches = _check_values(
        "architecture", architectures or ARCHITECTURES, ARCHITECTURES
    )

    entries: list[MatrixEntry] = []
    for distro in DISTROS:
        if distro not in wanted_distros:
            continue
        for component in COMPONENTS:
            if component not in wanted_components:
                continue
            for flavor in ML_FLAVORS:
                if flavor not in wanted_flavors:
                    continue
                arches = tuple(a for a in ARCHITECTURES if a in wanted_arches)
                entries.append(
                    MatrixEntry(
                        distro=distro,
                        component=component,
                        ml_flavor=flavor,
                        architectures=arches,
                    )
                )
    return entries


def tag_of(entry: MatrixEntry, registry: str) -> str:
    """Registry tag for one entry; injective over the whole matrix."""

    family = "ros" if entry.ros_version == 1 else "ros2"
    suffix = _FLAVOR_SUFFIX[entry.ml_flavor]
    return f"{registry}/{family}{suffix}:{entry.distro}-{entry.component}"


def base_dockerfile_args(entry: MatrixEntry, table: BaseImageTable) -> dict[str, str]:
    """Build arguments for the generic base image Dockerfile.

    Plain entries root on the distro's stock OS base. Accelerator flavors
    root on a CUDA OS base on amd64 and an embedded accelerator base on
    arm64; when the entry spans both, per-architecture arguments are
    emitted instead of a single BASE_IMAGE.
    """

    args = {
        "ROS_DISTRO": entry.distro,
        "ROS_COMPONENT": entry.component,
    }
    if entry.ml_flavor != "none":
        args["ML_FLAVOR"] = entry.ml_flavor

    if entry.ml_flavor == "none":
        bases = {arch: table.os_bases[entry.distro] for arch in entry.architectures}
    else:
        bases = {
            arch: table.accelerator_bases[entry.distro][arch]
            for arch in entry.architectures
        }
    unique = sorted(set(bases.values()))
    if len(unique) == 1:
        args["BASE_IMAGE"] = unique[0]
    else:
        for arch, base in sorted(bases.items()):
            args[f"BASE_IMAGE_{arch.upper()}"] = base
    return args


def build_plan_document(
    entries: Sequence[MatrixEntry],
    registry: str,
    dockerfile_path: str,
    table: BaseImageTable,
) -> str:
    """Machine-readable build plan for the matrix, as YAML text."""

    plan = {
        "images": [
            {
                "tag": tag_of(entry, registry),
                "build_args": base_dockerfile_args(entry, table),
                "platforms": [f"linux/{arch}" for arch in entry.architectures],
                "dockerfile_path": dockerfile_path,
            }
            for entry in entries
        ]
    }
    return dump_yaml(plan, sort_keys=False)
