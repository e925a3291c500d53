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
from typing import Collection, NamedTuple, Sequence

from . import ARCHITECTURES, COMPONENTS, KNOWN_DISTROS, ML_FLAVORS
from .errors import MalformedDatabase
from .textio import ComposedDocument, dump_yaml

_FLAVOR_SUFFIX = dict(zip(ML_FLAVORS, ("", "-cuda", "-tf", "-tf-cpp", "-torch", "-torch-cpp")))

DISTROS = tuple(KNOWN_DISTROS)


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
    doc = ComposedDocument(path.read_text("utf-8"), str(path), MalformedDatabase)
    table = doc.construct(doc.root)
    return BaseImageTable(os_bases=table["os_bases"], accelerator_bases=table["accelerator_bases"])


def enumerate_matrix(
    distros: Collection[str] | None,
    components: Collection[str] | None,
    ml_flavors: Collection[str] | None,
    architectures: Collection[str] | None,
) -> list[MatrixEntry]:
    """All matrix entries, restricted per dimension unless that filter is empty or None.

    The command line checks each filter's values. The order is total and
    deterministic: distros, components and flavors iterate in their
    canonical declaration order.
    """

    arches = tuple(a for a in ARCHITECTURES if not architectures or a in architectures)
    return [
        MatrixEntry(distro=distro, component=component, ml_flavor=flavor, architectures=arches)
        for distro in DISTROS if not distros or distro in distros
        for component in COMPONENTS if not components or component in components
        for flavor in ML_FLAVORS if not ml_flavors or flavor in ml_flavors
    ]


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
