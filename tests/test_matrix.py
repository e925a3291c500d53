"""Base image matrix enumeration, tag grammar and build planning."""

from __future__ import annotations

import re

import yaml

from forge.matrix import (
    ARCHITECTURES,
    COMPONENTS,
    DISTROS,
    ML_FLAVORS,
    base_dockerfile_args,
    build_plan_document,
    enumerate_matrix,
    load_base_image_table,
    tag_of,
)

TAG_RE = re.compile(
    r"^[a-z0-9.:-]+/ros2?(-cuda|-tf|-tf-cpp|-torch|-torch-cpp)?"
    r":[a-z]+-(core|base|robot|perception|desktop|desktop-full)$"
)


def matrix(distros=None, components=None, ml_flavors=None, architectures=None):
    """``enumerate_matrix`` with each filter not given left unset."""

    return enumerate_matrix(distros, components, ml_flavors, architectures)


def test_full_matrix_cardinality() -> None:
    entries = matrix()
    assert len(entries) == len(DISTROS) * len(COMPONENTS) * len(ML_FLAVORS)
    assert len(entries) == 180


def test_matrix_order_is_canonical() -> None:
    entries = matrix()
    seen = [(e.distro, e.component, e.ml_flavor) for e in entries]
    expected = [
        (d, c, m) for d in DISTROS for c in COMPONENTS for m in ML_FLAVORS
    ]
    assert seen == expected


def test_tags_unique_and_well_formed() -> None:
    tags = [tag_of(entry, "registry.example.com") for entry in matrix()]
    assert len(set(tags)) == len(tags) == 180
    for tag in tags:
        assert TAG_RE.match(tag), tag


def test_tag_examples() -> None:
    entries = {
        (e.distro, e.component, e.ml_flavor): e for e in matrix()
    }
    assert tag_of(entries[("noetic", "base", "none")], "reg") == "reg/ros:noetic-base"
    assert tag_of(entries[("humble", "desktop", "none")], "reg") == "reg/ros2:humble-desktop"
    assert (
        tag_of(entries[("humble", "core", "cuda")], "reg") == "reg/ros2-cuda:humble-core"
    )
    assert (
        tag_of(entries[("iron", "perception", "torch-cpp")], "reg")
        == "reg/ros2-torch-cpp:iron-perception"
    )
    assert (
        tag_of(entries[("noetic", "desktop-full", "tf-py")], "reg")
        == "reg/ros-tf:noetic-desktop-full"
    )


def test_filters_restrict_entries() -> None:
    entries = matrix(distros=("humble",), ml_flavors=("none", "cuda"))
    assert len(entries) == len(COMPONENTS) * 2
    assert {e.distro for e in entries} == {"humble"}


def test_entries_are_multi_arch_by_default() -> None:
    for entry in matrix():
        assert entry.architectures == ARCHITECTURES


def test_packaged_base_image_table_maps_every_distro_and_architecture() -> None:
    table = load_base_image_table()
    assert set(table.os_bases) == set(table.accelerator_bases) == set(DISTROS)
    for distro in DISTROS:
        assert isinstance(table.os_bases[distro], str)
        row = table.accelerator_bases[distro]
        assert set(row) == set(ARCHITECTURES)
        assert all(isinstance(base, str) for base in row.values())


def test_base_image_table_covers_matrix() -> None:
    table = load_base_image_table()
    for entry in matrix():
        args = base_dockerfile_args(entry, table)
        assert args["ROS_DISTRO"] == entry.distro
        if entry.ml_flavor == "none":
            assert "BASE_IMAGE" in args
        else:
            # Accelerator flavors use per-architecture bases, one column
            # per architecture.
            assert "BASE_IMAGE_AMD64" in args and "BASE_IMAGE_ARM64" in args
            assert args["BASE_IMAGE_AMD64"] != args["BASE_IMAGE_ARM64"]


def test_plain_bases_follow_distro_os() -> None:
    table = load_base_image_table()
    entries = {(e.distro, e.ml_flavor): e for e in matrix(components=("core",))}
    assert base_dockerfile_args(entries[("noetic", "none")], table)["BASE_IMAGE"] == "ubuntu:20.04"
    assert base_dockerfile_args(entries[("humble", "none")], table)["BASE_IMAGE"] == "ubuntu:22.04"
    assert base_dockerfile_args(entries[("rolling", "none")], table)["BASE_IMAGE"] == "ubuntu:24.04"


def test_build_plan_document_round_trips() -> None:
    entries = matrix(distros=("humble",), components=("core",))
    table = load_base_image_table()
    text = build_plan_document(entries, "reg", "Dockerfile.base", table)
    doc = yaml.safe_load(text)
    assert isinstance(doc, dict) and "images" in doc
    builds = doc["images"]
    assert len(builds) == len(ML_FLAVORS)
    tags = [b["tag"] for b in builds]
    assert tags == [tag_of(e, "reg") for e in entries]
    for build in builds:
        assert build["dockerfile_path"] == "Dockerfile.base"
        assert build["platforms"] == ["linux/amd64", "linux/arm64"]
        assert build["build_args"]["ROS_DISTRO"] == "humble"
        assert build["build_args"]["ROS_COMPONENT"] == "core"


def test_build_plan_document_deterministic() -> None:
    entries = matrix(distros=("foxy",))
    table = load_base_image_table()
    first = build_plan_document(entries, "reg", "Dockerfile.base", table)
    second = build_plan_document(entries, "reg", "Dockerfile.base", table)
    assert first == second
