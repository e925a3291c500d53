"""Container image and CI pipeline generation for ROS workspaces.

The package turns a ROS or ROS 2 workspace into reproducible multi-stage
container builds: it scans package manifests, resolves dependency keys
against pinned databases, plans and renders Dockerfiles, enumerates a
matrix of ML-ready base images, emits CI pipeline configurations, and
wraps a container engine for building and for ergonomic development runs.
"""

from __future__ import annotations

__version__ = "0.1.0"

GENERATOR_NAME = "forge"

# Supported ROS distros and the ROS major version of each.
KNOWN_DISTROS: dict[str, int] = {
    "noetic": 1,
    "foxy": 2,
    "humble": 2,
    "iron": 2,
    "rolling": 2,
}

# The image flavors a build can target: the development image, which holds
# the source, and the deployment image, which holds only the install space.
TARGETS = ("dev", "run")

# The CPU architectures forge builds images for.
ARCHITECTURES = ("amd64", "arm64")

# The component bundles and ML flavors of the prebuilt base image matrix, in
# the order the matrix enumerates them.
COMPONENTS = ("core", "base", "robot", "perception", "desktop", "desktop-full")
ML_FLAVORS = ("none", "cuda", "tf-py", "tf-cpp", "torch-py", "torch-cpp")
