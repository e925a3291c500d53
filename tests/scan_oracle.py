"""Reference workspace walk used to cross-check ``forge.manifest.scan_workspace``.

A plain recursive pathlib walk that follows catkin_pkg's
``find_package_paths`` (and colcon's discovery): an ignore marker prunes
its directory, a directory holding a ``package.xml`` file is a package
and is not searched further, and neither dot-directories nor symlinked
directories are entered. It is kept frozen as the statement of the scan
rules; change it only if a rule changes. Manifests are read as text, as
``open`` reads them, and handed re-encoded to :func:`parse_bytes`, which
parses them through ``forge.manifest.parse_manifest`` with an empty memo,
so the comparison covers the walk and the decoding of each file's bytes,
not the parser. A parse error is re-raised with the manifest's
workspace-relative path in front, as ``scan_workspace`` does.
"""

from __future__ import annotations

from pathlib import Path, PurePosixPath

from forge.errors import (
    DuplicatePackageName,
    EmptyWorkspace,
    MalformedManifest,
    UnsupportedFormat,
)
from forge.manifest import (
    IGNORE_MARKERS,
    ManifestMemo,
    PackageManifest,
    Workspace,
    parse_manifest,
)
from forge.textio import hex_digest, read_utf8


def parse_bytes(
    data: bytes, condition_env: dict[str, str], source_dir: str, memo: ManifestMemo | None = None
) -> PackageManifest:
    """``parse_manifest`` of a manifest's bytes under their digest, through ``memo`` or an empty one."""

    memo = ManifestMemo({}) if memo is None else memo
    return parse_manifest(hex_digest("blake2b", data), data, condition_env, source_dir, memo)


def oracle_scan(root: Path, condition_env: dict[str, str]) -> Workspace:
    root = Path(root)
    if not root.is_dir():
        raise EmptyWorkspace(f"workspace root {root} is not a directory")

    packages: list[PackageManifest] = []
    ignored: list[Path] = []

    def walk(directory: Path) -> None:
        if any((directory / marker).exists() for marker in IGNORE_MARKERS):
            ignored.append(directory)
            return
        manifest_path = directory / "package.xml"
        if manifest_path.is_file():
            rel = PurePosixPath(directory.relative_to(root).as_posix())
            text = read_utf8(manifest_path, MalformedManifest)
            try:
                packages.append(parse_bytes(text.encode(), condition_env, str(rel)))
            except (MalformedManifest, UnsupportedFormat) as exc:
                raise type(exc)(f"{rel / 'package.xml'}: {exc}") from exc
            return
        for child in sorted(directory.iterdir()):
            if child.is_dir() and not child.is_symlink() and not child.name.startswith("."):
                walk(child)

    walk(root)

    if not packages:
        raise EmptyWorkspace(f"no package manifests found under {root}")

    seen: dict[str, str] = {}
    for pkg in packages:
        if pkg.name in seen:
            raise DuplicatePackageName(
                f"package {pkg.name!r} appears in both {seen[pkg.name]} and {pkg.source_dir}"
            )
        seen[pkg.name] = pkg.source_dir

    packages.sort(key=lambda p: p.name)
    return Workspace(packages=packages, ignored_dirs=sorted(ignored))
