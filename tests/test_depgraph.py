"""Dependency key resolution against databases, indexes and repos."""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from forge import __version__
from forge.depgraph import (
    ROSDEP_CACHE_FORMAT,
    DeclaredKeys,
    DistroIndex,
    RosdepDatabase,
    RosdepEntry,
    distro_package_name,
    load_distro_index,
    load_rosdep_db,
    packaged_distro_index,
    packaged_rosdep_db,
    resolve,
    runtime_subset,
)
from forge.errors import MalformedDatabase
from forge.sources import RepoSpec
from forge.textio import ComposedDocument, cache_name

from resolution_oracle import load_oracle_db, partition
from rosdep_oracle import load_whole

DB_DOC = """\
eigen:
  ubuntu: [libeigen3-dev]
python3-yaml:
  ubuntu:
    pip:
      packages: [pyyaml]
protolib:
  ubuntu: [libproto-dev, protoc]
"""

INDEX_DOC = """\
distro:
  name: humble
  ros_version: 2
  packages: [rclcpp, sensor_msgs, image_transport]
"""


def load(documents: list[str], cache_dir: Path | None = None, write_cache: bool = True):
    """``load_rosdep_db`` with document ``n`` named ``doc<n>.yaml``."""

    names = [f"doc{n}.yaml" for n in range(len(documents))]
    return load_rosdep_db(documents, names, cache_dir, write_cache)


def small_db():
    return load([DB_DOC])


def small_index():
    return load_distro_index(INDEX_DOC, "index.yaml")


def keys_of(*names: str) -> DeclaredKeys:
    return DeclaredKeys(build=frozenset(names), exec=frozenset(names))


def test_load_rosdep_db_shapes() -> None:
    db = small_db()
    assert db.entries["eigen"].kind == "system"
    assert db.entries["eigen"].packages == ("libeigen3-dev",)
    assert db.entries["python3-yaml"].kind == "python"
    assert db.entries["python3-yaml"].packages == ("pyyaml",)
    assert db.entries["protolib"].packages == ("libproto-dev", "protoc")


def test_load_rosdep_db_later_doc_wins() -> None:
    override = "eigen:\n  ubuntu: [libeigen3-newer]\n"
    db = load([DB_DOC, override], None, True)
    assert db.entries["eigen"].packages == ("libeigen3-newer",)


def test_load_rosdep_db_skips_other_os_records() -> None:
    doc = "fedora-only:\n  fedora: [some-pkg]\n"
    db = load([DB_DOC, doc], None, True)
    assert "fedora-only" not in db.entries


@pytest.mark.parametrize(
    "doc",
    [
        "- a list\n- not a map\n",
        "eigen: [libeigen3-dev]\n",
        "eigen:\n  ubuntu: {pip: pyyaml}\n",
        "eigen:\n  ubuntu: {pip: {packages: pyyaml}}\n",
        "eigen:\n  ubuntu: {apt: {packages: [x]}}\n",
        "eigen:\n  ubuntu: [1, 2]\n",
    ],
)
def test_load_rosdep_db_rejects_malformed(doc: str) -> None:
    with pytest.raises(MalformedDatabase):
        load([doc], None, True)


def test_load_distro_index() -> None:
    index = small_index()
    assert index.distro == "humble"
    assert index.ros_version == 2
    assert "rclcpp" in index.packages


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ("", "index.yaml: expected a top-level 'distro' mapping"),
        ("{}\n", "index.yaml:1:1: expected a top-level 'distro' mapping"),
        ("distro: [humble]\n", "index.yaml:1:9: expected a top-level 'distro' mapping"),
        ("distro: {name: navel, ros_version: 2, packages: []}\n",
         "index.yaml:1:16: unknown distro name 'navel'"),
        ("distro:\n  ros_version: 2\n  packages: []\n", "index.yaml:2:3: unknown distro name None"),
        ("distro: {name: humble, ros_version: 3, packages: []}\n",
         "index.yaml:1:37: distro 'humble' must declare ros_version 2"),
        ("distro: {name: humble, ros_version: 2.0, packages: []}\n",
         "index.yaml:1:37: distro 'humble' must declare ros_version 2"),
        ("distro: {name: noetic, ros_version: true, packages: []}\n",
         "index.yaml:1:37: distro 'noetic' must declare ros_version 1"),
        ("distro: {name: humble, ros_version: 2}\n",
         "index.yaml:1:9: distro 'humble' has no package list"),
        ("distro: {name: humble, ros_version: 2, packages: a}\n",
         "index.yaml:1:50: distro 'humble' has no package list"),
        ("distro:\n  name: humble\n  ros_version: 2\n  packages:\n    - rclcpp\n    - Bad-Name\n",
         "index.yaml:6:7: distro 'humble' lists invalid package 'Bad-Name'"),
    ],
    ids=["empty", "no-distro", "distro-list", "unknown-name", "name-missing", "ros-version",
         "ros-version-float", "ros-version-bool", "packages-missing", "packages-scalar",
         "invalid-package"],
)
def test_load_distro_index_rejects_malformed(doc: str, message: str) -> None:
    with pytest.raises(MalformedDatabase) as raised:
        load_distro_index(doc, "index.yaml")
    assert str(raised.value) == message


def test_distro_package_name() -> None:
    assert distro_package_name("humble", "image_transport") == "ros-humble-image-transport"
    assert distro_package_name("noetic", "tf2") == "ros-noetic-tf2"


def test_precedence_internal_beats_everything() -> None:
    repos = (RepoSpec("rclcpp", "https://h/r.git", None),)
    result = resolve(keys_of("rclcpp"), small_db(), small_index(), {"rclcpp"}, repos)
    assert result.internal == ("rclcpp",)
    assert result.ros_distro_pkgs == ()
    assert result.source_keys == ()


def test_precedence_repo_beats_index_and_db() -> None:
    repos = (RepoSpec("eigen", "https://h/e.git", None),)
    result = resolve(keys_of("eigen"), small_db(), small_index(), set(), repos)
    assert result.source_keys == ("eigen",)
    assert result.system_pkgs == ()


def test_precedence_index_beats_db() -> None:
    doc = "rclcpp:\n  ubuntu: [should-not-appear]\n"
    db = load([DB_DOC, doc], None, True)
    result = resolve(keys_of("rclcpp"), db, small_index(), set(), ())
    assert result.ros_distro_pkgs == ("ros-humble-rclcpp",)
    assert result.system_pkgs == ()


def test_unresolved_is_data_not_error() -> None:
    result = resolve(keys_of("no_such_thing"), small_db(), small_index(), set(), ())
    assert result.unresolved == ("no_such_thing",)


def test_runtime_subset_monotonic() -> None:
    keys = DeclaredKeys(
        build=frozenset({"eigen", "rclcpp", "python3-yaml"}),
        exec=frozenset({"rclcpp"}),
    )
    full = resolve(keys, small_db(), small_index(), set(), ())
    slim = runtime_subset(keys, small_db(), small_index(), set(), ())
    assert slim.scope == "exec_only"
    assert set(slim.ros_distro_pkgs) <= set(full.ros_distro_pkgs)
    assert set(slim.system_pkgs) <= set(full.system_pkgs)
    assert slim.system_pkgs == ()
    assert slim.python_pkgs == ()


def test_determinism_under_document_key_permutation() -> None:
    doc = yaml.safe_load(DB_DOC)
    rng = random.Random(7)
    keys = keys_of("eigen", "python3-yaml", "protolib", "rclcpp", "missing")
    baseline = resolve(keys, small_db(), small_index(), set(), ())
    for _ in range(10):
        items = list(doc.items())
        rng.shuffle(items)
        shuffled = yaml.safe_dump(dict(items), sort_keys=False)
        db = load([shuffled], None, True)
        assert resolve(keys, db, small_index(), set(), ()) == baseline


def test_packaged_data_loads() -> None:
    for distro, version in [
        ("noetic", 1),
        ("foxy", 2),
        ("humble", 2),
        ("iron", 2),
        ("rolling", 2),
    ]:
        index = packaged_distro_index(distro)
        assert index.ros_version == version
        assert len(index.packages) >= 30
    db = load(packaged_rosdep_db()[0], None, True)
    assert len(db.entries) == 50


def test_naming_rule_round_trip_over_packaged_indexes() -> None:
    import re

    pattern = re.compile(r"^ros-[a-z]+-[a-z0-9-]+$")
    for distro in ("noetic", "foxy", "humble", "iron", "rolling"):
        index = packaged_distro_index(distro)
        prefix = f"ros-{distro}-"
        for key in index.packages:
            name = distro_package_name(distro, key)
            assert pattern.match(name), name
            assert name.startswith(prefix)
            assert name[len(prefix) :].replace("-", "_") == key


# --- oracle equivalence ----------------------------------------------------


def _resolved_as_oracle_buckets(result) -> dict[str, tuple[str, ...]]:
    return {
        "internal": result.internal,
        "source": result.source_keys,
        "ros": result.ros_distro_pkgs,
        "system": result.system_pkgs,
        "python": result.python_pkgs,
        "unresolved": result.unresolved,
    }


def test_resolver_matches_oracle_on_seeded_trials() -> None:
    documents = packaged_rosdep_db()[0]
    db = load(documents, None, True)
    index = packaged_distro_index("humble")
    table = load_oracle_db(documents)

    internal = {"my_pkg", "other_pkg"}
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

    rng = random.Random(1234)
    for _ in range(60):
        chosen = set(rng.sample(universe, rng.randint(0, len(universe) // 2)))
        expected = partition(
            chosen, internal, repo_names, "humble", set(index.packages), table
        )
        keys = DeclaredKeys(build=frozenset(chosen), exec=frozenset(chosen))
        result = resolve(keys, db, index, internal, repos)
        assert _resolved_as_oracle_buckets(result) == expected


def test_partition_counts_cover_every_key() -> None:
    documents = packaged_rosdep_db()[0]
    db = load(documents, None, True)
    index = packaged_distro_index("humble")
    internal = {"in_ws"}
    rng = random.Random(99)
    universe = sorted(db.entries) + sorted(index.packages) + ["in_ws", "nope"]
    for _ in range(30):
        chosen = set(rng.sample(universe, rng.randint(0, len(universe))))
        keys = DeclaredKeys(build=frozenset(chosen), exec=frozenset(chosen))
        result = resolve(keys, db, index, internal, ())
        classified = (
            len(result.internal)
            + len(result.source_keys)
            + len(result.ros_distro_pkgs)
            + len(result.unresolved)
            + sum(
                1
                for key in chosen
                if key in db.entries
                and key not in internal
                and key not in index.packages
            )
        )
        assert classified == len(chosen)


# --- parsed-database cache ---------------------------------------------------

_KEYS = [f"key{i}" for i in range(12)]
_package_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9.+-]{0,8}", fullmatch=True), min_size=1, max_size=3
)
_records = st.one_of(_package_names, _package_names.map(lambda p: {"pip": {"packages": p}}))
_per_os = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(["ubuntu", "fedora", "debian"]), _records, min_size=1),
)
_databases = st.lists(
    st.dictionaries(st.sampled_from(_KEYS), _per_os, max_size=8), min_size=1, max_size=4
)


def cache_files(cache: Path) -> list[Path]:
    return sorted(cache.glob("rosdep-*.json"))


def cold_cache(tmp_path: Path, documents: list[str]) -> tuple[Path, Path]:
    """A cache directory filled from ``documents``, and its one file."""

    cache = tmp_path / "cache"
    load(documents, cache, True)
    (path,) = cache_files(cache)
    return cache, path


@settings(max_examples=60, deadline=None)
@given(_databases)
def test_cache_round_trip_matches_uncached(docs: list[dict]) -> None:
    documents = [yaml.safe_dump(doc) for doc in docs]
    expected: dict[str, RosdepEntry] = {}
    for doc in docs:
        for key, per_os in doc.items():
            record = (per_os or {}).get("ubuntu")
            if isinstance(record, list):
                expected[key] = RosdepEntry("system", tuple(record))
            elif record is not None:
                expected[key] = RosdepEntry("python", tuple(record["pip"]["packages"]))

    uncached = load(documents, None, True)
    assert uncached == RosdepDatabase(expected)
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp)
        assert load(documents, cache, True) == uncached
        assert len(cache_files(cache)) == 1
        with mock.patch("forge.depgraph.ComposedDocument", side_effect=AssertionError("parsed")):
            assert load(documents, cache, True) == uncached


def _records(records: object):
    """Damage that keeps the file's key and replaces its records with ``records``."""

    return lambda good: json.dumps({**json.loads(good), "records": records}).encode()


@pytest.mark.parametrize(
    "damage",
    [
        lambda good: good[: len(good) // 2],
        lambda good: b"",
        lambda good: b"not json",
        lambda good: b"\xff\xfe\x00",
        lambda good: b'["a list"]',
        _records(["a list"]),
        _records({"eigen": {"apt": ["x"]}}),
        _records({"eigen": []}),
        _records({"eigen": ["lib foo"]}),
        _records({"eigen": ["-y"]}),
        _records({"": ["x"]}),
        lambda good: b"[" * 100_000,
    ],
    ids=["truncated", "empty", "not-json", "not-utf8", "list", "records-list", "bad-record",
         "empty-list", "space-in-name", "option-name", "empty-key", "deep"],
)
def test_unusable_cache_file_is_a_rewritten_miss(tmp_path, damage) -> None:
    cache, path = cold_cache(tmp_path, [DB_DOC])
    good = path.read_bytes()
    path.write_bytes(damage(good))
    assert load([DB_DOC], cache, True) == small_db()
    assert path.read_bytes() == good


def test_unwritable_cache_falls_back(tmp_path, monkeypatch) -> None:
    cache = tmp_path / "cache"
    cache.mkdir()
    cache.chmod(0o555)

    # Mode bits do not stop root, so also refuse the temp file directly.
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Read-only file system")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    assert load([DB_DOC], cache, True) == small_db()
    assert cache_files(cache) == []


def test_cache_dir_that_is_a_file_falls_back(tmp_path) -> None:
    cache = tmp_path / "cache"
    cache.write_text("", encoding="utf-8")
    assert load([DB_DOC], cache, True) == small_db()
    assert cache.read_text(encoding="utf-8") == ""


def test_read_only_cache_still_hits(tmp_path) -> None:
    cache, _ = cold_cache(tmp_path, [DB_DOC])
    cache.chmod(0o555)
    expected = small_db()
    with mock.patch("forge.depgraph.ComposedDocument", side_effect=AssertionError("parsed")):
        assert load([DB_DOC], cache, True) == expected


def test_no_write_leaves_cache_untouched(tmp_path) -> None:
    cache = tmp_path / "cache"
    assert load([DB_DOC], cache_dir=cache, write_cache=False) == small_db()
    assert not cache.exists()


def test_malformed_document_is_never_cached(tmp_path) -> None:
    cache, good = cold_cache(tmp_path, [DB_DOC])
    bad = "eigen:\n  ubuntu: [1, 2]\n"
    for _ in range(2):
        with pytest.raises(MalformedDatabase):
            load([DB_DOC, bad], cache, True)
        assert cache_files(cache) == [good]
        assert list(cache.glob(".rosdep-*")) == []


def test_cache_key_covers_order_bytes_boundaries_and_os(tmp_path) -> None:
    override = "eigen:\n  ubuntu: [libeigen3-newer]\n"
    cache = tmp_path / "cache"
    variants = [
        [DB_DOC, override],
        [override, DB_DOC],
        [DB_DOC, override.replace("newer", "newes")],
        [DB_DOC + override],
    ]
    for n, documents in enumerate(variants, start=1):
        uncached = load(documents, None, True)
        assert load(documents, cache, True) == uncached
        assert len(cache_files(cache)) == n
    # The key names the one OS forge resolves for, so the file names stay stable.
    key = [f"rosdep/{ROSDEP_CACHE_FORMAT}", __version__, "ubuntu", DB_DOC, override]
    path = cache / f"rosdep-{cache_name(key)}.json"
    assert json.loads(path.read_bytes())["key"] == key
    # Reordered documents give a different database, and each is its own hit.
    with mock.patch("forge.depgraph.ComposedDocument", side_effect=AssertionError("parsed")):
        assert load([DB_DOC, override], cache, True).entries["eigen"].packages == (
            "libeigen3-newer",
        )
        assert load([override, DB_DOC], cache, True).entries["eigen"].packages == (
            "libeigen3-dev",
        )


def _colliding_cache(tmp_path: Path) -> tuple[Path, Path, bytes]:
    """A cache whose file for ``[DB_DOC]`` holds another database's key and records.

    That is what a CRC-32 collision, or a file copied from another cache,
    looks like: a well-formed file at the computed name.
    """

    other = "eigen:\n  ubuntu: [libeigen3-other]\n"
    cache, path = cold_cache(tmp_path, [DB_DOC])
    (other_path,) = cache_files(cold_cache(tmp_path / "other", [other])[0])
    path.write_bytes(other_path.read_bytes())
    return cache, path, other_path.read_bytes()


def test_cache_file_holding_another_key_is_a_rewritten_miss(tmp_path) -> None:
    cache, path, other = _colliding_cache(tmp_path)
    good = cold_cache(tmp_path / "good", [DB_DOC])[1].read_bytes()
    expected = small_db()
    with mock.patch("forge.depgraph.ComposedDocument", wraps=ComposedDocument) as composed:
        assert load([DB_DOC], cache, True) == expected
    assert composed.call_count == 1
    assert path.read_bytes() == good
    with mock.patch("forge.depgraph.ComposedDocument", side_effect=AssertionError("parsed")):
        assert load([DB_DOC], cache, True) == expected


def test_cache_file_holding_another_key_is_left_without_write_cache(tmp_path) -> None:
    cache, path, other = _colliding_cache(tmp_path)
    assert load([DB_DOC], cache, write_cache=False) == small_db()
    assert path.read_bytes() == other


def test_pure_python_yaml_fallback_matches_libyaml(monkeypatch) -> None:
    documents = packaged_rosdep_db()[0] + [DB_DOC]
    loaders = []
    # Record the class of every loader that is created, as the compose path
    # creates its loader directly rather than through yaml.load.
    for cls in {getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader}:

        def recording_init(self, stream, real_init=cls.__init__):
            loaders.append(type(self))
            real_init(self, stream)

        monkeypatch.setattr(cls, "__init__", recording_init)

    with_libyaml = load(documents, None, True)
    assert set(loaders) == {getattr(yaml, "CSafeLoader", yaml.SafeLoader)}

    loaders.clear()
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load(documents, None, True) == with_libyaml
    assert set(loaders) == {yaml.SafeLoader}


# --- compose-and-build-what-is-used loader ------------------------------------

_ROSDEP_KEYS = ["eigen", "boost", "tinyxml"]
_OS_NAMES = ["ubuntu", "debian", "fedora", "rhel", "arch"]
_UBUNTU_FORMS = ["ubuntu", "'ubuntu'", '"ubuntu"', "!!str ubuntu"]


@st.composite
def rosdep_texts(draw: st.DrawFn) -> str:
    """One rosdep document in block style, written out as text.

    Keys come from small pools, so both levels repeat keys; ``ubuntu`` is
    also written quoted and ``!!str``-tagged. Per-OS mappings and records
    may carry anchors that later nodes alias, and ``<<`` merges, integer
    keys and unhashable keys appear at both mapping levels. An unhashable
    per-OS key sits only in a mapping that no alias, merge or later
    duplicate key can hide, since forge builds no key of a mapping it does
    not use; every other value is one PyYAML's constructor accepts.
    """

    mappings: list[str] = []  # anchors of finished per-OS mappings
    records: list[str] = []  # anchors of finished records

    def merge() -> str:
        names = draw(st.lists(st.sampled_from(mappings), min_size=1, max_size=2))
        return "*" + names[0] if len(names) == 1 else "[" + ", ".join("*" + n for n in names) + "]"

    def record() -> str:
        kinds = ["list"] * 8 + ["pip"] * 4 + ["empty", "null", "scalar", "int-item"]
        kinds += ["record-alias"] * bool(records) + ["mapping-alias"] * bool(mappings)
        kind = draw(st.sampled_from(kinds))
        if kind == "record-alias":
            return "*" + draw(st.sampled_from(records))
        if kind == "mapping-alias":
            return "*" + draw(st.sampled_from(mappings))
        packages = draw(st.lists(st.sampled_from(["liba", "libb-dev", "pyc"]), min_size=1, max_size=2))
        text = {
            "list": "[" + ", ".join(packages) + "]",
            "empty": "[]",
            "pip": "{pip: {packages: [" + ", ".join(packages) + "]}}",
            "null": "~",
            "scalar": packages[0],
            "int-item": "[1]",
        }[kind]
        if kind in ("list", "pip") and draw(st.booleans()):
            records.append(f"r{len(records)}")
            text = f"&{records[-1]} {text}"
        return text

    def per_os_lines(used: bool) -> list[str]:
        lines = []
        for _ in range(draw(st.integers(1, 6))):
            kinds = ["os"] * 8 + ["ubuntu-form"] * 2 + ["int-key"] + ["unhashable-key"] * used
            kind = draw(st.sampled_from(kinds + ["merge"] * bool(mappings)))
            if kind == "merge":
                lines.append(f"  <<: {merge()}")
            elif kind == "unhashable-key":
                lines += ["  ? [ubuntu]", f"  : {record()}"]
            else:
                key = {
                    "os": lambda: draw(st.sampled_from(_OS_NAMES)),
                    "ubuntu-form": lambda: draw(st.sampled_from(_UBUNTU_FORMS)),
                    "int-key": lambda: "8",
                }[kind]()
                lines.append(f"  {key}: {record()}")
        return lines

    shape = draw(st.sampled_from(["mapping"] * 12 + ["empty", "null", "list"]))
    if shape != "mapping":
        return {"empty": "", "null": "~\n", "list": "- eigen\n"}[shape]
    lines = ["# generated rosdep document"]
    keys = draw(st.lists(st.sampled_from(_ROSDEP_KEYS), max_size=5))
    for n, name in enumerate(keys):
        kinds = ["per-os"] * 16 + ["null"] * 2 + ["scalar", "list", "int-key", "unhashable-key"]
        kinds += ["alias", "alias", "merge"] * bool(mappings)
        kind = draw(st.sampled_from(kinds))
        key = draw(st.sampled_from([name, f"'{name}'", f"!!str {name}"]))
        if kind == "merge":
            lines.append(f"<<: {merge()}")
        elif kind == "unhashable-key":
            lines += ["? [eigen]", ": ~"]
        elif kind == "int-key":
            lines.append("7: {ubuntu: [liba]}")
        elif kind == "per-os":
            anchor = draw(st.booleans())
            lines.append(f"{key}: &m{len(mappings)}" if anchor else f"{key}:")
            lines += per_os_lines(used=not anchor and name not in keys[n + 1 :])
            if anchor:
                mappings.append(f"m{len(mappings)}")
        else:
            value = {"null": "~", "scalar": "liba", "list": "[liba]"}.get(kind)
            lines.append(f"{key}: {value or '*' + draw(st.sampled_from(mappings))}")
    return "\n".join(lines) + "\n"


_LOADERS = sorted(
    {getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader}, key=lambda c: c.__name__
)


@pytest.mark.parametrize("loader", _LOADERS, ids=lambda cls: cls.__name__)
def test_loader_matches_the_whole_document_oracle(loader: type) -> None:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(rosdep_texts(), min_size=1, max_size=3))
    def same_outcome(documents: list[str]) -> None:
        try:
            expected = load_whole(documents, loader)
        except MalformedDatabase:
            expected = None
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            yaml, "CSafeLoader", loader, create=True
        ):
            try:
                db = load(documents, Path(tmp), True)
            except MalformedDatabase:
                assert expected is None, documents
                assert cache_files(Path(tmp)) == []
                return
            assert expected is not None, documents
            records, entries = expected
            assert list(db.entries.items()) == list(entries.items())
            (path,) = cache_files(Path(tmp))
            key = [f"rosdep/{ROSDEP_CACHE_FORMAT}", __version__, "ubuntu", *documents]
            stored = json.dumps({"key": key, "records": records}, separators=(",", ":"))
            assert path.read_text(encoding="utf-8") == stored

    same_outcome()


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ("eigen:\n  ubuntu: [1, 2]\n", "db.yaml:2:11: key 'eigen' lists a non-string package"),
        ('eigen:\n  ubuntu: ["libfoo\\nbar"]\n',
         "db.yaml:2:11: key 'eigen' has whitespace inside package 'libfoo\\nbar'"),
        ("eigen:\n  ubuntu: {pip: {packages: [libfoo bar]}}\n",
         "db.yaml:2:11: key 'eigen' has whitespace inside package 'libfoo bar'"),
        ("eigen:\n  ubuntu: [libfoo, -y]\n",
         "db.yaml:2:11: key 'eigen' lists package '-y', which starts with '-'"),
        ("eigen:\n  ubuntu: {pip: {packages: ['--index-url=https://evil.example/simple']}}\n",
         "db.yaml:2:11: key 'eigen' lists package '--index-url=https://evil.example/simple', "
         "which starts with '-'"),
        ("eigen:\n  ubuntu: ~\n", "db.yaml:2:11: key 'eigen' has an unsupported record shape"),
        ("eigen:\n  debian: [x]\n  ubuntu: [2020-13-45]\n",
         'db.yaml: not valid YAML: cannot construct a value: month must be in 1..12\n'
         '  in "db.yaml", line 3, column 12'),
        ("eigen: {ubuntu: [x], ? [a] : y}\n", "db.yaml: not valid YAML: while constructing a mapping"),
        ("eigen: {<<: [x]}\n", "db.yaml: not valid YAML: while constructing a mapping"),
    ],
    ids=["bad-item", "newline-in-name", "space-in-pip-name", "apt-option", "pip-option",
         "null-record", "bad-date",
         "unhashable-key", "bad-merge"],
)
def test_rosdep_errors_start_with_the_document_name(doc: str, message: str) -> None:
    with pytest.raises(MalformedDatabase) as caught:
        load_rosdep_db([DB_DOC, doc], ["base.yaml", "db.yaml"], None, True)
    assert str(caught.value).startswith(message)
    assert "<unicode string>" not in str(caught.value)


def test_values_outside_ubuntu_records_are_never_built() -> None:
    doc = (
        "eigen:\n  debian: !!int x\n  fedora: [2020-13-45]\n  ubuntu: [libeigen3-dev]\n"
        "boost:\n  debian: !!timestamp x\n"
    )
    # Building the whole document fails on the debian record.
    with pytest.raises(ValueError):
        load_whole([doc], getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert load([doc]).entries == {"eigen": RosdepEntry("system", ("libeigen3-dev",))}


def test_packaged_snapshot_is_named_by_its_resource_path() -> None:
    from importlib import resources

    documents, names = packaged_rosdep_db()
    resource = resources.files("forge.data").joinpath("rosdep/base.yaml")
    assert names == [str(resource)]
    assert documents == [resource.read_text("utf-8")]


def test_document_names_are_not_part_of_the_cache_key(tmp_path) -> None:
    cache, _ = cold_cache(tmp_path, [DB_DOC])
    expected = small_db()
    with mock.patch("forge.depgraph.ComposedDocument", side_effect=AssertionError("parsed")):
        assert load_rosdep_db([DB_DOC], ["elsewhere.yaml"], cache, True) == expected
