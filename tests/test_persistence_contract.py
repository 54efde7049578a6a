"""Reader contract of the two on-disk formats, and ``gkmeans migrate``.

Each format has one reader that takes only the version the writers emit.
Every hostile input — truncation at several offsets, one flipped byte, each
required key missing, non-scalar counters, float id arrays, a version from
the future and every retired version — must raise ``ValidationError``
(never a ``TypeError``, a ``BadZipFile`` or a silently truncated id) from
every entry point that reads the damaged format:

* index-file cases through ``Index.load`` (of the file itself, and of the
  directory whose shard 0 it is) and ``load_shard_for_serving`` (the file
  itself, and the directory);
* manifest cases through ``Index.load``, ``load_shard_for_serving`` and
  ``Rebalancer.inspect``.

Files of retired versions, fabricated by ``_legacy_formats``, must migrate
to an index serving bit for bit what the original served, and a second
``migrate`` must leave every file untouched.  Files saved under the retired
inner-product metric, whichever of its spellings names it, are refused by
every reader and by ``migrate``, naming the metrics that remain.  Files
whose ``gkmeans`` spec names the retired construction params ``bisection``
and ``max_block`` load without them and serve what they served.  So do
files whose spec names a retired serving setting — ``symmetrize`` or
``quantize: "float16"`` — served under the kept one (the symmetrized graph,
exact kernels), with the dataset norms they carry ignored.
"""

import json
import os
import shutil

import numpy as np
import pytest
from _legacy_formats import (
    RETIRED_GKMEANS_PARAMS,
    RETIRED_METRIC_SPELLINGS,
    RETIRED_SERVING_FIELDS,
    directory_bytes,
    write_manifest_version,
    write_mono_version,
    write_retired_metric,
    write_retired_params,
    write_retired_serving_fields,
)

from repro.cli import main
from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ValidationError
from repro.graph import brute_force_knn_graph
from repro.index import (
    Index,
    IndexSpec,
    Rebalancer,
)
from repro.index.facade import FORMAT_VERSION
from repro.index.sharded import (
    MANIFEST_NAME,
    SHARDED_FORMAT_VERSION,
    migrate,
    read_manifest,
)
from repro.net import load_shard_for_serving
from repro.search import GraphSearcher, evaluate_search


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(260, 8, random_state=11)
    return train_query_split(data, 20, random_state=11)


@pytest.fixture(scope="module")
def saved(corpus, tmp_path_factory):
    """A saved single-file index and a saved 3-shard gkmeans directory."""
    base, _ = corpus
    root = tmp_path_factory.mktemp("saved")
    spec = IndexSpec(backend="bruteforce", n_neighbors=6, random_state=3)
    mono = root / "mono.idx"
    with Index.build(base, spec) as index:
        index.save(mono)
    directory = root / "corpus.shards"
    with Index.build(base, spec.replace(
            n_shards=3, partitioner="gkmeans")) as sharded:
        sharded.save(directory)
    return mono, directory


# --------------------------------------------------------------------- #
# Damage
# --------------------------------------------------------------------- #
def _truncated(keep):
    """Cut the file to ``keep(size)`` bytes."""
    def damage(path):
        raw = path.read_bytes()
        path.write_bytes(raw[:keep(len(raw))])
    return damage


def _flipped(path):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _rewritten(key, change):
    """Rewrite one key: ``change(array or None)`` replaces (or adds) it,
    ``None`` drops it."""
    def damage(path):
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        if change is None:
            del payload[key]
        else:
            payload[key] = change(payload.get(key))
        with open(path, "wb") as stream:
            np.savez(stream, **payload)
    return damage


def _cases(version_key, current, required, counters, floats):
    cases = {
        "truncated-empty": _truncated(lambda size: 0),
        "truncated-30-bytes": _truncated(lambda size: 30),
        "truncated-half": _truncated(lambda size: size // 2),
        "truncated-last-byte": _truncated(lambda size: size - 1),
        "flipped-byte": _flipped,
        "version-99": _rewritten(version_key, lambda _: np.int64(99)),
    }
    for version in range(1, current):
        cases[f"retired-version-{version}"] = _rewritten(
            version_key, lambda _, version=version: np.int64(version))
    for key in required:
        cases[f"missing-{key}"] = _rewritten(key, None)
    for key in counters:
        cases[f"non-scalar-{key}"] = _rewritten(
            key, lambda value: np.array([value, value]))
    for key, change in floats.items():
        cases[f"float-{key}"] = _rewritten(key, change)
    return cases


INDEX_CASES = {
    **_cases(
        "format_version", FORMAT_VERSION,
        required=("format_version", "spec_json", "data", "graph_indices",
                  "graph_metric", "ids", "tombstones", "next_id",
                  "generation", "seed_labels"),
        counters=("format_version", "next_id", "generation"),
        # Fractional ids were silently truncated to integers.
        floats={"ids": lambda ids: ids + 0.5,
                "seed_labels": lambda labels: labels.astype(np.float64)}),
    "short-seed_labels": _rewritten("seed_labels", lambda labels: labels[1:]),
    "negative-seed_label": _rewritten(
        "seed_labels", lambda labels: np.where(labels == labels[0], -1,
                                               labels)),
    "out-of-range-seed_label": _rewritten(
        "seed_labels", lambda labels: labels + labels.size),
}

MANIFEST_CASES = {
    **_cases(
        "sharded_format_version", SHARDED_FORMAT_VERSION,
        required=("sharded_format_version", "spec_json", "generation",
                  "shard_generations", "next_id"),
        counters=("sharded_format_version", "generation", "next_id"),
        floats={"shard_generations":
                lambda generations: generations + 0.5}),
    "short-shard_generations": _rewritten(
        "shard_generations", lambda generations: generations[1:]),
    # Version 6 moved the id map into the shard files.
    "retired-id-map": _rewritten(
        "shard_ids", lambda _: np.arange(3, dtype=np.int64)),
}


# --------------------------------------------------------------------- #
# Readers
# --------------------------------------------------------------------- #
def _inspect(directory):
    """``Rebalancer.inspect`` with no endpoints configured: it reads the
    manifest first and only then refuses for want of endpoints."""
    try:
        Rebalancer(directory).inspect()
    except ValidationError as exc:
        if "no endpoints configured" not in str(exc):
            raise
    return "manifest accepted"


def _index_file_readers(directory):
    shard_file = directory / "shard_0000.idx"
    return {
        "Index.load": lambda: Index.load(shard_file),
        "Index.load(directory)": lambda: Index.load(directory),
        "load_shard_for_serving(file)":
            lambda: load_shard_for_serving(shard_file),
        "load_shard_for_serving(directory)":
            lambda: load_shard_for_serving(directory, 0),
    }


def _manifest_readers(directory):
    return {
        "Index.load(directory)": lambda: Index.load(directory),
        "load_shard_for_serving": lambda: load_shard_for_serving(directory),
        "Rebalancer.inspect": lambda: _inspect(directory),
    }


def _copy(saved, tmp_path):
    directory = tmp_path / "copy.shards"
    shutil.copytree(saved[1], directory)
    return directory


def _release(result):
    if isinstance(result, tuple):
        result = result[0]
    if hasattr(result, "close"):
        result.close()


class TestReaderContract:
    def test_undamaged_files_pass_every_reader(self, saved, tmp_path):
        """The control: the refusals below are the damage's doing."""
        directory = _copy(saved, tmp_path)
        readers = {**_index_file_readers(directory),
                   **_manifest_readers(directory)}
        for read in readers.values():
            _release(read())

    @pytest.mark.parametrize("case", sorted(INDEX_CASES))
    def test_hostile_index_file_raises_validation_error(self, saved,
                                                        tmp_path, case):
        directory = _copy(saved, tmp_path)
        INDEX_CASES[case](directory / "shard_0000.idx")
        _assert_refused(_index_file_readers(directory))

    @pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
    def test_hostile_manifest_raises_validation_error(self, saved, tmp_path,
                                                      case):
        directory = _copy(saved, tmp_path)
        MANIFEST_CASES[case](directory / MANIFEST_NAME)
        _assert_refused(_manifest_readers(directory))

    @pytest.mark.parametrize("target", ["shard_0000.idx", MANIFEST_NAME])
    def test_seeded_damage_anywhere_raises_nothing_else(self, saved,
                                                        tmp_path, target):
        """Truncations and bit flips at seeded offsets across the whole
        file: each reader serves (a flip in a zip timestamp is harmless)
        or raises ValidationError — no other exception escapes."""
        rng = np.random.default_rng(7)
        directory = _copy(saved, tmp_path)
        pristine = (directory / target).read_bytes()
        readers = {**_index_file_readers(directory),
                   **_manifest_readers(directory)}
        for trial in range(40):
            raw = bytearray(pristine)
            if trial % 2:
                raw = raw[:rng.integers(len(raw))]
            else:
                raw[rng.integers(len(raw))] ^= 1 << int(rng.integers(8))
            (directory / target).write_bytes(bytes(raw))
            for read in readers.values():
                try:
                    _release(read())
                except ValidationError:
                    pass

    @pytest.mark.parametrize("cases,version", [
        (INDEX_CASES, FORMAT_VERSION), (MANIFEST_CASES,
                                        SHARDED_FORMAT_VERSION)])
    def test_retired_versions_are_told_to_migrate(self, saved, tmp_path,
                                                  cases, version):
        directory = _copy(saved, tmp_path)
        damaged = directory / ("shard_0000.idx" if cases is INDEX_CASES
                               else MANIFEST_NAME)
        cases["retired-version-1"](damaged)
        with pytest.raises(ValidationError,
                           match=f"format version 1 is no longer read — "
                                 f"run `gkmeans migrate .*` to rewrite it "
                                 f"at version {version}"):
            Index.load(directory)


def _assert_refused(readers):
    for name, read in readers.items():
        try:
            result = read()
        except ValidationError:
            continue
        except Exception as exc:
            pytest.fail(f"{name} raised {type(exc).__name__}, not "
                        f"ValidationError: {exc}")
        _release(result)
        pytest.fail(f"{name} accepted the damaged file")


# --------------------------------------------------------------------- #
# Migration
# --------------------------------------------------------------------- #
def _snapshot(path):
    """Everything a rewrite would change: inode, mtime and bytes."""
    stat = os.stat(path)
    content = (directory_bytes(path) if os.path.isdir(path)
               else path.read_bytes())
    return stat.st_ino, stat.st_mtime_ns, content


class TestMigrate:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_retired_index_file_migrates(self, saved, corpus, tmp_path,
                                         version):
        _, queries = corpus
        path = tmp_path / "old.idx"
        shutil.copyfile(saved[0], path)
        with Index.load(path) as original:
            expected = original.search(queries, 8)
            write_mono_version(path, version)
            with pytest.raises(ValidationError, match="gkmeans migrate"):
                Index.load(path)
            assert migrate(path)
            with Index.load(path) as migrated:
                got = migrated.search(queries, 8)
                assert migrated.spec == original.spec
                assert migrated.generation == original.generation == 0
                assert np.array_equal(migrated.ids, original.ids)
                assert migrated.n_tombstones == 0
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        snapshot = _snapshot(path)
        assert not migrate(path)
        assert _snapshot(path) == snapshot

    @pytest.mark.parametrize("version,shard_version", [
        (1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (5, 4)])
    def test_retired_directory_migrates(self, saved, corpus, tmp_path,
                                        version, shard_version):
        """The manifest's id map moves into the shard files: each shard
        (and a daemon serving it alone) answers in global ids again."""
        _, queries = corpus
        path = _copy(saved, tmp_path)
        with Index.load(path) as original:
            expected = original.search(queries, 8)
            write_manifest_version(path, version, shard_version)
            with np.load(path / "shard_0001.idx") as archive:
                if "ids" in archive.files:
                    assert np.array_equal(archive["ids"], np.arange(
                        original.shards[1].n_rows))
            with pytest.raises(ValidationError, match="gkmeans migrate"):
                Index.load(path)
            with pytest.raises(ValidationError, match="gkmeans migrate"):
                load_shard_for_serving(path, 1)
            assert migrate(path)
            with Index.load(path) as migrated:
                got = migrated.search(queries, 8)
                assert migrated.spec == original.spec
                assert migrated.generation == original.generation
                assert migrated.shard_generations \
                    == original.shard_generations
                assert np.array_equal(migrated.ids, original.ids)
                for before, after in zip(original.shards, migrated.shards):
                    assert np.array_equal(after.ids, before.ids)
                # Only version 1 predates the routing centroids.
                assert (migrated.centroids is None) == (version == 1)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        snapshot = _snapshot(path)
        assert not migrate(path)
        assert _snapshot(path) == snapshot

    @pytest.mark.parametrize("backend", ["gkmeans", "bruteforce"])
    def test_seed_partition_round_trips_after_mutations(self, corpus,
                                                        tmp_path, backend):
        """Inserts extend the seed partition and compaction keeps one; a
        save -> load serves bitwise what the in-memory index served."""
        base, queries = corpus
        index = Index.build(base[:180], IndexSpec(
            backend=backend, n_neighbors=6, random_state=3))
        for step in ("insert", "compact"):
            if step == "insert":
                index.insert(base[180:])
            else:
                index.delete(index.ids[::3])
                index.compact()
            path = tmp_path / f"{step}.idx"
            index.save(path)
            expected = index.search(queries, 8)
            with Index.load(path) as restored:
                assert np.array_equal(restored.seed_labels,
                                      index.seed_labels)
                got = restored.search(queries, 8)
                assert np.array_equal(got.evaluations, expected.evaluations)
            assert got[0].tobytes() == expected[0].tobytes(), step
            assert got[1].tobytes() == expected[1].tobytes(), step
        index.close()

    @pytest.mark.parametrize("damage", [
        lambda offsets: offsets[:-1],
        lambda offsets: offsets + (np.arange(offsets.size) == 1)])
    def test_migrate_refuses_an_id_map_that_does_not_fit(self, saved,
                                                          tmp_path, damage):
        directory = _copy(saved, tmp_path)
        write_manifest_version(directory, 5)
        _rewritten("shard_offsets", damage)(directory / MANIFEST_NAME)
        snapshot = _snapshot(directory)
        with pytest.raises(ValidationError, match="shard"):
            migrate(directory)
        assert _snapshot(directory) == snapshot

    def test_current_files_are_left_untouched(self, saved, tmp_path):
        directory = _copy(saved, tmp_path)
        mono = tmp_path / "mono.idx"
        shutil.copyfile(saved[0], mono)
        for path in (mono, directory):
            snapshot = _snapshot(path)
            assert not migrate(path)
            assert _snapshot(path) == snapshot

    @pytest.mark.parametrize("case", ["version-99", "truncated-half",
                                      "missing-spec_json"])
    def test_migrate_refuses_what_no_version_describes(self, saved,
                                                       tmp_path, case):
        directory = _copy(saved, tmp_path)
        MANIFEST_CASES[case](directory / MANIFEST_NAME)
        snapshot = _snapshot(directory)
        with pytest.raises(ValidationError):
            migrate(directory)
        assert _snapshot(directory) == snapshot

    def test_cli_migrate(self, saved, tmp_path, capsys):
        directory = _copy(saved, tmp_path)
        write_manifest_version(directory, 3)
        assert main(["migrate", str(directory)]) == 0
        assert "migrated" in capsys.readouterr().out
        assert main(["migrate", str(directory)]) == 0
        assert "nothing to do" in capsys.readouterr().out
        MANIFEST_CASES["truncated-half"](directory / MANIFEST_NAME)
        assert main(["migrate", str(directory)]) == 2
        captured = capsys.readouterr()
        error = captured.err.strip()
        assert captured.out == ""
        assert error.startswith("error:") and "\n" not in error


# --------------------------------------------------------------------- #
# The retired inner-product metric
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cosine_saved(corpus, tmp_path_factory):
    """A saved cosine single-file index and 2-shard gkmeans directory."""
    base, _ = corpus
    root = tmp_path_factory.mktemp("cosine")
    spec = IndexSpec(backend="bruteforce", n_neighbors=6, metric="cosine",
                     random_state=3)
    mono = root / "mono.idx"
    with Index.build(base, spec) as index:
        index.save(mono)
    directory = root / "corpus.shards"
    with Index.build(base, spec.replace(
            n_shards=2, partitioner="gkmeans")) as sharded:
        sharded.save(directory)
    return mono, directory


@pytest.fixture(scope="module", params=RETIRED_METRIC_SPELLINGS)
def retired(request, cosine_saved, tmp_path_factory):
    """The cosine index and directory, rewritten as the retired inner-product
    metric saved them under one of its spellings."""
    root = tmp_path_factory.mktemp("retired")
    mono = root / "mono.idx"
    shutil.copyfile(cosine_saved[0], mono)
    write_retired_metric(mono, request.param)
    directory = root / "corpus.shards"
    shutil.copytree(cosine_saved[1], directory)
    for name in (MANIFEST_NAME, "shard_0000.idx", "shard_0001.idx"):
        write_retired_metric(directory / name, request.param)
    return mono, directory


RETIRED_READERS = {
    "Index.load": lambda mono, directory: Index.load(mono),
    "Index.load(shard)":
        lambda mono, directory: Index.load(directory / "shard_0001.idx"),
    "read_manifest": lambda mono, directory: read_manifest(directory),
    "Index.load(directory)": lambda mono, directory: Index.load(directory),
    "load_shard_for_serving(file)":
        lambda mono, directory: load_shard_for_serving(mono),
    "load_shard_for_serving(directory)":
        lambda mono, directory: load_shard_for_serving(directory, 1),
    "migrate(file)": lambda mono, directory: migrate(mono),
    "migrate(directory)": lambda mono, directory: migrate(directory),
}


class TestRetiredMetric:
    @pytest.mark.parametrize("reader", sorted(RETIRED_READERS))
    def test_every_reader_refuses_and_names_the_metrics(self, retired,
                                                        reader):
        snapshots = [_snapshot(path) for path in retired]
        with pytest.raises(ValidationError,
                           match=r"\['cosine', 'sqeuclidean'\]"):
            _release(RETIRED_READERS[reader](*retired))
        assert [_snapshot(path) for path in retired] == snapshots

    @pytest.mark.parametrize("command", ["search", "migrate"])
    @pytest.mark.parametrize("target", ["file", "directory"])
    def test_cli_exits_2_with_one_line(self, retired, capsys, command,
                                       target):
        path = retired[0] if target == "file" else retired[1]
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        error = captured.err.strip()
        assert captured.out == ""
        assert error.startswith("error:") and "\n" not in error
        assert "Traceback" not in error
        assert "['cosine', 'sqeuclidean']" in error


# --------------------------------------------------------------------- #
# The retired gkmeans construction params
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def gkmeans_saved(corpus, tmp_path_factory):
    """A saved gkmeans single-file index and 2-shard directory."""
    base, _ = corpus
    root = tmp_path_factory.mktemp("gkmeans")
    spec = IndexSpec(backend="gkmeans", n_neighbors=6, random_state=3,
                     params={"tau": 2, "cluster_size": 10})
    mono = root / "mono.idx"
    with Index.build(base, spec) as index:
        index.save(mono)
    directory = root / "corpus.shards"
    with Index.build(base, spec.replace(
            n_shards=2, partitioner="gkmeans")) as sharded:
        sharded.save(directory)
    return mono, directory


def _spec_params(path):
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(str(archive["spec_json"]))["params"]


class TestRetiredParams:
    def test_index_file_loads_without_them(self, gkmeans_saved, corpus,
                                           tmp_path):
        _, queries = corpus
        path = tmp_path / "old.idx"
        shutil.copyfile(gkmeans_saved[0], path)
        write_retired_params(path)
        assert RETIRED_GKMEANS_PARAMS.items() <= _spec_params(path).items()
        with Index.load(gkmeans_saved[0]) as original, \
                Index.load(path) as loaded:
            assert loaded.spec == original.spec
            expected, got = original.search(queries, 8), \
                loaded.search(queries, 8)
            loaded.save(tmp_path / "resaved.idx")
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        assert _spec_params(tmp_path / "resaved.idx") \
            == _spec_params(gkmeans_saved[0])

    def test_directory_loads_without_them(self, gkmeans_saved, corpus,
                                          tmp_path):
        _, queries = corpus
        directory = tmp_path / "old.shards"
        shutil.copytree(gkmeans_saved[1], directory)
        for name in (MANIFEST_NAME, "shard_0000.idx", "shard_0001.idx"):
            write_retired_params(directory / name)
        with Index.load(gkmeans_saved[1]) as original, \
                Index.load(directory) as loaded:
            assert loaded.spec == original.spec
            expected, got = original.search(queries, 8), \
                loaded.search(queries, 8)
            loaded.save(tmp_path / "resaved.shards")
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        for name in (MANIFEST_NAME, "shard_0000.idx", "shard_0001.idx"):
            assert _spec_params(tmp_path / "resaved.shards" / name) \
                == _spec_params(gkmeans_saved[1] / name)

    @pytest.mark.parametrize("key", sorted(RETIRED_GKMEANS_PARAMS))
    def test_a_spec_built_in_code_refuses_them(self, key):
        with pytest.raises(ValidationError, match=r"accepted: \["):
            IndexSpec(params={key: RETIRED_GKMEANS_PARAMS[key]})

    def test_other_backends_keep_refusing_them(self):
        payload = IndexSpec(backend="nndescent").to_dict()
        payload["params"] = dict(RETIRED_GKMEANS_PARAMS)
        with pytest.raises(ValidationError, match="accepted"):
            IndexSpec.from_dict(payload)


# --------------------------------------------------------------------- #
# The retired serving settings
# --------------------------------------------------------------------- #
def _spec_json(path):
    with np.load(path, allow_pickle=False) as archive:
        return json.loads(str(archive["spec_json"]))


def _fields_id(fields):
    return "-".join(f"{key}={value}" for key, value in fields.items())


def _saved_norms(path):
    """The squared row norms an earlier release saved beside the data."""
    with np.load(path, allow_pickle=False) as archive:
        data = archive["data"]
    return np.einsum("ij,ij->i", data, data)


_TAMPERED_NORMS = {
    "reversed": lambda norms: norms[::-1].copy(),
    "truncated": lambda norms: norms[:10],
    "nan": lambda norms: np.full_like(norms, np.nan),
}

#: Every call spelled with a retired serving keyword, by name.
_RETIRED_KEYWORD_CALLS = {
    "IndexSpec(symmetrize=)": lambda base, queries, graph, spec: IndexSpec(
        symmetrize=True),
    "IndexSpec.replace(symmetrize=)":
        lambda base, queries, graph, spec: spec.replace(symmetrize=False),
    "Index.build(symmetrize=)": lambda base, queries, graph, spec:
        Index.build(base, backend="bruteforce", symmetrize=True),
    "GraphSearcher(symmetrize=)": lambda base, queries, graph, spec:
        GraphSearcher(base, graph, symmetrize=True),
    "GraphSearcher(data_norms=)": lambda base, queries, graph, spec:
        GraphSearcher(base, graph, data_norms=np.ones(len(base))),
    "Index(norms=)": lambda base, queries, graph, spec: Index(
        base, graph, spec, norms=np.ones(len(base))),
    "KNNGraph.adjacency(True)": lambda base, queries, graph, spec:
        graph.adjacency(True),
    "KNNGraph.adjacency(False)": lambda base, queries, graph, spec:
        graph.adjacency(False),
    "evaluate_search(batch=True)": lambda base, queries, graph, spec:
        evaluate_search(Index(base, graph, spec), queries, n_results=3,
                        batch=True),
    "evaluate_search(batch=False)": lambda base, queries, graph, spec:
        evaluate_search(Index(base, graph, spec), queries, n_results=3,
                        batch=False),
}


class TestRetiredServingFields:
    @pytest.mark.parametrize("fields", RETIRED_SERVING_FIELDS, ids=_fields_id)
    def test_index_file_serves_the_kept_setting(self, gkmeans_saved, corpus,
                                                tmp_path, fields):
        _, queries = corpus
        path = tmp_path / "old.idx"
        shutil.copyfile(gkmeans_saved[0], path)
        write_retired_serving_fields(path, fields)
        assert fields.items() <= _spec_json(path).items()
        with Index.load(gkmeans_saved[0]) as original, \
                Index.load(path) as loaded:
            assert loaded.spec == original.spec
            expected, got = original.search(queries, 8), \
                loaded.search(queries, 8)
            loaded.save(tmp_path / "resaved.idx")
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        assert _spec_json(tmp_path / "resaved.idx") \
            == _spec_json(gkmeans_saved[0])
        with np.load(tmp_path / "resaved.idx") as archive:
            assert "norms" not in archive.files

    @pytest.mark.parametrize("fields", RETIRED_SERVING_FIELDS, ids=_fields_id)
    def test_directory_serves_the_kept_setting(self, gkmeans_saved, corpus,
                                               tmp_path, fields):
        _, queries = corpus
        directory = tmp_path / "old.shards"
        shutil.copytree(gkmeans_saved[1], directory)
        names = (MANIFEST_NAME, "shard_0000.idx", "shard_0001.idx")
        for name in names:
            write_retired_serving_fields(directory / name, fields)
        with Index.load(gkmeans_saved[1]) as original, \
                Index.load(directory) as loaded:
            assert loaded.spec == original.spec
            expected, got = original.search(queries, 8), \
                loaded.search(queries, 8)
            loaded.save(tmp_path / "resaved.shards")
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        for name in names:
            resaved = _spec_json(tmp_path / "resaved.shards" / name)
            assert "symmetrize" not in resaved
            assert resaved == _spec_json(gkmeans_saved[1] / name)

    @pytest.mark.parametrize("fields", RETIRED_SERVING_FIELDS, ids=_fields_id)
    def test_shard_server_serves_the_kept_setting(self, gkmeans_saved, corpus,
                                                  tmp_path, fields):
        _, queries = corpus
        directory = tmp_path / "old.shards"
        shutil.copytree(gkmeans_saved[1], directory)
        for name in (MANIFEST_NAME, "shard_0000.idx", "shard_0001.idx"):
            write_retired_serving_fields(directory / name, fields)
        for shard in (0, 1):
            original, *_ = load_shard_for_serving(gkmeans_saved[1], shard)
            loaded, shard_id, generation, n_shards = \
                load_shard_for_serving(directory, shard)
            with original, loaded:
                assert (shard_id, n_shards) == (shard, 2)
                assert generation == original.generation
                assert loaded.spec == original.spec
                expected, got = original.search(queries, 5), \
                    loaded.search(queries, 5)
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()

    @pytest.mark.parametrize("fields", RETIRED_SERVING_FIELDS, ids=_fields_id)
    def test_retired_index_file_migrates_without_them(self, saved, corpus,
                                                      tmp_path, fields):
        """A format-3 file — the first with a ``quantize`` field — that
        carries a retired setting migrates to the kept one."""
        _, queries = corpus
        path = tmp_path / "old.idx"
        shutil.copyfile(saved[0], path)
        write_mono_version(path, 3)
        write_retired_serving_fields(path, fields)
        assert migrate(path)
        with Index.load(saved[0]) as original, Index.load(path) as migrated:
            assert migrated.spec == original.spec
            expected, got = original.search(queries, 8), \
                migrated.search(queries, 8)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        assert _spec_json(path) == _spec_json(saved[0])
        with np.load(path) as archive:
            assert "norms" not in archive.files

    @pytest.mark.parametrize("fields", RETIRED_SERVING_FIELDS, ids=_fields_id)
    def test_retired_directory_migrates_without_them(self, saved, corpus,
                                                     tmp_path, fields):
        _, queries = corpus
        directory = _copy(saved, tmp_path)
        write_manifest_version(directory, 5, 4)
        names = sorted(os.listdir(directory))
        for name in names:
            write_retired_serving_fields(directory / name, fields)
        assert migrate(directory)
        with Index.load(saved[1]) as original, \
                Index.load(directory) as migrated:
            assert migrated.spec == original.spec
            expected, got = original.search(queries, 8), \
                migrated.search(queries, 8)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        for name in names:
            assert _spec_json(directory / name) \
                == _spec_json(saved[1] / name)

    @pytest.mark.parametrize("tamper", ["reversed", "truncated", "nan"])
    def test_directory_ignores_saved_norms(self, gkmeans_saved, corpus,
                                           tmp_path, tamper):
        """Shard files carrying an earlier release's ``norms`` copy that
        disagrees with their rows serve what the untampered directory
        serves, through the loader and through the shard server."""
        _, queries = corpus
        directory = tmp_path / "norms.shards"
        shutil.copytree(gkmeans_saved[1], directory)
        for name in ("shard_0000.idx", "shard_0001.idx"):
            bad = _TAMPERED_NORMS[tamper](_saved_norms(directory / name))
            _rewritten("norms", lambda _: bad)(directory / name)
        with Index.load(gkmeans_saved[1]) as original, \
                Index.load(directory) as loaded:
            expected, got = original.search(queries, 8), \
                loaded.search(queries, 8)
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tobytes() == expected[1].tobytes()
        served, *_ = load_shard_for_serving(directory, 1)
        original, *_ = load_shard_for_serving(gkmeans_saved[1], 1)
        with served, original:
            assert served.search(queries, 8)[1].tobytes() \
                == original.search(queries, 8)[1].tobytes()

    @pytest.mark.parametrize("call", sorted(_RETIRED_KEYWORD_CALLS))
    def test_retired_keywords_raise_type_error(self, corpus, call):
        base, queries = corpus
        graph = brute_force_knn_graph(base, 6)
        spec = IndexSpec(backend="bruteforce", n_neighbors=6)
        with pytest.raises(TypeError):
            _RETIRED_KEYWORD_CALLS[call](base, queries, graph, spec)
