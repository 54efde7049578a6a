"""Fabricate index files as retired format versions wrote them.

Each helper rewrites a file the current writers produced, dropping the keys
and spec-JSON fields the named version did not have yet.  The readers refuse
such files; :func:`repro.index.sharded.migrate` (``gkmeans migrate``)
rewrites them at the current version.  Only unmutated indexes may be
downgraded below the version that introduced mutations: the dropped
``ids``/``tombstones`` then hold exactly the defaults migration restores.

:func:`write_retired_metric` fabricates a current-version file saved under
a metric that no longer exists (``dot``, the inner product), which every
reader must refuse.  :func:`write_retired_params` fabricates one whose
``gkmeans`` spec still names construction params that are now fixed, which
every reader must drop.  :func:`write_retired_serving_fields` fabricates
one whose spec still carries a retired serving setting (``symmetrize``, or
``quantize: "float16"``), which every reader maps to the kept setting.

Manifests before v6 kept the id map — every shard's global row ids,
``shard_ids`` split by ``shard_offsets`` — and their shard files held
positional ids; a retired directory is written that way.
"""

import json
import os

import numpy as np

from repro.index.facade import FORMAT_VERSION
from repro.index.sharded import MANIFEST_NAME

#: Every spelling the retired inner-product metric was accepted under
#: (metric names are case-insensitive, hence one upper-case entry).
RETIRED_METRIC_SPELLINGS = ("dot", "ip", "inner-product", "inner_product",
                            "MIPS")

#: ``gkmeans`` params a spec could carry before they became fixed: the
#: two-means tree's bisection routine and Alg. 3's block cap (the 4·ξ it
#: defaulted to for ``cluster_size=10``).
RETIRED_GKMEANS_PARAMS = {"bisection": "lloyd", "max_block": 40}

#: Spec fields of the retired serving settings, one saved spec's worth
#: each: the directed search graph (and the redundant symmetrized flag)
#: and the float16 code family.
RETIRED_SERVING_FIELDS = ({"symmetrize": False}, {"symmetrize": True},
                          {"quantize": "float16"})

#: Keys each retired index-file version lacks: v1 predates online
#: mutations; v2 lacks the spec's ``quantize`` field; v1–v3 predate the
#: seed partition.
MONO_LACKS = {1: ("ids", "tombstones", "next_id", "generation",
                  "seed_labels"),
              2: ("seed_labels",), 3: ("seed_labels",)}

#: Keys each retired manifest version lacks: v1 predates routing, v2
#: networked serving, v3 online mutations; v4 differs from v5 only by the
#: spec's ``quantize`` field, v5 from v6 only by keeping the id map.
MANIFEST_LACKS = {
    1: ("centroids", "generation", "endpoints", "shard_generations",
        "next_id"),
    2: ("generation", "endpoints", "shard_generations", "next_id"),
    3: ("shard_generations", "next_id"),
    4: (),
    5: (),
}

#: Index-file version of the shard files each manifest version sat beside
#: by default (v5 manifests sat beside v3 and v4 shard files).
SHARD_VERSION = {1: 1, 2: 1, 3: 1, 4: 2, 5: 4}


def _rewrite(path, version_key, version, drop, spec_drop, extra=None):
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files
                   if key not in drop}
    payload.update(extra or {})
    payload[version_key] = np.int64(version)
    spec = json.loads(str(payload["spec_json"]))
    for key in spec_drop:
        spec.pop(key, None)
    payload["spec_json"] = np.asarray(json.dumps(spec, sort_keys=True))
    with open(path, "wb") as stream:
        np.savez(stream, **payload)


def write_mono_version(path, version):
    """Rewrite the index file at ``path`` as format ``version`` wrote it."""
    _rewrite(path, "format_version", version, MONO_LACKS[version],
             ("quantize",) if version < 3 else ())


def _positional_ids(path):
    """Give the shard file at ``path`` positional ids; returns the global
    ids it held."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    ids = payload["ids"]
    payload["ids"] = np.arange(ids.size, dtype=np.int64)
    payload["next_id"] = np.int64(ids.size)
    with open(path, "wb") as stream:
        np.savez(stream, **payload)
    return ids


def write_manifest_version(directory, version, shard_version=None):
    """Rewrite the sharded ``directory`` as manifest ``version`` wrote it,
    its shard files included (at index-file ``shard_version``, by default
    :data:`SHARD_VERSION`'s)."""
    if shard_version is None:
        shard_version = SHARD_VERSION[version]
    names = sorted(name for name in os.listdir(directory)
                   if name.startswith("shard_"))
    shard_ids = [_positional_ids(os.path.join(directory, name))
                 for name in names]
    spec_drop = {1: ("quantize", "shard_probe"), 5: ()}.get(version,
                                                        ("quantize",))
    _rewrite(os.path.join(directory, MANIFEST_NAME),
             "sharded_format_version", version, MANIFEST_LACKS[version],
             spec_drop, extra={
                 "shard_ids": np.concatenate(shard_ids),
                 "shard_offsets": np.cumsum(
                     [0] + [ids.size for ids in shard_ids]).astype(np.int64)})
    if shard_version < FORMAT_VERSION:
        for name in names:
            write_mono_version(os.path.join(directory, name), shard_version)


def write_retired_metric(path, metric):
    """Rewrite the index file or manifest at ``path`` as it was saved under
    the retired inner-product ``metric`` (any spelling): the spec names it,
    and an index file's graph names it and holds no norms, which that
    metric did not use."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files
                   if key != "norms"}
    spec = json.loads(str(payload["spec_json"]))
    spec["metric"] = metric
    payload["spec_json"] = np.asarray(json.dumps(spec, sort_keys=True))
    if "graph_metric" in payload:
        payload["graph_metric"] = np.asarray("dot")
    with open(path, "wb") as stream:
        np.savez(stream, **payload)


def write_retired_params(path, params=RETIRED_GKMEANS_PARAMS):
    """Rewrite the index file or manifest at ``path`` as a release that
    still accepted ``params`` saved it: its spec's params carry them."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    spec = json.loads(str(payload["spec_json"]))
    spec["params"] = {**spec["params"], **params}
    payload["spec_json"] = np.asarray(json.dumps(spec, sort_keys=True))
    with open(path, "wb") as stream:
        np.savez(stream, **payload)


def write_retired_serving_fields(path, fields):
    """Rewrite the index file or manifest at ``path`` as a release that
    still had the serving settings ``fields`` saved it: its spec carries
    them, and an index file carries the squared row norms that release
    saved beside its data."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    spec = json.loads(str(payload["spec_json"]))
    spec.update(fields)
    payload["spec_json"] = np.asarray(json.dumps(spec, sort_keys=True))
    if "data" in payload:
        payload["norms"] = np.einsum("ij,ij->i", payload["data"],
                                     payload["data"])
    with open(path, "wb") as stream:
        np.savez(stream, **payload)


def directory_bytes(directory):
    """``{file name: bytes}`` of every file in ``directory``."""
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}
