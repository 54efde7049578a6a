"""Fabricate index files as retired format versions wrote them.

Each helper rewrites a file the current writers produced, dropping the keys
and spec-JSON fields the named version did not have yet.  The readers refuse
such files; :func:`repro.index.migrate.migrate` (``gkmeans migrate``)
rewrites them at the current version.  Only unmutated indexes may be
downgraded below the version that introduced mutations: the dropped
``ids``/``tombstones`` then hold exactly the defaults migration restores.
"""

import json
import os

import numpy as np

from repro.index.sharded import MANIFEST_NAME

#: Keys each retired index-file version lacks: v1 predates online
#: mutations; v2 lacks the spec's ``quantize`` field; v1–v3 predate the
#: seed partition.
MONO_LACKS = {1: ("ids", "tombstones", "next_id", "generation",
                  "seed_labels"),
              2: ("seed_labels",), 3: ("seed_labels",)}

#: Keys each retired manifest version lacks: v1 predates routing, v2
#: networked serving, v3 online mutations; v4 differs from v5 only by the
#: spec's ``quantize`` field.
MANIFEST_LACKS = {
    1: ("centroids", "generation", "endpoints", "shard_generations",
        "next_id"),
    2: ("generation", "endpoints", "shard_generations", "next_id"),
    3: ("shard_generations", "next_id"),
    4: (),
    5: (),
}

#: Index-file version of the shard files each manifest version sat beside
#: (a current manifest beside retired shard files is written as "5").
SHARD_VERSION = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}


def _rewrite(path, version_key, version, drop, spec_drop):
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files
                   if key not in drop}
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


def write_manifest_version(directory, version):
    """Rewrite the sharded ``directory`` as manifest ``version`` wrote it,
    its shard files included."""
    spec_drop = {1: ("quantize", "shard_probe"), 5: ()}.get(version,
                                                        ("quantize",))
    _rewrite(os.path.join(directory, MANIFEST_NAME),
             "sharded_format_version", version, MANIFEST_LACKS[version],
             spec_drop)
    for name in os.listdir(directory):
        if name.startswith("shard_"):
            write_mono_version(os.path.join(directory, name),
                               SHARD_VERSION[version])


def directory_bytes(directory):
    """``{file name: bytes}`` of every file in ``directory``."""
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}
