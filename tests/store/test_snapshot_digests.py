"""Snapshot-v1 bytes pinned by digest: the on-disk format must not drift.

Each case fills one snapshotable family from a fixed, seeded stream — the
first half through scalar ``insert``, the second through ``insert_batch`` —
and hashes ``encode_snapshot_file(sketch.state_snapshot())``.  Any change
to how keys are stored, encoded or restored must leave these bytes exactly
as they are, because warm restarts, epoch rings and partition handoffs
read files written by earlier builds.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sketches.registry import build_sketch
from repro.store.format import encode_snapshot_file

MEMORY = 4 * 1024
SEED = 7
COUNT = 6000
CHUNK = 500

#: sha256 of the snapshot file, by (family, key kind).  ``Ours copy`` is an
#: ``Ours`` replica filled by ``copy_state_into`` from the donor of that kind;
#: it must snapshot to the donor's own bytes.
DIGESTS = {
    ("Ours", "mixed"): "5fe4d621c731db2f00c46d4695084f9bd425e074555f6529010a1ac4fa02bccb",
    ("Ours(Raw)", "mixed"): "f5ce571777fe186ca13929f1504dbfe78816c82a085467a3415f8dd86078f64c",
    ("Coco", "mixed"): "e8b75a53a3d40c18e42592d4966c4e81c8cc6f9b96b1105d08916d3f6096ad34",
    ("HashPipe", "mixed"): "6586c657bc4c7734157cfbba6e2efd53d4533d98044f379a7e002ca61cc7ead5",
    ("PRECISION", "mixed"): "f757b5054eed80616221ef9319b72a1c27f9c2b8071b68706e6c477e7c90b012",
    ("Ours", "int"): "d3da717297fd3038156b492d63fa131ac8f82ffec114977ea27d3a44b90b20c6",
    ("Ours(Raw)", "int"): "4c3eb72e72e9590750e01f69b3e4986f8114afd9a76f24296fcc0f00f7482e59",
    ("Coco", "int"): "b7dff84c71e6a566aaeb4ba25e67904758a4196576c0a30596ca9fa5d537aa3c",
    ("HashPipe", "int"): "0795d0aa535207b7c11c88758df1913b5609e327ca32e2bb90b7ab30f25f3c60",
    ("PRECISION", "int"): "54a6f17fae0bb8825ae6124f26780edaae65c9aeedb01ea3b6b117803cc4352e",
    ("Ours copy", "mixed"): "5fe4d621c731db2f00c46d4695084f9bd425e074555f6529010a1ac4fa02bccb",
    ("Ours copy", "int"): "d3da717297fd3038156b492d63fa131ac8f82ffec114977ea27d3a44b90b20c6",
}


def stream(kind: str) -> list[tuple[object, int]]:
    """A skewed stream of ints, or of ints and strs, with values 1..3."""
    rng = random.Random(20_261_019)
    items = []
    for _ in range(COUNT):
        rank = int(rng.paretovariate(0.3)) % 5000
        key: object = (rank * 2654435761 + 977) % 2**31
        if kind == "mixed" and rng.random() < 0.3:
            key = f"flow-{rank}"
        items.append((key, rng.randint(1, 3)))
    return items


def filled(name: str, kind: str):
    sketch = build_sketch(name, MEMORY, seed=SEED)
    items = stream(kind)
    half = len(items) // 2
    for key, value in items[:half]:
        sketch.insert(key, value)
    for start in range(half, len(items), CHUNK):
        chunk = items[start : start + CHUNK]
        sketch.insert_batch([key for key, _ in chunk], [value for _, value in chunk])
    return sketch


def digest(sketch, name: str) -> str:
    return hashlib.sha256(encode_snapshot_file(sketch.state_snapshot(), name)).hexdigest()


@pytest.mark.parametrize("kind", ("mixed", "int"))
@pytest.mark.parametrize("name", ("Ours", "Ours(Raw)", "Coco", "HashPipe", "PRECISION"))
def test_snapshot_bytes_match_the_recorded_digest(name, kind):
    assert digest(filled(name, kind), name) == DIGESTS[(name, kind)]


@pytest.mark.parametrize("kind", ("mixed", "int"))
def test_copied_replica_snapshot_matches_the_recorded_digest(kind):
    replica = build_sketch("Ours", MEMORY, seed=SEED)
    filled("Ours", kind).copy_state_into(replica)
    assert digest(replica, "Ours") == DIGESTS[("Ours copy", kind)]
