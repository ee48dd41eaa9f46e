"""The array snapshot encoder against the per-node oracle, and bad blobs.

``encode_tree`` orders the node records by sorting the live arena rows
on ``(key_lo, depth)`` and builds each chunk blob with one join;
``tests/store_oracle.py`` walks the tree one node at a time.  On every
tree shape the codec meets — tie-heavy keys, L0 leaves, a decoded tree
without an arena, garbage arena rows after deletes, stale metas after a
faulted batch, a replicated and filtered Varden tree — the two must
produce the same topology and chunk blobs byte for byte, and the same
manifest.  Encoding flushes the node arena early; serving with an
encode after every batch must book and answer exactly what serving
without one does.

The decoder's half: a topology or chunk blob whose hash and manifest
checksum are consistent but whose record counts overrun its bytes ends
in :class:`SnapshotCorruption`, never a bare ``struct`` or NumPy error.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.core import PIMZdTree
from repro.core.config import skew_resistant
from repro.core.vexec import node_arena
from repro.eval.harness import make_adapter
from repro.faults import FaultPlan
from repro.faults.errors import FaultError
from repro.pim import PIMSystem
from repro.store import SnapshotCorruption, decode_tree, encode_tree
from repro.store.snapshot import SnapshotImage, _blob_hash, _manifest_checksum
from repro.tune import default_space
from repro.tune.apply import apply_serving_config
from repro.workloads import uniform_points, varden_points
from store_oracle import oracle_encode
from ties import tie_heavy

SEED = 7


def _assert_matches_oracle(tree) -> None:
    want = oracle_encode(tree, wal_seq=3)
    got = encode_tree(tree, wal_seq=3)
    assert got.topology == want.topology
    assert list(got.chunks) == list(want.chunks)
    for cid, blob in want.chunks.items():
        assert got.chunks[cid] == blob, f"chunk {cid} diverged"
    assert got.manifest == want.manifest


# ----------------------------------------------------------------------
# trees for the differential
# ----------------------------------------------------------------------
def _tie_heavy_tree():
    pts, _ = tie_heavy(2, seed=0)                 # a lattice: every key ties
    return PIMZdTree(pts, config=skew_resistant(8),
                     system=PIMSystem(8, seed=SEED))


def _l0_leaf_tree():
    pts, _ = tie_heavy(3, seed=2)                 # duplicate piles
    tree = PIMZdTree(pts, config=skew_resistant(8),
                     system=PIMSystem(8, seed=SEED))
    assert any(nd.is_leaf for nd in tree.l0_nodes())
    return tree


def _decoded_tree():
    tree = PIMZdTree(varden_points(3000, 3, seed=SEED),
                     system=PIMSystem(16, seed=SEED))
    tree.insert(uniform_points(200, 3, seed=SEED + 1))
    again = decode_tree(encode_tree(tree), PIMSystem(16, seed=SEED),
                        cost_model=tree.cost_model)
    assert again._arena is None
    return again


def _tree_after_deletes():
    pts = varden_points(4000, 3, seed=SEED)
    tree = PIMZdTree(pts, system=PIMSystem(16, seed=SEED))
    tree.delete(pts[::7])
    arena = node_arena(tree)
    assert arena.dead > 0, "no garbage rows: the case is not exercised"
    return tree


def _faulted_tree():
    """A batch that raised leaves stale metas behind for the next
    ``rechunk_stale``; the drop plan supplies a real faulted insert, and
    the chunks it would have re-chunked are marked as such a batch
    leaves them."""
    tree = PIMZdTree(varden_points(4000, 3, seed=2),
                     system=PIMSystem(16, seed=3))
    tree.system.attach_faults(FaultPlan(seed=0, drop_rate=0.05))
    faults = 0
    for i in range(6):
        try:
            tree.insert(varden_points(300, 3, seed=100 + i))
        except FaultError:
            faults += 1
    assert faults > 0
    for meta in sorted(tree.metas, key=lambda m: m.root.nid)[::3]:
        tree.mark_stale(meta)
    assert tree._stale_metas
    return tree


def _replicated_filtered_tree():
    adapter = make_adapter("pim", varden_points(20_000, 3, seed=SEED),
                           n_modules=256, seed=SEED)
    config = default_space().default_config()
    config.update({"replicate.k": 2, "route.enabled": True})
    apply_serving_config(adapter, config, filter_seed=SEED)
    tree = adapter.tree
    assert tree.replicas is not None and len(tree.tiers) == 2
    adapter.insert(varden_points(400, 3, seed=SEED + 3))
    adapter.knn(uniform_points(64, 3, seed=SEED + 4), 10)
    return tree


TREES = {
    "tie_heavy": _tie_heavy_tree,
    "l0_leaves": _l0_leaf_tree,
    "decoded_no_arena": _decoded_tree,
    "deletes_garbage_rows": _tree_after_deletes,
    "faulted_stale_metas": _faulted_tree,
    "varden_p256_replicas_filters": _replicated_filtered_tree,
}


@pytest.mark.parametrize("case", sorted(TREES))
def test_encode_matches_the_oracle(case):
    tree = TREES[case]()
    if case == "l0_leaves":
        assert "l0" in oracle_encode(tree).chunks
    had_arena = tree._arena is not None
    _assert_matches_oracle(tree)
    # Encoding flushes an arena it finds and never builds one.
    assert (tree._arena is not None) == had_arena
    _assert_matches_oracle(tree)


# ----------------------------------------------------------------------
# non-perturbation: an early arena flush is unobservable
# ----------------------------------------------------------------------
def _serve(monkeypatch, encode_each_batch: bool) -> tuple[str, str, str]:
    from repro.core import tree as tree_mod
    from repro.serve import ServeSpec, build_session
    from repro.serve.loop import ServeLoop

    answers = hashlib.blake2b(digest_size=16)

    def digest(out) -> None:
        if isinstance(out, np.ndarray):
            answers.update(repr((out.dtype.str, out.shape)).encode())
            answers.update(out.tobytes())
        elif isinstance(out, (list, tuple)):
            answers.update(b"[")
            for item in out:
                digest(item)
            answers.update(b"]")
        else:
            answers.update(repr(out).encode())

    def recording(name):
        method = getattr(tree_mod.PIMZdTree, name)

        def wrapper(self, *args, **kw):
            out = method(self, *args, **kw)
            answers.update(name.encode())
            digest(out)
            return out
        return wrapper

    with monkeypatch.context() as mp:
        for name in ("knn", "box_count", "box_fetch"):
            mp.setattr(tree_mod.PIMZdTree, name, recording(name))
        if encode_each_batch:
            dispatch = ServeLoop._dispatch

            def dispatch_then_encode(self, batch, now=0.0):
                out = dispatch(self, batch, now)
                encode_tree(self.adapter.tree)
                return out
            mp.setattr(ServeLoop, "_dispatch", dispatch_then_encode)
        session = build_session(ServeSpec(
            dataset="varden", n=6000, n_modules=64, seed=SEED,
            requests=400, rate=60_000.0,
            mix={"knn": 0.45, "bc": 0.1, "bf": 0.1, "insert": 0.35},
            config={"replicate.k": 2, "route.enabled": True,
                    "rebalance.enabled": True}))
        result = session.run()
    stats = json.dumps(session.adapter.system.stats.to_dict(), sort_keys=True)
    return (hashlib.sha256(stats.encode()).hexdigest(), answers.hexdigest(),
            result.stats.to_json())


def test_encoding_after_every_batch_is_unobservable(monkeypatch):
    plain = _serve(monkeypatch, encode_each_batch=False)
    encoded = _serve(monkeypatch, encode_each_batch=True)
    assert encoded[0] == plain[0], "PIMStats moved"
    assert encoded[1] == plain[1], "answers moved"
    assert encoded[2] == plain[2], "LatencyStats moved"


# ----------------------------------------------------------------------
# malformed but self-consistent blobs end in SnapshotCorruption
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def image():
    tree = PIMZdTree(uniform_points(400, 3, seed=SEED),
                     system=PIMSystem(8, seed=SEED))
    img = encode_tree(tree)
    assert img.manifest["topology"]["bytes"] > 0
    return img


def _reseal(img, *, topology=None, chunks=None) -> SnapshotImage:
    """``img`` with replaced blobs, hashes and checksum recomputed so only
    the blobs' contents are wrong."""
    man = json.loads(json.dumps(img.manifest))
    topology = img.topology if topology is None else topology
    chunks = {**img.chunks, **(chunks or {})}
    man["topology"] = {"hash": _blob_hash(topology), "bytes": len(topology)}
    man["chunks"] = {cid: {"hash": _blob_hash(b), "bytes": len(b)}
                     for cid, b in sorted(chunks.items())}
    man["checksum"] = _manifest_checksum(man)
    return SnapshotImage(man, topology, chunks)


def _decode(img):
    return decode_tree(img, PIMSystem(8, seed=SEED))


def test_topology_claiming_one_node_too_many_is_corruption(image):
    n_nodes, n_metas, dims = struct.unpack_from("<IIQ", image.topology, 0)
    topo = struct.pack("<IIQ", n_nodes + 1, n_metas, dims) + image.topology[16:]
    with pytest.raises(SnapshotCorruption):
        _decode(_reseal(image, topology=topo))


def test_truncated_topology_is_corruption(image):
    with pytest.raises(SnapshotCorruption):
        _decode(_reseal(image, topology=image.topology[:-7]))


def test_truncated_topology_head_is_corruption(image):
    with pytest.raises(SnapshotCorruption):
        _decode(_reseal(image, topology=image.topology[:9]))


def test_meta_index_past_the_meta_table_is_corruption(image):
    n_metas = struct.unpack_from("<IIQ", image.topology, 0)[1]
    topo = bytearray(image.topology)
    struct.pack_into("<i", topo, 16 + 44, n_metas)  # first node's meta
    with pytest.raises(SnapshotCorruption):
        _decode(_reseal(image, topology=bytes(topo)))


def test_leaf_head_overrunning_its_chunk_is_corruption(image):
    cid, blob = sorted(image.chunks.items())[0]
    nid, n = struct.unpack_from("<QI", blob, 0)
    bad = struct.pack("<QI", nid, n + 1000) + blob[12:]
    with pytest.raises(SnapshotCorruption):
        _decode(_reseal(image, chunks={cid: bad}))


def test_chunk_ending_inside_a_leaf_head_is_corruption(image):
    cid, blob = sorted(image.chunks.items())[0]
    with pytest.raises(SnapshotCorruption):
        _decode(_reseal(image, chunks={cid: blob + b"\x00" * 5}))


def test_resealed_image_decodes(image):
    """The resealing above is sound: an unmodified blob set decodes."""
    tree = _decode(_reseal(image))
    again = encode_tree(tree)
    assert again.topology == image.topology and again.chunks == image.chunks
