"""The array snapshot encoder against the per-node oracle, and bad blobs.

``encode_tree`` orders the node records by sorting the live arena rows
on ``(key_lo, depth)`` and builds each chunk blob with one join;
``tests/store_oracle.py`` walks the tree one node at a time.  On every
tree shape the codec meets — tie-heavy keys, L0 leaves, a decoded tree
whose arena is unbuilt, garbage arena rows after deletes, stale metas
after a faulted batch, a replicated and filtered Varden tree — the two
must produce the same topology and chunk blobs byte for byte, and the
same manifest.  Encoding flushes the node arena early (building it on a
tree no batch has read); serving with an encode after every batch must
book and answer exactly what serving without one does, and a recovered
tree's arena must serve as a freshly built one does.

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

from repro.core import PIMZdTree, vexec
from repro.core.config import skew_resistant
from repro.core.vexec import node_arena
from repro.eval.harness import make_adapter, make_boxes
from repro.faults import FaultPlan
from repro.faults.errors import FaultError
from repro.pim import PIMSystem
from repro.store import (
    DurableStore,
    SnapshotCorruption,
    decode_tree,
    encode_tree,
    open_backend,
    recover,
)
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
    assert again._arena.n == 0  # decoded with an unbuilt arena
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
    _assert_matches_oracle(tree)
    # Encoding flushed the arena (building it on a tree no batch read).
    assert tree._arena.n > 0 and not tree._arena.dirty
    _assert_matches_oracle(tree)


# ----------------------------------------------------------------------
# the arena's lifecycle: one arena per tree, built by its first flush
# ----------------------------------------------------------------------
def test_an_unqueried_tree_encodes_like_the_oracle():
    """A tree no batch has read holds an unbuilt arena; its first encode
    builds it, matches the walk oracle and leaves an exact arena."""
    tree = PIMZdTree(varden_points(3000, 3, seed=SEED),
                     system=PIMSystem(16, seed=SEED))
    assert tree._arena.n == 0
    _assert_matches_oracle(tree)
    assert tree._arena.n == tree.num_nodes()
    vexec.check_arena(tree)


def test_fail_over_before_the_first_batch_keeps_the_arena_exact():
    """A failover on an unbuilt arena, then a batch: the batch's build
    sees the failed-over tree, and the arena stays exact from then on."""
    pts = varden_points(3000, 3, seed=SEED)
    tree = PIMZdTree(pts, config=skew_resistant(16),
                     system=PIMSystem(16, seed=SEED))
    tree.fail_over(sorted(tree.metas, key=lambda m: m.root.nid)[0].module)
    assert tree._arena.n == 0
    q = pts[::300] + 1e-4
    for qi, (d, _) in zip(q, tree.knn(q, 4)):
        want = np.sort(np.linalg.norm(pts - qi, axis=1))[:4]
        np.testing.assert_allclose(d, want, atol=1e-12)
    assert tree._arena.n > 0
    vexec.check_arena(tree)
    tree.insert(uniform_points(200, 3, seed=SEED + 1))
    tree.check_invariants()


def test_a_recovered_arena_serves_like_a_fresh_one(tmp_path):
    """Recovery keeps the arena WAL replay built (rows numbered by the
    replay's history, garbage rows included); the next batch answers and
    books exactly what it does on a tree whose arena is built fresh."""
    pts = varden_points(3000, 3, seed=SEED)
    tree = PIMZdTree(pts, config=skew_resistant(16),
                     system=PIMSystem(16, seed=SEED))
    backend = open_backend("file", str(tmp_path))
    DurableStore(backend).attach(tree)
    for i in range(3):
        tree.insert(varden_points(150, 3, seed=SEED + 10 + i))
        tree.delete(pts[i::9])
    replayed, fresh = recover(backend).tree, recover(backend).tree
    assert replayed._arena.n > 0 and replayed._arena.dead > 0
    fresh._arena = vexec.NodeArena(fresh)
    q = uniform_points(48, 3, seed=SEED + 2)
    boxes = make_boxes(pts, 0.2, 8, seed=SEED)
    outputs = []
    for t in (replayed, fresh):
        snap = t.system.snapshot()
        knn = t.knn(q, 5)
        counts = t.box_count(boxes)
        fetched = t.box_fetch(boxes)
        t.insert(uniform_points(40, 3, seed=SEED + 3))
        outputs.append((knn, counts, fetched, t.system.stats.diff(snap)))
    (knn_a, cnt_a, got_a, st_a), (knn_b, cnt_b, got_b, st_b) = outputs
    for (da, ia), (db, ib) in zip(knn_a, knn_b):
        assert np.array_equal(da, db) and np.array_equal(ia, ib)
    assert np.array_equal(cnt_a, cnt_b)
    assert all(np.array_equal(a, b) for a, b in zip(got_a, got_b))
    assert st_a == st_b
    vexec.check_arena(replayed)
    backend.close()


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
