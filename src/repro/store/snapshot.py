"""Copy-on-write snapshots of the host-resident canonical index.

A snapshot is three kinds of artifact in the backend:

* **chunk blobs** — the leaf payloads (keys + points), grouped by the
  meta-node chunk that owns each leaf (plus one pseudo-chunk ``l0`` for
  the meta-less L0 leaves).  Blobs are *content-addressed*: the blob key
  is the blake2b hash of the bytes, so an unchanged chunk hashes to a
  blob that already exists and is simply re-referenced — the tfhfs
  forest/flush idiom of only writing dirty nodes, with the dirty check
  made exact by hashing instead of relying on mutation-site bookkeeping.
* **one topology blob** — every node and meta-node record (structure,
  counters, layers, chunk assignments, children order).  Rewritten each
  snapshot (it is small next to the payloads) and content-addressed like
  the chunks.
* **the manifest** — canonical JSON naming the blob set plus everything
  needed to rebuild the machine: config fields, Morton codec parameters,
  tree counters (``_next_nid``, ``_batch_counter``, route salt), system
  parameters (P, seed, LLC bytes, per-module capacities), the
  dead-module set, placement overrides, and the WAL sequence number the
  snapshot covers.  The manifest carries a CRC32 of its own canonical
  encoding; every blob it references is verified against its hash at
  load time, and recovery re-checks the structural invariants —
  corruption is always loud, never silent.

The encoding is a pure function of the logical tree state (metas sorted
by root nid, nodes in left-first preorder, sorted manifest keys), which
is what makes ``encode(decode(encode(t))) == encode(t)`` — the
round-trip identity the property suite locks down — and lets the
crash-restart benchmark assert recovered-vs-oracle equality as byte
equality of the two encodings.

Encoding is array code over the tree's node arena
(:class:`repro.core.vexec.NodeArena`), not a walk: preorder is the sort
order of the live rows by ``(key_lo, depth)``
(:meth:`~repro.core.vexec.NodeArena.preorder`), each node-record field
is one column pass into a structured array, and each chunk blob is one
join over its leaves.  A checkpoint therefore costs a few Python calls
per column and per chunk, not per node.  Encoding flushes the arena, so
a tree's first checkpoint builds it if no batch has yet.  The per-node
encoder it replaced is the test oracle ``tests/store_oracle.py``.
Decoding reads every node record with one ``frombuffer`` and rejects any
record count that overruns its blob with :class:`SnapshotCorruption`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
import zlib
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from ..core.vexec import NodeArena
from .errors import SnapshotCorruption

__all__ = ["SnapshotImage", "encode_tree", "decode_tree", "SnapshotStore"]

MANIFEST_VERSION = 1

# One node record, packed little-endian (the struct ``<QQHBBqqqi``).
_NODE = np.dtype([
    ("nid", "<u8"), ("prefix", "<u8"), ("depth", "<u2"), ("flags", "u1"),
    ("layer", "u1"), ("count", "<i8"), ("sc", "<i8"), ("delta", "<i8"),
    ("meta", "<i4"),
])
# The record fields read straight off each node.
_NODE_ATTRS = ("nid", "prefix", "depth", "layer", "count", "sc", "delta")
# root_nid, module, parent_idx, stale, built_sc, n_nodes, payload_words,
# l1_desc_metas, hot_hits, n_children
_META = struct.Struct("<QiiBqIdiQH")
_META_KID = struct.Struct("<i")
_LEAF_HEAD = struct.Struct("<QI")     # leaf nid, n points
_TOPO_HEAD = struct.Struct("<IIQ")    # n_nodes, n_metas, dims

_FLAG_LEAF = 1
_BUILT_SC_NONE = -(1 << 62)

_NID, _KEYS, _PTS = attrgetter("nid"), attrgetter("keys"), attrgetter("pts")
_META_OF, _ROOT_NID = attrgetter("meta"), attrgetter("root.nid")
_U8, _F8 = np.dtype("<u8"), np.dtype("<f8")
_TOBYTES = np.ndarray.tobytes

# Manifest keys that once named a choice between two execution engines or
# two simulator cores.  Each choice is gone, but the keys stay, written
# with one fixed value: a checkpoint charges the manifest's bytes, so
# dropping them would move every store golden.  Decoding drops them
# whatever value an older manifest recorded.
_FORMAT_CONSTANTS = {
    "config": {"exec_mode": "vectorized", "sim_mode": "vector"},
    "system": {"sim_mode": "vector"},
}


class SnapshotImage:
    """In-memory form of one snapshot: manifest dict + named byte blobs."""

    def __init__(self, manifest: dict, topology: bytes,
                 chunks: dict[str, bytes]) -> None:
        self.manifest = manifest
        self.topology = topology
        self.chunks = chunks  # chunk id ("l0" or "m<root_nid>") -> bytes

    @property
    def total_bytes(self) -> int:
        return len(self.topology) + sum(len(b) for b in self.chunks.values())


def _blob_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _manifest_checksum(doc: dict) -> int:
    body = {k: v for k, v in doc.items() if k != "checksum"}
    data = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return zlib.crc32(data)


# ======================================================================
# encode
# ======================================================================
def encode_tree(tree, *, wal_seq: int = 0) -> SnapshotImage:
    """Serialize ``tree`` (and its system's durable state) canonically."""
    return _assemble(tree, *_encode_blobs(tree), wal_seq=wal_seq)


def _encode_blobs(tree) -> tuple[bytes, dict[str, bytes]]:
    """``(topology, chunk id -> blob)``: column passes over the nodes.

    The node records are in left-first preorder, the node arena's
    :meth:`~repro.core.vexec.NodeArena.preorder` (which flushes it, so
    builds it on a tree no batch has read yet).  Each record field is
    one ``fromiter`` over the ordered nodes.
    """
    metas = sorted(tree.metas, key=_ROOT_NID)
    pos = {m: i for i, m in enumerate(metas)}
    arena = tree._arena
    order = arena.preorder()
    nodes = list(map(arena.nodes.__getitem__, order.tolist()))
    is_leaf = arena.is_leaf[order]
    n = len(nodes)
    rec = np.empty(n, dtype=_NODE)
    for name in _NODE_ATTRS:
        rec[name] = np.fromiter(map(attrgetter(name), nodes),
                                dtype=_NODE[name], count=n)
    rec["flags"] = is_leaf
    rec["meta"] = np.fromiter(map(pos.get, map(_META_OF, nodes), repeat(-1)),
                              dtype=np.int32, count=n)

    # Meta table: fixed head + explicit children index list (order
    # matters: `children` is append-ordered and observable through later
    # rebuilds).
    parts = [_TOPO_HEAD.pack(n, len(metas), tree.dims), rec.tobytes()]
    built_sc, stale = tree._meta_built_sc, tree._stale_metas
    for m in metas:
        parts.append(_META.pack(
            m.root.nid, int(m.module), pos.get(m.parent, -1),
            1 if m in stale else 0, int(built_sc.get(m, _BUILT_SC_NONE)),
            int(m.n_nodes), float(m.payload_words), int(m.l1_desc_metas),
            int(m.hot_hits), len(m.children)))
        parts += map(_META_KID.pack, map(pos.__getitem__, m.children))
    topology = b"".join(parts)
    leaf_at = np.flatnonzero(rec["flags"])
    leaf_chunk = rec["meta"][leaf_at]
    del parts, rec

    # Chunk blobs: leaves grouped by owning chunk (one stable sort keeps
    # walk order inside a chunk), chunks in the order the walk first
    # reaches them, each blob joined once from its leaves' records and
    # built before the next so only one chunk's pieces are held at once.
    by_chunk = np.argsort(leaf_chunk, kind="stable")
    chunk_of = leaf_chunk[by_chunk]
    by_chunk = leaf_at[by_chunk]
    starts = np.flatnonzero(np.diff(chunk_of, prepend=-2))
    leaves = list(map(nodes.__getitem__, by_chunk.tolist()))
    spans = sorted(zip(by_chunk[starts].tolist(), starts.tolist(),
                       [*starts[1:].tolist(), len(leaves)],
                       chunk_of[starts].tolist()))
    chunks: dict[str, bytes] = {}
    for _first, start, end, midx in spans:
        cid = "l0" if midx < 0 else f"m{metas[midx].root.nid}"
        chunks[cid] = _leaf_blob(leaves[start:end])
    return topology, chunks


def _leaf_blob(leaves: list) -> bytes:
    """One chunk blob: a ``(nid, n)`` head, the keys, the points, per leaf.

    (``tobytes``, not the arrays' buffer interface: numpy keeps an
    exported array's buffer info until the array dies, ~40 B on every
    leaf array for the life of the tree.)
    """
    heads = map(_LEAF_HEAD.pack, map(_NID, leaves),
                map(len, map(_KEYS, leaves)))
    keys = map(_TOBYTES, map(np.asarray, map(_KEYS, leaves), repeat(_U8)))
    pts = map(_TOBYTES, map(np.asarray, map(_PTS, leaves), repeat(_F8)))
    return b"".join(chain.from_iterable(zip(heads, keys, pts)))


def _assemble(tree, topology: bytes, chunks: dict[str, bytes], *,
              wal_seq: int) -> SnapshotImage:
    """The image of ``tree`` around its encoded blobs: adds the manifest."""
    sys = tree.system
    manifest = {
        "version": MANIFEST_VERSION,
        "wal_seq": int(wal_seq),
        "tree": {
            "dims": int(tree.dims),
            "key_bits": int(tree.key_bits),
            "next_nid": int(tree._next_nid),
            "batch_counter": int(tree._batch_counter),
            "l0_route_salt": int(tree._l0_route_salt),
            "l0_on_cpu": bool(tree.l0_on_cpu),
            "size": int(tree.root.count),
        },
        "config": {
            **dataclasses.asdict(tree.config),
            **_FORMAT_CONSTANTS["config"],
        },
        "codec": {
            "lo": [float(x) for x in np.asarray(tree.codec.lo).ravel()],
            "hi": [float(x) for x in np.asarray(tree.codec.hi).ravel()],
            "bits": int(tree.codec.bits),
            "fast": bool(tree.config.fast_zorder),
        },
        "system": {
            "n_modules": int(sys.n_modules),
            "seed": int(sys.seed),
            **_FORMAT_CONSTANTS["system"],
            "llc_bytes": int(sys.llc.capacity_blocks * 64),
            "dead_modules": sorted(int(m) for m in sys.dead_modules),
            "placement_overrides": {
                k.hex(): int(v) for k, v in sys._place_overrides.items()
            },
            "module_capacity_words": [
                None if m.capacity_words is None else float(m.capacity_words)
                for m in sys.modules
            ],
        },
        "topology": {"hash": _blob_hash(topology), "bytes": len(topology)},
        "chunks": {
            cid: {"hash": _blob_hash(blob), "bytes": len(blob)}
            for cid, blob in sorted(chunks.items())
        },
    }
    # The serving tiers (tree.tiers): the replica registry must ride in
    # the manifest, since checkpoints truncate the WAL and REPLICATE
    # records only cover copies installed *after* the snapshot; the route
    # filters persist only (fpr, seed), their bits being a pure
    # function of residency and seed.  A detached tier's key is absent,
    # keeping tier-off manifests byte-identical.
    for tier in tree.tiers:
        manifest[tier.MANIFEST_KEY] = tier.to_manifest()
    manifest["checksum"] = _manifest_checksum(manifest)
    return SnapshotImage(manifest, topology, chunks)


# ======================================================================
# decode
# ======================================================================
def decode_tree(image: SnapshotImage, system, *, cost_model=None):
    """Rebuild a :class:`PIMZdTree` from a snapshot image onto ``system``.

    Pure host-side reconstruction: no simulator counter moves here (the
    caller charges the load and runs the bulk re-upload).  Raises
    :class:`SnapshotCorruption` if any blob fails its hash or the decoded
    structure is internally inconsistent.
    """
    from ..core.chunking import MetaNode
    from ..core.config import PIMZdTreeConfig
    from ..core.morton import MortonCodec
    from ..core.node import Layer, Node
    from ..core.residency import ResidencyFeed, WordLedger
    from ..core.tree import PIMZdTree

    man = image.manifest
    if man.get("version") != MANIFEST_VERSION:
        raise SnapshotCorruption(
            f"unsupported snapshot version {man.get('version')!r}"
        )
    if _manifest_checksum(man) != man.get("checksum"):
        raise SnapshotCorruption("manifest checksum mismatch")
    if _blob_hash(image.topology) != man["topology"]["hash"]:
        raise SnapshotCorruption("topology blob hash mismatch")
    for cid, ref in man["chunks"].items():
        blob = image.chunks.get(cid)
        if blob is None:
            raise SnapshotCorruption(f"missing chunk blob {cid!r}")
        if _blob_hash(blob) != ref["hash"]:
            raise SnapshotCorruption(f"chunk blob {cid!r} hash mismatch")

    # -- leaf payloads ---------------------------------------------------
    dims = int(man["tree"]["dims"])
    payloads: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for cid, blob in image.chunks.items():
        off = 0
        while off < len(blob):
            if off + _LEAF_HEAD.size > len(blob):
                raise SnapshotCorruption(
                    f"chunk blob {cid!r} ends inside a leaf head")
            nid, n = _LEAF_HEAD.unpack_from(blob, off)
            off += _LEAF_HEAD.size
            if off + 8 * n * (1 + dims) > len(blob):
                raise SnapshotCorruption(
                    f"chunk blob {cid!r}: leaf {nid} holds {n} points, "
                    f"more than the blob's remaining {len(blob) - off} bytes")
            keys = np.frombuffer(blob, dtype="<u8", count=n, offset=off).copy()
            off += 8 * n
            pts = np.frombuffer(
                blob, dtype="<f8", count=n * dims, offset=off
            ).reshape(n, dims).copy()
            off += 8 * n * dims
            payloads[int(nid)] = (keys, pts)

    # -- topology ---------------------------------------------------------
    topo = image.topology
    if len(topo) < _TOPO_HEAD.size:
        raise SnapshotCorruption("topology blob ends inside its head")
    n_nodes, n_metas, topo_dims = _TOPO_HEAD.unpack_from(topo, 0)
    if topo_dims != dims:
        raise SnapshotCorruption("topology/manifest dims mismatch")
    off = _TOPO_HEAD.size + _NODE.itemsize * n_nodes
    if off > len(topo):
        raise SnapshotCorruption(
            f"topology blob too short for its {n_nodes} node records")
    records = np.frombuffer(topo, dtype=_NODE, count=n_nodes,
                            offset=_TOPO_HEAD.size)
    meta_rows = []
    for _ in range(n_metas):
        if off + _META.size > len(topo):
            raise SnapshotCorruption(
                f"topology blob too short for its {n_metas} meta records")
        head = _META.unpack_from(topo, off)
        off += _META.size
        n_kids = head[-1]
        if off + _META_KID.size * n_kids > len(topo):
            raise SnapshotCorruption(
                f"topology blob too short for meta {head[0]}'s children")
        kids = list(struct.unpack_from(f"<{n_kids}i", topo, off))
        off += _META_KID.size * n_kids
        meta_rows.append((head, kids))
    if off != len(topo):
        raise SnapshotCorruption("trailing bytes after topology records")

    # Rebuild the node tree from the preorder records: each internal node
    # is followed by its left then right subtree, so a stack of internal
    # nodes still short of a child places every record.
    columns = [records[name].tolist() for name in _NODE.names]
    decoded: list[tuple[Node, int]] = []  # (node, meta_idx) in preorder
    open_inner: list[Node] = []
    for nid, prefix, depth, flags, layer, count, sc, delta, midx in zip(
            *columns):
        node = Node(nid, prefix, depth)
        node.count = count
        node.sc = sc
        node.delta = delta
        node.layer = Layer(layer)
        if decoded:
            if not open_inner:
                raise SnapshotCorruption(
                    "topology walk did not consume all nodes")
            parent = open_inner[-1]
            node.parent = parent
            if parent.left is None:
                parent.left = node
            else:
                parent.right = node
                open_inner.pop()
        decoded.append((node, midx))
        if flags & _FLAG_LEAF:
            try:
                node.keys, node.pts = payloads[nid]
            except KeyError:
                raise SnapshotCorruption(
                    f"leaf {nid} has no payload in any chunk blob"
                ) from None
        else:
            open_inner.append(node)
    if not decoded or open_inner:
        raise SnapshotCorruption("topology walk ran out of node records")
    root = decoded[0][0]

    # -- metas ------------------------------------------------------------
    children = np.array([k for _h, ks in meta_rows for k in ks],
                        dtype=np.int64)
    owners = np.append(records["meta"], [h[2] for h, _k in meta_rows])
    if ((children < 0) | (children >= n_metas)).any() or (
            (owners < -1) | (owners >= n_metas)).any():
        raise SnapshotCorruption("topology names a meta record it lacks")
    nid_to_node = {n.nid: n for n, _ in decoded}
    metas: list[MetaNode] = []
    for head, _kids in meta_rows:
        m_root = nid_to_node.get(int(head[0]))
        if m_root is None:
            raise SnapshotCorruption(f"meta root nid {head[0]} not in tree")
        metas.append(MetaNode(m_root, int(head[1])))
    for m, (head, kids) in zip(metas, meta_rows):
        (_nid, _module, parent_idx, _stale, _built, n_nodes_m,
         payload_words, l1_desc, hot_hits, _nk) = head
        m.layer = m.root.layer
        m.parent = metas[parent_idx] if parent_idx >= 0 else None
        m.children = [metas[k] for k in kids]
        m.n_nodes = int(n_nodes_m)
        m.payload_words = (
            int(payload_words) if float(payload_words).is_integer()
            else float(payload_words)
        )
        m.l1_desc_metas = int(l1_desc)
        m.hot_hits = int(hot_hits)

    # -- assemble the tree object (bypassing __init__'s build path) -------
    cfg = PIMZdTreeConfig(**{
        key: value for key, value in man["config"].items()
        if key not in _FORMAT_CONSTANTS["config"]})
    codec = MortonCodec(
        np.asarray(man["codec"]["lo"], dtype=np.float64),
        np.asarray(man["codec"]["hi"], dtype=np.float64),
        dims,
        int(man["codec"]["bits"]),
    )
    tree = PIMZdTree.__new__(PIMZdTree)
    tree.dims = dims
    tree.system = system
    tree.config = cfg
    if cost_model is None:
        from ..pim.cost_model import upmem_scaled

        cost_model = upmem_scaled(system.n_modules)
        tree.cost_model = cost_model.with_direct_api(cfg.direct_api)
    else:
        tree.cost_model = cost_model
    tree.codec = codec
    tree.key_bits = codec.key_bits
    tree._next_nid = int(man["tree"]["next_nid"])
    tree._batch_counter = int(man["tree"]["batch_counter"])
    tree._l0_route_salt = int(man["tree"]["l0_route_salt"])
    tree.root = root
    tree.l0_on_cpu = bool(man["tree"]["l0_on_cpu"])
    # Residency starts from an empty cache: the first refresh books every
    # chunk.  A decoded chunk may already be stale (its root's counter
    # can drift in a batch that faulted before rechunk_stale), so each is
    # also marked for the next rechunk_stale.
    tree.feed = ResidencyFeed()
    tree._ledger = WordLedger(tree)
    tree.metas = set()
    tree._meta_built_sc = {}
    for m, (head, _k) in zip(metas, meta_rows):
        tree._add_meta(m, None if head[4] == _BUILT_SC_NONE else int(head[4]))
    tree.feed.metas.update(metas)
    tree._stale_metas = {
        m for m, (head, _k) in zip(metas, meta_rows) if head[3]
    }
    tree.last_executor = None
    tree._arena = NodeArena(tree)  # unbuilt: its first flush rows the nodes
    tree.journal = None  # no serving tier either: recovery restores them
    # Re-link nodes to their metas from the recorded assignment.
    for node, midx in decoded:
        node.meta = metas[midx] if midx >= 0 else None
    return tree


# ======================================================================
# the COW flush
# ======================================================================
class SnapshotStore:
    """Writes snapshots into a backend, copy-on-write at chunk granularity."""

    def __init__(self, backend) -> None:
        self.backend = backend

    def flush(self, tree, *, wal_seq: int = 0) -> dict:
        """Snapshot ``tree`` into the backend; returns a flush report.

        Charged under the ``"checkpoint"`` phase: the host scans and
        hashes every chunk (CPU + a DRAM stream of the full image) and
        streams only the *dirty* chunks — those whose content hash is not
        already stored — out to stable storage.  Clean chunks cost their
        scan only, which is what makes frequent snapshots affordable.
        """
        sys = tree.system
        with sys.phase("checkpoint"):
            image = encode_tree(tree, wal_seq=wal_seq)
            total_words = (image.total_bytes + 7) // 8

            blobs = {image.manifest["topology"]["hash"]: image.topology}
            for cid, ref in image.manifest["chunks"].items():
                blobs[ref["hash"]] = image.chunks[cid]
            # One listing answers "already stored?" for every blob and
            # names the GC's candidates: what this flush writes is live.
            stored = self.backend.list_blobs()
            dirty = sorted(blobs.keys() - set(stored))
            for h in dirty:
                self.backend.put_blob(h, blobs[h])
            written = len(dirty)
            written_bytes = sum(map(len, map(blobs.get, dirty)))
            manifest_bytes = json.dumps(
                image.manifest, sort_keys=True, separators=(",", ":")
            ).encode()
            self.backend.put_manifest(manifest_bytes)
            # Garbage-collect blobs no longer referenced by the manifest.
            for key in stored:
                if key not in blobs:
                    self.backend.delete_blob(key)

            written_words = (written_bytes + len(manifest_bytes) + 7) // 8
            sys.charge_cpu(2 * total_words)       # scan + hash
            sys.dram_stream(total_words)          # read the image out
            sys.dram_stream(written_words)        # write the dirty set
        return {
            "chunks_total": len(image.chunks),
            "blobs_total": len(blobs),
            "blobs_written": written,
            "blobs_reused": len(blobs) - written,
            "bytes_total": image.total_bytes,
            "bytes_written": written_bytes,
            "wal_seq": int(wal_seq),
        }

    def load_image(self) -> SnapshotImage:
        """Read the latest snapshot back out of the backend (verified)."""
        manifest_bytes = self.backend.get_manifest()
        if manifest_bytes is None:
            raise SnapshotCorruption("no snapshot manifest in backend")
        try:
            manifest = json.loads(manifest_bytes)
        except ValueError as e:
            raise SnapshotCorruption(f"manifest is not valid JSON: {e}") from e
        if _manifest_checksum(manifest) != manifest.get("checksum"):
            raise SnapshotCorruption("manifest checksum mismatch")
        try:
            topology = self.backend.get_blob(manifest["topology"]["hash"])
            chunks = {
                cid: self.backend.get_blob(ref["hash"])
                for cid, ref in manifest["chunks"].items()
            }
        except (KeyError, FileNotFoundError) as e:
            raise SnapshotCorruption(f"referenced blob missing: {e}") from e
        return SnapshotImage(manifest, topology, chunks)
