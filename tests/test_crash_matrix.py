"""The crash matrix: truncate the WAL everywhere; recovery never lies.

For a journal of B records, every byte prefix of the on-disk WAL is a
possible crash state.  The matrix replays recovery from *every record
boundary and several mid-record offsets* and demands one of exactly two
outcomes: the valid committed prefix is applied bit-exactly (the
recovered index encodes to the same bytes as an oracle that applied only
those batches), or — for mid-file integrity damage that truncation alone
cannot produce — recovery refuses loudly with ``WALCorruption``.  There
is no third outcome; a silently wrong index is the one unacceptable
state for a durability tier.

Also covered: checksum/magic tampering (torn-tail vs corruption rules),
snapshot blob/manifest tampering (``SnapshotCorruption``), and the
composition with the fault-injection layer — a module crash (whose
failover lands in the WAL as a control record) followed by a whole-
machine kill mid-serve, with a checkpoint racing both.
"""

import numpy as np
import pytest

from repro.balance import MigrationMove, MigrationPlan, execute_plan
from repro.core import PIMZdTree
from repro.core.config import skew_resistant
from repro.eval import make_adapter
from repro.faults import FaultPlan
from repro.pim import PIMSystem
from repro.replicate import ReplicaSet, ReplicationConfig
from repro.route import RouteFilterSet
from repro.serve import (
    AdmissionQueue,
    FixedBatchPolicy,
    ServeLoop,
    make_requests,
)
from repro.store import (
    DurableStore,
    SnapshotCorruption,
    WALCorruption,
    committed_seqs,
    encode_tree,
    open_backend,
    recover,
    scan_wal,
)
from repro.workloads import uniform_points

N = 240
N_MODULES = 4
SEED = 11
_HEADER_SIZE = 12  # b"WALR" + u32 len + u32 crc


def _images_equal(a, b) -> bool:
    return (a.manifest == b.manifest and a.topology == b.topology
            and a.chunks == b.chunks)


def _ops(seed=SEED):
    """The update history journaled on top of the initial snapshot."""
    return [
        ("insert", uniform_points(10, 3, seed=seed + 1)),
        ("insert", uniform_points(7, 3, seed=seed + 2)),
        ("delete", uniform_points(N, 3, seed=seed)[:5]),
        ("failover", 1),
        ("insert", uniform_points(12, 3, seed=seed + 3)),
    ]


def _apply(tree, op) -> None:
    kind, arg = op
    if kind == "insert":
        tree.insert(arg)
    elif kind == "delete":
        tree.delete(arg)
    else:
        tree.fail_over(arg)


@pytest.fixture(scope="module")
def journaled_store(tmp_path_factory):
    """A store holding a snapshot + the `_ops` history, plus oracles.

    ``oracles[j]`` is the byte-exact encoding of an index that applied
    exactly the first ``j`` operations — what recovery from a prefix of
    the WAL must reproduce.
    """
    base = uniform_points(N, 3, seed=SEED)
    tree = PIMZdTree(base, system=PIMSystem(N_MODULES, seed=SEED))
    backend = open_backend("file", tmp_path_factory.mktemp("wal-matrix"))
    DurableStore(backend).attach(tree)
    oracle = PIMZdTree(base, system=PIMSystem(N_MODULES, seed=SEED))
    oracles = [encode_tree(oracle, wal_seq=0)]
    for op in _ops():
        _apply(tree, op)
        _apply(oracle, op)
        oracles.append(encode_tree(oracle, wal_seq=0))
    raw = backend.wal_read()
    yield backend, bytes(raw), oracles
    backend.close()


def _truncation_points(raw: bytes) -> list[int]:
    records, torn = scan_wal(raw)
    assert torn is None and len(records) >= 8
    points = {0, len(raw)}
    for r in records:
        points.update({
            r.end,                       # clean boundary after the record
            r.offset + 1,                # inside the magic
            r.offset + _HEADER_SIZE - 1,  # header cut short
            r.offset + _HEADER_SIZE,     # body entirely missing
            (r.offset + r.end) // 2,     # mid-body
            r.end - 1,                   # one byte short
        })
    return sorted(p for p in points if 0 <= p <= len(raw))


def _expected_applied(raw: bytes, t: int) -> int:
    """How many of `_ops` a crash at byte ``t`` must leave applied."""
    records, _torn = scan_wal(raw[:t])
    committed = committed_seqs(records)
    return sum(
        1 for r in records
        if (r.kind_name in ("insert", "delete") and r.seq in committed)
        or r.kind_name in ("failover", "migrate")
    )


def test_crash_matrix_every_truncation_point(journaled_store):
    """Every WAL prefix recovers to exactly its committed-prefix oracle."""
    backend, raw, oracles = journaled_store
    points = _truncation_points(raw)
    assert len(points) > 20
    seen_torn = seen_partial = 0
    for t in points:
        backend.wal_reset(raw[:t])
        res = recover(backend)
        j = _expected_applied(raw, t)
        assert _images_equal(encode_tree(res.tree, wal_seq=0), oracles[j]), (
            f"truncation at byte {t}: recovered state is not the "
            f"{j}-op oracle"
        )
        res.tree.check_invariants()
        if res.torn_tail is not None:
            seen_torn += 1
        if 0 < j < len(oracles) - 1:
            seen_partial += 1
        # The uncommitted tail is dropped, never half-applied.
        assert res.replayed == j
    # The matrix genuinely exercised torn tails and partial replays.
    assert seen_torn > 0 and seen_partial > 0
    backend.wal_reset(raw)  # restore for any later reader


def test_mid_file_bitflip_refuses_loudly(journaled_store):
    backend, raw, oracles = journaled_store
    records, _ = scan_wal(raw)
    victim = records[1]
    flipped = bytearray(raw)
    flipped[victim.offset + _HEADER_SIZE + 2] ^= 0x40
    backend.wal_reset(bytes(flipped))
    with pytest.raises(WALCorruption) as exc:
        recover(backend)
    assert exc.value.offset == victim.offset
    assert "checksum" in exc.value.reason
    backend.wal_reset(raw)


def test_bad_magic_mid_file_refuses_loudly(journaled_store):
    backend, raw, oracles = journaled_store
    records, _ = scan_wal(raw)
    victim = records[2]
    broken = bytearray(raw)
    broken[victim.offset] = ord("X")
    backend.wal_reset(bytes(broken))
    with pytest.raises(WALCorruption) as exc:
        recover(backend)
    assert "magic" in exc.value.reason
    backend.wal_reset(raw)


def test_tail_bitflip_is_a_torn_tail_not_corruption(journaled_store):
    """Damage confined to the final append replays the valid prefix."""
    backend, raw, oracles = journaled_store
    records, _ = scan_wal(raw)
    last = records[-1]
    flipped = bytearray(raw)
    flipped[last.offset + _HEADER_SIZE + 1] ^= 0x01
    backend.wal_reset(bytes(flipped))
    res = recover(backend)
    assert res.torn_tail is not None
    assert "checksum" in res.torn_tail.reason
    j = _expected_applied(raw, last.offset)
    assert _images_equal(encode_tree(res.tree, wal_seq=0), oracles[j])
    backend.wal_reset(raw)


@pytest.mark.parametrize("backend_kind", ["file", "sqlite"])
def test_torn_tail_on_both_backends(tmp_path, backend_kind):
    path = (tmp_path / "s.db" if backend_kind == "sqlite"
            else tmp_path / "s")
    tree = PIMZdTree(uniform_points(80, 3, seed=SEED),
                     system=PIMSystem(N_MODULES, seed=SEED))
    backend = open_backend(backend_kind, path)
    DurableStore(backend).attach(tree)
    tree.insert(uniform_points(6, 3, seed=SEED + 1))
    oracle_img = encode_tree(tree, wal_seq=0)
    raw = backend.wal_read()

    # Tear 3 bytes off the final append (the COMMIT marker): the batch
    # becomes uncommitted and recovery rolls back to the snapshot.
    backend.wal_truncate(len(raw) - 3)
    res = recover(backend)
    assert res.torn_tail is not None and res.replayed == 0
    assert res.skipped_uncommitted == 1
    assert not _images_equal(encode_tree(res.tree, wal_seq=0), oracle_img)

    # With the full journal back, the same store recovers the full state.
    backend.wal_reset(raw)
    res2 = recover(backend)
    assert res2.torn_tail is None and res2.replayed == 1
    assert _images_equal(encode_tree(res2.tree, wal_seq=0), oracle_img)
    backend.close()


def test_snapshot_blob_tamper_refuses(tmp_path):
    tree = PIMZdTree(uniform_points(80, 3, seed=SEED),
                     system=PIMSystem(N_MODULES, seed=SEED))
    backend = open_backend("file", tmp_path / "s")
    DurableStore(backend).attach(tree)
    key = sorted(backend.list_blobs())[0]
    backend.put_blob(key, b"not the original payload")
    with pytest.raises(SnapshotCorruption):
        recover(backend)
    backend.close()


def test_snapshot_manifest_tamper_refuses(tmp_path):
    tree = PIMZdTree(uniform_points(80, 3, seed=SEED),
                     system=PIMSystem(N_MODULES, seed=SEED))
    backend = open_backend("file", tmp_path / "s")
    DurableStore(backend).attach(tree)
    import json

    man = json.loads(backend.get_manifest())
    man["tree"]["size"] = man["tree"]["size"] + 1
    backend.put_manifest(json.dumps(man).encode())
    with pytest.raises(SnapshotCorruption):
        recover(backend)
    backend.close()


def test_module_crash_then_machine_kill_composes(tmp_path):
    """PR 4 fault plans compose: failover record + kill + checkpoint race.

    A module crash mid-serve triggers failover (journaled as a control
    record); a later whole-machine kill restarts from disk, which must
    restore the dead-module set, replay the failover, and keep serving —
    while budget-gated checkpoints interleave with both.
    """
    data = uniform_points(2_000, 3, seed=SEED)
    requests = make_requests(data, np.zeros(480), mix={"insert": 1.0},
                             seed=SEED + 2)
    plan = FaultPlan(seed=SEED, crash_at={2: 6}, machine_kill_at=24)
    adapter = make_adapter("pim", data, n_modules=8, seed=SEED,
                           fault_plan=plan)
    store = DurableStore(open_backend("file", tmp_path / "s"),
                         budget_fraction=1.0)
    store.attach(adapter.tree)
    loop = ServeLoop(adapter, AdmissionQueue(480), FixedBatchPolicy(24),
                     store=store)
    result = loop.run(requests)

    assert 2 in plan.crashed
    assert len(loop.restarts) == 1
    assert result.stats.n_done == 480
    assert adapter.system.dead_modules == frozenset({2})
    assert all(m.module != 2 for m in adapter.tree.metas)
    adapter.tree.check_invariants()

    # The on-disk store survives one more cold restart with the same
    # dead-module view and a clean integrity scan.
    res = recover(store.backend, cost_model=adapter.tree.cost_model)
    assert res.system.dead_modules == frozenset({2})
    assert _images_equal(encode_tree(res.tree, wal_seq=0),
                         encode_tree(adapter.tree, wal_seq=0))
    store.backend.close()


# ----------------------------------------------------------------------
# live ≡ replay: a journaled relocation costs and does the same on replay
# ----------------------------------------------------------------------
def _plan_of(tree, kind: str) -> MigrationPlan:
    """Three hand-picked moves of one kind, one of them an L1 chunk with
    a cache fan-out so the master-plus-replica install is on the path."""
    metas = sorted(tree.metas, key=lambda m: m.root.nid)
    fanned = next(m for m in metas if m.replica_count() > 0)
    victims = [fanned] + [m for m in metas if m is not fanned][:2]
    p = tree.system.n_modules
    return MigrationPlan(moves=[
        MigrationMove(m, m.module, (m.module + 1 + i) % p,
                      float(m.size_words(tree.config)), 0.0, kind=kind)
        for i, m in enumerate(victims)
    ])


_RELOCATIONS = {
    "migrate": lambda tree: execute_plan(tree, _plan_of(tree, "migrate")),
    "clone": lambda tree: execute_plan(tree, _plan_of(tree, "clone")),
    "replicate_all": lambda tree: tree.replicas.replicate_all(),
}


def _layout(tree) -> tuple:
    return (
        {m.root.nid: m.module for m in tree.metas},
        dict(tree.system._place_overrides),
        dict(tree.replicas._secondaries),
    )


@pytest.mark.parametrize("case", sorted(_RELOCATIONS))
def test_relocation_replay_equals_live(tmp_path, case):
    """Replaying a MIGRATE / REPLICATE record charges exactly what the
    live relocation charged and lands on the same layout.

    The live side runs with a journal attached; the replay side is
    ``recover`` on the store it journaled into, less a recovery of the
    same store taken before the relocation (so snapshot load and upload
    cancel).  Totals are compared without the live side's ``"wal"``
    phase — replay has no journal — and without phase labels, which the
    pinned ``"recovery"`` phase flattens.
    """
    tree = PIMZdTree(
        uniform_points(600, 3, seed=SEED),
        system=PIMSystem(8, seed=SEED),
        config=skew_resistant(8, leaf_size=4, chunk_factor=4, c0=16),
    )
    ReplicaSet(tree, ReplicationConfig(k=2))
    RouteFilterSet(tree)  # makes refresh_residency a charged step
    backend = open_backend("file", tmp_path / "s")
    DurableStore(backend).attach(tree)
    baseline = recover(backend).system.stats.total

    before = tree.system.stats.snapshot()
    _RELOCATIONS[case](tree)
    live = tree.system.stats.diff(before)
    assert live.phases["wal"].cpu_ops > 0  # the move really was journaled
    live_total = live.total.diff(live.phases["wal"])

    res = recover(backend)
    assert res.replayed >= 1
    replay_total = res.system.stats.total.diff(baseline)
    assert replay_total.to_dict() == live_total.to_dict()
    assert replay_total.comm_words > 0
    assert _layout(res.tree) == _layout(tree)
    backend.close()
