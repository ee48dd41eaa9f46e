"""The PIMStats ledger against its oracle, and its phase order.

Production books every counter into one float64 matrix by row
(``repro.pim.stats.PIMStats``); the oracle ledger
(``sim_oracle.OracleLedger``, booked by ``ScalarPIMSystem``) keeps one
``PhaseCounters`` per label in a dict and adds one charge at a time.
Seeded random booking scripts — CPU charges, LLC touches that fit and
overflow the cache, DRAM streams, flat comm, BSP rounds over mixed,
nested and pinned phases, broadcasts, faulted rounds, a tracer, measured
spans — run on both, and the two must agree exactly: ``to_dict()``,
``==``, the row order, ``diff()`` between any two snapshots,
``measure(...)`` and its per-phase prices, the trace and the LLC state.

Also: a diff lists its phases in first-booking order, whatever the
interpreter's hash seed.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from sim_oracle import (ScalarPIMSystem, oracle_phase_prices, oracle_time,
                        oracle_traffic_bytes)

from repro.eval.harness import PIMZdTreeAdapter
from repro.faults import FaultPlan
from repro.faults.errors import FaultError
from repro.obs import TraceCollector
from repro.pim import PhaseCounters, PIMSystem, upmem_scaled

P = 6
LABELS = ("build", "search:l1", "search:l2", "insert", "delete", "wal",
          "recovery", "replicate", "rebalance", "knn", "box", "store")


def _ops(rng: random.Random, depth: int, in_round: bool, n: int) -> list:
    """``n`` random ops; phases nest up to depth 3 inside and outside
    rounds, so a round mixes labels, some of them never booked before."""
    ops: list = []
    for _ in range(n):
        r = rng.random()
        if in_round and r < 0.1:
            # A lone small PIM charge: unless its module is the straggler,
            # its label books nothing this round.
            ops.append(("charge", 0, [rng.randrange(P)], [1]))
        elif in_round and r < 0.45:
            k = rng.randint(1, 6)
            kinds = (rng.randrange(3) if rng.random() < 0.3
                     else [rng.randrange(3) for _ in range(k)])
            mids = [rng.randrange(P) for _ in range(k)]
            amounts = [rng.choice((0, 1, 2, 3, 5, 8, 13)) for _ in range(k)]
            ops.append(("charge", kinds, mids, amounts))
        elif in_round and r < 0.5:
            ops.append(("broadcast", rng.choice((1, 3))))
        elif r < 0.58:
            ops.append(("cpu", rng.randint(0, 60),
                        rng.choice((0.0, rng.randint(1, 9)))))
        elif r < 0.66:
            ops.append(("touch", [("blk", rng.randrange(14))
                                  for _ in range(rng.randint(0, 10))]))
        elif r < 0.69:
            ops.append(("stream", rng.choice((0, 8, 64))))
        elif r < 0.72:
            ops.append(("flat", rng.choice((0, 7, 10))))
        elif r < 0.86 and depth < 3:
            ops.append(("phase", rng.choice(LABELS), rng.random() < 0.2,
                        _ops(rng, depth + 1, in_round, 4)))
        elif not in_round and depth < 3:
            ops.append(("round", _ops(rng, depth + 1, True, 6)))
        else:
            ops.append(("snapshot",))
    return ops


def make_script(seed: int) -> list:
    """Top level: plain ops and measured spans of ops."""
    rng = random.Random(seed)
    script = []
    for _ in range(6):
        ops = _ops(rng, 0, False, 5)
        script.append(("measure", ops) if rng.random() < 0.5 else
                      ("plain", ops))
    return script


def _measure(system, cm, fn):
    """``PIMZdTreeAdapter.measure`` on a bare system: no tree is built,
    only its cost model is read."""
    adapter = PIMZdTreeAdapter.__new__(PIMZdTreeAdapter)
    adapter.system = system
    adapter.tree = SimpleNamespace(cost_model=cm)
    adapter.name = "pim-zd-tree"
    return adapter.measure(fn)


def _run(system, ops, rec) -> None:
    for op in ops:
        kind = op[0]
        try:
            if kind == "charge":
                system.charge_sequence(op[1], op[2], op[3])
            elif kind == "broadcast":
                system.broadcast(op[1])
            elif kind == "cpu":
                system.charge_cpu(op[1], op[2])
            elif kind == "touch":
                system.touch_cpu_blocks(op[1])
            elif kind == "stream":
                system.dram_stream(op[1])
            elif kind == "flat":
                system.charge_comm_flat(op[1])
            elif kind == "phase":
                with system.phase(op[1], pin=op[2]):
                    _run(system, op[3], rec)
            elif kind == "round":
                with system.round():
                    _run(system, op[1], rec)
            else:
                rec["snaps"].append(system.snapshot())
        except FaultError as e:
            rec["faults"].append((kind, type(e).__name__,
                                  getattr(e, "charge_index", None)))


def play(system, script, cm) -> dict:
    rec = {"snaps": [system.snapshot()], "faults": [], "measured": []}
    for kind, ops in script:
        if kind == "measure":
            before = system.snapshot()
            m = _measure(system, cm, lambda ops=ops: _run(system, ops, rec) or 0)
            rec["measured"].append((m, system.stats.diff(before)))
        else:
            _run(system, ops, rec)
    return rec


FAULTS = {
    "none": lambda seed: None,
    "faulty": lambda seed: FaultPlan(
        seed=seed, drop_rate=0.15, slow_factors={1: 2.0, 4: 3.0},
        crash_at={2: 6}, storm_rate=0.2, storm_factor=4.0, storm_rounds=2),
    "kill": lambda seed: FaultPlan(seed=seed, crash_rate=0.05, max_crashes=2,
                                   machine_kill_at=12),
}


def _pair(seed: int, faults: str, traced: bool):
    systems = []
    for cls in (PIMSystem, ScalarPIMSystem):
        systems.append(cls(
            P, seed=seed, llc_bytes=64 * 8,
            tracer=TraceCollector() if traced else None,
            fault_plan=FAULTS[faults](seed)))
    return systems


def _labels(stats) -> list:
    return list(stats.phases)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("seed", range(40))
def test_ledger_matches_the_oracle(seed, faults, traced):
    cm = upmem_scaled(P)
    script = make_script(seed)
    prod, orac = _pair(seed, faults, traced)
    a, b = play(prod, script, cm), play(orac, script, cm)

    assert a["faults"] == b["faults"]
    assert prod.stats == orac.stats and orac.stats == prod.stats
    assert prod.stats.to_dict() == orac.stats.to_dict()
    # Rows are labels in first-booking order, as the oracle's dict.
    assert prod.stats.labels == orac.stats.labels
    assert np.array_equal(prod.stats.matrix, orac.stats.matrix)

    snaps_a = a["snaps"] + [prod.snapshot()]
    snaps_b = b["snaps"] + [orac.snapshot()]
    for i in range(len(snaps_a)):
        for j in range(len(snaps_a)):
            da, db = snaps_a[j].diff(snaps_a[i]), snaps_b[j].diff(snaps_b[i])
            assert da == db and da.to_dict() == db.to_dict(), (i, j)
            assert _labels(da) == _labels(db), (i, j)

    assert len(a["measured"]) == len(b["measured"])
    for (ma, _), (mb, delta_b) in zip(a["measured"], b["measured"]):
        assert ma == mb
        assert list(ma.phases.items()) == list(mb.phases.items())
        # The one array pass prices each phase as the scalar formula run
        # on that phase alone.
        assert list(ma.phases.items()) == list(
            oracle_phase_prices(delta_b, cm).items())
        t = oracle_time(cm, delta_b.total)
        assert (ma.cpu_s, ma.pim_s, ma.comm_s, ma.sim_time_s) == (
            t.cpu_s, t.pim_s, t.comm_s, t.total_s)
        assert ma.traffic_bytes == oracle_traffic_bytes(cm, delta_b.total)
    empty = _measure(prod, cm, lambda: 0)
    assert empty.phases == {} and empty.sim_time_s == 0.0

    assert (prod.llc.hits, prod.llc.misses) == (orac.llc.hits, orac.llc.misses)
    assert list(prod.llc._blocks) == list(orac.llc._blocks)
    if traced:
        ta, tb = prod.tracer, orac.tracer
        assert ta.timeline.to_dict() == tb.timeline.to_dict()
        assert ([r.to_dict() for r in ta.rounds()]
                == [r.to_dict() for r in tb.rounds()])
        assert ta.timeline.reconcile(prod.stats) == []
        assert tb.timeline.reconcile(orac.stats) == []


def test_the_scripts_reach_every_booking_path():
    """The differential above is only as good as its scripts: over its
    seeds they close rounds that add several rows at once and rounds that
    leave a label without one, close rounds over known rows only,
    overflow the LLC, fit in it, drop and refuse charges."""
    seen = set()
    for seed in range(12):
        for faults in ("none", "faulty"):
            prod, _ = _pair(seed, faults, False)
            llc = prod.llc
            add_rows = prod._add_round_rows

            def traced_add_rows(labels, *a, prod=prod, add_rows=add_rows):
                before = len(prod.stats.labels)
                add_rows(labels, *a)
                if len(prod.stats.labels) - before >= 2:
                    seen.add("several-new-rows")
                if any(ph not in prod.stats.labels for ph in labels):
                    seen.add("rowless-label")

            prod._add_round_rows = traced_add_rows
            rec = play(prod, make_script(seed), upmem_scaled(P))
            seen.update(f[1] for f in rec["faults"])
            if prod.stats.total.rounds > 1:
                seen.add("rounds")
            if llc.hits:
                seen.add("llc-hits")
            if llc.misses > llc.capacity_blocks:  # so some block was evicted
                seen.add("llc-overflow")
    assert {"llc-overflow", "llc-hits", "several-new-rows", "rowless-label",
            "rounds", "MessageLoss", "ModuleFailure"} <= seen


def test_phase_scope_semantics():
    """A pinned phase wins against inner unpinned ones; the outer label
    comes back on exit, also after an exception; a phase that books
    nothing gets no row."""
    s = PIMSystem(2)
    with s.phase("recovery", pin=True):
        with s.phase("insert"):
            assert s.current_phase == "recovery"
            s.charge_cpu(5)
        with s.phase("wal", pin=True):
            assert s.current_phase == "wal"
        assert s.current_phase == "recovery"
    assert s.current_phase == "other"
    with pytest.raises(ValueError):
        with s.phase("a"):
            with s.phase("b"):
                raise ValueError
    assert s.current_phase == "other"
    with s.phase("empty"):
        pass
    s.charge_cpu(1)
    assert s.stats.labels == ("recovery", "other")
    assert s.stats.phase("empty").cpu_ops == 0.0
    assert "empty" not in s.stats.phases

    with pytest.raises(RuntimeError):
        with s.round():
            with s.round():
                pass
    assert not s._in_round


def test_materialised_counters_are_read_only():
    """``.total``, ``.phases`` and ``.phase()`` are copies of ledger rows:
    a write to one raises instead of being lost, ``copy()`` is writable,
    and they compare and print as plain ``PhaseCounters``."""
    s = PIMSystem(2)
    with s.phase("a"):
        s.charge_cpu(3, 1)
    for c in (s.stats.total, s.stats.phases["a"], s.stats.phase("a"),
              s.stats.phase("never")):
        with pytest.raises(AttributeError, match="read-only"):
            c.cpu_ops += 1
        assert isinstance(c, PhaseCounters)
    expected = PhaseCounters(cpu_ops=3.0, cpu_span=1.0)
    assert s.stats.total == expected and expected == s.stats.phase("a")
    assert repr(s.stats.total) == repr(expected)
    assert type(s.stats.total.rounds) is int
    mutable = s.stats.total.copy()
    mutable.cpu_ops += 1
    assert mutable != s.stats.total and s.stats.total.cpu_ops == 3.0


def test_copies_of_a_booking_ledger_book_into_their_own_rows():
    """The writers add into the ledger's row views; a deep copy or a
    pickle round trip of a system must keep its views on its own matrix,
    also across a reallocation when a label gets its row."""
    s = PIMSystem(2)
    with s.phase("a"):
        s.charge_cpu(3)
    for clone in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        with clone.phase("a"):
            clone.charge_cpu(4)
            clone.touch_cpu_blocks([1, 2])
        with clone.phase("b"), clone.round():
            clone.charge_cpu(5)
            clone.charge_sequence(0, [1], [7.0])
        c = clone.stats
        assert c.total.cpu_ops == 12.0 and c.phases["a"].cpu_ops == 7.0
        assert c.phases["b"].pim_cycles == 7.0 and c.total.rounds == 1
        assert c.total.dram_words == c.phases["a"].dram_words > 0
        assert c.matrix[0].tolist() == np.add.reduce(c.matrix[1:]).tolist()
    assert s.stats.total == PhaseCounters(cpu_ops=3.0)
    assert s.stats.labels == ("a",)


# ----------------------------------------------------------------------
# phase order does not depend on the hash seed
# ----------------------------------------------------------------------
_ORDER_SCRIPT = """
import json
import numpy as np
from repro.eval.harness import PIMZdTreeAdapter
pts = np.random.default_rng(1).random((360, 2))
ad = PIMZdTreeAdapter(pts[:300], n_modules=4, seed=3)
start = ad.system.snapshot()
m = ad.measure(lambda: ad.insert(pts[300:]) + ad.knn(pts[:20], 3))
print(json.dumps({"ledger": list(ad.system.stats.labels),
                  "diff": list(ad.system.stats.diff(start).phases),
                  "back": list(start.diff(ad.system.stats).phases),
                  "measure": list(m.phases)}))
"""


def _labels_under(hash_seed: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _ORDER_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout)


def test_phase_order_is_first_booking_order_under_any_hash_seed():
    a, b = _labels_under("1"), _labels_under("2")
    assert a == b
    # A diff lists the ledger's labels in row order, and the measurement
    # keeps that order for the phases it prices.
    assert a["diff"] == a["ledger"] == a["back"]
    assert a["measure"] == ["insert", "knn"]


@pytest.mark.parametrize("model", ["upmem", "sdk", "future", "conservative"])
def test_pricing_matches_the_scalar_formula(model):
    """``price`` over a whole ledger, ``time`` and ``traffic_bytes`` equal
    the scalar formula bit for bit, whichever component dominates."""
    from repro.pim.cost_model import CONSERVATIVE_PIM_2048, FUTURE_PIM_2048

    cm = {"upmem": upmem_scaled(64),
          "sdk": upmem_scaled(64).with_direct_api(False),
          "future": FUTURE_PIM_2048,
          "conservative": CONSERVATIVE_PIM_2048.scaled(256)}[model]
    rng = np.random.default_rng(5)
    system = PIMSystem(4)
    for i in range(40):
        scale = 10.0 ** rng.integers(0, 9, size=8)
        row = (rng.random(8) * scale).round(rng.integers(0, 3))
        row[5] = float(int(row[5]))  # rounds
        r = system.stats.add_row(f"p{i}")
        system.stats._m[r] = row
        system.stats._m[0] += row
    stats = system.stats
    priced = cm.price(stats)
    counters = [stats.total] + [stats.phases[k] for k in stats.labels]
    assert len(priced) == len(counters)
    for p, c in zip(priced, counters):
        t = oracle_time(cm, c)
        assert p == [t.cpu_s, t.pim_s, t.comm_s, t.total_s,
                     oracle_traffic_bytes(cm, c)]
        assert cm.time(c) == t
        assert cm.traffic_bytes(c) == oracle_traffic_bytes(cm, c)
        assert all(type(x) is float for x in p)
