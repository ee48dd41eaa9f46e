"""Tests for the open-loop serving layer (``repro.serve``).

Covers: percentile math against a brute-force oracle, admission-queue
overflow/backpressure (nothing is ever dropped silently), batch-policy
behaviour on synthetic amortisation curves, event-loop stamping
invariants, run-to-run determinism (byte-identical ``LatencyStats``), the
obs JSON/CSV exports, and a golden latency snapshot.
"""

from __future__ import annotations

import json
import math
import os
import pathlib

import numpy as np
import pytest

from repro.eval import make_adapter
from repro.eval.metrics import percentile
from repro.obs import latency_csv, latency_json, write_latency
from repro.serve import (
    AdaptiveBatchPolicy,
    AdmissionQueue,
    FixedBatchPolicy,
    LatencyStats,
    Request,
    ServeLoop,
    calibrate_capacity,
    latency_summary,
    make_requests,
)
from repro.workloads import poisson_arrivals, uniform_points

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))


# ----------------------------------------------------------------------
# percentile math vs a brute-force oracle
# ----------------------------------------------------------------------
def brute_nearest_rank(values, q):
    """Oracle: sort, take the ceil(q/100 * n)-th value (1-indexed)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(vals)))
    return vals[rank - 1]


class TestPercentileOracle:
    def test_matches_bruteforce_on_random_lists(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 7, 50, 999, 1000, 1001):
            vals = rng.random(n).tolist()
            for q in (50.0, 90.0, 99.0, 99.9):
                assert percentile(vals, q) == brute_nearest_rank(vals, q)

    def test_known_values(self):
        vals = list(range(1, 101))  # 1..100
        assert percentile(vals, 50) == 50
        assert percentile(vals, 99) == 99
        assert percentile(vals, 100) == 100
        assert percentile([7.0], 99.9) == 7.0

    def test_latency_summary_fields(self):
        rng = np.random.default_rng(1)
        vals = rng.random(500).tolist()
        s = latency_summary(vals)
        for name, q in (("p50", 50), ("p90", 90), ("p99", 99), ("p999", 99.9)):
            assert s[name] == brute_nearest_rank(vals, q)
        assert s["max"] == max(vals)
        assert s["mean"] == pytest.approx(sum(vals) / len(vals))
        assert s["p50"] <= s["p90"] <= s["p99"] <= s["p999"] <= s["max"]

    def test_empty_is_nan(self):
        s = latency_summary([])
        assert all(math.isnan(v) for v in s.values())


# ----------------------------------------------------------------------
# admission queue: bounded depth, explicit backpressure
# ----------------------------------------------------------------------
def _req(rid, kind="knn", t=0.0, k=10):
    return Request(rid=rid, kind=kind, payload=None, arrival_s=t, k=k)


class TestAdmissionQueue:
    def test_reject_when_full(self):
        q = AdmissionQueue(3, overflow="reject")
        assert all(q.offer(_req(i), float(i)) for i in range(3))
        r = _req(3)
        assert not q.offer(r, 3.0)
        assert r.status == "rejected" and r.enqueue_s == 3.0
        assert len(q) == 3 and q.rejected == [r] and not q.shed

    def test_shed_oldest_when_full(self):
        q = AdmissionQueue(2, overflow="shed-oldest")
        r0, r1, r2 = _req(0), _req(1), _req(2)
        q.offer(r0, 0.0)
        q.offer(r1, 1.0)
        assert q.offer(r2, 2.0)  # admitted; r0 evicted
        assert r0.status == "shed" and q.shed == [r0]
        assert [r.rid for r in q.take(("knn", 10), 10)] == [1, 2]

    def test_nothing_silent(self):
        """Every offered request ends queued, rejected, or shed."""
        q = AdmissionQueue(4, overflow="shed-oldest")
        reqs = [_req(i) for i in range(10)]
        for i, r in enumerate(reqs):
            q.offer(r, float(i))
        assert len(q) + len(q.rejected) + len(q.shed) == len(reqs)
        assert all(r.status in ("queued", "rejected", "shed") for r in reqs)

    def test_take_is_fifo_and_group_scoped(self):
        q = AdmissionQueue(10)
        a = [_req(i, kind="knn") for i in range(3)]
        b = [_req(10 + i, kind="bc", k=0) for i in range(2)]
        for i, r in enumerate([a[0], b[0], a[1], b[1], a[2]]):
            q.offer(r, float(i))
        assert q.head_group() == ("knn", 10)
        assert q.backlog(("knn", 10)) == 3 and q.backlog(("bc", 0)) == 2
        taken = q.take(("knn", 10), 2)
        assert [r.rid for r in taken] == [0, 1]
        assert q.head_group() == ("bc", 0)  # b[0] is now oldest
        assert len(q) == 3

    def test_expire_counts_from_enqueue_not_arrival(self):
        """Regression: a request re-offered late (restart/retry paths)
        must not be charged queue-wait it never spent here.  The old
        implementation timed out against ``arrival_s``, expiring this
        request (now=12, arrival=0, timeout=5) despite only 2s in queue."""
        q = AdmissionQueue(4)
        r = _req(0, t=0.0)
        q.offer(r, now=10.0)  # re-enters the queue long after arrival
        assert q.expire(12.0, 5.0) == []
        assert r.status == "queued" and len(q) == 1
        # Once 5s of *queue residence* elapse it does expire, stamped at
        # the instant the timeout elapsed, not at the expire() call.
        assert q.expire(15.5, 5.0) == [r]
        assert r.status == "timed_out"
        assert r.complete_s == r.enqueue_s + 5.0 == 15.0

    def test_expired_leave_in_admission_order(self):
        q = AdmissionQueue(8)
        reqs = [_req(i, kind=("knn" if i % 2 else "bc"),
                     k=(10 if i % 2 else 0)) for i in range(6)]
        for r in reqs:
            q.offer(r, now=0.0)
        out = q.expire(10.0, 1.0)
        assert [r.rid for r in out] == [0, 1, 2, 3, 4, 5]
        assert q.is_empty and q.timed_out == out

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)
        with pytest.raises(ValueError):
            AdmissionQueue(4, overflow="drop")
        with pytest.raises(ValueError):
            AdmissionQueue(4).take(("knn", 10), 0)


# ----------------------------------------------------------------------
# batch policies
# ----------------------------------------------------------------------
class TestBatchPolicies:
    def test_fixed_caps_at_batch(self):
        p = FixedBatchPolicy(8)
        g = ("knn", 10)
        assert p.batch_size(g, 3) == 3
        assert p.batch_size(g, 100) == 8
        with pytest.raises(ValueError):
            FixedBatchPolicy(0)

    def test_adaptive_bootstrap_doubles(self):
        p = AdaptiveBatchPolicy()
        g = ("knn", 10)
        sizes = []
        for _ in range(4):
            b = p.batch_size(g, backlog=1000)
            sizes.append(b)
            p.observe(g, b, 1e-3)  # constant time: fit degenerate until 2 sizes
        assert sizes[:2] == [1, 2]  # doubling probe schedule

    def test_adaptive_recovers_amortisation_knee(self):
        """Feed a clean t = a + b*B curve; B* must hit the overhead target."""
        a, b = 1e-4, 1e-5
        p = AdaptiveBatchPolicy(overhead_target=0.1)
        g = ("knn", 10)
        for size in (4, 8, 16, 64):
            p.observe(g, size, a + b * size)
        b_star = p.batch_size(g, backlog=10_000)
        assert b_star == math.ceil(a * 0.9 / (b * 0.1))
        # Overhead share at B* is at most the target.
        assert a / (a + b * b_star) <= 0.1 + 1e-9
        # Backlog still caps the dispatch.
        assert p.batch_size(g, backlog=5) == 5

    def test_adaptive_degenerate_fits(self):
        g = ("knn", 10)
        p = AdaptiveBatchPolicy()          # b <= 0: amortise, but clamped
        p.observe(g, 10, 5e-3)
        p.observe(g, 100, 5e-3)
        # A degenerate (flat) fit must not cliff-jump to max_batch: the
        # choice is capped at 2x the largest batch observed in the window.
        assert p.batch_size(g, 10 ** 6) == 200
        p2 = AdaptiveBatchPolicy()         # a <= 0: no overhead, serve fine
        p2.observe(g, 10, 1e-4)
        p2.observe(g, 100, 1e-3)
        assert p2.batch_size(g, 10 ** 6) == p2.min_batch

    def test_adaptive_noisy_fit_clamped(self):
        """A noisy window whose extrapolated B* overshoots the observed
        range is clamped to 2x the largest observed batch (regression:
        the old policy jumped straight to max_batch=4096)."""
        g = ("knn", 10)
        p = AdaptiveBatchPolicy(overhead_target=0.01)
        # Huge apparent fixed overhead vs tiny marginal cost: the raw
        # B* = ceil(a*(1-f)/(b*f)) lands far beyond anything observed.
        p.observe(g, 4, 1.0)
        p.observe(g, 8, 1.0 + 4e-6)
        raw = p.batch_size(g, 10 ** 6)
        assert raw == 16  # 2 * max observed (8), not max_batch
        # The clamp rides up as bigger batches are actually observed.
        p.observe(g, 16, 1.0 + 1.2e-5)
        assert p.batch_size(g, 10 ** 6) == 32

    def test_adaptive_validation(self):
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(overhead_target=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(min_batch=10, max_batch=5)


# ----------------------------------------------------------------------
# serving loop end-to-end on the simulator
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_data():
    return uniform_points(1500, 3, seed=11)


def _scenario(data, *, n_req=160, rate=40_000.0, depth=64,
              overflow="reject", policy=None, mix=None, deadline_s=0.05):
    """One fully deterministic serve run on a fresh adapter."""
    adapter = make_adapter("pim", data, n_modules=8, seed=3)
    arrivals = poisson_arrivals(rate, n_req, seed=21)
    requests = make_requests(
        data, arrivals,
        mix=mix or {"knn": 0.6, "bc": 0.15, "bf": 0.15, "insert": 0.1},
        k=5, deadline_s=deadline_s, seed=22,
    )
    policy = policy if policy is not None else AdaptiveBatchPolicy()
    loop = ServeLoop(adapter, AdmissionQueue(depth, overflow=overflow), policy)
    return loop.run(requests)


class TestServeLoop:
    def test_lifecycle_stamps(self, serve_data):
        res = _scenario(serve_data)
        done = [r for r in res.requests if r.status == "done"]
        assert done, "scenario must complete requests"
        for r in done:
            assert r.enqueue_s == r.arrival_s
            assert r.dispatch_s >= r.arrival_s
            assert r.complete_s > r.dispatch_s
            assert r.latency_s == pytest.approx(r.queue_s + r.service_s)
            assert r.batch_id >= 0
        # Batch members share dispatch/completion (BSP batches finish together).
        for b in res.batches:
            members = [r for r in done if r.batch_id == b.bid]
            assert len(members) == b.size
            assert all(r.dispatch_s == b.dispatch_s for r in members)
            assert all(r.kind == b.kind for r in members)

    def test_accounting_never_silent(self, serve_data):
        res = _scenario(serve_data, n_req=200, rate=500_000.0, depth=16)
        s = res.stats
        assert s.n_rejected > 0, "overload scenario must exercise backpressure"
        assert s.n_offered == s.n_done + s.n_rejected + s.n_shed
        assert all(r.status in ("done", "rejected", "shed")
                   for r in res.requests)

    def test_shed_oldest_policy(self, serve_data):
        res = _scenario(serve_data, n_req=200, rate=500_000.0, depth=16,
                        overflow="shed-oldest")
        s = res.stats
        assert s.n_shed > 0 and s.n_rejected == 0
        assert s.n_offered == s.n_done + s.n_shed

    def test_virtual_clock_monotone(self, serve_data):
        res = _scenario(serve_data)
        ends = [b.dispatch_s + b.service_s for b in res.batches]
        for b, prev_end in zip(res.batches[1:], ends):
            assert b.dispatch_s >= prev_end - 1e-12
        assert all(b.service_s > 0 for b in res.batches)

    def test_mixed_kinds_complete(self, serve_data):
        res = _scenario(serve_data)
        assert set(res.stats.by_kind) == {"knn", "bc", "bf", "insert"}
        assert sum(res.stats.by_kind.values()) == res.stats.n_done

    def test_goodput_respects_deadline(self, serve_data):
        tight = _scenario(serve_data, deadline_s=1e-9).stats
        loose = _scenario(serve_data, deadline_s=10.0).stats
        assert tight.n_late == tight.n_done      # nothing meets 1ns
        assert tight.goodput == 0.0
        assert loose.n_late == 0
        assert loose.goodput == loose.throughput

    def test_adaptive_policy_serves_every_request(self, serve_data):
        adapter = make_adapter("pim", serve_data, n_modules=8, seed=3)
        arrivals = poisson_arrivals(20_000.0, 40, seed=5)
        reqs = make_requests(serve_data, arrivals, mix={"knn": 1.0}, k=5,
                             seed=6)
        loop = ServeLoop(adapter, AdmissionQueue(64), AdaptiveBatchPolicy())
        res = loop.run(reqs)
        assert res.stats.n_done == 40

    def test_calibrate_capacity(self, serve_data):
        adapter = make_adapter("pim", serve_data, n_modules=8, seed=3)
        cap = calibrate_capacity(adapter, serve_data, k=5, batch=64, seed=1)
        assert cap > 0
        with pytest.raises(ValueError):
            calibrate_capacity(adapter, serve_data, kind="bc")


# ----------------------------------------------------------------------
# determinism: identical runs → byte-identical LatencyStats
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_two_runs_byte_identical(self, serve_data):
        a = _scenario(serve_data).stats.to_json()
        b = _scenario(serve_data).stats.to_json()
        assert a == b
        assert json.loads(a) == json.loads(b)

    def test_policy_changes_stats(self, serve_data):
        ada = _scenario(serve_data, rate=200_000.0).stats.to_json()
        fix = _scenario(serve_data, rate=200_000.0,
                        policy=FixedBatchPolicy(1)).stats.to_json()
        assert ada != fix


# ----------------------------------------------------------------------
# obs exports
# ----------------------------------------------------------------------
class TestExports:
    def test_json_and_csv(self, serve_data, tmp_path):
        res = _scenario(serve_data)
        doc = write_latency(res.stats, json_path=tmp_path / "lat.json",
                            csv_path=tmp_path / "lat.csv",
                            batches=res.batches)
        assert doc["format"] == "repro.obs/serve-1"
        loaded = json.loads((tmp_path / "lat.json").read_text())
        assert loaded["stats"]["n_done"] == res.stats.n_done
        assert len(loaded["batches"]) == len(res.batches)
        csv = (tmp_path / "lat.csv").read_text()
        assert csv.splitlines()[0] == "metric,value"
        assert any(line.startswith("latency_s.p99,") for line in csv.splitlines())

    def test_latency_json_without_batches(self, serve_data):
        doc = latency_json(_scenario(serve_data).stats)
        assert "batches" not in doc
        assert latency_csv(_scenario(serve_data).stats).count("\n") > 10


# ----------------------------------------------------------------------
# golden latency snapshot
# ----------------------------------------------------------------------
def _round_floats(obj, sig=9):
    """Round floats to ``sig`` significant digits (absorbs libm jitter
    across platforms while catching any real accounting change)."""
    if isinstance(obj, float):
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v, sig) for v in obj]
    return obj


def test_golden_latency_snapshot(serve_data):
    path = GOLDEN_DIR / "serve_latency.json"
    got = _round_floats(_scenario(serve_data).stats.to_dict())
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with "
        "REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_serve.py"
    )
    want = json.loads(path.read_text())
    assert got == want, (
        f"serve latency snapshot diverges from {path.name}:\n"
        f"  want={want}\n  got ={got}"
    )
