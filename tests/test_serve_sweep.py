"""Tests for the sharded sweep runner (``repro.serve.sweep``) and its CLI.

The sweep's contract is *replica semantics with a deterministic merge*:
shard ``i`` of ``S`` is an independent serving replica seeded
``seed + 1000·i``, latencies are pooled before the percentile summary,
counts and rates are summed, and the merge is keyed by shard index — so
the merged result must be byte-stable across repeated runs and across
inline vs. worker-pool execution, no matter how the OS schedules the
workers.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from sim_oracle import ScalarPIMSystem

import repro.eval.harness
from repro.serve import SweepResult, SweepShardError, run_shard, run_sweep
from repro.serve.sweep import _shard_specs

SMALL = dict(dataset="uniform", n=2000, n_modules=8, total_requests=240,
             rate=30_000, seed=5)


def _strip_wall(d: dict) -> dict:
    d = dict(d)
    d.pop("wall_s")
    d.pop("shard_wall_s")
    return d


class TestSharding:
    def test_split_and_seeds(self):
        specs = _shard_specs(procs=3, total_requests=5, seed=7, spec_kw={})
        assert [s["requests"] for s in specs] == [2, 2, 1]
        assert [s["seed"] for s in specs] == [7, 1007, 2007]

    def test_more_procs_than_requests(self):
        specs = _shard_specs(procs=8, total_requests=2, seed=0, spec_kw={})
        assert [s["requests"] for s in specs] == [1, 1]

    def test_counts_sum_to_offered(self):
        r = run_sweep(procs=2, **SMALL)
        assert isinstance(r, SweepResult)
        assert r.n_shards == 2
        assert r.n_offered == SMALL["total_requests"]
        assert (r.n_done + r.n_failed + r.n_timed_out
                + r.n_rejected + r.n_shed) == r.n_offered

    def test_rate_is_required_keyword(self):
        with pytest.raises(TypeError):
            run_sweep(dataset="uniform", n=2000, total_requests=10)  # no rate


class TestDeterminism:
    def test_pooled_runs_are_identical(self):
        a = run_sweep(procs=2, **SMALL)
        b = run_sweep(procs=2, **SMALL)
        assert _strip_wall(a.to_dict()) == _strip_wall(b.to_dict())

    def test_pool_matches_inline_shards(self):
        """The worker pool must add nothing: merging the same shard specs
        run inline in this process gives the same pooled latencies."""
        r = run_sweep(procs=2, **SMALL)
        spec_kw = dict(dataset=SMALL["dataset"], n=SMALL["n"],
                       data_seed=SMALL["seed"], n_modules=SMALL["n_modules"],
                       index="pim", rate=float(SMALL["rate"]), mix=None,
                       k=10, deadline_s=float("inf"), queue_depth=4096,
                       overflow="reject", arrival="poisson")
        specs = _shard_specs(procs=2, total_requests=SMALL["total_requests"],
                             seed=SMALL["seed"], spec_kw=spec_kw)
        shards = [run_shard(s) for s in specs]
        assert [s["seed"] for s in shards] == r.shard_seeds
        pooled = np.concatenate([np.asarray(s["latency_s"]) for s in shards])
        assert r.n_done == sum(s["n_done"] for s in shards)
        assert r.latency["p99"] == float(np.sort(pooled)[
            int(np.ceil(0.99 * len(pooled))) - 1])

    def test_sim_modes_agree_through_the_sweep(self, monkeypatch):
        """Inline shards on the scalar oracle core serve identically."""
        b = run_sweep(procs=1, **SMALL)
        monkeypatch.setattr(repro.eval.harness, "PIMSystem", ScalarPIMSystem)
        a = run_sweep(procs=1, **SMALL)
        assert _strip_wall(a.to_dict()) == _strip_wall(b.to_dict())


class TestShardFailure:
    """A failed shard must surface as SweepShardError naming the shard.

    Before the fix, a worker exception escaped ``pool.map`` as a bare
    remote traceback with no way to tell *which* replica (and seed) died
    — useless for re-running the one bad shard.
    """

    def _flaky(self, monkeypatch, bad_shard: int):
        import repro.serve.sweep as sweep_mod

        real = sweep_mod.run_shard

        def run_shard_patched(spec):
            if spec["shard"] == bad_shard:
                raise ValueError("injected shard failure")
            return real(spec)

        monkeypatch.setattr(sweep_mod, "run_shard", run_shard_patched)

    @pytest.mark.parametrize("procs", [1, 2])
    def test_failure_names_shard_and_seed(self, monkeypatch, procs):
        bad = procs - 1  # the last shard, so at least one succeeds first
        self._flaky(monkeypatch, bad)
        with pytest.raises(SweepShardError) as exc:
            run_sweep(procs=procs, **SMALL)
        e = exc.value
        assert e.shard_index == bad
        assert e.seed == SMALL["seed"] + 1000 * bad
        assert "injected shard failure" in str(e)
        assert f"shard {bad}" in str(e) and str(e.seed) in str(e)
        # The worker-side traceback rides along for debugging.
        assert "ValueError" in e.worker_traceback

    def test_real_failure_path_no_monkeypatch(self):
        """An actually-bad spec (unknown arrival kind) gets the same
        treatment — the error is not an artifact of the injection."""
        with pytest.raises(SweepShardError) as exc:
            run_sweep(procs=1, arrival="bogus", **SMALL)
        assert exc.value.shard_index == 0
        assert exc.value.seed == SMALL["seed"]
        assert "KeyError" in str(exc.value)


class TestCLI:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *args],
            capture_output=True, text=True, timeout=600,
        )

    def test_sweep_subcommand(self, tmp_path):
        out = self._run(
            "sweep", "--n", "2000", "--n-modules", "8", "--requests", "200",
            "--rate", "30000", "--procs", "2",
            "--out", str(tmp_path / "sweep.json"),
            "--csv", str(tmp_path / "sweep.csv"),
        )
        assert out.returncode == 0, out.stderr
        assert "shards            2" in out.stdout
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["n_offered"] == 200
        assert doc["shard_seeds"] == [7, 1007]
        csv = (tmp_path / "sweep.csv").read_text()
        assert csv.startswith("metric,value")
        assert "latency_p99," in csv

    def test_sweep_accepts_rebalance(self):
        """Sweep ingests knobs through the same ConfigSpace path as serve:
        each shard builds its own rebalancer (the old hard rejection is
        gone), and non-default knobs are reported."""
        out = self._run("sweep", "--n", "2000", "--requests", "10",
                        "--rate", "1000", "--rebalance")
        assert out.returncode == 0, out.stdout + out.stderr
        assert "tuned knobs: rebalance.enabled=True [flag]" in out.stdout

    def test_sweep_rejects_ungated_refinement(self):
        """--rebalance-ratio without --rebalance is a loud conflict, not
        the historical silent drop (and the same message serve prints)."""
        out = self._run("sweep", "--n", "2000", "--requests", "10",
                        "--rate", "1000", "--rebalance-ratio", "2.0")
        assert out.returncode == 2
        assert "requires rebalance.enabled=True" in out.stdout
