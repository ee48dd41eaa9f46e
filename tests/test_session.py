"""Tests for ``repro.serve.session`` — the one builder behind every
serving entry point — and for the CLI surface generated around it.

The equivalence tests pin the builder to hand-assembled pipelines *once*,
so the callers (CLI runners, sweep shards, the tuner's evaluator) need no
per-caller copies of them; the rest cover the bugs the shared builder
fixed: bad flag values now end in a one-line usage error before any data
is generated, ``sweep`` carries ``--staleness-ms``, and the checkpoint
budget resolves through the knob space.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _build_parser, main
from repro.eval.experiments import _dataset
from repro.eval.harness import make_adapter
from repro.serve import (
    AdaptiveBatchPolicy,
    AdmissionQueue,
    ServeLoop,
    ServeSpec,
    build_session,
    make_requests,
    run_shard,
    run_sweep,
)
from repro.store import open_backend
from repro.tune import (
    KnobConflict,
    apply_serving_config,
    default_space,
    make_index_config,
)
from repro.workloads import ARRIVALS

GOLDEN = pathlib.Path(__file__).parent / "golden"
SMALL = dict(n=1500, n_modules=8, requests=80, rate=20_000.0, seed=5)


def _digest(result, adapter) -> tuple:
    return result.stats.to_json(), adapter.system.stats.to_dict()


def _hand_built(spec: ServeSpec):
    """The pipeline ``build_session`` replaces, assembled by hand."""
    config = default_space().validate(spec.config or {})
    data = _dataset(spec.dataset, spec.n, spec.seed)
    arrivals = ARRIVALS[spec.arrival](spec.rate, spec.requests,
                                      seed=spec.seed + 1)
    requests = make_requests(data, arrivals, mix=spec.mix, k=spec.k,
                             deadline_s=spec.deadline_s, seed=spec.seed + 2,
                             tenants=spec.tenants)
    adapter = make_adapter(spec.index, data, n_modules=spec.n_modules,
                           seed=spec.seed)
    parts = apply_serving_config(adapter, config,
                                 staleness_s=spec.staleness_s)
    loop = ServeLoop(
        adapter, AdmissionQueue(spec.queue_depth, tenants=spec.tenants),
        parts["policy"], rebalancer=parts["rebalancer"])
    return loop.run(requests), adapter


# ======================================================================
# the builder ≡ the hand-assembled pipeline
# ======================================================================
def test_default_session_equals_hand_built_loop():
    spec = ServeSpec(**SMALL)
    data = _dataset("uniform", spec.n, spec.seed)
    requests = make_requests(
        data, ARRIVALS["poisson"](spec.rate, spec.requests, seed=spec.seed + 1),
        k=10, seed=spec.seed + 2)
    adapter = make_adapter("pim", data, n_modules=spec.n_modules,
                           seed=spec.seed)
    loop = ServeLoop(adapter, AdmissionQueue(1024), AdaptiveBatchPolicy())
    want = _digest(loop.run(requests), adapter)

    session = build_session(spec)
    assert session.capacity is None  # an absolute rate: nothing calibrated
    assert _digest(session.run(), session.adapter) == want


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mix=st.sampled_from([None, {"knn": 1.0}, {"knn": 0.5, "insert": 0.5},
                         {"bc": 0.4, "bf": 0.2, "insert": 0.4}]),
    tenants=st.sampled_from([None, {"gold": 4.0, "bronze": 1.0}]),
    replicas=st.integers(1, 2),
    route=st.booleans(),
    rebalance=st.booleans(),
)
def test_session_equals_hand_built_over_mechanisms(mix, tenants, replicas,
                                                   route, rebalance):
    spec = ServeSpec(dataset="varden", mix=mix, tenants=tenants,
                     config={"replicate.k": replicas, "route.enabled": route,
                             "rebalance.enabled": rebalance},
                     **{**SMALL, "requests": 60})
    session = build_session(spec)
    assert (_digest(session.run(), session.adapter)
            == _digest(*_hand_built(spec)))


def test_run_shard_equals_inline_session():
    spec = {"dataset": "uniform", "data_seed": 5, "shard": 0, **SMALL,
            "mix": {"knn": 0.6, "insert": 0.4},
            "config": {"route.enabled": True, "replicate.k": 2}}
    shard = run_shard(spec)
    fields = {k: v for k, v in spec.items() if k != "shard"}
    result = build_session(ServeSpec(**fields)).run()
    answered = sorted((r for r in result.requests if r.status == "done"),
                      key=lambda r: r.rid)
    assert shard["n_done"] == result.stats.n_done == len(answered)
    assert shard["latency_s"] == [r.latency_s for r in answered]
    assert shard["throughput"] == result.stats.throughput


def test_run_shard_spec_keys():
    """A hand-written shard dict: a superseded pre-``ServeSpec`` key
    (``tune_config``, ``policy``, ``fixed_batch``) is an unknown key, an
    omitted ``queue_depth`` is the sweep's 4096 (not ``serve``'s 1024),
    and a typo is named instead of ending in a bare ``TypeError`` from
    the dataclass."""
    base = {"dataset": "uniform", "data_seed": 5, **SMALL}
    fixed = {"batch.policy": "fixed", "batch.fixed": 4}
    want = run_shard({**base, "config": fixed})["latency_s"]
    assert run_shard(base)["latency_s"] != want
    for key, value in (("tune_config", fixed), ("policy", "fixed"),
                       ("fixed_batch", 4)):
        with pytest.raises(ValueError, match=f"unknown shard spec key.*{key}"):
            run_shard({**base, key: value})

    seen = {}
    real_init = AdmissionQueue.__init__

    def spy(self, depth, **kw):
        seen["depth"] = depth
        real_init(self, depth, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AdmissionQueue, "__init__", spy)
        run_shard(base)
        assert seen["depth"] == 4096
        run_shard({**base, "queue_depth": 16})
        assert seen["depth"] == 16
    with pytest.raises(ValueError, match="unknown shard spec key.*queue_dept"):
        run_shard({**base, "queue_dept": 16})


def test_route_filters_hash_with_seed_zero_at_every_entry_point():
    """Before the shared builder the CLI seeded its Bloom filters 0 while
    sweep shards and the tuner's evaluator used the shard seed.  The
    builder keeps the CLI's choice (the serve goldens pin it), so a shard
    or a tuner candidate now routes exactly like ``serve`` on that spec."""
    from repro.tune.search import WORKLOADS, evaluate_config

    route = {"route.enabled": True}
    fields = {**SMALL, "seed": 11, "config": route}
    session = build_session(ServeSpec(**WORKLOADS["varden"], **fields))
    assert session.adapter.tree.route_filters.seed == 0
    stats = session.run().stats
    scored = evaluate_config({"workload": "varden", **fields})
    assert scored["comm_words"] == session.adapter.system.stats.total.comm_words
    assert scored["p99_s"] == stats.latency["p99"]


def test_faults_with_empty_plan_equals_serve(tmp_path, capsys):
    flags = ["--n", "1500", "--n-modules", "8", "--requests", "80",
             "--rate", "20000", "--mix", "knn=0.7,insert=0.3"]
    docs = {}
    for command in ("serve", "faults"):
        out = tmp_path / f"{command}.json"
        assert main([command, *flags, "--out", str(out)]) == 0
        docs[command] = json.loads(out.read_text())
    capsys.readouterr()
    assert docs["faults"].pop("faults") == []  # nothing was injected
    assert docs["faults"] == docs["serve"]


def test_spec_is_picklable_and_validation_is_idempotent():
    spec = ServeSpec(tenants={"gold": 4.0}, config={"replicate.k": 2},
                     **SMALL).validate()
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert spec.validate() == spec
    assert spec.data_seed == spec.seed
    assert spec.config["replicate.k"] == 2
    assert spec.config["batch.policy"] == "adaptive"  # defaults filled in


# ======================================================================
# bad values: one-line usage error, exit 2, before any data exists
# ======================================================================
TINY = ["--n", "1500", "--n-modules", "8", "--requests", "20"]

BAD_INVOCATIONS = {
    "queue-depth": ["serve", *TINY, "--queue-depth", "0"],
    "rate": ["serve", *TINY, "--rate", "0"],
    "load": ["serve", *TINY, "--load", "-1"],
    "k": ["serve", *TINY, "--k", "0"],
    "deadline": ["serve", *TINY, "--deadline-ms", "-5"],
    "staleness": ["serve", *TINY, "--replicate", "2", "--staleness-ms", "-1"],
    "retries": ["faults", *TINY, "--retries", "-1"],
    "backoff": ["faults", *TINY, "--backoff-ms", "-1"],
    "timeout": ["faults", *TINY, "--timeout-ms", "0"],
    "budget-fraction": ["store", "demo", *TINY, "--budget-fraction", "-1"],
    "sweep-k": ["sweep", *TINY, "--rate", "1000", "--k", "0"],
    "treeless": ["serve", *TINY, "--index", "zd", "--rebalance"],
}


@pytest.mark.parametrize("name", sorted(BAD_INVOCATIONS))
def test_bad_flag_value_is_a_usage_error(name, monkeypatch, capsys):
    def no_data(*a, **kw):
        raise AssertionError("dataset generated before validation")

    monkeypatch.setattr("repro.serve.session._dataset", no_data)
    assert main(BAD_INVOCATIONS[name]) == 2
    out = capsys.readouterr().out.strip()
    assert out.startswith("error: ") and "\n" not in out
    # The adapter hint belongs to the treeless-adapter error alone.
    assert ("--index" in out) == (name == "treeless")


def test_validate_names_the_field():
    with pytest.raises(ValueError, match="queue_depth must be positive"):
        ServeSpec(queue_depth=0).validate()
    with pytest.raises(ValueError, match="max_retries must be >= 0"):
        ServeSpec(max_retries=-1).validate()
    with pytest.raises(ValueError, match="mix must give request kinds"):
        ServeSpec(mix={"scan": 1.0}).validate()
    with pytest.raises(ValueError, match="weight must be positive"):
        ServeSpec(tenants={"gold": 0.0}).validate()
    with pytest.raises(ValueError, match="unknown knob"):
        ServeSpec(config={"no.such": 1}).validate()


# ======================================================================
# drift between callers, fixed by construction
# ======================================================================
def test_sweep_carries_staleness_bound(monkeypatch, capsys):
    """``sweep --staleness-ms`` used to be parsed and then dropped: every
    shard ran at the 1 ms default."""
    seen = []
    real_run = ServeLoop.run

    def spy(self, requests):
        result = real_run(self, requests)
        seen.append(result.stats.replication)
        return result

    monkeypatch.setattr(ServeLoop, "run", spy)
    rc = main(["sweep", *TINY, "--rate", "20000", "--procs", "1",
               "--mix", "knn=0.5,insert=0.5", "--replicate", "2",
               "--write-policy", "primary-async", "--staleness-ms", "50"])
    capsys.readouterr()
    assert rc == 0 and len(seen) == 1
    assert seen[0]["staleness_bound_s"] == pytest.approx(0.05)


def test_checkpoint_budget_resolves_through_the_knob_space(tmp_path, capsys):
    rc = main(["store", "demo", *TINY, "--budget-fraction", "0.2",
               "--path", str(tmp_path / "s")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tuned knobs: checkpoint.budget_fraction=0.2 [flag]" in out

    session = build_session(
        ServeSpec(config={"checkpoint.budget_fraction": 0.2}, **SMALL),
        backend=open_backend("file", tmp_path / "t"))
    assert session.parts["store"].budget_fraction == 0.2


def test_profile_moving_checkpoint_budget_conflicts_without_a_store(
        tmp_path, capsys):
    """A knob the command cannot apply is a conflict, not a silent drop."""
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({
        "format": "repro.tune/profile-1", "workload": "uniform", "seed": 7,
        "config": {"checkpoint.budget_fraction": 0.2}}))
    assert main(["serve", *TINY, "--rate", "1000",
                 "--profile", str(profile)]) == 2
    assert "checkpoint.budget_fraction" in capsys.readouterr().out

    space = default_space()
    no_store = argparse.Namespace()  # a command with no knob flags at all
    with pytest.raises(KnobConflict, match="cannot apply it"):
        space.from_args(no_store,
                        profile={"checkpoint.budget_fraction": 0.2})
    assert (space.from_args(no_store).config == space.default_config())


def test_removed_arguments_are_gone():
    with pytest.raises(TypeError):
        run_sweep(rate=1000.0, total_requests=4, policy="fixed")
    with pytest.raises(TypeError):
        run_sweep(rate=1000.0, total_requests=4, fixed_batch=8)
    # ... and ``staleness_s`` is the only keyword run_sweep gained: the
    # ServeSpec fields a sharded sweep cannot honour are not settable.
    import inspect

    assert set(inspect.signature(run_sweep).parameters) == {
        "dataset", "n", "n_modules", "index", "total_requests", "rate",
        "procs", "seed", "mix", "k", "deadline_s", "queue_depth", "overflow",
        "arrival", "tenants", "tune_config",
        "staleness_s"}
    with pytest.raises(TypeError):
        run_sweep(rate=1000.0, total_requests=4, adapt=True)
    with pytest.raises(TypeError):
        make_index_config(default_space().default_config(), kind="pim",
                          n_points=100, n_modules=4, sim_mode="vector")


# ======================================================================
# the generated CLI surface
# ======================================================================
def _flags_by_subcommand() -> dict[str, set[str]]:
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, p in sub.choices.items()}


def test_no_new_cli_flags():
    """Per subcommand, the flags are a subset of the frozen pre-refactor
    list (``tests/golden/cli_flags.json``): generating flags from the
    knob records must not mint options."""
    frozen = json.loads((GOLDEN / "cli_flags.json").read_text())
    now = _flags_by_subcommand()
    assert set(now) == set(frozen)
    for name, flags in now.items():
        assert flags <= set(frozen[name]), (name, flags - set(frozen[name]))


# Flags the parser used to accept and then drop: the fig7 runner sweeps
# batch sizes and fig8 dataset sizes, and the batcher sizes a serving
# run's batches.
DROPPED_FLAGS = {
    "fig7-batch": ["fig7", "--batch", "64"],
    "fig8-n": ["fig8", "--n", "5000"],
    "serve-batch": ["serve", "--batch", "64"],
    "faults-batch": ["faults", "--batch", "64"],
    "sweep-batch": ["sweep", "--batch", "64"],
    "tune-batch": ["tune", "search", "--batch", "64"],
    "store-batch": ["store", "demo", "--batch", "64"],
}


@pytest.mark.parametrize("name", sorted(DROPPED_FLAGS))
def test_dropped_flags_exit_2(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(DROPPED_FLAGS[name])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_knob_has_exactly_one_generated_flag():
    flags = _flags_by_subcommand()
    for knob in default_space().knobs:
        on_store = knob.name == "checkpoint.budget_fraction"
        assert (knob.flag in flags["store"]) == on_store
        for command in ("serve", "faults", "sweep", "tune"):
            assert (knob.flag in flags[command]) != on_store


def test_arrival_choices_come_from_the_registry():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    arrival = next(a for a in sub.choices["serve"]._actions
                   if a.dest == "arrival")
    assert list(arrival.choices) == sorted(ARRIVALS)
    assert math.isfinite(ARRIVALS["bursty"](100.0, 5, seed=1)[-1])


# ======================================================================
# subcommands that share the report helpers but build no session: each
# used to be reached by a CI smoke step only
# ======================================================================
def test_store_inspect_and_recover_after_demo(tmp_path, capsys):
    path = str(tmp_path / "store")
    assert main(["store", "demo", *TINY, "--requests", "120",
                 "--kill-round", "30", "--path", path]) == 0
    assert "recovery trace reconciles exactly" in capsys.readouterr().out
    assert main(["store", "inspect", "--path", path]) == 0
    assert "snapshot: v" in capsys.readouterr().out
    assert main(["store", "recover", "--path", path]) == 0
    out = capsys.readouterr().out
    assert "charged restart cost" in out and "trace reconciles exactly" in out
    assert main(["store", "inspect"]) == 2


def test_tune_search_then_report(tmp_path, capsys):
    profile = tmp_path / "p.json"
    assert main(["tune", "search", "--workload", "uniform", "--n", "800",
                 "--n-modules", "4", "--requests", "40", "--generations", "1",
                 "--beam", "1", "--knobs", "batch.policy",
                 "--out", str(profile)]) == 0
    assert "tuned knobs:" in capsys.readouterr().out
    assert main(["tune", "report", "--profile", str(profile)]) == 0
    assert "=== tuned profile — workload uniform" in capsys.readouterr().out
    assert main(["tune", "report"]) == 2
    assert main(["tune", "search", "--rebalance"]) == 2
    assert "belong to 'tune apply'" in capsys.readouterr().out


def test_balance_reports_phase_share_and_reconciles(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["balance", "--n", "3000", "--n-modules", "8", "--steps", "3",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "rebalance phase:" in text and "traces reconcile exactly" in text
    assert json.loads(out.read_text())["reconciliation"]["exact"] is True
