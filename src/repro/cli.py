"""Command-line driver: regenerate any paper experiment from a shell.

Examples::

    python -m repro.cli list
    python -m repro.cli fig5 --dataset osm --n 30000
    python -m repro.cli table3 --batch 256
    python -m repro.cli all --out results/
    python -m repro.cli trace --ops insert,bc-10,10-nn --out trace.json
    python -m repro.cli serve --arrival poisson --load 0.8 --out latency.json
    python -m repro.cli faults --drop-rate 0.02 --crash 3@40 --retries 3
    python -m repro.cli balance --dataset varden --steps 24 --out balance.json
    python -m repro.cli store demo --kill-round 30 --path /tmp/zd-store
    python -m repro.cli store inspect --path /tmp/zd-store
    python -m repro.cli store recover --path /tmp/zd-store
    python -m repro.cli tune search --workload varden --out varden.json
    python -m repro.cli tune report --profile varden.json
    python -m repro.cli tune apply --profile varden.json --dataset varden
    python -m repro.cli serve --profile varden.json --adapt

``all`` runs every experiment and (with ``--out``) writes one markdown
report plus a JSON dump of the raw rows.  ``trace`` runs a workload with
the ``repro.obs`` collector attached and exports the per-phase/per-module
timeline (JSON, optionally CSV), checking that the trace reconciles
exactly with the simulator's counters.  ``faults`` is ``serve`` under a
seeded :class:`repro.faults.FaultPlan`: module crashes, straggler storms
and message drops are injected, the loop retries/fails over/degrades,
and the report adds availability, the fault-event summary and the
recovery phase's share of simulated time.  ``balance`` attacks a
hash-colocated hot module with an adversarial kNN stream and serves it
twice — rebalance off, then on — reporting the throughput recovery, the
chunk migrations and the ``"rebalance"`` phase's share of simulated
time; ``serve``/``faults`` accept ``--rebalance`` to step the online
rebalancer between batches of an open-loop run.  ``store`` drives the
durable tier: ``demo`` serves with checkpoint + WAL attached (optionally
killing the whole machine mid-run and restarting from disk, charged
under the ``"recovery"`` phase), ``inspect`` prints an on-disk store's
manifest and WAL record table, and ``recover`` rebuilds the index from
disk and reports the charged restart cost.  ``tune`` drives the
self-tuning subsystem (``repro.tune``): ``search`` runs the offline
strategy-tree policy search over the serving config space and emits a
tuned profile, ``report`` prints a profile's headline numbers, and
``apply`` serves with the profile's knobs applied.

Every serving subcommand goes through one pipeline: knob flags are
generated from the :class:`repro.tune.Knob` records and read back by
:meth:`repro.tune.ConfigSpace.from_args` (defaults < ``--profile`` <
flags; contradicting sources, or ``--rebalance-ratio`` without its
``--rebalance`` gate, are loud errors), the other flags become a
:class:`repro.serve.ServeSpec` validated before any data exists, and
:func:`repro.serve.build_session` builds the run.  ``--adapt``
(serve/faults) also runs the online controller.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from .eval.experiments import ALL_EXPERIMENTS, DATASETS, ExperimentResult

_COMMON_PARAMS = {
    "n": (int, "warmup dataset size"),
    "batch": (int, "operations per measured batch"),
    "n_modules": (int, "simulated PIM modules"),
    "seed": (int, "master seed"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate the PIM-zd-tree paper's tables and figures "
                    "on the simulated PIM system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    for name in ALL_EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_common(p, dataset={"fig5": "uniform", "latency": "osm"}.get(name))

    p_all = sub.add_parser("all", help="run every experiment")
    _add_common(p_all)
    p_all.add_argument("--out", type=Path, default=None,
                       help="directory for report.md / results.json")

    p_tr = sub.add_parser(
        "trace",
        help="run a traced workload; export the per-phase/per-module timeline",
    )
    _add_common(p_tr, dataset="uniform")
    p_tr.add_argument("--ops", default="insert,bc-10,bf-10,10-nn",
                      help="comma-separated Fig. 5 operation names")
    p_tr.add_argument("--out", type=Path, default=None,
                      help="path for the JSON trace document")
    p_tr.add_argument("--csv", type=Path, default=None,
                      help="path for the per-phase CSV table")
    p_tr.add_argument("--ring", type=int, default=65536,
                      help="raw-event ring-buffer capacity")
    p_tr.add_argument("--no-events", action="store_true",
                      help="omit raw events from the JSON document")
    p_tr.set_defaults(n=20_000, batch=256, n_modules=32, seed=7)

    p_sv = sub.add_parser(
        "serve",
        help="open-loop serving run: arrival process, admission queue, "
             "continuous batching, latency stats",
    )
    _add_serve_args(p_sv)

    p_ft = sub.add_parser(
        "faults",
        help="serving run under a seeded fault plan: crashes, straggler "
             "storms, message drops; retry/failover/degraded-mode stats",
    )
    _add_serve_args(p_ft, index_choices=["pim", "pim-skew"])
    p_ft.add_argument("--fault-seed", type=int, default=None,
                      help="fault-plan RNG seed (default: master seed)")
    p_ft.add_argument("--crash", action="append", default=None,
                      metavar="MID@ROUND",
                      help="schedule a module crash, e.g. --crash 3@40 "
                           "(repeatable)")
    p_ft.add_argument("--crash-rate", type=float, default=0.0,
                      help="per-(module, round) crash probability")
    p_ft.add_argument("--max-crashes", type=int, default=None,
                      help="cap on random crashes")
    p_ft.add_argument("--drop-rate", type=float, default=0.0,
                      help="per-transfer CPU<->PIM message-loss probability")
    p_ft.add_argument("--slow", action="append", default=None,
                      metavar="MID:FACTOR",
                      help="static straggler slowdown, e.g. --slow 0:4 "
                           "(repeatable)")
    p_ft.add_argument("--storm-rate", type=float, default=0.0,
                      help="per-round probability a straggler storm starts")
    p_ft.add_argument("--storm-factor", type=float, default=8.0,
                      help="cycle multiplier during a storm")
    p_ft.add_argument("--storm-rounds", type=int, default=4,
                      help="rounds a storm lasts")
    p_ft.add_argument("--retries", type=int, default=3,
                      help="dispatch retries before giving up on a batch")
    p_ft.add_argument("--backoff-ms", type=float, default=0.1,
                      help="base exponential-backoff delay (simulated ms)")
    p_ft.add_argument("--timeout-ms", type=float, default=None,
                      help="per-request queue timeout (simulated ms)")
    p_ft.add_argument("--no-failover", action="store_true",
                      help="do not rebuild dead modules' shards")
    p_ft.add_argument("--no-degraded", action="store_true",
                      help="fail exhausted query batches instead of "
                           "completing them with partial results")

    p_sw = sub.add_parser(
        "sweep",
        help="paper-scale sharded serve sweep: split the offered load "
             "across worker processes (independent replicas), merge "
             "latency/throughput stats",
    )
    _add_serve_args(p_sw, adapt=False)
    p_sw.add_argument("--procs", type=int, default=None,
                      help="worker processes / shards "
                           "(default: cpu count, capped at 8; 1 = inline)")
    p_sw.set_defaults(requests=1_000_000, queue_depth=4096, n_modules=2048)

    p_bl = sub.add_parser(
        "balance",
        help="skew-aware rebalancing demo: adversarial hot-shard workload "
             "served with rebalance off vs on; migration + recovery report",
    )
    _add_common(p_bl, dataset="varden")
    p_bl.add_argument("--steps", type=int, default=24,
                      help="serving steps (one request batch each) per run")
    p_bl.add_argument("--kind", default="bc", choices=["bc", "knn"],
                      help="request shape: box-count range scans (the "
                           "straggler-bound regime) or kNN batches")
    p_bl.add_argument("--k", type=int, default=10, help="k for kNN requests")
    p_bl.add_argument("--ratio-threshold", type=float, default=1.5,
                      help="max/mean EWMA heat ratio that trips migration")
    p_bl.add_argument("--gini-threshold", type=float, default=0.35,
                      help="EWMA heat Gini that trips migration")
    p_bl.add_argument("--budget-words", type=float, default=65536.0,
                      help="word budget per migration invocation")
    p_bl.add_argument("--max-moves", type=int, default=8,
                      help="chunk moves per migration invocation")
    p_bl.add_argument("--out", type=Path, default=None,
                      help="path for the JSON comparison report")
    p_bl.set_defaults(n=16_000, batch=64, n_modules=16, seed=8)

    p_tn = sub.add_parser(
        "tune",
        help="self-tuning: offline strategy-tree search over the serving "
             "config space (search), tuned serve run (apply), or profile "
             "inspection (report)",
    )
    p_tn.add_argument("action", choices=["search", "apply", "report"],
                      help="search: emit a tuned profile for --workload; "
                           "apply: serve with --profile applied; "
                           "report: print a profile's headline numbers")
    _add_serve_args(p_tn)
    p_tn.add_argument("--workload", default="varden",
                      choices=["diurnal", "uniform", "varden"],
                      help="workload class to tune for (search)")
    p_tn.add_argument("--generations", type=int, default=2,
                      help="strategy-tree refinement depth (search)")
    p_tn.add_argument("--beam", type=int, default=4,
                      help="surviving Pareto nodes expanded per generation "
                           "(search)")
    p_tn.add_argument("--procs", type=int, default=1,
                      help="worker processes for candidate evaluation "
                           "(search; the result is procs-independent)")
    p_tn.add_argument("--knobs", default=None,
                      help="comma-separated knob subset to refine (search; "
                           "default: the serving-visible set)")
    p_tn.set_defaults(requests=240, load=1.0)

    p_st = sub.add_parser(
        "store",
        help="durable storage tier: checkpointed serving with an optional "
             "whole-machine kill + charged crash-restart, or inspect/"
             "recover an on-disk store",
    )
    p_st.add_argument("action", choices=["demo", "inspect", "recover"],
                      help="demo: serve with checkpoint/WAL attached; "
                           "inspect: print a store's manifest + WAL table; "
                           "recover: rebuild the index from disk")
    _add_traffic_args(p_st, requests=400,
                      mix="knn=0.5,insert=0.35,bc=0.1,bf=0.05")
    _add_knob_args(p_st, store=True)
    p_st.add_argument("--backend", default="file",
                      choices=["file", "sqlite"], help="storage backend")
    p_st.add_argument("--path", type=Path, default=None,
                      help="store location (directory for file, db file for "
                           "sqlite; demo defaults to a fresh temp dir)")
    p_st.add_argument("--kill-round", type=int, default=None,
                      help="BSP round at which the whole machine is killed "
                           "(demo; omit for a crash-free checkpointing run)")
    p_st.add_argument("--max-restarts", type=int, default=4,
                      help="crash-restarts before the loop gives up (demo)")
    return parser


def _add_traffic_args(p: argparse.ArgumentParser, *, requests: int = 2000,
                      mix: str = "knn=0.7,bc=0.15,bf=0.1,insert=0.05") -> None:
    """The world + offered-traffic flags every serving subcommand takes."""
    _add_common(p, dataset="uniform")
    p.add_argument("--requests", type=int, default=requests,
                   help="number of offered requests")
    p.add_argument("--load", type=float, default=0.8,
                   help="offered load as a fraction of calibrated capacity")
    p.add_argument("--mix", default=mix,
                   help="request mix, e.g. knn=0.8,insert=0.2")
    p.add_argument("--k", type=int, default=10, help="k for kNN requests")
    p.add_argument("--out", type=Path, default=None,
                   help="path for the latency-stats JSON document")


def _add_knob_args(p: argparse.ArgumentParser, *, store: bool = False) -> None:
    """One generated flag per :class:`repro.tune.Knob`.

    Unset flags parse to ``None`` (gates to ``False``) so
    ``ConfigSpace.from_args`` can tell "not passed" from "passed the
    default".  The checkpoint budget needs a durable store, so it is the
    one knob ``store demo`` takes and the one the other commands do not.
    """
    from .tune import default_space

    for knob in default_space().knobs:
        if (knob.name == "checkpoint.budget_fraction") != store:
            continue
        if knob.kind == "bool":
            p.add_argument(knob.flag, action="store_true", help=knob.doc)
        else:
            p.add_argument(
                knob.flag, default=None, choices=knob.choices or None,
                type={"int": int, "float": float, "choice": str}[knob.kind],
                help=f"{knob.doc} (default {knob.default})")


def _add_serve_args(p: argparse.ArgumentParser,
                    index_choices: list[str] | None = None,
                    adapt: bool = True) -> None:
    """Arguments shared by serve / faults / sweep / tune (``adapt``: the
    online-controller flags, which a sharded sweep does not take)."""
    from .serve import OVERFLOW_POLICIES
    from .workloads import ARRIVALS

    _add_traffic_args(p)
    _add_knob_args(p)
    p.add_argument("--index", default="pim",
                   choices=index_choices or ["pim", "pim-skew", "zd", "pkd"],
                   help="index adapter to serve from")
    p.add_argument("--arrival", default="poisson", choices=sorted(ARRIVALS),
                   help="arrival process")
    p.add_argument("--rate", type=float, default=None,
                   help="absolute arrival rate (req/s of simulated time; "
                        "overrides --load)")
    p.add_argument("--queue-depth", type=int, default=1024,
                   help="admission-queue depth bound")
    p.add_argument("--overflow", default="reject",
                   choices=list(OVERFLOW_POLICIES),
                   help="backpressure policy when the queue is full")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-request relative deadline (simulated ms)")
    p.add_argument("--csv", type=Path, default=None,
                   help="path for the flat metric,value CSV")
    p.add_argument("--profile", type=Path, default=None,
                   help="tuned-profile JSON (a 'tune search' artifact); "
                        "explicit flags that contradict it are an error")
    p.add_argument("--tenants", default=None,
                   help="multi-tenant admission: name=weight pairs, e.g. "
                        "gold=4,bronze=1 — requests are tagged in those "
                        "traffic proportions and the queue dequeues "
                        "weighted-fair with fair-share shedding")
    p.add_argument("--staleness-ms", type=float, default=1.0,
                   help="staleness bound for --write-policy primary-async "
                        "(simulated ms)")
    if adapt:
        p.add_argument("--adapt", action="store_true",
                       help="run the online tuning controller: adapts a "
                            "whitelisted knob subset at phase boundaries "
                            "between batches, never mid-round")
        p.add_argument("--adapt-window", type=int, default=32,
                       help="batches per controller phase")


def _add_common(p: argparse.ArgumentParser,
                dataset: str | None = None) -> None:
    """The scale flags, plus ``--dataset`` (defaulting to ``dataset``) for
    the subcommands that take one."""
    for name, (typ, help_text) in _COMMON_PARAMS.items():
        p.add_argument(f"--{name.replace('_', '-')}", type=typ, default=None,
                       help=help_text)
    if dataset is not None:
        p.add_argument("--dataset", default=dataset, choices=sorted(DATASETS),
                       help="workload distribution")


def _kwargs_from(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in (*_COMMON_PARAMS, "dataset")
            if getattr(args, name, None) is not None}


def _run_one(name: str, kwargs: dict) -> ExperimentResult:
    import inspect

    fn = ALL_EXPERIMENTS[name]
    accepted = set(inspect.signature(fn).parameters)
    kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    t0 = time.time()
    result = fn(**kwargs)
    print(result)
    print(f"[{name} completed in {time.time() - t0:.1f}s wall]\n")
    return result


def _run_trace(args: argparse.Namespace) -> int:
    """The ``trace`` subcommand: traced workload → timeline export."""
    from .eval import phase_breakdown_table, run_suite
    from .eval.experiments import _dataset, fresh_points
    from .eval.harness import PIMZdTreeAdapter
    from .obs import TraceCollector, load_summary, timeline_csv, write_trace

    n, batch, n_modules, seed = args.n, args.batch, args.n_modules, args.seed
    ops = tuple(o.strip() for o in args.ops.split(",") if o.strip())
    for op in ops:
        root = op.split("-")[0]
        valid = (op == "insert" or
                 (op.endswith("-nn") and root.isdigit()) or
                 (op.startswith(("bc-", "bf-")) and op[3:].isdigit()))
        if not valid:
            print(f"error: unknown op {op!r} "
                  "(expected insert, bc-N, bf-N or K-nn)")
            return 2
    if args.ring < 1:
        print("error: --ring must be >= 1")
        return 2

    data = _dataset(args.dataset, n, seed)
    tracer = TraceCollector(capacity=args.ring)
    adapter = PIMZdTreeAdapter(data, n_modules=n_modules, seed=seed,
                               tracer=tracer)
    measurements = run_suite(adapter, data=data, ops=ops, batch=batch,
                             seed=seed,
                             fresh_points=fresh_points(args.dataset, seed))

    print(f"=== trace — {args.dataset}, n={n}, batch={batch}, "
          f"P={n_modules}, ops={','.join(ops)} ===")
    print(phase_breakdown_table(measurements))
    print(f"\nevents emitted: {tracer.seq} (retained {len(tracer.events())}, "
          f"dropped {tracer.dropped}); rounds: {tracer.rounds_seen}")

    load = load_summary(tracer, residency=adapter.system.residency())
    cyc, res = load["cycles"], load["resident_words"]
    print(f"module load: cycles max/mean x{cyc['max_mean_ratio']:.2f} "
          f"gini={cyc['gini']:.3f}; resident words max/mean "
          f"x{res['max_mean_ratio']:.2f} gini={res['gini']:.3f}")
    if tracer.capacity_events:
        print(f"capacity-pressure events: {len(tracer.capacity_events)}")

    problems = tracer.timeline.reconcile(adapter.system.stats)
    if problems:
        print("RECONCILIATION FAILED:")
        for p in problems:
            print(f"  {p}")
    else:
        print("trace reconciles exactly with PIMStats totals")

    if args.out is not None or args.csv is not None:
        write_trace(tracer, json_path=args.out, csv_path=args.csv,
                    stats=adapter.system.stats,
                    include_events=not args.no_events,
                    residency=adapter.system.residency())
        _report_wrote(args.out, args.csv)
    else:
        print("\n" + timeline_csv(tracer))
    return 1 if problems else 0


def _parse_weights(flag: str, text: str | None) -> dict | None:
    """Parse a ``name=weight,...`` flag value (``None`` when unset)."""
    if text is None:
        return None
    weights = {}
    try:
        for part in text.split(","):
            name, sep, w = part.strip().partition("=")
            if not sep or not name:
                raise ValueError
            weights[name] = float(w)
    except ValueError:
        raise ValueError(
            f"malformed {flag} {text!r} (want name=weight,...)") from None
    return weights


def _resolve_config(args: argparse.Namespace):
    """Resolve the knob space from defaults, ``--profile`` and flags.

    The single ingestion path (:meth:`ConfigSpace.from_args`) shared by
    every serving subcommand: conflicting sources, and refinement flags
    whose gate mechanism is off, raise (``KnobConflict`` is a
    ``ValueError``) rather than being silently dropped.  Returns a
    :class:`repro.tune.Resolution`.
    """
    from .tune import default_space

    path = getattr(args, "profile", None)
    profile = None if path is None else _load_profile(path)["config"]
    return default_space().from_args(args, profile=profile)


def _load_profile(path: Path) -> dict:
    """A tuned-profile document with its ``config`` block validated."""
    from .tune import load_profile

    try:
        doc = json.loads(Path(path).read_text())
        return {**doc, "config": load_profile(doc)}
    except (OSError, ValueError, KeyError) as e:
        raise ValueError(f"cannot load profile {path}: {e}") from None


def _spec_from_args(args: argparse.Namespace, config: dict):
    """The :class:`repro.serve.ServeSpec` a serving subcommand's flags
    describe.  Flags the subcommand does not define (``store demo`` takes
    a subset, only ``faults`` has the retry knobs) and flags left unset
    fall through to the spec's own defaults."""
    from .serve import ServeSpec

    def flag(dest: str, scale: float | None = None):
        v = getattr(args, dest, None)
        return v if v is None or scale is None else v * scale

    fields = {
        "dataset": args.dataset, "n": args.n,
        "n_modules": args.n_modules, "seed": args.seed,
        "requests": args.requests, "load": args.load, "k": args.k,
        "mix": _parse_weights("--mix", args.mix), "config": config,
        "index": flag("index"), "arrival": flag("arrival"),
        "rate": flag("rate"),
        "queue_depth": flag("queue_depth"), "overflow": flag("overflow"),
        "tenants": _parse_weights("--tenants", flag("tenants")),
        "deadline_s": flag("deadline_ms", 1e-3),
        "staleness_s": flag("staleness_ms", 1e-3),
        "max_retries": flag("retries"), "backoff_s": flag("backoff_ms", 1e-3),
        "timeout_s": flag("timeout_ms", 1e-3),
        "max_restarts": flag("max_restarts"),
        "adapt_window": flag("adapt_window"),
    }
    return ServeSpec(
        **{k: v for k, v in fields.items() if v is not None},
        adapt=getattr(args, "adapt", False),
        degraded_mode=not getattr(args, "no_degraded", False),
        failover=not getattr(args, "no_failover", False))


def _fault_plan(args: argparse.Namespace, spec):
    """The ``faults`` subcommand's seeded :class:`repro.faults.FaultPlan`."""
    from .faults import FaultPlan

    crash_at, slow = {}, {}
    for text in args.crash or []:
        mid, sep, rnd = text.partition("@")
        if not sep:
            raise ValueError(f"malformed --crash {text!r} (want MID@ROUND)")
        crash_at[int(mid)] = int(rnd)
    for text in args.slow or []:
        mid, sep, factor = text.partition(":")
        if not sep:
            raise ValueError(f"malformed --slow {text!r} (want MID:FACTOR)")
        slow[int(mid)] = float(factor)
    if any(not 0 <= mid < spec.n_modules for mid in (*crash_at, *slow)):
        raise ValueError(f"module ids must be in [0, {spec.n_modules})")
    return FaultPlan(
        seed=args.fault_seed if args.fault_seed is not None else spec.seed,
        crash_at=crash_at, crash_rate=args.crash_rate,
        max_crashes=args.max_crashes, drop_rate=args.drop_rate,
        slow_factors=slow, storm_rate=args.storm_rate,
        storm_factor=args.storm_factor, storm_rounds=args.storm_rounds)


def _report_tuned(res) -> None:
    """Print the non-default knobs of a resolved configuration."""
    tuned = res.non_default()
    if tuned:
        print("tuned knobs: " + ", ".join(
            f"{k}={v} [{res.sources[k]}]" for k, v in sorted(tuned.items())))


def _report_phase_share(adapter, phase: str,
                        of: str = "total sim time") -> None:
    """Print ``phase``'s simulated time and its share of the system's."""
    stats = adapter.system.stats
    acc = stats.phases.get(phase)
    if acc is None:
        return
    t = adapter.tree.cost_model.time(acc).total_s
    total = adapter.tree.cost_model.time(stats.total).total_s
    share = 100.0 * t / total if total else 0.0
    print(f"{phase} phase: {t * 1e3:.3f}ms simulated ({share:.2f}% of {of})")


def _report_reconcile(problems: list, ok: str = "trace reconciles exactly",
                      failed: str = "RECONCILIATION FAILED") -> int:
    """Print a trace-vs-PIMStats reconciliation verdict; the exit code."""
    print(f"{failed}: {problems}" if problems else ok)
    return 1 if problems else 0


def _report_wrote(*paths) -> None:
    for path in paths:
        if path is not None:
            print(f"wrote {path}")


def _open_demo_store(args: argparse.Namespace):
    """``store demo``'s ``(backend, path, plan)``: a fresh temp dir unless
    ``--path`` is given; the plan kills the machine at ``--kill-round``."""
    from .faults import FaultPlan
    from .store import open_backend

    path = args.path
    if path is None:
        tmp = Path(tempfile.mkdtemp(prefix="repro-store-"))
        path = tmp / "store.db" if args.backend == "sqlite" else tmp
    plan = (None if args.kill_round is None
            else FaultPlan(machine_kill_at=args.kill_round))
    return open_backend(args.backend, path), path, plan


def _report_faults(session, plan, result) -> None:
    """``faults`` extras: what was injected and what it cost."""
    system = session.adapter.system
    summary = plan.summary()
    dead = sorted(system.dead_modules)
    events = (", ".join(f"{k}={v}" for k, v in sorted(summary.items()))
              if summary else "none")
    print(f"\ninjected events: {events}")
    print(f"dead modules: {dead if dead else 'none'} "
          f"({system.n_live}/{system.n_modules} live)")
    retried = sum(1 for b in result.batches if b.retries)
    print(f"batches: {len(result.batches)} total, {retried} retried")
    _report_phase_share(session.adapter, "recovery")


def _report_store(session, plan) -> None:
    """``store demo`` extras: checkpoints, machine restarts, their cost."""
    loop = session.loop
    print(f"\ncheckpoints: {loop.checkpoints} "
          f"({loop.checkpoint_time_s * 1e3:.3f}ms of simulated time); "
          f"WAL records pending: {session.parts['store'].dirty_records}")
    for r in loop.restarts:
        print(f"machine killed at t={r['killed_at_s'] * 1e3:.3f}ms, "
              f"recovered at t={r['recovered_at_s'] * 1e3:.3f}ms "
              f"(restart {r['restart_s'] * 1e3:.3f}ms = "
              f"time-to-first-query; {r['replayed']} replayed, "
              f"{r['skipped_uncommitted']} uncommitted skipped)")
    if plan is not None and not loop.restarts:
        print("no machine kill fired (too few BSP rounds before "
              "--kill-round?)")
    _report_phase_share(session.adapter, "recovery",
                        of="the post-restart system's sim time")


def _run_serving(args: argparse.Namespace) -> int:
    """serve / faults / tune apply / store demo: one session, one report.

    The commands differ only in what rides on the session — ``faults``
    adds a seeded fault plan and a tracer, ``store demo`` a durable store
    (and optionally a machine kill) — and in the report lines that
    describe those extras.
    """
    from .obs import TraceCollector, write_latency
    from .serve import build_session

    # ``tune apply`` is ``serve`` with a mandatory profile.
    command = "serve" if args.command == "tune" else args.command
    plan = backend = None
    try:
        res = _resolve_config(args)
        spec = _spec_from_args(args, res.config).validate()
        if command == "faults":
            plan = _fault_plan(args, spec)
    except ValueError as e:
        print(f"error: {e}")
        return 2
    if command == "store":
        backend, path, plan = _open_demo_store(args)
    tracer = None if command == "serve" else TraceCollector()

    session = build_session(spec, fault_plan=plan, tracer=tracer,
                            backend=backend)
    spec, adapter, loop, parts = (session.spec, session.adapter,
                                  session.loop, session.parts)
    if session.capacity is not None:
        print(f"calibrated {'fault-free ' if command == 'faults' else ''}"
              f"capacity ≈ {session.capacity:.0f} req/s; offering "
              f"{spec.load:.2f}x = {spec.rate:.0f} req/s")
    _report_tuned(res)
    rep, flt = parts["replication"], parts["filters"]
    if rep is not None:
        print(f"replication: installed {rep['installed']} secondary "
              f"copies ({rep['words']:,.0f} words)")
    if flt is not None:
        print(f"route filters: fpr={flt['fpr']:g}, "
              f"{flt['keys_indexed']} keys indexed, "
              f"{flt['filter_kib']:.1f} KiB resident")
    result = session.run()

    if command == "store":
        print(f"=== store demo — {spec.dataset}, n={spec.n}, "
              f"P={spec.n_modules}, {args.backend} backend at {path} ===")
    else:
        print(f"=== {command} — {spec.dataset}, {spec.index}, n={spec.n}, "
              f"P={spec.n_modules}, {spec.arrival} arrivals, "
              f"{spec.config['batch.policy']} batching ===")
    print(result.stats.table())
    rebalancer, controller = parts["rebalancer"], parts["controller"]
    if rebalancer is not None:
        print(f"\nrebalance: {loop.rebalance_steps} steps, "
              f"{rebalancer.migrations} chunk moves, "
              f"{rebalancer.words_moved:,.0f} words moved "
              f"({loop.rebalance_time_s * 1e3:.3f}ms of simulated time)")
        _report_phase_share(adapter, "rebalance")
    if controller is not None:
        aud = controller.audit()
        print(f"\ncontroller: {aud['changes']} change(s) over "
              f"{aud['phases']} phase(s) "
              f"(whitelist: {', '.join(aud['whitelist'])})")
        for h in aud["history"]:
            print(f"  phase {h['phase']}: {h['knob']} {h['old']:g} -> "
                  f"{h['new']:g} ({h['why']})")
    if command == "faults":
        _report_faults(session, plan, result)
    if command == "store":
        _report_store(session, plan)

    code = 0
    if loop.restarts:
        # The serve tracer watches the pre-crash system, whose stats die
        # with the kill — so after a restart, reconcile a *fresh*
        # standalone recovery instead (every charge on that system is
        # recovery, traced from birth).
        from .store import recover

        tracer = TraceCollector()
        rec = recover(backend, tracer=tracer,
                      cost_model=adapter.tree.cost_model)
        code = _report_reconcile(
            tracer.timeline.reconcile(rec.system.stats),
            ok="recovery trace reconciles exactly",
            failed="RECOVERY RECONCILIATION FAILED")
    elif tracer is not None:
        code = _report_reconcile(tracer.timeline.reconcile(
            adapter.system.stats))

    csv, store = getattr(args, "csv", None), parts["store"]
    if args.out is not None or csv is not None:
        tune_doc = None
        if res.non_default() or (controller is not None and controller.active):
            tune_doc = {"knobs": res.config, "sources": res.sources}
        write_latency(
            result.stats, json_path=args.out, csv_path=csv,
            batches=result.batches, config=tune_doc,
            faults=plan.events if plan is not None else None,
            store_events=store.events if store is not None else None,
            restarts=loop.restarts if store is not None else None)
        _report_wrote(args.out, csv)
    return code


def _run_sweep(args: argparse.Namespace) -> int:
    """The ``sweep`` subcommand: sharded paper-scale serve run."""
    from .serve import resolve_rate, run_sweep

    try:
        res = _resolve_config(args)
        _report_tuned(res)
        # Per-shard rate, calibrated once on a throwaway adapter (all
        # shards serve the same index, so one probe speaks for all).
        spec, capacity = resolve_rate(_spec_from_args(args, res.config))
    except ValueError as e:
        print(f"error: {e}")
        return 2
    if capacity is not None:
        print(f"calibrated capacity ≈ {capacity:.0f} req/s; offering "
              f"{spec.load:.2f}x = {spec.rate:.0f} req/s per shard")

    result = run_sweep(
        procs=args.procs, total_requests=spec.requests,
        tune_config=spec.config,
        **{f: getattr(spec, f) for f in (
            "dataset", "n", "n_modules", "index", "rate", "seed", "mix", "k",
            "deadline_s", "queue_depth", "overflow", "arrival",
            "tenants", "staleness_s")})

    print(f"=== sweep — {spec.dataset}, {spec.index}, n={spec.n}, "
          f"P={spec.n_modules}, {spec.arrival} arrivals, "
          f"{spec.config['batch.policy']} batching ===")
    print(result.table())
    if args.out is not None:
        args.out.write_text(json.dumps(result.to_dict(), indent=2))
    if args.csv is not None:
        doc = result.to_dict()
        rows = [(k, v) for k, v in doc.items()
                if not isinstance(v, (dict, list))]
        for group in ("latency", "queue", "service"):
            rows.extend((f"{group}_{k}", v) for k, v in doc[group].items())
        args.csv.write_text(
            "metric,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n")
    _report_wrote(args.out, args.csv)
    return 0


def _run_tune(args: argparse.Namespace) -> int:
    """The ``tune`` subcommand: offline search / tuned serve / report."""
    if args.action != "search" and args.profile is None:
        print(f"error: tune {args.action} requires --profile")
        return 2
    if args.action == "apply":
        return _run_serving(args)

    if args.action == "report":
        from .tune.search import profile_table

        try:
            doc = _load_profile(args.profile)
            params = doc["params"]
            print(f"=== tuned profile — workload {doc['workload']}, "
                  f"seed {doc['seed']} ===")
            print(f"search: {doc['evaluated']} configs evaluated, "
                  f"{len(doc['pareto_front'])} on the Pareto front "
                  f"(n={params['n']}, P={params['n_modules']}, "
                  f"requests={params['requests']})")
            print(profile_table(doc))
        except KeyError as e:
            print(f"error: profile {args.profile} has no {e} block")
            return 2
        except ValueError as e:
            print(f"error: {e}")
            return 2
        return 0

    # ------------------------------------------------------------ search
    from .tune import profile_json, search

    knobs = None
    if args.knobs:
        knobs = tuple(k.strip() for k in args.knobs.split(",") if k.strip())
    seed = args.seed if args.seed is not None else 7
    try:
        tuned = _resolve_config(args).non_default()
        if tuned:
            raise ValueError(
                "tune search explores from the shipped defaults; knob flags "
                "and --profile belong to 'tune apply' "
                f"(got: {', '.join(sorted(tuned))})")
        result = search(
            args.workload, seed=seed, n=args.n or 4000,
            n_modules=args.n_modules or 8, requests=args.requests,
            rate=args.rate, load=args.load, k=args.k,
            deadline_ms=args.deadline_ms, generations=args.generations,
            beam=args.beam, procs=args.procs, knobs=knobs,
            queue_depth=args.queue_depth)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}")
        return 2
    print(f"=== tune search — {args.workload}, seed {seed}, "
          f"generations={args.generations}, beam={args.beam} ===")
    print(result.table())
    failed = sum(1 for nd in result.nodes.values() if nd.error)
    if failed:
        print(f"note: {failed} candidate evaluation(s) failed and were "
              "pruned")
    if args.out is not None:
        args.out.write_text(profile_json(result))
        print(f"wrote {args.out}")
    return 0


def _run_balance(args: argparse.Namespace) -> int:
    """The ``balance`` subcommand: rebalance-off vs rebalance-on serving."""
    from .balance import BalanceConfig, OnlineRebalancer
    from .eval.experiments import _dataset
    from .eval.harness import PIMZdTreeAdapter
    from .eval.skewbench import (
        boxes_under_metas,
        hottest_colocated_metas,
        queries_under_metas,
        steady_state_throughput,
        throughput_timeline,
    )
    from .obs import TraceCollector
    from .workloads import bin_points, gini_coefficient

    n, batch, n_modules, seed = args.n, args.batch, args.n_modules, args.seed
    if args.steps < 2:
        print("error: --steps must be >= 2")
        return 2

    data = _dataset(args.dataset, n, seed)
    gini = gini_coefficient(bin_points(data))
    cfg = BalanceConfig(
        ratio_threshold=args.ratio_threshold,
        gini_threshold=args.gini_threshold,
        budget_words=args.budget_words,
        max_moves=args.max_moves,
    )

    def build():
        tracer = TraceCollector()
        adapter = PIMZdTreeAdapter(data, n_modules=n_modules, seed=seed,
                                   tracer=tracer)
        return adapter, tracer

    # Construction is deterministic, so both runs see the same layout and
    # the same adversarial query stream.
    adapter_off, tracer_off = build()
    hot_mid, hot_metas = hottest_colocated_metas(adapter_off.tree)
    if args.kind == "bc":
        queries = boxes_under_metas(adapter_off.tree, hot_metas,
                                    max(batch, 256), seed=seed + 1)
    else:
        queries = queries_under_metas(adapter_off.tree, hot_metas,
                                      max(batch, 1024), seed=seed + 1)
    print(f"=== balance — {args.dataset} (gini={gini:.3f}), n={n}, "
          f"P={n_modules}, kind={args.kind}, batch={batch}, "
          f"steps={args.steps} ===")
    print(f"attacking module {hot_mid}: {len(hot_metas)} colocated chunks, "
          f"{sum(m.root.count for m in hot_metas):,} points under them")

    rows_off = throughput_timeline(adapter_off, queries, steps=args.steps,
                                   batch=batch, k=args.k, kind=args.kind)
    adapter_on, tracer_on = build()
    rebalancer = OnlineRebalancer(adapter_on.tree, cfg)
    rows_on = throughput_timeline(adapter_on, queries, steps=args.steps,
                                  batch=batch, k=args.k, kind=args.kind,
                                  rebalancer=rebalancer)

    off = steady_state_throughput(rows_off)
    on = steady_state_throughput(rows_on)
    speedup = on / off if off > 0 else float("inf")
    print(f"\n{'step':>4} {'off req/s':>12} {'on req/s':>12} {'moves':>6}")
    for a, b in zip(rows_off, rows_on):
        print(f"{a['step']:>4} {a['throughput']:>12.0f} "
              f"{b['throughput']:>12.0f} {b['migrations']:>6}")
    print(f"\nsteady-state throughput (trailing half): "
          f"off {off:,.0f} req/s, on {on:,.0f} req/s — {speedup:.2f}x")
    print(f"migrations: {rebalancer.migrations} chunk moves, "
          f"{rebalancer.words_moved:,.0f} words, "
          f"{len(rebalancer.history)} invocations")

    _report_phase_share(adapter_on, "rebalance")
    problems = (tracer_off.timeline.reconcile(adapter_off.system.stats)
                + tracer_on.timeline.reconcile(adapter_on.system.stats))
    code = _report_reconcile(problems, ok="traces reconcile exactly")

    if args.out is not None:
        from .obs import sanitize_json

        doc = sanitize_json({
            "format": "repro.obs/balance-1",
            "dataset": args.dataset, "gini": gini, "n": n,
            "n_modules": n_modules, "kind": args.kind,
            "batch": batch, "k": args.k,
            "hot_module": int(hot_mid),
            "hot_chunks": len(hot_metas),
            "timeline_off": rows_off, "timeline_on": rows_on,
            "steady_state": {"off": off, "on": on, "speedup": speedup},
            "migrations": rebalancer.history,
            "reconciliation": {"exact": not problems, "problems": problems},
        })
        args.out.write_text(json.dumps(doc, indent=2, allow_nan=False))
        _report_wrote(args.out)
    return code


def _run_store(args: argparse.Namespace) -> int:
    """The ``store`` subcommand: durable tier demo / inspect / recover."""
    from .store import (SnapshotStore, StoreError, committed_seqs,
                        open_backend, scan_wal)

    if args.action == "demo":
        return _run_serving(args)
    if args.path is None:
        print(f"error: --path is required for {args.action}")
        return 2
    try:
        backend = open_backend(args.backend, args.path)
    except (OSError, StoreError) as e:
        print(f"error: cannot open store at {args.path}: {e}")
        return 2

    if args.action == "inspect":
        try:
            image = SnapshotStore(backend).load_image()
        except StoreError as e:
            print(f"error: {e}")
            return 1
        man = image.manifest
        tree_m, sys_m = man["tree"], man["system"]
        print(f"=== store — {args.backend} backend at {args.path} ===")
        print(f"snapshot: v{man['version']}, covers WAL seq <= "
              f"{man['wal_seq']}; {tree_m['size']:,} points, "
              f"dims={tree_m['dims']}, P={sys_m['n_modules']}, "
              f"seed={sys_m['seed']}, "
              f"dead={sys_m['dead_modules'] or 'none'}")
        print(f"chunks: {len(image.chunks)} ({image.total_bytes:,} bytes "
              f"incl. topology)")
        raw = backend.wal_read()
        try:
            records, torn = scan_wal(raw)
        except StoreError as e:
            print(f"WAL CORRUPT: {e}")
            return 1
        committed = committed_seqs(records)
        print(f"\nWAL: {len(raw):,} bytes, {len(records)} records")
        for r in records:
            mark = ("committed" if r.seq in committed else "UNCOMMITTED"
                    ) if r.kind_name in ("insert", "delete") else "control"
            print(f"  @{r.offset:<8} seq={r.seq:<6} {r.kind_name:<9} "
                  f"{len(r.payload):>8}B  {mark}")
        if torn is not None:
            print(f"  torn tail at byte {torn.offset}: {torn.reason} "
                  f"({torn.dropped_bytes}B dropped on replay)")
        return 0

    if args.action == "recover":
        from .obs import TraceCollector
        from .store import recover

        tracer = TraceCollector()
        try:
            res = recover(backend, tracer=tracer)
        except StoreError as e:
            print(f"error: recovery refused: {e}")
            return 1
        stats = res.system.stats
        t = res.tree.cost_model.time(stats.total)
        print(f"=== recover — {args.backend} backend at {args.path} ===")
        print(f"snapshot seq {res.snapshot_seq} ({res.snapshot_words:,.0f} "
              f"words) + {res.wal_records} WAL records: {res.replayed} "
              f"replayed, {res.skipped_uncommitted} uncommitted skipped"
              + (", torn tail dropped" if res.torn_tail else ""))
        print(f"index: {res.tree.root.count:,} points on "
              f"{res.system.n_live}/{res.system.n_modules} modules")
        print(f"charged restart cost: {t.total_s * 1e3:.3f}ms simulated, "
              f"all under the 'recovery' phase "
              f"(phases: {sorted(stats.phases)})")
        return _report_reconcile(tracer.timeline.reconcile(stats))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        print("available experiments:")
        for name, fn in ALL_EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"  {name:8s} {doc[0] if doc else ''}")
        return 0

    runner = {"trace": _run_trace, "serve": _run_serving,
              "faults": _run_serving, "sweep": _run_sweep, "tune": _run_tune,
              "balance": _run_balance, "store": _run_store}.get(args.command)
    if runner is not None:
        return runner(args)

    if args.command == "all":
        kwargs = _kwargs_from(args)
        results = [_run_one(name, kwargs) for name in ALL_EXPERIMENTS]
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            report = args.out / "report.md"
            with report.open("w") as f:
                f.write("# PIM-zd-tree reproduction report\n\n")
                for r in results:
                    f.write(f"## {r.name} ({r.paper_ref})\n\n```\n{r.table()}\n```\n")
                    if r.notes:
                        f.write(f"\n{r.notes}\n")
                    f.write("\n")
            blob = {
                r.name: {"headers": r.headers, "rows": r.rows, "notes": r.notes}
                for r in results
            }
            (args.out / "results.json").write_text(json.dumps(blob, indent=2))
            print(f"wrote {report} and {args.out / 'results.json'}")
        return 0

    _run_one(args.command, _kwargs_from(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
