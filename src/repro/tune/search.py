"""Offline strategy-tree policy search over the serving config space.

The search is a seeded, deterministic best-first expansion of a tree of
configurations (the delphyne-style strategy-tree idiom named in the
ROADMAP): the root is the shipped default config, every edge is a
single-knob refinement (:meth:`ConfigSpace.neighbors`), and each node is
scored by one *cheap short-horizon simulation* — a small open-loop serve
run of the target workload class through the measured adapter, exactly
the machinery ``repro serve`` uses, just scaled down.

Candidates of one generation are independent, so they evaluate in
parallel over a multiprocessing pool (``repro.serve.sweep._map_specs``,
the one ``run_sweep`` shards over; ``procs <= 1`` runs inline).  Because the
expansion order is fixed by knob declaration order and ``pool.map``
preserves input order, the visit order — and therefore the emitted
profile — is byte-identical across repeat runs with the same seed,
whatever the worker scheduling.

Branches are pruned on a **(goodput, p99, comm_words) Pareto front**:
after each generation, a child that is dominated by any evaluated node
(another config with goodput ≥, p99 ≤ and comm ≤, strictly better in at
least one) is dead — its refinements are never generated.  The surviving
front is beam-capped to bound the tree's width.  The winner is the
lexicographic best of the front (max goodput, then min p99, then min
comm, then canonical key as the final deterministic tiebreak), and
:func:`profile_doc` packages it as a **tuned profile** — a JSON document
``repro serve --profile`` / ``sweep --profile`` load through
:meth:`ConfigSpace.from_args`.

Three workload classes ship with the search (:data:`WORKLOADS`):
``uniform`` (Poisson arrivals on uniform data), ``varden`` (the
clustered Varden distribution whose natural skew hot-spots modules) and
``diurnal`` (diurnal arrival replay with gold/silver/bronze tenants).
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field

from .space import ConfigSpace, default_space

__all__ = [
    "WORKLOADS",
    "DEFAULT_SEARCH_KNOBS",
    "TuneNode",
    "TuneResult",
    "dominates",
    "pareto_front",
    "evaluate_config",
    "search",
    "profile_doc",
    "profile_table",
    "profile_json",
    "load_profile",
]

PROFILE_FORMAT = "repro.tune/profile-1"

# One entry per workload class the tuner emits a profile for.
WORKLOADS: dict[str, dict] = {
    "uniform": {
        "dataset": "uniform",
        "arrival": "poisson",
        "mix": {"knn": 0.7, "bc": 0.15, "bf": 0.1, "insert": 0.05},
        "tenants": None,
        "index": "pim",
    },
    "varden": {
        "dataset": "varden",
        "arrival": "poisson",
        "mix": {"knn": 0.6, "bc": 0.25, "bf": 0.1, "insert": 0.05},
        "tenants": None,
        "index": "pim",
    },
    "diurnal": {
        "dataset": "uniform",
        "arrival": "diurnal",
        "mix": {"knn": 0.7, "bc": 0.1, "bf": 0.1, "insert": 0.1},
        "tenants": {"gold": 4.0, "silver": 2.0, "bronze": 1.0},
        "index": "pim",
    },
}

# The default refinable subset: every knob a short-horizon serve run can
# actually observe.  checkpoint.budget_fraction needs a durable store
# attached (the evaluator serves memory-only), so refining it would only
# mint objective-identical siblings.
DEFAULT_SEARCH_KNOBS = (
    "batch.policy",
    "batch.overhead_target",
    "batch.fixed",
    "rebalance.enabled",
    "rebalance.ratio",
    "rebalance.budget_fraction",
    "pushpull.pull_factor",
    "replicate.k",
    "route.enabled",
    "route.fpr",
)

_OBJECTIVES = ("goodput", "p99_s", "comm_words")


@dataclass
class TuneNode:
    """One candidate configuration in the strategy tree."""

    key: str                 # canonical config key (node identity)
    config: dict
    generation: int
    parent: str | None = None
    knob: str | None = None  # the single knob refined from the parent
    value: object = None
    objectives: dict | None = None
    pruned: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "parent": self.parent,
            "knob": self.knob,
            "value": self.value,
            "objectives": self.objectives,
            "pruned": self.pruned,
            "error": self.error,
        }


@dataclass
class TuneResult:
    """A finished search: every node, the front, the winner."""

    workload: str
    seed: int
    params: dict
    nodes: dict[str, TuneNode]
    visit_order: list[str]
    front: list[str]
    best: str
    root: str
    wall_s: float = 0.0
    space: ConfigSpace = field(default_factory=default_space, repr=False)

    @property
    def best_node(self) -> TuneNode:
        return self.nodes[self.best]

    @property
    def baseline(self) -> TuneNode:
        return self.nodes[self.root]

    def table(self) -> str:
        return (f"workload {self.workload}: {len(self.visit_order)} configs "
                f"evaluated, {len(self.front)} on the Pareto front "
                f"({self.wall_s:.1f}s wall)\n" + profile_table(profile_doc(self)))


# ======================================================================
# candidate evaluation (module-level so it pickles under spawn)
# ======================================================================
def evaluate_config(spec: dict) -> dict:
    """Score one configuration with a short-horizon serve run.

    ``spec`` keys: ``workload`` (a :data:`WORKLOADS` class, which fixes
    dataset, arrival process, mix, tenants and index) plus
    :class:`~repro.serve.session.ServeSpec` fields — ``config``,
    ``seed``, ``n``, ``n_modules``, ``requests``, ``rate``, ``k``,
    ``deadline_s``, ``queue_depth``.  Returns the objective dict —
    everything in and out is picklable, mirroring
    :func:`repro.serve.sweep.run_shard`.
    """
    from ..serve.session import ServeSpec, build_session

    fields = {k: v for k, v in spec.items() if k != "workload"}
    session = build_session(ServeSpec(**WORKLOADS[spec["workload"]],
                                      **fields))
    stats = session.run().stats
    total = session.adapter.system.stats.total
    return {
        "goodput": float(stats.goodput),
        "p99_s": float(stats.latency["p99"]),
        "comm_words": float(total.comm_words),
        "throughput": float(stats.throughput),
        "p50_s": float(stats.latency["p50"]),
        "n_done": int(stats.n_done),
        "makespan_s": float(stats.makespan_s),
    }


def _evaluate_trapped(spec: dict) -> dict:
    """Worker wrapper reifying failures as data (the sweep pattern)."""
    try:
        return evaluate_config(spec)
    except Exception as exc:  # noqa: BLE001 - surfaced on the node
        return {"eval_error": f"{type(exc).__name__}: {exc}",
                "worker_traceback": traceback.format_exc()}


# ======================================================================
# Pareto machinery
# ======================================================================
def dominates(a: dict, b: dict) -> bool:
    """Does objective vector ``a`` dominate ``b``?  Goodput is maximised,
    p99 and comm words are minimised; strict in at least one."""
    ge = (a["goodput"] >= b["goodput"] and a["p99_s"] <= b["p99_s"]
          and a["comm_words"] <= b["comm_words"])
    gt = (a["goodput"] > b["goodput"] or a["p99_s"] < b["p99_s"]
          or a["comm_words"] < b["comm_words"])
    return ge and gt


def pareto_front(nodes: list[TuneNode]) -> list[TuneNode]:
    """The non-dominated subset of ``nodes`` (evaluated ones only)."""
    scored = [n for n in nodes if n.objectives is not None]
    return [n for n in scored
            if not any(dominates(m.objectives, n.objectives)
                       for m in scored if m is not n)]


def _rank_key(node: TuneNode) -> tuple:
    o = node.objectives
    return (-o["goodput"], o["p99_s"], o["comm_words"], node.key)


# ======================================================================
# the search
# ======================================================================
def search(workload: str, *, seed: int = 7, n: int = 4000,
           n_modules: int = 8, requests: int = 240, rate: float | None = None,
           load: float = 1.0, k: int = 10, deadline_ms: float | None = None,
           generations: int = 2, beam: int = 4, procs: int = 1,
           knobs: tuple[str, ...] | None = None,
           space: ConfigSpace | None = None,
           queue_depth: int = 1024) -> TuneResult:
    """Run the strategy-tree search for one workload class.

    ``rate=None`` calibrates the offered rate once against the
    default-config adapter (``load`` × measured capacity) — calibration
    is deterministic, so the whole search is a pure function of its
    arguments.  ``procs`` only changes wall-clock, never the result.
    """
    import math

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(have {sorted(WORKLOADS)})")
    if generations < 0 or beam < 1:
        raise ValueError("need generations >= 0 and beam >= 1")
    space = space if space is not None else default_space()
    knobs = tuple(knobs) if knobs is not None else DEFAULT_SEARCH_KNOBS
    unknown = sorted(set(knobs) - set(space.by_name))
    if unknown:
        raise ValueError(f"unknown search knob(s): {', '.join(unknown)}")

    from ..serve.sweep import _map_specs

    t0 = time.perf_counter()
    if rate is None:
        from ..serve.session import ServeSpec, resolve_rate

        rate = resolve_rate(ServeSpec(
            **WORKLOADS[workload], seed=seed, n=n, n_modules=n_modules,
            requests=requests, load=load, k=k))[0].rate

    deadline_s = deadline_ms * 1e-3 if deadline_ms is not None else math.inf
    base_spec = {
        "workload": workload, "seed": int(seed), "n": int(n),
        "n_modules": int(n_modules), "requests": int(requests),
        "rate": float(rate), "k": int(k), "deadline_s": float(deadline_s),
        "queue_depth": int(queue_depth),
    }

    def _spec(config: dict) -> dict:
        return {**base_spec, "config": config}

    def _settle(batch: list[TuneNode], results: list[dict]) -> None:
        for node, res in zip(batch, results):
            if "eval_error" in res:
                node.error = res["eval_error"]
                node.pruned = True
            else:
                node.objectives = res
            visit_order.append(node.key)

    root_config = space.default_config()
    root_key = space.canonical_key(root_config)
    root = TuneNode(key=root_key, config=root_config, generation=0)
    nodes: dict[str, TuneNode] = {root_key: root}
    visit_order: list[str] = []
    _settle([root], [_evaluate_trapped(_spec(root_config))])
    if root.objectives is None:
        raise RuntimeError(f"baseline evaluation failed: {root.error}")

    frontier = [root]
    for gen in range(1, generations + 1):
        children: list[TuneNode] = []
        for parent in frontier:
            for name, value, cfg in space.neighbors(parent.config, knobs):
                key = space.canonical_key(cfg)
                if key in nodes:
                    continue
                child = TuneNode(key=key, config=cfg, generation=gen,
                                 parent=parent.key, knob=name, value=value)
                nodes[key] = child
                children.append(child)
        if not children:
            break
        _settle(children, _map_specs(
            _evaluate_trapped, [_spec(c.config) for c in children], procs))
        front = pareto_front(list(nodes.values()))
        front_keys = {f.key for f in front}
        for node in nodes.values():
            if node.objectives is not None:
                node.pruned = node.key not in front_keys
        survivors = [c for c in children if c.key in front_keys]
        survivors.sort(key=_rank_key)
        frontier = survivors[:beam]
        if not frontier:
            break

    front = sorted(pareto_front(list(nodes.values())), key=_rank_key)
    best = min((nd for nd in nodes.values() if nd.objectives is not None),
               key=_rank_key)
    return TuneResult(
        workload=workload, seed=int(seed), params=base_spec, nodes=nodes,
        visit_order=visit_order, front=[f.key for f in front], best=best.key,
        root=root_key, wall_s=time.perf_counter() - t0, space=space,
    )


# ======================================================================
# tuned profiles
# ======================================================================
def profile_doc(result: TuneResult) -> dict:
    """The tuned-profile document for one search result.

    Deterministic by construction: no timestamps, no wall-clock, and the
    visit order is included so the determinism property (same seed ⇒
    identical node-visit order) is checkable from the artifact alone.
    """
    space = result.space
    defaults = space.default_config()
    best = result.best_node
    base = result.baseline
    improvement = {
        "goodput": (best.objectives["goodput"] / base.objectives["goodput"]
                    if base.objectives["goodput"] > 0 else None),
        "p99": (base.objectives["p99_s"] / best.objectives["p99_s"]
                if best.objectives["p99_s"] > 0 else None),
        "comm_words": (base.objectives["comm_words"]
                       / best.objectives["comm_words"]
                       if best.objectives["comm_words"] > 0 else None),
    }
    return {
        "format": PROFILE_FORMAT,
        "workload": result.workload,
        "seed": result.seed,
        "params": dict(result.params),
        "config": dict(best.config),
        "tuned": {k: v for k, v in sorted(best.config.items())
                  if v != defaults[k]},
        "objectives": dict(best.objectives),
        "baseline": dict(base.objectives),
        "improvement": improvement,
        "evaluated": len(result.visit_order),
        "pareto_front": list(result.front),
        "visit_order": list(result.visit_order),
    }


def profile_table(doc: dict) -> str:
    """Default-vs-tuned objectives of a profile document, with the gain on
    each and the knobs that moved — what ``tune search`` prints for a
    fresh result and ``tune report`` for a stored one."""
    gain = doc["improvement"]
    lines = [f"{'':8s} {'goodput':>12} {'p99':>12} {'comm words':>14}"]
    for label, o in (("default", doc["baseline"]),
                     ("tuned", doc["objectives"])):
        lines.append(f"{label:8s} {o['goodput']:>12.1f} "
                     f"{o['p99_s'] * 1e3:>10.3f}ms {o['comm_words']:>14,.0f}")
    lines.append(f"{'gain':8s} " + " ".join(
        f"{'n/a' if gain[k] is None else f'{gain[k]:.2f}x':>{w}}"
        for k, w in (("goodput", 12), ("p99", 12), ("comm_words", 14))))
    lines.append("tuned knobs: " + (", ".join(
        f"{k}={v}" for k, v in sorted(doc["tuned"].items())) or "(defaults)"))
    return "\n".join(lines)


def profile_json(result: TuneResult) -> str:
    """Canonical profile JSON: byte-identical for identical searches.
    Non-finite floats (an unset deadline) serialise as ``null``."""
    from ..obs.export import sanitize_json

    return json.dumps(sanitize_json(profile_doc(result)), indent=2,
                      sort_keys=True, allow_nan=False) + "\n"


def load_profile(doc: dict, space: ConfigSpace | None = None) -> dict:
    """Validate a loaded profile document; returns its config dict."""
    space = space if space is not None else default_space()
    if doc.get("format") != PROFILE_FORMAT:
        raise ValueError(
            f"not a tuned profile (format {doc.get('format')!r}, "
            f"want {PROFILE_FORMAT!r})")
    return space.validate(doc["config"])
