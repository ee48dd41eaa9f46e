"""Turn one configuration dict into live serving objects.

Every consumer of the knob space builds its batch policy, rebalancer,
replica set and route filters through these helpers — inside ``src/`` that
is one caller, :func:`repro.serve.session.build_session`, which every
serving entry point goes through — so a configuration means exactly one
thing everywhere.  A
default config produces objects byte-identical to the pre-tuner code
paths (``AdaptiveBatchPolicy()``, no rebalancer, no replicas, no
filters), which is what keeps the serve goldens green.
"""

from __future__ import annotations

__all__ = [
    "make_policy",
    "make_index_config",
    "make_rebalancer",
    "attach_replication",
    "attach_route_filters",
    "apply_serving_config",
]


def _pim_tree(adapter, mechanism: str):
    """The adapter's PIM tree; raises for the baseline adapters.

    The zd/pkd baselines also expose a ``tree`` attribute, so the guard
    checks for the PIM system handle the tree-level mechanisms need
    (historically ``--rebalance --index zd`` crashed with an
    AttributeError instead of a usage error).
    """
    tree = getattr(adapter, "tree", None)
    if tree is None or not hasattr(tree, "system"):
        raise ValueError(f"{mechanism} a pim index adapter "
                         f"(got {type(adapter).__name__})")
    return tree


def make_policy(config: dict):
    """Batch policy per ``batch.*`` (the pre-tuner constructors verbatim)."""
    from ..serve import AdaptiveBatchPolicy, FixedBatchPolicy

    if config["batch.policy"] == "fixed":
        return FixedBatchPolicy(int(config["batch.fixed"]))
    return AdaptiveBatchPolicy(
        overhead_target=float(config["batch.overhead_target"]))


def make_index_config(config: dict, *, kind: str, n_points: int,
                      n_modules: int):
    """The ``kind`` variant's index config with ``pull_imbalance_factor``
    from ``pushpull.pull_factor``.  At the knob's default it equals the
    config the adapter builds itself; the CPU baselines drop it."""
    pf = float(config["pushpull.pull_factor"])
    from ..core import skew_resistant, throughput_optimized

    if kind == "pim-skew":
        return skew_resistant(n_modules, pull_imbalance_factor=pf)
    return throughput_optimized(n_points, n_modules,
                                pull_imbalance_factor=pf)


def make_rebalancer(adapter, config: dict):
    """Online rebalancer per ``rebalance.*`` (``None`` when disabled)."""
    if not config["rebalance.enabled"]:
        return None
    tree = _pim_tree(adapter, "rebalancing requires")
    from ..balance import BalanceConfig, OnlineRebalancer

    cfg = BalanceConfig(
        ratio_threshold=float(config["rebalance.ratio"]),
        gini_threshold=float(config["rebalance.gini"]),
        budget_words=float(config["rebalance.budget_words"]),
        budget_fraction=float(config["rebalance.budget_fraction"]),
    )
    return OnlineRebalancer(tree, cfg)


def attach_replication(adapter, config: dict, *,
                       staleness_s: float = 1e-3):
    """Install K-way replicas per ``replicate.*``; returns the install
    summary, or ``None`` when ``replicate.k < 2`` (no replication)."""
    k = int(config["replicate.k"])
    if k < 2:
        return None
    tree = _pim_tree(adapter, "replication requires")
    from ..replicate import ReplicaSet, ReplicationConfig

    cfg = ReplicationConfig(k=k,
                            write_policy=config["replicate.write_policy"],
                            staleness_bound_s=float(staleness_s))
    return ReplicaSet(tree, cfg).replicate_all()


def attach_route_filters(adapter, config: dict, *, seed: int = 0):
    """Install membership-filter routing per ``route.*``; returns the
    filter summary, or ``None`` when disabled."""
    if not config["route.enabled"]:
        return None
    tree = _pim_tree(adapter, "route filters require")
    from ..route import RouteFilterSet

    rf = RouteFilterSet(tree, fpr=float(config["route.fpr"]), seed=seed)
    return rf.summary()


def apply_serving_config(adapter, config: dict, *,
                         staleness_s: float = 1e-3,
                         filter_seed: int = 0) -> dict:
    """Attach every tree-level mechanism the config enables.

    Order matters and mirrors the CLI: replication first (filters index
    replica copies too), then route filters, then the rebalancer.
    Returns ``{"policy", "rebalancer", "replication", "filters"}`` —
    the first two are live objects, the last two install summaries (or
    ``None``).
    """
    replication = attach_replication(adapter, config,
                                     staleness_s=staleness_s)
    filters = attach_route_filters(adapter, config, seed=filter_seed)
    rebalancer = make_rebalancer(adapter, config)
    return {
        "policy": make_policy(config),
        "rebalancer": rebalancer,
        "replication": replication,
        "filters": filters,
    }
