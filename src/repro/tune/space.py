"""The tunable-knob space: typed, bounded dimensions over serving policy.

The system's serving behaviour is governed by a dozen interacting knobs
spread across four subsystems — batch forming (``repro.serve.batcher``),
online rebalancing (``repro.balance``), replication (``repro.replicate``),
membership-filter routing (``repro.route``) — plus the index's own
push-pull trigger and the durable tier's checkpoint budget.  Before this
module each consumer ingested its knobs ad hoc (CLI flags with their own
defaults, constructor keywords, per-benchmark constants), which made two
things impossible: expressing "one configuration" as a value that can be
searched over, and detecting when two sources disagree about the same
knob.

:class:`ConfigSpace` reifies every knob as a :class:`Knob` — a typed,
bounded dimension with a default matching the shipped behaviour — and a
*configuration* is a plain ``{knob name: value}`` dict covering every
dimension.  The space provides:

* :meth:`ConfigSpace.default_config` — the shipped defaults (a default
  config must reproduce pre-tuner behaviour byte-for-byte);
* :meth:`ConfigSpace.validate` — type/bound checking with loud errors;
* :meth:`ConfigSpace.neighbors` — the single-knob refinements that form
  the edges of the offline strategy tree (``repro.tune.search``);
* :meth:`ConfigSpace.from_args` — the one ingestion path for CLI flags
  and tuned profiles, raising :class:`KnobConflict` when two sources
  disagree (the historical bug: ``serve --rebalance-ratio`` without
  ``--rebalance`` was silently ignored, while ``sweep`` dropped the flag
  with a different message).

Everything here is host-side control-plane data: no charges, no
randomness, and every method is a pure function of its inputs, so the
search harness built on top stays deterministic under a seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "Knob",
    "KnobConflict",
    "ConfigSpace",
    "Resolution",
    "default_space",
]


class KnobConflict(ValueError):
    """Two configuration sources disagree about one knob's value."""


@dataclass(frozen=True)
class Knob:
    """One tunable dimension: name, type, bounds, shipped default.

    ``kind`` is ``"float"``, ``"int"``, ``"bool"`` or ``"choice"``.
    Numeric knobs carry ``lo``/``hi`` bounds and a multiplicative
    refinement ``step`` (the strategy tree refines by multiplying or
    dividing, then clamping); choice knobs enumerate ``choices``.
    ``flag`` is the CLI option that sets the knob: the CLI generates its
    ``add_argument`` call from this record and :meth:`ConfigSpace.from_args`
    reads the value back from :attr:`dest`.
    """

    name: str
    kind: str
    default: object
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    step: float = 2.0
    doc: str = ""
    flag: str = ""

    @property
    def dest(self) -> str:
        """The argparse attribute ``flag`` parses into."""
        return self.flag.lstrip("-").replace("-", "_")

    def __post_init__(self) -> None:
        if self.kind not in ("float", "int", "bool", "choice"):
            raise ValueError(f"knob {self.name}: unknown kind {self.kind!r}")
        if self.kind in ("float", "int"):
            if self.lo is None or self.hi is None or not self.lo <= self.hi:
                raise ValueError(f"knob {self.name}: need lo <= hi bounds")
            if self.step <= 1.0:
                raise ValueError(f"knob {self.name}: step must be > 1")
        if self.kind == "choice" and (len(self.choices) < 2
                                      or self.default not in self.choices):
            raise ValueError(f"knob {self.name}: bad choices {self.choices!r}")

    # ------------------------------------------------------------------
    def coerce(self, value):
        """Parse/clamp-check ``value`` into this knob's type (no clamping
        — out-of-bounds raises, so a typo'd profile fails loudly)."""
        if self.kind == "bool":
            if isinstance(value, bool):
                return value
            raise ValueError(f"knob {self.name}: expected bool, got {value!r}")
        if self.kind == "choice":
            if value not in self.choices:
                raise ValueError(
                    f"knob {self.name}: {value!r} not in {self.choices}")
            return value
        v = float(value)
        if self.kind == "int":
            if v != int(v):
                raise ValueError(f"knob {self.name}: expected int, got {value!r}")
            v = int(v)
        if not self.lo <= v <= self.hi:
            raise ValueError(
                f"knob {self.name}: {v!r} outside [{self.lo}, {self.hi}]")
        return v

    def clamp(self, value):
        """Clamp a numeric value into bounds (refinement helper)."""
        if self.kind == "int":
            return int(min(self.hi, max(self.lo, round(value))))
        return float(min(self.hi, max(self.lo, value)))

    def refinements(self, value) -> list:
        """Candidate single-knob moves away from ``value``, in a fixed
        order (down first, then up; False before True; choices in
        declaration order).  No-ops are dropped."""
        if self.kind == "bool":
            return [not value]
        if self.kind == "choice":
            return [c for c in self.choices if c != value]
        out = []
        for cand in (self.clamp(value / self.step),
                     self.clamp(value * self.step)):
            if cand != value and cand not in out:
                out.append(cand)
        return out


# The shipped defaults mirror the pre-tuner behaviour of each consumer:
# AdaptiveBatchPolicy(overhead_target=0.1), BalanceConfig(), the CLI's
# --fixed-batch 64 / --write-policy write-all, PIMZdTreeConfig's
# pull_imbalance_factor=3.0, RouteFilterSet's DEFAULT_FPR and
# DurableStore's budget_fraction=0.05.  A default config therefore
# reproduces existing runs byte-for-byte.
_DEFAULT_KNOBS = (
    Knob("batch.policy", "choice", "adaptive", flag="--policy",
         choices=("adaptive", "fixed"), doc="batch-size policy"),
    Knob("batch.overhead_target", "float", 0.1, lo=0.02, hi=0.4, step=2.0,
         flag="--overhead-target",
         doc="adaptive policy: fixed-overhead share of batch service time"),
    Knob("batch.fixed", "int", 64, lo=1, hi=4096, step=4.0,
         flag="--fixed-batch", doc="fixed policy: constant batch cap"),
    Knob("rebalance.enabled", "bool", False, flag="--rebalance",
         doc="step the online rebalancer between batches"),
    Knob("rebalance.ratio", "float", 1.5, lo=1.1, hi=4.0, step=1.3,
         flag="--rebalance-ratio",
         doc="max/mean EWMA heat ratio that trips migration"),
    Knob("rebalance.gini", "float", 0.35, lo=0.1, hi=0.8, step=1.5,
         flag="--rebalance-gini", doc="EWMA heat Gini that trips migration"),
    Knob("rebalance.budget_words", "float", 65536.0, lo=4096.0,
         hi=1048576.0, step=4.0, flag="--rebalance-budget-words",
         doc="word budget per migration invocation"),
    Knob("rebalance.budget_fraction", "float", 0.05, lo=0.01, hi=0.3,
         step=2.0, flag="--rebalance-budget",
         doc="rebalance time budget as a fraction of service time"),
    Knob("pushpull.pull_factor", "float", 3.0, lo=1.0, hi=16.0, step=2.0,
         flag="--pull-factor",
         doc="push-pull trigger: load-imbalance factor that flips a round "
             "from push to pull"),
    Knob("replicate.k", "int", 1, lo=1, hi=4, step=2.0, flag="--replicate",
         doc="chunk copies incl. the primary (1 = no replication)"),
    Knob("replicate.write_policy", "choice", "write-all",
         choices=("write-all", "primary-async"), flag="--write-policy",
         doc="replica write policy"),
    Knob("route.enabled", "bool", False, flag="--route-filter",
         doc="host-resident membership filters pruning provably-empty sends"),
    Knob("route.fpr", "float", 0.01, lo=0.001, hi=0.2, step=4.0,
         flag="--route-fpr", doc="Bloom false-positive-rate target"),
    # The one knob only a command with a durable store can honour
    # (``store demo``); everywhere else a profile that moves it conflicts.
    Knob("checkpoint.budget_fraction", "float", 0.05, lo=0.01, hi=0.3,
         step=2.0, flag="--budget-fraction",
         doc="checkpoint time budget as a fraction of service time"),
)


# Knobs that only *refine* an enabled mechanism: passing one explicitly
# while its gate is off is a conflict, not a silent no-op.
_REQUIRES = {
    "batch.overhead_target": ("batch.policy", "adaptive"),
    "batch.fixed": ("batch.policy", "fixed"),
    "rebalance.ratio": ("rebalance.enabled", True),
    "rebalance.gini": ("rebalance.enabled", True),
    "rebalance.budget_words": ("rebalance.enabled", True),
    "rebalance.budget_fraction": ("rebalance.enabled", True),
    "route.fpr": ("route.enabled", True),
}


@dataclass
class Resolution:
    """A resolved configuration plus where each knob's value came from."""

    config: dict
    sources: dict = field(default_factory=dict)  # knob -> default|profile|flag

    def non_default(self) -> dict:
        return {k: v for k, v in self.config.items()
                if self.sources.get(k, "default") != "default"}


class ConfigSpace:
    """The ordered set of tunable knobs (see module docstring)."""

    def __init__(self, knobs: tuple[Knob, ...] = _DEFAULT_KNOBS) -> None:
        self.knobs: tuple[Knob, ...] = tuple(knobs)
        self.by_name: dict[str, Knob] = {k.name: k for k in self.knobs}
        if len(self.by_name) != len(self.knobs):
            raise ValueError("duplicate knob names")

    # ------------------------------------------------------------------
    def default_config(self) -> dict:
        return {k.name: k.default for k in self.knobs}

    def validate(self, config: dict) -> dict:
        """Coerce + bound-check every entry; returns a full config dict
        (missing knobs fall back to their defaults; unknown names raise)."""
        unknown = sorted(set(config) - set(self.by_name))
        if unknown:
            raise ValueError(f"unknown knob(s): {', '.join(unknown)}")
        out = {}
        for k in self.knobs:
            out[k.name] = (k.coerce(config[k.name]) if k.name in config
                           else k.default)
        return out

    def canonical_key(self, config: dict) -> str:
        """Canonical identity of a configuration (sorted-key JSON)."""
        return json.dumps(self.validate(config), sort_keys=True,
                          separators=(",", ":"))

    # ------------------------------------------------------------------
    def neighbors(self, config: dict, names: tuple[str, ...] | None = None
                  ) -> list[tuple[str, object, dict]]:
        """Single-knob refinements of ``config`` in deterministic order.

        Returns ``(knob name, new value, new config)`` triples, iterating
        knobs in declaration order (restricted to ``names`` when given)
        and each knob's refinements in their fixed order.  Refinements of
        a gated knob whose gate is off are skipped — they cannot change
        behaviour, and evaluating them would bloat the Pareto front with
        objective-identical nodes.
        """
        out = []
        for knob in self.knobs:
            if names is not None and knob.name not in names:
                continue
            gate = _REQUIRES.get(knob.name)
            if gate is not None and config[gate[0]] != gate[1]:
                continue
            if (knob.name == "replicate.write_policy"
                    and config["replicate.k"] < 2):
                continue  # write policy is inert without replicas
            for value in knob.refinements(config[knob.name]):
                child = dict(config)
                child[knob.name] = value
                out.append((knob.name, value, child))
        return out

    # ------------------------------------------------------------------
    def from_args(self, args, profile: dict | None = None) -> Resolution:
        """The single knob-ingestion path for CLI subcommands.

        Precedence is *not* silent: defaults < profile < explicit flags,
        but an explicit flag that contradicts the profile raises
        :class:`KnobConflict` (equal values are fine — restating a
        profile value is harmless), and an explicitly-passed refinement
        knob whose gate mechanism is off raises too (the historical
        silently-ignored ``--rebalance-ratio`` bug).

        ``args`` is an ``argparse.Namespace`` whose knob-backed flags
        (each knob's :attr:`Knob.dest`) default to ``None`` (store_true
        gates default ``False``); a knob the namespace has no attribute
        for must stay at its default.
        ``profile`` is the ``"config"`` block of a tuned-profile JSON.
        """
        config = self.default_config()
        sources = {name: "default" for name in config}

        if profile:
            for name, value in sorted(profile.items()):
                knob = self.by_name.get(name)
                if knob is None:
                    raise ValueError(f"profile sets unknown knob {name!r}")
                config[name] = knob.coerce(value)
                sources[name] = "profile"

        explicit: dict[str, object] = {}
        for knob in self.knobs:
            if not hasattr(args, knob.dest):
                # This subcommand has no mechanism the knob could drive
                # (no flag for it): a profile that moves it would be
                # silently dropped, so refuse it instead.
                if config[knob.name] != knob.default:
                    raise KnobConflict(
                        f"knob {knob.name}: profile says "
                        f"{config[knob.name]!r} but this command cannot "
                        f"apply it (it takes no {knob.flag})")
                continue
            value = getattr(args, knob.dest)
            if knob.kind == "bool":
                if not value:  # store_true gate left at its default
                    continue
            elif value is None:
                continue
            explicit[knob.name] = knob.coerce(value)

        for name, value in explicit.items():
            if sources[name] == "profile" and config[name] != value:
                raise KnobConflict(
                    f"knob {name}: profile says {config[name]!r} but the "
                    f"command line says {value!r} — drop one source")
            config[name] = value
            sources[name] = "flag"

        for name, (gate, want) in _REQUIRES.items():
            if sources[name] == "flag" and config[gate] != want:
                raise KnobConflict(
                    f"knob {name} was passed explicitly but requires "
                    f"{gate}={want!r} (current: {config[gate]!r})")
        if (sources["replicate.write_policy"] == "flag"
                and config["replicate.k"] < 2):
            raise KnobConflict(
                "knob replicate.write_policy was passed explicitly but "
                "requires replicate.k >= 2 (pass --replicate K)")
        return Resolution(config=config, sources=sources)


def default_space() -> ConfigSpace:
    """The shipped :class:`ConfigSpace` (a fresh instance each call)."""
    return ConfigSpace()
