"""Continuous batch forming: fixed and adaptive batch-size policies.

The BSP substrate pays fixed per-round costs — the mux switch, driver/API
overhead, and per-(module, round) DMA setup (``repro.pim.cost_model``) —
so per-operation cost falls with batch size along the Fig. 7 amortisation
curve ``t(B) ≈ a + b·B``: ``a`` is the fixed per-dispatch overhead and
``b`` the marginal per-request cost.  A continuous batcher must tune this
knob online:

* batches far below the amortisation knee waste capacity on overheads
  (the server saturates earlier, queues explode);
* unboundedly large batches serve the backlog in coarse grains, so every
  request in a grain inherits the whole grain's service time
  (head-of-line blocking inside the batch).

:class:`AdaptiveBatchPolicy` estimates ``(a, b)`` per request group from
observed ``(batch size, service time)`` pairs by least squares over a
sliding window, then dispatches ``min(backlog, B*)`` where ``B*`` is the
smallest batch keeping the fixed-overhead share of the batch's service
time under ``overhead_target``.  Until two distinct batch sizes have been
observed it probes a doubling schedule (1, 2, 4, ...) to expose the
curve.  :class:`FixedBatchPolicy` is the closed-loop-style baseline: a
constant cap, whatever the load.

Both policies are work-conserving — they never hold the server idle to
wait for more arrivals — and deterministic.
"""

from __future__ import annotations

import math
from operator import mul

__all__ = ["FixedBatchPolicy", "AdaptiveBatchPolicy"]


class FixedBatchPolicy:
    """Always dispatch up to a constant ``batch`` requests."""

    name = "fixed"

    def __init__(self, batch: int) -> None:
        if batch < 1:
            raise ValueError("fixed batch size must be >= 1")
        self.batch = int(batch)

    def batch_size(self, group: tuple, backlog: int) -> int:
        return max(1, min(backlog, self.batch))

    def observe(self, group: tuple, size: int, service_s: float) -> None:
        pass

    def snapshot(self) -> dict:
        """Auditable policy state for the stats config block."""
        return {"name": self.name, "batch": self.batch}


class AdaptiveBatchPolicy:
    """Batch size from the measured round-overhead amortisation curve."""

    name = "adaptive"

    def __init__(self, *, overhead_target: float = 0.1, min_batch: int = 1,
                 max_batch: int = 4096, window: int = 32) -> None:
        if not 0.0 < overhead_target < 1.0:
            raise ValueError("overhead_target must be in (0, 1)")
        if not 1 <= min_batch <= max_batch:
            raise ValueError("need 1 <= min_batch <= max_batch")
        self.overhead_target = float(overhead_target)
        self.min_batch = int(min_batch)
        self.max_batch = int(max_batch)
        self.window = int(window)
        # Per group, the window's batch sizes and service times.
        self._sizes: dict[tuple, list[int]] = {}
        self._times: dict[tuple, list[float]] = {}
        self._probe: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    def batch_size(self, group: tuple, backlog: int) -> int:
        backlog = max(1, backlog)
        fit = self._fit(group)
        if fit is None:
            # Bootstrap: doubling probes expose the amortisation curve with
            # distinct batch sizes while staying work-conserving.
            probe = self._probe.get(group, self.min_batch)
            return min(backlog, probe, self.max_batch)
        return min(backlog, self._target(group, *fit)[0])

    def observe(self, group: tuple, size: int, service_s: float) -> None:
        sizes = self._sizes.setdefault(group, [])
        times = self._times.setdefault(group, [])
        sizes.append(int(size))
        times.append(float(service_s))
        del sizes[: -self.window], times[: -self.window]
        self._probe[group] = min(max(2 * int(size), self.min_batch),
                                 self.max_batch)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Auditable policy state: the fitted amortisation coefficients
        ``(a, b)`` and the current target per request group.

        ``target`` is the backlog-independent batch size the policy
        would pick right now (``B*`` clamped by the observed-range cap
        and ``max_batch``); ``None`` while a group is still on the
        doubling-probe bootstrap.  Attached to ``LatencyStats.config``
        so tuned profiles and online adaptations are auditable.
        """
        groups: dict[str, dict] = {}
        for group, sizes in sorted(self._sizes.items(),
                                   key=lambda kv: str(kv[0])):
            entry: dict = {"n_obs": len(sizes)}
            fit = self._fit(group)
            if fit is None:
                entry.update(a=None, b=None, target=None,
                             probe=self._probe.get(group, self.min_batch))
            else:
                a, b = fit
                target, cap = self._target(group, a, b)
                entry.update(a=a, b=b, target=int(target), cap=int(cap))
            groups["/".join(str(p) for p in group)] = entry
        return {
            "name": self.name,
            "overhead_target": self.overhead_target,
            "min_batch": self.min_batch,
            "max_batch": self.max_batch,
            "window": self.window,
            "groups": groups,
        }

    # ------------------------------------------------------------------
    def _target(self, group: tuple, a: float, b: float) -> tuple[int, int]:
        """``(B*, cap)``: the backlog-independent batch size for the fit
        ``(a, b)``, and the observed-range cap it is clamped by."""
        # A noisy window can fit b <= 0 (or an a/b ratio far beyond the
        # observed range), which would jump the batch straight to
        # max_batch on the strength of a degenerate extrapolation.  Cap
        # every fitted choice at 2x the largest batch actually observed:
        # growth stays geometric (like the bootstrap probes) instead of
        # cliff-jumping into head-of-line blocking.
        cap = max(self.min_batch, 2 * max(self._sizes[group]))
        if a <= 0.0:
            # No measurable fixed overhead: batching buys nothing, serve in
            # the finest grains the backlog allows.
            return max(1, self.min_batch), cap
        if b <= 0.0:
            # No measurable marginal cost: amortise as hard as the
            # observed range supports.
            return min(cap, self.max_batch), cap
        f = self.overhead_target
        b_star = max(math.ceil(a * (1.0 - f) / (b * f)), self.min_batch)
        return min(b_star, cap, self.max_batch), cap

    def _fit(self, group: tuple) -> tuple[float, float] | None:
        """Least-squares ``t(B) = a + b·B`` over the window; ``None`` until
        two distinct batch sizes have been observed."""
        sizes = self._sizes.get(group)
        if not sizes or len(set(sizes)) < 2:
            return None
        times = self._times[group]
        n = len(sizes)
        sx = sum(sizes)
        sy = sum(times)
        sxx = sum(map(mul, sizes, sizes))
        sxy = sum(map(mul, sizes, times))
        denom = n * sxx - sx * sx
        if denom <= 0:
            return None
        b = (n * sxy - sx * sy) / denom
        a = (sy - b * sx) / n
        return a, b
