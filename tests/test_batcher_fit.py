"""The adaptive batcher's least-squares fit against its generator form.

``AdaptiveBatchPolicy`` keeps each group's window as two lists (sizes and
service times) and sums them with ``sum`` / ``map(mul, ...)``.
:class:`_PairsPolicy` below is the earlier form kept as the reference: a
window of ``(size, time)`` pairs summed by generators.  The terms and
their order are the same, so every fitted ``(a, b)``, every batch size
and every snapshot must be bitwise equal on any observation stream.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serve import AdaptiveBatchPolicy


class _PairsPolicy:
    """Reference: the pair-window fit and target formulas."""

    def __init__(self, *, overhead_target=0.1, min_batch=1, max_batch=4096,
                 window=32) -> None:
        self.overhead_target = float(overhead_target)
        self.min_batch = int(min_batch)
        self.max_batch = int(max_batch)
        self.window = int(window)
        self._obs: dict[tuple, list[tuple[int, float]]] = {}
        self._probe: dict[tuple, int] = {}
        self.branches: set[str] = set()

    def batch_size(self, group, backlog):
        backlog = max(1, backlog)
        fit = self._fit(group)
        if fit is None:
            self.branches.add("probe")
            probe = self._probe.get(group, self.min_batch)
            return min(backlog, probe, self.max_batch)
        a, b = fit
        cap = max(self.min_batch, 2 * max(sz for sz, _ in self._obs[group]))
        if a <= 0.0:
            self.branches.add("a<=0")
            return min(backlog, max(1, self.min_batch))
        if b <= 0.0:
            self.branches.add("b<=0")
            return min(backlog, cap, self.max_batch)
        self.branches.add("fit")
        f = self.overhead_target
        b_star = math.ceil(a * (1.0 - f) / (b * f))
        b_star = max(b_star, self.min_batch)
        return min(backlog, b_star, cap, self.max_batch)

    def observe(self, group, size, service_s):
        obs = self._obs.setdefault(group, [])
        obs.append((int(size), float(service_s)))
        del obs[: -self.window]
        self._probe[group] = min(max(2 * int(size), self.min_batch),
                                 self.max_batch)

    def snapshot(self):
        groups = {}
        for group, obs in sorted(self._obs.items(), key=lambda kv: str(kv[0])):
            entry = {"n_obs": len(obs)}
            fit = self._fit(group)
            if fit is None:
                entry.update(a=None, b=None, target=None,
                             probe=self._probe.get(group, self.min_batch))
            else:
                a, b = fit
                cap = max(self.min_batch, 2 * max(sz for sz, _ in obs))
                if a <= 0.0:
                    target = max(1, self.min_batch)
                elif b <= 0.0:
                    target = min(cap, self.max_batch)
                else:
                    f = self.overhead_target
                    target = min(max(math.ceil(a * (1.0 - f) / (b * f)),
                                     self.min_batch), cap, self.max_batch)
                entry.update(a=a, b=b, target=int(target), cap=int(cap))
            groups["/".join(str(p) for p in group)] = entry
        return {
            "name": "adaptive",
            "overhead_target": self.overhead_target,
            "min_batch": self.min_batch,
            "max_batch": self.max_batch,
            "window": self.window,
            "groups": groups,
        }

    def _fit(self, group):
        obs = self._obs.get(group)
        if not obs or len({sz for sz, _ in obs}) < 2:
            # n·Σx² − (Σx)² = n·Σ(x − x̄)² is exact in integers, so only
            # an all-equal window has denom <= 0: record that it got here.
            if obs and (len(obs) * sum(sz * sz for sz, _ in obs)
                        - sum(sz for sz, _ in obs) ** 2) <= 0:
                self.branches.add("denom<=0")
            return None
        n = len(obs)
        sx = sum(sz for sz, _ in obs)
        sy = sum(t for _, t in obs)
        sxx = sum(sz * sz for sz, _ in obs)
        sxy = sum(sz * t for sz, t in obs)
        denom = n * sxx - sx * sx
        if denom <= 0:
            return None
        b = (n * sxy - sx * sy) / denom
        a = (sy - b * sx) / n
        return a, b


def _stream(rng, n, *, a, b, sizes=None, noise=0.0):
    """``n`` observations of ``t = a + b·size`` plus relative noise."""
    if sizes is None:
        sizes = rng.integers(1, 200, size=n)
    for size in sizes:
        t = a + b * float(size)
        yield int(size), t * (1.0 + noise * float(rng.standard_normal()))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("window", [32, 5])
def test_fit_matches_the_generator_formulas_bitwise(seed, window):
    rng = np.random.default_rng(seed)
    kw = dict(overhead_target=float(rng.uniform(0.02, 0.5)),
              min_batch=int(rng.integers(1, 4)), window=window)
    new, ref = AdaptiveBatchPolicy(**kw), _PairsPolicy(**kw)
    streams = {
        # A clean knee, a noisy one, and fits with a <= 0 and b <= 0 —
        # each longer than the window.
        ("knn", 10): _stream(rng, 3 * window, a=1e-4, b=1e-6, noise=0.3),
        ("bc",): _stream(rng, 3 * window, a=-1e-4, b=1e-5),
        ("bf",): _stream(rng, 3 * window, a=5e-3, b=-1e-6),
        ("ins",): _stream(rng, 3 * window, a=2e-4, b=3e-6),
        # All-equal sizes: never two distinct sizes, so the probe stays on.
        ("knn", 1): _stream(rng, 2 * window, a=1e-4, b=1e-6, noise=0.2,
                            sizes=[7] * (2 * window)),
    }
    live = list(streams)
    while live:
        group = live[int(rng.integers(len(live)))]
        try:
            size, t = next(streams[group])
        except StopIteration:
            live.remove(group)
            continue
        for backlog in (1, int(rng.integers(1, 10_000)), 10 ** 6):
            assert new.batch_size(group, backlog) == ref.batch_size(group,
                                                                    backlog)
        new.observe(group, size, t)
        ref.observe(group, size, t)
        assert repr(new.snapshot()) == repr(ref.snapshot())
    assert ref.branches == {"probe", "a<=0", "b<=0", "fit", "denom<=0"}
