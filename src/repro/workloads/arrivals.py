"""Arrival processes for the open-loop serving experiments (``repro.serve``).

The closed-loop harness feeds one pre-formed batch at a time, so it can
reproduce Fig. 5/7 throughput but says nothing about queueing.  An
*open-loop* experiment instead draws request arrival times from a stochastic
process and offers them to the server regardless of whether it has kept up —
the standard methodology for measuring tail latency and saturation.

Three processes are provided, all returning a sorted ``float64`` array of
``n`` arrival times (simulated seconds from 0) for a seeded generator:

* :func:`poisson_arrivals` — memoryless arrivals at a constant rate, the
  baseline open-loop workload;
* :func:`bursty_arrivals` — a two-state Markov-modulated Poisson process
  (quiet rate / burst rate), stressing the admission queue with arrival
  clumps far above the mean rate;
* :func:`diurnal_arrivals` — a nonhomogeneous Poisson process whose rate
  follows a compressed sinusoidal day (peak/trough), replaying the
  load shape a user-facing service sees over 24 h.

All draws come from one explicit ``numpy`` Generator, so a given seed
yields one byte-stable arrival schedule.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ARRIVALS", "poisson_arrivals", "bursty_arrivals",
           "diurnal_arrivals"]


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def poisson_arrivals(rate: float, n: int, seed=0, *, start: float = 0.0
                     ) -> np.ndarray:
    """``n`` Poisson arrivals at ``rate`` requests per simulated second."""
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if n < 0:
        raise ValueError("need n >= 0 arrivals")
    gaps = _rng(seed).exponential(scale=1.0 / rate, size=n)
    return start + np.cumsum(gaps)


def bursty_arrivals(rate: float, n: int, seed=0, *, burst_factor: float = 8.0,
                    burst_fraction: float = 0.15, mean_cycle_s: float | None = None,
                    start: float = 0.0) -> np.ndarray:
    """``n`` arrivals from a two-state MMPP with mean rate ``rate``.

    The process alternates between a *quiet* state and a *burst* state whose
    instantaneous rate is ``burst_factor`` times the quiet rate; the burst
    state is occupied ``burst_fraction`` of the time, and the state-holding
    times are exponential with a mean cycle of ``mean_cycle_s`` (default:
    long enough for ~64 arrivals per cycle at the mean rate).  Rates are
    normalised so the long-run mean equals ``rate``, making offered load
    directly comparable with :func:`poisson_arrivals`.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")
    rng = _rng(seed)
    # quiet/burst rates with the requested long-run mean.
    mean_factor = (1.0 - burst_fraction) + burst_fraction * burst_factor
    quiet_rate = rate / mean_factor
    burst_rate = quiet_rate * burst_factor
    if mean_cycle_s is None:
        mean_cycle_s = 64.0 / rate
    mean_burst_s = mean_cycle_s * burst_fraction
    mean_quiet_s = mean_cycle_s - mean_burst_s

    out = np.empty(n)
    got = 0
    t = start
    bursting = False
    while got < n:
        hold = rng.exponential(mean_burst_s if bursting else mean_quiet_s)
        r = burst_rate if bursting else quiet_rate
        # Arrivals inside this state interval.
        tt = t
        while got < n:
            tt += rng.exponential(1.0 / r)
            if tt > t + hold:
                break
            out[got] = tt
            got += 1
        t += hold
        bursting = not bursting
    return out


def diurnal_arrivals(rate: float, n: int, seed=0, *, day_s: float = 240.0,
                     peak_to_trough: float = 4.0, start: float = 0.0
                     ) -> np.ndarray:
    """``n`` arrivals replaying a sinusoidal diurnal load curve.

    A nonhomogeneous Poisson process via thinning: the instantaneous rate is
    ``rate * (1 + a*sin(2*pi*t/day_s))`` with the amplitude ``a`` derived
    from ``peak_to_trough`` (peak rate / trough rate), and ``day_s`` is the
    *compressed* day length in simulated seconds, so a full daily cycle fits
    in an experiment.  Mean rate over whole days equals ``rate``.
    """
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if peak_to_trough < 1.0:
        raise ValueError("peak_to_trough must be >= 1")
    rng = _rng(seed)
    amp = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    lam_max = rate * (1.0 + amp)
    out = np.empty(n)
    got = 0
    t = start
    while got < n:
        t += rng.exponential(1.0 / lam_max)
        lam_t = rate * (1.0 + amp * np.sin(2.0 * np.pi * (t - start) / day_s))
        if rng.random() * lam_max <= lam_t:
            out[got] = t
            got += 1
    return out


# The arrival-process registry: every consumer (CLI ``--arrival`` choices,
# serve sessions, sweep shards, the tuner's workload classes) resolves a
# process name here.
ARRIVALS = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "diurnal": diurnal_arrivals,
}
