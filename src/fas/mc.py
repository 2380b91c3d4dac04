"""Seeded Monte-Carlo oracle for the analytic outage expressions.

Trials are partitioned over logical workers with independent PCG64
sub-streams spawned from one seed, so an estimate is bit-reproducible for a
fixed (trials, seed, workers) triple regardless of execution order.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import FasConfig, checked_mu, correlation_profile

_CHUNK = 2 ** 16

# Rare-event policy: scale trials to this many expected failures, up to the cap.
TARGET_FAILURES = 100
TRIALS_CAP = 10 ** 9
MIN_TRIALS = 1000
# Most logical workers a run may split its trials over.
WORKERS_MAX = 1024


@dataclass(frozen=True)
class McSettings:
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        # stricter than channel.checked_count on purpose: numpy's binomial
        # would take a whole float count without a word
        for name, least in (("trials", MIN_TRIALS), ("workers", 1),
                            ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral)
                    or isinstance(value, bool) or value < least):
                raise ValueError(f"{name} must be an integer >= {least}, "
                                 f"got {value!r}")
        most = min(WORKERS_MAX, self.trials)
        if self.workers > most:
            raise ValueError(f"workers must be <= {most} (at most "
                             f"{WORKERS_MAX} and at most trials), got "
                             f"{self.workers!r}")


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    half_width_95: float
    trials: int


def worker_streams(seed: int, workers: int) -> list[np.random.Generator]:
    """Deterministic independent sub-streams for each logical worker."""
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(child))
            for child in root.spawn(workers)]


def _partition(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _chunks(settings: McSettings):
    """(rng, n) pieces of the trial budget, in a fixed order: each logical
    worker's share of the trials from its own stream, at most _CHUNK at once."""
    for rng, count in zip(worker_streams(settings.seed, settings.workers),
                          _partition(settings.trials, settings.workers)):
        while count > 0:
            n = min(count, _CHUNK)
            yield rng, n
            count -= n


def _estimate(failures: int, trials: int) -> McEstimate:
    p = failures / trials
    hw = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return McEstimate(p_hat=p, half_width_95=hw, trials=trials)


def mc_outage_fas(config: FasConfig, settings: McSettings,
                  mu=None) -> McEstimate:
    """Empirical P[max_k |g_k|^2 < snr_ratio] over correlated port draws.

    Trials are decided by sequential rejection.  |g_1|^2 ~ Exp(1) is below
    the threshold x with probability p_1 = 1 - e^-x, so each chunk of n
    trials first draws how many are as one Binomial(n, p_1) count, which is
    the chunk's outage count when N = 1.  Otherwise each survivor's power
    is Exp(1) truncated to [0, x), drawn by inversion as -log1p(-p_1 U) with
    U uniform on [0, 1), and each further port is drawn for the trials
    still below x only, until none is left.  Every port's own component is
    circularly symmetric and independent of g_1, so g_1 is taken real (a
    rotation of all ports by its phase leaves their magnitudes' joint law
    unchanged), and with a_0 = sqrt(2|g_1|^2), n_1 and n_2 standard normals
    and r_k = sqrt(1 - mu_k^2), port k stays below x when
    (r_k n_1 + mu_k a_0)^2 + (r_k n_2)^2 < 2x.

    The outage is an intersection over ports, so the order of the visits
    sets their cost and not the law: ports go in ascending |mu_k|, as the
    least correlated reject the most trials, and a port with |mu_k| = 1,
    port 1 itself or its negative, passes whenever port 1 does and is not
    visited.  Each chunk draws every port's normals into one buffer of its
    survivors' size and tests the disk in place, so a call's working set is
    a few arrays of _CHUNK doubles whatever N and the trial count.

    A profile mu replaces the geometry-derived correlation, which is how
    forced independent-port checks are run.
    """
    mu = (correlation_profile(config) if mu is None else checked_mu(mu))[1:]
    mu = mu[np.abs(mu) < 1.0]
    mu = mu[np.argsort(np.abs(mu), kind="stable")]
    root = np.sqrt(1.0 - mu ** 2)
    threshold = config.snr_ratio
    p1 = -math.expm1(-threshold)
    failures = 0
    for rng, n in _chunks(settings):
        count = int(rng.binomial(n, p1))
        if not mu.size:
            failures += count
            continue
        a0 = np.sqrt(-2.0 * np.log1p(-p1 * rng.random(count)))
        buffer = np.empty(2 * count)
        for m, r in zip(mu, root):
            if not a0.size:
                break
            # row 0 then row 1, as one (2, k) draw would fill them
            draws = buffer[:2 * a0.size].reshape(2, -1)
            re, im = rng.standard_normal(out=draws)
            re *= r
            re += m * a0
            re *= re
            im *= r
            im *= im
            re += im
            a0 = a0[re < 2.0 * threshold]
        failures += a0.size
    return _estimate(failures, settings.trials)


def plan_trials(p_analytic: float, base_trials: int) -> Optional[int]:
    """Trial count for an honest error bar at depth p_analytic.

    Returns None when even the cap cannot deliver the target number of
    expected failures (caller should report "MC skipped, analytic only").
    """
    if p_analytic >= 1e-4:
        return base_trials
    if p_analytic <= 0:
        return None
    needed = math.ceil(TARGET_FAILURES / p_analytic)
    if needed > TRIALS_CAP:
        return None
    return max(base_trials, needed)
