"""Seeded Monte-Carlo oracle for the analytic outage expressions.

Trials are partitioned over logical workers with independent PCG64
sub-streams spawned from one seed, so an estimate is bit-reproducible for a
fixed (trials, seed, workers) triple regardless of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import (FasConfig, checked_count, checked_mu,
                      correlation_profile)

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
        for name, least in (("trials", MIN_TRIALS), ("workers", 1),
                            ("seed", 0)):
            object.__setattr__(self, name,
                               checked_count(getattr(self, name), name, least))
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
    unchanged), and with a_0 = sqrt(2|g_1|^2), port k's value is
    sqrt(1 - mu_k^2)(n_1 + i n_2) + mu_k a_0 for standard normals n_1, n_2.

    That is a point at distance c = |mu_k| a_0 from the origin (the sign
    of mu_k drops out by symmetry) plus an offset of magnitude
    rho = sqrt(2(1 - mu_k^2) E), E ~ Exp(1), at an angle phi to it that is
    uniform and independent of rho; only cos(phi) enters, so phi = pi U
    serves.  The port stays below x when rho^2 + c^2 + 2 rho c cos(phi) <
    2x, inside the disk of radius R = sqrt(2x) > c, and the triangle
    inequality decides most trials on the magnitude alone: t = rho + c < R
    keeps a trial at every angle, and d = rho - c >= R drops it at every
    angle.  Only the band between draws U, and there the test reads
    t^2 + d^2 + (t^2 - d^2) cos(phi) < 4x.  So a port visit costs one
    exponential, and a uniform only in the band.

    The outage is an intersection over ports, so the order of the visits
    sets their cost and not the law: ports go in ascending |mu_k|, as the
    least correlated reject the most trials, and a port with |mu_k| = 1,
    port 1 itself or its negative, passes whenever port 1 does and is not
    visited.  One buffer per call holds t and d for a chunk's survivors,
    written in place, so a call's working set is a few arrays of _CHUNK
    doubles whatever N and the trial count.

    A profile mu replaces the geometry-derived correlation, which is how
    forced independent-port checks are run.
    """
    mu = (correlation_profile(config) if mu is None else checked_mu(mu))[1:]
    mu = np.abs(mu)
    mu = np.sort(mu[mu < 1.0])
    scale = 2.0 * (1.0 - mu ** 2)
    threshold = config.snr_ratio
    radius = math.sqrt(2.0 * threshold)
    p1 = -math.expm1(-threshold)
    failures = 0
    buffer = np.empty((2, min(settings.trials, _CHUNK)))
    for rng, n in _chunks(settings):
        count = int(rng.binomial(n, p1))
        if not mu.size:
            failures += count
            continue
        a0 = np.sqrt(-2.0 * np.log1p(-p1 * rng.random(count)))
        for m, v in zip(mu, scale):
            if not a0.size:
                break
            t, d = buffer[:, :a0.size]
            rng.standard_exponential(out=t)
            t *= v
            np.sqrt(t, out=t)
            np.multiply(a0, m, out=d)
            t += d
            d *= -2.0
            d += t
            # d <= t, so a trial kept outright has d < R too
            keep = t < radius
            band = np.flatnonzero((d < radius) ^ keep)
            if band.size:
                tt = np.square(t[band])
                dd = np.square(d[band])
                cos = np.cos(math.pi * rng.random(band.size))
                keep[band] = tt + dd + (tt - dd) * cos < 4.0 * threshold
            a0 = a0[keep]
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
