"""Seeded Monte-Carlo oracle for the analytic outage expressions.

Trials are partitioned over logical workers with independent Philox
sub-streams spawned from one seed, so an estimate is bit-reproducible for a
fixed (trials, seed, workers) triple regardless of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp

from .analytic import joint_pdf
from .channel import CorrelationProfile, FasConfig, correlation_profile, \
    draw_channels_batch

_CHUNK = 200_000

# Rare-event policy: scale trials to this many expected failures, up to the cap.
TARGET_FAILURES = 100
TRIALS_CAP = 10 ** 9
MIN_TRIALS = 1000


@dataclass(frozen=True)
class McSettings:
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.trials < MIN_TRIALS:
            raise ValueError(f"trials must be >= {MIN_TRIALS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    p_hat: float
    half_width_95: float
    trials: int


def worker_streams(seed: int, workers: int) -> list[np.random.Generator]:
    """Deterministic independent sub-streams for each logical worker."""
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child))
            for child in root.spawn(workers)]


def _partition(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _estimate(failures: int, trials: int) -> McEstimate:
    p = failures / trials
    hw = 1.96 * math.sqrt(p * (1.0 - p) / trials)
    return McEstimate(p_hat=p, half_width_95=hw, trials=trials)


def mc_outage_fas(config: FasConfig, settings: McSettings,
                  profile: Optional[CorrelationProfile] = None) -> McEstimate:
    """Empirical P[max_k |g_k|^2 < snr_ratio] over correlated port draws.

    A profile override replaces the geometry-derived correlation, which is
    how forced independent-port checks are run.
    """
    if profile is None:
        profile = correlation_profile(config)
    threshold = config.snr_ratio
    failures = 0
    for rng, count in zip(worker_streams(settings.seed, settings.workers),
                          _partition(settings.trials, settings.workers)):
        remaining = count
        while remaining > 0:
            n = min(remaining, _CHUNK)
            g = draw_channels_batch(profile, rng, n)
            power = np.abs(g) ** 2
            failures += int(np.count_nonzero(power.max(axis=1) < threshold))
            remaining -= n
    return _estimate(failures, settings.trials)


def mc_outage_mrc(branches: int, snr_ratio: float,
                  settings: McSettings) -> McEstimate:
    """Empirical L-branch MRC outage over i.i.d. complex Gaussian branches."""
    if branches < 1:
        raise ValueError("branches must be >= 1")
    failures = 0
    for rng, count in zip(worker_streams(settings.seed, settings.workers),
                          _partition(settings.trials, settings.workers)):
        remaining = count
        while remaining > 0:
            n = min(remaining, _CHUNK)
            h = rng.standard_normal((n, 2 * branches)) * np.sqrt(0.5)
            total = np.sum(h * h, axis=1)
            failures += int(np.count_nonzero(total < snr_ratio))
            remaining -= n
    return _estimate(failures, settings.trials)


def plan_trials(p_analytic: float, base_trials: int,
                cap: int = TRIALS_CAP) -> Optional[int]:
    """Trial count for an honest error bar at depth p_analytic.

    Returns None when even the cap cannot deliver the target number of
    expected failures (caller should report "MC skipped, analytic only").
    """
    if p_analytic >= 1e-4:
        return base_trials
    if p_analytic <= 0:
        return None
    needed = math.ceil(TARGET_FAILURES / p_analytic)
    if needed > cap:
        return None
    return max(base_trials, needed)


@dataclass(frozen=True)
class HistogramSpec:
    r_max: float
    bins: int

    def __post_init__(self):
        if self.r_max <= 0 or self.bins < 2:
            raise ValueError("need r_max > 0 and bins >= 2")


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    critical_1pct: float

    @property
    def rejected_at_1pct(self) -> bool:
        return self.statistic > self.critical_1pct


def _cell_probabilities(profile: CorrelationProfile,
                        edges: np.ndarray) -> np.ndarray:
    """Per-cell mass of the two-port joint density via tensor Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(12)
    n = edges.size - 1
    probs = np.empty((n, n))
    for i in range(n):
        a1, b1 = edges[i], edges[i + 1]
        x1 = 0.5 * (b1 - a1) * nodes + 0.5 * (b1 + a1)
        w1 = 0.5 * (b1 - a1) * weights
        for j in range(n):
            a2, b2 = edges[j], edges[j + 1]
            x2 = 0.5 * (b2 - a2) * nodes + 0.5 * (b2 + a2)
            w2 = 0.5 * (b2 - a2) * weights
            acc = 0.0
            for u, wu in zip(x1, w1):
                for v, wv in zip(x2, w2):
                    acc += wu * wv * joint_pdf(profile, (u, v))
            probs[i, j] = acc
    return probs


def mc_joint_density_check(profile: CorrelationProfile, settings: McSettings,
                           grid: HistogramSpec) -> ChiSquareResult:
    """Chi-square goodness of fit of (|g_1|, |g_2|) draws vs the joint pdf.

    Cells with expected count below 5 are pooled into one bucket together
    with the mass outside the histogram window.
    """
    if profile.n_ports != 2:
        raise ValueError("density check is defined for two-port profiles")
    edges = np.linspace(0.0, grid.r_max, grid.bins + 1)
    observed = np.zeros((grid.bins, grid.bins))
    for rng, count in zip(worker_streams(settings.seed, settings.workers),
                          _partition(settings.trials, settings.workers)):
        remaining = count
        while remaining > 0:
            n = min(remaining, _CHUNK)
            g = np.abs(draw_channels_batch(profile, rng, n))
            hist, _, _ = np.histogram2d(g[:, 0], g[:, 1], bins=(edges, edges))
            observed += hist
            remaining -= n

    expected = _cell_probabilities(profile, edges) * settings.trials
    outside_expected = settings.trials - expected.sum()
    outside_observed = settings.trials - observed.sum()

    keep = expected >= 5.0
    obs = observed[keep]
    exp = expected[keep]
    pool_obs = observed[~keep].sum() + outside_observed
    pool_exp = expected[~keep].sum() + outside_expected
    if pool_exp > 0:
        obs = np.append(obs, pool_obs)
        exp = np.append(exp, pool_exp)

    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return ChiSquareResult(statistic=stat, dof=dof,
                           p_value=float(sp.chdtrc(dof, stat)),
                           critical_1pct=float(sp.chdtri(dof, 0.01)))
