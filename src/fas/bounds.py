"""Multiplicative upper bound on the selection outage probability.

Each correlated port contributes a factor 1 - (rho/sqrt(|mu_k|)) *
exp(-kappa*x/(1-mu_k^2)); when that expression could reach zero or below
(small |mu_k|), the safe fallback factor 1 - rho*exp(-kappa*x/(1-mu_k^2))
is used instead, which keeps every factor inside (0, 1].  The factors take
`checked_mu`'s domain, |mu_k| <= 1: a degenerate port, |mu_k| >
`DEGENERATE_MU`, is port 1 over again and gets a factor of exactly 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (DEGENERATE_MU, FasConfig, active_mu, checked_snr,
                      correlation_profile)

DEFAULT_KAPPA = 2.0


@dataclass(frozen=True)
class BoundConstants:
    kappa: float
    rho: float


class ConstantsError(ValueError):
    """Computed bound constant fell outside its admissible range."""


def bound_constants(kappa: float = DEFAULT_KAPPA) -> BoundConstants:
    """Constants (kappa, rho) of the per-port lower bound on Marcum Q.

    Valid for any kappa > 1; rho is the closed-form companion constant and
    always lands in (0, 0.5).
    """
    kappa = float(kappa)
    if not (kappa > 1.0) or not math.isfinite(kappa):
        raise ValueError(f"kappa must be a finite real > 1, got {kappa}")
    km1 = kappa - 1.0
    rho = (math.exp(1.0 / (math.pi * km1 + 2.0)) / (2.0 * kappa)
           * math.sqrt(km1 * (math.pi * km1 + 2.0) / math.pi))
    if not (0.0 < rho < 0.5):
        raise ConstantsError(f"rho={rho} outside (0, 0.5) for kappa={kappa}")
    return BoundConstants(kappa=kappa, rho=rho)


def per_port_bound_factors(mu, snr_ratio: float,
                           constants: BoundConstants) -> np.ndarray:
    """Outage-bound scaling of each correlated port of `mu`; each in (0, 1].

    The gain rho/sqrt(|mu_k|) applies where it is below 1; elsewhere,
    mu_k = 0 included, the fallback gain rho keeps the factor positive.
    Every |mu_k| must be <= 1, and a degenerate port's factor is exactly 1.
    """
    mu = np.asarray(mu, dtype=float)
    mag = np.abs(mu)
    inside = mag <= 1.0
    if not np.all(inside):
        raise ValueError("|mu_k| must be <= 1 and not NaN, got "
                         f"{mu[~inside][0]}")
    with np.errstate(divide="ignore"):  # |mu_k| = 1, and mu_k = 0
        decay = np.exp(-constants.kappa * checked_snr(snr_ratio)
                       / (1.0 - mu * mu))
        gain = constants.rho / np.sqrt(mag)
    # small-|mu| fallback: rho < 0.5 keeps the factor strictly positive
    gain = np.where(gain < 1.0, gain, constants.rho)
    return np.where(mag > DEGENERATE_MU, 1.0, 1.0 - gain * decay)


def per_port_bound_factor(mu_k: float, snr_ratio: float,
                          constants: BoundConstants) -> float:
    """Outage-bound scaling contributed by one correlated port; in (0, 1]."""
    return float(per_port_bound_factors([mu_k], snr_ratio, constants)[0])


def outage_upper_bound_profile(mu: Sequence[float], snr_ratio: float,
                               constants: BoundConstants) -> float:
    """Bound for an explicit profile; degenerate ports are skipped."""
    mu = active_mu(mu)
    factors = per_port_bound_factors(mu[1:], snr_ratio, constants)
    return -math.expm1(-snr_ratio) * float(np.prod(factors))


def outage_upper_bound(config: FasConfig, constants: BoundConstants) -> float:
    """Upper bound on the exact outage probability for one configuration."""
    return outage_upper_bound_profile(correlation_profile(config),
                                      config.snr_ratio, constants)
