"""Multiplicative upper bound on the selection outage probability.

Each correlated port contributes a factor 1 - (rho/sqrt(|mu_k|)) *
exp(-kappa*x/(1-mu_k^2)); when that expression could reach zero or below
(small |mu_k|), the safe fallback factor 1 - rho*exp(-kappa*x/(1-mu_k^2))
is used instead, which keeps every factor inside (0, 1].  The factors take
`channel`'s rules on mu: its range, |mu_k| <= 1, and its degenerate ports,
port 1 over again, which get a factor of exactly 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import (DEGENERATE_MU, FasConfig, checked_mu, checked_mu_range,
                      checked_rows, checked_snr, correlation_profile,
                      is_degenerate)

DEFAULT_KAPPA = 2.0


class ConstantsError(ValueError):
    """Computed bound constant fell outside its admissible range."""


@dataclass(frozen=True)
class BoundConstants:
    """Constants of the per-port lower bound on Marcum Q: any kappa > 1,
    and rho, derived from kappa in closed form, always in (0, 0.5)."""

    kappa: float
    rho: float = field(init=False)

    def __post_init__(self):
        kappa = float(self.kappa)
        if not (kappa > 1.0) or not math.isfinite(kappa):
            raise ValueError(f"kappa must be a finite real > 1, got {kappa}")
        km1 = kappa - 1.0
        rho = (math.exp(1.0 / (math.pi * km1 + 2.0)) / (2.0 * kappa)
               * math.sqrt(km1 * (math.pi * km1 + 2.0) / math.pi))
        if not (0.0 < rho < 0.5):
            raise ConstantsError(f"rho={rho} outside (0, 0.5) for kappa={kappa}")
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "rho", rho)

    def exactly_one_radius(self, snr_ratio: float) -> float:
        """Port distance d_one (wavelengths) within which every bound factor
        1 - g e^{-kappa x / (1 - mu^2)}, mu = J0(2 pi d), rounds to exactly 1.0.

        With z = 2 pi d and z^2 <= min(kappa x / 20, 4): the alternating
        series gives J0(z) >= 1 - z^2/4 >= 0, so 1 - mu^2 <= z^2/2 and the
        exponent kappa x / (1 - mu^2) >= 40 > 54 ln 2.  Every gain g is
        below 1 (rho < 0.5), so g e^{-40} < 4.3e-18 < 2^-54 and 1 - g e^{-40}
        rounds to 1.0, 13x clear of the rounding of j0, 1 - mu^2 and exp."""
        z_one = math.sqrt(min(self.kappa * checked_snr(snr_ratio) / 20.0, 4.0))
        return z_one / (2.0 * math.pi)

    def factor_falls_to(self, mu_w: float, snr_ratio: float) -> bool:
        """Whether the kernel's factor falls as mu falls from 1 to mu_w at
        SNR ratio x (False proves nothing).  It does when mu_w > rho^2: the
        gain rho/sqrt(mu) stays below 1, on one branch, and grows as mu
        falls; so does exp(-kappa x / (1 - mu^2)), so 1 - gain * exp falls.
        And the degenerate zone mu > DEGENERATE_MU, where the kernel sets
        the factor to exactly 1.0, must lie inside `exactly_one_radius`,
        where the formula's factor is exactly 1.0 too, so that rule changes
        no value: with z = 2 pi d_one, J0(z) <= 1 - z^2/4 (1 - z^2/16).
        Cushions on both keep rounding off their edges."""
        z_one = 2.0 * math.pi * self.exactly_one_radius(snr_ratio)
        return (mu_w > self.rho * self.rho * (1.0 + 1e-9)
                and z_one ** 2 / 4.0 * (1.0 - z_one ** 2 / 16.0)
                > 2.0 * (1.0 - DEGENERATE_MU))


def bound_constants(kappa: float = DEFAULT_KAPPA) -> BoundConstants:
    """The bound's constants at kappa; see `BoundConstants`."""
    return BoundConstants(kappa)


def _bound_factors(mu: np.ndarray, x, constants: BoundConstants) -> np.ndarray:
    """The factors of ports mu at SNR ratios x, which broadcast against
    mu; both already checked."""
    mag = np.abs(mu)
    with np.errstate(divide="ignore"):  # |mu_k| = 1, and mu_k = 0
        decay = np.exp(-constants.kappa * x / (1.0 - mu * mu))
        gain = constants.rho / np.sqrt(mag)
    # small-|mu| fallback: rho < 0.5 keeps the factor strictly positive
    gain = np.where(gain < 1.0, gain, constants.rho)
    return np.where(is_degenerate(mag), 1.0, 1.0 - gain * decay)


def per_port_bound_factors(mu, snr_ratio: float,
                           constants: BoundConstants) -> np.ndarray:
    """Outage-bound scaling of each correlated port of `mu`; each in (0, 1].

    The gain rho/sqrt(|mu_k|) applies where it is below 1; elsewhere,
    mu_k = 0 included, the fallback gain rho keeps the factor positive.
    mu, of any shape, takes `checked_mu_range`'s rule, and a degenerate
    port's factor is exactly 1.
    """
    return _bound_factors(checked_mu_range(mu), checked_snr(snr_ratio),
                          constants)


def per_port_bound_factor(mu_k: float, snr_ratio: float,
                          constants: BoundConstants) -> float:
    """Outage-bound scaling contributed by one correlated port; in (0, 1]."""
    return float(per_port_bound_factors([mu_k], snr_ratio, constants)[0])


def outage_upper_bound_rows(mu, snr_ratio,
                            constants: BoundConstants) -> np.ndarray:
    """Bound of each row of a block of profiles at its own SNR ratio
    (`channel.checked_rows`), from one pass of the factor kernel: the
    padding and the degenerate ports add factors of exactly 1."""
    mu, x = checked_rows(mu, snr_ratio)
    factors = _bound_factors(mu[:, 1:], x[:, None], constants)
    # one port's outage 1 - e^-x from math.expm1, as `design` takes it:
    # numpy's array expm1 can round to the neighbouring double
    single = -np.array([math.expm1(-v) for v in x.tolist()])
    return single * np.multiply.reduce(factors, 1)


def outage_upper_bound_profile(mu: Sequence[float], snr_ratio: float,
                               constants: BoundConstants) -> float:
    """Bound for an explicit profile; a degenerate port's factor is 1."""
    return float(outage_upper_bound_rows(
        checked_mu(mu)[None], [checked_snr(snr_ratio)], constants)[0])


def outage_upper_bound(config: FasConfig, constants: BoundConstants) -> float:
    """Upper bound on the exact outage probability for one configuration."""
    return outage_upper_bound_profile(correlation_profile(config),
                                      config.snr_ratio, constants)
