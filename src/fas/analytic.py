"""Closed-form and quadrature evaluators for the port-envelope statistics.

Covers the joint pdf/cdf of the correlated envelopes, the exact outage
probability (single finite integral), its closed-form approximation, the
per-port outage reduction, and the L-branch MRC baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp
from scipy.integrate import quad

from .channel import DEGENERATE_MU, CorrelationProfile, FasConfig, correlation_profile
from .specfun import delta_q1, marcum_q1


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSettings()


@dataclass(frozen=True)
class OutageReport:
    """Exact/approximate/bounded/MC outage values for one configuration."""

    exact: float
    approx: float
    upper_bound: Optional[float] = None
    mc_estimate: Optional[float] = None
    mc_half_width_95: Optional[float] = None


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def _quad(f, lo: float, hi: float, q: QuadratureSettings) -> float:
    val, err = quad(f, lo, hi, epsabs=q.abs_tol, epsrel=q.rel_tol,
                    limit=q.max_subdivisions)
    if not (math.isfinite(val) and math.isfinite(err)):
        raise QuadratureError(
            f"quadrature returned {val!r} with error estimate {err!r}",
            val, err)
    tol = max(q.abs_tol, q.rel_tol * abs(val))
    if err > max(tol * 100.0, 1e-8):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance", val, err)
    return val


def _port_cdf_product(a2: np.ndarray, b2: np.ndarray, t: float) -> float:
    """prod_k P1(a_k sqrt(t), b_k) over the non-reference ports.

    a2 and b2 hold a_k^2 and b_k^2.  Each conditional cdf
    P1 = 1 - Q1 is the noncentral chi-square cdf chndtr(b^2, 2, a^2 t),
    taken directly rather than as 1 minus an upper tail, so small P1
    keeps its relative accuracy (Gil, Segura & Temme, ACM TOMS 40(3),
    2014: compute the smaller of P and Q directly).
    """
    return float(np.prod(sp.chndtr(b2, 2.0, a2 * t)))


def _validated_mu(profile: CorrelationProfile) -> np.ndarray:
    mu = profile.mu
    if np.any(np.abs(mu[1:]) >= 1.0):
        raise ValueError("profile is singular: some |mu_k| equals 1")
    return mu


def joint_pdf(profile: CorrelationProfile, r: Sequence[float]) -> float:
    """Joint density of the N port envelopes at the point r (sigma = 1).

    Product of a Rayleigh factor for the reference port and conditional
    Rician factors for the rest; evaluated with the scaled I0 so large
    correlation cannot overflow.
    """
    mu = _validated_mu(profile)
    r = np.asarray(r, dtype=float)
    if r.shape != mu.shape:
        raise ValueError("r must supply one envelope per port")
    if np.any(r < 0):
        raise ValueError("envelopes must be nonnegative")
    r1 = r[0]
    one_minus = 1.0 - mu ** 2
    # exponent and Bessel argument combined: exp(-u) I0(z) = ive(0,z) exp(z-u)
    z = 2.0 * np.abs(mu) * r1 * r / one_minus
    expo = -(r ** 2 + mu ** 2 * r1 ** 2) / one_minus + z
    factors = 2.0 * r / one_minus * sp.ive(0, z) * np.exp(expo)
    return float(np.prod(factors))


def joint_cdf(profile: CorrelationProfile, r: Sequence[float],
              q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """P[|g_1| < r_1, ..., |g_N| < r_N] via a single adaptive quadrature."""
    mu = _validated_mu(profile)
    r = np.asarray(r, dtype=float)
    if r.shape != mu.shape:
        raise ValueError("r must supply one envelope per port")
    if np.any(r < 0):
        raise ValueError("envelopes must be nonnegative")
    one_minus = 1.0 - mu[1:] ** 2
    a2 = 2.0 * mu[1:] ** 2 / one_minus
    b2 = 2.0 * r[1:] ** 2 / one_minus
    return _quad(lambda t: math.exp(-t) * _port_cdf_product(a2, b2, t),
                 0.0, r[0] ** 2, q)


def _active_mu(mu: np.ndarray) -> np.ndarray:
    """Ports statistically identical to port 1 contribute nothing; drop them."""
    mu = np.asarray(mu, dtype=float)
    return mu[np.abs(mu) <= DEGENERATE_MU]


def outage_exact_profile(mu: Sequence[float], snr_ratio: float,
                         q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Exact selection outage for an explicit correlation profile."""
    if snr_ratio <= 0:
        raise ValueError("snr_ratio must be positive")
    mu = _active_mu(np.asarray(mu, dtype=float))
    x = float(snr_ratio)
    one_minus = 1.0 - mu[1:] ** 2
    a2 = 2.0 * mu[1:] ** 2 / one_minus
    b2 = 2.0 * x / one_minus
    return _quad(lambda t: math.exp(-t) * _port_cdf_product(a2, b2, t),
                 0.0, x, q)


def outage_exact(config: FasConfig,
                 q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Exact outage probability of the N-port selection system."""
    return outage_exact_profile(correlation_profile(config).mu, config.snr_ratio, q)


def outage_n2_closed_form(mu2: float, snr_ratio: float) -> float:
    """Two-port outage in closed form through the Marcum Q difference."""
    if not abs(mu2) < 1:
        raise ValueError(f"|mu2| must be < 1, got {mu2}")
    if snr_ratio <= 0:
        raise ValueError("snr_ratio must be positive")
    x = float(snr_ratio)
    base = math.exp(-x)
    alpha = math.sqrt(2.0 * x / (1.0 - mu2 ** 2))
    beta = math.sqrt(2.0 * mu2 ** 2 * x / (1.0 - mu2 ** 2))
    return 1.0 - base - base * delta_q1(alpha, beta)


def outage_approx_profile(mu: Sequence[float], snr_ratio: float) -> float:
    """Closed-form outage approximation; may go negative for large N."""
    if snr_ratio <= 0:
        raise ValueError("snr_ratio must be positive")
    mu = np.asarray(mu, dtype=float)
    if np.any(np.abs(mu[1:]) >= 1.0):
        raise ValueError("approximation requires |mu_k| < 1")
    x = float(snr_ratio)
    base = math.exp(-x)
    total = 0.0
    for m in mu[1:]:
        alpha = math.sqrt(2.0 * x / (1.0 - m ** 2))
        beta = math.sqrt(2.0 * m ** 2 * x / (1.0 - m ** 2))
        total += delta_q1(alpha, beta)
    return 1.0 - base - base * total


def outage_approx(config: FasConfig) -> float:
    """Sum-form approximation; tight for strong correlation or stringent
    targets, and deliberately not clamped when it goes negative."""
    return outage_approx_profile(correlation_profile(config).mu, config.snr_ratio)


def outage_port_reduction(config: FasConfig,
                          q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Outage decrease contributed by the last port:
    p_out(N) = p_out(N-1) - reduction."""
    if config.n_ports < 2:
        raise ValueError("port reduction needs n_ports >= 2")
    mu = correlation_profile(config).mu
    x = float(config.snr_ratio)
    mu_last = mu[-1]
    if abs(mu_last) > DEGENERATE_MU:
        # a port identical to the reference adds nothing
        return 0.0
    head = _active_mu(mu[:-1])
    one_minus = 1.0 - head[1:] ** 2
    a2 = 2.0 * head[1:] ** 2 / one_minus
    b2 = 2.0 * x / one_minus
    a_last = math.sqrt(2.0 * mu_last ** 2 / (1.0 - mu_last ** 2))
    b_last = math.sqrt(2.0 * x / (1.0 - mu_last ** 2))

    def integrand(t: float) -> float:
        # the last port's factor is the upper tail Q1; marcum_q1 keeps it
        # accurate where 1 - chndtr would cancel
        return (math.exp(-t) * marcum_q1(a_last * math.sqrt(t), b_last)
                * _port_cdf_product(a2, b2, t))

    return _quad(integrand, 0.0, x, q)


def outage_mrc(branches: int, snr_ratio: float) -> float:
    """L-branch maximum ratio combining outage over independent Rayleigh
    fading: the regularized lower incomplete gamma P(L, x)."""
    if int(branches) != branches or branches < 1:
        raise ValueError(f"branches must be an integer >= 1, got {branches}")
    if snr_ratio <= 0:
        raise ValueError("snr_ratio must be positive")
    return float(sp.gammainc(branches, snr_ratio))
