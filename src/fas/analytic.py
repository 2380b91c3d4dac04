"""Closed-form and quadrature evaluators for the port-envelope statistics.

Covers the joint pdf/cdf of the correlated envelopes, the exact outage
probability (single finite integral), its closed-form approximation, and
the L-branch MRC baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special as sp
from scipy.integrate import quad

from .channel import FasConfig, active_mu, checked_mu, correlation_profile


@dataclass(frozen=True)
class QuadratureSettings:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSettings()


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, error_estimate: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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


def _cdf_integral(mu: np.ndarray, r1_sq: float, rk_sq,
                  q: QuadratureSettings) -> float:
    """P[|g_1|^2 < r1_sq and |g_k|^2 < rk_sq for k >= 2] (sigma = 1).

    Conditioned on t = |g_1|^2, port k is Rician, so the probability is
    int_0^r1_sq e^-t prod_k P1(a_k sqrt(t), b_k) dt with a_k^2 =
    2 mu_k^2/(1 - mu_k^2) and b_k^2 = 2 rk_sq/(1 - mu_k^2); rk_sq is one
    squared radius per port k >= 2, or a scalar shared by all of them.
    """
    one_minus = 1.0 - mu[1:] ** 2
    a2 = 2.0 * mu[1:] ** 2 / one_minus
    b2 = 2.0 * rk_sq / one_minus
    return _quad(lambda t: math.exp(-t) * _port_cdf_product(a2, b2, t),
                 0.0, r1_sq, q)


def _validated_mu(mu, r) -> tuple[np.ndarray, np.ndarray]:
    """The checked profile mu and envelopes r of the joint pdf and cdf: no
    |mu_k| may be 1, and r holds one nonnegative envelope per port along its
    last axis."""
    mu = checked_mu(mu)
    if np.any(np.abs(mu) >= 1.0):
        raise ValueError("profile is singular: some |mu_k| equals 1")
    r = np.asarray(r, dtype=float)
    if r.shape[-1:] != mu.shape:
        raise ValueError("r must supply one envelope per port")
    if not np.all(r >= 0):
        raise ValueError("envelopes must be nonnegative and not NaN")
    return mu, r


def joint_pdf(mu, r) -> float | np.ndarray:
    """Joint density of the N port envelopes at the point r (sigma = 1).

    Product of a Rayleigh factor for the reference port and conditional
    Rician factors for the rest; evaluated with the scaled I0 so large
    correlation cannot overflow.  r holds one envelope per port along its
    last axis; a 1-D r gives a float, a stack of points an array.
    """
    mu, r = _validated_mu(mu, r)
    r1 = r[..., :1]
    one_minus = 1.0 - mu ** 2
    # exponent and Bessel argument combined: exp(-u) I0(z) = ive(0,z) exp(z-u)
    z = 2.0 * np.abs(mu) * r1 * r / one_minus
    expo = -(r ** 2 + mu ** 2 * r1 ** 2) / one_minus + z
    factors = 2.0 * r / one_minus * sp.ive(0, z) * np.exp(expo)
    density = np.prod(factors, axis=-1)
    return float(density) if r.ndim == 1 else density


def joint_cdf(mu, r: Sequence[float],
              q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """P[|g_1| < r_1, ..., |g_N| < r_N] via a single adaptive quadrature."""
    mu, r = _validated_mu(mu, r)
    if r.ndim != 1:
        raise ValueError("joint_cdf takes one point r")
    return _cdf_integral(mu, r[0] ** 2, r[1:] ** 2, q)


def outage_exact_profile(mu: Sequence[float], snr_ratio: float,
                         q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Exact selection outage for an explicit correlation profile."""
    if not snr_ratio > 0:
        raise ValueError(f"snr_ratio must be positive, got {snr_ratio}")
    x = float(snr_ratio)
    return _cdf_integral(active_mu(mu), x, x, q)


def outage_exact(config: FasConfig,
                 q: QuadratureSettings = DEFAULT_QUADRATURE) -> float:
    """Exact outage probability of the N-port selection system."""
    return outage_exact_profile(correlation_profile(config), config.snr_ratio, q)


def _marcum_difference(a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Q1(a, b) - Q1(b, a) elementwise from a^2 and b^2, as two cdfs
    chndtr(a^2, 2, b^2) - chndtr(b^2, 2, a^2), since 1 - Q1(a, b) =
    chndtr(b^2, 2, a^2).  NaN where chndtr fails: on overflow, and for
    a^2 >= ~4e10 within ~1e-8 of the diagonal."""
    return sp.chndtr(a2, 2.0, b2) - sp.chndtr(b2, 2.0, a2)


def outage_approx_profile(mu: Sequence[float], snr_ratio: float) -> float:
    """Closed-form outage approximation; may go negative for large N.

    1 - e^-x - e^-x sum_k [Q1(a_k, b_k) - Q1(b_k, a_k)] over the ports
    k >= 2, with a_k^2 = 2x/(1 - mu_k^2) and b_k = |mu_k| a_k.  A port whose
    difference is not finite contributes 0: that needs x >= 42, where its
    term is below 3e-19, or an overflowing a_k^2, where e^-x is 0."""
    if not snr_ratio > 0:
        raise ValueError(f"snr_ratio must be positive, got {snr_ratio}")
    x = float(snr_ratio)
    mu = active_mu(mu)[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = 2.0 * x / (1.0 - mu ** 2)
        delta = _marcum_difference(a2, mu ** 2 * a2)
    return float(-math.expm1(-x) - math.exp(-x) * np.sum(delta[np.isfinite(delta)]))


def outage_n2_closed_form(mu2: float, snr_ratio: float) -> float:
    """Two-port outage in closed form, exact for N = 2: the approximation's
    Marcum Q difference for the profile [0, mu2]."""
    if not abs(mu2) < 1:
        raise ValueError(f"|mu2| must be < 1, got {mu2}")
    return outage_approx_profile((0.0, mu2), snr_ratio)


def outage_approx(config: FasConfig) -> float:
    """Sum-form approximation; tight for strong correlation or stringent
    targets, and deliberately not clamped when it goes negative."""
    return outage_approx_profile(correlation_profile(config), config.snr_ratio)


def outage_mrc(branches: int, snr_ratio: float) -> float:
    """L-branch maximum ratio combining outage over independent Rayleigh
    fading: the regularized lower incomplete gamma P(L, x)."""
    if int(branches) != branches or branches < 1:
        raise ValueError(f"branches must be an integer >= 1, got {branches}")
    if not snr_ratio > 0:
        raise ValueError(f"snr_ratio must be positive, got {snr_ratio}")
    return float(sp.gammainc(branches, snr_ratio))
