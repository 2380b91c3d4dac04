"""Closed-form and quadrature evaluators for the port-envelope statistics.

Covers the joint pdf/cdf of the correlated envelopes, the exact outage
probability (single finite integral), its closed-form approximation, and
the L-branch MRC baseline.

The integral takes the package's own adaptive Gauss-Kronrod rule, `quad`:
QUADPACK's 21-point rule and error estimate (Piessens, de Doncker-Kapenga,
Ueberhuber & Kahaner, *QUADPACK*, Springer 1983), with every node of a
round evaluated in one call of the vectorised integrand.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ._special import sp
from .channel import (FasConfig, active_mu, checked_count, checked_mu,
                      checked_snr, correlation_profile)
from .specfun import port_cdf


# `quad`'s stopping rule: the summed error estimate at most
# max(_ABS_TOL, _REL_TOL * |value|), on at most _MAX_INTERVALS intervals
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_INTERVALS = 2000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""

    def __init__(self, message: str, estimate: float, error_estimate: float,
                 n_evals: int):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.n_evals = n_evals


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# The 21-point Kronrod nodes on [-1, 1] and their weights, and the weights
# of the 10-point Gauss rule on the odd-indexed nodes (QUADPACK's dqk21).
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK21_NODES = np.concatenate([_GK21_NODES, -_GK21_NODES[-2::-1]])
_KRONROD_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_KRONROD_WEIGHTS = np.concatenate([_KRONROD_WEIGHTS,
                                   _KRONROD_WEIGHTS[-2::-1]])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1:10:2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]
_GAUSS_WEIGHTS[11::2] = _GAUSS_WEIGHTS[9::-2]
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# exp(-t) is 0.0 in double from t ~ 745.14 on
_EXP_ZERO = 746.0


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's dqk21 on the intervals [lo_i, hi_i], with f called once on
    all their nodes: each interval's Kronrod value, its error estimate, and
    its `resasc` (the integral of |f - mean f|)."""
    half = 0.5 * (hi - lo)
    fx = f((0.5 * (lo + hi))[:, None] + half[:, None] * _GK21_NODES)
    kronrod = fx @ _KRONROD_WEIGHTS
    resabs = np.abs(fx) @ _KRONROD_WEIGHTS * np.abs(half)
    resasc = (np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD_WEIGHTS
              * np.abs(half))
    err = np.abs((kronrod - fx @ _GAUSS_WEIGHTS) * half)
    # QUADPACK's scaling of |K - G|, and its floor at the rounding level
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return kronrod * half, np.maximum(err, floor), resasc


def quad(f, lo: float, hi: float, full_output=0):
    """Adaptive G10/K21 quadrature of f over [lo, hi], as QUADPACK's qags
    without its extrapolation.

    f takes an array of nodes and returns f at each.  The rule stops once
    the summed error estimate is at most tol = max(_ABS_TOL, _REL_TOL *
    |value|); until then it bisects the interval of largest error, up to
    _MAX_INTERVALS intervals.  Like qags, it accepts the first interval only
    when the error estimate is not its `resasc`, which it equals when the
    Gauss-Kronrod difference is too large to trust.  Returns (value, error),
    or with full_output (value, error, {"neval": n}).  Raises
    QuadratureError when the value or the error is not finite, or the error
    exceeds max(100 tol, 1e-8).
    """
    lows, highs = [lo], [hi]
    value, err, resasc = _gk21(f, np.array(lows), np.array(highs))
    values, errors = value.tolist(), err.tolist()
    total, error = values[0], errors[0]
    done = (error == 0.0 or not math.isfinite(error)
            or (error <= max(_ABS_TOL, _REL_TOL * abs(total))
                and error != resasc[0]))
    while not done and len(values) < _MAX_INTERVALS:
        i = max(range(len(errors)), key=errors.__getitem__)
        mid = 0.5 * (lows[i] + highs[i])
        value, err, _ = _gk21(f, np.array([lows[i], mid]),
                              np.array([mid, highs[i]]))
        lows.append(mid)
        highs.append(highs[i])
        highs[i] = mid
        values[i], upper = value.tolist()
        errors[i], upper_err = err.tolist()
        values.append(upper)
        errors.append(upper_err)
        total, error = math.fsum(values), math.fsum(errors)
        done = (not math.isfinite(error)
                or error <= max(_ABS_TOL, _REL_TOL * abs(total)))
    # one round of f on the whole range, then one per bisection
    n_evals = 21 * (2 * len(values) - 1)
    tol = max(_ABS_TOL, _REL_TOL * abs(total))
    if not (math.isfinite(total) and math.isfinite(error)):
        problem = f"returned {total!r} with error estimate {error!r}"
    elif error > max(tol * 100.0, 1e-8):
        problem = f"error estimate {error:.3e} exceeds tolerance {tol:.3e}"
    elif full_output:
        return total, error, {"neval": n_evals}
    else:
        return total, error
    raise QuadratureError(
        f"quadrature {problem} after {n_evals} integrand evaluations on "
        f"{len(values)} subintervals", total, error, n_evals)


def _port_cdf_product(a2: np.ndarray, b2: np.ndarray, t) -> np.ndarray:
    """prod_k P1(a_k sqrt(t), b_k) over the non-reference ports at each t,
    from a_k^2 and b_k^2 in one `port_cdf` call."""
    t = np.asarray(t, dtype=float)
    return np.prod(port_cdf(a2 * t[..., None], b2), axis=-1)


def _cdf_integral(mu: np.ndarray, r1_sq: float, rk_sq) -> float:
    """P[|g_1|^2 < r1_sq and |g_k|^2 < rk_sq for k >= 2] (sigma = 1).

    Conditioned on t = |g_1|^2, port k is Rician, so the probability is
    int_0^r1_sq e^-t prod_k P1(a_k sqrt(t), b_k) dt with a_k^2 =
    2 mu_k^2/(1 - mu_k^2) and b_k^2 = 2 rk_sq/(1 - mu_k^2); rk_sq is one
    squared radius per port k >= 2, or a scalar shared by all of them.
    The ports are positively associated (every factor falls with t), so the
    value is clamped between the product of their marginals and the least.
    """
    one_minus = 1.0 - mu[1:] ** 2
    a2 = 2.0 * mu[1:] ** 2 / one_minus
    b2 = 2.0 * rk_sq / one_minus
    # e^-t is 0.0 in double beyond _EXP_ZERO: the cut drops nothing, and
    # keeps the first nodes where the mass is when r1_sq is large
    p, _ = quad(lambda t: np.exp(-t) * _port_cdf_product(a2, b2, t),
                0.0, min(r1_sq, _EXP_ZERO))
    radii = np.empty(a2.size + 1)
    radii[0], radii[1:] = r1_sq, rk_sq
    marginals = -np.expm1(-radii)
    # port 1's marginal times the others' product, summed in logs so that
    # it underflows to 0.0 where a running product would stick at 5e-324
    with np.errstate(divide="ignore"):
        others = math.exp(math.fsum(np.log(marginals[1:]).tolist()))
    return min(max(p, float(marginals[0]) * others), float(marginals.min()))


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


def joint_cdf(mu, r: Sequence[float]) -> float:
    """P[|g_1| < r_1, ..., |g_N| < r_N] via a single adaptive quadrature."""
    mu, r = _validated_mu(mu, r)
    if r.ndim != 1:
        raise ValueError("joint_cdf takes one point r")
    return _cdf_integral(mu, r[0] ** 2, r[1:] ** 2)


def outage_exact_profile(mu: Sequence[float], snr_ratio: float) -> float:
    """Exact selection outage for an explicit correlation profile."""
    x = checked_snr(snr_ratio)
    return _cdf_integral(active_mu(mu), x, x)


def outage_exact(config: FasConfig) -> float:
    """Exact outage probability of the N-port selection system."""
    return outage_exact_profile(correlation_profile(config), config.snr_ratio)


# terms of the two-port series: wherever s <= 1, P(k + 1, s)^2 is below
# s^(2k+2) / ((k+1)!)^2, so the terms from k = 20 on add less than 1e-38 of
# the first
_N2_SERIES_TERMS = 20


def _n2_series(mu2: float, x: float) -> float:
    """Two-port outage for the profile [0, mu2] as the bivariate Rayleigh
    series (Tan & Beaulieu, IEEE Trans. Commun. 45(10), 1997):
    (1 - mu2^2) sum_k mu2^(2k) P(k+1, s)^2, s = x / (1 - mu2^2), P the
    regularized lower incomplete gamma function.  Every term is positive;
    it is taken for s <= 1, where 20 terms suffice."""
    one_minus = (1.0 - mu2) * (1.0 + mu2)
    k = np.arange(_N2_SERIES_TERMS)
    terms = mu2 ** (2 * k) * sp.gammainc(k + 1.0, x / one_minus) ** 2
    return one_minus * float(np.sum(terms))


def outage_approx_profile(mu: Sequence[float], snr_ratio: float) -> float:
    """Closed-form outage approximation; may go negative for large N.

    1 - e^-x - e^-x sum_k [Q1(a_k, b_k) - Q1(b_k, a_k)] over the ports
    k >= 2, with a_k^2 = 2x/(1 - mu_k^2) and b_k = |mu_k| a_k, each
    difference taken as two port cdfs.  Beyond x = _EXP_ZERO, e^-x is 0 and
    the value is 1.  With one port k = 2 and x / (1 - mu_2^2) <= 1, where
    the Marcum form cancels, it is the two-port series `_n2_series`."""
    x = checked_snr(snr_ratio)
    mu = active_mu(mu)[1:]
    if x > _EXP_ZERO:
        return 1.0
    if mu.size == 1 and x <= (1.0 - mu[0]) * (1.0 + mu[0]):
        return _n2_series(float(mu[0]), x)
    # 1 - mu^2 >= 2e-9 once active_mu has run, so a2 <= 7.5e11
    a2 = 2.0 * x / (1.0 - mu ** 2)
    delta = port_cdf(mu ** 2 * a2, a2) - port_cdf(a2, mu ** 2 * a2)
    return float(-math.expm1(-x) - math.exp(-x) * np.sum(delta))


def outage_n2_closed_form(mu2: float, snr_ratio: float) -> float:
    """Two-port outage in closed form, exact for N = 2: the approximation's
    Marcum Q difference for the profile [0, mu2], which takes
    `checked_mu`'s rule: mu2 = +-1 is port 1 again, and gives 1 - e^-x."""
    return outage_approx_profile((0.0, mu2), snr_ratio)


def outage_approx(config: FasConfig) -> float:
    """Sum-form approximation; tight for strong correlation or stringent
    targets, and deliberately not clamped when it goes negative.  Relative
    accuracy holds at N <= 2 only: for N >= 3 it is sum_k p2(mu_k) -
    (N - 2)(1 - e^-x), p2 the N = 2 outage, which cancels by construction."""
    return outage_approx_profile(correlation_profile(config), config.snr_ratio)


def outage_mrc(branches: int, snr_ratio: float) -> float:
    """L-branch maximum ratio combining outage over independent Rayleigh
    fading: the regularized lower incomplete gamma P(L, x)."""
    return float(sp.gammainc(checked_count(branches, "branches"),
                             checked_snr(snr_ratio)))
