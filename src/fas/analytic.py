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
from .channel import (FasConfig, checked_count, checked_mu, checked_rows,
                      checked_snr, correlation_profile, is_degenerate)
from .specfun import port_cdf


# `quad`'s stopping rule: the summed error estimate at most
# max(_ABS_TOL, _REL_TOL * |value|), on at most _MAX_INTERVALS intervals
_ABS_TOL = 1e-10
_REL_TOL = 1e-9
_MAX_INTERVALS = 2000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance; `index` is the
    failing integrand's among the ranges `quad` was given."""

    def __init__(self, message: str, estimate: float, error_estimate: float,
                 n_evals: int, index: int = 0):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.n_evals = n_evals
        self.index = index


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
# most nodes a round of `quad` evaluates per integrand: the two halves of
# the interval it bisects
ROUND_NODES = 2 * _GK21_NODES.size
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


def _row_sums(fx: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.einsum("ij,j->i", fx, weights)


def _gk21(f, lo: np.ndarray, hi: np.ndarray):
    """QUADPACK's dqk21 on the intervals [lo_i, hi_i], with f called once on
    all their nodes: each interval's Kronrod value, its error estimate, and
    its `resasc` (the integral of |f - mean f|).  Each row is summed on its
    own, so an interval's results do not depend on the others in the call
    (a matrix-vector product rounds by how many rows it has)."""
    half = 0.5 * (hi - lo)
    fx = f((0.5 * (lo + hi))[:, None] + half[:, None] * _GK21_NODES)
    width = np.abs(half)
    kronrod = _row_sums(fx, _KRONROD_WEIGHTS)
    resabs = _row_sums(np.abs(fx), _KRONROD_WEIGHTS) * width
    resasc = _row_sums(np.abs(fx - 0.5 * kronrod[:, None]),
                       _KRONROD_WEIGHTS) * width
    err = np.abs((kronrod - _row_sums(fx, _GAUSS_WEIGHTS)) * half)
    # QUADPACK's scaling of |K - G|, and its floor at the rounding level
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
    return kronrod * half, np.maximum(err, floor), resasc


def _within_tol(error: float, total: float) -> bool:
    return error <= max(_ABS_TOL, _REL_TOL * abs(total))


def quad(f, lo, hi, full_output=0):
    """Adaptive G10/K21 quadrature of P integrands over P ranges at once,
    each as QUADPACK's qags without its extrapolation.

    lo and hi are 1-D arrays of equal length P, and f(t, at) takes nodes t
    of shape (m, 21) and the integrand at[i] whose range row i of t lies
    in.  Each integrand's rule stops once its summed error estimate is at
    most tol = max(_ABS_TOL, _REL_TOL * |value|); until then each round
    bisects the interval of largest error of every unfinished integrand, up
    to _MAX_INTERVALS intervals each, and evaluates all the new intervals
    (at most ROUND_NODES nodes per integrand) in one call of f.  Like qags,
    it accepts the first interval only when the error estimate is not its
    `resasc`, which it equals when the Gauss-Kronrod difference is too
    large to trust.  Returns arrays (value, error), or with full_output
    (value, error, {"neval": n}), n counting every integrand's
    evaluations.  Raises QuadratureError, for the first integrand in range
    order that fails, when its value or error is not finite, or its error
    exceeds max(100 tol, 1e-8).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)

    def rule(lows, highs, at):  # the rule on intervals of the integrands at
        return _gk21(lambda t: f(t, at), lows, highs)

    value, err, resasc = rule(lo, hi, np.arange(lo.size))
    totals, errs = value.tolist(), err.tolist()
    # the unfinished integrands' intervals: ends, values, error estimates
    open_ = {p: ([a], [b], [total], [error]) for p, a, b, total, error, asc
             in zip(range(lo.size), lo.tolist(), hi.tolist(), totals, errs,
                    resasc.tolist())
             if not (error == 0.0 or not math.isfinite(error)
                     or (_within_tol(error, total) and error != asc))
             and _MAX_INTERVALS > 1}
    n_intervals = [1] * lo.size
    while open_:
        at, picked, new_lo, new_hi = [], [], [], []
        for p, (lows, highs, _, errors) in open_.items():
            i = max(range(len(errors)), key=errors.__getitem__)
            picked.append(i)
            mid = 0.5 * (lows[i] + highs[i])
            at += [p, p]
            new_lo += [lows[i], mid]
            new_hi += [mid, highs[i]]
            lows.append(mid)
            highs.append(highs[i])
            highs[i] = mid
        value, err, _ = rule(np.array(new_lo), np.array(new_hi), np.array(at))
        value, err = value.tolist(), err.tolist()
        for j, (p, i) in enumerate(zip(list(open_), picked)):
            _, _, values, errors = open_[p]
            values[i], errors[i] = value[2 * j], err[2 * j]
            values.append(value[2 * j + 1])
            errors.append(err[2 * j + 1])
            totals[p], errs[p] = math.fsum(values), math.fsum(errors)
            n_intervals[p] = len(values)
            if not (math.isfinite(errs[p]) and len(values) < _MAX_INTERVALS
                    and not _within_tol(errs[p], totals[p])):
                del open_[p]
    for p, (total, error) in enumerate(zip(totals, errs)):
        tol = max(_ABS_TOL, _REL_TOL * abs(total))
        if not (math.isfinite(total) and math.isfinite(error)):
            problem = f"returned {total!r} with error estimate {error!r}"
        elif error > max(tol * 100.0, 1e-8):
            problem = f"error estimate {error:.3e} exceeds tolerance {tol:.3e}"
        else:
            continue
        # one round of f on the whole range, then one per bisection
        n_evals = 21 * (2 * n_intervals[p] - 1)
        raise QuadratureError(
            f"quadrature {problem} after {n_evals} integrand evaluations on "
            f"{n_intervals[p]} subintervals", total, error, n_evals, p)
    total, error = np.array(totals), np.array(errs)
    if full_output:
        return total, error, {"neval": 21 * (2 * sum(n_intervals) - lo.size)}
    return total, error


def _cdf_integrals(mu: np.ndarray, keep: np.ndarray, r1_sq: np.ndarray,
                   rk_sq) -> np.ndarray:
    """P[|g_1|^2 < r1_sq and |g_k|^2 < rk_sq for the kept k] (sigma = 1)
    for each row of mu, the non-reference ports' mu_k, over the ports
    `keep` marks; rk_sq broadcasts against mu.

    Conditioned on t = |g_1|^2, port k is Rician, so the probability is
    int_0^r1_sq e^-t prod_k P1(a_k sqrt(t), b_k) dt with a_k^2 =
    2 mu_k^2/(1 - mu_k^2) and b_k^2 = 2 rk_sq/(1 - mu_k^2), P1 the port
    cdf (`port_cdf` of a_k^2 t and b_k^2), over the kept ports.  One `quad`
    call takes every row, and each of its rounds is one `port_cdf` call on
    the kept ports alone; every other port's factor is exactly 1.
    """
    mu_sq = np.where(keep, mu, 0.0) ** 2  # a dropped port's a2, b2 go unused
    one_minus = 1.0 - mu_sq
    a2 = 2.0 * mu_sq / one_minus
    b2 = 2.0 * rk_sq / one_minus

    def integrand(t, at):
        # row i of t holds the nodes of an interval of row at[i], and
        # (i, k) runs over the kept ports k of each row
        i, k = np.nonzero(keep[at])
        row = at[i]
        factors = np.ones(t.shape + mu.shape[1:])
        factors[i, :, k] = port_cdf(a2[row, k, None] * t[i], b2[row, k, None])
        return np.exp(-t) * np.multiply.reduce(factors, -1)

    # e^-t is 0.0 in double beyond _EXP_ZERO: the cut drops nothing, and
    # keeps the first nodes where the mass is when r1_sq is large
    p, _ = quad(integrand, np.zeros(len(mu)), np.minimum(r1_sq, _EXP_ZERO))
    return p


def _clamped(p: float, first: float, log_others: float, least: float) -> float:
    """p clamped into positively associated ports' bracket: at least port
    1's marginal times the `math.exp` (numpy's can round to the neighbouring
    double) of the others' summed log-marginals, which underflows to 0.0
    where a running product sticks at 5e-324; at most the least marginal."""
    return min(max(p, first * math.exp(log_others)), least)


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
    """P[|g_1| < r_1, ..., |g_N| < r_N] via a single adaptive quadrature,
    clamped into the model's bracket (`_clamped`) as `outage_exact_rows`
    is."""
    mu, r = _validated_mu(mu, r)
    if r.ndim != 1:
        raise ValueError("joint_cdf takes one point r")
    r_sq = r ** 2
    p = _cdf_integrals(mu[None, 1:], np.ones((1, mu.size - 1), dtype=bool),
                       r_sq[:1], r_sq[None, 1:])[0]
    marginals = -np.expm1(-r_sq)
    with np.errstate(divide="ignore"):
        log_others = math.fsum(np.log(marginals[1:]).tolist())
    return float(_clamped(p, marginals[0], log_others, marginals.min()))


def outage_exact_rows(mu, snr_ratio) -> np.ndarray:
    """Exact selection outage of each row of a block of profiles at its
    own SNR ratio (`channel.checked_rows`), all rows in one quadrature.

    Degenerate ports, the padding included, are port 1 over again and drop
    out.  The ports are positively associated (every factor falls with
    t), so each value is clamped (`_clamped`) between the product of the
    ports' marginals 1 - e^-x and one marginal: (1 - e^-x)^N <= p <=
    1 - e^-x.  The N - 1 equal logs sum to their count times one, rounded
    once, as `joint_cdf`'s correctly rounded sum gives.
    """
    mu, x = checked_rows(mu, snr_ratio)
    keep = ~is_degenerate(mu[:, 1:])
    p = _cdf_integrals(mu[:, 1:], keep, x, x[:, None])
    # the marginal from math.expm1, as `bounds` and `design` take it:
    # numpy's array expm1 can round to the neighbouring double
    marginal = -np.array([math.expm1(-v) for v in x.tolist()])
    return np.array([
        _clamped(q, m, count * log_m, m) for q, m, count, log_m
        in zip(p.tolist(), marginal.tolist(),
               np.add.reduce(keep, 1).tolist(), np.log(marginal).tolist())])


def outage_exact_profile(mu: Sequence[float], snr_ratio: float) -> float:
    """Exact selection outage for an explicit correlation profile."""
    return float(outage_exact_rows(checked_mu(mu)[None],
                                   [checked_snr(snr_ratio)])[0])


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


def outage_approx_rows(mu, snr_ratio) -> np.ndarray:
    """Closed-form outage approximation of each row of a block of profiles
    at its own SNR ratio (`channel.checked_rows`); may go negative for
    large N.

    1 - e^-x - e^-x sum_k [Q1(a_k, b_k) - Q1(b_k, a_k)] over the ports
    k >= 2 that are not degenerate (the padding is), with a_k^2 =
    2x/(1 - mu_k^2) and b_k = |mu_k| a_k.  Each difference is two port
    cdfs, one `port_cdf` call each for the whole block, and each row's
    differences are summed by `np.sum` on their own.  Beyond x =
    _EXP_ZERO, e^-x is 0 and the value is 1.  With one port k = 2 and
    x / (1 - mu_2^2) <= 1, where the Marcum form cancels, it is the
    two-port series `_n2_series`.
    """
    mu, x = checked_rows(mu, snr_ratio)
    keep = ~is_degenerate(mu[:, 1:])
    # a row's one kept port, where it keeps one
    only = np.add.reduce(np.where(keep, mu[:, 1:], 0.0), 1)
    series = ((np.add.reduce(keep, 1) == 1)
              & (x <= (1.0 - only) * (1.0 + only)))
    marcum = ~series & (x <= _EXP_ZERO)
    # the Marcum rows' kept ports, row by row
    row, k = np.nonzero(keep & marcum[:, None])
    mu_k = mu[row, k + 1]
    # 1 - mu^2 >= 2e-9 for a kept port, so a2 <= 7.5e11
    a2 = 2.0 * x[row] / (1.0 - mu_k ** 2)
    delta = port_cdf(mu_k ** 2 * a2, a2) - port_cdf(a2, mu_k ** 2 * a2)
    ends = row.searchsorted(np.arange(len(mu) + 1)).tolist()
    value = np.ones(len(mu))
    for i, v in enumerate(x.tolist()):
        if series[i]:
            value[i] = _n2_series(float(only[i]), v)
        elif marcum[i]:
            value[i] = (-math.expm1(-v)
                        - math.exp(-v) * np.sum(delta[ends[i]:ends[i + 1]]))
    return value


def outage_approx_profile(mu: Sequence[float], snr_ratio: float) -> float:
    """Closed-form outage approximation for an explicit profile; see
    `outage_approx_rows`."""
    return float(outage_approx_rows(checked_mu(mu)[None],
                                    [checked_snr(snr_ratio)])[0])


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


def outage_mrc(branches: int, snr_ratio):
    """L-branch maximum ratio combining outage over independent Rayleigh
    fading: the regularized lower incomplete gamma P(L, x), elementwise
    over an array of ratios x; a float for one x."""
    branches = checked_count(branches, "branches")
    x = np.asarray(snr_ratio, dtype=float)
    for value in x.ravel().tolist():
        checked_snr(value)
    p = sp.gammainc(branches, x)
    return float(p) if p.ndim == 0 else p
