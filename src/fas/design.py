"""Design solvers: inverting the outage bound into (N, mu, W) requirements.

All rules are bound-based and therefore sufficient, not necessary: a feasible
answer guarantees the selection system beats the MRC reference.  For small N
the guard conditions can fail; infeasibility is a first-class result carrying
the name of the violated guard, `min_size`'s N < 4 included.

The MRC target is capped at one port's outage (`DesignQuery.mrc_target`),
and is that outage at L = 1; the strict product test cannot undercut it
with one port, so every N solver answers N >= 2, and n_max < 2 gives "no N".
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .analytic import outage_mrc
from .bounds import (BoundConstants, per_port_bound_factor,
                     per_port_bound_factors)
from .channel import (checked_count, checked_mu, checked_size, checked_snr,
                      first_lobe_end, port_mu)
from .specfun import inv_besselj0_envelope

N_MAX_DEFAULT = 100_000

GUARD_LOG_NEGATIVE = "log argument <= 1 (ln(.) would be nonpositive)"
GUARD_COMPLEX_MU = "radicand negative (mu* would be complex)"
GUARD_FACTOR_RANGE = "per-port factor outside (0, 1)"
GUARD_N_EXHAUSTED = "no N <= n_max satisfies the product condition"
GUARD_PROFILE_EXHAUSTED = "profile exhausted before the product condition held"
GUARD_TOO_FEW_PORTS = "n_ports < 4 (the size rule needs floor(N/2) >= 2 outer ports)"

# (N, port) cells per block of `min_ports_for_size`'s scan.  Each of the
# block's float temporaries takes 8 bytes a cell, 128 kB at this cap;
# blocks of 64 whole rows would take 6-10 MB more peak memory at N = 2000,
# more than the design benchmark's 5% peak-RSS bound allows.
_SCAN_BLOCK_CELLS = 16_384

# Log-space margin by which a row that `_certified_start` rules out misses
# the MRC target; the rounding of a 2000-port row's log sum is ~1e-12.
_CERTIFICATE_MARGIN = 1e-6
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


@dataclass(frozen=True)
class DesignQuery:
    """Inputs every solver reads, and the MRC reference computed from them
    once: mrc_target is the p_MRC a bound must undercut, capped at one
    port's outage 1 - e^-x and equal to it at L = 1 (one port is 1-branch
    MRC, whatever P(1, x) rounds to); mrc_ratio is its ratio to 1 - e^-x."""

    mrc_branches: int
    snr_ratio: float
    constants: BoundConstants
    mrc_target: float = field(init=False, compare=False, repr=False)
    mrc_ratio: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        branches = checked_count(self.mrc_branches, "mrc_branches")
        single = -math.expm1(-checked_snr(self.snr_ratio))
        target = single if branches == 1 else min(
            outage_mrc(branches, self.snr_ratio), single)
        object.__setattr__(self, "mrc_branches", branches)
        object.__setattr__(self, "mrc_target", target)
        object.__setattr__(self, "mrc_ratio", target / single)


@dataclass(frozen=True)
class MuSizeResult:
    mu_star: float
    d_star_wavelengths: float


@dataclass(frozen=True)
class DesignAnswer:
    """A solver's answer; an infeasible one has no value, and its guard
    report names the guard that tripped."""

    value: Union[int, float, MuSizeResult, None]
    guard_report: str = ""

    @property
    def feasible(self) -> bool:
        return self.value is not None


def min_ports_general(mu, query: DesignQuery,
                      n_max: int = N_MAX_DEFAULT) -> DesignAnswer:
    """Smallest prefix length N of the profile mu whose bound beats MRC."""
    mu = checked_mu(mu)
    n_max = checked_count(n_max, "n_max", 0)
    target = query.mrc_ratio
    # prod[j] is the product over ports 2..j+2, so N = j + 2
    prod = np.cumprod(per_port_bound_factors(mu[1:n_max], query.snr_ratio,
                                             query.constants))
    below = np.flatnonzero(prod < target)
    if below.size:
        return DesignAnswer(int(below[0]) + 2)
    guard = GUARD_N_EXHAUSTED if mu.size > n_max else GUARD_PROFILE_EXHAUSTED
    return DesignAnswer(None, guard)


def _block_factors(n: np.ndarray, size_wl: float, d_one: float,
                   query: DesignQuery) -> np.ndarray:
    """Bound factors of the rows N = n (an ascending column) over the ports
    k at d = k/(N-1) * W, from `port_mu`.  Its padding k >= N, mu = 1,
    gets the kernel's factor of exactly 1, as the degenerate ports do; so
    do the ports closer than d_one in every row, which are left out."""
    # ports 2..N sit at k/(N-1) * W; below k_one every row's d < d_one
    k_one = max(1, int(d_one * (n[0, 0] - 1) / size_wl))
    mu = port_mu(np.arange(k_one, n[-1, 0]), n, size_wl)
    return per_port_bound_factors(mu, query.snr_ratio, query.constants)


def _certified_start(size_wl: float, query: DesignQuery, n_max: int,
                     d_one: float, log_target: float) -> int:
    """First N >= 2 that a Riemann-sum certificate cannot rule out: every
    N below it, up to n_max, has a bound that does not beat MRC.

    Let g(d) <= 0 be the log of the factor of a port at distance d, so
    g(0) = 0 and g = 0 for a degenerate port.  Row N sums g over the ports
    d_k = k h, h = W/(N-1), k = 1..N-1: S_N = sum_k g(k h).  If g is
    non-increasing on [0, W], g(k h) is at most g on [(k-1)h, k h] and at
    least g on [k h, (k+1)h], so with I the integral of g over [0, W],
    h S_M <= I <= h (S_N - g(W)) for any rows M and N; hence
    S_N >= (N-1)/(M-1) S_M + g(W).  One evaluated reference row M bounds
    every row, and row N fails when that bound is at least
    T + `_CERTIFICATE_MARGIN`, T = log_target = log(p_MRC / (1 - e^-x)).
    The bound falls as N grows, so the rows it rules out are N = 2 up to
    the first it does not, which the scan starts at.

    g is non-increasing where mu = J0(2 pi d) falls from 1 to J0(2 pi W)
    as d grows (2 pi W < j_{0,1}: `channel.first_lobe_end`), and the
    factor falls with mu (`BoundConstants.factor_falls_to`).  The margin is
    ~1e6 times the rounding of a 2000-port log sum.  A ruled-out row's
    product is at least e^(T + margin), so where e^T is normal, every
    partial product of the scan's row is normal and its rounding relative.
    Elsewhere, or where e^T is not normal, the scan starts at N = 2.  The
    reference row, M = min(n_max, `_SCAN_BLOCK_CELLS`) but at least 2,
    fits in one block.
    """
    mu_w = first_lobe_end(size_wl)
    if not (mu_w is not None
            and query.constants.factor_falls_to(mu_w, query.snr_ratio)
            and log_target > _LOG_FLOAT_MIN):
        return 2
    m = max(2, min(n_max, _SCAN_BLOCK_CELLS))
    logs = np.log(_block_factors(np.array([[m]]), size_wl, d_one, query))
    s_m, g_w = float(logs.sum()), float(logs[0, -1])
    # row N is ruled out when (N-1) s_m / (m-1) >= level
    level = log_target + _CERTIFICATE_MARGIN - g_w
    if level > 0.0:
        return 2
    last = level * (m - 1) / s_m if s_m < 0.0 else math.inf
    return int(min(last, n_max - 1)) + 2


def min_ports_for_size(size_wl: float, query: DesignQuery,
                       n_max: int = 2000) -> DesignAnswer:
    """Smallest N whose geometry-derived bound at this aperture beats MRC.

    The profile changes with N (ports pack denser), so there is no fixed
    profile prefix to consume.  The bound is not monotone in N either, so
    the scan visits every N from the first that `_certified_start` cannot
    rule out (N = 2 outside its range) rather than bisecting.  It takes N
    in consecutive blocks: one padded (N x port) matrix of mu = J0(2 pi d)
    and bound factors per block, with the padding and the degenerate ports
    given a factor of exactly 1, so each row's product is the bound's
    product for that N.  A block holds no more N values than precede it,
    and at most about `_SCAN_BLOCK_CELLS` cells: rows shrink as N grows,
    and the scan's working set stays under a megabyte up to any n_max.

    Ports closer to the reference than `BoundConstants.exactly_one_radius`
    have a factor of exactly 1.0 in double, so each block starts at the
    first column outside that radius for some row of the block; the rows
    only get denser as N grows.  Where the radius reaches W, every factor of
    every N is exactly 1 and the answer is known without evaluating one:
    at x = 1 and kappa = 2 that holds for W up to 0.05 (W = 0.01 included).
    So it is where p_MRC underflows to 0, which no product undercuts.
    """
    x = query.snr_ratio
    checked_size(size_wl, "size_wl")
    n_max = checked_count(n_max, "n_max", 0)
    single = -math.expm1(-x)
    target = query.mrc_target
    d_one = query.constants.exactly_one_radius(x)
    if d_one >= size_wl or target == 0.0:
        return DesignAnswer(None, GUARD_N_EXHAUSTED)
    n0 = 2
    if n_max >= 2:
        n0 = _certified_start(size_wl, query, n_max, d_one,
                              math.log(target) - math.log(single))
    while n0 <= n_max:
        # rows * (n0 + rows) cells at most
        rows = int((math.sqrt(n0 * n0 + 4 * _SCAN_BLOCK_CELLS) - n0) / 2)
        rows = max(1, min(n0, rows))
        n = np.arange(n0, min(n0 + rows, n_max + 1))[:, None]
        factors = _block_factors(n, size_wl, d_one, query)
        beats = np.flatnonzero(single * np.prod(factors, axis=1) < target)
        if beats.size:
            return DesignAnswer(n0 + int(beats[0]))
        n0 += rows
    return DesignAnswer(None, GUARD_N_EXHAUSTED)


def min_ports_homogeneous(mu: float, query: DesignQuery,
                          n_max: int = N_MAX_DEFAULT) -> DesignAnswer:
    """Closed-form minimum N when every extra port shares the same mu,
    |mu| <= 1 (0: independent ports); a factor of 1, as at +-1, is a guard."""
    n_max = checked_count(n_max, "n_max", 0)
    target = query.mrc_ratio
    factor = per_port_bound_factor(mu, query.snr_ratio, query.constants)
    if not 0.0 < factor < 1.0:
        return DesignAnswer(None, GUARD_FACTOR_RANGE)
    if target == 0.0:  # p_MRC underflowed: no power of factor is below it
        return DesignAnswer(None, GUARD_N_EXHAUSTED)
    # need factor**(N-1) < target, i.e. N > ln(target)/ln(factor) + 1
    n = math.floor(math.log(target) / math.log(factor)) + 2
    # guard against floating-point edge of the floor
    while n > 2 and factor ** (n - 2) < target:
        n -= 1
    while factor ** (n - 1) >= target:
        n += 1
    if n > n_max:
        return DesignAnswer(None, GUARD_N_EXHAUSTED)
    return DesignAnswer(n)


def required_mu_and_size(n_ports: int, query: DesignQuery) -> DesignAnswer:
    """Homogeneous-profile requirement (mu*, d*) for an n_ports-port system."""
    n_ports = checked_count(n_ports, "n_ports", 2)
    x = query.snr_ratio
    rho, kappa = query.constants.rho, query.constants.kappa
    root = query.mrc_ratio ** (1.0 / (n_ports - 1))
    if root >= 1.0:
        # the capped MRC ratio is 1 (L = 1, or x so large that both
        # outages round to 1), or its root rounds to 1; any correlation
        # works, and 1 - root below would be 0
        return DesignAnswer(MuSizeResult(1.0, 0.0))
    log_arg = rho / (1.0 - root)
    if log_arg <= 1.0:
        return DesignAnswer(None, GUARD_LOG_NEGATIVE)
    radicand = 1.0 - kappa * x / math.log(log_arg)
    if radicand < 0.0:
        return DesignAnswer(None, GUARD_COMPLEX_MU)
    mu_star = math.sqrt(radicand)
    # 0 at mu* = 1, and inf, the inverse's limit below 1e-154, at mu* = 0
    d_star = (inv_besselj0_envelope(mu_star) / (2.0 * math.pi)
              if mu_star > 0.0 else math.inf)
    return DesignAnswer(MuSizeResult(mu_star, d_star))


def min_size(n_ports: int, query: DesignQuery) -> DesignAnswer:
    """Minimum aperture W (wavelengths) for n_ports ports to beat MRC.

    Uses the worst-case argument that the floor(N/2) outer ports are at
    least d* apart; odd N rounds down, which is the conservative direction.
    N < 4 has fewer than two outer ports and answers `GUARD_TOO_FEW_PORTS`.
    """
    n_ports = checked_count(n_ports, "n_ports")
    if n_ports < 4:
        return DesignAnswer(None, GUARD_TOO_FEW_PORTS)
    answer = required_mu_and_size(n_ports // 2, query)
    if not answer.feasible:
        return answer
    return DesignAnswer(answer.value.d_star_wavelengths)


def min_size_frontier(query: DesignQuery, n_values: Sequence[int]):
    """(N, min_size(N)) pairs of the minimum-size tradeoff curve, each N as
    the int `checked_count` makes of it.  min_size reads floor(N/2) alone,
    so it is called once per distinct floor(N/2)."""
    ns = [checked_count(v, "n_ports") for v in n_values]
    one_per_half = {n // 2: n for n in ns}
    answers = {h: min_size(n, query) for h, n in one_per_half.items()}
    return [(n, answers[n // 2]) for n in ns]
