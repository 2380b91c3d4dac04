"""Design solvers: inverting the outage bound into (N, mu, W) requirements.

All rules are bound-based and therefore sufficient, not necessary: a feasible
answer guarantees the selection system beats the MRC reference.  For small N
the guard conditions can fail; infeasibility is a first-class result carrying
the name of the violated guard.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .analytic import outage_mrc
from .bounds import BoundConstants, per_port_bound_factor
from .specfun import inv_besselj0_envelope

N_MAX_DEFAULT = 100_000

GUARD_LOG_NEGATIVE = "log argument <= 1 (ln(.) would be nonpositive)"
GUARD_COMPLEX_MU = "radicand negative (mu* would be complex)"
GUARD_FACTOR_RANGE = "per-port factor outside (0, 1)"
GUARD_N_EXHAUSTED = "no N <= n_max satisfies the product condition"
GUARD_PROFILE_EXHAUSTED = "profile exhausted before the product condition held"
GUARD_TOO_FEW_PORTS = "n_ports < 4 (the size rule needs floor(N/2) >= 2 outer ports)"


@dataclass(frozen=True)
class DesignQuery:
    """Inputs shared by the solvers; only the fields a solver needs are read."""

    mrc_branches: int
    snr_ratio: float
    constants: BoundConstants
    size_wavelengths: Optional[float] = None
    n_ports: Optional[int] = None

    def __post_init__(self):
        if int(self.mrc_branches) != self.mrc_branches or self.mrc_branches < 1:
            raise ValueError("mrc_branches must be an integer >= 1")
        if not (self.snr_ratio > 0):
            raise ValueError("snr_ratio must be positive")


@dataclass(frozen=True)
class MuSizeResult:
    mu_star: float
    d_star_wavelengths: float


@dataclass(frozen=True)
class DesignAnswer:
    value: Union[int, float, MuSizeResult, None]
    feasible: bool
    guard_report: str = ""


def _mrc_ratio(query: DesignQuery) -> float:
    """Target ratio p_MRC / (1 - e^-x) the bound product must undercut."""
    x = query.snr_ratio
    return outage_mrc(query.mrc_branches, x) / (1.0 - math.exp(-x))


def min_ports_general(profile_mu: Sequence[float], query: DesignQuery,
                      n_max: int = N_MAX_DEFAULT) -> DesignAnswer:
    """Smallest prefix length N of the profile whose bound beats MRC."""
    target = _mrc_ratio(query)
    if target > 1.0:
        return DesignAnswer(value=1, feasible=True)
    mu = np.asarray(profile_mu, dtype=float)
    prod = 1.0
    for k in range(1, min(mu.size, n_max)):
        prod *= per_port_bound_factor(float(mu[k]), query.snr_ratio,
                                      query.constants)
        if prod < target:
            return DesignAnswer(value=k + 1, feasible=True)
    guard = GUARD_N_EXHAUSTED if mu.size > n_max else GUARD_PROFILE_EXHAUSTED
    return DesignAnswer(value=None, feasible=False, guard_report=guard)


def min_ports_homogeneous(mu: float, query: DesignQuery,
                          n_max: int = N_MAX_DEFAULT) -> DesignAnswer:
    """Closed-form minimum N when every extra port shares the same mu."""
    if not 0 < mu < 1:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    target = _mrc_ratio(query)
    if target > 1.0:
        return DesignAnswer(value=1, feasible=True)
    factor = per_port_bound_factor(mu, query.snr_ratio, query.constants)
    if not 0.0 < factor < 1.0:
        return DesignAnswer(value=None, feasible=False,
                            guard_report=GUARD_FACTOR_RANGE)
    # need factor**(N-1) < target, i.e. N > ln(target)/ln(factor) + 1
    n = math.floor(math.log(target) / math.log(factor)) + 2
    # guard against floating-point edge of the floor
    while n > 2 and factor ** (n - 2) < target:
        n -= 1
    while factor ** (n - 1) >= target:
        n += 1
        if n > n_max:
            return DesignAnswer(value=None, feasible=False,
                                guard_report=GUARD_N_EXHAUSTED)
    return DesignAnswer(value=n, feasible=True)


def _mu_star(query: DesignQuery, n_effective: int) -> DesignAnswer:
    """Required homogeneous correlation for an n_effective-port system."""
    if n_effective < 2:
        raise ValueError("need at least 2 effective ports")
    x = query.snr_ratio
    rho, kappa = query.constants.rho, query.constants.kappa
    ratio = _mrc_ratio(query)
    if ratio > 1.0:
        # MRC target weaker than a single port; any correlation works
        return DesignAnswer(value=MuSizeResult(1.0, 0.0), feasible=True)
    root = ratio ** (1.0 / (n_effective - 1))
    log_arg = rho / (1.0 - root)
    if log_arg <= 1.0:
        return DesignAnswer(value=None, feasible=False,
                            guard_report=GUARD_LOG_NEGATIVE)
    radicand = 1.0 - kappa * x / math.log(log_arg)
    if radicand < 0.0:
        return DesignAnswer(value=None, feasible=False,
                            guard_report=GUARD_COMPLEX_MU)
    mu_star = math.sqrt(radicand)
    if mu_star >= 1.0:
        d_star = 0.0
    else:
        d_star = inv_besselj0_envelope(mu_star).epsilon_star / (2.0 * math.pi)
    return DesignAnswer(value=MuSizeResult(mu_star, d_star), feasible=True)


def required_mu_and_size(query: DesignQuery) -> DesignAnswer:
    """Homogeneous-profile requirement (mu*, d*) for the given n_ports."""
    if query.n_ports is None or query.n_ports < 2:
        raise ValueError("required_mu_and_size needs n_ports >= 2")
    return _mu_star(query, query.n_ports)


def min_size(query: DesignQuery) -> DesignAnswer:
    """Minimum aperture W (wavelengths) for the given n_ports to beat MRC.

    Uses the worst-case argument that the floor(N/2) outer ports are at
    least d* apart; odd N rounds down, which is the conservative direction.
    """
    if query.n_ports is None or query.n_ports < 4:
        raise ValueError("min_size needs n_ports >= 4")
    half = query.n_ports // 2
    answer = _mu_star(query, half)
    if not answer.feasible:
        return answer
    return DesignAnswer(value=answer.value.d_star_wavelengths, feasible=True)


def min_size_frontier(query: DesignQuery, n_values: Sequence[int]):
    """(N, DesignAnswer) pairs of the minimum-size tradeoff curve; N < 4,
    where min_size does not apply, is reported infeasible."""
    out = []
    for n in n_values:
        if n < 4:
            out.append((int(n), DesignAnswer(value=None, feasible=False,
                                             guard_report=GUARD_TOO_FEW_PORTS)))
            continue
        q = DesignQuery(mrc_branches=query.mrc_branches,
                        snr_ratio=query.snr_ratio, constants=query.constants,
                        n_ports=int(n))
        out.append((int(n), min_size(q)))
    return out
