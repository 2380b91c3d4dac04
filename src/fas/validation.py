"""Self-validation suite: cross-checks every analytic expression against an
independent route (Monte Carlo, closed forms, quadrature identities, and the
Marcum Q inequalities used by the bound)."""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, analytic, bounds, mc
from ._special import sp
from .channel import FasConfig, profile_rows
from .specfun import marcum_q1, port_cdf

# Chance that mc_vs_exact fails a correct estimator, over its whole grid.
MC_FAMILY_LEVEL = 1e-6

GRID_PRESETS = {
    "quick": {"n": (1, 2, 3, 5), "w": (0.5, 2.0), "x": (1.0,)},
    "full": {"n": (1, 2, 3, 5, 10, 20), "w": (0.2, 0.5, 1.0, 2.0, 5.0),
             "x": (0.1, 1.0, 10.0)},
}


@dataclass(frozen=True)
class ValidationSettings:
    grid: str
    mc: mc.McSettings

    def __post_init__(self):
        if self.grid not in GRID_PRESETS:
            raise ValueError(f"grid must be one of {sorted(GRID_PRESETS)}, "
                             f"got {self.grid!r}")

    @functools.cached_property
    def grid_rows(self) -> tuple[list[FasConfig], np.ndarray, np.ndarray]:
        """The grid's configs, their profile block and SNR ratios."""
        spec = GRID_PRESETS[self.grid]
        points = [(n, w, x) for n in spec["n"] for w in spec["w"]
                  for x in spec["x"]]
        n, w, x = zip(*points)
        return ([FasConfig(*point) for point in points], profile_rows(n, w),
                np.array(x))

    @functools.cached_property
    def exact_points(self) -> list[tuple[FasConfig, float]]:
        """Each grid point's config and exact outage, from one block."""
        configs, mu, x = self.grid_rows
        return list(zip(configs, analytic.outage_exact_rows(mu, x).tolist()))


def check_marcum_specials(settings: ValidationSettings) -> dict:
    a = np.array([0.3, 1.0, 3.7, 10.0])
    b = np.array([0.3, 1.0, 2.0, 5.0])
    worst = float(max(np.max(np.abs(marcum_q1(a, 0.0) - 1.0)),
                      np.max(np.abs(marcum_q1(0.0, b) - np.exp(-0.5 * b * b)))))
    return {"pass": worst <= 1e-12, "worst_error": repr(worst)}


def check_n2_closed_form(settings: ValidationSettings) -> dict:
    # relative error, at 20 draws and at the first five's mu at -60, -100 dB
    rng = np.random.default_rng(settings.mc.seed)
    draws = [(rng.uniform(-0.98, 0.98), rng.uniform(0.05, 8.0))
             for _ in range(20)]
    mu2, x = np.array(draws + [(mu2, x) for mu2, _ in draws[:5]
                               for x in (1e-6, 1e-10)]).T
    mu = np.stack([np.zeros_like(mu2), mu2], axis=1)
    exact = analytic.outage_exact_rows(mu, x)
    closed = analytic.outage_approx_rows(mu, x)
    worst = float(np.max(np.abs(exact - closed) / closed))
    return {"pass": worst <= 1e-8, "worst_error": repr(worst)}


def check_marcum_integral_identity(settings: ValidationSettings) -> dict:
    # integral identity behind the closed forms, with the evaluators'
    # Q1 = 1 - port_cdf on the left and marcum_q1 on the right:
    # int_0^c e^-t Q1(a sqrt(t), b) dt
    #   = e^{-b^2/(a^2+2)} Q1(sqrt(c(a^2+2)), ab/sqrt(a^2+2)) - e^-c Q1(a sqrt(c), b)
    a, b, c = np.random.default_rng(settings.mc.seed + 1).uniform(
        0.1, 3.0, (10, 3)).T
    lhs, _ = analytic.quad(
        lambda t, at: np.exp(-t) * (1.0 - port_cdf((a * a)[at, None] * t,
                                                   (b * b)[at, None])),
        np.zeros_like(c), c)
    a2 = a * a + 2.0
    rhs = (np.exp(-b * b / a2) * marcum_q1(np.sqrt(c * a2), a * b / np.sqrt(a2))
           - np.exp(-c) * marcum_q1(a * np.sqrt(c), b))
    worst = float(np.max(np.abs(lhs - rhs)))
    return {"pass": worst <= 1e-8, "worst_error": repr(worst)}


def check_mc_vs_exact(settings: ValidationSettings) -> dict:
    points = settings.exact_points
    # Sidak: the per-point two-sided level that holds the chance of any
    # false alarm over the grid at MC_FAMILY_LEVEL, correlated or not
    per_point = -math.expm1(math.log1p(-MC_FAMILY_LEVEL) / len(points))
    z_max = float(-sp.ndtri(0.5 * per_point))
    failures = []
    for config, exact in points:
        est = mc.mc_outage_fas(config, settings.mc)
        se = math.sqrt(max(exact * (1.0 - exact), 1e-300) / settings.mc.trials)
        if abs(est.p_hat - exact) > z_max * se:
            failures.append({"n": config.n_ports, "w": config.size_wavelengths,
                             "x": config.snr_ratio,
                             "exact": repr(exact), "mc": repr(est.p_hat)})
    return {"pass": not failures, "mismatches": failures,
            "family_level": repr(MC_FAMILY_LEVEL), "z_threshold": repr(z_max)}


def check_bound_ordering(settings: ValidationSettings) -> dict:
    _, mu, x = settings.grid_rows
    kappas = (1.5, 2.0, 3.0)
    # each grid point's bounds, one per kappa
    bound = zip(*(bounds.outage_upper_bound_rows(
        mu, x, bounds.bound_constants(kappa)).tolist() for kappa in kappas))
    violations = [{"n": config.n_ports, "w": config.size_wavelengths,
                   "x": config.snr_ratio, "kappa": kappa,
                   "exact": repr(exact), "bound": repr(ub)}
                  for (config, exact), ubs in zip(settings.exact_points, bound)
                  for kappa, ub in zip(kappas, ubs) if exact > ub + 1e-12]
    return {"pass": not violations, "violations": violations}


def check_special_case_independent(settings: ValidationSettings) -> dict:
    # n independent ports, then padding (mu = 1) up to 8
    points = [(n, x) for n in (1, 2, 4, 8) for x in (0.3, 1.0, 4.0)]
    got = analytic.outage_exact_rows([[0.0] * n + [1.0] * (8 - n)
                                      for n, _ in points],
                                     [x for _, x in points])
    want = [(-math.expm1(-x)) ** n for n, x in points]
    worst = float(np.max(np.abs(got - want)))
    return {"pass": worst <= 1e-9, "worst_error": repr(worst)}


def check_marcum_ratio_upper_bound(settings: ValidationSettings) -> dict:
    rng = np.random.default_rng(settings.mc.seed + 2)
    b = rng.uniform(1e-3, 20.0, 500)
    a = rng.uniform(0.0, b * 0.999)
    bound = (b / (b - a)) / np.sqrt(1.0 + 2.0 * a * b)
    violations = int(np.count_nonzero(marcum_q1(a, b) >= bound))
    return {"pass": violations == 0, "violations": violations}


def check_marcum_scaled_lower_bound(settings: ValidationSettings) -> dict:
    rng = np.random.default_rng(settings.mc.seed + 3)
    violations = 0
    for kappa in (1.5, 2.0, 3.0):
        rho = bounds.bound_constants(kappa).rho
        b = rng.uniform(10.0, 30.0, 300)
        a = b * rng.uniform(0.05, 0.999, 300)
        lower = rho * np.sqrt(b / a) * np.exp(-0.5 * kappa * (b - a) ** 2)
        violations += int(np.count_nonzero(marcum_q1(a, b) < lower))
    return {"pass": violations == 0, "violations": violations}


ALL_CHECKS = {
    "marcum_specials": check_marcum_specials,
    "n2_closed_form": check_n2_closed_form,
    "marcum_integral_identity": check_marcum_integral_identity,
    "special_case_independent": check_special_case_independent,
    "mc_vs_exact": check_mc_vs_exact,
    "bound_ordering": check_bound_ordering,
    "marcum_ratio_upper_bound": check_marcum_ratio_upper_bound,
    "marcum_scaled_lower_bound": check_marcum_scaled_lower_bound,
}


def run_validation(settings: ValidationSettings) -> dict:
    """Run every check; the report is byte-identical for identical settings."""
    results = {name: fn(settings) for name, fn in ALL_CHECKS.items()}
    return {
        "config": {"grid": settings.grid, **asdict(settings.mc)},
        "results": results,
        "version": __version__,
        "all_passed": all(r["pass"] for r in results.values()),
    }
