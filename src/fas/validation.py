"""Self-validation suite: cross-checks every analytic expression against an
independent route (Monte Carlo, closed forms, quadrature identities, and the
Marcum Q inequalities used by the bound)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from . import __version__, analytic, bounds, mc
from .channel import FasConfig
from .specfun import marcum_q1

# Chance that mc_vs_exact fails a correct estimator, over its whole grid.
MC_FAMILY_LEVEL = 1e-6

GRID_PRESETS = {
    "quick": {"n": (1, 2, 3, 5), "w": (0.5, 2.0), "x": (1.0,)},
    "full": {"n": (1, 2, 3, 5, 10, 20), "w": (0.2, 0.5, 1.0, 2.0, 5.0),
             "x": (0.1, 1.0, 10.0)},
}


@dataclass(frozen=True)
class ValidationSettings:
    grid: str = "quick"
    trials: int = 200_000
    seed: int = 42
    workers: int = 1
    quad_abs_tol: float = 1e-10

    def __post_init__(self):
        if self.grid not in GRID_PRESETS:
            raise ValueError(f"grid must be one of {sorted(GRID_PRESETS)}, "
                             f"got {self.grid!r}")
        # the Monte-Carlo check's settings, checked here so that a float or
        # bool count fails before any check runs
        mc.McSettings(trials=self.trials, seed=self.seed, workers=self.workers)
        # a NaN tolerance never stops adaptive_simpson's bisection
        if not (0 < self.quad_abs_tol < math.inf):
            raise ValueError("quad_abs_tol must be finite and > 0, "
                             f"got {self.quad_abs_tol}")


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     abs_tol: float, max_depth: int = 30) -> float:
    """Recursive adaptive Simpson rule stopping at the requested tolerance."""

    def simpson(lo, mid, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = f(lmid), f(rmid)
        left = simpson(lo, lmid, mid, flo, flm, fmid)
        right = simpson(mid, rmid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, tol / 2.0, depth - 1)
                + recurse(mid, hi, fmid, frm, fhi, right, tol / 2.0, depth - 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, mid, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, abs_tol, max_depth)


def _grid_configs(preset: str) -> list[FasConfig]:
    spec = GRID_PRESETS[preset]
    return [FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=x)
            for n in spec["n"] for w in spec["w"] for x in spec["x"]]


def check_marcum_specials(settings: ValidationSettings) -> dict:
    worst = 0.0
    for a in (0.3, 1.0, 3.7, 10.0):
        worst = max(worst, abs(marcum_q1(a, 0.0) - 1.0))
    for b in (0.3, 1.0, 2.0, 5.0):
        worst = max(worst, abs(marcum_q1(0.0, b) - math.exp(-0.5 * b * b)))
    return {"pass": worst <= 1e-12, "worst_error": repr(worst)}


def check_n2_closed_form(settings: ValidationSettings) -> dict:
    rng = np.random.default_rng(settings.seed)
    q = analytic.QuadratureSettings(abs_tol=settings.quad_abs_tol)
    worst = 0.0
    for _ in range(20):
        mu2 = rng.uniform(-0.98, 0.98)
        x = rng.uniform(0.05, 8.0)
        exact = analytic.outage_exact_profile([0.0, mu2], x, q)
        closed = analytic.outage_n2_closed_form(mu2, x)
        worst = max(worst, abs(exact - closed))
    return {"pass": worst <= 1e-8, "worst_error": repr(worst)}


def check_marcum_integral_identity(settings: ValidationSettings) -> dict:
    # integral identity behind the closed forms:
    # int_0^c e^-t Q1(a sqrt(t), b) dt
    #   = e^{-b^2/(a^2+2)} Q1(sqrt(c(a^2+2)), ab/sqrt(a^2+2)) - e^-c Q1(a sqrt(c), b)
    rng = np.random.default_rng(settings.seed + 1)
    worst = 0.0
    for _ in range(10):
        a, b, c = (float(v) for v in rng.uniform(0.1, 3.0, 3))
        lhs = adaptive_simpson(
            lambda t: math.exp(-t) * marcum_q1(a * math.sqrt(t), b),
            0.0, c, settings.quad_abs_tol)
        a2 = a * a + 2.0
        rhs = (math.exp(-b * b / a2)
               * marcum_q1(math.sqrt(c * a2), a * b / math.sqrt(a2))
               - math.exp(-c) * marcum_q1(a * math.sqrt(c), b))
        worst = max(worst, abs(lhs - rhs))
    return {"pass": worst <= 1e-8, "worst_error": repr(worst)}


def check_mc_vs_exact(settings: ValidationSettings) -> dict:
    q = analytic.QuadratureSettings(abs_tol=settings.quad_abs_tol)
    mc_settings = mc.McSettings(trials=settings.trials, seed=settings.seed,
                                workers=settings.workers)
    configs = _grid_configs(settings.grid)
    # Sidak: the per-point two-sided level that holds the chance of any
    # false alarm over the grid at MC_FAMILY_LEVEL, correlated or not
    per_point = -math.expm1(math.log1p(-MC_FAMILY_LEVEL) / len(configs))
    z_max = float(-special.ndtri(0.5 * per_point))
    failures = []
    for config in configs:
        exact = analytic.outage_exact(config, q)
        est = mc.mc_outage_fas(config, mc_settings)
        se = math.sqrt(max(exact * (1.0 - exact), 1e-300) / settings.trials)
        if abs(est.p_hat - exact) > z_max * se:
            failures.append({"n": config.n_ports, "w": config.size_wavelengths,
                             "x": config.snr_ratio,
                             "exact": repr(exact), "mc": repr(est.p_hat)})
    return {"pass": not failures, "mismatches": failures,
            "family_level": repr(MC_FAMILY_LEVEL), "z_threshold": repr(z_max)}


def check_bound_ordering(settings: ValidationSettings) -> dict:
    q = analytic.QuadratureSettings(abs_tol=settings.quad_abs_tol)
    violations = []
    for config in _grid_configs(settings.grid):
        exact = analytic.outage_exact(config, q)
        for kappa in (1.5, 2.0, 3.0):
            ub = bounds.outage_upper_bound(config, bounds.bound_constants(kappa))
            if exact > ub + 1e-12:
                violations.append({"n": config.n_ports,
                                   "w": config.size_wavelengths,
                                   "x": config.snr_ratio, "kappa": kappa,
                                   "exact": repr(exact), "bound": repr(ub)})
    return {"pass": not violations, "violations": violations}


def check_special_case_independent(settings: ValidationSettings) -> dict:
    q = analytic.QuadratureSettings(abs_tol=settings.quad_abs_tol)
    worst = 0.0
    for n in (1, 2, 4, 8):
        for x in (0.3, 1.0, 4.0):
            got = analytic.outage_exact_profile(np.zeros(n), x, q)
            want = (-math.expm1(-x)) ** n
            worst = max(worst, abs(got - want))
    return {"pass": worst <= 1e-9, "worst_error": repr(worst)}


def check_marcum_ratio_upper_bound(settings: ValidationSettings) -> dict:
    rng = np.random.default_rng(settings.seed + 2)
    violations = 0
    for _ in range(500):
        b = rng.uniform(1e-3, 20.0)
        a = rng.uniform(0.0, b * 0.999)
        if marcum_q1(a, b) >= (b / (b - a)) / math.sqrt(1.0 + 2.0 * a * b):
            violations += 1
    return {"pass": violations == 0, "violations": violations}


def check_marcum_scaled_lower_bound(settings: ValidationSettings) -> dict:
    rng = np.random.default_rng(settings.seed + 3)
    violations = 0
    for kappa in (1.5, 2.0, 3.0):
        rho = bounds.bound_constants(kappa).rho
        for _ in range(300):
            b = rng.uniform(10.0, 30.0)
            a = b * rng.uniform(0.05, 0.999)
            lower = rho * math.sqrt(b / a) * math.exp(-0.5 * kappa * (b - a) ** 2)
            if marcum_q1(a, b) < lower:
                violations += 1
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
        "config": {
            "grid": settings.grid,
            "trials": settings.trials,
            "seed": settings.seed,
            "workers": settings.workers,
            "quad_abs_tol": repr(settings.quad_abs_tol),
        },
        "results": results,
        "version": __version__,
        "all_passed": all(r["pass"] for r in results.values()),
    }
