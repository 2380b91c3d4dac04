"""Independent oracles and output checks for the benchmark's operations.

Nothing here calls into `fas`: every expected value is rebuilt from scipy
primitives that the package does not use on the same path, so a check holds
the package to its model, not to a stored copy of an earlier output.

- exact outage: the single integral int_0^x e^-t prod_k P1_k(t) dt with each
  conditional port cdf P1 = 1 - Q1 taken directly as the noncentral
  chi-square cdf `scipy.special.chndtr(b^2, 2, a^2 t)`;
- approximation: the Marcum differences summed from `scipy.stats.ncx2.sf`;
- upper bound: the paper's product form with its (kappa, rho) constants,
  vectorised over ports;
- design answers: a numpy scan of that bound over every N <= 2000, a root of
  the homogeneous-factor equation by bracketing, and a dense |J0| grid;
- Monte Carlo: a z-score against the exact value;
- envelope traces: shape, exact maxima and power/variance properties.

Every check returns a list of problems; an empty list means the output
passed.  Checks fail closed: every comparison is written so that a NaN on
either side is a problem, and reported numbers must be finite.
"""
from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import special as sp
from scipy.integrate import quad
from scipy.optimize import brentq

# The analytic evaluators drop ports this close to full correlation: they are
# statistically identical to port 1 (documented model constant).
DEGENERATE_MU = 1.0 - 1e-9
# Below this an oracle value or one of its port factors sits in or near the
# subnormal range, where neither side keeps relative accuracy.
UNDERFLOW = 1e-290

EXACT_REL_TOL = 1e-8          # exact vs chndtr integrand
BOUND_REL_TOL = 1e-11         # upper bound vs the rewritten product form
MRC_REL_TOL = 1e-13           # mrc_L vs gammainc(L, x)
ORDER_REL_TOL = 1e-9          # bracketing (1-e^-x)^N <= exact <= min(ub, 1-e^-x)
MARCUM_ABS_TOL = 1e-10        # marcum_q1's documented absolute accuracy
MC_Z_MAX = 5.0                # Monte-Carlo z-score limit
TIE_REL = 1e-12               # bound-vs-target margin treated as a tie
N_SCAN_MAX = 2000             # the CLI's aperture-to-N scan limit


def db_to_ratio(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------- geometry

def profile_mu(n_ports: int, size_wl: float) -> np.ndarray:
    """Jakes correlation mu_k = J0(2 pi d_k) of evenly spaced ports, mu_1 = 0."""
    mu = sp.j0(2.0 * np.pi * np.linspace(0.0, size_wl, n_ports))
    mu[0] = 0.0
    return mu


# ------------------------------------------------------------ outage values

@dataclass(frozen=True)
class ExactOracle:
    value: float
    applicable: bool  # False when the oracle is in its underflow range


def exact_outage(mu: np.ndarray, x: float) -> ExactOracle:
    """chndtr integrand for the exact selection outage of profile mu."""
    m = mu[1:]
    m = m[np.abs(m) <= DEGENERATE_MU]
    a2 = 2.0 * m ** 2 / (1.0 - m ** 2)
    b2 = 2.0 * x / (1.0 - m ** 2)

    def integrand(t: float) -> float:
        return math.exp(-t) * float(np.prod(sp.chndtr(b2, 2.0, a2 * t)))

    value, _ = quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-12, limit=200)
    # P1 falls with t, so its smallest value on [0, x] is at t = x
    smallest = float(np.min(sp.chndtr(b2, 2.0, a2 * x))) if m.size else 1.0
    # a NaN oracle stays applicable, so that the comparison fails
    return ExactOracle(value, not (value <= UNDERFLOW or smallest <= UNDERFLOW))


def marcum_q1_ncx2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q1(a, b) as the noncentral chi-square survival function."""
    from scipy.stats import ncx2  # heavy import, needed by curves only
    return ncx2.sf(np.asarray(b) ** 2, 2.0, np.asarray(a) ** 2)


def approx_outage(mu: np.ndarray, x: float) -> tuple[float, float]:
    """(value, tolerance) of the sum-form approximation.

    The tolerance is marcum_q1's absolute accuracy carried through the two
    Q1 terms of every port, plus a few ulps of the result's scale.
    """
    m = mu[1:]
    alpha = np.sqrt(2.0 * x / (1.0 - m ** 2))
    beta = np.sqrt(2.0 * m ** 2 * x / (1.0 - m ** 2))
    diff = marcum_q1_ncx2(alpha, beta) - marcum_q1_ncx2(beta, alpha)
    base = math.exp(-x)
    value = 1.0 - base - base * float(np.sum(diff))
    scale = 1.0 + base * float(np.sum(np.abs(diff)))
    return value, 2.0 * MARCUM_ABS_TOL * base * m.size + 1e-13 * scale


def bound_rho(kappa: float) -> float:
    """rho(kappa) of the Marcum lower bound behind the outage bound."""
    k1 = kappa - 1.0
    return (math.exp(1.0 / (math.pi * k1 + 2.0)) / (2.0 * kappa)
            * math.sqrt(k1 * (math.pi * k1 + 2.0) / math.pi))


def bound_factors(mu: np.ndarray, x: float, kappa: float) -> np.ndarray:
    """Per-port factors of the upper bound for ports 2..N (degenerate dropped).

    A port contributes 1 - (rho/sqrt|mu|) exp(-kappa x / (1 - mu^2)); where
    rho/sqrt|mu| >= 1 (weak correlation) the factor uses rho alone.
    """
    rho = bound_rho(kappa)
    m = np.abs(mu[1:])
    m = m[m <= DEGENERATE_MU]
    decay = np.exp(-kappa * x / (1.0 - m ** 2))
    with np.errstate(divide="ignore"):
        coef = rho / np.sqrt(m)
    coef = np.where((m > 0.0) & (coef < 1.0), coef, rho)
    return 1.0 - coef * decay


def upper_bound(mu: np.ndarray, x: float, kappa: float) -> float:
    return float(-math.expm1(-x) * np.prod(bound_factors(mu, x, kappa)))


def mrc_outage(branches: int, x: float) -> float:
    return float(sp.gammainc(branches, x))


# ------------------------------------------------------------- CSV reading

@dataclass
class Csv:
    header: list
    rows: list  # raw cell strings


def read_csv(path) -> Csv:
    """A CSV written by fas, without its '#' provenance comments."""
    with open(path, newline="") as f:
        table = list(csv.reader(line for line in f if not line.startswith("#")))
    return Csv(table[0], table[1:]) if table else Csv([], [])


def _cell(text: str) -> Optional[float]:
    return float(text) if text != "" else None


def _rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def _exceeds(value: float, limit: float) -> bool:
    """True unless value <= limit, so that a NaN on either side fails."""
    return not value <= limit


def _not_finite(where: str, **values) -> list:
    return [f"{where}: {name} {value!r} is not finite"
            for name, value in values.items() if not math.isfinite(value)]


# ------------------------------------------------------------ curve checks

@dataclass(frozen=True)
class Sweep:
    """What one outage-curve / bounds-compare / MC op asked for."""

    variable: str                 # n_ports | size_wl | snr_db
    values: tuple
    n_ports: int
    size_wl: float
    snr_db: float
    kappa: float = 2.0
    mrc_l: tuple = ()             # bounds-compare only
    trials: int = 0               # outage-curve with Monte Carlo only


def _point(sweep: Sweep, value: float) -> tuple[int, float, float]:
    n, w, db = sweep.n_ports, sweep.size_wl, sweep.snr_db
    if sweep.variable == "n_ports":
        n = int(value)
    elif sweep.variable == "size_wl":
        w = float(value)
    else:
        db = float(value)
    return n, w, db_to_ratio(db)


@functools.lru_cache(maxsize=4096)
def point_oracle(n: int, w: float, x: float, kappa: float) -> dict:
    """Exact, approximate and bound values of one configuration."""
    mu = profile_mu(n, w)
    exact = exact_outage(mu, x)
    approx, approx_tol = approx_outage(mu, x)
    return {"exact": exact, "approx": approx, "approx_tol": approx_tol,
            "upper_bound": upper_bound(mu, x, kappa)}


def _check_point(where: str, n: int, x: float, oracle: dict,
                 exact: float, approx: float, ub: float) -> list:
    problems = _not_finite(where, exact=exact, approx=approx, upper_bound=ub)
    if problems:
        return problems
    ex = oracle["exact"]
    if ex.applicable and _exceeds(_rel_err(exact, ex.value), EXACT_REL_TOL):
        problems.append(f"{where}: exact {exact!r} vs chndtr oracle {ex.value!r}")
    if _exceeds(abs(approx - oracle["approx"]), oracle["approx_tol"]):
        problems.append(f"{where}: approx {approx!r} vs ncx2 oracle "
                        f"{oracle['approx']!r}")
    if _exceeds(_rel_err(ub, oracle["upper_bound"]), BOUND_REL_TOL):
        problems.append(f"{where}: upper_bound {ub!r} vs closed form "
                        f"{oracle['upper_bound']!r}")
    single = -math.expm1(-x)
    lower = single ** n
    if _exceeds(lower * (1.0 - ORDER_REL_TOL), exact):
        problems.append(f"{where}: exact {exact!r} below independent ports {lower!r}")
    if _exceeds(exact, min(ub, single) * (1.0 + ORDER_REL_TOL)):
        problems.append(f"{where}: exact {exact!r} above min(bound, 1-e^-x) "
                        f"{min(ub, single)!r}")
    return problems


def check_curve(path, sweep: Sweep, command: str) -> list:
    """Check an outage-curve or bounds-compare CSV against the oracles."""
    table = read_csv(path)
    head = [sweep.variable, "exact", "approx", "upper_bound"]
    if command == "outage-curve":
        head += ["mc", "mc_ci"]
    else:
        head += ["approx_out_of_regime"] + [f"mrc_{b}" for b in sweep.mrc_l]
    if table.header != head:
        return [f"header {table.header} != {head}"]
    if len(table.rows) != len(sweep.values):
        return [f"{len(table.rows)} rows for {len(sweep.values)} sweep points"]
    problems = []
    for cells, want in zip(table.rows, sweep.values):
        value = float(cells[0])
        if _exceeds(abs(value - want), 1e-9 * max(1.0, abs(want))):
            problems.append(f"sweep value {value!r} != {want!r}")
            continue
        n, w, x = _point(sweep, value)
        where = f"{sweep.variable}={cells[0]}"
        exact, approx, ub = (float(c) for c in cells[1:4])
        oracle = point_oracle(n, w, x, sweep.kappa)
        problems += _check_point(where, n, x, oracle, exact, approx, ub)
        if command == "bounds-compare":
            if cells[4] != ("1" if approx < 0 else "0"):
                problems.append(f"{where}: approx_out_of_regime {cells[4]}")
            for b, text in zip(sweep.mrc_l, cells[5:]):
                if _exceeds(_rel_err(float(text), mrc_outage(b, x)), MRC_REL_TOL):
                    problems.append(f"{where}: mrc_{b} {text} != gammainc")
        else:
            problems += _check_mc(where, n, x, oracle, sweep.trials,
                                  _cell(cells[4]), _cell(cells[5]))
    return problems


# -------------------------------------------------------- Monte-Carlo check

def planned_trials(p: float, base: int) -> Optional[int]:
    """Trials the CLI plans: base, raised to 100 expected failures below
    p = 1e-4, and none when that would exceed 1e9."""
    if p >= 1e-4:
        return base
    if p <= 0.0 or math.ceil(100.0 / p) > 10 ** 9:
        return None
    return max(base, math.ceil(100.0 / p))


def _check_mc(where: str, n: int, x: float, oracle: dict, base: int,
              mc: Optional[float], ci: Optional[float]) -> list:
    if base <= 0:
        if mc is not None or ci is not None:
            return [f"{where}: mc columns filled with Monte Carlo off"]
        return []
    p = -math.expm1(-x) if n == 1 else oracle["exact"].value
    trials = planned_trials(p, base)
    if trials is None:
        if mc is not None or ci is not None:
            return [f"{where}: mc filled where the plan skips Monte Carlo"]
        return []
    if mc is None or ci is None:
        return [f"{where}: mc columns empty for {trials} planned trials"]
    z = (mc - p) / math.sqrt(p * (1.0 - p) / trials)
    problems = []
    if _exceeds(abs(z), MC_Z_MAX):
        problems.append(f"{where}: mc {mc!r} is {z:.2f} sigma from {p!r}")
    want_ci = 1.96 * math.sqrt(mc * (1.0 - mc) / trials)
    if _exceeds(_rel_err(ci, want_ci), 1e-9):
        problems.append(f"{where}: mc_ci {ci!r} != 1.96*se {want_ci!r} "
                        f"at {trials} trials")
    return problems


def check_validate(path) -> list:
    with open(path) as f:
        report = json.load(f)
    if report.get("all_passed") is not True:
        failed = [k for k, v in report.get("results", {}).items()
                  if not v.get("pass")]
        return [f"validate: all_passed is not true (failed: {failed})"]
    return []


def check_identical(path, reference_path) -> list:
    with open(path, "rb") as f, open(reference_path, "rb") as g:
        if f.read() != g.read():
            return [f"{path} differs from {reference_path} for the same seed"]
    return []


# ----------------------------------------------------------- design checks

@dataclass(frozen=True)
class DesignSpec:
    mrc_l: int
    snr_db: float
    kappa: float = 2.0


def mrc_ratio(spec: DesignSpec) -> float:
    x = db_to_ratio(spec.snr_db)
    return mrc_outage(spec.mrc_l, x) / -math.expm1(-x)


@functools.lru_cache(maxsize=64)
def bound_by_n(size_wl: float, x: float, kappa: float) -> np.ndarray:
    """Upper bound at N = 1..N_SCAN_MAX ports over a fixed aperture."""
    return np.array([upper_bound(profile_mu(n, size_wl), x, kappa)
                     for n in range(1, N_SCAN_MAX + 1)])


def check_min_ports(answer: dict, size_wl: float, spec: DesignSpec) -> list:
    """N* is the least N <= 2000 whose bound beats MRC, or none exists."""
    x = db_to_ratio(spec.snr_db)
    ub = bound_by_n(size_wl, x, spec.kappa)
    target = mrc_outage(spec.mrc_l, x)
    beats = ub < target * (1.0 + TIE_REL)
    loses = ub >= target * (1.0 - TIE_REL)
    if not answer.get("feasible"):
        if not np.all(loses):
            first = int(np.argmin(loses)) + 1
            return [f"min_ports infeasible, but the bound beats MRC at N={first}"]
        return []
    n = answer.get("value")
    if not isinstance(n, int) or not 1 <= n <= N_SCAN_MAX:
        return [f"min_ports value {n!r} is not an N in 1..{N_SCAN_MAX}"]
    problems = []
    if not beats[n - 1]:
        problems.append(f"min_ports N={n}: bound {ub[n - 1]!r} does not beat "
                        f"MRC {target!r}")
    if not np.all(loses[:n - 1]):
        first = int(np.argmin(loses[:n - 1])) + 1
        problems.append(f"min_ports N={n} is not minimal: N={first} beats MRC")
    return problems


def homogeneous_factor(mu: float, x: float, kappa: float) -> float:
    """Per-port factor 1 - rho exp(-kappa x / (1 - mu^2)) of a homogeneous
    profile, the form the design rule inverts."""
    return 1.0 - bound_rho(kappa) * math.exp(-kappa * x / (1.0 - mu * mu))


def required_mu(ports: int, spec: DesignSpec) -> Optional[float]:
    """Largest homogeneous mu whose factor^(ports-1) meets the MRC ratio,
    found by bracketing in mu^2; None when even mu = 0 misses it."""
    x = db_to_ratio(spec.snr_db)
    log_ratio = math.log(mrc_ratio(spec))
    if log_ratio >= 0.0:
        raise ValueError("MRC target above one port's outage: outside the "
                         "benchmark's design inputs")

    def excess(mu_sq: float) -> float:
        return ((ports - 1) * math.log(homogeneous_factor(math.sqrt(mu_sq), x,
                                                          spec.kappa))
                - log_ratio)

    if excess(0.0) > 0.0:
        return None
    return math.sqrt(brentq(excess, 0.0, 1.0 - 1e-15, xtol=1e-16, rtol=1e-15))


def j0_envelope_problems(d_star: float, mu_star: float) -> list:
    """|J0(2 pi d)| <= mu* for every d >= d*, and d* is where it first holds."""
    eps = 2.0 * math.pi * d_star
    # beyond 2/(pi mu^2) the |J0| envelope sqrt(2/(pi eps)) is below mu
    span = 2.0 / (math.pi * mu_star * mu_star) + 50.0
    grid = eps + np.arange(0.0, span, 1e-3)
    worst = float(np.max(np.abs(sp.j0(grid))))
    problems = []
    # d* comes from a root of |J0(eps)| = mu* to 1e-9 in eps = 2 pi d, and
    # |J0'| = |J1| < 0.6, so |J0| may exceed mu* by 6e-10 right at d*
    if _exceeds(worst, mu_star + 1e-9):
        problems.append(f"|J0| reaches {worst!r} > mu*={mu_star!r} beyond d*={d_star!r}")
    if d_star > 0.0 and _exceeds(abs(abs(float(sp.j0(eps))) - mu_star), 1e-7):
        problems.append(f"d*={d_star!r} is not where |J0| falls to mu*={mu_star!r}")
    return problems


def check_required(mu_text: str, d_text: str, ports: int, spec: DesignSpec) -> list:
    """(mu*, d*) for `ports` homogeneous ports."""
    mu_star, d_star = float(mu_text), float(d_text)
    x = db_to_ratio(spec.snr_db)
    want = required_mu(ports, spec)
    if want is None:
        return [f"mu* given for {ports} ports, where no correlation suffices"]
    problems = _not_finite(f"{ports} ports", mu_star=mu_star, d_star=d_star)
    if problems:
        return problems
    if _exceeds(abs(mu_star - want), 1e-9):
        problems.append(f"mu*={mu_star!r} for {ports} ports, root gives {want!r}")
    power = homogeneous_factor(mu_star, x, spec.kappa) ** (ports - 1)
    if _exceeds(power, mrc_ratio(spec) * (1.0 + 1e-9)):
        problems.append(f"factor(mu*)^{ports - 1} = {power!r} misses the MRC "
                        f"ratio {mrc_ratio(spec)!r}")
    return problems + j0_envelope_problems(d_star, mu_star)


def check_min_size(w_text: Optional[str], feasible: bool, n_ports: int,
                   spec: DesignSpec) -> list:
    """W_min for N ports: d* of floor(N/2) homogeneous ports."""
    half = n_ports // 2
    want = required_mu(half, spec)
    if not feasible:
        if want is not None:
            return [f"N={n_ports}: infeasible, but mu={want!r} meets the ratio"]
        return []
    if want is None:
        return [f"N={n_ports}: W_min given, where no correlation suffices"]
    w_min = float(w_text)
    return (_not_finite(f"N={n_ports}", w_min=w_min)
            or j0_envelope_problems(w_min, want))


def check_design_json(path, spec: DesignSpec, size_wl: Optional[float],
                      n_ports: Optional[int]) -> list:
    with open(path) as f:
        doc = json.load(f)
    results = doc.get("results", {})
    if size_wl is not None:
        if "min_ports" not in results:
            return ["design --size-wl: no min_ports result"]
        return check_min_ports(results["min_ports"], size_wl, spec)
    problems = []
    want = {"required_mu"} | ({"min_size_wl"} if n_ports >= 4 else set())
    if set(results) != want:
        return [f"design --n-ports {n_ports}: results {sorted(results)}"]
    req = results["required_mu"]
    if req["feasible"]:
        problems += check_required(req["value"]["mu_star"],
                                   req["value"]["d_star_wl"], n_ports, spec)
    elif required_mu(n_ports, spec) is not None:
        problems.append(f"required_mu infeasible for {n_ports} ports, "
                        f"but a correlation suffices")
    if "min_size_wl" in results:
        ms = results["min_size_wl"]
        problems += check_min_size(ms["value"], ms["feasible"], n_ports, spec)
    return problems


def check_frontier(path, spec: DesignSpec, n_values: Sequence[int]) -> list:
    table = read_csv(path)
    if table.header != ["n_ports", "w_min", "feasible", "guard"]:
        return [f"frontier header {table.header}"]
    if [int(r[0]) for r in table.rows] != list(n_values):
        return ["frontier N column differs from the sweep"]
    problems = []
    for n_text, w_text, feasible, _ in table.rows:
        problems += check_min_size(w_text, feasible == "1", int(n_text), spec)
    return problems


# ------------------------------------------------------------ trace checks

@dataclass(frozen=True)
class TraceSpec:
    n_ports: int
    size_wl: float
    duration_s: float
    rate_hz: float
    freq_ghz: float
    speed_kmh: float
    mrc_l: int
    power_rel_tol: float  # allowed |mean power / expected - 1|


def check_trace(path, spec: TraceSpec) -> list:
    with open(path) as f:
        header = None
        for line in f:
            if not line.startswith("#"):
                header = line.rstrip("\n").split(",")
                break
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    want = (["t_norm"] + [f"port_{k + 1}_db" for k in range(spec.n_ports)]
            + ["fas_db", "mrc_db"])
    if header != want:
        return [f"trace header has {len(header or [])} columns, want {len(want)}"]
    rows = int(round(spec.duration_s * spec.rate_hz))
    if data.shape != (rows, spec.n_ports + 3):
        return [f"trace shape {data.shape}, want {(rows, spec.n_ports + 3)}"]
    problems = []
    wavelength = 299_792_458.0 / (spec.freq_ghz * 1e9)
    t_norm = spec.speed_kmh / 3.6 * (np.arange(rows) / spec.rate_hz) / wavelength
    if not np.allclose(data[:, 0], t_norm, rtol=1e-12, atol=1e-12):
        problems.append("t_norm is not v t / lambda")
    ports = data[:, 1:spec.n_ports + 1]
    fas_db, mrc_db = data[:, -2], data[:, -1]
    if not np.array_equal(fas_db, ports.max(axis=1)):
        bad = int(np.count_nonzero(fas_db != ports.max(axis=1)))
        problems.append(f"fas_db differs from the port maximum on {bad} rows")
    port_power = float(np.mean(10.0 ** (ports / 10.0)))
    if _exceeds(abs(port_power - 1.0), spec.power_rel_tol):
        problems.append(f"mean port power {port_power:.4f}, want 1")
    mrc_power = float(np.mean(10.0 ** (mrc_db / 10.0)))
    if _exceeds(abs(mrc_power / spec.mrc_l - 1.0), spec.power_rel_tol):
        problems.append(f"mean MRC power {mrc_power:.4f}, want {spec.mrc_l}")
    sel_var = float(np.var(fas_db))
    port_var = float(np.min(np.var(ports, axis=0)))
    if not sel_var < port_var:
        problems.append(f"selection variance {sel_var:.3f} >= smallest port "
                        f"variance {port_var:.3f}")
    return problems
