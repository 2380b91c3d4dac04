"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own evaluation paths:
ascending series for the Bessel kernels, direct quadrature of defining
integrals for Marcum Q and the Gaussian tail, and dense scans for the J0
envelope inverse.  The exceptions keep a formula the package replaced, as
a reference for the vectorised code that succeeded it, or are test
harnesses that only the tests run (the chi-square check of the joint
density); their docstrings say so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy.integrate import quad
from scipy.optimize import brentq


def j0_series(x: float) -> float:
    """Ascending series sum_k (-x^2/4)^k / (k!)^2; accurate for |x| <= 12."""
    q = -(x * x) / 4.0
    term = 1.0
    terms = [term]
    for k in range(1, 200):
        term *= q / (k * k)
        terms.append(term)
        if abs(term) < 1e-20:
            break
    return math.fsum(terms)


def i0_series(x: float) -> float:
    """Ascending series sum_k (x^2/4)^k / (k!)^2; accurate for |x| <= 12."""
    q = (x * x) / 4.0
    term = 1.0
    terms = [term]
    for k in range(1, 300):
        term *= q / (k * k)
        terms.append(term)
        if term < 1e-22 * abs(math.fsum(terms)):
            break
    return math.fsum(terms)


def j0_zero_by_bisection(lo: float = 2.0, hi: float = 3.0) -> float:
    """First positive zero of J0 from the ascending-series oracle."""
    flo = j0_series(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = j0_series(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def marcum_q1_quad(a: float, b: float) -> float:
    """Adaptive quadrature of the defining integral
    Q1(a,b) = int_b^inf t exp(-(t^2+a^2)/2) I0(at) dt (scaled-I0 form)."""
    if b == 0.0:
        return 1.0

    def integrand(t):
        return t * math.exp(-0.5 * (t - a) ** 2) * sp.i0e(a * t)

    hi = max(a, b) + 45.0
    if b < a:
        v1, _ = quad(integrand, b, a, epsabs=1e-14, epsrel=1e-13, limit=500)
        v2, _ = quad(integrand, a, hi, epsabs=1e-14, epsrel=1e-13, limit=500)
        return v1 + v2
    v, _ = quad(integrand, b, hi, epsabs=1e-14, epsrel=1e-13, limit=500)
    return v


def marcum_q1_mpmath(a: float, b: float, dps: int = 50):
    """Q1(a, b) from its Bessel series at dps digits, as an mpmath number
    (it does not underflow, so deep-tail values keep their relative accuracy).

    Q1 = e^{-(a^2+b^2)/2} sum_{k>=0} (a/b)^k I_k(ab) for a <= b, and
    1 - e^{-(a^2+b^2)/2} sum_{k>=1} (b/a)^k I_k(ab) for a > b, so every
    term is positive and the ratio is at most 1.  The I_k(ab) come from
    Miller's backward recurrence I_{k-1} = I_{k+1} + (2k/z) I_k, started
    where I_k/I_0 is far below 10^-dps and scaled by mpmath's I_0.  Agrees
    with the identity Q1(a,a) = (1 + e^{-a^2} I0(a^2))/2 to 1e-60 for
    a = 0.5 ... 50, with `ncx2_cdf_2dof_mpmath` to 1e-45 on six points, and
    with itself at 80 digits to 1e-60 on a 12 x 12 log grid over [1e-3, 50].
    """
    import mpmath as mp

    with mp.workdps(dps + 10):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if b == 0:
            return mp.mpf(1)
        if a == 0:
            return mp.exp(-b * b / 2)
        z = a * b
        top = int(20 * math.sqrt(float(z))) + 2 * dps + 20
        above, here = mp.mpf(0), mp.mpf(1)
        ratios = [here]
        for k in range(top, 0, -1):
            above, here = here, above + 2 * k / z * here
            ratios.append(here)
        ratios.reverse()  # ratios[k] is proportional to I_k(z)
        weight = mp.exp(-(a * a + b * b) / 2) * mp.besseli(0, z) / ratios[0]
        if a <= b:
            return weight * mp.fsum(r * (a / b) ** k
                                    for k, r in enumerate(ratios))
        return 1 - weight * mp.fsum(r * (b / a) ** k
                                    for k, r in enumerate(ratios) if k)


def n2_outage_mpmath(mu2: float, x: float, dps: int = 120):
    """Two-port selection outage for the profile [0, mu2] at SNR ratio x,
    as an mpmath number: the Marcum closed form
    1 - e^-x (1 + Q1(a, b) - Q1(b, a)), a^2 = 2x/(1 - mu2^2), b = |mu2| a,
    with `marcum_q1_mpmath` at dps digits.  The form cancels to about
    x^2 / (1 - mu2^2) as x -> 0, so dps must exceed the digits lost there
    (120 holds 1e-30 relative down to x = 1e-30)."""
    import mpmath as mp

    with mp.workdps(dps):
        m = mp.mpf(mu2)
        a = mp.sqrt(2 * mp.mpf(x) / (1 - m * m))
        b = abs(m) * a
        delta = marcum_q1_mpmath(a, b, dps) - marcum_q1_mpmath(b, a, dps)
        return -mp.expm1(-mp.mpf(x)) - mp.exp(-mp.mpf(x)) * delta


def n2_joint_pdf(mu2: float, r1: float, r2: float) -> float:
    """Two-port joint density, written out directly (sigma = 1)."""
    om = 1.0 - mu2 ** 2
    z = 2.0 * abs(mu2) * r1 * r2 / om
    return (4.0 * r1 * r2 / om
            * math.exp(-r1 * r1)
            * math.exp(-(r2 * r2 + mu2 * mu2 * r1 * r1) / om + z)
            * sp.i0e(z))


def n2_joint_cdf(mu2: float, r1: float, r2: float) -> float:
    """Two-port joint cdf closed form, evaluated with the quadrature-based
    Marcum oracle (independent of the library's series)."""
    om = 1.0 - mu2 ** 2
    c = math.sqrt(2.0 / om)
    cm = math.sqrt(2.0 * mu2 * mu2 / om)
    return (1.0 - math.exp(-r1 * r1)
            - math.exp(-r2 * r2) * marcum_q1_quad(c * r1, cm * r2)
            + math.exp(-r1 * r1) * marcum_q1_quad(cm * r1, c * r2))


def envelope_inverse_scan(target: float, step: float = 1e-4) -> float:
    """Dense-grid scan for the smallest eps with |J0| <= target beyond it."""
    # |J0| envelope ~ sqrt(2/(pi x)); size the scan window from the target
    span = max(50.0, 2.0 / (math.pi * target * target) + 50.0)
    x = np.arange(0.0, span, step)
    bad = np.abs(sp.j0(x)) > target
    last_bad = np.nonzero(bad)[0]
    if last_bad.size == 0:
        return 0.0
    lo = x[last_bad[-1]]
    hi = lo + step
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs(sp.j0(mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def envelope_inverse_tabled(target: float, extrema: np.ndarray,
                            j0_zeros: np.ndarray) -> float:
    """The envelope inverse of J0 as the package once computed it, from
    tables of J1 zeros (the |J0| extrema) and J0 zeros, with brentq at a
    few ulps in place of its old 1e-9 tolerance.  The tables must reach
    past the first extremum at or below the target."""
    if target >= 1.0:
        return 0.0
    first_ok = int(np.argmax(np.abs(sp.j0(extrema)) <= target))
    lo = float(extrema[first_ok - 1]) if first_ok else 0.0
    return brentq(lambda e: abs(sp.j0(e)) - target, lo,
                  float(j0_zeros[first_ok]), xtol=1e-300, rtol=1e-15)


def outage_exact_chndtr(mu, x: float) -> float:
    """Selection outage int_0^x e^-t prod_k P1_k(t) dt for a correlation
    profile mu (port 1 first), with each conditional cdf P1 = 1 - Q1(a sqrt(t),
    b) taken as the noncentral chi-square cdf chndtr(b^2, 2, a^2 t) rather
    than from a Marcum Q evaluation."""
    mu = np.asarray(mu, dtype=float)[1:]
    a2 = 2.0 * mu ** 2 / (1.0 - mu ** 2)
    b2 = 2.0 * x / (1.0 - mu ** 2)

    def integrand(t):
        return math.exp(-t) * float(np.prod(sp.chndtr(b2, 2.0, a2 * t)))

    v, _ = quad(integrand, 0.0, x, epsabs=0.0, epsrel=1e-12, limit=200)
    return v


def ncx2_cdf_2dof_mpmath(x: float, nc: float, dps: int = 40):
    """P[chi'^2(2 dof, noncentrality nc) <= x] = P1(sqrt(nc), sqrt(x)) at
    dps digits, as an mpmath number (it does not underflow).

    Uses the Poisson mixture P1 = P[M > J] with independent
    M ~ Poisson(x/2) and J ~ Poisson(nc/2): the sum over m >= 1 of
    P[M = m] P[J <= m - 1], whose terms are all positive.  Past
    m0 = x/2 + sqrt(x nc)/2 the terms fall geometrically, so the sum stops
    there once a term is below 1e-45 of the total.  Agrees with the Bessel
    series exp(-(a^2+b^2)/2) sum_k>=1 (b/a)^k I_k(ab) to 1e-39 at
    (a, b) = (1, 2), (8, 2), (20, 5), (0.5, 3) and (3, 0.5).
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam = mp.mpf(nc) / 2
        y = mp.mpf(x) / 2
        p_j = mp.exp(-lam)
        cdf_j = p_j
        p_m = mp.exp(-y) * y
        total = p_m * cdf_j
        m0 = float(y) + math.sqrt(float(y) * float(lam)) + 10.0
        tiny = mp.mpf(10) ** -45
        m = 1
        while True:
            m += 1
            p_j *= lam / (m - 1)
            cdf_j += p_j
            p_m *= y / m
            term = p_m * cdf_j
            total += term
            if m > m0 and term <= tiny * total:
                return total


def correlation_discrepancy(mu, d) -> np.ndarray:
    """Model-vs-Jakes correlation gap between port pairs (k, l), k,l >= 2,
    of the profile mu of ports at displacements d (wavelengths).

    The single-common-factor construction gives inter-port correlation
    mu_k * mu_l for k, l >= 2, while the Jakes model prescribes J0 of their
    separation.  Returns the matrix of differences as a diagnostic; the
    discrepancy is intrinsic to the analyzed model.
    """
    model = np.outer(mu, mu)
    model[0, :] = mu
    model[:, 0] = mu
    np.fill_diagonal(model, 1.0)
    jakes = sp.j0(2.0 * np.pi * np.abs(d[:, None] - d[None, :]))
    return model - jakes


def per_port_bound_factor_scalar(mu_k: float, snr_ratio: float,
                                 kappa: float, rho: float) -> float:
    """One port's bound factor with math-module scalars, as the package
    evaluated it one port at a time before its numpy kernel."""
    decay = math.exp(-kappa * snr_ratio / (1.0 - mu_k ** 2))
    am = abs(mu_k)
    if am > 0.0 and rho / math.sqrt(am) < 1.0:
        return 1.0 - rho / math.sqrt(am) * decay
    return 1.0 - rho * decay


def outage_upper_bound_sequential(mu, snr_ratio: float, kappa: float,
                                  rho: float) -> float:
    """The bound as a port-by-port running product: (1 - e^-x) times each
    non-degenerate correlated port's scalar factor in turn."""
    mu = np.asarray(mu, dtype=float)
    mu = mu[np.abs(mu) <= 1.0 - 1e-9]
    p = 1.0 - math.exp(-snr_ratio)
    for m in mu[1:]:
        p *= per_port_bound_factor_scalar(float(m), snr_ratio, kappa, rho)
    return p


def min_ports_sequential(mu, snr_ratio: float, target: float, kappa: float,
                         rho: float, n_max: int):
    """Smallest prefix length N whose running factor product drops below
    `target`, or None: the loop the package ran before its cumprod."""
    prod = 1.0
    for k in range(1, min(len(mu), n_max)):
        prod *= per_port_bound_factor_scalar(float(mu[k]), snr_ratio, kappa,
                                             rho)
        if prod < target:
            return k + 1
    return None


def min_ports_for_size_per_n(size_wl: float, query, n_max: int = 2000):
    """`fas.design.min_ports_for_size` as the package ran it before its
    blocked scan: a profile and a bound for one N at a time, from N = 1.
    The MRC target is capped at the one-port outage 1 - e^-x, which the
    strict test keeps N = 1 from beating."""
    from fas.analytic import outage_mrc
    from fas.bounds import outage_upper_bound
    from fas.channel import FasConfig
    from fas.design import GUARD_N_EXHAUSTED, DesignAnswer

    target = min(outage_mrc(query.mrc_branches, query.snr_ratio),
                 -math.expm1(-query.snr_ratio))
    for n in range(1, n_max + 1):
        config = FasConfig(n_ports=n, size_wavelengths=size_wl,
                           snr_ratio=query.snr_ratio)
        if outage_upper_bound(config, query.constants) < target:
            return DesignAnswer(n)
    return DesignAnswer(None, GUARD_N_EXHAUSTED)


def outage_approx_marcum(mu, x: float) -> float:
    """The closed-form approximation as the package evaluated it before its
    chndtr kernel: one pair of scalar `fas.specfun.marcum_q1` series per
    port, summed in a Python loop over the ports after the first."""
    from fas.specfun import marcum_q1

    base = math.exp(-x)
    total = 0.0
    for m in np.asarray(mu, dtype=float)[1:]:
        alpha = math.sqrt(2.0 * x / (1.0 - m ** 2))
        beta = math.sqrt(2.0 * m ** 2 * x / (1.0 - m ** 2))
        if alpha != beta:
            total += marcum_q1(alpha, beta) - marcum_q1(beta, alpha)
    return 1.0 - base - base * total


def sos_process_loop(rng, f_m: float, n_samples: int, sample_rate_hz: float,
                     n_scatterers: int) -> np.ndarray:
    """The sum-of-sinusoids process as the package evaluated it before its
    blocked matmul: one pass of n_samples cosines per scatterer, drawing
    every theta and then every phase, as `fas.channel.envelope_trace` does
    for each process."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n_scatterers)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_scatterers)
    freqs = 2.0 * np.pi * f_m * np.cos(theta)
    t = np.arange(n_samples) / sample_rate_hz
    out = np.zeros_like(t)
    for w, p in zip(freqs, phase):
        out += np.cos(w * t + p)
    return out / np.sqrt(n_scatterers)


def envelope_trace_loop(config, doppler, rng, mrc_branches: int = 2):
    """The envelope trace as the package composed it before it streamed row
    chunks: every process over the whole trace from `sos_process_loop`, in
    the draw order x0, y0, xk and yk per port, then each MRC branch's pair.
    Returns the (T, N) complex gains and the fas_db and mrc_db columns."""
    from fas.channel import _ENV_FLOOR, correlation_profile

    f_m = doppler.max_doppler_hz
    n_samples = doppler.n_samples

    def process():
        return sos_process_loop(rng, f_m, n_samples, doppler.sample_rate_hz,
                                doppler.n_scatterers)

    x0 = process()
    y0 = process()
    mu = correlation_profile(config)
    gains = np.empty((n_samples, mu.size), dtype=complex)
    gains[:, 0] = x0 + 1j * y0
    for k in range(1, mu.size):
        root = np.sqrt(1.0 - mu[k] ** 2)
        xk = process()
        yk = process()
        gains[:, k] = (root * xk + mu[k] * x0) + 1j * (root * yk + mu[k] * y0)
    fas_db = 20.0 * np.log10(np.maximum(np.abs(gains), _ENV_FLOOR)).max(axis=1)
    mrc_sq = np.zeros(n_samples)
    for _ in range(mrc_branches):
        hx = process()
        hy = process()
        mrc_sq += hx ** 2 + hy ** 2
    mrc_db = 10.0 * np.log10(np.maximum(mrc_sq, _ENV_FLOOR ** 2))
    return gains, fas_db, mrc_db


def trace_table(config, doppler, rng, mrc_branches: int = 2) -> np.ndarray:
    """`fas.channel.envelope_trace` as one (T, N + 3) table: each streamed
    block is copied as it arrives, since the next one overwrites it."""
    from fas.channel import envelope_trace

    return np.concatenate([block.copy() for block in
                           envelope_trace(config, doppler, rng, mrc_branches)])


def mc_outage_fas_full_draw(config, settings, mu=None):
    """The Monte-Carlo outage as the package estimated it before sequential
    rejection: every port of every trial drawn as a complex number through
    `fas.channel.draw_channels_batch`, over the same `fas.mc._chunks`
    pieces, and a trial counted when its largest port power is below x."""
    from fas.channel import correlation_profile, draw_channels_batch
    from fas.mc import _chunks, _estimate

    if mu is None:
        mu = correlation_profile(config)
    failures = 0
    for rng, n in _chunks(settings):
        power = np.abs(draw_channels_batch(mu, rng, n)) ** 2
        failures += int(np.count_nonzero(power.max(axis=1) < config.snr_ratio))
    return _estimate(failures, settings.trials)


def mc_outage_mrc(branches: int, snr_ratio: float, settings):
    """Empirical L-branch MRC outage: the sum of L i.i.d. Exp(1) branch
    powers |h_l|^2 falls below snr_ratio, over the `fas.mc._chunks` pieces
    of `settings`."""
    from fas.mc import _chunks, _estimate

    if branches < 1:
        raise ValueError("branches must be >= 1")
    failures = 0
    for rng, n in _chunks(settings):
        total = rng.standard_exponential((n, branches)).sum(axis=1)
        failures += int(np.count_nonzero(total < snr_ratio))
    return _estimate(failures, settings.trials)


@dataclass(frozen=True)
class HistogramSpec:
    r_max: float
    bins: int

    def __post_init__(self):
        if self.r_max <= 0 or self.bins < 2:
            raise ValueError("need r_max > 0 and bins >= 2")


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float
    critical_1pct: float

    @property
    def rejected_at_1pct(self) -> bool:
        return self.statistic > self.critical_1pct


def cell_probabilities(mu, edges: np.ndarray) -> np.ndarray:
    """Per-cell mass of the two-port joint density of the profile mu via
    tensor Gauss-Legendre."""
    from fas.analytic import joint_pdf

    nodes, weights = np.polynomial.legendre.leggauss(12)
    lo, hi = edges[:-1], edges[1:]
    x = 0.5 * (hi - lo) * nodes[:, None] + 0.5 * (hi + lo)  # (12, bins)
    w = 0.5 * (hi - lo) * weights[:, None]
    # node pair (u, v) of cell (i, j) at [u, v, i, j]
    u, v = x[:, None, :, None], x[None, :, None, :]
    pdf = joint_pdf(mu, np.stack(np.broadcast_arrays(u, v), axis=-1))
    terms = w[:, None, :, None] * w[None, :, None, :] * pdf
    # a sum over the leading axis adds the node pairs in order, one at a time
    return terms.reshape(-1, lo.size, lo.size).sum(axis=0)


def mc_joint_density_check(mu, settings,
                           grid: HistogramSpec) -> ChiSquareResult:
    """Chi-square goodness of fit of (|g_1|, |g_2|) draws from
    `fas.channel.draw_channels_batch`, over the `fas.mc._chunks` pieces of
    `settings`, against the package's joint pdf of the profile mu.

    Cells with expected count below 5 are pooled into one bucket together
    with the mass outside the histogram window.
    """
    from fas.channel import draw_channels_batch
    from fas.mc import _chunks

    mu = np.asarray(mu, dtype=float)
    if mu.size != 2:
        raise ValueError("density check is defined for two-port profiles")
    edges = np.linspace(0.0, grid.r_max, grid.bins + 1)
    observed = np.zeros((grid.bins, grid.bins))
    for rng, n in _chunks(settings):
        g = np.abs(draw_channels_batch(mu, rng, n))
        hist, _, _ = np.histogram2d(g[:, 0], g[:, 1], bins=(edges, edges))
        observed += hist

    expected = cell_probabilities(mu, edges) * settings.trials
    outside_expected = settings.trials - expected.sum()
    outside_observed = settings.trials - observed.sum()

    keep = expected >= 5.0
    obs = observed[keep]
    exp = expected[keep]
    pool_obs = observed[~keep].sum() + outside_observed
    pool_exp = expected[~keep].sum() + outside_expected
    if pool_exp > 0:
        obs = np.append(obs, pool_obs)
        exp = np.append(exp, pool_exp)

    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return ChiSquareResult(statistic=stat, dof=dof,
                           p_value=float(sp.chdtrc(dof, stat)),
                           critical_1pct=float(sp.chdtri(dof, 0.01)))
