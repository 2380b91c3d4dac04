"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own evaluation paths:
ascending series for the Bessel kernels, direct quadrature of defining
integrals for Marcum Q and the Gaussian tail, and dense scans for the J0
envelope inverse.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as sp
from scipy.integrate import quad


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


def gaussian_q_quad(x: float) -> float:
    v, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
                x, x + 50.0, epsabs=1e-15, limit=200)
    return v


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
