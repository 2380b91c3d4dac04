#!/usr/bin/env python3
"""Check the benchmark's chndtr exact-outage oracle against mpmath.

    python3 bench/check_oracle.py

At a handful of `curves` points, one of them below 1e-100, it recomputes
int_0^x e^-t prod_k P1(a_k sqrt(t), b_k) dt at 30 digits, with each P1 from
the positive-term Bessel series

    P1(a, b) = 1 - Q1(a, b) = exp(-(a^2 + b^2)/2) sum_{k>=1} (b/a)^k I_k(ab),

and prints the relative error of `oracles.exact_outage` at each point and the
worst of them.  The integral uses Gauss-Legendre rules of 20 and 40 nodes
(the integrand is smooth on [0, x]); their difference is printed as the
reference's own error.  mpmath's adaptive `quad` is not used: on the -20 dB
point it stops with an error estimate of 1e-3 relative.  Exits 1 if the
worst error exceeds the 1e-8 that the benchmark's check of `exact` allows.
Takes about two minutes.
"""
from __future__ import annotations

import sys

import mpmath as mp
import numpy as np

import oracles

# (N, W, SNR dB): points of the curves workload, from 0 dB sweeps to the
# -20 dB deep tail (N = 100, W = 0.5 is about 2e-164)
POINTS = ((5, 1.0, -20.0), (20, 1.0, 0.0), (20, 3.8, 0.0), (100, 5.0, 0.0),
          (100, 0.5, -20.0))


def p1_series(a, b):
    if a == 0:
        return -mp.expm1(-b * b / 2)
    z, r = a * b, b / a
    total, k = mp.mpf(0), 1
    while True:
        term = r ** k * mp.besseli(k, z)
        total += term
        if k > max(z, b * b / 2) and term < total * mp.mpf(10) ** (-mp.mp.dps - 2):
            return mp.exp(-(a * a + b * b) / 2) * total
        k += 1


def gauss_legendre(f, lo, hi, n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half, mid = (hi - lo) / 2, (hi + lo) / 2
    return half * mp.fsum(mp.mpf(float(w)) * f(mid + half * mp.mpf(float(t)))
                          for t, w in zip(nodes, weights))


def exact_mpmath(mu: np.ndarray, x: float):
    """(value, |value - value with half the nodes|)."""
    m = [mp.mpf(float(v)) for v in mu[1:] if abs(v) <= oracles.DEGENERATE_MU]
    xm = mp.mpf(x)
    a = [mp.sqrt(2 * v * v / (1 - v * v)) for v in m]
    b = [mp.sqrt(2 * xm / (1 - v * v)) for v in m]

    def integrand(t):
        st = mp.sqrt(t)
        p = mp.exp(-t)
        for ak, bk in zip(a, b):
            p *= p1_series(ak * st, bk)
        return p

    coarse = gauss_legendre(integrand, 0, xm, 20)
    fine = gauss_legendre(integrand, 0, xm, 40)
    return fine, abs(fine - coarse)


def main() -> int:
    mp.mp.dps = 30
    worst = 0.0
    for n, w, db in POINTS:
        x = oracles.db_to_ratio(db)
        mu = oracles.profile_mu(n, w)
        fast = oracles.exact_outage(mu, x).value
        slow, quad_err = exact_mpmath(mu, x)
        rel = float(abs((mp.mpf(fast) - slow) / slow))
        worst = max(worst, rel)
        print(f"N={n:3d} W={w:4.1f} SNR={db:+5.1f} dB  chndtr={fast:.15e}  "
              f"mpmath={mp.nstr(slow, 16)}  rel.err={rel:.2e}  "
              f"(20 vs 40 nodes: {float(quad_err / slow):.1e})", flush=True)
    print(f"worst relative error {worst:.2e}")
    return 0 if worst <= oracles.EXACT_REL_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
