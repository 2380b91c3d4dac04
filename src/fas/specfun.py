"""Special functions underpinning the outage analysis.

Provides the first-order Marcum Q-function and the envelope inverse of J0
(smallest argument beyond which |J0| stays at or below a target level).

All functions are pure.  The only module state is a grow-only table of
J0/J1 zeros, which caches values and changes no result.

The Marcum Q-function takes one of two routes:

- for 1e-3 <= a, b <= 50, wherever the value is at least 1e-180, it is
  scipy's noncentral chi-square survival function
  Q1(a, b) = P[chi'^2_2(a^2) > b^2] (Boost's ncx2 complement, a few us a
  call, within 1e-12 relative of a 50-digit Bessel series there);
- everywhere else it is the scaled-Bessel series, which no intermediate
  quantity can overflow, with a Gaussian-tail fallback for extreme
  arguments.

The series serves where the survival function fails:

- below about 2e-215 it loses digits (1.4e-6 relative at 3.6e-215) and
  then reads 0 (at 1.5e-225), hence the 1e-180 switch;
- above 50 it drifts (2.7e-11 relative at (1000, 1008), 7e-10 at
  (3000, 3008)), gives up with a RuntimeWarning and a wrong value at
  a = 1e7, and reads NaN from a ~ 1e10;
- near 0 it raises OverflowError for b below ~1.6e-4 once a is above ~19,
  is 2.7% off when a^2 is subnormal, and reads -0.0 when b^2 underflows.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special as sp
from scipy.optimize import brentq
# the ufunc behind scipy.stats.ncx2.sf; importing scipy.stats costs ~1.3 s
from scipy.special._ufuncs import _ncx2_sf

# brentq tolerance on the crossing found by inv_besselj0_envelope
ENVELOPE_XTOL = 1e-9

# Region served by the noncentral chi-square survival function: arguments
# within the documented range and away from 0, values above the depth where
# it loses digits.
_SF_ARG_MIN = 1e-3
_SF_ARG_MAX = 50.0
_SF_MIN_VALUE = 1e-180

# Beyond this the exp(-(b-a)^2/2) prefactor underflows and Q1 (or 1-Q1) is 0
# to far better than double precision.
_GAP_CUTOFF = 39.0
# Largest Bessel argument handled by the series; beyond it the evaluation
# falls back to the Q(b-a) + phi(b-a)/(2a) tail form (only reachable far
# outside the a,b <= 50 accuracy contract).
_SERIES_Z_MAX = 1e8


def _check_finite(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _q1_upper(a: float, b: float) -> float:
    # Series for 0 < a <= b: Q1 = exp(-(b-a)^2/2) * sum_k (a/b)^k ive(k, ab).
    # Every term is positive, so there is no cancellation.
    gap = b - a
    if gap > _GAP_CUTOFF:
        return 0.0
    z = a * b
    if z > _SERIES_Z_MAX:
        # huge a*b with a close to b: Gaussian-tail asymptotic
        # Q(gap) + phi(gap) / (2a), phi the standard normal density
        tail = 0.5 * math.erfc(gap / math.sqrt(2))
        density = math.exp(-0.5 * gap * gap) / math.sqrt(2.0 * math.pi)
        return min(1.0, tail + density / (2.0 * a))
    n_terms = int(9.3 * math.sqrt(z)) + 61
    k = np.arange(n_terms)
    s = float(np.sum((a / b) ** k * sp.ive(k, z)))
    return math.exp(-0.5 * gap * gap) * s


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q1(a, b).

    Absolute error <= 1e-10 for a, b <= 50.  Exact identities Q1(a, 0) = 1
    and Q1(0, b) = exp(-b^2/2) are honoured to working precision.

    For 1e-3 <= a, b <= 50 the value is the noncentral chi-square survival
    function sf(b^2; 2, a^2), kept when it is at least 1e-180.  Deeper
    values and arguments outside that box take the scaled-Bessel series;
    the module docstring says where the sf fails.
    """
    a = _check_finite(a, "a")
    b = _check_finite(b, "b")
    if a < 0 or b < 0:
        raise ValueError(f"Marcum arguments must be nonnegative, got ({a}, {b})")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if _SF_ARG_MIN <= a <= _SF_ARG_MAX and _SF_ARG_MIN <= b <= _SF_ARG_MAX:
        q = float(_ncx2_sf(b * b, 2.0, a * a))
        if q >= _SF_MIN_VALUE:
            return q
    if a <= b:
        return _q1_upper(a, b)
    # reflection: Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
    gap = a - b
    cross = sp.i0e(a * b) * math.exp(-0.5 * gap * gap) if gap < _GAP_CUTOFF else 0.0
    return min(1.0, 1.0 - _q1_upper(b, a) + float(cross))


# First zeros of J0 and J1, grown on demand.  jn_zeros(k, n) is a
# bit-identical prefix of jn_zeros(k, m) for n <= m, so a slice of the table
# equals a fresh jn_zeros call.
_BESSEL_ZEROS = {0: np.empty(0), 1: np.empty(0)}


def _bessel_zeros(order: int, count: int) -> np.ndarray:
    """First `count` positive zeros of J_order (order 0 or 1), read-only."""
    table = _BESSEL_ZEROS[order]
    if table.size < count:
        table = sp.jn_zeros(order, max(count, 2 * table.size))
        table.setflags(write=False)
        _BESSEL_ZEROS[order] = table
    return table[:count]


def inv_besselj0_envelope(target: float) -> float:
    """Envelope inverse of J0: the smallest eps* with |J0(eps)| <= target
    for every eps >= eps*.

    J0 oscillates, so a naive root of J0(eps) = target does not guarantee the
    envelope property.  The local extrema of J0 sit at the zeros of J1 and
    their magnitudes strictly decrease (the Sonine-Polya theorem; Watson,
    *A Treatise on the Theory of Bessel Functions*, 15.31); the answer is the
    crossing of |J0| with the target on the arc following the last extremum
    that still exceeds it.
    """
    target = _check_finite(target, "target")
    if target <= 0:
        raise ValueError("target must be positive: the |J0| envelope decays "
                         "like eps**-0.5 and never reaches 0")
    if target >= 1.0:
        return 0.0

    n = 32
    while True:
        extrema = _bessel_zeros(1, n)
        mags = np.abs(sp.j0(extrema))
        below = np.nonzero(mags <= target)[0]
        if below.size:
            break
        n *= 2
        if n > 1 << 24:  # pragma: no cover - unreachable for target > 0
            raise RuntimeError("failed to bracket the J0 envelope crossing")
    first_ok = int(below[0])

    if first_ok == 0:
        # only the main lobe exceeds the target: |J0| falls 1 -> 0 on
        # [0, first J0 zero]
        lo, hi = 0.0, float(_bessel_zeros(0, 1)[0])
    else:
        # |J0| decreases monotonically from the offending extremum to the
        # next zero of J0 (zeros of J0 and J1 interlace)
        lo = float(extrema[first_ok - 1])
        hi = float(_bessel_zeros(0, first_ok + 1)[first_ok])
    return brentq(lambda e: abs(sp.j0(e)) - target, lo, hi, xtol=ENVELOPE_XTOL)
