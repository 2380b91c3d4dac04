"""Special functions underpinning the outage analysis.

Provides the port cdf, the first-order Marcum Q-function, the envelope
inverse of J0 (smallest argument beyond which |J0| stays at or below a
target level), and `j0`: Bessel J0 in numpy, scipy.special.j0 bit for bit.

All functions are pure and keep no module state.  They reach scipy.special
through the package's lazy handle (`fas._special.sp`), so importing this
module loads no scipy: the first call of another function does, and `j0`
never does.  `fas envelope` takes its correlations from `j0` and runs
without scipy; `design`, `outage-curve`, `bounds-compare` and `validate`
load scipy.special on their first special-function call.

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

# j0 is part of this module's interface
from ._special import j0, sp
from .channel import checked_positive

_EPS = float(np.finfo(float).eps)

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
# falls back to the Q(b-a) + phi(b-a)/(2a) tail form (far outside the
# a,b <= 50 accuracy contract, where port_cdf reaches it).
_SERIES_Z_MAX = 1e8

# Abscissa from which |J0| at a zero of J1 is taken from the asymptotic
# modulus of J1 rather than from sp.j0.
_ASYMPTOTIC_EXTREMUM = 1e4
# Abscissa below which sp.j0 resolves the phase of J0 to the ulp.
_PHASE_RESOLVED = 1e10


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


def _q1_point(a: float, b: float) -> float:
    """Q1(a, b) at one point off the survival function's route: the exact
    a = 0 and b = 0 cases, else the scaled-Bessel series."""
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if a <= b:
        return _q1_upper(a, b)
    # reflection: Q1(a,b) + Q1(b,a) = 1 + exp(-(a^2+b^2)/2) I0(ab)
    gap = a - b
    cross = sp.i0e(a * b) * math.exp(-0.5 * gap * gap) if gap < _GAP_CUTOFF else 0.0
    return min(1.0, 1.0 - _q1_upper(b, a) + float(cross))


def marcum_q1(a, b):
    """First-order Marcum Q-function Q1(a, b), elementwise over the
    broadcast of a and b: a float for scalar arguments, else an array.

    Absolute error <= 1e-10 for a, b <= 50.  Exact identities Q1(a, 0) = 1
    and Q1(0, b) = exp(-b^2/2) are honoured to working precision.  Any
    non-finite or negative argument raises ValueError.

    For 1e-3 <= a, b <= 50 the value is the noncentral chi-square survival
    function sf(b^2; 2, a^2), kept when it is at least 1e-180.  Deeper
    values and arguments outside that box take the scaled-Bessel series,
    one point at a time; the module docstring says where the sf fails.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    bad = np.flatnonzero(~((0.0 <= a) & (a < math.inf)
                           & (0.0 <= b) & (b < math.inf)))
    if bad.size:
        i = bad[0]
        raise ValueError("Marcum arguments must be finite and nonnegative, "
                         f"got ({a.flat[i]}, {b.flat[i]})")
    q = np.zeros(a.shape)
    # the sf only inside its box: outside it the ufunc can raise
    box = ((_SF_ARG_MIN <= a) & (a <= _SF_ARG_MAX)
           & (_SF_ARG_MIN <= b) & (b <= _SF_ARG_MAX))
    q[box] = sp._ufuncs._ncx2_sf(b[box] ** 2, 2.0, a[box] ** 2)
    for i in np.flatnonzero(~(q >= _SF_MIN_VALUE)):
        q.flat[i] = _q1_point(float(a.flat[i]), float(b.flat[i]))
    return float(q) if q.ndim == 0 else q


def port_cdf(a2, b2) -> np.ndarray:
    """P1 = P[chi'^2_2(a2) <= b2] = 1 - Q1(sqrt(a2), sqrt(b2)) elementwise, as
    an array: Boost's chndtr(b2, 2, a2), taken directly so a small P1 keeps
    its relative accuracy (Gil, Segura & Temme, ACM TOMS 40(3), 2014), or
    1 - marcum_q1 (O(1) there) where Boost reads NaN at finite, nonnegative
    arguments: b2 = 6.595e9 and a2 in ~[6.5906e9, 6.5910e9], for one."""
    p = np.asarray(sp.chndtr(b2, 2.0, a2))
    # each p is in [0, 1] or NaN, so the sum is NaN exactly when one is
    if math.isnan(p.sum()):
        a2, b2 = np.broadcast_arrays(a2, b2)
        lost = (np.isnan(p) & (0.0 <= a2) & (a2 < math.inf)
                & (0.0 <= b2) & (b2 < math.inf))
        p[lost] = 1.0 - marcum_q1(np.sqrt(a2[lost]), np.sqrt(b2[lost]))
    return p


def _bessel_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order (order 0 or 1, k >= 1): McMahon's
    expansion (DLMF 10.21.19) refined by Newton's method.

    The expansion is within 3e-3 of the zero at k = 1 and closer beyond, so
    a Newton step longer than 0.1 can only come from J0 and J1 evaluated
    where a double no longer resolves their phase (arguments ~1e15 and
    up); the refinement stops there and keeps the expansion.
    """
    beta = (k + 0.5 * order - 0.25) * math.pi
    m = 4.0 * order * order
    u = 1.0 / (8.0 * beta)
    x = beta - (m - 1.0) * u - 4.0 * (m - 1.0) * (7.0 * m - 31.0) / 3.0 * u ** 3
    for _ in range(4):
        j0, j1 = float(sp.j0(x)), float(sp.j1(x))
        # J0' = -J1 and J1' = J0 - J1/x
        step = -j0 / j1 if order == 0 else j1 / (j0 - j1 / x)
        if not abs(step) < 0.1:
            break
        x -= step
        if abs(step) <= 4.0 * _EPS * x:
            break
    return x


def _extremum_magnitude(k: int) -> float:
    """|J0| at its k-th extremum, the k-th zero of J1.

    The zero is good to about an ulp, so below _ASYMPTOTIC_EXTREMUM |J0| is
    taken as the largest at it and the two adjacent doubles: no extremum
    above a target is passed over on a rounding of its abscissa.  Beyond
    it sp.j0 no longer resolves the phase (1.1e-12 relative low at 7.1e10),
    and the magnitude comes from the modulus M_1 of J1 instead: at a zero x
    of J1 the Wronskian gives |J0(x)| = |J1'(x)| = 2 / (pi x M_1(x)), with
    M_1(x)^2 ~ 2 / (pi x) (1 + 3 / (8 x^2) - 45 / (128 x^4) + ...)
    (DLMF 10.18.17).  Its first two terms are within 2e-17 relative there;
    they are taken at the lower adjacent double, where |J0| is larger.
    """
    x = _bessel_zero(1, k)
    if x >= _ASYMPTOTIC_EXTREMUM:
        x = math.nextafter(x, 0.0)
        return math.sqrt(2.0 / (math.pi * x) / (1.0 + 0.375 / (x * x)))
    xs = [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return float(np.max(np.abs(sp.j0(xs))))


def inv_besselj0_envelope(target: float) -> float:
    """Envelope inverse of J0: the smallest eps* with |J0(eps)| <= target
    for every eps >= eps*.

    J0 oscillates, so a naive root of J0(eps) = target does not guarantee the
    envelope property.  The local extrema of J0 sit at the zeros j_{1,k} of
    J1 and their magnitudes strictly decrease (the Sonine-Polya theorem;
    Watson, *A Treatise on the Theory of Bessel Functions*, 15.31); the
    answer is the crossing of |J0| with the target on the arc following the
    last extremum that still exceeds it.

    The magnitudes follow the envelope sqrt(2 / (pi eps)), so the first
    extremum at or below the target is k ~ 2 / (pi^2 target^2); one step
    either way settles k, in O(1) work at any target.  The crossing is then
    found by Newton's method on |J0| - target, with bisection wherever a
    step leaves the bracket.  It ends once a step is below half an ulp on
    the |J0| <= target side, or else walks up at most 8 ulps to the first
    double where sp.j0 reads |J0| <= target; where sp.j0 no longer resolves
    the phase (about 1e10 and up), at that resolution, on the right arc.
    Below a target of about 1e-154 the answer is inf, the limit at 0.
    """
    # the |J0| envelope decays like eps**-0.5 and never reaches 0
    target = checked_positive(target, "target")
    if target >= 1.0:
        return 0.0

    # the envelope sqrt(2 / (pi eps)) meets the target at 2 / (pi target^2),
    # beyond the largest double below about 1e-154
    crossing = 2.0 / (math.pi * target) / target
    if crossing == math.inf:
        return math.inf
    # first k whose abscissa (k + 1/4) pi reaches the envelope's crossing
    k = max(1, math.ceil(crossing / math.pi - 0.25))
    if k > 1 and _extremum_magnitude(k - 1) <= target:
        k -= 1
    elif _extremum_magnitude(k) > target:
        k += 1

    if k == 1:
        # only the main lobe exceeds the target: |J0| falls 1 -> 0 on
        # [0, first J0 zero]
        lo, sign = 0.0, 1.0
    else:
        # |J0| decreases monotonically from the offending extremum to the
        # next zero of J0 (zeros of J0 and J1 interlace)
        lo = _bessel_zero(1, k - 1)
        sign = math.copysign(1.0, sp.j0(lo))
    hi = _bessel_zero(0, k)
    # g = |J0| - target = sign J0 - target falls across [lo, hi], and
    # g' = -sign J1
    x = hi
    for _ in range(100):
        g = sign * float(sp.j0(x)) - target
        if g > 0.0:
            lo = x
        else:
            hi = x
        slope = -sign * float(sp.j1(x))
        step = g / slope if slope != 0.0 else math.inf
        # the crossing lies within half an ulp below x, where g <= 0
        if g <= 0.0 and abs(step) <= 0.5 * _EPS * x:
            return x
        new = x - step
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - x) <= 4.0 * _EPS * x:
            x = new
            break
        x = new
    if x < _PHASE_RESOLVED:
        for _ in range(8):
            if sign * float(sp.j0(x)) <= target:
                break
            x = math.nextafter(x, math.inf)
    return x
