import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from fas import specfun
from fas.channel import FasConfig, correlation_profile, port_displacements
from fas.specfun import inv_besselj0_envelope, marcum_q1, port_cdf

import reference


def two_port_mu(x: float) -> tuple[float, float]:
    """(eps, mu_2) of a two-port profile whose separation 2*pi*W is near x;
    mu_2 = J0(eps) as the package evaluates it."""
    config = FasConfig(n_ports=2, size_wavelengths=x / (2.0 * math.pi),
                       snr_ratio=1.0)
    return (2.0 * math.pi * port_displacements(config)[1],
            float(correlation_profile(config)[1]))


class TestBesselJ0:
    """J0 through the port correlations mu_k = J0(2*pi*d_k)."""

    def test_at_zero(self):
        # a vanishing separation is J0(0) = 1 to working precision
        assert two_port_mu(1e-300)[1] == 1.0

    def test_half_wavelength_decorrelation(self):
        # the first zero sits near 0.38 wavelengths of separation
        assert abs(two_port_mu(2.0 * math.pi * 0.38)[1]) < 0.02

    def test_first_zero_location(self):
        # frozen from the ascending-series bisection oracle
        zero = reference.j0_zero_by_bisection()
        assert zero == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(two_port_mu(2.404825557695773)[1]) < 1e-10

    def test_matches_series_oracle(self):
        for x in np.linspace(0.25, 8.0, 32):
            eps, mu = two_port_mu(x)
            want = reference.j0_series(eps)
            assert mu == pytest.approx(want, abs=1e-13, rel=1e-12)


def _neighbours(x: float, steps: int) -> list[float]:
    """x and the `steps` doubles on either side of it."""
    below, above, out = x, x, [x]
    for _ in range(steps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


class TestPortedJ0:
    """specfun.j0, the numpy port of Cephes j0, is scipy's J0 bit for bit."""

    def test_bit_identical_to_scipy(self):
        gen = np.random.default_rng(43)
        x = np.concatenate([
            gen.uniform(0.0, 5.0, 400_000),         # the rational branch
            gen.uniform(5.0, 60.0, 300_000),        # the Hankel branch
            10.0 ** gen.uniform(-300.0, 300.0, 300_000),
            -gen.uniform(0.0, 60.0, 50_000),
            _neighbours(5.0, 64), _neighbours(1e-5, 64),
            _neighbours(2.404825557695773, 64),  # j_{0,1}
            [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
             1.3e154, 1e308, 5e-324],
        ])
        assert x.size >= 10 ** 6
        want, got = sp.j0(x), specfun.j0(x)
        assert got.shape == x.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.isnan(want[np.isinf(x)]).all()
        assert np.array_equal(got[~nan].view(np.int64),
                              want[~nan].view(np.int64))

    def test_no_warning_at_any_argument(self):
        # 25 / x^2 overflows from ~1.3e154, and cos and sin of inf are NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            specfun.j0([1e200, 1e308, math.inf, -math.inf, math.nan])

    def test_scalar_argument(self):
        assert specfun.j0(2.0).shape == ()
        assert float(specfun.j0(2.0)) == float(sp.j0(2.0))


class TestBesselI0Scaled:
    """scipy's scaled I0, behind the Marcum reflection identity."""

    def test_at_zero(self):
        assert sp.i0e(0.0) == 1.0

    def test_at_one(self):
        want = math.exp(-1.0) * reference.i0_series(1.0)
        assert sp.i0e(1.0) == pytest.approx(0.46576, abs=1e-5)
        assert sp.i0e(1.0) == pytest.approx(want, rel=1e-12)

    def test_large_argument_decay(self):
        # up to and beyond 1e10, where ive(0, z) reads nan
        for z in (1e6, 1e8, 1e8 * (1 + 1e-15), 1e12):
            v = sp.i0e(z)
            assert 0.0 < v < 1e-3
            assert v == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * z),
                                      rel=1e-6)

    def test_strictly_decreasing_in_unit_range(self):
        xs = np.linspace(0.0, 40.0, 200)
        vals = [sp.i0e(x) for x in xs]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMarcumQ1:
    def test_b_zero_is_one(self):
        assert marcum_q1(3.7, 0.0) == 1.0

    def test_a_zero_gaussian_tail(self):
        assert marcum_q1(0.0, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_equal_arguments_closed_form(self):
        # Q1(a, a) = (1 + exp(-a^2) I0(a^2)) / 2
        for a in (0.5, 1.0, 3.0, 10.0):
            want = 0.5 * (1.0 + sp.i0e(a * a))
            assert marcum_q1(a, a) == pytest.approx(want, abs=1e-13)

    def test_frozen_value(self):
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.732880, abs=1e-5)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            a, b = rng.uniform(0.0, 50.0, 2)
            want = reference.marcum_q1_quad(a, b)
            assert marcum_q1(a, b) == pytest.approx(want, abs=1e-10)

    def test_relative_accuracy_against_mpmath_series(self):
        # deep tails included: every value down to 1e-300 (Q1(1e-3, 50)
        # is 1e-543 and is left out), measured worst 1.5e-14
        grid = np.logspace(-3.0, math.log10(50.0), 12)
        checked = 0
        for a in grid:
            for b in grid:
                want = reference.marcum_q1_mpmath(a, b)
                if want < 1e-300:
                    continue
                checked += 1
                assert marcum_q1(a, b) == pytest.approx(float(want),
                                                        rel=1e-12, abs=0.0)
        assert checked >= 130

    def test_monotonicity_grid(self):
        # within [0, 1], nonincreasing in b, nondecreasing in a
        grid = np.linspace(0.0, 10.0, 50)
        q = np.array([[marcum_q1(a, b) for b in grid] for a in grid])
        assert np.all((q >= 0.0) & (q <= 1.0))
        assert np.all(np.diff(q, axis=1) <= 1e-13)
        assert np.all(np.diff(q, axis=0) >= -1e-13)

    def test_limit_toward_half_on_diagonal(self):
        gaps = [abs(marcum_q1(a, a) - 0.5) for a in (1, 2, 4, 8, 16)]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        # exact gap at a=16 is exp(-256) I0(256) / 2
        assert gaps[-1] == pytest.approx(0.5 * sp.i0e(256.0), abs=1e-13)
        assert gaps[-1] < 0.013

    def test_gaussian_tail_beyond_series_range(self):
        # a*b > 1e8: Q1(a, b) ~ Q(b - a) + phi(b - a) / (2a), with
        # Q(1) = 0.158655...
        a = 2e4
        assert marcum_q1(a, a + 1.0) == pytest.approx(0.158655, abs=1e-5)
        assert marcum_q1(a + 1.0, a) == pytest.approx(1 - 0.158655, abs=2e-5)
        assert 0.0 < marcum_q1(a, a + 10.0) < 1e-20
        for a in (2e4, 3e4):
            # Q1(a, a) = (1 + e^{-a^2} I0(a^2)) / 2 exactly
            assert marcum_q1(a, a) == pytest.approx(
                0.5 * (1.0 + sp.ive(0, a * a)), rel=1e-10, abs=0.0)
            for gap in (0.5, 1.0, 2.0):
                # both sides of the diagonal, the a > b one by reflection
                for x, y in ((a, a + gap), (a + gap, a)):
                    assert marcum_q1(x, y) == pytest.approx(
                        reference.marcum_q1_quad(x, y), rel=1e-8, abs=0.0)

    def test_ratio_upper_bound(self):
        # Q1(a,b) < (1/sqrt(1+2ab)) * b/(b-a) for 0 <= a < b <= 20
        rng = np.random.default_rng(11)
        for _ in range(500):
            b = rng.uniform(1e-3, 20.0)
            a = rng.uniform(0.0, 0.999 * b)
            assert marcum_q1(a, b) < (b / (b - a)) / math.sqrt(1.0 + 2 * a * b)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, float("nan"))


def _edge_pairs():
    pairs = []
    for e in (50.0, 50.0 * (1.0 + 1e-12)):
        pairs += [(e, 1.0), (e, 30.0), (e, 49.0), (e, 51.0), (e, 60.0),
                  (1.0, e), (40.0, e), (49.0, e), (51.0, e), (e, e)]
    for e in (1e-3, 1e-3 * (1.0 - 1e-12)):
        pairs += [(e, 1e-3), (e, 1.0), (e, 5.0), (1.0, e), (30.0, e),
                  (50.0, e), (e, e)]
    return pairs


class TestMarcumQ1Routes:
    """The survival-function route inside 1e-3 <= a, b <= 50 down to
    1e-180, and the series past its edges."""

    UNDERFLOWING_B_SQUARED = [(1.0, 1e-200), (3.0, 1e-170)]
    # Q1 from 1e-150 to 1e-250; the sf alone is 1.4e-6 off at
    # Q1(18.698, 50) = 3.56e-215
    DEEP_TAIL = ([(a, 50.0) for a in (16.3, 17.0, 18.0, 18.697817349205355,
                                      19.5, 20.5, 21.2, 21.5, 22.0, 23.0,
                                      23.7)]
                 + [(1.0, b) for b in (27.5, 29.5, 30.0, 31.0, 33.0, 34.5)])
    EDGES = _edge_pairs()
    # the sf raises OverflowError at the first three and is 2.7% off at
    # the last, where a^2 is subnormal
    NEAR_ZERO = [(30.0, 1e-4), (22.0, 1e-5), (50.0, 1e-155),
                 (1.909964985666579e-161, 2.361072006386368),
                 (1.909964985666579e-161, 10.865247365767535)]
    # the sf drifts to 2.7e-11 relative here
    BEYOND_RANGE = [(1000.0, 1008.0)]
    POINTS = (UNDERFLOWING_B_SQUARED + DEEP_TAIL + EDGES + NEAR_ZERO
              + BEYOND_RANGE)

    def test_underflowing_b_squared_is_one(self):
        # b^2 underflows to 0, where the sf reads -0.0
        for a, b in self.UNDERFLOWING_B_SQUARED:
            assert marcum_q1(a, b) == 1.0

    def test_both_sides_of_the_deep_tail_switch(self):
        wants = []
        for a, b in self.DEEP_TAIL:
            want = float(reference.marcum_q1_mpmath(a, b))
            assert 1e-250 <= want <= 1e-150
            wants.append(want)
            assert marcum_q1(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert sum(w >= 1e-180 for w in wants) >= 5
        assert sum(w < 1e-180 for w in wants) >= 5

    def assert_matches_mpmath(self, points):
        for a, b in points:
            want = float(reference.marcum_q1_mpmath(a, b))
            assert marcum_q1(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_continuous_across_the_domain_edges(self):
        self.assert_matches_mpmath(self.EDGES)

    def test_near_zero_arguments(self):
        self.assert_matches_mpmath(self.NEAR_ZERO)

    def test_series_beyond_the_range(self):
        self.assert_matches_mpmath(self.BEYOND_RANGE)

    def test_one_array_call_over_every_route(self):
        a, b = np.array(self.POINTS).T
        got = marcum_q1(a, b)
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        for ai, bi, q in zip(a, b, got):
            want = float(reference.marcum_q1_mpmath(ai, bi))
            assert q == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_array_exact_cases(self):
        x = np.array([0.0, 1e-300, 0.3, 1.0, 3.7, 10.0, 50.0, 1e3])
        assert np.array_equal(marcum_q1(x, 0.0), np.ones(x.size))
        got = marcum_q1(0.0, x)
        assert np.allclose(got, np.exp(-0.5 * x * x), rtol=0.0, atol=1e-15)

    def test_array_broadcasts(self):
        # (n, 1) against (m,): an (n, m) table, each entry its scalar call
        a = np.array([0.0, 1e-4, 0.5, 20.0, 60.0])[:, None]
        b = np.array([0.0, 1e-3, 2.0, 30.0, 49.0, 1e3])
        got = marcum_q1(a, b)
        assert got.shape == (5, 6)
        for i, ai in enumerate(a[:, 0]):
            for j, bj in enumerate(b):
                want = float(reference.marcum_q1_mpmath(ai, bj))
                assert got[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, math.inf])
    def test_array_rejects_any_bad_element(self, bad):
        good = np.array([0.5, 2.0, 70.0])
        for a, b in ((np.append(good, bad), 1.0), (1.0, np.append(good, bad)),
                     (good[:, None], np.append(good, bad))):
            with pytest.raises(ValueError):
                marcum_q1(a, b)

    def test_scalar_call_returns_float(self):
        assert type(marcum_q1(1.0, 2.0)) is float
        assert type(marcum_q1(np.float64(60.0), 1)) is float

    def test_no_warning_at_large_arguments(self):
        a = 2e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for point in ((a, a + 1.0), (a + 1.0, a), (a, a), (a, a + 10.0)):
                marcum_q1(*point)
            # the sf gives up here with a RuntimeWarning and reads 0.00168
            far = marcum_q1(1e7, 1e7 + 1.0)
        assert far == pytest.approx(0.158655, abs=1e-4)


class TestPortCdf:
    """P1 = P[chi'^2_2(a^2) <= b^2]: Boost's chndtr(b^2, 2, a^2), and
    1 - marcum_q1 where Boost reads NaN at finite arguments."""

    # just below the diagonal at large arguments
    NAN_BAND = [(6.5908e9, 6.595e9), (6.5910e9, 6.595e9),
                (1e11, 1e11 * (1.0 + 1e-8))]

    def test_is_boosts_cdf_where_that_is_finite(self):
        a2 = np.geomspace(1e-6, 1e6, 40)[:, None]
        b2 = np.geomspace(1e-6, 1e6, 50)
        got = port_cdf(a2, b2)
        assert got.shape == (40, 50)
        assert np.array_equal(got, sp.chndtr(b2, 2.0, a2))

    def test_nan_band_reads_1_minus_marcum_q1(self):
        a2, b2 = np.array(self.NAN_BAND).T
        # Boost gives up at each of these points
        assert np.all(np.isnan(sp.chndtr(b2, 2.0, a2)))
        got = port_cdf(a2, b2)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, 1.0 - marcum_q1(np.sqrt(a2), np.sqrt(b2)))
        # b - a is about 25 at the first two, where P1 is 1.0 in double,
        # and 1.6e-3 at the third
        assert got.tolist()[:2] == [1.0, 1.0]
        assert got[2] == pytest.approx(0.5006, abs=1e-4)

    def test_scalar_arguments(self):
        a2, b2 = self.NAN_BAND[2]
        got = port_cdf(a2, b2)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got == 1.0 - marcum_q1(math.sqrt(a2), math.sqrt(b2))

    def test_non_finite_arguments_keep_boosts_value(self):
        # marcum_q1 raises on these, so the kernel never hands them over
        a2 = np.array([math.inf, math.nan, 1.0, 1.0, -1.0])
        b2 = np.array([math.inf, 1.0, math.inf, math.nan, 1.0])
        assert np.array_equal(port_cdf(a2, b2), sp.chndtr(b2, 2.0, a2),
                              equal_nan=True)


def test_marcum_integral_identity():
    # int_0^c e^-t Q1(a sqrt(t), b) dt matches its closed form
    from scipy.integrate import quad

    rng = np.random.default_rng(17)
    for _ in range(15):
        a, b, c = rng.uniform(0.1, 3.0, 3)
        lhs, _ = quad(lambda t: math.exp(-t) * reference.marcum_q1_quad(a * math.sqrt(t), b),
                      0.0, c, epsabs=1e-12, epsrel=1e-11, limit=300)
        a2 = a * a + 2.0
        rhs = (math.exp(-b * b / a2) * marcum_q1(math.sqrt(c * a2), a * b / math.sqrt(a2))
               - math.exp(-c) * marcum_q1(a * math.sqrt(c), b))
        assert lhs == pytest.approx(rhs, abs=1e-8)


class TestEnvelopeInverse:
    def test_target_one_is_zero(self):
        assert inv_besselj0_envelope(1.0) == 0.0

    def test_first_lobe_crossing(self):
        assert 1.0 < inv_besselj0_envelope(0.403) < 2.40483

    def test_matches_dense_scan(self):
        for target in (0.8, 0.403, 0.402, 0.2, 0.05):
            want = reference.envelope_inverse_scan(target)
            got = inv_besselj0_envelope(target)
            assert got == pytest.approx(want, abs=1e-6)

    def test_monotone_in_target(self):
        targets = np.linspace(0.02, 0.99, 25)
        eps = [inv_besselj0_envelope(t) for t in targets]
        assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))

    def test_certified_over_long_scan(self):
        target = 0.1
        xs = inv_besselj0_envelope(target) + np.arange(0.0, 200.0, 1e-3)
        assert np.all(np.abs(sp.j0(xs)) <= target + 1e-9)

    def test_no_later_extremum_exceeds_target(self):
        # the |J0| extrema sit at the zeros of J1 and strictly decrease
        # (Sonine-Polya), so none past the crossing exceeds the target; the
        # table reaches well past the crossing of the smallest target, 1e-2
        zeros = sp.jn_zeros(1, 3000)
        mags = np.abs(sp.j0(zeros))
        assert np.all(np.diff(mags[:400]) < 0)
        first = mags[:300]
        targets = np.concatenate([first, np.nextafter(first, 0.0),
                                  np.nextafter(first, 1.0),
                                  np.geomspace(1e-2, 0.999, 600)])
        for target in targets:
            later = mags[zeros > inv_besselj0_envelope(target)]
            assert later.size >= 50
            assert np.all(later <= target)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            inv_besselj0_envelope(0.0)
        with pytest.raises(ValueError):
            inv_besselj0_envelope(-0.5)


class TestEnvelopeInverseAtAnyTarget:
    # the crossing takes O(1) work at any target: it once grew a table of
    # J1 zeros until the target was passed, 27 s at 3e-4 and a RuntimeError
    # below about 1e-4
    @pytest.mark.parametrize("target", [1e-4, 1e-8, 1e-12])
    def test_small_target_is_fast(self, target):
        inv_besselj0_envelope(target)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            eps = inv_besselj0_envelope(target)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.01
        # within an arc, pi, of the envelope's crossing 2 / (pi target^2)
        crossing = 2.0 / (math.pi * target * target)
        assert abs(eps - crossing) <= math.pi + 1e-15 * crossing

    def test_small_target_is_an_envelope_crossing(self):
        # at 1e-4 the arcs are still resolved in double precision
        target = 1e-4
        eps = inv_besselj0_envelope(target)
        assert abs(abs(sp.j0(eps)) - target) <= 1e-12 * target
        beyond = eps + np.arange(0.0, 20.0, 1e-3)
        assert np.all(np.abs(sp.j0(beyond)) <= target * (1 + 1e-9))
        before = eps - np.arange(1e-3, 4.0, 1e-3)
        assert np.max(np.abs(sp.j0(before))) > target

    # both sides of the switch to the asymptotic magnitude (the J1 zero
    # 3183 is the first past 1e4) and far beyond, where sp.j0 reads low
    @pytest.mark.parametrize("k", [1, 2, 100, 3182, 3183, 10 ** 5, 10 ** 8,
                                   22566588392, 10 ** 12])
    def test_extremum_magnitude_matches_mpmath(self, k):
        with mpmath.workdps(40):
            want = float(abs(mpmath.besselj(0, mpmath.besseljzero(1, k))))
        assert specfun._extremum_magnitude(k) == pytest.approx(
            want, rel=1e-15, abs=0.0)

    def test_crossing_follows_an_extremum_sp_j0_reads_low(self):
        # |J0| at the J1 zero k = 22566588392 exceeds this target by 9e-13
        # relative, and sp.j0 reads it 1.1e-12 low: the crossing used to be
        # returned one arc early, at 7.0895028306536e10
        target = 2.9966234333975846e-06
        eps = inv_besselj0_envelope(target)
        with mpmath.workdps(40):
            zero = mpmath.besseljzero(1, 22566588392)
            assert abs(mpmath.besselj(0, zero)) > target
            assert eps > zero
            # the crossing itself is 1.3e-6 past the zero
            assert eps - zero < 1e-3
            assert abs(mpmath.besselj(0, eps)) <= target

    def test_beyond_the_doubles_is_inf(self):
        # the crossing 2 / (pi target^2) exceeds the largest double
        assert inv_besselj0_envelope(1e-160) == math.inf
        assert inv_besselj0_envelope(5e-324) == math.inf
        assert math.isfinite(inv_besselj0_envelope(1e-154))

    def test_matches_tabled_crossing(self):
        # the former algorithm at ulp tolerance, wherever it finished
        extrema = sp.jn_zeros(1, 210_000)
        j0_zeros = sp.jn_zeros(0, 210_001)
        for target in np.geomspace(1e-3, 0.999, 404):
            want = reference.envelope_inverse_tabled(target, extrema, j0_zeros)
            assert inv_besselj0_envelope(target) == pytest.approx(want,
                                                                  rel=1e-12)


class TestEnvelopeInverseEndsAtTheCrossing:
    # Newton once reached the crossing, then bisected a stale [extremum,
    # root] bracket for ~45 more steps and ended a few ulps short of it,
    # where sp.j0 reads |J0| above the target: at 2,152 of these 4,000
    # targets and 439 of these 2,000
    GRIDS = {"1e-3..0.999": np.geomspace(1e-3, 0.999, 4000),
             "1e-8..1e-3": np.geomspace(1e-8, 1e-3, 2000)}

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_sp_j0_reads_at_most_the_target(self, grid):
        for target in self.GRIDS[grid]:
            eps = inv_besselj0_envelope(target)
            assert abs(sp.j0(eps)) <= target, target

    def test_evaluations_per_call(self, monkeypatch):
        # one Newton pass per crossing: the rebisection once took a mean
        # of 64.6 and up to 135 j0 and j1 calls
        calls = []

        class CountingSpecial:
            def __getattr__(self, name):
                function = getattr(sp, name)
                if name not in ("j0", "j1"):
                    return function

                def counted(*args):
                    calls.append(name)
                    return function(*args)
                return counted

        monkeypatch.setattr(specfun, "sp", CountingSpecial())
        counts = []
        for target in self.GRIDS["1e-3..0.999"]:
            calls.clear()
            inv_besselj0_envelope(target)
            counts.append(len(calls))
        assert np.mean(counts) <= 45
        assert max(counts) <= 90

    def test_newton_landing_on_the_crossing_ends_there(self):
        # Newton reaches the crossing at step 6, where sp.j0 reads the
        # target exactly; 46 more bisection steps once ended 3 ulps short
        target = 0.36556981960684798
        eps = inv_besselj0_envelope(target)
        assert eps == 4.272783666276044
        assert abs(sp.j0(eps)) <= target
        assert abs(sp.j0(math.nextafter(eps, 0.0))) > target
