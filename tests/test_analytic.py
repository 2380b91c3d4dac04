import math

import numpy as np
import pytest

from fas.analytic import (DEFAULT_QUADRATURE, OutageReport, QuadratureError,
                          QuadratureSettings, _port_cdf_product, _quad,
                          db_to_linear, joint_cdf, joint_pdf, linear_to_db,
                          outage_approx, outage_approx_profile, outage_exact,
                          outage_exact_profile, outage_mrc,
                          outage_n2_closed_form, outage_port_reduction)
from fas.channel import CorrelationProfile, FasConfig, correlation_profile
from fas.mc import McSettings, mc_outage_fas
from fas.specfun import marcum_q1

import reference


def profile_of(mu):
    mu = np.asarray(mu, dtype=float)
    return CorrelationProfile(mu=mu, displacements=np.linspace(0.0, 1.0, mu.size))


class TestDbConversion:
    def test_round_trip(self):
        for db in (-10.0, 0.0, 3.0, 10.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0


class TestQuadratureSettings:
    def test_defaults(self):
        assert DEFAULT_QUADRATURE.abs_tol == 1e-10

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSettings(max_subdivisions=0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError) as exc_info:
            _quad(lambda t: math.nan, 0.0, 1.0, QuadratureSettings())
        assert math.isnan(exc_info.value.estimate)


class TestJointPdf:
    def test_single_port_rayleigh(self):
        p = profile_of([0.0])
        assert joint_pdf(p, [1.0]) == pytest.approx(2.0 * math.exp(-1.0),
                                                    abs=1e-14)

    def test_independent_factorization(self):
        p = profile_of([0.0, 0.0])
        want = (2.0 * math.exp(-1.0)) ** 2
        assert joint_pdf(p, [1.0, 1.0]) == pytest.approx(want, abs=1e-13)

    def test_two_port_closed_form(self):
        p = profile_of([0.0, 0.5])
        want = reference.n2_joint_pdf(0.5, 0.8, 1.2)
        assert joint_pdf(p, [0.8, 1.2]) == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one(self):
        from scipy.integrate import dblquad
        p = profile_of([0.0, 0.7])
        total, _ = dblquad(lambda r2, r1: joint_pdf(p, [r1, r2]),
                           0.0, 8.0, 0.0, 8.0, epsabs=1e-10)
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_rejects_singular_profile(self):
        p = profile_of([0.0, 1.0])
        with pytest.raises(ValueError):
            joint_pdf(p, [1.0, 1.0])

    def test_rejects_negative_envelope(self):
        with pytest.raises(ValueError):
            joint_pdf(profile_of([0.0, 0.5]), [1.0, -1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            joint_pdf(profile_of([0.0, 0.5]), [1.0])


class TestJointCdf:
    def test_total_probability(self):
        p = profile_of([0.0, 0.6])
        assert joint_cdf(p, [40.0, 40.0]) == pytest.approx(1.0, abs=1e-9)

    def test_two_port_closed_form(self):
        p = profile_of([0.0, 0.6])
        want = reference.n2_joint_cdf(0.6, 1.0, 1.3)
        assert joint_cdf(p, [1.0, 1.3]) == pytest.approx(want, abs=1e-8)

    def test_independent_triple(self):
        p = profile_of([0.0, 0.0, 0.0])
        want = (1.0 - math.exp(-1.0)) ** 3
        assert joint_cdf(p, [1.0, 1.0, 1.0]) == pytest.approx(want, abs=1e-9)

    def test_matches_pdf_integral(self):
        from scipy.integrate import dblquad
        p = profile_of([0.0, 0.8])
        want, _ = dblquad(lambda r2, r1: joint_pdf(p, [r1, r2]),
                          0.0, 1.1, 0.0, 0.9, epsabs=1e-11)
        assert joint_cdf(p, [1.1, 0.9]) == pytest.approx(want, abs=1e-8)


class TestOutageExact:
    def test_single_port(self):
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=1.0)
        assert outage_exact(c) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_independent_profile_power_law(self):
        for n in (2, 3, 5):
            got = outage_exact_profile(np.zeros(n), 0.7)
            assert got == pytest.approx((1.0 - math.exp(-0.7)) ** n, abs=1e-9)

    def test_independent_ports_at_tiny_snr(self):
        # (1 - e^-x)^5 = 1e-40: the port cdfs must not lose digits as x -> 0
        x = 1e-8
        want = (-math.expm1(-x)) ** 5
        assert outage_exact_profile(np.zeros(5), x) == pytest.approx(want,
                                                                     rel=1e-12)

    def test_agrees_with_n2_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            mu2 = rng.uniform(-0.95, 0.95)
            x = rng.uniform(0.05, 6.0)
            exact = outage_exact_profile([0.0, mu2], x)
            assert exact == pytest.approx(outage_n2_closed_form(mu2, x),
                                          abs=1e-8)

    def test_monotone_in_ports_for_fixed_size(self):
        vals = [outage_exact(FasConfig(n_ports=n, size_wavelengths=1.0,
                                       snr_ratio=1.0)) for n in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_never_exceeds_single_port(self):
        single = 1.0 - math.exp(-1.0)
        for n, w in ((3, 0.2), (5, 1.0), (10, 5.0)):
            c = FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=1.0)
            assert 0.0 <= outage_exact(c) <= single + 1e-12

    def test_degenerate_port_invariance(self):
        base = [0.0, 0.4, 0.7]
        got = outage_exact_profile(base + [1.0 - 1e-12], 1.0)
        want = outage_exact_profile(base, 1.0)
        assert abs(got - want) < 1e-6

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore:The maximum number of subdivisions")
    def test_quadrature_failure_raises(self):
        # sharply kneed integrand plus a one-interval budget cannot converge
        mu = [0.0] + [0.99999] * 20
        with pytest.raises(QuadratureError) as exc_info:
            outage_exact_profile(mu, 1.0,
                                 QuadratureSettings(abs_tol=1e-300,
                                                    rel_tol=1e-300,
                                                    max_subdivisions=1))
        assert exc_info.value.error_estimate > 1e-8

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            outage_exact_profile([0.0, 0.5], 0.0)


class TestOutageN2ClosedForm:
    def test_independent_ports(self):
        x = 0.9
        assert outage_n2_closed_form(0.0, x) == pytest.approx(
            (1.0 - math.exp(-x)) ** 2, abs=1e-12)

    def test_full_correlation_limit(self):
        x = 0.9
        got = outage_n2_closed_form(1.0 - 1e-12, x)
        assert got == pytest.approx(1.0 - math.exp(-x), abs=1e-5)

    def test_between_extremes(self):
        x = 1.0
        v = outage_n2_closed_form(0.5, x)
        assert (1.0 - math.exp(-1.0)) ** 2 < v < 1.0 - math.exp(-1.0)

    def test_even_in_mu(self):
        assert outage_n2_closed_form(-0.6, 1.3) == pytest.approx(
            outage_n2_closed_form(0.6, 1.3), abs=1e-14)

    def test_rejects_unit_mu(self):
        with pytest.raises(ValueError):
            outage_n2_closed_form(1.0, 1.0)


class TestOutageApprox:
    def test_single_port_exact(self):
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=0.8)
        assert outage_approx(c) == pytest.approx(1.0 - math.exp(-0.8),
                                                 abs=1e-14)

    def test_two_ports_reduce_to_closed_form(self):
        c = FasConfig(n_ports=2, size_wavelengths=0.3, snr_ratio=1.2)
        mu2 = correlation_profile(c).mu[1]
        assert outage_approx(c) == pytest.approx(
            outage_n2_closed_form(mu2, 1.2), abs=1e-12)

    def test_tight_for_strong_correlation(self):
        c = FasConfig(n_ports=10, size_wavelengths=0.05, snr_ratio=10.0)
        approx = outage_approx(c)
        exact = outage_exact(c)
        assert abs(approx - exact) <= 0.1 * exact

    def test_unclamped_negative_regime(self):
        c = FasConfig(n_ports=50, size_wavelengths=0.5, snr_ratio=1.0)
        assert outage_approx(c) < 0.0


class TestOutagePortReduction:
    def test_telescopes_exact_values(self):
        for n, w in ((3, 0.5), (5, 1.5)):
            c = FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=1.0)
            mu = correlation_profile(c).mu
            drop = outage_port_reduction(c)
            assert drop > 0.0
            want = outage_exact_profile(mu[:-1], 1.0) - outage_exact_profile(mu, 1.0)
            assert drop == pytest.approx(want, abs=1e-8)

    def test_degenerate_last_port_contributes_nothing(self):
        c = FasConfig(n_ports=2, size_wavelengths=1e-9, snr_ratio=1.0)
        assert outage_port_reduction(c) == 0.0

    def test_needs_two_ports(self):
        with pytest.raises(ValueError):
            outage_port_reduction(FasConfig(n_ports=1, size_wavelengths=1.0,
                                            snr_ratio=1.0))


class TestOutageMrc:
    def test_single_branch(self):
        assert outage_mrc(1, 1.0) == pytest.approx(1.0 - math.exp(-1.0),
                                                   abs=1e-14)

    def test_two_branches(self):
        assert outage_mrc(2, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0),
                                                   abs=1e-12)

    def test_partial_sum_identity(self):
        for branches in (3, 5, 8):
            x = 1.0
            want = 1.0 - math.exp(-x) * math.fsum(
                x ** k / math.factorial(k) for k in range(branches))
            assert outage_mrc(branches, x) == pytest.approx(want, abs=1e-12)

    def test_eight_branch_level(self):
        assert outage_mrc(8, 1.0) == pytest.approx(1.02e-5, rel=5e-3)

    def test_diversity_slope(self):
        for branches in (1, 2, 3):
            p1 = outage_mrc(branches, 1e-3)
            p2 = outage_mrc(branches, 1e-4)
            slope = (math.log(p1) - math.log(p2)) / (math.log(1e-3) - math.log(1e-4))
            assert slope == pytest.approx(branches, abs=0.02)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            outage_mrc(0, 1.0)
        with pytest.raises(ValueError):
            outage_mrc(2, 0.0)


class TestPortCdfKernel:
    # measured on the grid below: worst relative error 7.6e-14 (a = 50,
    # b = 39) wherever P1 >= 1e-45; below that chndtr underflows to 0
    # (from P1 ~ 1e-50 at a = 14.6, b <= 0.3), as 1 - marcum_q1 already did
    P1_FLOOR = 1e-45
    REL_TOL = 2e-13

    def test_matches_mpmath_on_log_grid(self):
        mp = pytest.importorskip("mpmath")
        grid = np.geomspace(1e-3, 50.0, 30)
        failures = []
        for a in grid:
            for b in grid:
                nc, x = a * a, b * b
                want = reference.ncx2_cdf_2dof_mpmath(x, nc)
                got = _port_cdf_product(np.array([nc]), np.array([x]), 1.0)
                rel = float(abs(mp.mpf(got) - want) / want)
                if want >= self.P1_FLOOR:
                    ok = rel <= self.REL_TOL
                else:
                    # never worse than the 1 - Q1 cancellation it replaced
                    old = 1.0 - marcum_q1(a, b)
                    ok = rel <= float(abs(mp.mpf(old) - want) / want)
                if not ok:
                    failures.append((a, b, mp.nstr(want, 5), rel))
        assert not failures

    def test_product_over_ports(self):
        a2 = np.array([0.0, 0.5, 8.0])
        b2 = np.array([1.0, 2.0, 3.0])
        want = math.prod(1.0 - marcum_q1(math.sqrt(na * 0.7), math.sqrt(nb))
                         for na, nb in zip(a2, b2))
        assert _port_cdf_product(a2, b2, 0.7) == pytest.approx(want, rel=1e-12)
        assert _port_cdf_product(np.empty(0), np.empty(0), 0.7) == 1.0

    @pytest.mark.parametrize("n, w, x", [(5, 1.0, 1.0), (12, 0.5, 0.3),
                                         (20, 5.0, 1.0), (8, 2.0, 4.0)])
    def test_matches_marcum_loop(self, n, w, x):
        # the per-port 1 - marcum_q1 loop the kernel replaced; marcum_q1's
        # documented 1e-10 absolute error bounds the integrand's error by
        # (n - 1) * 1e-10, so the integrals over [0, x] agree within x times
        # that
        mu = correlation_profile(FasConfig(n_ports=n, size_wavelengths=w,
                                           snr_ratio=x)).mu[1:]
        a = np.sqrt(2.0 * mu ** 2 / (1.0 - mu ** 2))
        b = np.sqrt(2.0 * x / (1.0 - mu ** 2))

        def integrand(t):
            return math.exp(-t) * math.prod(
                1.0 - marcum_q1(ak * math.sqrt(t), bk) for ak, bk in zip(a, b))

        want = _quad(integrand, 0.0, x, DEFAULT_QUADRATURE)
        got = outage_exact(FasConfig(n_ports=n, size_wavelengths=w,
                                     snr_ratio=x))
        assert abs(got - want) <= x * (n - 1) * 1e-10


class TestEightBranchCrossingAtW5:
    # Where the W=5, x=1 outage crosses the 8-branch MRC level (acceptance
    # criterion 4), checked against evaluations that share no Marcum Q code.
    @staticmethod
    def config(n):
        return FasConfig(n_ports=n, size_wavelengths=5.0, snr_ratio=1.0)

    def test_matches_chndtr_integrand(self):
        below = []
        for n in range(18, 30):
            c = self.config(n)
            want = reference.outage_exact_chndtr(correlation_profile(c).mu, 1.0)
            assert outage_exact(c) == pytest.approx(want, rel=1e-12)
            if want < outage_mrc(8, 1.0):
                below.append(n)
        # the oracle crosses the level at N=26, outside criterion 4's 23 +/- 2
        assert below[0] == 26

    def test_monte_carlo_at_23_ports(self):
        c = self.config(23)
        exact = outage_exact(c)
        est = mc_outage_fas(c, McSettings(trials=1_000_000, seed=42))
        se = math.sqrt(exact * (1.0 - exact) / est.trials)
        assert abs(est.p_hat - exact) <= 3.0 * se
        # the simulated outage sits clearly above the 8-branch MRC level
        assert est.p_hat - est.half_width_95 > outage_mrc(8, 1.0)


class TestOutageReport:
    def test_bound_dominates_exact(self):
        from fas.bounds import bound_constants, outage_upper_bound
        c = FasConfig(n_ports=5, size_wavelengths=1.0, snr_ratio=1.0)
        report = OutageReport(exact=outage_exact(c), approx=outage_approx(c),
                              upper_bound=outage_upper_bound(c, bound_constants()))
        assert 0.0 <= report.exact <= 1.0
        assert report.exact <= report.upper_bound + 1e-12
