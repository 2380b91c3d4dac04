import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp
from scipy.integrate import quad

from fas import analytic
from fas.analytic import (QuadratureError, _port_cdf_product, db_to_linear,
                          joint_cdf, joint_pdf, outage_approx,
                          outage_approx_profile, outage_exact,
                          outage_exact_profile, outage_mrc,
                          outage_n2_closed_form)
from fas.bounds import bound_constants, outage_upper_bound
from fas.channel import (DEGENERATE_MU, FasConfig, active_mu,
                         correlation_profile)
from fas.mc import McSettings, mc_outage_fas
from fas.specfun import marcum_q1, port_cdf

import reference


class TestDbConversion:
    def test_known_values(self):
        for db, linear in ((-10.0, 0.1), (0.0, 1.0), (3.0, 1.9952623149688795),
                           (10.0, 10.0)):
            assert db_to_linear(db) == pytest.approx(linear, rel=1e-15)

    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0


def set_quadrature(monkeypatch, **constants):
    """Run `analytic.quad` with other stopping constants (`_ABS_TOL`,
    `_REL_TOL`, `_MAX_INTERVALS`) for the rest of a test."""
    for name, value in constants.items():
        monkeypatch.setattr(analytic, name, value)


class TestQuadratureFailure:
    def test_nan_integrand_raises(self):
        with pytest.raises(QuadratureError) as exc_info:
            analytic.quad(lambda t: np.full(t.shape, math.nan), 0.0, 1.0)
        assert math.isnan(exc_info.value.estimate)
        # the rule gives up on the first interval's 21 nodes
        assert exc_info.value.n_evals == 21
        assert "21 integrand evaluations on 1 subintervals" in str(
            exc_info.value)


class TestQuadratureParity:
    # the package's G10/K21 rule against scipy's QUADPACK qags at equal
    # settings, on the outage integrand: N <= 300 over W from 0.05 to 20
    # and -40 to 10 dB, and the strongly correlated W = 0.01

    @staticmethod
    def integrand(n, w, x):
        mu = active_mu(correlation_profile(
            FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=x)))[1:]
        a2 = 2.0 * mu ** 2 / (1.0 - mu ** 2)
        b2 = 2.0 * x / (1.0 - mu ** 2)
        return lambda t: np.exp(-t) * _port_cdf_product(a2, b2, t)

    @pytest.mark.parametrize("w", [0.01, 0.05, 0.5, 2.0, 5.0, 20.0])
    def test_matches_qags(self, w):
        mismatches = []
        for n in (2, 5, 20, 100, 300):
            for db in (-40.0, -20.0, -10.0, 0.0, 10.0):
                x = db_to_linear(db)
                f = self.integrand(n, w, x)
                want, _, info = quad(lambda t: float(f(np.array(t))), 0.0, x,
                                     epsabs=analytic._ABS_TOL,
                                     epsrel=analytic._REL_TOL,
                                     limit=analytic._MAX_INTERVALS,
                                     full_output=1)[:3]
                got, _, mine = analytic.quad(f, 0.0, x, full_output=1)
                if (mine["neval"] != info["neval"]
                        or abs(got - want) > 1e-13 * abs(want)):
                    mismatches.append((n, db, got, want, mine, info["neval"]))
        assert mismatches == []

    def test_return_shapes(self):
        # the benchmark's tracer calls the rule with full_output=1 and reads
        # result[2]["neval"]
        f = self.integrand(5, 1.0, 1.0)
        plain = analytic.quad(f, 0.0, 1.0)
        full = analytic.quad(f, 0.0, 1.0, full_output=1)
        assert len(plain) == 2 and len(full) == 3
        assert full[:2] == plain
        assert full[2] == {"neval": 21}
        assert all(type(v) is float for v in full[:2])

    def test_failure_reports_its_work(self, monkeypatch):
        # a two-interval budget on a sharply kneed integrand
        f = self.integrand(21, 0.01, 1.0)
        set_quadrature(monkeypatch, _ABS_TOL=1e-300, _REL_TOL=1e-300,
                       _MAX_INTERVALS=2)
        with pytest.raises(QuadratureError, match=r"63 integrand evaluations "
                                                  r"on 2 subintervals") as exc:
            analytic.quad(f, 0.0, 1.0)
        assert exc.value.n_evals == 63


class TestJointPdf:
    def test_single_port_rayleigh(self):
        mu = [0.0]
        assert joint_pdf(mu, [1.0]) == pytest.approx(2.0 * math.exp(-1.0),
                                                    abs=1e-14)

    def test_independent_factorization(self):
        mu = [0.0, 0.0]
        want = (2.0 * math.exp(-1.0)) ** 2
        assert joint_pdf(mu, [1.0, 1.0]) == pytest.approx(want, abs=1e-13)

    def test_two_port_closed_form(self):
        mu = [0.0, 0.5]
        want = reference.n2_joint_pdf(0.5, 0.8, 1.2)
        assert joint_pdf(mu, [0.8, 1.2]) == pytest.approx(want, rel=1e-12)

    def test_integrates_to_one(self):
        from scipy.integrate import dblquad
        mu = [0.0, 0.7]
        total, _ = dblquad(lambda r2, r1: joint_pdf(mu, [r1, r2]),
                           0.0, 8.0, 0.0, 8.0, epsabs=1e-10)
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_rejects_singular_profile(self):
        mu = [0.0, 1.0]
        with pytest.raises(ValueError):
            joint_pdf(mu, [1.0, 1.0])

    def test_rejects_negative_envelope(self):
        with pytest.raises(ValueError):
            joint_pdf([0.0, 0.5], [1.0, -1.0])
        # a NaN envelope is no more a point than a negative one: the pdf
        # read NaN and the cdf a QuadratureError
        for joint in (joint_pdf, joint_cdf):
            with pytest.raises(ValueError, match="not NaN"):
                joint([0.0, 0.5], [math.nan, 1.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            joint_pdf([0.0, 0.5], [1.0])


class TestJointCdf:
    def test_total_probability(self):
        mu = [0.0, 0.6]
        assert joint_cdf(mu, [40.0, 40.0]) == pytest.approx(1.0, abs=1e-9)

    def test_two_port_closed_form(self):
        mu = [0.0, 0.6]
        want = reference.n2_joint_cdf(0.6, 1.0, 1.3)
        assert joint_cdf(mu, [1.0, 1.3]) == pytest.approx(want, abs=1e-8)

    def test_independent_triple(self):
        mu = [0.0, 0.0, 0.0]
        want = (1.0 - math.exp(-1.0)) ** 3
        assert joint_cdf(mu, [1.0, 1.0, 1.0]) == pytest.approx(want, abs=1e-9)

    def test_large_reference_radius_keeps_the_mass_near_zero(self):
        # r1^2 = 90,000: the rule's first nodes on [0, r1^2] once all fell
        # where e^-t is 0, and it read 9.1e-44.  P[|g_1| < 300] is 1 in
        # double, so the cdf is P[|g_2|^2 < 1] = 1 - e^-1, as |g_2|^2 is
        # Exp(1) whatever mu_2
        assert joint_cdf([0.0, 0.3], [300.0, 1.0]) == pytest.approx(
            -math.expm1(-1.0), rel=1e-12)

    def test_inside_the_marginals_bracket(self):
        # between the product of the ports' marginals 1 - e^-r_k^2 (the
        # ports are positively associated) and the smallest of them; the
        # quadrature alone read up to 2 ulps outside, at 21 of these draws
        draws = np.random.default_rng(0)
        for _ in range(500):
            n = int(draws.integers(2, 6))
            mu = np.r_[0.0, draws.uniform(-0.99, 0.99, n - 1)]
            r = np.sqrt(draws.choice([draws.uniform(0.0, 1.0),
                                      draws.uniform(10.0, 40.0)], n))
            marginals = (-np.expm1(-r ** 2)).tolist()
            p = joint_cdf(mu, r)
            assert math.prod(marginals) <= p <= min(marginals), (mu, r)

    def test_matches_pdf_integral(self):
        from scipy.integrate import dblquad
        mu = [0.0, 0.8]
        want, _ = dblquad(lambda r2, r1: joint_pdf(mu, [r1, r2]),
                          0.0, 1.1, 0.0, 0.9, epsabs=1e-11)
        assert joint_cdf(mu, [1.1, 0.9]) == pytest.approx(want, abs=1e-8)


class TestOutageExact:
    def test_single_port(self):
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=1.0)
        assert outage_exact(c) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    @pytest.mark.parametrize("x", np.geomspace(1e-6, 1e30, 37))
    def test_single_port_at_every_snr(self, x):
        # 1 - e^-x, also where e^-t is 0 over all but the start of [0, x]:
        # from 44.5 dB it read 4.2e-12, then 0.0, then raised from 200 dB,
        # and it read 1.0000000000000002 at 20-44 dB
        got = outage_exact_profile([0.0], x)
        assert got == pytest.approx(-math.expm1(-x), rel=1e-14, abs=0.0)
        assert got <= 1.0

    def test_independent_profile_power_law(self):
        for n in (2, 3, 5):
            got = outage_exact_profile(np.zeros(n), 0.7)
            assert got == pytest.approx((1.0 - math.exp(-0.7)) ** n, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 50, 100])
    def test_inside_the_independent_port_bracket(self, n):
        # the ports are positively associated, so the outage lies between
        # the independent-port (1 - e^-x)^N and one port's 1 - e^-x; from
        # 14 dB up the quadrature alone read up to 3.3e-16 below the former
        for w in (0.05, 0.2, 0.5, 2.0):
            for db in range(-20, 41):
                x = db_to_linear(db)
                single = -math.expm1(-x)
                p = outage_exact(FasConfig(n, w, x))
                assert math.prod([single] * n) <= p <= single, (w, db)

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

    @pytest.mark.parametrize("outage, bad", [
        pytest.param(outage, bad, id=prefix + str(bad))
        for prefix, outage in (("", outage_exact_profile),
                               ("approx-", outage_approx_profile))
        for bad in (math.nan, 1.5, -1.5)])
    def test_rejects_invalid_port_instead_of_dropping_it(self, outage, bad):
        # neither NaN nor |mu| > 1 may pass for a degenerate port
        with pytest.raises(ValueError):
            outage([0.0, bad, 0.5], 1.0)

    def test_quadrature_failure_raises(self, monkeypatch):
        # sharply kneed integrand plus a one-interval budget cannot converge
        mu = [0.0] + [0.99999] * 20
        set_quadrature(monkeypatch, _ABS_TOL=1e-300, _REL_TOL=1e-300,
                       _MAX_INTERVALS=1)
        with pytest.raises(QuadratureError) as exc_info:
            outage_exact_profile(mu, 1.0)
        assert exc_info.value.error_estimate > 1e-8
        assert exc_info.value.n_evals == 21

    @pytest.mark.parametrize("n", [2_000, 10_000])
    def test_below_the_smallest_double_under_its_upper_side(self, n):
        # at W = 5, 0 dB the model's outage is under U = (1 - e^-x)
        # prod_k (1 - e^{-x/(1 - mu_k^2)}), 10^-368.29 at N = 2,000 and
        # 10^-1841.01 at N = 10,000; the clamp from below by the marginals'
        # running product stuck at 5e-324 above both
        config = FasConfig(n_ports=n, size_wavelengths=5.0, snr_ratio=1.0)
        mu = active_mu(correlation_profile(config))[1:]
        log_upper = math.log(-math.expm1(-1.0)) + float(
            np.sum(np.log(-np.expm1(-1.0 / (1.0 - mu ** 2)))))
        assert log_upper < math.log(5e-324)
        p = outage_exact(config)
        assert p >= 0.0
        assert (math.log(p) if p > 0.0 else -math.inf) <= log_upper

    def test_rejects_nonpositive_snr(self):
        with pytest.raises(ValueError):
            outage_exact_profile([0.0, 0.5], 0.0)

    def test_rejects_nan_snr(self):
        # a `<= 0` check lets NaN through to the quadrature
        with pytest.raises(ValueError, match="snr_ratio must be positive"):
            outage_exact_profile([0.0, 0.5], math.nan)


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

    @pytest.mark.parametrize("mu2", [1.0, -1.0])
    @pytest.mark.parametrize("x", [1e-6, 0.1, 1.0, 10.0])
    def test_unit_mu_is_port_one_again(self, mu2, x):
        # the profile rule: [0, +-1] has one port, outage 1 - e^-x
        assert outage_n2_closed_form(mu2, x) == pytest.approx(
            outage_exact_profile([0.0, mu2], x), rel=2.2e-16, abs=0.0)

    @pytest.mark.parametrize("mu2", [1.5, math.nan])
    def test_rejects_mu_outside_the_profile_rule(self, mu2):
        with pytest.raises(ValueError, match=r"^\|mu_k\| must be <= 1"):
            outage_n2_closed_form(mu2, 1.0)

    @pytest.mark.parametrize("x, rel", [(1e-8, 1e-7), (1e-6, 1e-9)])
    def test_small_snr_relative_accuracy(self, x, rel, monkeypatch):
        # both terms of each Marcum difference are cdfs, so the difference
        # keeps its digits as x -> 0, where the outage is O(x^2)
        set_quadrature(monkeypatch, _ABS_TOL=1e-300, _REL_TOL=1e-13)
        for mu2 in (0.3, -0.6, 0.9):
            exact = outage_exact_profile([0.0, mu2], x)
            assert outage_n2_closed_form(mu2, x) == pytest.approx(
                exact, rel=rel, abs=0.0)

    def test_deep_tail_matches_mpmath(self):
        # x / (1 - mu2^2) <= 1 at every point, so each value is the two-port
        # series (measured within 8.2e-15); the Marcum form it replaces
        # there read -1.4e-34 at mu2 = J0(2 pi 0.02) and -200 dB, where the
        # outage is 1.27e-38
        for mu2 in (0.01, 0.3, 0.9, 0.999, -0.6):
            for db in range(-30, -301, -30):
                x = db_to_linear(db)
                want = float(reference.n2_outage_mpmath(mu2, x))
                assert outage_n2_closed_form(mu2, x) == pytest.approx(
                    want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu2", [0.01, 0.3, 0.9, 0.99, 0.999, -0.6])
    def test_both_sides_of_the_series_switch(self, mu2):
        # the series up to s = x / (1 - mu2^2) = 1, the Marcum form beyond
        # (measured within 2.3e-14 on these points)
        one_minus = (1.0 - mu2) * (1.0 + mu2)
        for s in (0.5, 1.0, 1.001, 2.0):
            want = float(reference.n2_outage_mpmath(mu2, s * one_minus))
            assert outage_n2_closed_form(mu2, s * one_minus) == pytest.approx(
                want, rel=1e-12, abs=0.0)

    def test_never_negative(self):
        # from 10 dB down to -3100 dB, where x is subnormal
        for mu2 in (0.0, 0.01, 0.3, -0.6, 0.9, 0.999, 1.0 - 1e-8):
            for db in np.arange(10.0, -3101.0, -10.0):
                assert outage_n2_closed_form(mu2, db_to_linear(db)) >= 0.0


def marcum_difference(a2, b2):
    """Q1(a, b) - Q1(b, a) from a^2 and b^2, as the approximation takes it:
    two port cdfs."""
    return port_cdf(b2, a2) - port_cdf(a2, b2)


class TestMarcumDifference:
    """Q1(a, b) - Q1(b, a), the one kernel of the approximation and of the
    N = 2 closed form."""

    def test_diagonal_is_zero(self):
        for s in (0.0, 0.25, 9.0, 400.0):
            assert marcum_difference(np.array(s), np.array(s)) == 0.0
        # a fully correlated port (a = b) adds nothing to the approximation
        for x in (0.5, 3.0, 20.0):
            assert outage_approx_profile([0.0, 0.4, 1.0, -1.0], x) == \
                outage_approx_profile([0.0, 0.4], x)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a2, b2 = rng.uniform(0.0, 100.0, (2, 50))
        assert np.array_equal(marcum_difference(a2, b2),
                              -marcum_difference(b2, a2))

    def test_independent_port_special_case(self):
        # mu = 0: Q1(sqrt(2x), 0) - Q1(0, sqrt(2x)) = 1 - e^-x
        for x in (0.3, 10.0):
            want = (-math.expm1(-x)) ** 2
            assert outage_n2_closed_form(0.0, x) == pytest.approx(
                want, rel=1e-14, abs=0.0)

    def test_against_quadrature_oracle(self):
        # mu = 0.5 at x = 1.5 gives a = 2, b = 1
        delta = reference.marcum_q1_quad(2, 1) - reference.marcum_q1_quad(1, 2)
        assert 0.0 < delta < 1.0
        want = 1.0 - math.exp(-1.5) * (1.0 + delta)
        assert outage_n2_closed_form(0.5, 1.5) == pytest.approx(want,
                                                                abs=1e-12)

    def test_finite_below_x_40(self):
        # chndtr's NaN rule is never needed on the non-degenerate domain
        # for x <= 40, where e^-x is still above 4e-18
        x = np.logspace(-3.0, math.log10(40.0), 60)[:, None]
        one_minus = np.logspace(math.log10(2e-9), 0.0, 120)
        a2 = 2.0 * x / one_minus
        b2 = (1.0 - one_minus) * a2
        assert np.all(np.isfinite(marcum_difference(a2, b2)))

    @pytest.mark.parametrize("x", [50.0, 100.0, 745.0, 1e3, 1e300])
    def test_large_snr_matches_marcum_loop(self, x):
        mu = [0.0, 0.5, -0.999, 0.999999, 1.0 - 1e-8, -(1.0 - 2e-9),
              DEGENERATE_MU]
        if x == 1e300:
            mu = mu[:5]  # the loop's a^2 overflows closer to |mu| = 1
        assert outage_approx_profile(mu, x) == pytest.approx(
            reference.outage_approx_marcum(mu, x), abs=1e-15)
        # the kernel evaluates every port, Boost's NaN band included
        mu = np.asarray(mu[1:])
        a2 = 2.0 * x / (1.0 - mu ** 2)
        assert np.all(np.isfinite(marcum_difference(a2, mu ** 2 * a2)))

    def test_matches_marcum_loop_on_curve_points(self):
        for n in (5, 20, 100):
            for w in (0.5, 1.0, 5.0):
                mu = correlation_profile(FasConfig(n, w, 1.0))
                for x in (0.01, 1.0, 10.0):
                    assert outage_approx_profile(mu, x) == pytest.approx(
                        reference.outage_approx_marcum(mu, x), abs=1e-13)

    def test_rejects_nan_snr(self):
        for outage in (lambda x: outage_approx_profile([0.0, 0.5], x),
                       lambda x: outage_n2_closed_form(0.5, x)):
            with pytest.raises(ValueError):
                outage(math.nan)
            with pytest.raises(ValueError):
                outage(0.0)


class TestOutageApprox:
    def test_single_port_exact(self):
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=0.8)
        assert outage_approx(c) == pytest.approx(1.0 - math.exp(-0.8),
                                                 abs=1e-14)

    def test_two_ports_reduce_to_closed_form(self):
        c = FasConfig(n_ports=2, size_wavelengths=0.3, snr_ratio=1.2)
        mu2 = correlation_profile(c)[1]
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
        # int(inf) would raise OverflowError, and a NaN passes `< 1`
        for branches, x in ((0, 1.0), (2, 0.0), (2.5, 1.0), (math.inf, 1.0),
                            (math.nan, 1.0)):
            with pytest.raises(ValueError):
                outage_mrc(branches, x)

    def test_rejects_nan_snr(self):
        # a `<= 0` check lets NaN through, and gammainc returns NaN
        with pytest.raises(ValueError, match="snr_ratio must be positive"):
            outage_mrc(2, math.nan)


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
                                           snr_ratio=x))[1:]
        a = np.sqrt(2.0 * mu ** 2 / (1.0 - mu ** 2))
        b = np.sqrt(2.0 * x / (1.0 - mu ** 2))

        def integrand(t):
            return math.exp(-t) * math.prod(
                1.0 - marcum_q1(ak * math.sqrt(t), bk) for ak, bk in zip(a, b))

        want, _ = quad(integrand, 0.0, x, epsabs=analytic._ABS_TOL,
                       epsrel=analytic._REL_TOL, limit=analytic._MAX_INTERVALS)
        got = outage_exact(FasConfig(n_ports=n, size_wavelengths=w,
                                     snr_ratio=x))
        assert abs(got - want) <= x * (n - 1) * 1e-10


class TestBoostsNanBand:
    """A profile whose ports reach the band just below its diagonal where
    Boost's chndtr reads NaN: b^2 ~ 6.6e9 at 9 dB."""
    X = db_to_linear(9.0)
    # 1 - mu^2 = 2.41e-9, the third port of the 148-port profile at
    # W = 5.413e-4 wavelengths
    BAND_MU = math.sqrt(1.0 - 2.41e-9)
    # a port at 1 - mu^2 = 3e-5 makes `quad` refine near t = x, and four of
    # its nodes there put BAND_MU's port in the band
    MU = [0.0, BAND_MU, math.sqrt(1.0 - 3e-5)]

    def test_exact_outage_through_the_band(self, monkeypatch):
        got = outage_exact_profile(self.MU, self.X)
        # the per-port 1 - marcum_q1 loop under scipy's qags (measured
        # within 7.8e-16)
        mu = np.array(self.MU[1:])
        a = np.sqrt(2.0 * mu ** 2 / (1.0 - mu ** 2))
        b = np.sqrt(2.0 * self.X / (1.0 - mu ** 2))

        def integrand(t):
            return math.exp(-t) * math.prod(
                1.0 - marcum_q1(ak * math.sqrt(t), bk) for ak, bk in zip(a, b))

        want, _ = quad(integrand, 0.0, self.X, epsabs=1e-12, epsrel=1e-12,
                       limit=2000, points=[self.X * (1.0 - 1e-3)])
        assert got == pytest.approx(want, rel=analytic._REL_TOL, abs=0.0)
        # Boost's cdf alone reads NaN at those nodes, and the quadrature
        # gives up
        monkeypatch.setattr(analytic, "port_cdf",
                            lambda a2, b2: sp.chndtr(b2, 2.0, a2))
        with pytest.raises(QuadratureError, match="returned nan"):
            outage_exact_profile(self.MU, self.X)

    def test_two_port_profile_at_the_band(self):
        # the first port alone: the first round's nodes stop at
        # t = 0.9978 x, short of the band at 0.9994 x, and it is accepted.
        # The measured gap to the closed form, 2.8e-8, is the step just
        # past t = x that those nodes do not see
        got = outage_exact_profile([0.0, self.BAND_MU], self.X)
        assert got == pytest.approx(
            outage_n2_closed_form(self.BAND_MU, self.X), rel=1e-7, abs=0.0)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(n=st.integers(2, 300),
       log_w=st.floats(math.log10(0.005), math.log10(50.0)),
       db=st.floats(-40.0, 20.0))
def test_exact_outage_contract(n, log_w, db):
    # over N <= 300, W log-uniform on [0.005, 50] and -40 to 20 dB: the
    # exact outage is a finite probability inside the one-interval bracket
    # (1 - e^-x) prod_k P1_k(x) <= p <= (1 - e^-x) prod_k
    # (1 - e^{-x/(1 - mu_k^2)}), since each P1_k falls with t from
    # 1 - e^{-x/(1 - mu_k^2)} at t = 0, and below the kappa = 2 bound;
    # each within the quadrature's tolerance
    config = FasConfig(n_ports=n, size_wavelengths=10.0 ** log_w,
                       snr_ratio=db_to_linear(db))
    x = config.snr_ratio
    p = outage_exact(config)
    assert math.isfinite(p) and p >= 0.0
    mu = active_mu(correlation_profile(config))[1:]
    one_minus = 1.0 - mu ** 2
    single = -math.expm1(-x)
    lower = single * float(np.prod(port_cdf(2.0 * mu ** 2 / one_minus * x,
                                            2.0 * x / one_minus)))
    upper = single * float(np.prod(-np.expm1(-x / one_minus)))
    tol = max(1e-10, 1e-8 * p)
    assert lower - tol <= p <= upper + tol
    assert p <= outage_upper_bound(config, bound_constants(2.0)) + tol


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
            want = reference.outage_exact_chndtr(correlation_profile(c), 1.0)
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
