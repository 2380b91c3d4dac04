import math

import numpy as np
import pytest

from fas.analytic import outage_mrc
from fas.bounds import bound_constants, outage_upper_bound_profile, \
    per_port_bound_factor
from fas.channel import FasConfig, correlation_profile
from fas.design import (GUARD_COMPLEX_MU, GUARD_FACTOR_RANGE,
                        GUARD_LOG_NEGATIVE, GUARD_N_EXHAUSTED,
                        GUARD_PROFILE_EXHAUSTED, GUARD_TOO_FEW_PORTS,
                        DesignAnswer, DesignQuery,
                        MuSizeResult, min_ports_general,
                        min_ports_homogeneous, min_size, min_size_frontier,
                        required_mu_and_size)
from fas.specfun import bessel_j0, inv_besselj0_envelope


def query(branches=2, x=1.0, kappa=2.0, n_ports=None, size=None):
    return DesignQuery(mrc_branches=branches, snr_ratio=x,
                       constants=bound_constants(kappa), n_ports=n_ports,
                       size_wavelengths=size)


def wide_profile_mu(n, w=5.0):
    return correlation_profile(
        FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=1.0)).mu


class TestDesignQuery:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            DesignQuery(mrc_branches=0, snr_ratio=1.0,
                        constants=bound_constants())
        with pytest.raises(ValueError):
            DesignQuery(mrc_branches=2, snr_ratio=0.0,
                        constants=bound_constants())


class TestMinPortsGeneral:
    def test_single_branch_target_needs_one_port(self):
        # L=1 MRC equals the single-port outage; one port already ties it,
        # which the strict product test cannot beat, so target ratio 1 means
        # the answer depends on the first correlated factor
        q = query(branches=1)
        answer = min_ports_general(wide_profile_mu(50), q)
        assert answer.feasible
        assert answer.value == 2

    def test_recheck_against_bound(self):
        q = query()
        mu = wide_profile_mu(200)
        answer = min_ports_general(mu, q)
        assert answer.feasible
        n = answer.value
        bound = outage_upper_bound_profile(mu[:n], 1.0, q.constants)
        assert bound < outage_mrc(2, 1.0)
        bound_prev = outage_upper_bound_profile(mu[:n - 1], 1.0, q.constants)
        assert bound_prev >= outage_mrc(2, 1.0)

    def test_brute_force_scan_agreement(self):
        q = query()
        mu = wide_profile_mu(500)
        target = outage_mrc(2, 1.0) / (1.0 - math.exp(-1.0))
        prod = 1.0
        want = None
        for k in range(1, 500):
            prod *= per_port_bound_factor(float(mu[k]), 1.0, q.constants)
            if prod < target:
                want = k + 1
                break
        assert min_ports_general(mu, q).value == want

    def test_profile_exhaustion(self):
        q = query(branches=8)
        answer = min_ports_general(wide_profile_mu(3), q)
        assert not answer.feasible
        assert answer.guard_report == GUARD_PROFILE_EXHAUSTED
        assert answer.value is None


class TestMinPortsHomogeneous:
    def test_matches_general_on_homogeneous_profile(self):
        q = query()
        for mu in (0.3, 0.5, 0.7):
            answer = min_ports_homogeneous(mu, q)
            assert answer.feasible
            profile = np.array([0.0] + [mu] * 10_000)
            general = min_ports_general(profile, q)
            assert answer.value == general.value

    def test_minimality(self):
        q = query()
        mu = 0.5
        n = min_ports_homogeneous(mu, q).value
        factor = per_port_bound_factor(mu, 1.0, q.constants)
        target = outage_mrc(2, 1.0) / (1.0 - math.exp(-1.0))
        assert factor ** (n - 1) < target
        assert factor ** (n - 2) >= target

    def test_small_mu_fallback_still_finite(self):
        q = query()
        answer = min_ports_homogeneous(1e-6, q)
        assert answer.feasible
        assert answer.value >= 2

    def test_stringent_target_grows_n(self):
        q2 = query(branches=2)
        q8 = query(branches=8)
        assert min_ports_homogeneous(0.9, q8).value > \
            min_ports_homogeneous(0.9, q2).value

    def test_rejects_mu_outside_open_interval(self):
        with pytest.raises(ValueError):
            min_ports_homogeneous(0.0, query())
        with pytest.raises(ValueError):
            min_ports_homogeneous(1.0, query())


class TestRequiredMuAndSize:
    def test_large_n_mu_star_approaches_one(self):
        # the requirement relaxes only logarithmically, so the approach to 1
        # is slow but strictly monotone
        vals = [required_mu_and_size(query(n_ports=n)).value.mu_star
                for n in (50, 200, 1000, 100_000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert 0.8 < vals[-1] < 1.0

    def test_small_n_infeasible_with_named_guard(self):
        answer = required_mu_and_size(query(n_ports=2))
        assert not answer.feasible
        assert answer.guard_report in (GUARD_LOG_NEGATIVE, GUARD_COMPLEX_MU)

    def test_fixed_point_recheck(self):
        # mu* inverts the conservative factor 1 - rho*exp(-kappa x/(1-mu^2)),
        # which meets the MRC level exactly with N-1 ports; the sharper
        # factor with the 1/sqrt(mu) gain then lands at or below that level
        q = query(n_ports=200)
        answer = required_mu_and_size(q)
        assert answer.feasible
        mu_star = answer.value.mu_star
        c = q.constants
        conservative = 1.0 - c.rho * math.exp(-c.kappa / (1.0 - mu_star ** 2))
        lhs = (1.0 - math.exp(-1.0)) * conservative ** 199
        assert lhs == pytest.approx(outage_mrc(2, 1.0), abs=1e-9)
        sharper = per_port_bound_factor(mu_star, 1.0, c)
        assert (1.0 - math.exp(-1.0)) * sharper ** 199 \
            <= outage_mrc(2, 1.0) + 1e-9

    def test_d_star_consistent_with_envelope_inverse(self):
        answer = required_mu_and_size(query(n_ports=100))
        assert answer.feasible
        mu_star = answer.value.mu_star
        d_star = answer.value.d_star_wavelengths
        want = inv_besselj0_envelope(mu_star).epsilon_star / (2.0 * math.pi)
        assert d_star == pytest.approx(want, abs=1e-9)
        # beyond d*, |J0| of the separation stays at or below mu*
        for extra in np.linspace(0.0, 5.0, 100):
            assert abs(bessel_j0(2.0 * math.pi * (d_star + extra))) \
                <= mu_star + 1e-9

    def test_requires_n_ports(self):
        with pytest.raises(ValueError):
            required_mu_and_size(query())
        with pytest.raises(ValueError):
            required_mu_and_size(query(n_ports=1))


class TestMinSize:
    def test_matches_half_port_requirement(self):
        q = query(n_ports=41)
        answer = min_size(q)
        assert answer.feasible
        half = required_mu_and_size(query(n_ports=20))
        assert answer.value == pytest.approx(
            half.value.d_star_wavelengths, abs=1e-12)

    def test_round_trip_through_homogeneous_rule(self):
        # worst-case floor(N/2)-port profile at mu* still beats MRC
        n = 44
        answer = min_size(query(n_ports=n))
        assert answer.feasible
        half = n // 2
        mu_star = required_mu_and_size(query(n_ports=half)).value.mu_star
        q = query()
        bound = outage_upper_bound_profile([0.0] + [mu_star] * (half - 1),
                                           1.0, q.constants)
        assert bound <= outage_mrc(2, 1.0) + 1e-9

    def test_nonincreasing_in_n(self):
        frontier = min_size_frontier(query(), range(8, 200, 4))
        values = [a.value for _, a in frontier if a.feasible]
        assert len(values) >= 10
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_frontier_reports_too_few_ports(self):
        frontier = dict(min_size_frontier(query(), range(2, 7)))
        for n in (2, 3):
            assert not frontier[n].feasible
            assert frontier[n].guard_report == GUARD_TOO_FEW_PORTS
        for n in (4, 5, 6):
            assert frontier[n] == min_size(query(n_ports=n))

    def test_infeasible_small_n(self):
        answer = min_size(query(n_ports=4))
        assert not answer.feasible
        assert answer.guard_report in (GUARD_LOG_NEGATIVE, GUARD_COMPLEX_MU)

    def test_requires_at_least_four_ports(self):
        with pytest.raises(ValueError):
            min_size(query(n_ports=3))

    def test_no_nan_in_answers(self):
        for n in range(4, 60):
            answer = min_size(query(n_ports=n))
            if answer.feasible:
                assert math.isfinite(answer.value)
            else:
                assert answer.value is None
                assert answer.guard_report
