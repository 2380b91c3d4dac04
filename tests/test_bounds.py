import math

import numpy as np
import pytest

from fas.analytic import outage_exact
from fas.bounds import (DEFAULT_KAPPA, BoundConstants, ConstantsError,
                        bound_constants, outage_upper_bound,
                        outage_upper_bound_profile, per_port_bound_factor,
                        per_port_bound_factors)
from fas.channel import DEGENERATE_MU, FasConfig, correlation_profile

import reference


class TestBoundConstants:
    def test_default_kappa(self):
        c = bound_constants()
        assert c.kappa == DEFAULT_KAPPA
        # frozen from direct evaluation of e^{1/(pi+2)}/4 * sqrt((pi+2)/pi)
        assert c.rho == pytest.approx(0.3884908754395175, abs=1e-15)

    def test_closed_form_recomputation(self):
        for kappa in (1.2, 1.5, 2.0, 3.0, 8.0):
            c = bound_constants(kappa)
            km1 = kappa - 1.0
            want = (math.exp(1.0 / (math.pi * km1 + 2.0)) / (2.0 * kappa)
                    * math.sqrt(km1 * (math.pi * km1 + 2.0) / math.pi))
            assert c.rho == pytest.approx(want, rel=1e-15)
            assert 0.0 < c.rho < 0.5

    def test_rho_vanishes_toward_kappa_one(self):
        assert bound_constants(1.0 + 1e-10).rho < 1e-4

    def test_rho_overflow_raises_constants_error(self):
        # sqrt((kappa - 1)(pi (kappa - 1) + 2) / pi) overflows to inf
        with pytest.raises(ConstantsError, match="rho=inf outside"):
            bound_constants(1e200)

    def test_rejects_kappa_at_most_one(self):
        for bad in (1.0, 0.5, 0.0, -2.0, float("nan")):
            with pytest.raises(ValueError):
                bound_constants(bad)


class TestRhoIsDerivedFromKappa:
    # rho is the closed-form companion of kappa; as a settable field it
    # let BoundConstants(2.0, 1.5) give an "upper bound" of -0.0205 at
    # N = 2, W = 1, x = 0.1, where the exact outage is 0.0095
    @pytest.mark.parametrize("rho", [1.5, 0.3])
    def test_rho_cannot_be_set(self, rho):
        with pytest.raises(TypeError):
            BoundConstants(2.0, rho=rho)
        with pytest.raises(TypeError):
            BoundConstants(2.0, rho)

    @pytest.mark.parametrize("kappa", [1.05, 1.2, 1.5, 2, 3, 8])
    def test_constants_are_bound_constants(self, kappa):
        c = BoundConstants(kappa)
        assert c == bound_constants(kappa)
        assert hash(c) == hash(bound_constants(kappa))
        assert type(c.kappa) is float
        km1 = kappa - 1.0
        assert c.rho == (math.exp(1.0 / (math.pi * km1 + 2.0)) / (2.0 * kappa)
                         * math.sqrt(km1 * (math.pi * km1 + 2.0) / math.pi))

    def test_constants_check_kappa(self):
        with pytest.raises(ValueError,
                           match="^kappa must be a finite real > 1, got 1.0$"):
            BoundConstants(1.0)
        with pytest.raises(ConstantsError, match="rho=inf outside"):
            BoundConstants(1e200)


class TestPerPortBoundFactor:
    def test_in_unit_interval(self):
        c = bound_constants()
        rng = np.random.default_rng(13)
        for _ in range(300):
            mu = rng.uniform(-0.999999, 0.999999)
            x = rng.uniform(1e-3, 20.0)
            f = per_port_bound_factor(mu, x, c)
            assert 0.0 < f <= 1.0

    def test_degenerate_limit_is_one(self):
        c = bound_constants()
        assert per_port_bound_factor(1.0 - 1e-12, 1.0, c) == pytest.approx(
            1.0, abs=1e-9)

    def test_large_snr_ratio_limit_is_one(self):
        c = bound_constants()
        assert per_port_bound_factor(0.5, 1e6, c) == pytest.approx(1.0,
                                                                   abs=1e-15)

    def test_primary_branch_value(self):
        # direct recomputation of 1 - rho/sqrt(mu) * exp(-kappa x/(1-mu^2))
        c = bound_constants()
        mu, x = 0.9, 1.0
        want = 1.0 - c.rho / math.sqrt(mu) * math.exp(-c.kappa * x / (1 - mu * mu))
        assert per_port_bound_factor(mu, x, c) == pytest.approx(want, rel=1e-15)

    def test_zero_mu_uses_fallback(self):
        c = bound_constants()
        want = 1.0 - c.rho * math.exp(-c.kappa * 1.0)
        assert per_port_bound_factor(0.0, 1.0, c) == pytest.approx(want,
                                                                   rel=1e-15)

    def test_small_mu_uses_fallback(self):
        # rho/sqrt(|mu|) >= 1 here, so the primary factor could go negative
        c = bound_constants()
        mu = 0.01
        assert c.rho / math.sqrt(mu) >= 1.0
        want = 1.0 - c.rho * math.exp(-c.kappa * 0.5 / (1 - mu * mu))
        assert per_port_bound_factor(mu, 0.5, c) == pytest.approx(want,
                                                                  rel=1e-15)

    @pytest.mark.parametrize("mu", [1.0, -1.0, DEGENERATE_MU + 1e-10])
    def test_degenerate_mu_has_factor_one(self, mu):
        # |mu| = 1 is in checked_mu's domain: port 1 over again.  Just above
        # DEGENERATE_MU at x = 1e-12 the formula's factor would be ~0.6
        assert per_port_bound_factor(mu, 1e-12, bound_constants()) == 1.0

    def test_rejects_nan(self):
        c = bound_constants()
        with pytest.raises(ValueError):
            per_port_bound_factor(float("nan"), 1.0, c)
        with pytest.raises(ValueError):
            per_port_bound_factor(0.5, float("nan"), c)


class TestPerPortBoundFactors:
    @pytest.mark.parametrize("kappa", [1.5, 2.0, 3.0])
    def test_matches_scalar_formula(self, kappa):
        c = bound_constants(kappa)
        edge = c.rho ** 2  # |mu| where the gain rho/sqrt(|mu|) reaches 1
        mags = [0.0, 1e-300, 1e-12, 0.01, edge * (1.0 - 1e-12), edge,
                edge * (1.0 + 1e-12), 0.5, 0.9, 0.999999, DEGENERATE_MU,
                math.nextafter(1.0, 0.0)]
        mu = np.array(mags + [-m for m in mags[1:]])
        for x in np.logspace(-10.0, math.log10(50.0), 25):
            got = per_port_bound_factors(mu, x, c)
            want = np.array([reference.per_port_bound_factor_scalar(
                float(m), float(x), c.kappa, c.rho) for m in mu])
            # np.exp and math.exp may round e^-a to neighbouring doubles, which
            # moves 1 - g e^-a by about 1e-16 * g e^-a: near the branch edge
            # at tiny x the factor itself is ~1e-10, so the error is bounded
            # relative to the larger of the factor and the term it subtracts
            scale = np.maximum(want, 1.0 - want)
            assert np.all(np.abs(got - want) <= 1e-15 * scale), x

    def test_empty_profile(self):
        assert per_port_bound_factors([], 1.0, bound_constants()).size == 0

    @pytest.mark.parametrize("bad", [1.5, -1.5, float("nan")])
    def test_rejects_mu_outside_closed_unit_interval(self, bad):
        with pytest.raises(ValueError,
                           match=r"^\|mu_k\| must be <= 1 and not NaN, got "):
            per_port_bound_factors([0.1, bad, 0.2], 1.0, bound_constants())

    def test_degenerate_ports_have_factor_one(self):
        c = bound_constants()
        near = 1.0 - 5e-10
        mu = [0.1, 1.0, -1.0, near, -near, DEGENERATE_MU, 0.2]
        got = per_port_bound_factors(mu, 1e-12, c)
        np.testing.assert_array_equal(got[1:5], 1.0)
        # every other port keeps its formula's factor, bit for bit
        np.testing.assert_array_equal(
            got[[0, 5, 6]],
            per_port_bound_factors([0.1, DEGENERATE_MU, 0.2], 1e-12, c))
        assert got[5] < 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_snr_ratio(self, bad):
        with pytest.raises(ValueError):
            per_port_bound_factors([0.1, 0.2], bad, bound_constants())


class TestOutageUpperBound:
    def test_single_port(self):
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=1.0)
        assert outage_upper_bound(c, bound_constants()) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-15)

    def test_degenerate_ports_leave_the_bound_unchanged(self):
        # the kernel gives them a factor of exactly 1, so the product is
        # the one over the other ports, bit for bit
        c = bound_constants()
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = rng.uniform(-0.99, 0.99, 40)
            mu[0] = 0.0
            with_degenerate = np.insert(
                mu, rng.integers(1, mu.size, 6),
                [1.0, -1.0, 1.0 - 5e-10, -(1.0 - 5e-10), 1.0, 1.0])
            for x in (1e-9, 0.1, 1.0):
                assert (outage_upper_bound_profile(with_degenerate, x, c)
                        == outage_upper_bound_profile(mu, x, c))

    def test_single_port_tiny_snr_ratio(self):
        # 1 - exp(-x) would be 8e-8 off here; the bound takes -expm1(-x)
        x = 1e-10
        got = outage_upper_bound_profile([0.0], x, bound_constants())
        assert got == pytest.approx(-math.expm1(-x), rel=1e-15, abs=0.0)

    def test_matches_sequential_product(self):
        c = bound_constants()
        for w in (0.01, 0.2, 1.0, 5.0):
            for n in (1, 2, 3, 10, 100, 1000, 2000):
                mu = correlation_profile(
                    FasConfig(n_ports=n, size_wavelengths=w,
                              snr_ratio=1.0))
                for x in (0.1, 1.0, 10.0):
                    got = outage_upper_bound_profile(mu, x, c)
                    want = reference.outage_upper_bound_sequential(
                        mu, x, c.kappa, c.rho)
                    assert abs(got - want) <= 1e-13 * want, (w, n, x)

    def test_dominates_exact_on_grid(self):
        for kappa in (1.5, 2.0, 3.0):
            constants = bound_constants(kappa)
            for n in (2, 3, 5, 10):
                for w in (0.2, 1.0, 5.0):
                    for x in (0.1, 1.0, 10.0):
                        c = FasConfig(n_ports=n, size_wavelengths=w,
                                      snr_ratio=x)
                        assert outage_exact(c) <= \
                            outage_upper_bound(c, constants) + 1e-12

    def test_monotone_decreasing_in_ports(self):
        constants = bound_constants()
        vals = [outage_upper_bound(
            FasConfig(n_ports=n, size_wavelengths=5.0, snr_ratio=1.0),
            constants) for n in range(10, 101, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_vanishes_geometrically_with_cloned_ports(self):
        # small snr_ratio keeps the per-port factor well below 1, so the
        # decay is visible within a few dozen ports
        constants = bound_constants()
        mu_port, x = 0.9, 0.05
        vals = [outage_upper_bound_profile([0.0] + [mu_port] * k, x,
                                           constants) for k in (1, 10, 50)]
        factor = per_port_bound_factor(mu_port, x, constants)
        assert factor < 0.8
        assert vals[1] == pytest.approx(vals[0] * factor ** 9, rel=1e-12)
        assert vals[2] < 1e-3 * vals[0]

    def test_skips_degenerate_ports(self):
        constants = bound_constants()
        with_degenerate = outage_upper_bound_profile([0.0, 0.5, 1.0], 1.0,
                                                     constants)
        without = outage_upper_bound_profile([0.0, 0.5], 1.0, constants)
        assert with_degenerate == without

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -1.5])
    def test_rejects_invalid_port_instead_of_dropping_it(self, bad):
        with pytest.raises(ValueError):
            outage_upper_bound_profile([0.0, bad, 0.5], 1.0, bound_constants())
