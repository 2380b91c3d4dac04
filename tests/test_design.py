import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import j0

from fas.analytic import db_to_linear, outage_mrc
from fas.bounds import bound_constants, outage_upper_bound_profile, \
    per_port_bound_factor, per_port_bound_factors
from fas.channel import DEGENERATE_MU, FasConfig, correlation_profile
from fas import design
from fas.design import (GUARD_COMPLEX_MU, GUARD_FACTOR_RANGE,
                        GUARD_LOG_NEGATIVE, GUARD_N_EXHAUSTED,
                        GUARD_PROFILE_EXHAUSTED, GUARD_TOO_FEW_PORTS,
                        DesignAnswer, DesignQuery,
                        MuSizeResult, min_ports_for_size, min_ports_general,
                        min_ports_homogeneous, min_size, min_size_frontier,
                        required_mu_and_size)
from fas.specfun import inv_besselj0_envelope

import reference


def query(branches=2, x=1.0, kappa=2.0):
    return DesignQuery(mrc_branches=branches, snr_ratio=x,
                       constants=bound_constants(kappa))


def wide_profile_mu(n, w=5.0):
    return correlation_profile(
        FasConfig(n_ports=n, size_wavelengths=w, snr_ratio=1.0))


class TestDesignQuery:
    def test_rejects_invalid(self):
        for branches, x in ((0, 1.0), (2, 0.0), (math.inf, 1.0),
                            (math.nan, 1.0)):
            with pytest.raises(ValueError):
                DesignQuery(mrc_branches=branches, snr_ratio=x,
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

    def test_matches_sequential_loop(self):
        for w, size in ((0.5, 300), (5.0, 500)):
            mu = wide_profile_mu(size, w)
            for branches in (1, 2, 4, 8):
                for x in (0.1, 1.0, 10.0):
                    q = query(branches=branches, x=x)
                    target = outage_mrc(branches, x) / -math.expm1(-x)
                    for n_max in (50, 100_000):
                        got = min_ports_general(mu, q, n_max=n_max)
                        want = reference.min_ports_sequential(
                            mu, x, min(target, 1.0), q.constants.kappa,
                            q.constants.rho, n_max)
                        assert got.value == want, (w, branches, x, n_max)
                        assert got.feasible == (want is not None)

    def test_n_max_exhaustion(self):
        answer = min_ports_general(wide_profile_mu(300), query(branches=8),
                                   n_max=20)
        assert not answer.feasible
        assert answer.guard_report == GUARD_N_EXHAUSTED

    @pytest.mark.parametrize("bad", [1.5, -1.5, float("nan")])
    def test_rejects_invalid_mu(self, bad):
        with pytest.raises(ValueError):
            min_ports_general([0.0, 0.5, bad, 0.5], query())

    @pytest.mark.parametrize("unit", [1.0, -1.0, 1.0 - 5e-10])
    def test_degenerate_port_adds_nothing(self, unit):
        # a port as correlated as port 1 counts toward N but has factor 1,
        # as in outage_upper_bound_profile, which drops it; at x = 1e-10
        # the formula would give 1 - 5e-10 a factor of ~0.7
        mu = wide_profile_mu(200)
        q = query(x=1e-10)
        want = min_ports_general(mu, q).value
        got = min_ports_general(np.insert(mu, 1, [unit] * 20), q)
        assert got.value == want + 20

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

    def test_degenerate_mu_has_no_n(self):
        # ports as correlated as port 1 add nothing: the bound and the exact
        # outage of any such profile read 1 - e^-x, above p_MRC
        answer = min_ports_homogeneous(1.0 - 5e-10, query(x=1e-12))
        assert not answer.feasible
        assert answer.guard_report == GUARD_FACTOR_RANGE

    def test_small_mu_fallback_still_finite(self):
        q = query()
        answer = min_ports_homogeneous(1e-6, q)
        assert answer.feasible
        assert answer.value >= 2

    def test_stringent_target_grows_n(self):
        # the L = 8 answer, 1,004,201, lies beyond the default n_max
        q2 = query(branches=2)
        q8 = query(branches=8)
        assert min_ports_homogeneous(0.9, q8, n_max=2_000_000).value > \
            min_ports_homogeneous(0.9, q2).value

    @pytest.mark.parametrize("n_max", [5, 284, 285, 100_000])
    @pytest.mark.parametrize("branches", [2, 8])
    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.9])
    def test_n_max_caps_the_closed_form(self, mu, branches, n_max):
        # the closed form may land above n_max (285 at mu = 0.5, L = 8, and
        # 1,004,201 at mu = 0.9, L = 8): exhausted, as on the explicit profile
        q = query(branches=branches)
        general = min_ports_general(np.array([0.0] + [mu] * n_max), q,
                                    n_max=n_max)
        assert min_ports_homogeneous(mu, q, n_max=n_max) == general

    @pytest.mark.parametrize("mu", [0.0, -0.3, -0.9])
    def test_answers_independent_and_negative_mu(self, mu):
        # mu = 0 is independent ports, and -mu has mu's factor
        answer = min_ports_homogeneous(mu, query())
        assert answer.feasible
        assert answer == min_ports_homogeneous(abs(mu), query())
        assert answer == min_ports_general(np.r_[0.0, np.full(100_000, mu)],
                                           query())

    @pytest.mark.parametrize("mu", [1.0, -1.0])
    def test_unit_mu_is_a_factor_range_guard(self, mu):
        assert min_ports_homogeneous(mu, query()) == DesignAnswer(
            None, GUARD_FACTOR_RANGE)

    @pytest.mark.parametrize("mu", [1.5, math.nan])
    def test_rejects_mu_outside_the_profile_rule(self, mu):
        with pytest.raises(ValueError, match=r"^\|mu_k\| must be <= 1"):
            min_ports_homogeneous(mu, query())


class TestMinPortsForSize:
    def test_reference_design_point(self):
        # W = 0.2 wavelengths against 4-branch MRC at x = 1
        answer = min_ports_for_size(0.2, query(branches=4))
        assert answer == DesignAnswer(1659)

    @pytest.mark.parametrize("size_wl", [2e307, 2.8e307])
    def test_padding_cells_do_not_overflow(self, size_wl):
        # a block's padding cells k >= N once took d = k/(N-1) W > W, and
        # 2 pi d overflowed with a RuntimeWarning; the answers stay
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert min_ports_for_size(size_wl, query()) == DesignAnswer(18)
            assert (min_ports_for_size(size_wl, query(branches=5, x=0.1))
                    == DesignAnswer(38))

    def test_tiny_aperture_exhausts_scan(self):
        answer = min_ports_for_size(0.01, query(branches=2))
        assert not answer.feasible
        assert answer.value is None
        assert answer.guard_report == GUARD_N_EXHAUSTED

    def test_agrees_with_brute_force_scan(self):
        n_max = 120
        for x in (0.5, 1.0):
            for w in (0.5, 1.0, 2.0, 5.0):
                for branches in (2, 4, 8):
                    q = query(branches=branches, x=x)
                    target = outage_mrc(branches, x)
                    want = next(
                        (n for n in range(1, n_max + 1)
                         if reference.outage_upper_bound_sequential(
                             correlation_profile(FasConfig(n, w, x)), x,
                             q.constants.kappa, q.constants.rho) < target),
                        None)
                    got = min_ports_for_size(w, q, n_max=n_max)
                    assert got.value == want, (x, w, branches)
                    assert got.feasible == (want is not None)


    @pytest.mark.parametrize("w, branches", [
        (5.0, 2), (5.0, 4), (5.0, 8), (2.0, 2), (2.0, 4), (2.0, 8),
        (1.0, 2), (1.0, 4), (1.0, 8), (0.5, 2), (0.5, 4), (0.5, 8),
        (0.2, 2), (0.2, 4), (0.01, 2)])
    def test_matches_per_n_scan_on_the_benchmark_queries(self, w, branches):
        # the design benchmark's (W, L) pairs at 0 dB, 1659 and infeasible
        # included
        q = query(branches=branches)
        assert min_ports_for_size(w, q) == \
            reference.min_ports_for_size_per_n(w, q)

    @pytest.mark.parametrize("cells", [None, 1, 40])
    def test_matches_per_n_scan_on_a_grid(self, cells, monkeypatch):
        # answers 4..150 and infeasible ones at n_max = 150; one N per block
        # (cells = 1), short blocks, and the default
        if cells is not None:
            monkeypatch.setattr(design, "_SCAN_BLOCK_CELLS", cells)
        for w in (0.2, 0.5, 1.0, 2.0, 5.0):
            for branches in (2, 4, 8):
                for x in (0.1, 1.0, 3.0):
                    q = query(branches=branches, x=x)
                    want = reference.min_ports_for_size_per_n(w, q, 150)
                    got = min_ports_for_size(w, q, n_max=150)
                    assert got == want, (w, branches, x)

    @pytest.mark.parametrize("w, branches, x, n, edge", [
        (1.0, 2, 0.1, 4, "first"), (0.4, 2, 0.1, 7, "last"),
        (1.2, 2, 1.0, 16, "first"), (10.0, 2, 1.0, 15, "last"),
        (0.85, 6, 1.0, 128, "first"), (0.9, 6, 1.0, 127, "last"),
        (2.25, 4, 2.0, 207, "first"), (5.0, 4, 2.0, 206, "last"),
        (1.1, 4, 2.0, 267, "last")])
    def test_answer_on_either_side_of_a_block_edge(self, w, branches, x, n,
                                                   edge, monkeypatch):
        # the blocks' row counts are read off the factor calls, so a change
        # of block size that moves these answers off the edges fails here
        rows = []

        def factors(mu, *args):
            rows.append(mu.shape[0])
            return per_port_bound_factors(mu, *args)

        monkeypatch.setattr(design, "per_port_bound_factors", factors)
        q = query(branches=branches, x=x)
        want = DesignAnswer(n)
        assert reference.min_ports_for_size_per_n(w, q, n) == want
        assert min_ports_for_size(w, q) == want
        first, last = 2 + sum(rows[:-1]), 1 + sum(rows)
        assert n == (first if edge == "first" else last), (first, last)

    @pytest.mark.parametrize("cells", [None, 40])
    @pytest.mark.parametrize("n_max", [0, 1, 2, 60, 61, 100])
    def test_n_max_ending_mid_block(self, n_max, cells, monkeypatch):
        # W = 1 against 4-branch MRC needs N = 61
        if cells is not None:
            monkeypatch.setattr(design, "_SCAN_BLOCK_CELLS", cells)
        q = query(branches=4)
        assert min_ports_for_size(1.0, q, n_max=n_max) == \
            reference.min_ports_for_size_per_n(1.0, q, n_max)

    def test_degenerate_ports_add_nothing(self):
        # at W = 1e-9 every correlated port has J0 = 1.0 in double: all are
        # dropped as degenerate, leaving the single-port bound for every N
        q = query(branches=2)
        answer = min_ports_for_size(1e-9, q, n_max=50)
        assert answer == reference.min_ports_for_size_per_n(1e-9, q, 50)
        assert answer.guard_report == GUARD_N_EXHAUSTED

    @pytest.mark.parametrize("w", [0.0, -1.0, float("nan")])
    def test_rejects_an_aperture_that_is_not_positive(self, w):
        with pytest.raises(ValueError):
            min_ports_for_size(w, query())

    def test_scan_memory_stays_bounded(self):
        # W = 0.4 lies past the certificate's lobe edge, and against
        # 32-branch MRC it has no N <= 2000, so the scan evaluates every N
        # up to 2000, about 1.8 M cells; numpy reports its buffers to
        # tracemalloc
        q = query(branches=32)
        assert min_ports_for_size(0.4, q).guard_report == GUARD_N_EXHAUSTED
        tracemalloc.start()
        try:
            min_ports_for_size(0.4, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


KAPPAS = (1.5, 2.0, 5.0)
# x = 40 and 100 reach the z <= 2 cap of the exactly-one radius
SNR_RATIOS = (0.01, 0.1, 1.0, 3.0, 10.0, 40.0, 100.0)


class TestExactlyOneZone:
    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("x", SNR_RATIOS)
    def test_every_factor_inside_the_radius_is_exactly_one(self, kappa, x):
        constants = bound_constants(kappa)
        d_one = constants.exactly_one_radius(x)
        z_one = math.sqrt(min(kappa * x / 20.0, 4.0))
        assert d_one == z_one / (2.0 * math.pi)
        d = np.append(np.linspace(0.0, d_one, 100_001)[1:],
                      np.geomspace(1e-12, d_one, 1001))
        mu = j0(2.0 * np.pi * d)
        # as the scan does: degenerate ports count as a factor of 1
        degenerate = np.abs(mu) > DEGENERATE_MU
        mu[degenerate] = 0.0
        factors = per_port_bound_factors(mu, x, constants)
        factors[degenerate] = 1.0
        assert np.all(factors == 1.0)

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("x", SNR_RATIOS)
    def test_matches_per_n_scan_across_the_radius(self, kappa, x):
        # these apertures lie on both sides of d_one for every (kappa, x)
        for w in (0.005, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
            for branches in (2, 4, 8):
                q = query(branches=branches, x=x, kappa=kappa)
                assert min_ports_for_size(w, q, n_max=200) == \
                    reference.min_ports_for_size_per_n(w, q, 200), \
                    (w, branches)

    @pytest.mark.parametrize("w, branches, calls, most_cells", [
        (0.01, 2, 0, 0),
        # the certificate's reference row and one block of N up to 1659;
        # 1,061,894 cells in 94 calls without the certificate, and
        # 1,401,389 without the zone as well
        (0.2, 4, 2, 13_000),
        # the reference row alone rules out every N <= 2000
        (0.15, 8, 1, 2_000),
        # past the lobe edge: the scan runs every N, as without the
        # certificate
        (0.4, 32, 135, 1_775_764)])
    def test_cells_reaching_the_kernel(self, w, branches, calls, most_cells,
                                       monkeypatch):
        cells = []

        def factors(mu, *args):
            cells.append(mu.size)
            return per_port_bound_factors(mu, *args)

        monkeypatch.setattr(design, "per_port_bound_factors", factors)
        min_ports_for_size(w, query(branches=branches))
        assert len(cells) == calls
        assert sum(cells) <= most_cells


def certified_start(w, q, n_max):
    x = q.snr_ratio
    d_one = q.constants.exactly_one_radius(x)
    log_target = (math.log(outage_mrc(q.mrc_branches, x))
                  - math.log(-math.expm1(-x)))
    return design._certified_start(w, q, n_max, d_one, log_target)


def lobe_edge(kappa):
    """Aperture W at which J0(2 pi W) = rho^2, where the certificate ends."""
    rho = bound_constants(kappa).rho
    return brentq(lambda w: j0(2.0 * math.pi * w) - rho * rho, 0.2, 0.38)


class TestCertifiedStart:
    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("x", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0])
    def test_matches_per_n_scan_across_the_lobe_edge(self, kappa, x):
        # at x = 1e-9 the degenerate zone reaches past the exactly-one
        # radius and the certificate is off; the last two apertures lie past
        # the lobe edge
        edge = lobe_edge(kappa)
        for w in (0.1, 0.25, 0.98 * edge, 0.999 * edge, 1.001 * edge,
                  1.02 * edge):
            for branches in (2, 5):
                q = query(branches=branches, x=x, kappa=kappa)
                assert min_ports_for_size(w, q, n_max=400) == \
                    reference.min_ports_for_size_per_n(w, q, 400), \
                    (w, branches)

    @pytest.mark.parametrize("w, branches, x, kappa, least", [
        # the reference design point, N = 1659: the start is within 1%
        (0.2, 4, 1.0, 2.0, 1643),
        # no N <= 2000: the start is past n_max
        (0.15, 8, 1.0, 2.0, 2001),
        (0.3, 5, 0.1, 1.5, 45), (0.1, 5, 1e-6, 1.5, 140),
        (0.25, 3, 3.0, 5.0, 2001)])
    def test_start_never_passes_the_answer(self, w, branches, x, kappa,
                                           least):
        q = query(branches=branches, x=x, kappa=kappa)
        start = certified_start(w, q, 2000)
        answer = reference.min_ports_for_size_per_n(w, q, 2000)
        assert least <= start <= (answer.value or 2001), answer
        assert min_ports_for_size(w, q) == answer

    @pytest.mark.parametrize("kappa, x", [(2.0, 1e-9), (2.0, 1e-8),
                                          (1.5, 1e-9), (5.0, 1e-9)])
    def test_off_where_the_degenerate_zone_leaves_the_radius(self, kappa, x):
        q = query(branches=4, x=x, kappa=kappa)
        assert certified_start(0.2, q, 2000) == 2

    def test_off_where_the_target_ratio_is_not_a_normal_double(self):
        # p_MRC / (1 - e^-x) is e^-710.6 here, below the smallest normal
        # double, so the scan's products near the answer lose relative
        # precision; the scan starts at N = 2
        q = query(branches=117, x=0.1)
        assert certified_start(0.33, q, 2000) == 2
        assert min_ports_for_size(0.33, q) == \
            reference.min_ports_for_size_per_n(0.33, q, 2000) == \
            DesignAnswer(1888)

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_off_past_the_lobe_edge(self, kappa):
        q = query(branches=4, kappa=kappa)
        edge = lobe_edge(kappa)
        assert certified_start(0.999 * edge, q, 2000) > 2
        assert certified_start(1.001 * edge, q, 2000) == 2

    @pytest.mark.parametrize("w", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("x", [0.1, 1.0])
    def test_single_branch_target_rules_out_no_row(self, w, x, monkeypatch):
        # at L = 1 the log target is 0, so the certificate's level is
        # positive: it evaluates its reference row (M = 2000) and still
        # starts the scan at N = 2
        rows = []

        def block_factors(n, *args):
            rows.append(int(n[0, 0]))
            return blocked(n, *args)

        blocked = design._block_factors
        monkeypatch.setattr(design, "_block_factors", block_factors)
        q = query(branches=1, x=x)
        assert min_ports_for_size(w, q) == \
            reference.min_ports_for_size_per_n(w, q, 2000)
        assert rows[:2] == [2000, 2]

    def test_underflowed_mrc_target(self, monkeypatch):
        # p_MRC of 200 branches at x = 1e-5 underflows to 0, which no bound
        # product undercuts; no factor is evaluated
        q = DesignQuery(mrc_branches=200, snr_ratio=1e-5,
                        constants=bound_constants())
        assert outage_mrc(200, 1e-5) == 0.0
        exhausted = DesignAnswer(None, GUARD_N_EXHAUSTED)
        assert min_ports_homogeneous(0.5, q) == exhausted
        assert reference.min_ports_for_size_per_n(0.2, q, 50) == exhausted
        monkeypatch.setattr(design, "per_port_bound_factors", None)
        assert min_ports_for_size(0.2, q) == exhausted


class TestNMax:
    SOLVERS = {
        "general": lambda q, n_max: min_ports_general(
            wide_profile_mu(300), q, n_max=n_max),
        "homogeneous": lambda q, n_max: min_ports_homogeneous(
            0.5, q, n_max=n_max),
        "for_size": lambda q, n_max: min_ports_for_size(1.0, q, n_max=n_max),
    }

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("n_max", [math.nan, 10.5, -1, math.inf,
                                       -math.inf, 2.5])
    def test_rejects_n_max_that_is_not_a_whole_number(self, solver, n_max):
        # NaN once gave the homogeneous answer N = 92; 10.5 and NaN raised
        # TypeError in the general solver
        with pytest.raises(ValueError, match="n_max"):
            self.SOLVERS[solver](query(branches=4), n_max)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_takes_a_whole_float(self, solver):
        q = query(branches=4)
        assert self.SOLVERS[solver](q, 150.0) == self.SOLVERS[solver](q, 150)

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("n_max", [0, 1])
    @pytest.mark.parametrize("branches, x", [(1, 1e-12), (2, 1.0)])
    def test_fewer_than_two_ports_allow_no_n(self, solver, n_max, branches,
                                             x):
        # no single port beats MRC; at x = 1e-12 the general and
        # homogeneous solvers once answered N = 1 with n_max = 0
        answer = self.SOLVERS[solver](query(branches=branches, x=x), n_max)
        assert answer == DesignAnswer(None, GUARD_N_EXHAUSTED)


class TestOnePortTiesSingleBranchMrc:
    """A single port is 1-branch MRC, so no N solver answers N = 1.
    P(1, x) from gammainc rounds an ulp above -expm1(-x) at 141 of these
    400 x, where the solvers once did."""

    X_GRID = np.logspace(-12, 2.5, 400)

    @staticmethod
    def answers(q):
        return (min_ports_general(wide_profile_mu(300, 0.5), q),
                min_ports_homogeneous(0.5, q), min_ports_for_size(0.5, q))

    def test_no_solver_answers_one_port_on_a_grid(self):
        for x in self.X_GRID:
            for answer in self.answers(query(branches=1, x=float(x))):
                assert answer.value is None or answer.value >= 2, x

    @pytest.mark.parametrize("x", [1e-12, 0.1, 1.0, 10.0])
    def test_no_solver_answers_one_port_above_a_rounded_target(
            self, x, monkeypatch):
        # P(1, x) an ulp above 1 - e^-x whatever scipy's rounding does
        monkeypatch.setattr(design, "outage_mrc",
                            lambda branches, snr: -math.expm1(-snr)
                            * (1.0 + 2.0 ** -52))
        for answer in self.answers(query(branches=1, x=x)):
            assert answer.value is None or answer.value >= 2

    def test_any_correlation_meets_a_single_branch_target_on_a_grid(self):
        # P(1, x) rounds below -expm1(-x) at 150 of these x, where
        # required_mu_and_size once answered mu* < 1 and a d* of up to
        # 0.098 wavelengths
        for x in self.X_GRID:
            for n in (2, 10):
                assert required_mu_and_size(n, query(branches=1, x=float(x))) \
                    == DesignAnswer(MuSizeResult(1.0, 0.0)), (n, x)

    def test_size_scan_matches_per_n_scan_from_two_ports(self):
        for x in self.X_GRID:
            q = query(branches=1, x=float(x))
            assert min_ports_for_size(0.5, q, n_max=200) == \
                reference.min_ports_for_size_per_n(0.5, q, 200), x


class TestRequiredMuAndSize:
    def test_large_n_mu_star_approaches_one(self):
        # the requirement relaxes only logarithmically, so the approach to 1
        # is slow but strictly monotone
        vals = [required_mu_and_size(n, query()).value.mu_star
                for n in (50, 200, 1000, 100_000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert 0.8 < vals[-1] < 1.0

    def test_small_n_infeasible_with_named_guard(self):
        answer = required_mu_and_size(2, query())
        assert not answer.feasible
        assert answer.guard_report in (GUARD_LOG_NEGATIVE, GUARD_COMPLEX_MU)

    def test_fixed_point_recheck(self):
        # mu* inverts the conservative factor 1 - rho*exp(-kappa x/(1-mu^2)),
        # which meets the MRC level exactly with N-1 ports; the sharper
        # factor with the 1/sqrt(mu) gain then lands at or below that level
        q = query()
        answer = required_mu_and_size(200, q)
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
        answer = required_mu_and_size(100, query())
        assert answer.feasible
        mu_star = answer.value.mu_star
        d_star = answer.value.d_star_wavelengths
        want = inv_besselj0_envelope(mu_star) / (2.0 * math.pi)
        assert d_star == pytest.approx(want, abs=1e-9)
        # beyond d*, |J0| of the separation stays at or below mu*
        for extra in np.linspace(0.0, 5.0, 100):
            assert abs(j0(2.0 * math.pi * (d_star + extra))) \
                <= mu_star + 1e-9

    @pytest.mark.parametrize("branches, x", [(1, 1e-10), (1, 0.1), (1, 1.0),
                                             (1, 10.0), (2, 1e30)])
    def test_single_port_level_target_takes_any_correlation(self, branches, x):
        # the MRC level equals the single-port outage (L = 1), or both round
        # to 1 (huge x): mu* = 1, d* = 0, where the root once divided by 0
        for n in (2, 3, 10, 100):
            answer = required_mu_and_size(n, query(branches=branches, x=x))
            assert answer == DesignAnswer(MuSizeResult(1.0, 0.0))

    @pytest.mark.parametrize("n, x", [(9, 0.2743746718072456),
                                      (10, db_to_linear(-3.628039743777719)),
                                      (11, db_to_linear(-2.6072995012535496))])
    def test_zero_mu_star_is_an_infinite_size(self, n, x):
        # the radicand is exactly 0: mu* = 0 once went on to the envelope
        # inverse, which rejects a target of 0; d* = inf is its limit, as
        # the inverse reads inf already for every target below about 1e-154
        q = query(x=x)
        zero = DesignAnswer(MuSizeResult(0.0, math.inf))
        assert required_mu_and_size(n, q) == zero
        assert min_size(2 * n, q) == DesignAnswer(math.inf)
        assert min_size(2 * n + 1, q) == DesignAnswer(math.inf)

    @pytest.mark.parametrize("n", [1, 0, 10.5, math.inf, -math.inf, math.nan])
    def test_requires_a_count_of_at_least_two_ports(self, n):
        # inf once answered mu* = 1, d* = 0, and NaN raised from the inverse
        with pytest.raises(ValueError, match="n_ports"):
            required_mu_and_size(n, query())


class TestMinSize:
    def test_matches_half_port_requirement(self):
        answer = min_size(41, query())
        assert answer.feasible
        half = required_mu_and_size(20, query())
        assert answer.value == pytest.approx(
            half.value.d_star_wavelengths, abs=1e-12)

    def test_round_trip_through_homogeneous_rule(self):
        # worst-case floor(N/2)-port profile at mu* still beats MRC
        n = 44
        answer = min_size(n, query())
        assert answer.feasible
        half = n // 2
        mu_star = required_mu_and_size(half, query()).value.mu_star
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
            assert frontier[n] == min_size(n, query())

    def test_frontier_solves_each_half_once(self, monkeypatch):
        # N = 2m and 2m + 1 share floor(N/2): 99 distinct halves in 4..200,
        # where one solve per N made 197 calls
        q = query()
        want = [(n, min_size(n, q)) for n in range(1, 201)]
        calls = []

        def counted(n_ports, query):
            calls.append(n_ports)
            return required_mu_and_size(n_ports, query)

        monkeypatch.setattr(design, "required_mu_and_size", counted)
        assert min_size_frontier(q, range(4, 201)) == want[3:]
        assert sorted(calls) == list(range(2, 101))
        calls.clear()
        assert min_size_frontier(q, [9, 1, 3, 8, 2, 9.0]) == [
            want[8], want[0], want[2], want[7], want[1], want[8]]
        assert calls == [4]

    def test_infeasible_small_n(self):
        answer = min_size(4, query())
        assert not answer.feasible
        assert answer.guard_report in (GUARD_LOG_NEGATIVE, GUARD_COMPLEX_MU)

    def test_zero_size_is_feasible(self):
        # an L = 1 target takes any correlation: W = 0 is an answer
        answer = min_size(10, query(branches=1))
        assert answer == DesignAnswer(0.0)
        assert answer.feasible

    @pytest.mark.parametrize("n", [0, 10.5, math.inf, math.nan])
    def test_requires_a_port_count(self, n):
        with pytest.raises(ValueError, match="n_ports"):
            min_size(n, query())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_than_four_ports_is_a_guard(self, n):
        assert min_size(n, query()) == DesignAnswer(None, GUARD_TOO_FEW_PORTS)

    @pytest.mark.parametrize("n", [0, 2.5, 10.5, math.inf, math.nan])
    def test_frontier_rejects_a_port_count_that_is_not_a_count(self, n):
        # int(inf) once raised OverflowError
        with pytest.raises(ValueError, match="n_ports"):
            min_size_frontier(query(), [8, n])

    def test_no_nan_in_answers(self):
        for n in range(4, 60):
            answer = min_size(n, query())
            if answer.feasible:
                assert math.isfinite(answer.value)
            else:
                assert answer.value is None
                assert answer.guard_report
