import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp

from fas.analytic import outage_exact, outage_exact_profile, outage_mrc
from fas.channel import FasConfig, correlation_profile
from fas.mc import (_CHUNK, TARGET_FAILURES, TRIALS_CAP, McEstimate,
                    McSettings, mc_outage_fas, plan_trials, worker_streams)

import reference
from reference import (ChiSquareResult, HistogramSpec, mc_joint_density_check,
                       mc_outage_mrc)


def within(est: McEstimate, truth: float, sigmas: float = 3.0) -> bool:
    se = math.sqrt(truth * (1.0 - truth) / est.trials)
    return abs(est.p_hat - truth) <= sigmas * se


class TestMcSettings:
    def test_rejects_small_trial_count(self):
        with pytest.raises(ValueError):
            McSettings(trials=500, seed=1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            McSettings(trials=10_000, seed=1, workers=0)

    @pytest.mark.parametrize("field, value", [
        # a NaN count once gave p_hat = nan without an error
        ("trials", math.nan), ("trials", math.inf), ("trials", 1e5 + 0.5),
        ("trials", True), ("trials", "100000"), ("trials", None),
        ("workers", math.nan), ("workers", True), ("workers", "2"),
        ("seed", -1), ("seed", math.nan), ("seed", False), ("seed", None),
    ])
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        kwargs = {"trials": 10_000, "seed": 1, "workers": 1, field: value}
        with pytest.raises(ValueError,
                           match=f"^{field} must be a whole number >= "):
            McSettings(**kwargs)

    def test_keeps_whole_float_counts_as_ints(self):
        # a whole float count reaches numpy as the int checked_count makes
        # of it (1e5 trials once raised a TypeError in the draw)
        s = McSettings(trials=1e5, seed=1.0, workers=2.0)
        assert [type(v) for v in (s.trials, s.seed, s.workers)] == [int] * 3
        assert s == McSettings(trials=100_000, seed=1, workers=2)
        c = FasConfig(n_ports=3, size_wavelengths=0.5, snr_ratio=1.0)
        assert mc_outage_fas(c, s) == mc_outage_fas(
            c, McSettings(trials=100_000, seed=1, workers=2))

    @pytest.mark.parametrize("trials, workers", [
        (10_000, 1025), (10 ** 9, 10 ** 6), (1000, 1001), (5000, 5000)])
    def test_rejects_more_workers_than_the_bound(self, trials, workers):
        # at most 1024 workers, and no more than trials; only constructed
        with pytest.raises(ValueError, match="workers"):
            McSettings(trials=trials, seed=1, workers=workers)

    @pytest.mark.parametrize("trials, workers", [(10_000, 1024),
                                                 (1000, 1000)])
    def test_accepts_workers_up_to_the_bound(self, trials, workers):
        assert McSettings(trials=trials, seed=1,
                          workers=workers).workers == workers

    def test_accepts_numpy_integers(self):
        s = McSettings(trials=np.int64(10_000), seed=np.uint32(3),
                       workers=np.int8(2))
        c = FasConfig(n_ports=2, size_wavelengths=0.5, snr_ratio=1.0)
        assert mc_outage_fas(c, s) == mc_outage_fas(
            c, McSettings(trials=10_000, seed=3, workers=2))


class TestWorkerStreams:
    def test_count_and_independence(self):
        streams = worker_streams(seed=7, workers=4)
        assert len(streams) == 4
        draws = [s.standard_normal(8) for s in streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_deterministic(self):
        a = worker_streams(3, 2)[1].standard_normal(16)
        b = worker_streams(3, 2)[1].standard_normal(16)
        assert np.array_equal(a, b)


class TestMcOutageFas:
    def test_bit_reproducible(self):
        c = FasConfig(n_ports=3, size_wavelengths=0.5, snr_ratio=1.0)
        s = McSettings(trials=50_000, seed=11, workers=3)
        assert mc_outage_fas(c, s) == mc_outage_fas(c, s)

    def test_single_port_rayleigh(self):
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=1.0)
        est = mc_outage_fas(c, McSettings(trials=1_000_000, seed=1))
        assert within(est, 1.0 - math.exp(-1.0))

    def test_forced_independent_profile(self):
        c = FasConfig(n_ports=4, size_wavelengths=1.0, snr_ratio=1.0)
        est = mc_outage_fas(c, McSettings(trials=1_000_000, seed=2),
                            mu=np.zeros(4))
        assert within(est, (1.0 - math.exp(-1.0)) ** 4)

    def test_matches_exact_quadrature(self):
        c = FasConfig(n_ports=5, size_wavelengths=0.5, snr_ratio=1.0)
        est = mc_outage_fas(c, McSettings(trials=1_000_000, seed=3))
        assert within(est, outage_exact(c))

    def test_worker_invariance_within_noise(self):
        c = FasConfig(n_ports=3, size_wavelengths=1.0, snr_ratio=1.0)
        truth = outage_exact(c)
        for workers in (1, 8):
            est = mc_outage_fas(c, McSettings(trials=400_000, seed=5,
                                              workers=workers))
            assert within(est, truth)

    def test_half_width_formula(self):
        c = FasConfig(n_ports=2, size_wavelengths=0.5, snr_ratio=1.0)
        est = mc_outage_fas(c, McSettings(trials=10_000, seed=6))
        want = 1.96 * math.sqrt(est.p_hat * (1.0 - est.p_hat) / est.trials)
        assert est.half_width_95 == pytest.approx(want, rel=1e-12)
        assert est.trials == 10_000

    @pytest.mark.parametrize("workers", [1, 3])
    def test_bit_reproducible_at_one_trial_past_a_chunk(self, workers):
        c = FasConfig(n_ports=6, size_wavelengths=1.0, snr_ratio=2.0)
        s = McSettings(trials=_CHUNK + 1, seed=15, workers=workers)
        assert mc_outage_fas(c, s) == mc_outage_fas(c, s)

    # N = 1 draws no per-trial variate, only one binomial count per chunk,
    # so the trial cap costs 15,259 draws.  Sidak: the z that holds the
    # chance of any false alarm over the four thresholds at 1e-4.
    @pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 10.0])
    def test_single_port_at_the_trial_cap(self, x):
        z = float(-sp.ndtri(0.5 * -math.expm1(math.log1p(-1e-4) / 4)))
        c = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=x)
        est = mc_outage_fas(c, McSettings(trials=TRIALS_CAP, seed=21))
        assert est.trials == TRIALS_CAP
        assert within(est, -math.expm1(-x), sigmas=z)

    # past one chunk too: a twin that drew any variate would move the next
    # chunk's binomial count to another place in the stream
    @pytest.mark.parametrize("trials", [100_000, 3 * _CHUNK + 1])
    def test_fully_correlated_ports_add_nothing(self, trials):
        # a port with |mu_k| = 1 is port 1 itself, or its negative
        one = FasConfig(n_ports=1, size_wavelengths=1.0, snr_ratio=0.7)
        twins = np.array([0.0, 1.0, -1.0, 1.0])
        s = McSettings(trials=trials, seed=16)
        assert mc_outage_fas(one, s, mu=twins) == mc_outage_fas(one, s)

    def test_working_set_is_a_few_chunks(self):
        # N = 100 at 10 dB: nearly every trial survives every port, over
        # 16 chunks; the peak must not grow with N or the trial count
        c = FasConfig(n_ports=100, size_wavelengths=5.0, snr_ratio=10.0)
        s = McSettings(trials=10 ** 6, seed=22)
        tracemalloc.start()
        try:
            mc_outage_fas(c, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * _CHUNK

    def test_no_survivor_gives_zero(self):
        c = FasConfig(n_ports=8, size_wavelengths=1.0, snr_ratio=1e-12)
        est = mc_outage_fas(c, McSettings(trials=100_000, seed=17))
        assert (est.p_hat, est.half_width_95) == (0.0, 0.0)

    def test_every_trial_below_a_high_threshold(self):
        c = FasConfig(n_ports=8, size_wavelengths=1.0, snr_ratio=50.0)
        est = mc_outage_fas(c, McSettings(trials=100_000, seed=18))
        assert (est.p_hat, est.half_width_95) == (1.0, 0.0)


class TestAgainstFullDraw:
    # Sequential rejection against the estimator it replaced (every port
    # drawn as a complex number) and the exact outage, on independent
    # streams.  Sidak: the per-comparison z that holds the chance of any
    # false alarm over 24 comparisons at 1e-4 (1.25e-4 over the 30 that
    # the ten points make).
    TRIALS = 200_000
    Z = float(-sp.ndtri(0.5 * -math.expm1(math.log1p(-1e-4) / 24)))

    @pytest.mark.parametrize("mu, x", [
        (correlation_profile(FasConfig(5, 0.5, 1.0)), 1.0),
        # W = 0.05: every mu_k above 0.97
        (correlation_profile(FasConfig(10, 0.05, 1.0)), 0.1),
        (correlation_profile(FasConfig(10, 0.05, 1.0)), 1.0),
        # W = 1 has ports with mu_k < 0
        (correlation_profile(FasConfig(20, 1.0, 1.0)), 1.0),
        ([0.0, -0.6, -0.3, 0.5, -0.9], 0.5),
        (correlation_profile(FasConfig(3, 5.0, 1.0)), 10.0),
        (correlation_profile(FasConfig(40, 0.5, 1.0)), 2.0),
        (correlation_profile(FasConfig(40, 5.0, 1.0)), 3.0),
        # the edges of the survivors' -log1p(-p_1 U) inversion: p_1 = 1e-3
        # (with |mu_k| near 1, so that some trials fail) and p_1 = 1 - 4.5e-5
        ([0.0, 0.9999, -0.9999, 0.99995], 1e-3),
        (correlation_profile(FasConfig(20, 0.5, 1.0)), 10.0),
    ])
    def test_agrees_with_full_draw_and_exact(self, mu, x):
        mu = np.asarray(mu, dtype=float)
        c = FasConfig(n_ports=mu.size, size_wavelengths=1.0, snr_ratio=x)
        exact = outage_exact_profile(mu, x)
        se = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        new = mc_outage_fas(c, McSettings(trials=self.TRIALS, seed=19), mu=mu)
        old = reference.mc_outage_fas_full_draw(
            c, McSettings(trials=self.TRIALS, seed=20), mu=mu)
        assert abs(new.p_hat - exact) <= self.Z * se
        assert abs(old.p_hat - exact) <= self.Z * se
        assert abs(new.p_hat - old.p_hat) <= self.Z * math.sqrt(2.0) * se


class TestMagnitudeCut:
    # A port visit draws an angle only when the magnitude of its own
    # component cannot decide the trial.  These profiles span the share of
    # visits that do, each given as kept / dropped / angle drawn over all
    # further-port visits of 10^6 trials at seed 7.  Each estimate is
    # compared with the exact outage and with the full draw, on independent
    # streams.  Sidak: the per-comparison z that holds the chance of any
    # false alarm over these 12 comparisons at 1e-4.
    TRIALS = 200_000
    Z = float(-sp.ndtri(0.5 * -math.expm1(math.log1p(-1e-4) / 12)))

    @pytest.mark.parametrize("mu, x", [
        # 99.6 / 0.1 / 0.3%: a large x, nearly every trial kept outright
        (correlation_profile(FasConfig(8, 5.0, 1.0)), 6.0),
        # 80.1 / 0.0 / 19.9%
        (correlation_profile(FasConfig(6, 0.03, 1.0)), 0.2),
        # 18.7 / 57.8 / 23.5%: mostly dropped outright, mu_k of both signs
        ([0.0, 0.5, -0.7, 0.3], 0.3),
        # 42.5 / 0.0 / 57.5%: one port near port 1, at a small x
        ([0.0, 0.99], 0.1),
    ])
    def test_agrees_with_full_draw_and_exact(self, mu, x):
        mu = np.asarray(mu, dtype=float)
        c = FasConfig(n_ports=mu.size, size_wavelengths=1.0, snr_ratio=x)
        exact = outage_exact_profile(mu, x)
        se = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        new = mc_outage_fas(c, McSettings(trials=self.TRIALS, seed=23), mu=mu)
        old = reference.mc_outage_fas_full_draw(
            c, McSettings(trials=self.TRIALS, seed=24), mu=mu)
        assert abs(new.p_hat - exact) <= self.Z * se
        assert abs(old.p_hat - exact) <= self.Z * se
        assert abs(new.p_hat - old.p_hat) <= self.Z * math.sqrt(2.0) * se


class TestMcOutageMrc:
    def test_single_branch(self):
        est = mc_outage_mrc(1, 1.0, McSettings(trials=1_000_000, seed=7))
        assert within(est, 1.0 - math.exp(-1.0))

    def test_two_branches(self):
        est = mc_outage_mrc(2, 1.0, McSettings(trials=1_000_000, seed=8))
        assert within(est, 1.0 - 2.0 * math.exp(-1.0))

    def test_five_branches_deep(self):
        truth = outage_mrc(5, 1.0)
        est = mc_outage_mrc(5, 1.0, McSettings(trials=10_000_000, seed=9))
        assert within(est, truth)

    def test_reproducible(self):
        s = McSettings(trials=20_000, seed=10, workers=2)
        assert mc_outage_mrc(3, 0.5, s) == mc_outage_mrc(3, 0.5, s)


class TestPlanTrials:
    def test_common_depth_keeps_base(self):
        assert plan_trials(0.1, 1_000_000) == 1_000_000

    def test_rare_event_scales_up(self):
        planned = plan_trials(1e-5, 1_000_000)
        assert planned == TARGET_FAILURES * 10 ** 5

    def test_beyond_cap_skips(self):
        assert plan_trials(1e-9, 1_000_000) is None
        assert plan_trials(0.0, 1_000_000) is None

    def test_cap_boundary(self):
        assert plan_trials(TARGET_FAILURES / TRIALS_CAP, 1000) == TRIALS_CAP


class TestJointDensityCheck:
    def grid(self):
        return HistogramSpec(r_max=2.5, bins=12)

    def test_independent_ports_fit(self):
        res = mc_joint_density_check(np.array([0.0, 0.0]),
                                     McSettings(trials=200_000, seed=12),
                                     self.grid())
        assert isinstance(res, ChiSquareResult)
        assert not res.rejected_at_1pct

    def test_strong_correlation_fit(self):
        res = mc_joint_density_check(np.array([0.0, 0.9]),
                                     McSettings(trials=200_000, seed=13),
                                     self.grid())
        assert not res.rejected_at_1pct

    def test_mismatched_profile_rejected(self):
        # draws generated at mu=0.9 tested against the mu=0.5 density
        gen = np.array([0.0, 0.9])
        test = np.array([0.0, 0.5])

        from fas.channel import draw_channels_batch

        settings = McSettings(trials=200_000, seed=14)
        edges = np.linspace(0.0, 2.5, 13)
        rng = worker_streams(settings.seed, 1)[0]
        g = np.abs(draw_channels_batch(gen, rng, settings.trials))
        observed, _, _ = np.histogram2d(g[:, 0], g[:, 1], bins=(edges, edges))
        expected = reference.cell_probabilities(test, edges) * settings.trials
        keep = expected >= 5.0
        stat = float(np.sum((observed[keep] - expected[keep]) ** 2
                            / expected[keep]))
        critical = float(sp.chdtri(int(keep.sum()) - 1, 0.01))
        assert stat > critical

    def test_cell_masses_match_scalar_pdf_loop(self):
        # the grid of test_mismatched_profile_rejected, one joint_pdf call
        # per Gauss-Legendre node pair
        from fas.analytic import joint_pdf

        test = np.array([0.0, 0.5])
        edges = np.linspace(0.0, 2.5, 13)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        half = 0.5 * np.diff(edges)
        x = half[:, None] * nodes + (edges[:-1] + half)[:, None]
        w = half[:, None] * weights
        want = np.zeros((12, 12))
        for i in range(12):
            for j in range(12):
                for u, wu in zip(x[i], w[i]):
                    for v, wv in zip(x[j], w[j]):
                        want[i, j] += wu * wv * joint_pdf(test, (u, v))
        got = reference.cell_probabilities(test, edges)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_requires_two_ports(self):
        with pytest.raises(ValueError):
            mc_joint_density_check(np.array([0.0, 0.3, 0.3]),
                                   McSettings(trials=10_000, seed=1),
                                   self.grid())

    def test_histogram_spec_validation(self):
        with pytest.raises(ValueError):
            HistogramSpec(r_max=0.0, bins=10)
        with pytest.raises(ValueError):
            HistogramSpec(r_max=1.0, bins=1)
