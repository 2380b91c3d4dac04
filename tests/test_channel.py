import math

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from fas import channel
from fas.analytic import (joint_cdf, joint_pdf, outage_approx_profile,
                          outage_exact_profile)
from fas.bounds import bound_constants, outage_upper_bound_profile
from fas.channel import (DopplerTraceConfig, FasConfig, correlation_profile,
                         draw_channels_batch, envelope_trace,
                         port_displacements)
from fas.design import DesignQuery, min_ports_general
from fas.mc import McSettings, mc_outage_fas

import reference


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestFasConfig:
    def test_valid(self):
        c = FasConfig(n_ports=4, size_wavelengths=0.5, snr_ratio=1.0)
        assert c.n_ports == 4

    @pytest.mark.parametrize("kwargs", [
        dict(n_ports=0, size_wavelengths=1.0, snr_ratio=1.0),
        dict(n_ports=2.5, size_wavelengths=1.0, snr_ratio=1.0),
        dict(n_ports=2, size_wavelengths=0.0, snr_ratio=1.0),
        dict(n_ports=2, size_wavelengths=1.0, snr_ratio=0.0),
        dict(n_ports=2, size_wavelengths=-1.0, snr_ratio=1.0),
        dict(n_ports=math.inf, size_wavelengths=1.0, snr_ratio=1.0),
        dict(n_ports=math.nan, size_wavelengths=1.0, snr_ratio=1.0),
        dict(n_ports=2, size_wavelengths=math.inf, snr_ratio=1.0),
        dict(n_ports=2, size_wavelengths=1.0, snr_ratio=math.inf),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FasConfig(**kwargs)


class TestPortDisplacements:
    def test_two_ports(self):
        c = FasConfig(n_ports=2, size_wavelengths=0.5, snr_ratio=1.0)
        assert port_displacements(c).tolist() == [0.0, 0.5]

    def test_three_ports_even_spacing(self):
        c = FasConfig(n_ports=3, size_wavelengths=1.0, snr_ratio=1.0)
        assert port_displacements(c).tolist() == [0.0, 0.5, 1.0]

    def test_single_port(self):
        c = FasConfig(n_ports=1, size_wavelengths=2.0, snr_ratio=1.0)
        assert port_displacements(c).tolist() == [0.0]


class TestCorrelationProfile:
    def test_reference_port_is_zero(self):
        c = FasConfig(n_ports=5, size_wavelengths=2.0, snr_ratio=1.0)
        mu = correlation_profile(c)
        assert mu[0] == 0.0
        assert mu.shape == (5,)

    def test_vanishing_size_fully_correlates(self):
        c = FasConfig(n_ports=2, size_wavelengths=1e-9, snr_ratio=1.0)
        assert correlation_profile(c)[1] == pytest.approx(1.0, abs=1e-12)

    def test_half_wavelength_decorrelation(self):
        c = FasConfig(n_ports=2, size_wavelengths=0.38, snr_ratio=1.0)
        assert abs(correlation_profile(c)[1]) < 0.02

    def test_matches_series_oracle(self):
        c = FasConfig(n_ports=5, size_wavelengths=2.0, snr_ratio=1.0)
        mu = correlation_profile(c)
        for k in range(1, 5):
            want = reference.j0_series(2.0 * math.pi * k * 2.0 / 4.0)
            assert mu[k] == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("size_wl", [1e-3, 0.2, 0.38, 0.5, 2.0, 5.0, 1e6])
    def test_is_one_row_of_the_port_mu_block(self, size_wl):
        # the profile is the block's row N bit for bit, port 1 aside, and
        # the arithmetic it had, J0(2 pi (k/(N-1)) W); the block pads k >= N
        # with mu = 1, and its port k = N - 1 is J0(2 pi W)
        ns = np.array([2, 3, 7, 100, 2000, 4094])
        block = channel.port_mu(np.arange(4094), ns[:, None], size_wl)
        edge = sp.j0(2.0 * math.pi * size_wl)
        for n, row in zip(ns.tolist(), block):
            mu = correlation_profile(FasConfig(n, size_wl, 1.0))
            had = sp.j0(2.0 * np.pi * (np.arange(n) / (n - 1) * size_wl))
            assert mu[0] == 0.0
            assert mu[1:].tobytes() == row[1:n].tobytes() == had[1:].tobytes()
            assert np.all(row[n:] == 1.0)
            assert row[n - 1].tobytes() == edge.tobytes()
        one = correlation_profile(FasConfig(1, size_wl, 1.0))
        assert one.tolist() == [0.0]

    @pytest.mark.parametrize("size_wl", [1e-3, 0.2, 0.38, 0.5, 2.0, 5.0, 1e6])
    def test_first_lobe_end(self, size_wl):
        # J0(2 pi W) where mu falls from 1 over the whole aperture
        z = 2.0 * math.pi * size_wl
        want = sp.j0(z) if z < 2.404825557695773 else None
        assert channel.first_lobe_end(size_wl) == want

    # every public function that takes a profile, on the 2-port point
    # (1, 1) where one applies
    TAKERS = {
        "outage_exact_profile": lambda mu: outage_exact_profile(mu, 1.0),
        "outage_approx_profile": lambda mu: outage_approx_profile(mu, 1.0),
        "outage_upper_bound_profile": lambda mu: outage_upper_bound_profile(
            mu, 1.0, bound_constants()),
        "joint_pdf": lambda mu: joint_pdf(mu, [1.0, 1.0]),
        "joint_cdf": lambda mu: joint_cdf(mu, [1.0, 1.0]),
        "min_ports_general": lambda mu: min_ports_general(
            mu, DesignQuery(mrc_branches=2, snr_ratio=1.0,
                            constants=bound_constants())),
        "mc_outage_fas": lambda mu: mc_outage_fas(
            FasConfig(n_ports=2, size_wavelengths=1.0, snr_ratio=1.0),
            McSettings(trials=1000, seed=1), mu=mu),
        "draw_channels_batch": lambda mu: draw_channels_batch(mu, rng(), 10),
    }

    @pytest.mark.parametrize("bad", [
        pytest.param([1.0, 0.5], id="reference_one"),
        pytest.param([0.7, 0.5], id="reference_nonzero"),
        pytest.param([0.0, math.nan], id="nan"),
        pytest.param([0.0, 1.2], id="above_one"),
        pytest.param([], id="empty"),
        pytest.param(np.zeros((2, 2)), id="two_dimensional"),
    ])
    @pytest.mark.parametrize("taker", sorted(TAKERS))
    def test_every_taker_rejects_invalid_profile(self, taker, bad):
        # a reference port of 1 used to be dropped as degenerate, and the
        # port after it with it; a nonzero one was ignored
        with pytest.raises(ValueError):
            self.TAKERS[taker](bad)


class TestCorrelationDiscrepancy:
    def test_zero_against_reference_port(self):
        # first row/column compares mu_k with itself by construction
        c = FasConfig(n_ports=4, size_wavelengths=1.0, snr_ratio=1.0)
        gap = reference.correlation_discrepancy(correlation_profile(c),
                                                port_displacements(c))
        assert np.allclose(gap[0, :], 0.0, atol=1e-14)
        assert np.allclose(np.diag(gap), 0.0, atol=1e-14)

    def test_interport_gap_is_nonzero(self):
        # mu_2 * mu_3 generally differs from J0 of the separation
        c = FasConfig(n_ports=3, size_wavelengths=1.0, snr_ratio=1.0)
        gap = reference.correlation_discrepancy(correlation_profile(c),
                                                port_displacements(c))
        assert abs(gap[1, 2]) > 1e-3


class TestDrawChannels:
    def test_deterministic_for_fixed_seed(self):
        c = FasConfig(n_ports=4, size_wavelengths=1.0, snr_ratio=1.0)
        mu = correlation_profile(c)
        g1 = draw_channels_batch(mu, rng(123), 50)
        g2 = draw_channels_batch(mu, rng(123), 50)
        assert g1.shape == (50, 4)
        assert np.array_equal(g1, g2)

    def test_fully_correlated_ports_collapse(self):
        g = draw_channels_batch(np.array([0.0, 1.0, 1.0]), rng(5), 50)
        assert np.array_equal(g[:, 1], g[:, 0])
        assert np.array_equal(g[:, 2], g[:, 0])

    def test_reference_gain_is_common_part(self):
        # port 1 is the common pair (x0, y0): the stream's first 2n normals
        c = FasConfig(n_ports=3, size_wavelengths=0.5, snr_ratio=1.0)
        g = draw_channels_batch(correlation_profile(c), rng(9), 50)
        normals = rng(9).standard_normal(100) * np.sqrt(0.5)
        assert np.array_equal(g[:, 0], normals[:50] + 1j * normals[50:])

    def test_energy_normalization(self):
        c = FasConfig(n_ports=5, size_wavelengths=1.0, snr_ratio=1.0)
        mu = correlation_profile(c)
        g = draw_channels_batch(mu, rng(1), 200_000)
        power = np.abs(g) ** 2
        mean = power.mean(axis=0)
        se = power.std(axis=0) / math.sqrt(g.shape[0])
        assert np.all(np.abs(mean - 1.0) < 3.0 * se)

    def test_rayleigh_marginals_ks(self):
        c = FasConfig(n_ports=4, size_wavelengths=0.7, snr_ratio=1.0)
        g = draw_channels_batch(correlation_profile(c), rng(2), 100_000)
        env = np.abs(g)
        # unit-mean-square Rayleigh: cdf 1 - exp(-r^2), scale 1/sqrt(2)
        crit = 1.628 / math.sqrt(env.shape[0])  # 1% KS critical value
        for k in range(env.shape[1]):
            d_stat = stats.kstest(env[:, k], "rayleigh",
                                  args=(0.0, math.sqrt(0.5))).statistic
            assert d_stat < crit

    def test_component_correlations_match_profile(self):
        c = FasConfig(n_ports=5, size_wavelengths=0.6, snr_ratio=1.0)
        mu = correlation_profile(c)
        n = 1_000_000
        g = draw_channels_batch(mu, rng(3), n)
        re = np.real(g)
        im = np.imag(g)
        se = 0.5 / math.sqrt(n)  # components have variance 1/2
        for k in range(1, 5):
            assert np.mean(re[:, k] * re[:, 0]) == pytest.approx(
                mu[k] / 2.0, abs=4.0 * se)
            assert np.mean(im[:, k] * im[:, 0]) == pytest.approx(
                mu[k] / 2.0, abs=4.0 * se)
            assert abs(np.mean(re[:, k] * im[:, 0])) < 4.0 * se

    def test_independent_ports_uncorrelated(self):
        g = draw_channels_batch(np.array([0.0, 0.0]), rng(4), 1_000_000)
        corr = np.mean(np.real(g[:, 1]) * np.real(g[:, 0]))
        assert abs(corr) < 3e-3


class TestDopplerTraceConfig:
    def test_wavelength_and_doppler(self):
        d = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=1.0, sample_rate_hz=1000.0)
        assert d.wavelength_m == pytest.approx(0.05996, rel=1e-3)
        assert d.max_doppler_hz == pytest.approx(139.0, rel=1e-2)

    def test_nyquist_rejection(self):
        with pytest.raises(ValueError):
            DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=1.0, sample_rate_hz=200.0)

    def test_rejects_small_scatterer_count(self):
        with pytest.raises(ValueError):
            DopplerTraceConfig(speed_mps=1.0, carrier_hz=5e9, duration_s=1.0,
                               sample_rate_hz=1000.0, n_scatterers=4)

    def test_sample_count(self):
        def doppler(duration_s):
            return DopplerTraceConfig(speed_mps=1.0, carrier_hz=5e9,
                                      duration_s=duration_s,
                                      sample_rate_hz=1000.0)
        assert doppler(1.0).n_samples == 1000
        assert doppler(0.0006).n_samples == 1
        with pytest.raises(ValueError, match=">= 1 sample once rounded"):
            doppler(0.0004)
        with pytest.raises(ValueError, match="must be finite"):
            doppler(1e306)  # the product overflows to inf
        # row indices stay exact doubles up to 2**53 samples
        assert doppler(2.0 ** 53 / 1000.0).n_samples == 2 ** 53
        with pytest.raises(ValueError, match=r"at most 2\*\*53 samples"):
            doppler(2.0 ** 54 / 1000.0)

    @pytest.mark.parametrize("field", ["speed_mps", "carrier_hz", "duration_s",
                                       "sample_rate_hz"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_nan_infinite_and_negative_values(self, field, bad):
        values = dict(speed_mps=1.0, carrier_hz=5e9, duration_s=1.0,
                      sample_rate_hz=1000.0)
        values[field] = bad
        rule = ("must be finite" if field == "speed_mps"
                else "must be positive and finite")
        with pytest.raises(ValueError, match=f"^{field} {rule}"):
            DopplerTraceConfig(**values)


def trace_columns(c, d, seed):
    """t_norm, port_db (T, N), fas_db and mrc_db of the streamed trace."""
    table = reference.trace_table(c, d, rng(seed))
    return table[:, 0], table[:, 1:-2], table[:, -2], table[:, -1]


class NoDraws:
    """An rng stand-in whose every draw raises `NoDraws.Drew`."""

    class Drew(Exception):
        pass

    def uniform(self, *args, **kwargs):
        raise NoDraws.Drew


class TestEnvelopeTrace:
    DOPPLER = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                                 duration_s=1.0, sample_rate_hz=1000.0)

    def test_zero_speed_is_static(self):
        c = FasConfig(n_ports=8, size_wavelengths=1.0, snr_ratio=1.0)
        d = DopplerTraceConfig(speed_mps=0.0, carrier_hz=5e9, duration_s=0.5,
                               sample_rate_hz=100.0)
        _, port_db, _, mrc_db = trace_columns(c, d, 6)
        assert np.allclose(port_db, port_db[0], atol=1e-9)
        assert np.allclose(mrc_db, mrc_db[0], atol=1e-9)

    def test_deep_fade_spread(self):
        # many closely spaced ports span tens of dB at some instants
        c = FasConfig(n_ports=100, size_wavelengths=2.0, snr_ratio=1.0)
        d = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=10.0, sample_rate_hz=1000.0)
        _, port_db, _, _ = trace_columns(c, d, 7)
        spread = port_db.max(axis=1) - port_db.min(axis=1)
        assert np.mean(spread >= 30.0) >= 0.01

    def test_selection_hardening(self):
        c = FasConfig(n_ports=100, size_wavelengths=2.0, snr_ratio=1.0)
        d = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=10.0, sample_rate_hz=1000.0)
        _, port_db, fas_db, _ = trace_columns(c, d, 8)
        assert fas_db.var() < port_db.var(axis=0).min()

    def test_temporal_autocorrelation(self):
        # Re{g_1(t)} autocorrelation at lag 1/(4 f_m) tracks 0.5*J0(pi/2);
        # Re{g_1} is x0, the trace's first process, from rng(10)'s first draws
        d = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=10.0, sample_rate_hz=2000.0,
                               n_scatterers=256)
        theta, phase = rng(10).uniform(0.0, 2.0 * np.pi, (2, 256))
        freqs = 2.0 * np.pi * d.max_doppler_hz * np.cos(theta)
        n_blocks = -(-d.n_samples // channel._SOS_BLOCK)
        re = channel._sos_chunk(freqs, phase, 0, n_blocks,
                                d.sample_rate_hz)[:d.n_samples]
        lag = int(round(d.sample_rate_hz / (4.0 * d.max_doppler_hz)))
        ac = np.mean(re[:-lag] * re[lag:])
        want = 0.5 * sp.j0(2.0 * math.pi * d.max_doppler_hz
                           * lag / d.sample_rate_hz)
        assert ac == pytest.approx(want, abs=0.05)

    @pytest.mark.parametrize("n_ports, mrc_branches", [
        (3, 10 ** 9),        # about 2 TB of angles
        (10 ** 6, 2),        # about 2 GB
        (4095, 2),           # 2 KiB over the budget
    ])
    def test_rejects_angles_over_budget_before_drawing(self, n_ports,
                                                       mrc_branches):
        c = FasConfig(n_ports=n_ports, size_wavelengths=2.0, snr_ratio=1.0)
        with pytest.raises(ValueError, match="trace budget"):
            envelope_trace(c, self.DOPPLER, NoDraws(), mrc_branches)

    @pytest.mark.parametrize("mrc_branches", [0, -1])
    def test_rejects_mrc_branches_before_drawing(self, mrc_branches):
        # 0 once wrote an MRC column of -3000 dB on every row, and -1 ended
        # in RuntimeError: generator raised StopIteration
        c = FasConfig(n_ports=3, size_wavelengths=2.0, snr_ratio=1.0)
        with pytest.raises(ValueError, match="mrc_branches must be"):
            envelope_trace(c, self.DOPPLER, NoDraws(), mrc_branches)

    def test_angles_filling_the_budget_are_drawn(self):
        # (2 * 4094 + 2 * 2) x 2 x 64 doubles are exactly 8 MiB
        c = FasConfig(n_ports=4094, size_wavelengths=2.0, snr_ratio=1.0)
        with pytest.raises(NoDraws.Drew):
            envelope_trace(c, self.DOPPLER, NoDraws())

    @pytest.mark.parametrize("n_ports", [1, 2, 4, 100, 4094])
    @pytest.mark.parametrize("size_wl", [1e-3, 0.5, 2.0, 1e6])
    def test_profile_is_correlation_profiles(self, monkeypatch, n_ports,
                                             size_wl):
        # the trace takes mu from the numpy J0, which loads no scipy; it must
        # be correlation_profile's, from scipy's J0, bit for bit
        seen = []
        monkeypatch.setattr(channel, "_trace_rows",
                            lambda mu, *rest: seen.append(mu))
        c = FasConfig(n_ports=n_ports, size_wavelengths=size_wl, snr_ratio=1.0)
        envelope_trace(c, self.DOPPLER, rng(0))
        want = correlation_profile(c)
        assert seen[0].shape == want.shape
        assert np.array_equal(seen[0].view(np.int64), want.view(np.int64))

    def test_fas_column_is_port_maximum(self):
        c = FasConfig(n_ports=6, size_wavelengths=1.0, snr_ratio=1.0)
        d = DopplerTraceConfig(speed_mps=5.0, carrier_hz=5e9, duration_s=0.5,
                               sample_rate_hz=500.0)
        _, port_db, fas_db, _ = trace_columns(c, d, 11)
        assert np.array_equal(fas_db, port_db.max(axis=1))


def plain_state(generator):
    """The generator's bit_generator.state with its arrays as lists, so two
    states compare with ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v
    return plain(generator.bit_generator.state)


class TestPhasorTable:
    """`channel._phasor_table` against a direct complex exponential."""

    @staticmethod
    def check(count, spacing, start):
        # Dyadic rate, frequencies and phases keep every argument exact in
        # both forms, so the comparison sees only the factoring, not how
        # each form rounds w * t + p.
        gen = np.random.default_rng(5)
        freqs = gen.integers(-14_000, 14_000, 8) / 16.0  # up to ~875 rad/s
        phase = gen.integers(0, 402, 8) / 64.0           # [0, 2 pi)
        rate = 1024.0
        got = channel._phasor_table(freqs, count, spacing, rate, phase,
                                    start=start)
        outer = np.outer((start + np.arange(count)) * spacing / rate, freqs)
        want = np.exp(1j * (outer + phase))
        assert got.shape == want.shape == (count, 8)
        assert np.max(np.abs(outer), initial=0.0) < 5.2e4
        assert np.max(np.abs(got - want), initial=0.0) < 1e-13

    @pytest.mark.parametrize("count, spacing", [
        (0, 1), (1, 1), (2, 128), (8, 128), (9, 128), (10, 128), (128, 1),
        (469, 128),     # the 60-s trace's block starts
        (60_000, 1),    # every sample of the 60-s trace: up to ~5e4 rad
    ])
    def test_matches_direct_exp(self, count, spacing):
        self.check(count, spacing, 0)

    @pytest.mark.parametrize("count, spacing, start", [
        (79, 128, 79),   # the second chunk of the 100-port trace
        (3, 128, 79),    # a short last chunk
        (10, 128, 391),
        (1, 128, 468),   # the 60-s trace's last block
        (0, 128, 5),
        (1000, 1, 59_000),
    ])
    def test_matches_direct_exp_from_block_offset(self, count, spacing, start):
        # a later chunk of the trace starts its block table at `start`
        self.check(count, spacing, start)


class TestSosKernel:
    """The blocked-matmul sum of sinusoids against the per-scatterer loop it
    replaced (`reference.sos_process_loop`)."""

    @pytest.mark.parametrize("n_samples", [
        0, 1, 5, channel._SOS_BLOCK - 1, channel._SOS_BLOCK,
        channel._SOS_BLOCK + 1, 7 * channel._SOS_BLOCK + 33,
        # 8, 9 and 10 blocks: 3**2 - 1, 3**2 and 3**2 + 1, the edges of the
        # block-start table's 3 x 3 factoring
        8 * channel._SOS_BLOCK, 9 * channel._SOS_BLOCK - 7,
        9 * channel._SOS_BLOCK + 1])
    def test_matches_loop_at_any_sample_count(self, n_samples):
        self.check(n_samples, 0)

    # within the sample range above, where the loop's own rounding of
    # w t + p stays below the bound
    @pytest.mark.parametrize("n_samples, start", [
        (1, 1), (5, 8), (channel._SOS_BLOCK, 3),
        (7 * channel._SOS_BLOCK + 33, 1)])
    def test_matches_loop_from_block_offset(self, n_samples, start):
        self.check(n_samples, start)

    @staticmethod
    def check(n_samples, start):
        # the kernel from block `start` on, against the loop's samples there;
        # drawing every angle and then every phase in one call consumes the
        # stream as the loop's two calls do
        fast_rng, loop_rng = rng(3), rng(3)
        theta, phase = fast_rng.uniform(0.0, 2.0 * np.pi, (2, 16))
        freqs = 2.0 * np.pi * 139.0 * np.cos(theta)
        n_blocks = -(-n_samples // channel._SOS_BLOCK)
        got = channel._sos_chunk(freqs, phase, start, n_blocks,
                                 1000.0)[:n_samples]
        skip = start * channel._SOS_BLOCK
        want = reference.sos_process_loop(loop_rng, 139.0, skip + n_samples,
                                          1000.0, 16)[skip:]
        assert got.shape == want.shape == (n_samples,)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
        assert plain_state(fast_rng) == plain_state(loop_rng)

    @pytest.mark.parametrize("n_ports, duration_s, scatterers", [
        (100, 10.0, 64),   # the CLI's default trace: 10,000 samples
        (4, 60.0, 16),     # 60,000 samples: still within 1e-10 at the end
        (3, 0.3005, 16),   # 301 samples, not a multiple of the block
        (3, 0.05, 16),     # 50 samples, shorter than one block
        (100, 10.5, 16),   # two chunks, the last one ending mid-block
    ])
    def test_trace_matches_loop_and_rng_consumption(self, n_ports, duration_s,
                                                    scatterers):
        c = FasConfig(n_ports=n_ports, size_wavelengths=2.0, snr_ratio=1.0)
        d = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=duration_s, sample_rate_hz=1000.0,
                               n_scatterers=scatterers)
        fast_rng, loop_rng = rng(7), rng(7)
        table = reference.trace_table(c, d, fast_rng)
        gains, fas_db, mrc_db = reference.envelope_trace_loop(c, d, loop_rng)
        n_samples = int(round(duration_s * 1000.0))
        assert table.shape == (n_samples, n_ports + 3)
        assert gains.shape == (n_samples, n_ports)
        assert np.max(np.abs(envelope(table[:, 1:-2]) - np.abs(gains))) < 1e-10
        assert np.max(np.abs(envelope(table[:, -2]) - envelope(fas_db))) < 1e-10
        assert np.max(np.abs(envelope(table[:, -1]) - envelope(mrc_db))) < 1e-10
        assert plain_state(fast_rng) == plain_state(loop_rng)

    def test_chunks_match_one_chunk(self, monkeypatch):
        # a budget one byte below one block's rows (5 ports + 3 columns)
        # makes every 128-sample block a chunk of its own; the trace's
        # 3,584 bytes of angles still fit in it
        c = FasConfig(n_ports=5, size_wavelengths=2.0, snr_ratio=1.0)
        d = DopplerTraceConfig(speed_mps=30.0 / 3.6, carrier_hz=5e9,
                               duration_s=1.1, sample_rate_hz=1000.0,
                               n_scatterers=16)
        whole = reference.trace_table(c, d, rng(9))
        blocks = [block.shape[0] for block in envelope_trace(c, d, rng(9))]
        monkeypatch.setattr(channel, "_TRACE_BUDGET",
                            8 * (5 + 3) * channel._SOS_BLOCK - 1)
        chunked = reference.trace_table(c, d, rng(9))
        assert blocks == [1100]
        assert [block.shape[0] for block in envelope_trace(c, d, rng(9))] == \
            [channel._SOS_BLOCK] * 8 + [76]
        assert np.array_equal(chunked[:, 0], whole[:, 0])
        assert np.max(np.abs(envelope(chunked[:, 1:]) - envelope(whole[:, 1:]))) < 1e-10


def envelope(db):
    """The envelope |g| of a dB column."""
    return 10.0 ** (np.asarray(db) / 20.0)
