"""Port geometry, spatial correlation profiles, and correlated Rayleigh draws.

The model ties every port to port 1 through a shared in-phase/quadrature
pair, with per-port correlation mu_k = J0(2*pi*d_k/lambda).  Sigma is fixed
at 1: every analytic quantity downstream depends only on the SNR ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

SPEED_OF_LIGHT = 299_792_458.0

# Ports more correlated than this are statistically indistinguishable from
# port 1 and are dropped by the analytic evaluators.
DEGENERATE_MU = 1.0 - 1e-9


def active_mu(mu) -> np.ndarray:
    """The profile mu without its degenerate ports, which contribute nothing.

    A NaN entry or one with |mu_k| > 1 raises ValueError instead of being
    dropped as degenerate.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all(np.abs(mu) <= 1.0):
        raise ValueError(f"|mu_k| must be <= 1 and not NaN, got {mu.tolist()}")
    return mu[np.abs(mu) <= DEGENERATE_MU]


@dataclass(frozen=True)
class FasConfig:
    """Independent variables of one experiment.

    n_ports: number of candidate antenna positions N.
    size_wavelengths: linear aperture W in wavelengths.
    snr_ratio: threshold-to-average SNR ratio (linear, not dB).
    """

    n_ports: int
    size_wavelengths: float
    snr_ratio: float

    def __post_init__(self):
        if int(self.n_ports) != self.n_ports or self.n_ports < 1:
            raise ValueError(f"n_ports must be an integer >= 1, got {self.n_ports}")
        if not (self.size_wavelengths > 0):
            raise ValueError(f"size_wavelengths must be > 0, got {self.size_wavelengths}")
        if not (self.snr_ratio > 0):
            raise ValueError(f"snr_ratio must be > 0, got {self.snr_ratio}")


@dataclass(frozen=True)
class CorrelationProfile:
    """Per-port correlation coefficients and displacements (wavelengths)."""

    mu: np.ndarray
    displacements: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        d = np.asarray(self.displacements, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "displacements", d)
        if mu.shape != d.shape:
            raise ValueError("mu and displacements must have equal length")
        if mu.size < 1:
            raise ValueError("profile must contain at least one port")
        if mu[0] != 0.0:
            raise ValueError("mu[0] is the reference port and must be 0")
        if not np.all(np.abs(mu) <= 1.0):
            raise ValueError("|mu_k| must not exceed 1 or be NaN")
        if d[0] != 0.0 or np.any(np.diff(d) < 0):
            raise ValueError("displacements must start at 0 and be nondecreasing")

    @property
    def n_ports(self) -> int:
        return int(self.mu.size)


def port_displacements(config: FasConfig) -> np.ndarray:
    """Evenly spaced port positions d_k = (k-1)/(N-1) * W, in wavelengths."""
    n = config.n_ports
    if n == 1:
        return np.zeros(1)
    return np.arange(n) / (n - 1) * config.size_wavelengths


def correlation_profile(config: FasConfig) -> CorrelationProfile:
    """Jakes-model spatial profile: mu_k = J0(2*pi*d_k) with mu_1 = 0."""
    d = port_displacements(config)
    mu = sp.j0(2.0 * np.pi * d)
    mu[0] = 0.0
    return CorrelationProfile(mu=mu, displacements=d)


def draw_channels_batch(profile: CorrelationProfile, rng: np.random.Generator,
                        n: int) -> np.ndarray:
    """n stacked realizations of all ports, shape (n, N).

    Consumption order is fixed (x0, y0, then the per-port x block, then the
    per-port y block) so a given stream state always produces the same draw.
    """
    mu = profile.mu
    n_ports = mu.size
    scale = np.sqrt(0.5)
    x0 = rng.standard_normal(n) * scale
    y0 = rng.standard_normal(n) * scale
    common = x0 + 1j * y0
    if n_ports == 1:
        return common[:, None]
    xk = rng.standard_normal((n, n_ports - 1)) * scale
    yk = rng.standard_normal((n, n_ports - 1)) * scale
    root = np.sqrt(1.0 - mu[1:] ** 2)
    g = (root * xk + mu[1:] * x0[:, None]) + 1j * (root * yk + mu[1:] * y0[:, None])
    return np.concatenate([common[:, None], g], axis=1)


@dataclass(frozen=True)
class DopplerTraceConfig:
    """Time-selective trace parameters (classic 2-D isotropic scattering)."""

    speed_mps: float
    carrier_hz: float
    duration_s: float
    sample_rate_hz: float
    n_scatterers: int = 64

    def __post_init__(self):
        if not (0 <= self.speed_mps < np.inf):
            raise ValueError("speed_mps must be finite and nonnegative")
        if not all(0 < v < np.inf for v in
                   (self.carrier_hz, self.duration_s, self.sample_rate_hz)):
            raise ValueError("carrier_hz, duration_s and sample_rate_hz must "
                             "be finite and > 0")
        if self.n_scatterers < 8:
            raise ValueError("n_scatterers must be >= 8")
        samples = self.duration_s * self.sample_rate_hz
        if not (samples < np.inf and self.n_samples >= 1):
            raise ValueError("duration_s * sample_rate_hz must be finite and "
                             f">= 1 sample once rounded, got {samples!r}")
        if self.sample_rate_hz <= 2.0 * self.max_doppler_hz:
            raise ValueError(
                f"sample_rate_hz={self.sample_rate_hz} violates Nyquist for "
                f"max Doppler {self.max_doppler_hz:.3f} Hz")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def max_doppler_hz(self) -> float:
        return self.speed_mps / self.wavelength_m

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


@dataclass(frozen=True)
class EnvelopeTrace:
    """Time-indexed port envelopes plus selection/MRC references (dB)."""

    t_norm: np.ndarray          # v * t / lambda
    port_db: np.ndarray         # (T, N)
    fas_db: np.ndarray          # max-over-ports envelope
    mrc_db: np.ndarray          # sqrt(sum |h|^2) over independent branches
    gains: np.ndarray = field(repr=False, default=None)  # (T, N) complex


_ENV_FLOOR = 1e-150  # keeps log10 finite on astronomically deep fades

_SOS_BLOCK = 128  # samples per block of the sum-of-sinusoids product


def _phasor_table(freqs: np.ndarray, count: int, spacing: int,
                  sample_rate_hz: float, phase=0.0) -> np.ndarray:
    """e^{i (w_m t_n + phase_m)} at t_n = n * spacing / sample_rate_hz for
    n < count, shape (count, M).

    With n = q s + r and s = ceil(sqrt(count)), each entry is the product of
    e^{i (w_m q s spacing / f_s + phase_m)} and e^{i w_m r spacing / f_s}:
    about 2 sqrt(count) complex exponentials per frequency, not count.  Both
    factors come from their own index, not from a running recurrence, so
    rounding does not accumulate along the table.
    """
    s = math.isqrt(max(count - 1, 0)) + 1
    n_coarse = -(-count // s)
    coarse = np.exp(1j * (np.outer(np.arange(n_coarse) * (s * spacing)
                                   / sample_rate_hz, freqs) + phase))
    fine = np.exp(1j * np.outer(np.arange(s) * spacing / sample_rate_hz, freqs))
    return (coarse[:, None, :] * fine).reshape(n_coarse * s, freqs.size)[:count]


def _sos_process(rng: np.random.Generator, f_m: float, n_samples: int,
                 sample_rate_hz: float, n_scatterers: int) -> np.ndarray:
    """Sum-of-sinusoids Gaussian process, variance 1/2, Jakes spectrum,
    sampled at t_n = n / sample_rate_hz for n < n_samples.

    With t = (kB + b) / f_s, sum_m cos(w_m t + p_m) is the real part of a
    (blocks x scatterers) @ (scatterers x B) complex product H T of
    e^{i w_m kB/f_s} and e^{i (w_m b/f_s + p_m)}, both from `_phasor_table`.
    Only that real part, Re H Re T - Im H Im T, is computed: one real
    product of H's float view (Re, Im per scatterer) with that of T's
    conjugate (Re, -Im).
    """
    theta = rng.uniform(0.0, 2.0 * np.pi, n_scatterers)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_scatterers)
    freqs = 2.0 * np.pi * f_m * np.cos(theta)
    n_blocks = -(-n_samples // _SOS_BLOCK)
    head = _phasor_table(freqs, n_blocks, _SOS_BLOCK, sample_rate_hz)
    tail = _phasor_table(freqs, _SOS_BLOCK, 1, sample_rate_hz, phase)
    out = (head.view(float) @ tail.conj().view(float).T).ravel()[:n_samples]
    return out / np.sqrt(n_scatterers)


def envelope_trace(config: FasConfig, doppler: DopplerTraceConfig,
                   rng: np.random.Generator, mrc_branches: int = 2) -> EnvelopeTrace:
    """Correlated port envelopes over time, with an L-branch MRC reference.

    Each underlying Gaussian component evolves as an independent
    sum-of-sinusoids process whose autocorrelation approaches
    0.5 * J0(2*pi*f_m*tau); the spatial mixing is applied per time sample.
    """
    profile = correlation_profile(config)
    f_m = doppler.max_doppler_hz
    fs = doppler.sample_rate_hz
    n_samples = doppler.n_samples
    t = np.arange(n_samples) / fs
    m = doppler.n_scatterers

    def process():
        return _sos_process(rng, f_m, n_samples, fs, m)

    x0 = process()
    y0 = process()
    mu = profile.mu
    gains = np.empty((n_samples, mu.size), dtype=complex)
    gains[:, 0] = x0 + 1j * y0
    for k in range(1, mu.size):
        root = np.sqrt(1.0 - mu[k] ** 2)
        xk = process()
        yk = process()
        gains[:, k] = (root * xk + mu[k] * x0) + 1j * (root * yk + mu[k] * y0)

    env = np.maximum(np.abs(gains), _ENV_FLOOR)
    port_db = 20.0 * np.log10(env)
    fas_db = port_db.max(axis=1)

    mrc_sq = np.zeros(n_samples)
    for _ in range(mrc_branches):
        hx = process()
        hy = process()
        mrc_sq += hx ** 2 + hy ** 2
    mrc_db = 10.0 * np.log10(np.maximum(mrc_sq, _ENV_FLOOR ** 2))

    t_norm = doppler.speed_mps * t / doppler.wavelength_m
    return EnvelopeTrace(t_norm=t_norm, port_db=port_db, fas_db=fas_db,
                         mrc_db=mrc_db, gains=gains)
