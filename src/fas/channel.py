"""Port geometry, spatial correlation profiles, and correlated Rayleigh draws.

The model ties every port to port 1 through a shared in-phase/quadrature
pair, with per-port correlation mu_k = J0(2*pi*d_k/lambda).  Sigma is fixed
at 1: every analytic quantity downstream depends only on the SNR ratio.
A correlation profile is the 1-D float array of those mu_k, port 1 first;
`checked_mu` holds its rules, and every function that takes one calls it;
`port_mu` alone maps ports to mu, for one profile or a block of them.
`checked_positive` does the same for a value that must be positive and
finite, `checked_nonnegative` for one that may also be 0, `checked_snr` for
an SNR ratio, `checked_size` for an aperture and `checked_count` for a
count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._special import j0, sp

SPEED_OF_LIGHT = 299_792_458.0

# Ports more correlated than this are statistically indistinguishable from
# port 1 and are dropped by the analytic evaluators.
DEGENERATE_MU = 1.0 - 1e-9


def checked_count(value, name: str, least: int = 1) -> int:
    """value as an int, once it is a whole number >= least and not a bool:
    150.0 is one; inf and NaN are not, and never reach int(), and a str or
    None fails by the same ValueError."""
    try:
        whole = least <= value < math.inf and int(value) == value
    except TypeError:  # no order against an int: "100", None
        whole = False
    if isinstance(value, (bool, np.bool_)) or not whole:
        raise ValueError(f"{name} must be a whole number >= {least}, "
                         f"got {value!r}")
    return int(value)


def checked_positive(value, name: str) -> float:
    """value as a float, once 0 < value < inf (NaN is not)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def checked_nonnegative(value, name: str) -> float:
    """value as a float, once 0 <= value < inf (NaN is not)."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def checked_size(value, name: str) -> float:
    """An aperture W in wavelengths as a float, once it is positive and
    2 pi W is finite, so that every port's J0(2 pi d) is a number."""
    size = checked_positive(value, name)
    if not 2.0 * math.pi * size < math.inf:
        raise ValueError(f"{name} must keep 2 pi {name} finite, got {value}")
    return size


def checked_snr(x) -> float:
    """The SNR ratio x as a float, once 0 < x < inf."""
    return checked_positive(x, "snr_ratio")


def checked_mu(mu) -> np.ndarray:
    """A correlation profile as a float array, once its rules hold.

    A profile is the 1-D array of mu_k, one per port, port 1 first: at
    least one port, mu[0] = 0 for the reference port, and every |mu_k| <= 1.
    Any other input, NaN entries included, raises ValueError.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 1:
        raise ValueError("a profile is a 1-D array of at least one mu_k, "
                         f"got shape {mu.shape}")
    if mu[0] != 0.0:
        raise ValueError("mu[0] is the reference port and must be 0, "
                         f"got {mu[0]}")
    return checked_mu_range(mu)


def checked_mu_range(mu) -> np.ndarray:
    """mu, of any shape, as a float array once every |mu_k| <= 1 (NaN is
    not); the error names the first entry that is not."""
    mu = np.asarray(mu, dtype=float)
    inside = np.abs(mu) <= 1.0
    if not inside.all():
        at = np.unravel_index(np.argmin(inside), mu.shape)
        raise ValueError("|mu_k| must be <= 1 and not NaN, got "
                         f"mu[{', '.join(map(str, at))}] = {mu[at]}")
    return mu


def is_degenerate(mu) -> np.ndarray:
    """|mu_k| > `DEGENERATE_MU`: the ports that are port 1 over again."""
    return np.abs(mu) > DEGENERATE_MU


def active_mu(mu) -> np.ndarray:
    """The checked profile mu without its degenerate ports; the reference
    port, mu[0] = 0, always stays."""
    mu = checked_mu(mu)
    return mu[~is_degenerate(mu)]


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
        object.__setattr__(self, "n_ports",
                           checked_count(self.n_ports, "n_ports"))
        checked_size(self.size_wavelengths, "size_wavelengths")
        checked_snr(self.snr_ratio)


def port_displacements(config: FasConfig) -> np.ndarray:
    """Evenly spaced port positions d_k = (k-1)/(N-1) * W, in wavelengths."""
    n = config.n_ports
    return np.arange(n) / max(n - 1, 1) * config.size_wavelengths


def port_mu(k, n, size_wl: float) -> np.ndarray:
    """mu = J0(2 pi d) of the ports k = 0, 1, ... of N-port rows at aperture
    W, d = k/(N-1) * W, with k and N (>= 2) broadcast against each other.
    A port k >= N is padding: port 1 itself, mu = 1, from J0's argument 0,
    since its d would exceed W and 2 pi d can overflow."""
    return sp.j0(2.0 * np.pi * (np.where(k < n, k, 0) / (n - 1) * size_wl))


def first_lobe_end(size_wl: float) -> float | None:
    """mu_W = J0(2 pi W) if mu falls from 1 to it over the aperture, where
    2 pi W < j_{0,1} = 2.404825557695773 (J0's first zero); else None."""
    return (port_mu(1, 2, size_wl)
            if 2.0 * math.pi * size_wl < 2.404825557695773 else None)


def correlation_profile(config: FasConfig) -> np.ndarray:
    """Jakes-model profile: row N of `port_mu`, mu_1 = 0 ([0.0] at N = 1)."""
    n = config.n_ports
    mu = port_mu(np.arange(n), max(n, 2), config.size_wavelengths)
    mu[0] = 0.0
    return mu


def draw_channels_batch(mu, rng: np.random.Generator, n: int) -> np.ndarray:
    """n stacked realizations of all ports of the profile mu, shape (n, N).

    Consumption order is fixed (x0, y0, then the per-port x block, then the
    per-port y block) so a given stream state always produces the same draw.
    """
    mu = checked_mu(mu)
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
        checked_nonnegative(self.speed_mps, "speed_mps")
        for name in ("carrier_hz", "duration_s", "sample_rate_hz"):
            checked_positive(getattr(self, name), name)
        object.__setattr__(self, "n_scatterers",
                           checked_count(self.n_scatterers, "n_scatterers", 8))
        samples = self.duration_s * self.sample_rate_hz
        if not (samples < np.inf and self.n_samples >= 1):
            raise ValueError("duration_s * sample_rate_hz must be finite and "
                             f">= 1 sample once rounded, got {samples!r}")
        # Row n's time is the double n / sample_rate_hz, and doubles count
        # every integer only up to 2**53.  The trace streams, so no
        # allocation would stop a longer one from running without end.
        if self.n_samples > 2 ** 53:
            raise ValueError("duration_s * sample_rate_hz must be at most "
                             f"2**53 samples, got {samples!r}")
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


_ENV_FLOOR = 1e-150  # keeps log10 finite on astronomically deep fades

_SOS_BLOCK = 128  # samples per block of the sum-of-sinusoids product

# Bytes of the one row buffer an envelope trace fills per chunk: 79 blocks
# (10,112 rows) at 100 ports, so the default trace is a single chunk and
# memory does not grow with the duration.
_TRACE_BUDGET = 8 * 2**20


def _phasor_table(freqs: np.ndarray, count: int, spacing: int,
                  sample_rate_hz: float, phase=0.0, start: int = 0) -> np.ndarray:
    """e^{i (w_m t_n + phase_m)} at t_n = (start + n) * spacing / sample_rate_hz
    for n < count, shape (count, M).

    With n = q s + r and s = ceil(sqrt(count)), each entry is the product of
    e^{i (w_m (start + q s) spacing / f_s + phase_m)} and
    e^{i w_m r spacing / f_s}: about 2 sqrt(count) complex exponentials per
    frequency, not count.  Both factors come from their own index, not from a
    running recurrence, so rounding does not accumulate along the table.
    """
    s = math.isqrt(max(count - 1, 0)) + 1
    n_coarse = -(-count // s)
    coarse = np.exp(1j * (np.outer((start + np.arange(n_coarse) * s) * spacing
                                   / sample_rate_hz, freqs) + phase))
    fine = np.exp(1j * np.outer(np.arange(s) * spacing / sample_rate_hz, freqs))
    return (coarse[:, None, :] * fine).reshape(n_coarse * s, freqs.size)[:count]


def _sos_chunk(freqs: np.ndarray, phase: np.ndarray, start: int,
               n_blocks: int, sample_rate_hz: float) -> np.ndarray:
    """Sum-of-sinusoids Gaussian process, variance 1/2, Jakes spectrum,
    sampled at t_n = n / sample_rate_hz for the n_blocks * B samples from
    n = start * B on (B = `_SOS_BLOCK`).

    With t = (kB + b) / f_s, sum_m cos(w_m t + p_m) is the real part of a
    (blocks x scatterers) @ (scatterers x B) complex product H T of
    e^{i w_m kB/f_s} and e^{i (w_m b/f_s + p_m)}, both from `_phasor_table`.
    Only that real part, Re H Re T - Im H Im T, is computed: one real
    product of H's float view (Re, Im per scatterer) with that of T's
    conjugate (Re, -Im).
    """
    head = _phasor_table(freqs, n_blocks, _SOS_BLOCK, sample_rate_hz,
                         start=start)
    tail = _phasor_table(freqs, _SOS_BLOCK, 1, sample_rate_hz, phase)
    out = (head.view(float) @ tail.conj().view(float).T).ravel()
    return out / np.sqrt(freqs.size)


def envelope_trace(config: FasConfig, doppler: DopplerTraceConfig,
                   rng: np.random.Generator,
                   mrc_branches: int = 2) -> Iterator[np.ndarray]:
    """Correlated port envelopes over time, with an L-branch MRC reference,
    as float64 row blocks with the columns t_norm (v t / lambda),
    port_1_db ... port_N_db, fas_db (the port maximum) and mrc_db.

    Each underlying Gaussian component evolves as an independent
    sum-of-sinusoids process whose autocorrelation approaches
    0.5 * J0(2*pi*f_m*tau); the spatial mixing is applied per time sample.
    Every process's M angles and then M phases are drawn here, in one call,
    in the order x0, y0, then xk, yk per port, then each MRC branch's pair.
    mrc_branches, L, must be a whole number >= 1, and a request whose
    (2N + 2L) x 2 x M angles would take more than `_TRACE_BUDGET` bytes
    raises ValueError before any draw.
    The rows are computed as the returned generator is iterated, in chunks
    of whole `_SOS_BLOCK`-sample blocks that fill at most `_TRACE_BUDGET`
    bytes.  Every block is a view of one buffer that the next block
    overwrites: copy a block to keep it.
    """
    mrc_branches = checked_count(mrc_branches, "mrc_branches")
    n_proc = 2 * config.n_ports + 2 * mrc_branches
    angle_bytes = 8 * n_proc * 2 * doppler.n_scatterers
    if angle_bytes > _TRACE_BUDGET:
        raise ValueError(
            f"{config.n_ports} ports, {mrc_branches} MRC branches and "
            f"{doppler.n_scatterers} scatterers need {angle_bytes} bytes of "
            f"sum-of-sinusoids angles, over the {_TRACE_BUDGET}-byte trace "
            "budget")
    # correlation_profile's mu, from the numpy J0: it equals scipy's bit
    # for bit, and the trace loads no scipy
    mu = j0(2.0 * np.pi * port_displacements(config))
    mu[0] = 0.0
    angles = rng.uniform(0.0, 2.0 * np.pi, (n_proc, 2, doppler.n_scatterers))
    freqs = 2.0 * np.pi * doppler.max_doppler_hz * np.cos(angles[:, 0])
    return _trace_rows(mu, freqs, angles[:, 1], doppler)


def _envelope_db(g: np.ndarray, out: np.ndarray) -> None:
    """20 log10 |g| into `out`, with |g| floored at `_ENV_FLOOR`."""
    np.multiply(20.0, np.log10(np.maximum(np.abs(g), _ENV_FLOOR)), out=out)


def _trace_rows(mu: np.ndarray, freqs: np.ndarray, phases: np.ndarray,
                doppler: DopplerTraceConfig) -> Iterator[np.ndarray]:
    n_ports = mu.size
    fs = doppler.sample_rate_hz
    n_samples = doppler.n_samples
    chunk = _SOS_BLOCK * max(1, _TRACE_BUDGET // (8 * (n_ports + 3) * _SOS_BLOCK))
    buf = np.empty((min(chunk, n_samples), n_ports + 3))
    for r0 in range(0, n_samples, chunk):
        table = buf[:min(chunk, n_samples - r0)]
        rows = len(table)
        n_blocks = -(-rows // _SOS_BLOCK)
        # every process over this chunk's rows, one at a time in draw order
        procs = (_sos_chunk(f, p, r0 // _SOS_BLOCK, n_blocks, fs)[:rows]
                 for f, p in zip(freqs, phases))
        t = np.arange(r0, r0 + rows) / fs
        table[:, 0] = doppler.speed_mps * t / doppler.wavelength_m
        x0, y0 = next(procs), next(procs)
        _envelope_db(x0 + 1j * y0, table[:, 1])
        for k in range(1, n_ports):
            root = np.sqrt(1.0 - mu[k] ** 2)
            xk, yk = next(procs), next(procs)
            _envelope_db((root * xk + mu[k] * x0) + 1j * (root * yk + mu[k] * y0),
                         table[:, k + 1])
        table[:, -2] = table[:, 1:-2].max(axis=1)
        mrc_sq = np.zeros(rows)
        for hx, hy in zip(procs, procs):  # the MRC branches' pairs remain
            mrc_sq += hx ** 2 + hy ** 2
        table[:, -1] = 10.0 * np.log10(np.maximum(mrc_sq, _ENV_FLOOR ** 2))
        yield table
