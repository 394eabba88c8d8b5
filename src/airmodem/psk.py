"""Binary and differential phase-shift keying over a near-ultrasonic carrier.

Both share one complex-baseband symbol core: cos(w*(i*spb + j) + phi_i) =
Re(a_i * exp(j*w*j)) with a_i = A*exp(j*(w*i*spb + phi_i)), tapered around
phase steps so the transitions do not splatter clicks into the audible band.
Receivers reject a signal sampled at another rate than the config's, and
correlate each symbol with the same template into z_i.  BPSK keys the
absolute phase (0 or pi) and decides on Re(z_i) against a delay-aligned
reference; DPSK keys phase *changes* and decides on Re(z_i * conj(z_{i-1})).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NyquistViolationError,
    SyncNotFoundError,
)
from .signals import AudioSignal, _Link, _as_bits, _check_count, _check_same_rate, _fft_length

DEFAULT_HEADER_BITS = (1, 0) * 8  # alternating sync pattern, 16 bits


@dataclass(frozen=True)
class PskConfig(_Link):
    """Carrier, rate and shaping parameters shared by BPSK and DPSK."""

    carrier_hz: float = 19200.0
    bit_rate_bps: float = 200.0
    sample_rate_hz: int = 96000
    amplitude: float = 0.8
    # Fraction of a bit period tapered on each side of a phase step.  0.125
    # keeps the transition splatter in 0-17 kHz more than 20 dB below the
    # unramped waveform while costing under 0.2 dB of carrier-band power.
    ramp_fraction: float = 0.125

    def __post_init__(self):
        self._check_link()
        if not 0.0 < self.carrier_hz < self.sample_rate_hz / 2:
            raise NyquistViolationError(
                f"carrier_hz={self.carrier_hz} must lie in (0, {self.sample_rate_hz / 2})"
            )
        if self.samples_per_bit < 8:
            raise ConfigurationError(
                f"samples_per_bit={self.samples_per_bit} must be >= 8 "
                f"(bit rate too high for sample rate)"
            )
        if not 0.0 <= self.ramp_fraction < 0.5:
            raise ConfigurationError(
                f"ramp_fraction must be in [0, 0.5), got {self.ramp_fraction}"
            )
        if 2 * self.ramp_samples >= self.samples_per_bit:
            raise ConfigurationError(
                f"ramp_fraction={self.ramp_fraction} tapers all {self.samples_per_bit} "
                "samples of a bit, leaving DPSK nothing to integrate"
            )

    @property
    def ramp_samples(self) -> int:
        return round(self.ramp_fraction * self.samples_per_bit)


@dataclass(frozen=True)
class DemodTrace:
    """Per-bit demodulation detail.

    ``per_bit_correlation`` holds the normalized correlator outputs (clean
    channels give values near +-1), ``per_bit_phase_estimate`` the estimated
    phase in [0, 2*pi) radians (BPSK: the symbol phase; DPSK: the phase step
    from the previous symbol), ``decisions`` the hard bits and ``erasures``
    a low-confidence flag per bit (the decision is still emitted).
    """

    per_bit_correlation: np.ndarray
    per_bit_phase_estimate: np.ndarray
    decisions: np.ndarray
    erasures: np.ndarray


def _carrier_basis(config: PskConfig, num_symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Start phasors exp(j*w*i*spb) of ``num_symbols`` symbols and the
    one-symbol template [cos(w*j), sin(w*j)] of shape (spb, 2)."""
    spb, fs = config.samples_per_bit, config.sample_rate_hz
    k = np.concatenate([np.arange(spb), np.arange(num_symbols) * spb])
    # fc*k is reduced mod fs first so late symbols keep an exact angle
    phase = 2.0 * np.pi * np.mod(config.carrier_hz * k, fs) / fs
    t = phase[:spb]
    return np.exp(1j * phase[spb:]), np.stack([np.cos(t), np.sin(t)], axis=1)


def _dip(r: int) -> np.ndarray:
    """Raised-cosine dip over the 2*r samples around a boundary; sample b+j
    sits |j+0.5| from it, so every dip is the same."""
    return 0.5 * (1.0 - np.cos(np.pi * np.abs(np.arange(-r, r) + 0.5) / r))


def _synthesize(phases: np.ndarray, config: PskConfig) -> AudioSignal:
    """Carrier keyed to one phase per symbol, tapered where the phase steps."""
    spb, r = config.samples_per_bit, config.ramp_samples
    starts, template = _carrier_basis(config, phases.size)
    a = config.amplitude * starts * np.exp(1j * phases)
    symbols = np.stack([a.real, -a.imag], axis=1) @ template.T
    if r > 0:
        stepped = np.flatnonzero(np.diff(phases)) + 1
        dip = _dip(r)
        symbols[stepped, :r] *= dip[r:]
        symbols[stepped - 1, spb - r :] *= dip[:r]
    return AudioSignal(symbols.ravel(), config.sample_rate_hz)


def _symbol_correlations(
    received: AudioSignal, config: PskConfig, offset: int, min_symbols: int, skip: int
) -> np.ndarray:
    """z_i = sum_j x[i, j]*w[j]*exp(-j*w_c*(i*spb + j)) over the whole symbols
    from sample ``offset`` on; w zeroes ``skip`` samples at both symbol ends."""
    _check_same_rate(received, config)
    received = received.mixdown()
    spb = config.samples_per_bit
    _check_count("sample offset", offset, 0)
    if received.num_samples < offset + min_symbols * spb:
        raise InsufficientDataError(
            f"need at least offset+{min_symbols * spb} samples, have {received.num_samples}"
        )
    num_symbols = (received.num_samples - offset) // spb
    x = received.samples[offset : offset + num_symbols * spb].reshape(num_symbols, spb)
    starts, template = _carrier_basis(config, num_symbols)
    j = np.arange(spb)[:, None]
    arms = x @ (template * [1.0, -1.0] * ((j >= skip) & (j < spb - skip)))
    scale = 2.0 / (config.amplitude * (spb - 2 * skip))  # a clean symbol reads |z_i| ~ 1
    return (arms[:, 0] + 1j * arms[:, 1]) * np.conj(starts) * scale


def apply_transition_ramp(signal: AudioSignal, boundaries, config: PskConfig) -> AudioSignal:
    """Taper the amplitude to zero around each boundary sample index.

    Each boundary gets a raised-cosine dip spanning ``ramp_samples`` samples
    on both sides, reaching zero exactly at the boundary.  Only boundaries
    where the phase actually alternates should be passed in; windows must not
    overlap (guaranteed for per-symbol boundaries by ramp_fraction < 0.5).
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    r = config.ramp_samples
    if r == 0 or boundaries.size == 0:
        return signal
    if signal.channel_count != 1:
        raise ConfigurationError("transition ramps apply to mono signals")
    n = signal.num_samples
    if (np.diff(boundaries) < 0).any():
        raise ConfigurationError("boundaries must be sorted ascending")
    if (boundaries < 0).any() or (boundaries > n).any():
        raise ConfigurationError("boundaries must lie within the signal")
    if (np.diff(boundaries) < 2 * r).any():
        raise ConfigurationError("ramp windows overlap; reduce ramp_fraction or spread boundaries")
    k = boundaries[:, None] + np.arange(-r, r)
    inside = (k >= 0) & (k < n)
    envelope = np.ones(n)
    envelope[k[inside]] = np.broadcast_to(_dip(r), k.shape)[inside]
    return AudioSignal(signal.samples * envelope, signal.sample_rate_hz)


def bpsk_modulate(bits, config: PskConfig = PskConfig()) -> AudioSignal:
    """BPSK: key the carrier phase to 0 for a one and pi for a zero.

    The carrier phase accumulates over a global time reference (no per-bit
    reset); amplitude ramps are applied where the modulating sign flips.
    """
    return _synthesize(np.pi * (1 - _as_bits(bits)), config)


def bpsk_demodulate_coherent(
    received: AudioSignal, config: PskConfig = PskConfig(), delay_samples: int = 0
) -> DemodTrace:
    """Coherent BPSK demodulation against a delay-aligned carrier reference.

    Each bit period is correlated with exp(-j*2*pi*fc*t); the normalized
    in-phase arm y is ~+1 for a logical one and ~-1 for a logical zero on a
    clean channel.  y == 0 exactly emits a zero with an erasure flag.
    """
    z = _symbol_correlations(received, config, delay_samples, min_symbols=1, skip=0)
    decisions = (z.real > 0).astype(np.int64)
    return DemodTrace(z.real, np.angle(z) % (2.0 * np.pi), decisions, z.real == 0.0)


def correlate_delay(received: AudioSignal, template: AudioSignal, max_delay_samples: int) -> int:
    """Delay (in samples) maximizing the normalized cross-correlation of
    ``template`` against ``received``, searched over the delays in
    [0, max_delay_samples] at which the whole template fits in ``received``.

    The sliding dot products come from one FFT cross-correlation, so a
    one-second search window costs a few FFTs rather than a direct-form sum
    over every lag.  Ties break toward the smallest delay.  Raises
    IncompatibleSignalError when the two signals' rates differ,
    InsufficientDataError when ``received`` is shorter than the template, and
    SyncNotFoundError when the peak is not at least 3x the median off-peak
    correlation magnitude.
    """
    _check_same_rate(received, template)
    received = received.mixdown()
    if template.channel_count != 1:
        raise ConfigurationError("template must be mono")
    _check_count("max_delay_samples", max_delay_samples, 0)
    t = template.samples
    length = t.size
    if received.num_samples < length:
        raise InsufficientDataError(
            f"need at least {length} received samples, have {received.num_samples}"
        )
    max_delay_samples = min(max_delay_samples, received.num_samples - length)
    seg = received.samples[: length + max_delay_samples]
    # a fast length >= seg.size, so no lag in [0, max_delay] wraps around
    n = _fft_length(seg.size)
    dots = np.fft.irfft(np.fft.rfft(seg, n) * np.conj(np.fft.rfft(t, n)), n)
    dots = dots[: max_delay_samples + 1]
    cumsq = np.concatenate(([0.0], np.cumsum(seg * seg)))
    window_norm = np.sqrt(cumsq[length:] - cumsq[:-length])
    denom = window_norm * np.sqrt((t * t).sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        ncc = np.where(denom > 0, dots / denom, 0.0)
    magnitude = np.abs(ncc)
    best = int(np.argmax(magnitude))
    peak = magnitude[best]
    if peak <= 0.0:
        raise SyncNotFoundError("no correlation energy over the search window")
    # "off-peak" skips the template's own autocorrelation ridge around the peak
    guard = max(1, length // 10)
    off_peak = magnitude[np.abs(np.arange(magnitude.size) - best) > guard]
    if off_peak.size and peak < 3.0 * np.median(off_peak):
        raise SyncNotFoundError(
            f"correlation peak {peak:.4f} below confidence floor "
            f"(3x median off-peak {np.median(off_peak):.4f})"
        )
    return best


def dpsk_encode(bits) -> np.ndarray:
    """Differentially encode bits to absolute symbol phases (radians).

    A reference symbol at phase 0 is prepended; each logical one adds pi to
    the running phase, each zero adds nothing.  Output length is len(bits)+1.
    """
    arr = np.asarray(bits, dtype=np.int64)
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ConfigurationError("bits must contain only 0 and 1")
    phases = np.concatenate(([0.0], np.cumsum(arr) * np.pi))
    return np.mod(phases, 2.0 * np.pi)


def dpsk_modulate(bits, config: PskConfig = PskConfig()) -> AudioSignal:
    """DPSK: carry each bit as a phase step between consecutive symbol periods.

    The carrier runs on a global time reference with the per-symbol phase
    offsets from :func:`dpsk_encode`; boundaries with a pi step are tapered.
    """
    return _synthesize(dpsk_encode(_as_bits(bits)), config)


def dpsk_demodulate(
    received: AudioSignal,
    config: PskConfig = PskConfig(),
    start_offset_samples: int = 0,
) -> DemodTrace:
    """Differential detection on per-symbol correlator outputs.

    Each symbol is correlated with the carrier into z_i, leaving out the
    transition-ramp windows.  Bit i reads the phase step theta between
    symbols i and i+1 from z_{i+1} * conj(z_i): its real part y, normalized
    so a clean channel gives cos(theta) (y < 0 decodes a logical one), and
    its angle mod 2*pi.  Bits whose |y| falls below 0.1 times the mean |y|
    are flagged as erasures (decision still emitted).
    """
    r = config.ramp_samples
    z = _symbol_correlations(received, config, start_offset_samples, min_symbols=2, skip=r)
    steps = z[1:] * np.conj(z[:-1])
    y = steps.real
    decisions = (y < 0).astype(np.int64)
    mean_mag = float(np.abs(y).mean())
    normalized = np.abs(y) / mean_mag if mean_mag > 0 else np.zeros_like(y)
    erasures = normalized < 0.1
    return DemodTrace(y, np.angle(steps) % (2.0 * np.pi), decisions, erasures)
