"""Binary and differential phase-shift keying over a near-ultrasonic carrier.

BPSK keys the absolute carrier phase (0 or pi) and therefore needs a
phase-aligned reference at the receiver; DPSK keys phase *changes* between
consecutive symbol periods and is demodulated delay-and-multiply style with
no absolute reference.  Both modulators taper the amplitude around pi phase
steps so the transitions do not splatter clicks into the audible band.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NyquistViolationError,
    SyncNotFoundError,
)
from .signals import AudioSignal

DEFAULT_HEADER_BITS = (1, 0) * 8  # alternating sync pattern, 16 bits


@dataclass(frozen=True)
class PskConfig:
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
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if not 0.0 < self.carrier_hz < self.sample_rate_hz / 2:
            raise NyquistViolationError(
                f"carrier_hz={self.carrier_hz} must lie in (0, {self.sample_rate_hz / 2})"
            )
        if not self.bit_rate_bps > 0:  # written so that NaN fails too
            raise ConfigurationError(f"bit_rate_bps must be positive, got {self.bit_rate_bps}")
        if self.samples_per_bit < 8:
            raise ConfigurationError(
                f"samples_per_bit={self.samples_per_bit} must be >= 8 "
                f"(bit rate too high for sample rate)"
            )
        if not 0.0 < self.amplitude <= 1.0:
            raise ConfigurationError(f"amplitude must be in (0, 1], got {self.amplitude}")
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
    def samples_per_bit(self) -> int:
        return round(self.sample_rate_hz / self.bit_rate_bps)

    @property
    def ramp_samples(self) -> int:
        return round(self.ramp_fraction * self.samples_per_bit)

    @property
    def carrier_cycles_per_bit(self) -> float:
        """Carrier cycles per bit period; integer values keep the delayed
        reference phase-aligned in DPSK demodulation."""
        return self.carrier_hz * self.samples_per_bit / self.sample_rate_hz


@dataclass(frozen=True)
class DemodTrace:
    """Per-bit demodulation detail.

    ``per_bit_correlation`` holds the normalized correlator outputs (clean
    channels give values near +-1), ``per_bit_phase_estimate`` the estimated
    symbol phase in radians, ``decisions`` the hard bits and ``erasures`` a
    low-confidence flag per bit (the decision is still emitted).
    """

    per_bit_correlation: np.ndarray
    per_bit_phase_estimate: np.ndarray
    decisions: np.ndarray
    erasures: np.ndarray


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("bits must be a non-empty 1-D sequence")
    if not np.isin(arr, (0, 1)).all():
        raise ConfigurationError("bits must contain only 0 and 1")
    return arr


def bipolar(bits) -> np.ndarray:
    """Map logical bits to the bipolar alphabet: 1 -> +1.0, 0 -> -1.0."""
    return 2.0 * _as_bits(bits) - 1.0


def _carrier(config: PskConfig, num_samples: int) -> np.ndarray:
    k = np.arange(num_samples)
    return np.cos(2.0 * np.pi * config.carrier_hz * k / config.sample_rate_hz)


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
    # sample b+j sits |j+0.5| from the boundary, so every dip is the same
    offsets = np.arange(-r, r)
    dip = 0.5 * (1.0 - np.cos(np.pi * np.abs(offsets + 0.5) / r))
    k = boundaries[:, None] + offsets
    inside = (k >= 0) & (k < n)
    envelope = np.ones(n)
    envelope[k[inside]] = np.broadcast_to(dip, k.shape)[inside]
    return AudioSignal(signal.samples * envelope, signal.sample_rate_hz)


def bpsk_modulate(bits, config: PskConfig = PskConfig()) -> AudioSignal:
    """BPSK: multiply the bipolar bit waveform by the carrier.

    The carrier phase accumulates over a global time reference (no per-bit
    reset); amplitude ramps are applied where the modulating sign flips.
    """
    bits = _as_bits(bits)
    spb = config.samples_per_bit
    m = np.repeat(bipolar(bits), spb)
    samples = config.amplitude * m * _carrier(config, bits.size * spb)
    flips = np.flatnonzero(np.diff(bits) != 0) + 1
    return apply_transition_ramp(
        AudioSignal(samples, config.sample_rate_hz), flips * spb, config
    )


def bpsk_demodulate_coherent(
    received: AudioSignal, config: PskConfig = PskConfig(), delay_samples: int = 0
) -> DemodTrace:
    """Coherent BPSK demodulation against a delay-aligned carrier reference.

    Each bit period is correlated with cos(2*pi*fc*t); the normalized
    correlation y is ~+1 for a logical one and ~-1 for a logical zero on a
    clean channel.  y == 0 exactly emits a zero with an erasure flag.
    """
    if received.channel_count != 1:
        received = received.mixdown()
    spb = config.samples_per_bit
    if delay_samples < 0:
        raise ConfigurationError(f"delay_samples must be >= 0, got {delay_samples}")
    if received.num_samples < delay_samples + spb:
        raise InsufficientDataError(
            f"need at least delay+{spb} samples, have {received.num_samples}"
        )
    x = received.samples[delay_samples:]
    num_bits = x.size // spb
    x = x[: num_bits * spb].reshape(num_bits, spb)
    k = np.arange(num_bits * spb).reshape(num_bits, spb)
    phase = 2.0 * np.pi * config.carrier_hz * k / config.sample_rate_hz
    scale = 2.0 / (config.amplitude * spb)
    i_arm = scale * (x * np.cos(phase)).sum(axis=1)
    q_arm = -scale * (x * np.sin(phase)).sum(axis=1)
    decisions = (i_arm > 0).astype(np.int64)
    erasures = i_arm == 0.0
    phase_est = np.arctan2(q_arm, i_arm) % (2.0 * np.pi)
    return DemodTrace(i_arm, phase_est, decisions, erasures)


def correlate_delay(received: AudioSignal, template: AudioSignal, max_delay_samples: int) -> int:
    """Delay (in samples) maximizing the normalized cross-correlation of
    ``template`` against ``received``, searched over [0, max_delay_samples].

    The sliding dot products come from one FFT cross-correlation, so a
    one-second search window costs a few FFTs rather than a direct-form sum
    over every lag.  Ties break toward the smallest delay.  Raises
    SyncNotFoundError when the peak is not at least 3x the median off-peak
    correlation magnitude.
    """
    if received.channel_count != 1:
        received = received.mixdown()
    if template.channel_count != 1:
        raise ConfigurationError("template must be mono")
    if max_delay_samples < 0:
        raise ConfigurationError(f"max_delay_samples must be >= 0, got {max_delay_samples}")
    t = template.samples
    length = t.size
    if received.num_samples < length + max_delay_samples:
        raise InsufficientDataError(
            f"need at least {length + max_delay_samples} received samples, "
            f"have {received.num_samples}"
        )
    seg = received.samples[: length + max_delay_samples]
    # next power of two >= seg.size, so no lag in [0, max_delay] wraps around
    n = 1 << (seg.size - 1).bit_length()
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


def estimate_delay(
    received: AudioSignal,
    header_bits,
    config: PskConfig = PskConfig(),
    max_delay_samples: int = 4800,
) -> int:
    """Estimate the propagation delay of a known BPSK header by
    normalized cross-correlation over candidate delays."""
    template = bpsk_modulate(_as_bits(header_bits), config)
    return correlate_delay(received, template, max_delay_samples)


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
    bits = _as_bits(bits)
    spb = config.samples_per_bit
    phases = dpsk_encode(bits)
    offset = np.repeat(phases, spb)
    k = np.arange(phases.size * spb)
    samples = config.amplitude * np.cos(
        2.0 * np.pi * config.carrier_hz * k / config.sample_rate_hz + offset
    )
    stepped = np.flatnonzero(bits == 1) + 1  # symbol index whose start phase alternates
    return apply_transition_ramp(
        AudioSignal(samples, config.sample_rate_hz), stepped * spb, config
    )


def dpsk_demodulate(
    received: AudioSignal,
    config: PskConfig = PskConfig(),
    start_offset_samples: int = 0,
    erasure_floor: float = 0.1,
) -> DemodTrace:
    """Delay-and-multiply DPSK demodulation.

    Multiplies the signal by itself delayed one symbol period and integrates
    over each data symbol; the normalized integral approximates cos(theta)
    where theta is the phase step (so y < 0 decodes a logical one).  Samples
    inside the transition-ramp windows are excluded from the integral and the
    normalizer is adjusted accordingly.  Bits whose gain-normalized |y| falls
    below ``erasure_floor`` are flagged as erasures (decision still emitted).
    """
    if received.channel_count != 1:
        received = received.mixdown()
    spb = config.samples_per_bit
    if start_offset_samples < 0:
        raise ConfigurationError(f"start_offset_samples must be >= 0, got {start_offset_samples}")
    if received.num_samples < start_offset_samples + 2 * spb:
        raise InsufficientDataError(
            f"need at least start_offset+{2 * spb} samples, have {received.num_samples}"
        )
    x = received.samples[start_offset_samples:]
    num_symbols = x.size // spb
    num_bits = num_symbols - 1
    x = x[: num_symbols * spb]
    product = x[spb:] * x[:-spb]
    r = config.ramp_samples
    keep = slice(r, spb - r) if r > 0 else slice(None)
    effective = spb - 2 * r
    scale = 2.0 / (config.amplitude**2 * effective)
    y = scale * product.reshape(num_bits, spb)[:, keep].sum(axis=1)
    decisions = (y < 0).astype(np.int64)
    mean_mag = float(np.abs(y).mean())
    normalized = np.abs(y) / mean_mag if mean_mag > 0 else np.zeros_like(y)
    erasures = normalized < erasure_floor
    phase_est = np.arccos(np.clip(y, -1.0, 1.0))
    return DemodTrace(y, phase_est, decisions, erasures)
