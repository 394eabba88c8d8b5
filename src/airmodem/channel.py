"""Simulated acoustic channel: delay, gain, and seeded synthetic noise.

Noise level is calibrated so the signal-to-noise ratio *at the carrier's FFT
bin* matches the requested value; that matches how a receiver staring at a
narrowband carrier experiences wideband background noise.  All randomness is
driven by the spec's seed, so identical inputs give identical outputs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .signals import AudioSignal, _check_same_rate, _check_sample_rate, _fft_length

# kind -> (corner_hz, order) of its gain 1 / (1 + (f/corner)^2)^order; white has none
_NOISE_GAINS = {
    "white": None,
    "lowpass_music": (4000.0, 1.0),
    "lowpass_voice": (2000.0, 1.0),
    "broadband_jangle": (30000.0, 0.5),  # metallic wideband rattle, slight rolloff
}
NOISE_KINDS = tuple(_NOISE_GAINS)
SNR_FFT_SIZE = 4096


@dataclass(frozen=True)
class NoiseSpec:
    """Background-noise profile added at the receiver.

    ``snr_db_at_carrier`` is defined as 10*log10(signal bin power / noise bin
    power) at the FFT bin nearest ``carrier_hz``, averaged over 4096-point
    frames.  When ``reference_bin_power`` is set, the noise is calibrated
    against that carrier-bin power instead of the capture's own: a bit-rate
    sweep passes the power of the trial's on-air bits sent at the base rate,
    so every rate hears the noise level that gives the base rate the
    requested SNR.
    """

    kind: str
    snr_db_at_carrier: float
    carrier_hz: float
    reference_bin_power: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if not math.isfinite(self.snr_db_at_carrier):
            raise ConfigurationError(
                f"snr_db_at_carrier must be finite, got {self.snr_db_at_carrier}"
            )
        if not 0 < self.carrier_hz < math.inf:
            raise ConfigurationError(
                f"carrier_hz must be positive and finite, got {self.carrier_hz}"
            )
        power = self.reference_bin_power
        if power is not None and not 0 <= power < math.inf:
            raise ConfigurationError(f"reference_bin_power must be >= 0 and finite, got {power}")


@dataclass(frozen=True)
class ChannelSpec:
    """Deterministic channel: identical spec and input give identical output."""

    delay_samples: int = 0
    gain: float = 1.0
    noise: NoiseSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.delay_samples, (int, np.integer)) or self.delay_samples < 0:
            raise ConfigurationError(f"delay_samples must be an int >= 0, got {self.delay_samples}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(f"seed must be an int >= 0, got {self.seed}")
        if not 0 < self.gain < math.inf:
            raise ConfigurationError(f"gain must be > 0 and finite, got {self.gain}")


@dataclass(frozen=True)
class ChannelResult:
    """Channel output plus clipping bookkeeping.

    ``noise_scale`` is the RMS multiplier applied to the unit noise (None when
    the channel is noiseless); ``clip_fraction`` is the share of output samples
    (NaN ones included) that had to be clipped into [-1, 1].
    """

    signal: AudioSignal
    clip_fraction: float
    noise_scale: float | None


def synth_noise(kind: str, num_samples: int, sample_rate_hz: int, seed: int) -> AudioSignal:
    """Unit-RMS Gaussian noise with the named spectral shape, at a whole sample rate.

    white: flat spectrum.  lowpass_voice / lowpass_music: rolled off above a
    2 kHz / 4 kHz corner steeply enough that at least 90% of the power sits
    below 10 kHz.  broadband_jangle: nearly flat, with under 3 dB of tilt
    across the band.  Scale is left to the caller (channel calibration).

    White noise is ``num_samples`` standard normals divided by their RMS.
    The other kinds draw a length-``m`` real FFT's ``m/2 + 1`` bins directly
    as ``m + 2`` standard normals (Timmer & Koenig 1995), DC and Nyquist made
    real and scaled by sqrt(2); ``m`` is the least even 5-smooth number >=
    ``num_samples``.  The inverse FFT of the bins times the kind's gain is
    filtered white noise; its first ``num_samples`` are kept, RMS-normalized.
    """
    if kind not in NOISE_KINDS:
        raise ConfigurationError(f"noise kind must be one of {NOISE_KINDS}, got {kind!r}")
    if not isinstance(num_samples, (int, np.integer)) or num_samples < 1:
        raise ConfigurationError(f"num_samples must be an integer >= 1, got {num_samples!r}")
    _check_sample_rate(sample_rate_hz)
    rng = np.random.default_rng(seed)
    if kind == "white":
        samples = rng.standard_normal(num_samples)
    else:
        corner_hz, order = _NOISE_GAINS[kind]
        m = _fft_length(num_samples)
        freq = np.fft.rfftfreq(m, 1.0 / sample_rate_hz)
        gain = 1.0 / (1.0 + (freq / corner_hz) ** 2) ** order
        spectrum = rng.standard_normal(m + 2).view(np.complex128)
        spectrum[[0, -1]] = math.sqrt(2.0) * spectrum[[0, -1]].real
        spectrum *= gain
        samples = np.fft.irfft(spectrum, m)[:num_samples]
    rms = math.sqrt(float(np.mean(samples**2)))
    if rms > 0:
        samples /= rms
    return AudioSignal(samples, sample_rate_hz)


def _mean_bin_power(samples: np.ndarray, sample_rate_hz: int, carrier_hz: float) -> float:
    """Carrier-bin power averaged over non-overlapping 4096-point frames.

    Each frame is projected onto the carrier bin's cosine and sine, which
    gives that one bin of the frame's DFT, normalized as :class:`Spectrum`
    describes.  A trailing partial frame is dropped; signals shorter than
    one frame are zero-padded to a single frame.
    """
    bin_width = sample_rate_hz / SNR_FFT_SIZE
    index = int(round(carrier_hz / bin_width))
    if not 0 <= index <= SNR_FFT_SIZE // 2:
        raise ConfigurationError(f"carrier_hz={carrier_hz} outside the spectrum")
    if samples.size < SNR_FFT_SIZE:
        samples = np.pad(samples, (0, SNR_FFT_SIZE - samples.size))
    num_frames = samples.size // SNR_FFT_SIZE
    frames = samples[: num_frames * SNR_FFT_SIZE].reshape(num_frames, SNR_FFT_SIZE)
    # reduce index*j mod N first so the angle stays exact for high bins
    theta = 2.0 * np.pi * (np.arange(SNR_FFT_SIZE) * index % SNR_FFT_SIZE) / SNR_FFT_SIZE
    z = frames @ np.stack([np.cos(theta), np.sin(theta)], axis=1)
    power = (z * z).sum(axis=1) / SNR_FFT_SIZE**2
    if 0 < index < SNR_FFT_SIZE // 2:
        power *= 2.0  # fold the negative frequency onto interior bins
    return float(power.mean())


def measure_snr_at(signal: AudioSignal, noise: AudioSignal, carrier_hz: float) -> float:
    """SNR in dB between two signals at the FFT bin nearest ``carrier_hz``.

    Returns +inf when the noise has no power at that bin, and -inf when
    only the signal has none.
    """
    _check_same_rate(signal, noise)
    if signal.num_samples < SNR_FFT_SIZE or noise.num_samples < SNR_FFT_SIZE:
        raise InsufficientDataError(f"both signals need at least {SNR_FFT_SIZE} samples")
    s = _mean_bin_power(signal.mixdown().samples, signal.sample_rate_hz, carrier_hz)
    n = _mean_bin_power(noise.mixdown().samples, noise.sample_rate_hz, carrier_hz)
    if n == 0.0:
        return math.inf
    if s == 0.0:
        return -math.inf
    return 10.0 * math.log10(s / n)


def _capture(signal: AudioSignal, spec: ChannelSpec):
    """``(x, unit, noise_scale)``: the delayed, gained mixdown written once into
    ``delay + n`` zeros, then the unit noise and its scale (None when noiseless)."""
    x = np.zeros(spec.delay_samples + signal.num_samples)
    tail = x[spec.delay_samples :]
    if signal.channel_count == 2:
        np.mean(signal.samples, axis=0, out=tail)  # bitwise AudioSignal.mixdown
        tail *= spec.gain
    else:
        np.multiply(signal.samples, spec.gain, out=tail)
    if spec.noise is None:
        return x, None, None
    unit = synth_noise(spec.noise.kind, x.size, signal.sample_rate_hz, spec.seed).samples
    signal_bin = spec.noise.reference_bin_power
    if signal_bin is None:
        signal_bin = _mean_bin_power(x, signal.sample_rate_hz, spec.noise.carrier_hz)
    noise_bin = _mean_bin_power(unit, signal.sample_rate_hz, spec.noise.carrier_hz)
    if signal_bin == 0.0 or noise_bin == 0.0:
        return x, unit, 0.0  # SNR undefined against a silent component
    target = 10.0 ** (spec.noise.snr_db_at_carrier / 10.0)
    return x, unit, math.sqrt(signal_bin / (noise_bin * target))


def _carrier_bin_power(signal: AudioSignal, spec: ChannelSpec) -> float:
    """Carrier-bin power of ``signal``'s noiseless capture through ``spec``: the
    ``reference_bin_power`` that calibrates other signals' noise against this one."""
    x = _capture(signal, replace(spec, noise=None))[0]
    return _mean_bin_power(x, signal.sample_rate_hz, spec.noise.carrier_hz)


def apply_channel(signal: AudioSignal, spec: ChannelSpec) -> ChannelResult:
    """Propagate a signal through the simulated channel.

    Stereo input is mixed down to mono first (one microphone hears both
    speakers), then delayed, scaled by the gain, and summed with calibrated
    noise in place; the result is clipped into the noise buffer, and the
    clipped share (NaN samples included) is reported.
    """
    x, unit, noise_scale = _capture(signal, spec)
    if unit is not None:
        x += np.multiply(unit, noise_scale, out=unit)
    clipped = np.clip(x, -1.0, 1.0, out=unit)  # a new array when noiseless
    clip_fraction = int(np.count_nonzero(clipped != x)) / x.size
    return ChannelResult(AudioSignal(clipped, signal.sample_rate_hz), clip_fraction, noise_scale)
