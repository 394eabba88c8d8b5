"""Simulated acoustic channel: delay, gain, and seeded synthetic noise.

Noise level is calibrated so the signal-to-noise ratio *at the carrier's FFT
bin* matches the requested value; that matches how a receiver staring at a
narrowband carrier experiences wideband background noise.  All randomness is
driven by the spec's seed, so identical inputs give identical outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IncompatibleSignalError, InsufficientDataError
from .signals import AudioSignal, framed_power

NOISE_KINDS = ("white", "lowpass_music", "lowpass_voice", "broadband_jangle")
SNR_FFT_SIZE = 4096


@dataclass(frozen=True)
class NoiseSpec:
    """Background-noise profile added at the receiver.

    ``snr_db_at_carrier`` is defined as 10*log10(signal bin power / noise bin
    power) at the FFT bin nearest ``carrier_hz``, averaged over 4096-point
    frames.  When ``fixed_scale`` is set the calibration is skipped and the
    unit-RMS noise is multiplied by that scale instead; useful for sweeps
    that hold the noise environment constant while the signal changes.
    """

    kind: str
    snr_db_at_carrier: float
    carrier_hz: float
    fixed_scale: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigurationError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.carrier_hz <= 0:
            raise ConfigurationError(f"carrier_hz must be positive, got {self.carrier_hz}")
        if self.fixed_scale is not None and self.fixed_scale < 0:
            raise ConfigurationError(f"fixed_scale must be >= 0, got {self.fixed_scale}")


@dataclass(frozen=True)
class ChannelSpec:
    """Deterministic channel: identical spec and input give identical output."""

    delay_samples: int = 0
    gain: float = 1.0
    noise: NoiseSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.delay_samples < 0:
            raise ConfigurationError(f"delay_samples must be >= 0, got {self.delay_samples}")
        if self.gain <= 0:
            raise ConfigurationError(f"gain must be > 0, got {self.gain}")


@dataclass(frozen=True)
class ChannelResult:
    """Channel output plus clipping bookkeeping.

    ``noise_scale`` is the RMS multiplier applied to the unit noise (None when
    the channel is noiseless); ``clipping_warning`` is set when more than 1%
    of the output samples had to be clipped, meaning the requested SNR was not
    achievable within the [-1, 1] range.
    """

    signal: AudioSignal
    clip_count: int
    clip_fraction: float
    noise_scale: float | None

    @property
    def clipping_warning(self) -> bool:
        return self.clip_fraction > 0.01


def synth_noise(kind: str, num_samples: int, sample_rate_hz: int, seed: int) -> AudioSignal:
    """Generate unit-RMS Gaussian noise with the named spectral shape.

    white: flat spectrum.  lowpass_voice / lowpass_music: rolled off above a
    2 kHz / 4 kHz corner steeply enough that at least 90% of the power sits
    below 10 kHz.  broadband_jangle: nearly flat, with under 3 dB of tilt
    across the band.  Scale is left to the caller (channel calibration).
    """
    if kind not in NOISE_KINDS:
        raise ConfigurationError(f"noise kind must be one of {NOISE_KINDS}, got {kind!r}")
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(num_samples)
    if kind != "white":
        spectrum = np.fft.rfft(samples)
        freq = np.fft.rfftfreq(num_samples, 1.0 / sample_rate_hz)
        if kind == "lowpass_voice":
            gain = 1.0 / (1.0 + (freq / 2000.0) ** 2)
        elif kind == "lowpass_music":
            gain = 1.0 / (1.0 + (freq / 4000.0) ** 2)
        else:  # broadband_jangle: metallic wideband rattle, slight rolloff
            gain = 1.0 / np.sqrt(1.0 + (freq / 30000.0) ** 2)
        samples = np.fft.irfft(spectrum * gain, num_samples)
    rms = math.sqrt(float(np.mean(samples**2)))
    if rms > 0:
        samples = samples / rms
    return AudioSignal(samples, sample_rate_hz)


def _mean_bin_power(samples: np.ndarray, sample_rate_hz: int, carrier_hz: float) -> float:
    """Carrier-bin power averaged over non-overlapping 4096-point frames.

    Signals shorter than one frame are zero-padded to a single frame.
    """
    if samples.size < SNR_FFT_SIZE:
        samples = np.pad(samples, (0, SNR_FFT_SIZE - samples.size))
    power = framed_power(samples, SNR_FFT_SIZE)
    bin_width = sample_rate_hz / SNR_FFT_SIZE
    index = int(round(carrier_hz / bin_width))
    if not 0 <= index < power.shape[1]:
        raise ConfigurationError(f"carrier_hz={carrier_hz} outside the spectrum")
    return float(power[:, index].mean())


def measure_snr_at(signal: AudioSignal, noise: AudioSignal, carrier_hz: float) -> float:
    """SNR in dB between two signals at the FFT bin nearest ``carrier_hz``.

    Returns +inf when the noise has no power at that bin.
    """
    if signal.sample_rate_hz != noise.sample_rate_hz:
        raise IncompatibleSignalError(
            f"sample rates differ: {signal.sample_rate_hz} vs {noise.sample_rate_hz}"
        )
    if signal.num_samples < SNR_FFT_SIZE or noise.num_samples < SNR_FFT_SIZE:
        raise InsufficientDataError(f"both signals need at least {SNR_FFT_SIZE} samples")
    s = _mean_bin_power(signal.mixdown().samples, signal.sample_rate_hz, carrier_hz)
    n = _mean_bin_power(noise.mixdown().samples, noise.sample_rate_hz, carrier_hz)
    if n == 0.0:
        return math.inf
    return 10.0 * math.log10(s / n)


def apply_channel(signal: AudioSignal, spec: ChannelSpec) -> ChannelResult:
    """Propagate a signal through the simulated channel.

    Stereo input is mixed down to mono first (one microphone hears both
    speakers), then delayed, scaled by the gain, and summed with calibrated
    noise; the result is clipped to [-1, 1] with the clip count reported.
    """
    x = signal.mixdown().samples * spec.gain
    if spec.delay_samples:
        x = np.concatenate([np.zeros(spec.delay_samples), x])
    noise_scale = None
    if spec.noise is not None:
        unit = synth_noise(spec.noise.kind, x.size, signal.sample_rate_hz, spec.seed).samples
        if spec.noise.fixed_scale is not None:
            noise_scale = spec.noise.fixed_scale
        else:
            signal_bin = _mean_bin_power(x, signal.sample_rate_hz, spec.noise.carrier_hz)
            noise_bin = _mean_bin_power(unit, signal.sample_rate_hz, spec.noise.carrier_hz)
            if signal_bin == 0.0 or noise_bin == 0.0:
                noise_scale = 0.0  # SNR undefined against a silent component
            else:
                target = 10.0 ** (spec.noise.snr_db_at_carrier / 10.0)
                noise_scale = math.sqrt(signal_bin / (noise_bin * target))
        x = x + noise_scale * unit
    clipped = np.clip(x, -1.0, 1.0)
    clip_count = int(np.count_nonzero(clipped != x))
    return ChannelResult(
        AudioSignal(clipped, signal.sample_rate_hz),
        clip_count,
        clip_count / x.size,
        noise_scale,
    )
