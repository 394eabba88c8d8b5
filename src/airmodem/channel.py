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
from .signals import AudioSignal

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
        if not math.isfinite(self.snr_db_at_carrier):
            raise ConfigurationError(
                f"snr_db_at_carrier must be finite, got {self.snr_db_at_carrier}"
            )
        if not 0 < self.carrier_hz < math.inf:
            raise ConfigurationError(
                f"carrier_hz must be positive and finite, got {self.carrier_hz}"
            )
        if self.fixed_scale is not None and not 0 <= self.fixed_scale < math.inf:
            raise ConfigurationError(
                f"fixed_scale must be >= 0 and finite, got {self.fixed_scale}"
            )


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
        if not 0 < self.gain < math.inf:
            raise ConfigurationError(f"gain must be > 0 and finite, got {self.gain}")


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

    White noise is ``num_samples`` standard normals divided by their RMS.
    The other kinds shape ``m`` standard normals in the frequency domain,
    ``m`` being the next power of two >= ``num_samples``, and keep the first
    ``num_samples``: any stretch of circularly filtered white noise has the
    same spectral law, and a power-of-two FFT avoids the slow path numpy
    takes for lengths with a large prime factor.  The RMS is normalized over
    the kept samples.
    """
    if kind not in NOISE_KINDS:
        raise ConfigurationError(f"noise kind must be one of {NOISE_KINDS}, got {kind!r}")
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    rng = np.random.default_rng(seed)
    if kind == "white":
        samples = rng.standard_normal(num_samples)
    else:
        m = 1 << (num_samples - 1).bit_length()
        freq = np.fft.rfftfreq(m, 1.0 / sample_rate_hz)
        if kind == "lowpass_voice":
            gain = 1.0 / (1.0 + (freq / 2000.0) ** 2)
        elif kind == "lowpass_music":
            gain = 1.0 / (1.0 + (freq / 4000.0) ** 2)
        else:  # broadband_jangle: metallic wideband rattle, slight rolloff
            gain = 1.0 / np.sqrt(1.0 + (freq / 30000.0) ** 2)
        spectrum = np.fft.rfft(rng.standard_normal(m)) * gain
        samples = np.fft.irfft(spectrum, m)[:num_samples]
    rms = math.sqrt(float(np.mean(samples**2)))
    if rms > 0:
        samples = samples / rms
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
    if s == 0.0:
        return -math.inf
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
