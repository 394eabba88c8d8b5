"""Waveform primitives: tone synthesis, power spectra, band power, signal arithmetic.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyBandWarning,
    IncompatibleSignalError,
    InsufficientDataError,
    NyquistViolationError,
)


@dataclass(frozen=True)
class AudioSignal:
    """A sampled real-valued waveform.

    ``samples`` has shape ``(n,)`` for mono or ``(2, n)`` for stereo (one row
    per channel).  Amplitudes are dimensionless, nominally within [-1, 1];
    intermediate arithmetic (e.g. mixing) may exceed that range.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 2 and samples.shape[0] == 1:
            samples = samples[0]
        if samples.ndim not in (1, 2):
            raise IncompatibleSignalError(
                f"samples must be 1-D (mono) or 2-D (stereo), got shape {samples.shape}"
            )
        if samples.ndim == 2 and samples.shape[0] != 2:
            raise IncompatibleSignalError(
                f"stereo samples must have shape (2, n), got {samples.shape}"
            )
        if samples.shape[-1] < 1:
            raise IncompatibleSignalError("signal must contain at least one sample")
        if int(self.sample_rate_hz) <= 0:
            raise ConfigurationError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    @property
    def channel_count(self) -> int:
        return 1 if self.samples.ndim == 1 else 2

    @property
    def num_samples(self) -> int:
        return self.samples.shape[-1]

    @property
    def duration_seconds(self) -> float:
        return self.num_samples / self.sample_rate_hz

    def channel(self, index: int) -> np.ndarray:
        """Return one channel as a 1-D array (mono signals only have channel 0)."""
        if self.samples.ndim == 1:
            if index != 0:
                raise IncompatibleSignalError("mono signal has only channel 0")
            return self.samples
        return self.samples[index]

    def mixdown(self) -> "AudioSignal":
        """Average the channels into a mono signal (already-mono passes through)."""
        if self.samples.ndim == 1:
            return self
        return AudioSignal(self.samples.mean(axis=0), self.sample_rate_hz)


@dataclass(frozen=True)
class Spectrum:
    """One-sided power-by-frequency-bin result of an FFT.

    ``bin_power[i]`` is the squared bin magnitude divided by ``fft_size**2``,
    doubled for bins that are neither DC nor Nyquist, so a full-scale
    unit-amplitude on-bin tone reads 0.5 and the bin powers sum to the
    mean square of the (windowed) frame.
    """

    bin_freq_hz: np.ndarray
    bin_power: np.ndarray
    fft_size: int
    source_sample_rate_hz: int

    @property
    def bin_width_hz(self) -> float:
        return self.source_sample_rate_hz / self.fft_size

    def nearest_bin(self, freq_hz: float) -> int:
        """Index of the bin whose center frequency is closest to ``freq_hz``."""
        return int(round(freq_hz / self.bin_width_hz))


def generate_tone(
    freq_hz: float,
    num_samples: int,
    sample_rate_hz: int,
    amplitude: float = 1.0,
    phase_rad: float = 0.0,
) -> AudioSignal:
    """Synthesize a mono cosine tone.

    sample[k] = amplitude * cos(2*pi*freq_hz*k/sample_rate_hz + phase_rad)
    """
    if sample_rate_hz <= 0:
        raise ConfigurationError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    if not 0.0 <= freq_hz < sample_rate_hz / 2:
        raise NyquistViolationError(
            f"freq_hz={freq_hz} must lie in [0, {sample_rate_hz / 2}) (below Nyquist)"
        )
    if amplitude < 0:
        raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be >= 1, got {num_samples}")
    k = np.arange(num_samples)
    samples = amplitude * np.cos(2.0 * np.pi * freq_hz * k / sample_rate_hz + phase_rad)
    return AudioSignal(samples, sample_rate_hz)


_WINDOWS = ("rectangular", "hann")


def framed_power(samples: np.ndarray, fft_size: int, window: str = "rectangular") -> np.ndarray:
    """One-sided power spectra of the non-overlapping ``fft_size`` frames of
    mono ``samples``, as a (frames, bins) matrix; a trailing partial frame is
    dropped.  Each row is normalized as :class:`Spectrum` describes."""
    if samples.ndim != 1:
        raise IncompatibleSignalError(f"framed_power expects mono samples, got {samples.shape}")
    if fft_size < 2 or fft_size & (fft_size - 1) != 0:
        raise ConfigurationError(f"fft_size must be a power of two >= 2, got {fft_size}")
    if samples.size < fft_size:
        raise InsufficientDataError(
            f"signal has {samples.size} samples, need at least fft_size={fft_size}"
        )
    if window not in _WINDOWS:
        raise ConfigurationError(f"window must be one of {_WINDOWS}, got {window!r}")
    num_frames = samples.size // fft_size
    frames = samples[: num_frames * fft_size].reshape(num_frames, fft_size)
    if window == "hann":
        frames = frames * np.hanning(fft_size)
    power = (np.abs(np.fft.rfft(frames, axis=1)) / fft_size) ** 2
    power[:, 1:-1] *= 2.0  # fold negative frequencies onto interior bins
    return power


def power_spectrum(signal: AudioSignal, fft_size: int, window: str = "rectangular") -> Spectrum:
    """One-sided power spectrum of the first ``fft_size`` samples of a mono signal.

    The rectangular window preserves the detection-friendly normalization
    (unit tone on a bin -> 0.5); hann trades that for lower leakage and is
    meant for reporting spectra.
    """
    if signal.channel_count != 1:
        raise IncompatibleSignalError("power_spectrum expects a mono signal")
    power = framed_power(signal.samples[:fft_size], fft_size, window)[0]
    freqs = np.fft.rfftfreq(fft_size, 1.0 / signal.sample_rate_hz)
    return Spectrum(freqs, power, fft_size, signal.sample_rate_hz)


def band_power(
    spectrum: Spectrum,
    f_lo_hz: float,
    f_hi_hz: float,
    excluded_freqs_hz=(),
    exclusion_halfwidth_hz: float | None = None,
) -> float | np.ndarray:
    """Mean bin power over [f_lo_hz, f_hi_hz], skipping excluded carriers.

    Bins within ``exclusion_halfwidth_hz`` of any excluded frequency are
    ignored (default halfwidth: two bin widths, a guard band for spectral
    leakage).  Returns 0.0 and emits :class:`EmptyBandWarning` if no bin
    qualifies.  A spectrum whose ``bin_power`` holds one row per frame, as
    :func:`framed_power` returns, gives an array with one mean per frame.
    """
    nyquist = spectrum.source_sample_rate_hz / 2
    if not f_lo_hz < f_hi_hz <= nyquist:
        raise ConfigurationError(
            f"need f_lo < f_hi <= Nyquist ({nyquist}), got [{f_lo_hz}, {f_hi_hz}]"
        )
    if exclusion_halfwidth_hz is None:
        exclusion_halfwidth_hz = 2.0 * spectrum.bin_width_hz
    freqs = spectrum.bin_freq_hz
    mask = (freqs >= f_lo_hz) & (freqs <= f_hi_hz)
    for fc in excluded_freqs_hz:
        mask &= np.abs(freqs - fc) > exclusion_halfwidth_hz
    if not mask.any():
        warnings.warn(
            f"no spectrum bins left in [{f_lo_hz}, {f_hi_hz}] after exclusions",
            EmptyBandWarning,
            stacklevel=2,
        )
        means = np.zeros(spectrum.bin_power.shape[:-1])
    else:
        # a contiguous copy keeps each row's sum in the same order as a 1-D mean
        means = np.ascontiguousarray(spectrum.bin_power[..., mask]).mean(axis=-1)
    return float(means) if means.ndim == 0 else means


def mix(a: AudioSignal, b: AudioSignal, pad_shorter: bool = False) -> AudioSignal:
    """Element-wise sum of two signals with equal rates and channel counts.

    Unequal lengths are an error unless ``pad_shorter`` is set, in which case
    the shorter signal is zero-padded.
    """
    if a.sample_rate_hz != b.sample_rate_hz:
        raise IncompatibleSignalError(
            f"sample rates differ: {a.sample_rate_hz} vs {b.sample_rate_hz}"
        )
    if a.channel_count != b.channel_count:
        raise IncompatibleSignalError(
            f"channel counts differ: {a.channel_count} vs {b.channel_count}"
        )
    xa, xb = a.samples, b.samples
    if a.num_samples != b.num_samples:
        if not pad_shorter:
            raise IncompatibleSignalError(
                f"lengths differ ({a.num_samples} vs {b.num_samples}); pass pad_shorter=True to pad"
            )
        n = max(a.num_samples, b.num_samples)
        pad = [(0, 0)] * (xa.ndim - 1)
        xa = np.pad(xa, pad + [(0, n - a.num_samples)])
        xb = np.pad(xb, pad + [(0, n - b.num_samples)])
    return AudioSignal(xa + xb, a.sample_rate_hz)
