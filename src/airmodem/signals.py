"""Waveform primitives: tone synthesis, power spectra, band power.

All operations are pure functions on immutable values and are safe to call
concurrently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    IncompatibleSignalError,
    InsufficientDataError,
    NyquistViolationError,
)


def _check_sample_rate(rate) -> None:
    """Reject a rate that is not a positive whole number: it would mislabel a signal."""
    if not 0 < rate < math.inf or rate % 1:
        raise ConfigurationError(f"sample_rate_hz must be a positive whole number, got {rate}")


def _check_same_rate(signal, other) -> None:
    """Reject ``signal`` unless it is sampled at ``other``'s rate (a config's or a signal's)."""
    if signal.sample_rate_hz != other.sample_rate_hz:
        rates = f"signal has {signal.sample_rate_hz} Hz, expected {other.sample_rate_hz} Hz"
        raise IncompatibleSignalError(f"sample-rate mismatch: {rates}")


def _check_count(name, value, least) -> None:
    """Reject ``value`` unless it is an int (a numpy integer too) >= ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{name} must be an int >= {least}, got {value!r}")


def _check_positive(name, value, most=math.inf) -> None:
    """Reject ``value`` unless it is a normal float <= ``most`` (NaN, inf, subnormals fail)."""
    if not np.finfo(float).tiny <= value < math.inf or value > most:
        bound = "" if most == math.inf else f" <= {most}"
        raise ConfigurationError(f"{name} must be a positive normal float{bound}, got {value}")


def _check_fft_size(fft_size) -> None:
    _check_count("fft_size", fft_size, 2)
    if fft_size & (fft_size - 1) != 0:
        raise ConfigurationError(f"fft_size must be a power of two >= 2, got {fft_size}")


class _Link:
    """The checks and bit period that PskConfig and FskConfig share."""

    def _check_link(self) -> None:
        _check_sample_rate(self.sample_rate_hz)
        rate = float(self.bit_rate_bps)  # NaN fails too; a subnormal rate has an inf period
        if not rate > 0 or not math.isfinite(int(self.sample_rate_hz) / rate):
            raise ConfigurationError(f"bit_rate_bps must be > 0 with a finite period, got {rate}")
        _check_positive("amplitude", self.amplitude, most=1.0)

    @property
    def samples_per_bit(self) -> int:
        return round(self.sample_rate_hz / self.bit_rate_bps)


@dataclass(frozen=True)
class AudioSignal:
    """A real-valued waveform sampled at a whole number of hertz.

    ``samples`` has shape ``(n,)`` for mono or ``(2, n)`` for stereo (one row
    per channel).  Amplitudes are dimensionless, nominally within [-1, 1];
    intermediate arithmetic may exceed that range.
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
        _check_sample_rate(self.sample_rate_hz)
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


def _fft_length(n: int) -> int:
    """Smallest even 2^a * 3^b * 5^c >= ``n``: a fast numpy FFT length with a Nyquist bin."""
    best, p5 = 2 << (n - 1).bit_length(), 1  # twice the next power of two: an upper bound
    while p5 < n:
        p35 = p5
        while p35 < n:  # p35 * 2^a with a >= 1 and ceil(n / p35) <= 2^a
            best = min(best, p35 << max(1, (-(-n // p35) - 1).bit_length()))
            p35 *= 3
        p5 *= 5
    return best


def _as_bits(bits) -> np.ndarray:
    """``bits`` as a non-empty 1-D int64 array of zeros and ones."""
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("bits must be a non-empty 1-D sequence")
    if not np.isin(arr, (0, 1)).all():
        raise ConfigurationError("bits must contain only 0 and 1")
    return arr


def generate_tone(
    freq_hz: float,
    num_samples: int,
    sample_rate_hz: int,
    amplitude: float = 1.0,
) -> AudioSignal:
    """Synthesize a mono cosine tone at a whole sample rate.

    sample[k] = amplitude * cos(2*pi*freq_hz*k/sample_rate_hz)
    """
    _check_sample_rate(sample_rate_hz)
    if not 0.0 <= freq_hz < sample_rate_hz / 2:
        raise NyquistViolationError(
            f"freq_hz={freq_hz} must lie in [0, {sample_rate_hz / 2}) (below Nyquist)"
        )
    if amplitude < 0:
        raise ConfigurationError(f"amplitude must be >= 0, got {amplitude}")
    _check_count("num_samples", num_samples, 1)
    k = np.arange(num_samples)
    samples = amplitude * np.cos(2.0 * np.pi * freq_hz * k / sample_rate_hz)
    return AudioSignal(samples, sample_rate_hz)


_WINDOWS = ("rectangular", "hann")
# framed_power transforms this many samples' worth of frames at a time, so its
# transient copies stay a few MB however long the signal is
_BLOCK_SAMPLES = 1 << 16


def framed_power(samples: np.ndarray, fft_size: int, window: str = "rectangular") -> np.ndarray:
    """One-sided power spectra of the non-overlapping ``fft_size`` frames of
    mono ``samples``, as a (frames, bins) matrix; a trailing partial frame is
    dropped.  Each row is normalized as :class:`Spectrum` describes."""
    if samples.ndim != 1:
        raise IncompatibleSignalError(f"framed_power expects mono samples, got {samples.shape}")
    _check_fft_size(fft_size)
    if samples.size < fft_size:
        raise InsufficientDataError(
            f"signal has {samples.size} samples, need at least fft_size={fft_size}"
        )
    if window not in _WINDOWS:
        raise ConfigurationError(f"window must be one of {_WINDOWS}, got {window!r}")
    num_frames = samples.size // fft_size
    frames = samples[: num_frames * fft_size].reshape(num_frames, fft_size)
    taper = np.hanning(fft_size) if window == "hann" else None
    power = np.empty((num_frames, fft_size // 2 + 1))
    step = max(1, _BLOCK_SAMPLES // fft_size)
    for lo in range(0, num_frames, step):
        block = frames[lo : lo + step]
        if taper is not None:
            block = block * taper
        rows = power[lo : lo + step]
        np.abs(np.fft.rfft(block, axis=1), out=rows)
        rows /= fft_size
        rows **= 2
    power[:, 1:-1] *= 2.0  # fold negative frequencies onto interior bins
    return power


def power_spectrum(signal: AudioSignal, fft_size: int) -> Spectrum:
    """One-sided power spectrum of the first ``fft_size`` samples of a mono
    signal, unwindowed, so a unit tone on a bin reads 0.5 (detection uses
    this normalization; :func:`framed_power` also offers a hann window)."""
    power = framed_power(signal.samples[:fft_size], fft_size)[0]
    freqs = np.fft.rfftfreq(fft_size, 1.0 / signal.sample_rate_hz)
    return Spectrum(freqs, power, fft_size, signal.sample_rate_hz)


def _band_mask(freqs, bin_width_hz, f_lo_hz, f_hi_hz, excluded_freqs_hz) -> np.ndarray:
    """Bins of ``freqs`` in [f_lo_hz, f_hi_hz] more than two bin widths from
    every excluded frequency, a guard band for spectral leakage."""
    mask = (freqs >= f_lo_hz) & (freqs <= f_hi_hz)
    for fc in excluded_freqs_hz:
        mask &= np.abs(freqs - fc) > 2.0 * bin_width_hz
    return mask


def band_power(
    spectrum: Spectrum, f_lo_hz: float, f_hi_hz: float, excluded_freqs_hz=()
) -> float | np.ndarray:
    """Mean bin power over [f_lo_hz, f_hi_hz], skipping excluded carriers.

    Bins within two bin widths of any excluded frequency are ignored, a guard
    band for spectral leakage.  Raises ConfigurationError for a band that is
    inverted, reaches past Nyquist or keeps no bin.  A spectrum whose
    ``bin_power`` holds one row per frame, as :func:`framed_power` returns,
    gives an array with one mean per frame.
    """
    nyquist = spectrum.source_sample_rate_hz / 2
    if not f_lo_hz < f_hi_hz <= nyquist:
        raise ConfigurationError(
            f"need f_lo < f_hi <= Nyquist ({nyquist}), got [{f_lo_hz}, {f_hi_hz}]"
        )
    freqs = spectrum.bin_freq_hz
    mask = _band_mask(freqs, spectrum.bin_width_hz, f_lo_hz, f_hi_hz, excluded_freqs_hz)
    if not mask.any():
        raise ConfigurationError(f"no bin of [{f_lo_hz}, {f_hi_hz}] is left after exclusions")
    # a contiguous copy keeps each row's sum in the same order as a 1-D mean
    means = np.ascontiguousarray(spectrum.bin_power[..., mask]).mean(axis=-1)
    return float(means) if means.ndim == 0 else means
