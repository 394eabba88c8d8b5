"""Dual-channel frequency-shift keying with FFT-buffer demodulation.

The DATA bit stream rides the left channel and a CLOCK stream the right; the
clock carrier alternates every bit period so each period boundary is a clock
transition that tells the receiver when to sample the data carrier.  Carrier
detection compares per-carrier power against an adaptive in-band noise floor.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, NoClockError, NyquistViolationError
from .signals import (
    AudioSignal,
    Spectrum,
    _Link,
    _as_bits,
    _band_mask,
    _check_fft_size,
    _check_positive,
    _check_same_rate,
    band_power,
    framed_power,
    generate_tone,
    power_spectrum,
)

CARRIER_NAMES = ("data0", "data1", "clock0", "clock1")


@dataclass(frozen=True)
class FskConfig(_Link):
    """Carrier assignments and detection parameters.

    The four carriers sit inside the usable near-ultrasonic band and each bit
    period must fit at least two full FFT frames so every bit contains a
    frame free of boundary straddle.
    """

    data_freq0_hz: float = 18000.0
    data_freq1_hz: float = 18250.0
    clock_freq0_hz: float = 18500.0
    clock_freq1_hz: float = 18750.0
    bit_rate_bps: float = 4.0
    sample_rate_hz: int = 44100
    fft_size: int = 4096
    detection_ratio: float = 10.0
    amplitude: float = 0.8
    band_lo_hz: float = 18000.0
    band_hi_hz: float = 19500.0

    def __post_init__(self):
        self._check_link()
        _check_fft_size(self.fft_size)
        carriers = self.carrier_freqs_hz
        freqs = sorted(carriers.values())
        gap = min(hi - lo for lo, hi in zip(freqs, freqs[1:]))
        bins = gap * self.fft_size / self.sample_rate_hz
        if bins < 3:  # a carrier's +-1-bin peak would reach a neighbour's +-2-bin guard
            raise ConfigurationError(f"carrier spacing {gap} Hz is {bins:.2f} FFT bins, below 3")
        for name, freq in carriers.items():
            if not self.band_lo_hz <= freq <= self.band_hi_hz:
                raise ConfigurationError(
                    f"{name}={freq} outside detection band [{self.band_lo_hz}, {self.band_hi_hz}]"
                )
        nyquist = self.sample_rate_hz / 2
        if self.band_hi_hz > nyquist or freqs[-1] >= nyquist:
            raise NyquistViolationError(
                f"band_hi_hz may not exceed Nyquist ({nyquist}), nor a carrier reach it"
            )
        band = [self.band_lo_hz, self.band_hi_hz]
        bin_freqs = np.fft.rfftfreq(self.fft_size, 1.0 / self.sample_rate_hz)
        if not _band_mask(bin_freqs, self.sample_rate_hz / self.fft_size, *band, freqs).any():
            raise ConfigurationError(f"detection band {band} has no noise-floor bin off the guards")
        if self.samples_per_bit < 2 * self.fft_size:
            raise ConfigurationError(
                f"samples_per_bit={self.samples_per_bit} must be >= 2*fft_size="
                f"{2 * self.fft_size}; lower the bit rate or shrink the FFT"
            )
        _check_positive("detection_ratio", self.detection_ratio)

    @property
    def carrier_freqs_hz(self) -> dict[str, float]:
        return {
            "data0": self.data_freq0_hz,
            "data1": self.data_freq1_hz,
            "clock0": self.clock_freq0_hz,
            "clock1": self.clock_freq1_hz,
        }


@dataclass(frozen=True)
class CarrierDetection:
    """Detection outcome for one FFT frame.

    A carrier is active when its power reaches ``detection_ratio`` times the
    adaptive noise floor (in-band mean power excluding all carrier bins); on
    a zero floor a carrier is active iff it has any power at all.
    """

    frame_index: int
    active_carriers: frozenset
    noise_floor_power: float
    carrier_powers: Mapping[str, float]


@dataclass(frozen=True)
class FskDemodResult:
    """Demodulated bits plus the full per-frame detection trace.

    ``erasure_frame_indices`` lists frames where a clock transition fired but
    zero or both data carriers were active, so no bit was emitted.
    """

    bits: np.ndarray
    detections: list
    erasure_frame_indices: list


def fsk_modulate(bits, config: FskConfig = FskConfig()) -> AudioSignal:
    """Modulate bits onto the stereo DATA/CLOCK carrier pair.

    Left channel: data_freq1 during 1-bits, data_freq0 during 0-bits.  Right
    channel: clock_freq1 on even-indexed periods, clock_freq0 on odd.  Each
    tone segment starts at phase 0 and spans one bit period.
    """
    bits = _as_bits(bits)
    spb, fs = config.samples_per_bit, config.sample_rate_hz
    # one bit period of each carrier, rows in CARRIER_NAMES order
    freqs = config.carrier_freqs_hz.values()
    tones = np.stack([generate_tone(f, spb, fs, config.amplitude).samples for f in freqs])
    clock = 3 - np.arange(bits.size) % 2  # clock1 on even periods, clock0 on odd
    return AudioSignal(np.take(tones, np.stack([bits, clock]), axis=0).reshape(2, -1), fs)


def _detect(spectrum: Spectrum, config: FskConfig) -> tuple[list, np.ndarray]:
    """The detection rule, applied to each frame (row) of ``spectrum.bin_power``: a
    CarrierDetection per frame and the (frames, 4) flags in CARRIER_NAMES order."""
    freqs = config.carrier_freqs_hz
    power = np.atleast_2d(spectrum.bin_power)
    floor = band_power(spectrum, config.band_lo_hz, config.band_hi_hz, freqs.values())
    floor = np.broadcast_to(floor, power.shape[:1])[:, np.newaxis]
    centers = [spectrum.nearest_bin(freq) for freq in freqs.values()]
    peaks = np.stack([power[:, max(c - 1, 0) : c + 2].max(axis=1) for c in centers], 1)
    active = np.where(floor > 0, peaks >= config.detection_ratio * floor, peaks > 0)
    detections = [
        CarrierDetection(
            row,
            frozenset(name for name, on in zip(freqs, active[row]) if on),
            float(floor[row, 0]),
            dict(zip(freqs, peaks[row].tolist())),
        )
        for row in range(power.shape[0])
    ]
    return detections, active


def detect_carriers_in_spectrum(
    spectrum: Spectrum, config: FskConfig = FskConfig()
) -> CarrierDetection:
    """Classify carrier activity in an already-computed power spectrum."""
    return _detect(spectrum, config)[0][0]


def detect_carriers(frame: AudioSignal, config: FskConfig = FskConfig()) -> CarrierDetection:
    """Detect active carriers in the first fft_size samples of a mono frame at the config's rate."""
    _check_same_rate(frame, config)
    return detect_carriers_in_spectrum(power_spectrum(frame, config.fft_size), config)


def fsk_demodulate(signal: AudioSignal, config: FskConfig = FskConfig()) -> FskDemodResult:
    """Recover bits by sliding non-overlapping FFT frames across the signal.

    Stereo input is averaged to mono first (a single microphone hears both
    speaker channels).  A frame whose single active clock carrier differs
    from the last unambiguous clock state marks a transition and arms the
    sampler: the first frame of that clock state with exactly one active
    data carrier supplies the bit, and armed frames with zero or two active
    data carriers emit no bit and are flagged as erasures.  A signal at
    another rate than the config's raises IncompatibleSignalError.
    """
    _check_same_rate(signal, config)
    freqs = np.fft.rfftfreq(config.fft_size, 1.0 / signal.sample_rate_hz)
    power = framed_power(signal.mixdown().samples, config.fft_size)
    spectrum = Spectrum(freqs, power, config.fft_size, signal.sample_rate_hz)
    detections, active = _detect(spectrum, config)
    bits, erasures = [], []
    last_clock, armed = None, False  # last_clock is True for clock1, False for clock0
    for frame, (data0, data1, clock0, clock1) in enumerate(active.tolist()):
        if clock0 == clock1:
            continue  # ambiguous or absent clock: hold the previous state
        if clock1 != last_clock:
            # every clock change arms the sampler, also after a bit that no
            # frame could read, so that bit does not take the next one with it
            last_clock, armed = clock1, True
        if armed and data0 != data1:
            bits.append(int(data1))
            armed = False
        elif armed:
            # unreadable data carrier: flag the erasure but stay armed so the
            # next clean frame of the same bit can still supply it
            # (boundary-straddling frames read half-half)
            erasures.append(frame)
    if last_clock is None:
        raise NoClockError("no unambiguous clock carrier detected in any frame")
    return FskDemodResult(np.asarray(bits, dtype=np.int64), detections, erasures)
