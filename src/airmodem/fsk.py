"""Dual-channel frequency-shift keying with FFT-buffer demodulation.

The DATA bit stream rides the left channel and a CLOCK stream the right; the
clock carrier alternates every bit period so each period boundary is a clock
transition that tells the receiver when to sample the data carrier.  Carrier
detection compares per-carrier power against an adaptive in-band noise floor.
"""

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, NoClockError
from .signals import (
    AudioSignal,
    Spectrum,
    band_power,
    framed_power,
    generate_tone,
    power_spectrum,
)

CARRIER_NAMES = ("data0", "data1", "clock0", "clock1")


@dataclass(frozen=True)
class FskConfig:
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
        if self.sample_rate_hz <= 0:
            raise ConfigurationError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.fft_size < 2 or self.fft_size & (self.fft_size - 1) != 0:
            raise ConfigurationError(f"fft_size must be a power of two, got {self.fft_size}")
        carriers = self.carrier_freqs_hz
        if len(set(carriers.values())) != 4:
            raise ConfigurationError(f"the four carriers must be distinct, got {carriers}")
        for name, freq in carriers.items():
            if not self.band_lo_hz <= freq <= self.band_hi_hz:
                raise ConfigurationError(
                    f"{name}={freq} outside detection band [{self.band_lo_hz}, {self.band_hi_hz}]"
                )
            if freq >= self.sample_rate_hz / 2:
                raise ConfigurationError(f"{name}={freq} at or above Nyquist")
        if self.band_hi_hz > self.sample_rate_hz / 2:
            raise ConfigurationError("band_hi_hz must not exceed Nyquist")
        if not self.bit_rate_bps > 0:  # written so that NaN fails too
            raise ConfigurationError(f"bit_rate_bps must be positive, got {self.bit_rate_bps}")
        if self.samples_per_bit < 2 * self.fft_size:
            raise ConfigurationError(
                f"samples_per_bit={self.samples_per_bit} must be >= 2*fft_size="
                f"{2 * self.fft_size}; lower the bit rate or shrink the FFT"
            )
        if not 0.0 < self.amplitude <= 1.0:
            raise ConfigurationError(f"amplitude must be in (0, 1], got {self.amplitude}")
        if not 0 < self.detection_ratio < math.inf:
            raise ConfigurationError(
                f"detection_ratio must be positive and finite, got {self.detection_ratio}"
            )

    @property
    def samples_per_bit(self) -> int:
        return round(self.sample_rate_hz / self.bit_rate_bps)

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
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or bits.size == 0:
        raise ConfigurationError("bits must be a non-empty 1-D sequence")
    if not np.isin(bits, (0, 1)).all():
        raise ConfigurationError("bits must contain only 0 and 1")
    spb = config.samples_per_bit
    freqs = config.carrier_freqs_hz

    def tone(freq: float) -> np.ndarray:
        return generate_tone(freq, spb, config.sample_rate_hz, config.amplitude).samples

    segments = {name: tone(freq) for name, freq in freqs.items()}
    left = np.concatenate([segments["data1" if b else "data0"] for b in bits])
    right = np.concatenate(
        [segments["clock1" if i % 2 == 0 else "clock0"] for i in range(bits.size)]
    )
    return AudioSignal(np.stack([left, right]), config.sample_rate_hz)


def _detect(spectrum: Spectrum, config: FskConfig, first_frame_index: int) -> list:
    """The detection rule, applied to each frame (row) of ``spectrum.bin_power``."""
    freqs = config.carrier_freqs_hz
    power = np.atleast_2d(spectrum.bin_power)
    floor = band_power(spectrum, config.band_lo_hz, config.band_hi_hz, freqs.values())
    floor = np.broadcast_to(floor, power.shape[:1])[:, np.newaxis]
    centers = [spectrum.nearest_bin(freq) for freq in freqs.values()]
    peaks = np.stack([power[:, max(c - 1, 0) : c + 2].max(axis=1) for c in centers], 1)
    active = np.where(floor > 0, peaks >= config.detection_ratio * floor, peaks > 0)
    return [
        CarrierDetection(
            first_frame_index + row,
            frozenset(name for name, on in zip(freqs, active[row]) if on),
            float(floor[row, 0]),
            dict(zip(freqs, peaks[row].tolist())),
        )
        for row in range(power.shape[0])
    ]


def detect_carriers_in_spectrum(
    spectrum: Spectrum, config: FskConfig = FskConfig(), frame_index: int = 0
) -> CarrierDetection:
    """Classify carrier activity in an already-computed power spectrum."""
    return _detect(spectrum, config, frame_index)[0]


def detect_carriers(
    frame: AudioSignal, config: FskConfig = FskConfig(), frame_index: int = 0
) -> CarrierDetection:
    """Detect active carriers in the first fft_size samples of a mono frame."""
    if frame.num_samples < config.fft_size:
        raise InsufficientDataError(
            f"frame has {frame.num_samples} samples, need fft_size={config.fft_size}"
        )
    spectrum = power_spectrum(frame, config.fft_size)
    return detect_carriers_in_spectrum(spectrum, config, frame_index)


def fsk_demodulate(signal: AudioSignal, config: FskConfig = FskConfig()) -> FskDemodResult:
    """Recover bits by sliding non-overlapping FFT frames across the signal.

    Stereo input is summed to mono first (a single microphone hears both
    speaker channels).  A frame whose single active clock carrier differs
    from the last unambiguous clock state marks a transition and samples the
    data carrier in that same frame; frames with zero or two active data
    carriers at a transition emit no bit and are flagged as erasures.
    """
    x = signal.samples.sum(axis=0) if signal.channel_count == 2 else signal.samples
    freqs = np.fft.rfftfreq(config.fft_size, 1.0 / signal.sample_rate_hz)
    power = framed_power(x, config.fft_size)
    detections = _detect(Spectrum(freqs, power, config.fft_size, signal.sample_rate_hz), config, 0)
    bits = []
    erasures = []
    last_clock = None
    saw_clock = False
    for detection in detections:
        clocks = detection.active_carriers & {"clock0", "clock1"}
        if len(clocks) != 1:
            continue  # ambiguous or absent clock: hold the previous state
        saw_clock = True
        clock = next(iter(clocks))
        if clock == last_clock:
            continue
        data = detection.active_carriers & {"data0", "data1"}
        if len(data) == 1:
            bits.append(1 if "data1" in data else 0)
            last_clock = clock
        else:
            # transition with an unreadable data carrier: flag the erasure but
            # keep the sampler armed so the next clean frame of the same bit
            # can still supply it (boundary-straddling frames read half-half)
            erasures.append(detection.frame_index)
    if not saw_clock:
        raise NoClockError("no unambiguous clock carrier detected in any frame")
    return FskDemodResult(np.asarray(bits, dtype=np.int64), detections, erasures)
