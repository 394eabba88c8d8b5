"""Tests for dual-channel FSK modulation, carrier detection, demodulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmodem import (
    AudioSignal,
    ConfigurationError,
    FskConfig,
    InsufficientDataError,
    NoClockError,
    Spectrum,
    detect_carriers,
    detect_carriers_in_spectrum,
    fsk_demodulate,
    fsk_modulate,
    generate_tone,
    mix,
    power_spectrum,
)

from oracles import naive_power_spectrum

RNG_SEED = 777


def synthetic_spectrum(config: FskConfig, carrier_levels: dict, noise_level: float) -> Spectrum:
    """Uniform in-band noise floor with chosen carrier-bin levels."""
    reference = power_spectrum(AudioSignal(np.zeros(config.fft_size), config.sample_rate_hz),
                               config.fft_size)
    power = np.zeros_like(reference.bin_power)
    in_band = (reference.bin_freq_hz >= config.band_lo_hz) & (
        reference.bin_freq_hz <= config.band_hi_hz
    )
    power[in_band] = noise_level
    for name, level in carrier_levels.items():
        power[reference.nearest_bin(config.carrier_freqs_hz[name])] = level
    return Spectrum(reference.bin_freq_hz, power, config.fft_size, config.sample_rate_hz)


class TestFskConfig:
    def test_defaults(self):
        cfg = FskConfig()
        assert cfg.samples_per_bit == 11025
        assert cfg.samples_per_bit >= 2 * cfg.fft_size

    def test_duplicate_carriers_rejected(self):
        with pytest.raises(ConfigurationError):
            FskConfig(data_freq1_hz=18000.0)

    def test_carrier_outside_band_rejected(self):
        with pytest.raises(ConfigurationError):
            FskConfig(clock_freq1_hz=19600.0)

    def test_bit_rate_too_high_rejected(self):
        # 44100/8 = 5512 samples per bit < 2*4096
        with pytest.raises(ConfigurationError):
            FskConfig(bit_rate_bps=8.0)

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize("field", ["bit_rate_bps", "detection_ratio"])
    def test_rate_and_ratio_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ConfigurationError):
            FskConfig(**{field: value})

    def test_fft_size_power_of_two(self):
        with pytest.raises(ConfigurationError):
            FskConfig(fft_size=4000)


class TestFskModulate:
    def test_single_one_carrier_assignment(self):
        cfg = FskConfig()
        sig = fsk_modulate([1], cfg)
        assert sig.channel_count == 2
        assert sig.num_samples == cfg.samples_per_bit
        left = generate_tone(18250, cfg.samples_per_bit, 44100, cfg.amplitude)
        right = generate_tone(18750, cfg.samples_per_bit, 44100, cfg.amplitude)
        np.testing.assert_allclose(sig.channel(0), left.samples, atol=1e-12)
        np.testing.assert_allclose(sig.channel(1), right.samples, atol=1e-12)

    def test_constant_zero_data_alternating_clock(self):
        cfg = FskConfig()
        sig = fsk_modulate([0, 0], cfg)
        spb = cfg.samples_per_bit
        tone_18000 = generate_tone(18000, spb, 44100, cfg.amplitude).samples
        np.testing.assert_allclose(sig.channel(0)[:spb], tone_18000, atol=1e-12)
        np.testing.assert_allclose(sig.channel(0)[spb:], tone_18000, atol=1e-12)
        np.testing.assert_allclose(
            sig.channel(1)[:spb], generate_tone(18750, spb, 44100, cfg.amplitude).samples,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            sig.channel(1)[spb:], generate_tone(18500, spb, 44100, cfg.amplitude).samples,
            atol=1e-12,
        )

    def test_per_bit_spectral_peaks_match_schedule(self):
        cfg = FskConfig()
        bits = [1, 0, 1]
        sig = fsk_modulate(bits, cfg)
        spb = cfg.samples_per_bit
        expected_data = [18250, 18000, 18250]
        expected_clock = [18750, 18500, 18750]
        for i in range(3):
            for channel, freq in ((0, expected_data[i]), (1, expected_clock[i])):
                frame = sig.channel(channel)[i * spb : i * spb + 4096]
                oracle = naive_power_spectrum(frame)
                bin_width = 44100 / 4096
                assert int(np.argmax(oracle)) == round(freq / bin_width)

    def test_empty_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            fsk_modulate([], FskConfig())


class TestDetectCarriers:
    def test_carrier_at_ten_times_floor_is_active(self):
        cfg = FskConfig()
        spectrum = synthetic_spectrum(cfg, {"data1": 10.0}, 1.0)
        det = detect_carriers_in_spectrum(spectrum, cfg)
        assert det.active_carriers == frozenset({"data1"})
        assert det.noise_floor_power == pytest.approx(1.0)

    def test_carrier_at_five_times_floor_inactive(self):
        cfg = FskConfig()
        spectrum = synthetic_spectrum(cfg, {"data1": 5.0}, 1.0)
        det = detect_carriers_in_spectrum(spectrum, cfg)
        assert det.active_carriers == frozenset()

    @pytest.mark.parametrize(
        "ratio,expected_active",
        [(5.0, False), (9.99, False), (10.0, True), (100.0, True)],
    )
    def test_order_of_magnitude_threshold(self, ratio, expected_active):
        cfg = FskConfig()
        spectrum = synthetic_spectrum(cfg, {"clock0": ratio}, 1.0)
        det = detect_carriers_in_spectrum(spectrum, cfg)
        assert ("clock0" in det.active_carriers) == expected_active

    def test_silence_all_inactive_zero_floor(self):
        cfg = FskConfig()
        det = detect_carriers(AudioSignal(np.zeros(4096), 44100), cfg)
        assert det.active_carriers == frozenset()
        assert det.noise_floor_power == 0.0

    def test_zero_floor_any_power_activates(self):
        cfg = FskConfig()
        spectrum = synthetic_spectrum(cfg, {"data0": 1e-9}, 0.0)
        det = detect_carriers_in_spectrum(spectrum, cfg)
        assert det.active_carriers == frozenset({"data0"})

    def test_detection_is_deterministic(self):
        cfg = FskConfig()
        frame = AudioSignal(
            np.random.default_rng(RNG_SEED).standard_normal(4096), 44100
        )
        a = detect_carriers(frame, cfg)
        b = detect_carriers(frame, cfg)
        assert a.active_carriers == b.active_carriers
        assert a.carrier_powers == b.carrier_powers
        assert a.noise_floor_power == b.noise_floor_power

    def test_short_frame_rejected(self):
        with pytest.raises(InsufficientDataError):
            detect_carriers(AudioSignal(np.zeros(1000), 44100), FskConfig())

    def test_powers_read_near_nominal_bin(self):
        cfg = FskConfig()
        sig = generate_tone(18250, 4096, 44100, amplitude=0.8)
        det = detect_carriers(sig, cfg)
        assert det.carrier_powers["data1"] > 0.1
        assert "data1" in det.active_carriers


class TestFskDemodulate:
    def test_roundtrip_small_payloads(self):
        cfg = FskConfig()
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 2, 3, 8, 17):
            bits = rng.integers(0, 2, n)
            result = fsk_demodulate(fsk_modulate(bits, cfg), cfg)
            np.testing.assert_array_equal(result.bits, bits)
            assert result.erasure_frame_indices == []

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=12))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, bits):
        cfg = FskConfig()
        result = fsk_demodulate(fsk_modulate(bits, cfg), cfg)
        np.testing.assert_array_equal(result.bits, np.asarray(bits))

    def test_roundtrip_lengths_across_full_range(self):
        # seeded draws spanning payload lengths 1..256 (the long end matters:
        # every bit boundary is a chance for a duplicated or dropped sample)
        cfg = FskConfig()
        rng = np.random.default_rng(RNG_SEED)
        for n in [1, 256, *rng.integers(2, 256, 4)]:
            bits = rng.integers(0, 2, n)
            result = fsk_demodulate(fsk_modulate(bits, cfg), cfg)
            np.testing.assert_array_equal(result.bits, bits)

    def test_mono_mixdown_roundtrip(self):
        cfg = FskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 8)
        stereo = fsk_modulate(bits, cfg)
        mono = AudioSignal(stereo.samples.sum(axis=0) / 2, 44100)
        result = fsk_demodulate(mono, cfg)
        np.testing.assert_array_equal(result.bits, bits)

    def test_output_never_longer_than_input(self):
        cfg = FskConfig()
        rng = np.random.default_rng(RNG_SEED)
        for trial in range(5):
            bits = rng.integers(0, 2, 12)
            signal = fsk_modulate(bits, cfg)
            noisy = AudioSignal(
                signal.samples + 0.05 * rng.standard_normal(signal.samples.shape), 44100
            )
            result = fsk_demodulate(noisy, cfg)
            assert result.bits.size <= bits.size

    def test_both_data_carriers_is_erasure_not_bit(self):
        cfg = FskConfig()
        spb = cfg.samples_per_bit
        # adversarial: both data tones on the left channel, proper clock on the right
        both = mix(
            generate_tone(18000, spb, 44100, 0.4),
            generate_tone(18250, spb, 44100, 0.4),
        )
        clock = generate_tone(18750, spb, 44100, 0.8)
        signal = AudioSignal(np.stack([both.samples, clock.samples]), 44100)
        result = fsk_demodulate(signal, cfg)
        assert result.bits.size == 0
        assert len(result.erasure_frame_indices) >= 1

    def test_missing_data_carrier_is_erasure(self):
        cfg = FskConfig()
        spb = cfg.samples_per_bit
        clock_only = AudioSignal(
            np.stack([np.zeros(spb), generate_tone(18750, spb, 44100, 0.8).samples]), 44100
        )
        result = fsk_demodulate(clock_only, cfg)
        assert result.bits.size == 0
        assert len(result.erasure_frame_indices) >= 1

    def test_silence_raises_no_clock(self):
        with pytest.raises(NoClockError):
            fsk_demodulate(AudioSignal(np.zeros(20000), 44100), FskConfig())

    def test_data_without_clock_raises_no_clock(self):
        cfg = FskConfig()
        spb = cfg.samples_per_bit
        data_only = AudioSignal(
            np.stack([generate_tone(18250, spb, 44100, 0.8).samples, np.zeros(spb)]), 44100
        )
        with pytest.raises(NoClockError):
            fsk_demodulate(data_only, cfg)

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            fsk_demodulate(AudioSignal(np.zeros(1000), 44100), FskConfig())

    def test_detection_trace_covers_all_frames(self):
        cfg = FskConfig()
        bits = np.asarray([1, 0])
        signal = fsk_modulate(bits, cfg)
        result = fsk_demodulate(signal, cfg)
        expected_frames = (2 * cfg.samples_per_bit) // cfg.fft_size
        assert len(result.detections) == expected_frames
        assert [d.frame_index for d in result.detections] == list(range(expected_frames))

    def test_detections_equal_per_frame_detect_carriers(self):
        # classifying all frames from one matrix must match the per-frame path exactly
        cfg = FskConfig()
        rng = np.random.default_rng(RNG_SEED)
        signal = fsk_modulate(rng.integers(0, 2, 6), cfg)
        x = signal.samples.sum(axis=0) + 0.05 * rng.standard_normal(signal.num_samples)
        result = fsk_demodulate(AudioSignal(x, 44100), cfg)
        n = cfg.fft_size
        expected = [
            detect_carriers(AudioSignal(x[i * n : (i + 1) * n], 44100), cfg, i)
            for i in range(x.size // n)
        ]
        assert result.detections == expected

    def test_demodulation_deterministic(self):
        cfg = FskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 6)
        noisy = fsk_modulate(bits, cfg)
        first = fsk_demodulate(noisy, cfg)
        second = fsk_demodulate(noisy, cfg)
        np.testing.assert_array_equal(first.bits, second.bits)
        assert first.erasure_frame_indices == second.erasure_frame_indices
