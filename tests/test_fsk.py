"""Tests for dual-channel FSK modulation, carrier detection, demodulation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmodem import (
    AudioSignal,
    ConfigurationError,
    FskConfig,
    IncompatibleSignalError,
    InsufficientDataError,
    NoClockError,
    Spectrum,
    detect_carriers,
    detect_carriers_in_spectrum,
    fsk_demodulate,
    fsk_modulate,
    generate_tone,
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
    @pytest.mark.parametrize("field", ["bit_rate_bps", "sample_rate_hz", "detection_ratio"])
    def test_rate_and_ratio_must_be_positive_and_finite(self, field, value):
        with pytest.raises(ConfigurationError):
            FskConfig(**{field: value})

    def test_fft_size_power_of_two(self):
        with pytest.raises(ConfigurationError):
            FskConfig(fft_size=4000)

    def test_fractional_sample_rate_rejected(self):
        # the carriers would be synthesized at 44100.7 Hz on a signal labelled 44100
        with pytest.raises(ConfigurationError):
            FskConfig(sample_rate_hz=44100.7)

    @pytest.mark.parametrize("rate", [44100.0, np.int64(44100)])
    def test_integral_sample_rate_accepted(self, rate):
        assert fsk_modulate([1], FskConfig(sample_rate_hz=rate)).sample_rate_hz == 44100

    @pytest.mark.parametrize(
        "overrides",
        [{"sample_rate_hz": 37000}, {"sample_rate_hz": 37500, "band_hi_hz": 18750.0}],
        ids=["band_above_nyquist", "clock1_on_nyquist"],
    )
    def test_band_and_carriers_below_nyquist(self, overrides):
        with pytest.raises(ConfigurationError, match="Nyquist"):
            FskConfig(**overrides)

    def test_band_may_end_on_nyquist(self):
        assert FskConfig(sample_rate_hz=39000).band_hi_hz == 39000 / 2

    @pytest.mark.parametrize(
        "rate,fft_size,bins", [(44100, 512, "2.90"), (44100, 256, "1.45"), (96000, 1024, "2.67")]
    )
    def test_carriers_under_three_bins_apart_rejected(self, rate, fft_size, bins):
        # a carrier's +-1-bin peak would reach the +-2-bin guard around its neighbour
        with pytest.raises(ConfigurationError, match=f"250.0 Hz is {bins} FFT bins"):
            FskConfig(sample_rate_hz=rate, fft_size=fft_size)

    def test_band_with_no_floor_bin_rejected(self):
        # 3.05 bins apart with the band ending on clock1: the +-2-bin guards cover
        # the whole band, the floor reads 0 and any leakage counts as a carrier
        with pytest.raises(ConfigurationError, match=r"detection band \[18000.0, 18394.06\]"):
            FskConfig(
                data_freq1_hz=18131.35, clock_freq0_hz=18262.7, clock_freq1_hz=18394.06,
                fft_size=1024, band_hi_hz=18394.06,
            )

    @pytest.mark.parametrize("field", ["bit_rate_bps", "amplitude"])
    def test_subnormal_link_field_rejected(self, field):
        # a subnormal bit rate made samples_per_bit overflow
        with pytest.raises(ConfigurationError, match=field):
            FskConfig(**{field: 5e-324})

    @pytest.mark.parametrize("rate,fft_size", [(44100, 1024), (96000, 2048)])
    def test_default_plan_at_smaller_ffts_decodes(self, rate, fft_size):
        cfg = FskConfig(sample_rate_hz=rate, fft_size=fft_size)  # 5.8 and 5.3 bins apart
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        np.testing.assert_array_equal(fsk_demodulate(fsk_modulate(bits, cfg), cfg).bits, bits)


class TestFskModulate:
    def test_single_one_carrier_assignment(self):
        cfg = FskConfig()
        sig = fsk_modulate([1], cfg)
        assert sig.channel_count == 2
        assert sig.num_samples == cfg.samples_per_bit
        left = generate_tone(18250, cfg.samples_per_bit, 44100, cfg.amplitude)
        right = generate_tone(18750, cfg.samples_per_bit, 44100, cfg.amplitude)
        np.testing.assert_allclose(sig.samples[0], left.samples, atol=1e-12)
        np.testing.assert_allclose(sig.samples[1], right.samples, atol=1e-12)

    def test_constant_zero_data_alternating_clock(self):
        cfg = FskConfig()
        sig = fsk_modulate([0, 0], cfg)
        spb = cfg.samples_per_bit
        tone_18000 = generate_tone(18000, spb, 44100, cfg.amplitude).samples
        np.testing.assert_allclose(sig.samples[0, :spb], tone_18000, atol=1e-12)
        np.testing.assert_allclose(sig.samples[0, spb:], tone_18000, atol=1e-12)
        np.testing.assert_allclose(
            sig.samples[1, :spb], generate_tone(18750, spb, 44100, cfg.amplitude).samples,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            sig.samples[1, spb:], generate_tone(18500, spb, 44100, cfg.amplitude).samples,
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
                frame = sig.samples[channel, i * spb : i * spb + 4096]
                oracle = naive_power_spectrum(frame)
                bin_width = 44100 / 4096
                assert int(np.argmax(oracle)) == round(freq / bin_width)

    @pytest.mark.parametrize("bits", [[1], [0, 1, 1, 0, 1], [1, 1, 0, 0, 0, 1, 0, 1, 1]])
    def test_equals_stack_of_two_gathers(self, bits):
        cfg = FskConfig(bit_rate_bps=5.0)
        spb = cfg.samples_per_bit
        freqs = cfg.carrier_freqs_hz.values()
        tones = np.stack([generate_tone(f, spb, 44100, cfg.amplitude).samples for f in freqs])
        clock = 3 - np.arange(len(bits)) % 2
        expected = np.stack([tones[np.asarray(bits)].ravel(), tones[clock].ravel()])
        np.testing.assert_array_equal(fsk_modulate(bits, cfg).samples, expected)

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

    def test_frame_at_another_rate_rejected(self):
        frame = generate_tone(18250, 4096, 48000, amplitude=0.8)
        with pytest.raises(IncompatibleSignalError, match="sample-rate mismatch"):
            detect_carriers(frame, FskConfig())

    def test_powers_read_near_nominal_bin(self):
        cfg = FskConfig()
        sig = generate_tone(18250, 4096, 44100, amplitude=0.8)
        det = detect_carriers(sig, cfg)
        assert det.carrier_powers["data1"] > 0.1
        assert "data1" in det.active_carriers

    @pytest.mark.xfail(
        strict=True,
        reason="4-bin plans light up their neighbours; ROADMAP item 6's receiver is to fix it",
    )
    def test_clean_frame_of_a_four_bin_plan(self):
        # carriers 4.0 bins apart at 1024 points: each tone's leakage into its
        # neighbours' +-1-bin peaks just clears 10x the floor, so the frame that
        # fsk_demodulate reads inside bit 1 reports all four carriers
        d0, d1, c0, c1 = 18000.0 + 4.0 * 44100 / 1024 * np.arange(4)
        cfg = FskConfig(
            data_freq0_hz=d0, data_freq1_hz=d1, clock_freq0_hz=c0, clock_freq1_hz=c1, fft_size=1024
        )
        mono = fsk_modulate([0, 1, 1, 0], cfg).mixdown().samples
        frame = AudioSignal(mono[12 * 1024 : 13 * 1024], 44100)  # inside bit 1 (11025-22050)
        assert detect_carriers(frame, cfg).active_carriers == {"data1", "clock0"}


class TestFskDemodulate:
    def test_signal_at_another_rate_rejected(self):
        signal = fsk_modulate([1, 0, 1], FskConfig())
        with pytest.raises(IncompatibleSignalError, match="sample-rate mismatch"):
            fsk_demodulate(signal, FskConfig(sample_rate_hz=48000))

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

    def test_stereo_reads_on_the_mixdown_scale(self):
        # one mono rule for every receiver: the channel average, as mixdown() gives
        cfg = FskConfig()
        stereo = fsk_modulate(np.random.default_rng(RNG_SEED).integers(0, 2, 6), cfg)
        assert stereo.channel_count == 2
        a = fsk_demodulate(stereo, cfg).detections
        b = fsk_demodulate(stereo.mixdown(), cfg).detections
        assert a == b

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
        both = (
            generate_tone(18000, spb, 44100, 0.4).samples
            + generate_tone(18250, spb, 44100, 0.4).samples
        )
        clock = generate_tone(18750, spb, 44100, 0.8)
        signal = AudioSignal(np.stack([both, clock.samples]), 44100)
        result = fsk_demodulate(signal, cfg)
        assert result.bits.size == 0
        assert len(result.erasure_frame_indices) >= 1

    def test_unreadable_bit_loses_only_itself(self):
        cfg = FskConfig()
        spb = cfg.samples_per_bit
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        x = fsk_modulate(bits, cfg).samples.copy()
        # bit 3 carries both data tones, so none of its frames reads one data carrier
        x[0, 3 * spb : 4 * spb] = (
            generate_tone(18000, spb, 44100, 0.4).samples
            + generate_tone(18250, spb, 44100, 0.4).samples
        )
        result = fsk_demodulate(AudioSignal(x, 44100), cfg)
        assert result.erasure_frame_indices
        assert result.bits[-4:].tolist() == bits[4:]

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
            replace(detect_carriers(AudioSignal(x[i * n : (i + 1) * n], 44100), cfg), frame_index=i)
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
