"""Tests for the simulated acoustic channel and synthetic noise profiles."""

import math

import numpy as np
import pytest

from airmodem import (
    AudioSignal,
    ChannelSpec,
    ConfigurationError,
    IncompatibleSignalError,
    InsufficientDataError,
    NoiseSpec,
    apply_channel,
    generate_tone,
    measure_snr_at,
    power_spectrum,
    synth_noise,
)
from airmodem.channel import SNR_FFT_SIZE, _mean_bin_power
from airmodem.signals import framed_power

RNG_SEED = 99


def spectral_fraction_below(signal: AudioSignal, cutoff_hz: float) -> float:
    spectrum = np.abs(np.fft.rfft(signal.samples)) ** 2
    freqs = np.fft.rfftfreq(signal.num_samples, 1.0 / signal.sample_rate_hz)
    return spectrum[freqs <= cutoff_hz].sum() / spectrum.sum()


def band_density(signal: AudioSignal, lo: float, hi: float) -> float:
    spectrum = np.abs(np.fft.rfft(signal.samples)) ** 2
    freqs = np.fft.rfftfreq(signal.num_samples, 1.0 / signal.sample_rate_hz)
    mask = (freqs >= lo) & (freqs <= hi)
    return spectrum[mask].mean()


class TestSpecs:
    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(delay_samples=-1)

    def test_zero_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelSpec(gain=0.0)

    def test_unknown_noise_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind="pink", snr_db_at_carrier=10.0, carrier_hz=19200.0)

    def test_negative_fixed_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec(kind="white", snr_db_at_carrier=10.0, carrier_hz=19200.0, fixed_scale=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["snr_db_at_carrier", "carrier_hz", "fixed_scale", "gain"])
    def test_non_finite_values_rejected(self, field, value):
        noise = {"kind": "white", "snr_db_at_carrier": 10.0, "carrier_hz": 19200.0}
        with pytest.raises(ConfigurationError):
            if field == "gain":
                ChannelSpec(gain=value, noise=NoiseSpec(**noise))
            else:
                NoiseSpec(**{**noise, field: value})


class TestApplyChannel:
    def test_identity_channel(self):
        sig = generate_tone(19200, 9600, 96000, amplitude=0.5)
        result = apply_channel(sig, ChannelSpec())
        np.testing.assert_array_equal(result.signal.samples, sig.samples)
        assert result.clip_count == 0
        assert result.noise_scale is None

    def test_pure_delay_shifts_one_symbol(self):
        sig = generate_tone(19200, 9600, 96000, amplitude=0.5)
        result = apply_channel(sig, ChannelSpec(delay_samples=480))
        np.testing.assert_array_equal(result.signal.samples[:480], np.zeros(480))
        np.testing.assert_array_equal(result.signal.samples[480:], sig.samples)

    def test_gain_scales(self):
        sig = generate_tone(19200, 9600, 96000, amplitude=0.4)
        result = apply_channel(sig, ChannelSpec(gain=2.0))
        np.testing.assert_allclose(result.signal.samples, 2.0 * sig.samples)

    def test_white_noise_snr_calibrated_within_1db(self):
        # small amplitude keeps the sum inside [-1, 1] so clipping cannot
        # distort the calibration being measured
        sig = generate_tone(19200, 96000, 96000, amplitude=0.05)
        spec = ChannelSpec(noise=NoiseSpec("white", 20.0, 19200.0), seed=RNG_SEED)
        result = apply_channel(sig, spec)
        assert result.clip_fraction < 0.001
        noise_only = AudioSignal(
            result.noise_scale * synth_noise("white", sig.num_samples, 96000, RNG_SEED).samples,
            96000,
        )
        measured = measure_snr_at(sig, noise_only, 19200.0)
        assert measured == pytest.approx(20.0, abs=1.0)

    def test_deterministic_given_seed(self):
        sig = generate_tone(19200, 48000, 96000, amplitude=0.3)
        spec = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=5)
        a = apply_channel(sig, spec)
        b = apply_channel(sig, spec)
        np.testing.assert_array_equal(a.signal.samples, b.signal.samples)

    def test_different_seed_changes_only_noise(self):
        sig = generate_tone(19200, 48000, 96000, amplitude=0.3)
        a = apply_channel(sig, ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=1))
        b = apply_channel(sig, ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=2))
        assert not np.array_equal(a.signal.samples, b.signal.samples)
        clean = apply_channel(sig, ChannelSpec())
        np.testing.assert_array_equal(clean.signal.samples, sig.samples)

    def test_snr_monotonicity_in_noise_variance(self):
        sig = generate_tone(19200, 48000, 96000, amplitude=0.2)
        scales = []
        for snr in (0.0, 10.0, 20.0, 30.0):
            spec = ChannelSpec(noise=NoiseSpec("white", snr, 19200.0), seed=3)
            scales.append(apply_channel(sig, spec).noise_scale)
        assert all(a > b for a, b in zip(scales, scales[1:]))

    def test_linearity_of_deterministic_component(self):
        a = generate_tone(19200, 4800, 96000, amplitude=0.2)
        b = generate_tone(18500, 4800, 96000, amplitude=0.2)
        spec = ChannelSpec(delay_samples=100, gain=1.5)
        combined = apply_channel(AudioSignal(a.samples + b.samples, 96000), spec)
        separate = (
            apply_channel(a, spec).signal.samples + apply_channel(b, spec).signal.samples
        )
        np.testing.assert_allclose(combined.signal.samples, separate, atol=1e-12)

    def test_clipping_counted_and_flagged(self):
        sig = generate_tone(19200, 9600, 96000, amplitude=0.9)
        result = apply_channel(sig, ChannelSpec(gain=2.0))
        assert result.clip_count > 0.05 * sig.num_samples
        assert result.clipping_warning
        assert np.max(np.abs(result.signal.samples)) <= 1.0

    def test_stereo_mixes_down_to_mono(self):
        left = generate_tone(18250, 8192, 44100, amplitude=0.8)
        right = generate_tone(18750, 8192, 44100, amplitude=0.8)
        stereo = AudioSignal(np.stack([left.samples, right.samples]), 44100)
        result = apply_channel(stereo, ChannelSpec())
        assert result.signal.channel_count == 1
        np.testing.assert_allclose(
            result.signal.samples, (left.samples + right.samples) / 2, atol=1e-12
        )

    def test_fixed_scale_skips_calibration(self):
        sig = generate_tone(19200, 9600, 96000, amplitude=0.05)
        spec = ChannelSpec(
            noise=NoiseSpec("white", 99.0, 19200.0, fixed_scale=0.125), seed=RNG_SEED
        )
        result = apply_channel(sig, spec)
        assert result.noise_scale == 0.125
        unit = synth_noise("white", sig.num_samples, 96000, RNG_SEED).samples
        np.testing.assert_allclose(
            result.signal.samples, np.clip(sig.samples + 0.125 * unit, -1, 1), atol=1e-12
        )


class TestSynthNoise:
    def test_same_seed_identical(self):
        a = synth_noise("white", 4096, 96000, 12)
        b = synth_noise("white", 4096, 96000, 12)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_unit_rms(self):
        for kind in ("white", "lowpass_music", "lowpass_voice", "broadband_jangle"):
            sig = synth_noise(kind, 48000, 96000, 7)
            assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("kind", ["lowpass_voice", "lowpass_music"])
    @pytest.mark.parametrize(
        "rate,num_samples",
        [
            pytest.param(44100, 4 * 44100, id="44100"),
            pytest.param(96000, 4 * 96000, id="96000"),
            pytest.param(44100, 4 * 44100 + 1, id="44100-prime_length"),
        ],
    )
    def test_lowpass_kinds_mostly_below_10k(self, kind, rate, num_samples):
        sig = synth_noise(kind, num_samples, rate, 42)
        assert spectral_fraction_below(sig, 10000.0) >= 0.9

    def test_voice_rolls_off_lower_than_music(self):
        voice = synth_noise("lowpass_voice", 96000, 96000, 8)
        music = synth_noise("lowpass_music", 96000, 96000, 8)
        assert spectral_fraction_below(voice, 4000.0) > spectral_fraction_below(music, 4000.0)

    def test_jangle_nearly_flat_into_carrier_band(self):
        for num_samples in (8 * 96000, 768013):  # the second length is prime
            sig = synth_noise("broadband_jangle", num_samples, 96000, 21)
            high = band_density(sig, 18000.0, 19500.0)
            low = band_density(sig, 1000.0, 2000.0)
            tilt_db = abs(10 * math.log10(high / low))
            assert tilt_db <= 3.0

    def test_white_flat_across_band(self):
        sig = synth_noise("white", 8 * 96000, 96000, 21)
        high = band_density(sig, 18000.0, 19500.0)
        low = band_density(sig, 1000.0, 2000.0)
        assert abs(10 * math.log10(high / low)) <= 1.0

    def test_white_is_scaled_standard_normals(self):
        sig = synth_noise("white", 12345, 96000, 17)
        expected = np.random.default_rng(17).standard_normal(12345)
        expected = expected / math.sqrt(float(np.mean(expected**2)))
        np.testing.assert_array_equal(sig.samples, expected)

    @pytest.mark.parametrize("kind", ["lowpass_music", "lowpass_voice", "broadband_jangle"])
    @pytest.mark.parametrize("num_samples", [1, 2, 4096, 4097, 4093])
    def test_shaped_kinds_any_length(self, kind, num_samples):
        sig = synth_noise(kind, num_samples, 44100, 3)
        assert sig.num_samples == num_samples
        assert np.sqrt(np.mean(sig.samples**2)) == pytest.approx(1.0, rel=1e-9)
        again = synth_noise(kind, num_samples, 44100, 3)
        np.testing.assert_array_equal(sig.samples, again.samples)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_noise("brown", 100, 44100, 0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_noise("white", 0, 44100, 0)


class TestMeasureSnr:
    def test_signal_against_itself_is_zero_db(self):
        sig = generate_tone(19200, 8192, 96000, amplitude=0.3)
        assert measure_snr_at(sig, sig, 19200.0) == pytest.approx(0.0, abs=1e-9)

    def test_doubling_amplitude_adds_six_db(self):
        base = generate_tone(19200, 8192, 96000, amplitude=0.25)
        doubled = generate_tone(19200, 8192, 96000, amplitude=0.5)
        noise = synth_noise("white", 8192, 96000, 4)
        delta = measure_snr_at(doubled, noise, 19200.0) - measure_snr_at(base, noise, 19200.0)
        assert delta == pytest.approx(20 * math.log10(2), abs=1e-6)

    def test_constructed_pair_reads_15_db(self):
        # oracle construction: noise whose carrier-bin power is known, signal
        # scaled so the ratio is exactly 15 dB
        sig = generate_tone(19200, 96000, 96000, amplitude=0.2)
        noise = synth_noise("white", 96000, 96000, 31)
        gap_db = measure_snr_at(sig, noise, 19200.0)
        target_scale = 10 ** ((gap_db - 15.0) / 20.0)
        scaled_noise = AudioSignal(noise.samples * target_scale, 96000)
        assert measure_snr_at(sig, scaled_noise, 19200.0) == pytest.approx(15.0, abs=0.5)

    def test_zero_noise_gives_infinity(self):
        sig = generate_tone(19200, 8192, 96000, amplitude=0.3)
        silence = AudioSignal(np.zeros(8192), 96000)
        assert measure_snr_at(sig, silence, 19200.0) == math.inf

    def test_zero_signal_gives_minus_infinity(self):
        silence = AudioSignal(np.zeros(8192), 96000)
        noise = synth_noise("white", 8192, 96000, 4)
        assert measure_snr_at(silence, noise, 19200.0) == -math.inf

    def test_rate_mismatch_rejected(self):
        a = generate_tone(19200, 8192, 96000)
        b = generate_tone(18000, 8192, 44100)
        with pytest.raises(IncompatibleSignalError):
            measure_snr_at(a, b, 19200.0)

    def test_short_signals_rejected(self):
        a = AudioSignal(np.zeros(100), 96000)
        b = AudioSignal(np.zeros(8192), 96000)
        with pytest.raises(InsufficientDataError):
            measure_snr_at(a, b, 19200.0)


class TestMeanBinPower:
    @pytest.mark.parametrize("rate", [44100, 48000, 96000])
    @pytest.mark.parametrize("num_samples", [1000, SNR_FFT_SIZE, 3 * SNR_FFT_SIZE + 1234])
    def test_matches_framed_power_bin(self, rate, num_samples):
        samples = np.random.default_rng(num_samples).standard_normal(num_samples)
        padded = np.pad(samples, (0, max(0, SNR_FFT_SIZE - num_samples)))
        power = framed_power(padded, SNR_FFT_SIZE)
        frame_power = power.sum(axis=1).mean()
        bin_width = rate / SNR_FFT_SIZE
        for index in (0, 1, 1747, SNR_FFT_SIZE // 2 - 1, SNR_FFT_SIZE // 2):
            got = _mean_bin_power(samples, rate, index * bin_width)
            assert abs(got - power[:, index].mean()) <= 1e-9 * frame_power

    def test_carrier_outside_spectrum_rejected(self):
        with pytest.raises(ConfigurationError):
            _mean_bin_power(np.ones(SNR_FFT_SIZE), 44100, 23000.0)
