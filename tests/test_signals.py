"""Tests for tone synthesis, spectra, band power and signal arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmodem import (
    AudioSignal,
    ConfigurationError,
    EmptyBandWarning,
    IncompatibleSignalError,
    InsufficientDataError,
    NyquistViolationError,
    Spectrum,
    band_power,
    generate_tone,
    mix,
    power_spectrum,
)
from airmodem.signals import framed_power

from oracles import naive_band_mean, naive_power_spectrum


class TestAudioSignal:
    def test_mono_shape(self):
        sig = AudioSignal([0.0, 0.5, -0.5], 44100)
        assert sig.channel_count == 1
        assert sig.num_samples == 3
        assert sig.duration_seconds == pytest.approx(3 / 44100)

    def test_stereo_shape(self):
        sig = AudioSignal(np.zeros((2, 10)), 48000)
        assert sig.channel_count == 2
        assert sig.num_samples == 10
        assert sig.channel(1).shape == (10,)

    def test_single_row_squeezes_to_mono(self):
        sig = AudioSignal(np.zeros((1, 4)), 8000)
        assert sig.channel_count == 1

    def test_empty_rejected(self):
        with pytest.raises(IncompatibleSignalError):
            AudioSignal(np.zeros(0), 44100)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            AudioSignal([0.0], 0)

    def test_three_channels_rejected(self):
        with pytest.raises(IncompatibleSignalError):
            AudioSignal(np.zeros((3, 4)), 44100)

    def test_mixdown_averages(self):
        sig = AudioSignal(np.array([[1.0, 0.0], [0.0, 1.0]]), 44100)
        np.testing.assert_allclose(sig.mixdown().samples, [0.5, 0.5])


class TestGenerateTone:
    def test_zero_amplitude_gives_zeros(self):
        sig = generate_tone(19200, 480, 96000, amplitude=0.0)
        assert sig.num_samples == 480
        np.testing.assert_array_equal(sig.samples, np.zeros(480))

    def test_exact_five_sample_period(self):
        # 96000 / 19200 = 5 samples per cycle
        sig = generate_tone(19200, 5, 96000, amplitude=1.0)
        expected = np.cos(2 * np.pi * np.arange(5) / 5)
        np.testing.assert_allclose(sig.samples, expected, atol=1e-12)

    def test_at_nyquist_rejected(self):
        with pytest.raises(NyquistViolationError):
            generate_tone(22050, 100, 44100)

    def test_above_nyquist_rejected(self):
        with pytest.raises(NyquistViolationError):
            generate_tone(30000, 100, 44100)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_tone(1000, 10, 44100, amplitude=-0.1)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_tone(1000, 0, 44100)

    def test_phase_wraps_by_two_pi(self):
        a = generate_tone(18000, 4096, 44100, phase_rad=0.7)
        b = generate_tone(18000, 4096, 44100, phase_rad=0.7 + 2 * np.pi)
        np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)

    def test_peak_bin_matches_dft_oracle(self):
        sig = generate_tone(18000, 4096, 44100, amplitude=0.5)
        spectrum = power_spectrum(sig, 4096)
        oracle = naive_power_spectrum(sig.samples)
        assert int(np.argmax(spectrum.bin_power)) == int(np.argmax(oracle))
        assert int(np.argmax(spectrum.bin_power)) == spectrum.nearest_bin(18000)


class TestPowerSpectrum:
    def test_all_zero_signal(self):
        spectrum = power_spectrum(AudioSignal(np.zeros(1024), 44100), 1024)
        np.testing.assert_array_equal(spectrum.bin_power, np.zeros(513))

    def test_dc_signal(self):
        spectrum = power_spectrum(AudioSignal(np.ones(256), 44100), 256)
        assert spectrum.bin_power[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(spectrum.bin_power[1:] <= 1e-12)

    def test_on_bin_tone_reads_half(self):
        # bin 300 of a 4096-point FFT at 44.1 kHz
        freq = 300 * 44100 / 4096
        sig = generate_tone(freq, 4096, 44100, amplitude=1.0)
        spectrum = power_spectrum(sig, 4096)
        assert spectrum.bin_power[300] == pytest.approx(0.5, rel=1e-9)
        others = np.delete(spectrum.bin_power, 300)
        assert np.all(others <= 1e-10)
        assert spectrum.bin_power[300] / spectrum.bin_power.sum() >= 0.9999

    def test_bin_axis_spans_zero_to_nyquist(self):
        spectrum = power_spectrum(AudioSignal(np.zeros(512), 48000), 512)
        assert spectrum.bin_freq_hz[0] == 0.0
        assert spectrum.bin_freq_hz[-1] == 24000.0
        assert spectrum.bin_power.size == 257
        assert np.all(np.diff(spectrum.bin_freq_hz) > 0)

    def test_parseval_rectangular(self):
        rng = np.random.default_rng(11)
        frame = rng.standard_normal(2048)
        spectrum = power_spectrum(AudioSignal(frame, 44100), 2048)
        assert spectrum.bin_power.sum() == pytest.approx(np.mean(frame**2), rel=1e-9)

    def test_matches_dft_oracle_on_random_frames(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            frame = rng.standard_normal(1024)
            spectrum = power_spectrum(AudioSignal(frame, 96000), 1024)
            oracle = naive_power_spectrum(frame)
            np.testing.assert_allclose(
                spectrum.bin_power, oracle, rtol=1e-9, atol=1e-12 * oracle.max()
            )

    def test_hann_window_reduces_leakage(self):
        sig = generate_tone(18100, 4096, 44100)  # off-bin tone
        rect = power_spectrum(sig, 4096, window="rectangular")
        hann = power_spectrum(sig, 4096, window="hann")
        far = rect.nearest_bin(10000)
        assert hann.bin_power[far] < rect.bin_power[far]

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            power_spectrum(AudioSignal(np.zeros(4096), 44100), 1000)

    def test_short_signal_rejected(self):
        with pytest.raises(InsufficientDataError):
            power_spectrum(AudioSignal(np.zeros(100), 44100), 1024)

    def test_stereo_rejected(self):
        with pytest.raises(IncompatibleSignalError):
            power_spectrum(AudioSignal(np.zeros((2, 4096)), 44100), 4096)

    def test_unknown_window_rejected(self):
        with pytest.raises(ConfigurationError):
            power_spectrum(AudioSignal(np.zeros(512), 44100), 512, window="hamming")


class TestFramedPower:
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_rows_equal_the_per_frame_loop_bit_for_bit(self, window):
        samples = np.random.default_rng(31).standard_normal(5 * 1024 + 100)
        power = framed_power(samples, 1024, window)
        assert power.shape == (5, 513)  # the trailing partial frame is dropped
        taper = np.hanning(1024) if window == "hann" else 1.0
        for index, row in enumerate(power):
            frame = samples[index * 1024 : (index + 1) * 1024] * taper
            expected = (np.abs(np.fft.rfft(frame)) / 1024) ** 2
            expected[1:-1] *= 2.0
            np.testing.assert_array_equal(row, expected)

    def test_stereo_rejected(self):
        with pytest.raises(IncompatibleSignalError):
            framed_power(np.zeros((2, 4096)), 1024)

    def test_band_power_of_frames_equals_each_frame_bit_for_bit(self):
        power = framed_power(np.random.default_rng(32).standard_normal(6 * 4096), 4096)
        freqs = np.fft.rfftfreq(4096, 1.0 / 44100)
        def floor(bin_power):
            return band_power(Spectrum(freqs, bin_power, 4096, 44100), 18000, 19500, [18250])

        np.testing.assert_array_equal(floor(power), [floor(row) for row in power])


class TestBandPower:
    def _uniform_spectrum(self, value=1.0):
        sig = AudioSignal(np.zeros(4096), 44100)
        spectrum = power_spectrum(sig, 4096)
        power = np.full_like(spectrum.bin_power, value)
        return type(spectrum)(spectrum.bin_freq_hz, power, 4096, 44100)

    def test_uniform_band_returns_level(self):
        spectrum = self._uniform_spectrum(3.25)
        assert band_power(spectrum, 18000, 19500) == pytest.approx(3.25)

    def test_exclusion_removes_carrier_spike(self):
        spectrum = self._uniform_spectrum(1.0)
        spiked = spectrum.bin_power.copy()
        spiked[spectrum.nearest_bin(18250)] = 100.0
        spectrum = type(spectrum)(spectrum.bin_freq_hz, spiked, 4096, 44100)
        assert band_power(spectrum, 18000, 19500, excluded_freqs_hz=[18250]) == pytest.approx(1.0)

    def test_white_noise_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        sig = AudioSignal(rng.standard_normal(4096), 44100)
        spectrum = power_spectrum(sig, 4096)
        halfwidth = 2 * spectrum.bin_width_hz
        excluded = [18000.0, 18250.0, 18500.0, 18750.0]
        got = band_power(spectrum, 18000, 19500, excluded, halfwidth)
        want = naive_band_mean(
            spectrum.bin_power, spectrum.bin_freq_hz, 18000, 19500, excluded, halfwidth
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_band_warns_and_returns_zero(self):
        spectrum = self._uniform_spectrum(1.0)
        with pytest.warns(EmptyBandWarning):
            # exclusion halfwidth swallows the whole band
            result = band_power(spectrum, 18000, 18020, [18010], exclusion_halfwidth_hz=50)
        assert result == 0.0

    def test_inverted_band_rejected(self):
        spectrum = self._uniform_spectrum()
        with pytest.raises(ConfigurationError):
            band_power(spectrum, 19500, 18000)

    def test_band_above_nyquist_rejected(self):
        spectrum = self._uniform_spectrum()
        with pytest.raises(ConfigurationError):
            band_power(spectrum, 18000, 30000)


class TestMix:
    def test_additive_identity(self):
        x = generate_tone(1000, 256, 44100, amplitude=0.5)
        zeros = AudioSignal(np.zeros(256), 44100)
        np.testing.assert_array_equal(mix(x, zeros).samples, x.samples)

    def test_cancellation(self):
        x = generate_tone(1000, 256, 44100, amplitude=0.5)
        negated = AudioSignal(-x.samples, 44100)
        np.testing.assert_array_equal(mix(x, negated).samples, np.zeros(256))

    def test_two_tones_show_both_peaks(self):
        a = generate_tone(5000, 4096, 44100, amplitude=0.4)
        b = generate_tone(12000, 4096, 44100, amplitude=0.4)
        both = mix(a, b)
        oracle = naive_power_spectrum(both.samples)
        spectrum = power_spectrum(both, 4096)
        np.testing.assert_allclose(
            spectrum.bin_power, oracle, rtol=1e-9, atol=1e-12 * oracle.max()
        )
        top_two = np.argsort(spectrum.bin_power)[-2:]
        assert {spectrum.nearest_bin(5000), spectrum.nearest_bin(12000)} == set(top_two)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(IncompatibleSignalError):
            mix(AudioSignal(np.zeros(8), 44100), AudioSignal(np.zeros(8), 48000))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(IncompatibleSignalError):
            mix(AudioSignal(np.zeros(8), 44100), AudioSignal(np.zeros((2, 8)), 44100))

    def test_length_mismatch_needs_flag(self):
        a = AudioSignal(np.ones(8), 44100)
        b = AudioSignal(np.ones(4), 44100)
        with pytest.raises(IncompatibleSignalError):
            mix(a, b)
        padded = mix(a, b, pad_shorter=True)
        np.testing.assert_array_equal(padded.samples, [2, 2, 2, 2, 1, 1, 1, 1])

    @given(
        freq=st.floats(min_value=100, max_value=20000),
        amp=st.floats(min_value=0, max_value=1),
        phase=st.floats(min_value=-10, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_tone_amplitude_bound(self, freq, amp, phase):
        sig = generate_tone(freq, 503, 44100, amplitude=amp, phase_rad=phase)
        assert np.max(np.abs(sig.samples)) <= amp + 1e-9
