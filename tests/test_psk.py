"""Tests for BPSK/DPSK modulation, demodulation, ramping and delay sync."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmodem import (
    AudioSignal,
    ConfigurationError,
    InsufficientDataError,
    NyquistViolationError,
    PskConfig,
    SyncNotFoundError,
    apply_transition_ramp,
    bipolar,
    bpsk_demodulate_coherent,
    bpsk_modulate,
    correlate_delay,
    dpsk_demodulate,
    dpsk_encode,
    dpsk_modulate,
    estimate_delay,
)
from airmodem.channel import ChannelSpec, NoiseSpec, apply_channel
from airmodem.psk import DEFAULT_HEADER_BITS

from oracles import loop_ramp_envelope, measure_symbol_phases, naive_ncc

RNG_SEED = 1234


def unramped(**kwargs) -> PskConfig:
    return PskConfig(ramp_fraction=0.0, **kwargs)


def two_period_signal(config: PskConfig, second_phase: float) -> AudioSignal:
    spb = config.samples_per_bit
    k = np.arange(2 * spb)
    offsets = np.repeat([0.0, second_phase], spb)
    samples = config.amplitude * np.cos(
        2 * np.pi * config.carrier_hz * k / config.sample_rate_hz + offsets
    )
    return AudioSignal(samples, config.sample_rate_hz)


class TestPskConfig:
    def test_defaults(self):
        cfg = PskConfig()
        assert cfg.samples_per_bit == 480
        assert cfg.carrier_cycles_per_bit == pytest.approx(96.0)

    def test_carrier_at_nyquist_rejected(self):
        with pytest.raises(NyquistViolationError):
            PskConfig(carrier_hz=48000.0)

    def test_too_few_samples_per_bit_rejected(self):
        with pytest.raises(ConfigurationError):
            PskConfig(bit_rate_bps=20000.0)

    @pytest.mark.parametrize("rate", [0.0, -200.0, math.nan, math.inf])
    def test_bit_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ConfigurationError):
            PskConfig(bit_rate_bps=rate)

    def test_amplitude_bounds(self):
        with pytest.raises(ConfigurationError):
            PskConfig(amplitude=0.0)
        with pytest.raises(ConfigurationError):
            PskConfig(amplitude=1.5)

    def test_ramp_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            PskConfig(ramp_fraction=0.5)
        with pytest.raises(ConfigurationError):
            PskConfig(ramp_fraction=-0.1)
        # 8 samples per bit with 4-sample ramps on each side: nothing left to integrate
        with pytest.raises(ConfigurationError):
            PskConfig(bit_rate_bps=12000, ramp_fraction=0.49)


class TestBipolarAndEncode:
    def test_bipolar_mapping(self):
        np.testing.assert_array_equal(bipolar([1, 0, 1]), [1.0, -1.0, 1.0])

    def test_encode_all_zeros(self):
        np.testing.assert_allclose(dpsk_encode([0, 0, 0]), [0, 0, 0, 0])

    def test_encode_two_ones_wraps(self):
        np.testing.assert_allclose(dpsk_encode([1, 1]), [0, np.pi, 0])

    def test_encode_mixed(self):
        np.testing.assert_allclose(dpsk_encode([1, 0, 1]), [0, np.pi, np.pi, 0])

    def test_encode_empty_is_reference_only(self):
        np.testing.assert_allclose(dpsk_encode([]), [0.0])

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            bipolar([0, 2])


class TestBpskModulate:
    def test_single_one_is_plain_carrier(self):
        cfg = PskConfig()
        sig = bpsk_modulate([1], cfg)
        k = np.arange(cfg.samples_per_bit)
        expected = cfg.amplitude * np.cos(2 * np.pi * cfg.carrier_hz * k / cfg.sample_rate_hz)
        np.testing.assert_allclose(sig.samples, expected, atol=1e-12)

    def test_zero_is_negated_one(self):
        sig1 = bpsk_modulate([1], PskConfig())
        sig0 = bpsk_modulate([0], PskConfig())
        np.testing.assert_allclose(sig0.samples, -sig1.samples, atol=1e-12)

    def test_sign_symmetry_under_complement(self):
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 40)
        a = bpsk_modulate(bits, PskConfig())
        b = bpsk_modulate(1 - bits, PskConfig())
        np.testing.assert_allclose(a.samples, -b.samples, atol=1e-12)

    def test_transition_flips_phase_per_sample_oracle(self):
        cfg = unramped()
        sig = bpsk_modulate([1, 0], cfg)
        spb = cfg.samples_per_bit
        k = np.arange(2 * spb)
        carrier = np.cos(2 * np.pi * cfg.carrier_hz * k / cfg.sample_rate_hz)
        oracle = cfg.amplitude * np.where(k < spb, carrier, -carrier)
        np.testing.assert_allclose(sig.samples, oracle, atol=1e-12)

    def test_ramp_applied_only_at_sign_changes(self):
        cfg = PskConfig()
        sig = bpsk_modulate([1, 1, 0], cfg)
        spb, r = cfg.samples_per_bit, cfg.ramp_samples
        # constant-sign boundary untouched, flipping boundary tapered to ~0
        assert abs(sig.samples[spb]) > 0.1 * cfg.amplitude or abs(sig.samples[spb + 1]) > 0.0
        window = np.abs(sig.samples[2 * spb - 2 : 2 * spb + 2])
        assert np.all(window < 0.05 * cfg.amplitude)
        untouched = np.abs(sig.samples[spb - 2 : spb + 2])
        k = np.arange(spb - 2, spb + 2)
        carrier = cfg.amplitude * np.abs(np.cos(2 * np.pi * cfg.carrier_hz * k / cfg.sample_rate_hz))
        np.testing.assert_allclose(untouched, carrier, atol=1e-12)


class TestTransitionRamp:
    def test_zero_fraction_is_identity(self):
        cfg = unramped()
        sig = AudioSignal(np.ones(2 * cfg.samples_per_bit), cfg.sample_rate_hz)
        out = apply_transition_ramp(sig, [cfg.samples_per_bit], cfg)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_no_boundaries_is_identity(self):
        cfg = PskConfig()
        sig = AudioSignal(np.ones(960), cfg.sample_rate_hz)
        out = apply_transition_ramp(sig, [], cfg)
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_all_zero_dpsk_payload_unramped(self):
        cfg = PskConfig()
        sig = dpsk_modulate([0] * 8, cfg)
        k = np.arange(sig.num_samples)
        pure = cfg.amplitude * np.cos(2 * np.pi * cfg.carrier_hz * k / cfg.sample_rate_hz)
        np.testing.assert_allclose(sig.samples, pure, atol=1e-12)

    def test_envelope_dips_to_zero_at_boundary(self):
        cfg = PskConfig()
        sig = AudioSignal(np.ones(960), cfg.sample_rate_hz)
        out = apply_transition_ramp(sig, [480], cfg)
        r = cfg.ramp_samples
        assert out.samples[480 - r - 1] == pytest.approx(1.0)
        assert out.samples[480 + r] == pytest.approx(1.0)
        assert abs(out.samples[480]) < 0.01
        assert abs(out.samples[479]) < 0.01

    def test_overlapping_windows_rejected(self):
        cfg = PskConfig()
        sig = AudioSignal(np.ones(960), cfg.sample_rate_hz)
        with pytest.raises(ConfigurationError):
            apply_transition_ramp(sig, [480, 480 + cfg.ramp_samples], cfg)

    def test_unsorted_boundaries_rejected(self):
        cfg = PskConfig()
        sig = AudioSignal(np.ones(2000), cfg.sample_rate_hz)
        with pytest.raises(ConfigurationError):
            apply_transition_ramp(sig, [900, 400], cfg)

    def test_out_of_range_boundary_rejected(self):
        cfg = PskConfig()
        sig = AudioSignal(np.ones(960), cfg.sample_rate_hz)
        with pytest.raises(ConfigurationError):
            apply_transition_ramp(sig, [2000], cfg)

    def test_matches_loop_oracle_bitwise(self):
        rng = np.random.default_rng(RNG_SEED)
        fractions = [0.0, 0.45] + list(rng.uniform(0.0, 0.45, 98))
        for i, fraction in enumerate(fractions):
            cfg = PskConfig(
                sample_rate_hz=(96000, 48000, 44100)[i % 3],
                bit_rate_bps=(50, 100, 200, 400, 1000)[i % 5],
                ramp_fraction=fraction,
            )
            spb = cfg.samples_per_bit
            num_symbols = int(rng.integers(1, 12))
            n = num_symbols * spb
            # any symbol boundaries, both signal ends included
            boundaries = np.flatnonzero(rng.random(num_symbols + 1) < 0.5) * spb
            sig = AudioSignal(rng.standard_normal(n), cfg.sample_rate_hz)
            out = apply_transition_ramp(sig, boundaries, cfg)
            expected = sig.samples * loop_ramp_envelope(n, boundaries, cfg.ramp_samples)
            assert out.samples.tobytes() == expected.tobytes(), (fraction, boundaries)

    def test_single_transition_lowers_audible_band_power(self):
        cfg = PskConfig()
        ramped = dpsk_modulate([1], cfg)
        plain = dpsk_modulate([1], unramped())
        spec_r = np.fft.rfft(ramped.samples)
        spec_p = np.fft.rfft(plain.samples)
        freqs = np.fft.rfftfreq(ramped.num_samples, 1 / cfg.sample_rate_hz)
        audible = freqs <= 17000
        power_r = (np.abs(spec_r[audible]) ** 2).sum()
        power_p = (np.abs(spec_p[audible]) ** 2).sum()
        assert power_r < power_p


class TestBpskDemodulate:
    def test_clean_roundtrip_fixed_payloads(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 2, 7, 64, 200):
            bits = rng.integers(0, 2, n)
            trace = bpsk_demodulate_coherent(bpsk_modulate(bits, cfg), cfg)
            np.testing.assert_array_equal(trace.decisions, bits)
            assert not trace.erasures.any()

    @given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_clean_roundtrip_property(self, bits):
        cfg = PskConfig()
        trace = bpsk_demodulate_coherent(bpsk_modulate(bits, cfg), cfg)
        np.testing.assert_array_equal(trace.decisions, np.asarray(bits))

    def test_delay_compensated_roundtrip(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 32)
        out = apply_channel(bpsk_modulate(bits, cfg), ChannelSpec(delay_samples=777, seed=0))
        trace = bpsk_demodulate_coherent(out.signal, cfg, delay_samples=777)
        np.testing.assert_array_equal(trace.decisions, bits)

    def test_noise_only_correlations_small_and_balanced(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        noise = AudioSignal(0.1 * rng.standard_normal(480 * 400), cfg.sample_rate_hz)
        trace = bpsk_demodulate_coherent(noise, cfg)
        clean = bpsk_demodulate_coherent(bpsk_modulate([1] * 8, cfg), cfg)
        assert np.abs(trace.per_bit_correlation).mean() < 0.1 * np.abs(
            clean.per_bit_correlation
        ).mean()
        ones = trace.decisions.mean()
        assert 0.4 < ones < 0.6

    def test_quarter_cycle_shift_kills_correlation(self):
        # carrier with an 8-sample cycle so a quarter cycle is exactly 2 samples
        cfg = unramped(carrier_hz=12000.0)
        bits = np.asarray([1, 0, 1, 1, 0, 1, 0, 0])
        sig = bpsk_modulate(bits, cfg)
        shifted = AudioSignal(np.concatenate([np.zeros(2), sig.samples]), cfg.sample_rate_hz)
        aligned = bpsk_demodulate_coherent(sig, cfg)
        skewed = bpsk_demodulate_coherent(shifted, cfg)  # no delay compensation
        assert np.abs(aligned.per_bit_correlation).min() > 0.9
        assert np.abs(skewed.per_bit_correlation[: bits.size]).max() < 0.05

    def test_too_short_rejected(self):
        cfg = PskConfig()
        with pytest.raises(InsufficientDataError):
            bpsk_demodulate_coherent(AudioSignal(np.zeros(100), 96000), cfg)
        with pytest.raises(InsufficientDataError):
            bpsk_demodulate_coherent(
                bpsk_modulate([1], cfg), cfg, delay_samples=400
            )


class TestEstimateDelay:
    def _delayed_header(self, delay: int, cfg: PskConfig, margin: int = 1000) -> AudioSignal:
        base = bpsk_modulate(np.asarray(DEFAULT_HEADER_BITS), cfg)
        padded = np.concatenate([np.zeros(delay), base.samples, np.zeros(margin)])
        return AudioSignal(padded, cfg.sample_rate_hz)

    def test_zero_delay(self):
        cfg = PskConfig()
        sig = self._delayed_header(0, cfg)
        assert estimate_delay(sig, DEFAULT_HEADER_BITS, cfg, 400) == 0

    def test_clean_delay_137(self):
        cfg = PskConfig()
        sig = self._delayed_header(137, cfg)
        assert estimate_delay(sig, DEFAULT_HEADER_BITS, cfg, 500) == 137

    def test_matches_exhaustive_oracle(self):
        cfg = PskConfig()
        sig = self._delayed_header(53, cfg, margin=200)
        template = bpsk_modulate(np.asarray(DEFAULT_HEADER_BITS), cfg).samples
        max_delay = 120
        assert int(np.argmax(np.abs(naive_ncc(sig.samples, template, max_delay)))) == 53
        assert estimate_delay(sig, DEFAULT_HEADER_BITS, cfg, max_delay) == 53

    def test_noisy_recovery_monte_carlo(self):
        cfg = PskConfig()
        base = bpsk_modulate(np.asarray(DEFAULT_HEADER_BITS), cfg)
        padded = AudioSignal(
            np.concatenate([base.samples, np.zeros(1000)]), cfg.sample_rate_hz
        )
        hits = 0
        for seed in range(100):
            channel = ChannelSpec(
                delay_samples=137, noise=NoiseSpec("white", 10.0, cfg.carrier_hz), seed=seed
            )
            received = apply_channel(padded, channel).signal
            try:
                delay = estimate_delay(received, DEFAULT_HEADER_BITS, cfg, 500)
            except SyncNotFoundError:
                continue
            hits += abs(delay - 137) <= 1
        assert hits >= 95

    def test_silence_raises_sync_not_found(self):
        cfg = PskConfig()
        silence = AudioSignal(np.zeros(20000), cfg.sample_rate_hz)
        with pytest.raises(SyncNotFoundError):
            estimate_delay(silence, DEFAULT_HEADER_BITS, cfg, 400)

    def test_wrong_header_content_raises_sync_not_found(self):
        # all-ones carrier correlates equally badly everywhere against the
        # alternating header, so the confidence floor rejects the peak
        cfg = PskConfig()
        wrong = bpsk_modulate(np.ones(24, dtype=int), cfg)
        sig = AudioSignal(
            np.concatenate([wrong.samples, np.zeros(1000)]), cfg.sample_rate_hz
        )
        with pytest.raises(SyncNotFoundError):
            estimate_delay(sig, DEFAULT_HEADER_BITS, cfg, 3000)

    def test_short_signal_rejected(self):
        cfg = PskConfig()
        with pytest.raises(InsufficientDataError):
            estimate_delay(AudioSignal(np.zeros(1000), 96000), DEFAULT_HEADER_BITS, cfg, 400)

    def test_correlate_delay_validates_max_delay(self):
        cfg = PskConfig()
        sig = self._delayed_header(0, cfg)
        template = bpsk_modulate(np.asarray(DEFAULT_HEADER_BITS), cfg)
        with pytest.raises(ConfigurationError):
            correlate_delay(sig, template, -1)


class TestCorrelateDelayOracle:
    """correlate_delay must pick the brute-force oracle's delay on noisy captures."""

    MODULATORS = {"bpsk": bpsk_modulate, "dpsk": dpsk_modulate}

    def _template(self, scheme, rate):
        return self.MODULATORS[scheme](DEFAULT_HEADER_BITS, PskConfig(sample_rate_hz=rate))

    def _capture(self, scheme, rate, delay, snr_db, seed, payload_bits):
        cfg = PskConfig(sample_rate_hz=rate)
        payload = np.random.default_rng(seed).integers(0, 2, payload_bits)
        burst = self.MODULATORS[scheme](list(DEFAULT_HEADER_BITS) + list(payload), cfg)
        spec = ChannelSpec(
            delay_samples=delay, noise=NoiseSpec("white", snr_db, cfg.carrier_hz), seed=seed
        )
        return apply_channel(burst, spec).signal

    @staticmethod
    def _check(received, template, max_delay):
        oracle = naive_ncc(received.samples, template.samples, max_delay)
        assert correlate_delay(received, template, max_delay) == int(np.argmax(np.abs(oracle)))

    @pytest.mark.parametrize("scheme", ["bpsk", "dpsk"])
    @pytest.mark.parametrize("rate", [96000, 44100])
    def test_noisy_captures_match_oracle(self, scheme, rate):
        template = self._template(scheme, rate)
        spb = PskConfig(sample_rate_hz=rate).samples_per_bit
        # searched segment lengths: arbitrary, one under a power of two, one
        # exactly a power of two, one over
        for i, seg_size in enumerate([template.num_samples + 2999, 16383, 16384, 16385]):
            max_delay = seg_size - template.num_samples
            delay = (613 * (i + 1)) % (max_delay - 100)
            received = self._capture(scheme, rate, delay, 8.0 + 4 * i, 10 + i, seg_size // spb)
            self._check(received, template, max_delay)

    @pytest.mark.parametrize("scheme", ["bpsk", "dpsk"])
    def test_capture_ending_in_silence_matches_oracle(self, scheme):
        template = self._template(scheme, 96000)
        burst = self._capture(scheme, 96000, 700, 12.0, 3, payload_bits=4)
        silence = np.zeros(template.num_samples + 2000)
        received = AudioSignal(np.concatenate([burst.samples, silence]), 96000)
        # the last 2000 delays of the search see nothing but digital silence
        max_delay = received.num_samples - template.num_samples
        self._check(received, template, max_delay)

    @pytest.mark.parametrize("scheme", ["bpsk", "dpsk"])
    @pytest.mark.parametrize("rate", [96000, 44100])
    def test_silence_and_wrong_header_raise(self, scheme, rate):
        template = self._template(scheme, rate)
        silence = AudioSignal(np.zeros(template.num_samples + 3000), rate)
        with pytest.raises(SyncNotFoundError):
            correlate_delay(silence, template, 3000)
        wrong = bpsk_modulate(np.ones(40, dtype=int), PskConfig(sample_rate_hz=rate))
        sig = AudioSignal(np.concatenate([wrong.samples, np.zeros(1000)]), rate)
        with pytest.raises(SyncNotFoundError):
            correlate_delay(sig, template, 3000)


class TestDpskModulate:
    def test_single_zero_two_identical_periods(self):
        cfg = PskConfig()
        sig = dpsk_modulate([0], cfg)
        spb = cfg.samples_per_bit
        np.testing.assert_allclose(sig.samples[:spb], sig.samples[spb:], atol=1e-9)

    def test_single_one_inverts_second_period(self):
        cfg = unramped()
        sig = dpsk_modulate([1], cfg)
        spb = cfg.samples_per_bit
        np.testing.assert_allclose(sig.samples[spb:], -sig.samples[:spb], atol=1e-9)

    def test_symbol_count(self):
        cfg = PskConfig()
        assert dpsk_modulate([1, 0, 1], cfg).num_samples == 4 * cfg.samples_per_bit

    def test_phases_match_encode_via_quadrature_oracle(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 64)
        sig = dpsk_modulate(bits, cfg)
        spb, r = cfg.samples_per_bit, cfg.ramp_samples
        # window of whole carrier half-cycles inside the unramped region
        window = (spb - 2 * r) // 5 * 5
        measured = measure_symbol_phases(
            sig.samples, cfg.sample_rate_hz, cfg.carrier_hz, spb, r, window
        )
        expected = dpsk_encode(bits)
        delta = np.angle(np.exp(1j * (measured - expected)))
        assert np.max(np.abs(delta)) < 1e-6


class TestDpskDemodulate:
    def test_exact_pi_step(self):
        cfg = unramped()
        trace = dpsk_demodulate(two_period_signal(cfg, np.pi), cfg)
        assert trace.per_bit_correlation[0] == pytest.approx(-1.0, abs=1e-6)
        assert trace.decisions[0] == 1
        assert trace.per_bit_phase_estimate[0] == pytest.approx(np.pi, abs=1e-3)

    def test_exact_zero_step(self):
        cfg = unramped()
        trace = dpsk_demodulate(two_period_signal(cfg, 0.0), cfg)
        assert trace.per_bit_correlation[0] == pytest.approx(1.0, abs=1e-6)
        assert trace.decisions[0] == 0

    def test_clean_roundtrip_lengths(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        for n in (1, 2, 13, 100, 800):
            bits = rng.integers(0, 2, n)
            trace = dpsk_demodulate(dpsk_modulate(bits, cfg), cfg)
            np.testing.assert_array_equal(trace.decisions, bits)
            assert not trace.erasures.any()

    @given(
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=24),
        sym_offset=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_with_whole_symbol_offset(self, bits, sym_offset):
        # a pure propagation delay, once known, leaves the decisions unchanged
        cfg = PskConfig()
        offset = sym_offset * cfg.samples_per_bit
        sig = dpsk_modulate(bits, cfg)
        delayed = AudioSignal(
            np.concatenate([np.zeros(offset), sig.samples]), cfg.sample_rate_hz
        )
        trace = dpsk_demodulate(delayed, cfg, start_offset_samples=offset)
        np.testing.assert_array_equal(trace.decisions, np.asarray(bits))

    def test_delay_invariance_arbitrary_delay(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 50)
        sig = dpsk_modulate(bits, cfg)
        for delay in (1, 137, 479, 480, 1001):
            delayed = AudioSignal(
                np.concatenate([np.zeros(delay), sig.samples]), cfg.sample_rate_hz
            )
            trace = dpsk_demodulate(delayed, cfg, start_offset_samples=delay)
            np.testing.assert_array_equal(trace.decisions, bits)

    def test_normalized_correlations_bounded(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 300)
        trace = dpsk_demodulate(dpsk_modulate(bits, cfg), cfg)
        assert np.max(np.abs(trace.per_bit_correlation)) <= 1.05

    def test_corrupting_one_symbol_flips_two_decisions(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 40)
        sig = dpsk_modulate(bits, cfg)
        spb = cfg.samples_per_bit
        corrupt_symbol = 17  # data symbol index (symbol 0 is the reference)
        samples = sig.samples.copy()
        samples[corrupt_symbol * spb : (corrupt_symbol + 1) * spb] *= -1  # phase + pi
        trace = dpsk_demodulate(AudioSignal(samples, cfg.sample_rate_hz), cfg)
        flipped = np.flatnonzero(trace.decisions != bits)
        np.testing.assert_array_equal(flipped, [corrupt_symbol - 1, corrupt_symbol])

    def test_cumulative_phase_corruption_flips_one_decision(self):
        # a modulator slip inverts all later symbols; differential decoding
        # then mis-decides only the boundary bit
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 40)
        sig = dpsk_modulate(bits, cfg)
        spb = cfg.samples_per_bit
        samples = sig.samples.copy()
        samples[17 * spb :] *= -1
        trace = dpsk_demodulate(AudioSignal(samples, cfg.sample_rate_hz), cfg)
        flipped = np.flatnonzero(trace.decisions != bits)
        np.testing.assert_array_equal(flipped, [16])

    def test_flipping_one_correlation_sign_flips_one_decision(self):
        cfg = PskConfig()
        rng = np.random.default_rng(RNG_SEED)
        bits = rng.integers(0, 2, 40)
        trace = dpsk_demodulate(dpsk_modulate(bits, cfg), cfg)
        redecided = (np.where(np.arange(bits.size) == 5, -1, 1) * trace.per_bit_correlation) < 0
        flipped = np.flatnonzero(redecided.astype(int) != trace.decisions)
        np.testing.assert_array_equal(flipped, [5])

    def test_double_frequency_term_suppressed(self):
        # the delay-and-multiply product carries a 2*fc ripple; integrating a
        # bit period must suppress it at least 40 dB below the DC term
        cfg = PskConfig()
        spb, r = cfg.samples_per_bit, cfg.ramp_samples
        k = np.arange(spb + r, 2 * spb - r)  # the integration window of bit 0
        theta = 0.0
        dc = 0.5 * np.cos(theta) * np.ones(k.size)
        ripple = -0.5 * np.cos(
            2 * 2 * np.pi * cfg.carrier_hz * k / cfg.sample_rate_hz + theta
        )
        assert abs(ripple.sum()) <= 1e-2 * abs(dc.sum())

    def test_erasure_on_weak_symbol(self):
        # one quadrature-stepped symbol inside a normal stream reads |y| ~ 0
        # relative to its neighbors and gets flagged
        cfg = unramped()
        spb = cfg.samples_per_bit
        phases = np.concatenate([dpsk_encode([1, 0, 1, 0, 1, 0]), [0.0]])
        phases[3] += np.pi / 2  # knock one symbol into quadrature
        k = np.arange(phases.size * spb)
        samples = cfg.amplitude * np.cos(
            2 * np.pi * cfg.carrier_hz * k / cfg.sample_rate_hz + np.repeat(phases, spb)
        )
        trace = dpsk_demodulate(AudioSignal(samples, cfg.sample_rate_hz), cfg)
        assert trace.erasures[2] and trace.erasures[3]
        assert not trace.erasures[0] and not trace.erasures[1]

    def test_too_short_rejected(self):
        cfg = PskConfig()
        with pytest.raises(InsufficientDataError):
            dpsk_demodulate(AudioSignal(np.zeros(900), 96000), cfg)

    def test_trace_lengths_consistent(self):
        cfg = PskConfig()
        trace = dpsk_demodulate(dpsk_modulate([1, 0, 1, 1], cfg), cfg)
        n = trace.decisions.size
        assert (
            trace.per_bit_correlation.size
            == trace.per_bit_phase_estimate.size
            == trace.erasures.size
            == n
            == 4
        )
