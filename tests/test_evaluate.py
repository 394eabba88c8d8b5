"""Tests for BTSR/BER metrics, trials, and the sweep harness."""

import math

import numpy as np
import pytest

from airmodem import ChannelSpec, ConfigurationError, FskConfig, NoiseSpec, PskConfig
from airmodem.evaluate import (
    ber_estimate_from_btsr,
    compute_btsr,
    random_bits,
    run_trial,
    sweep,
    sweep_to_csv,
)


class TestComputeBtsr:
    def test_identical_streams(self):
        bits = random_bits(800, 1)
        assert compute_btsr(bits, bits) == 1.0

    def test_one_mismatch_in_800(self):
        bits = random_bits(800, 1)
        received = bits.copy()
        received[400] ^= 1
        assert compute_btsr(bits, received) == pytest.approx(799 / 800)

    def test_shortfall_counts_as_errors(self):
        sent = np.ones(10, dtype=int)
        received = np.ones(6, dtype=int)
        assert compute_btsr(sent, received) == pytest.approx(0.6)

    def test_surplus_ignored(self):
        sent = np.ones(4, dtype=int)
        received = np.concatenate([np.ones(4, dtype=int), np.zeros(5, dtype=int)])
        assert compute_btsr(sent, received) == 1.0

    def test_empty_received_is_zero(self):
        assert compute_btsr(np.ones(8, dtype=int), np.array([], dtype=int)) == 0.0

    def test_empty_sent_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_btsr(np.array([], dtype=int), np.array([], dtype=int))


class TestBerEstimate:
    def test_footnote_formula(self):
        assert ber_estimate_from_btsr(0.9, 800) == pytest.approx(1 / 720)

    def test_perfect_transmission(self):
        assert ber_estimate_from_btsr(1.0, 800) == pytest.approx(1 / 800)

    def test_zero_btsr_sentinel(self):
        assert ber_estimate_from_btsr(0.0, 800) == math.inf


class TestRunTrial:
    def test_dpsk_identity_channel(self):
        report = run_trial("dpsk", 800, ChannelSpec(seed=3))
        assert report.btsr == 1.0
        assert report.erasure_count == 0
        assert report.ber_estimate == pytest.approx(1 / 800)

    def test_fsk_identity_channel(self):
        report = run_trial("fsk", 32, ChannelSpec(seed=4))
        assert report.btsr == 1.0

    def test_bpsk_identity_channel(self):
        report = run_trial("bpsk", 200, ChannelSpec(seed=5))
        assert report.btsr == 1.0

    def test_dpsk_high_snr_across_seeds(self):
        btsrs = [
            run_trial(
                "dpsk", 800, ChannelSpec(noise=NoiseSpec("white", 25.0, 19200.0), seed=s)
            ).btsr
            for s in range(10)
        ]
        assert all(b >= 0.99 for b in btsrs)

    def test_known_delay_mode_uses_channel_delay(self):
        report = run_trial("dpsk", 100, ChannelSpec(delay_samples=960, seed=6))
        assert report.btsr == 1.0

    def test_fsk_self_clocks_through_arbitrary_delay(self):
        # FFT frames no longer align with bit boundaries, the clock stream
        # still marks the sampling instants
        for delay in (1, 1000, 7777):
            report = run_trial("fsk", 16, ChannelSpec(delay_samples=delay, seed=3))
            assert report.btsr == 1.0

    def test_header_sync_mode_dpsk(self):
        report = run_trial("dpsk", 100, ChannelSpec(delay_samples=137, seed=7), sync="header")
        assert report.btsr == 1.0

    def test_header_sync_mode_bpsk(self):
        report = run_trial("bpsk", 100, ChannelSpec(delay_samples=137, seed=8), sync="header")
        assert report.btsr == 1.0

    def test_deterministic_given_seed(self):
        spec = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=11)
        a = run_trial("dpsk", 200, spec)
        b = run_trial("dpsk", 200, spec)
        assert a.btsr == b.btsr
        np.testing.assert_array_equal(a.sent_bits, b.sent_bits)
        np.testing.assert_array_equal(a.received_bits, b.received_bits)

    def test_identical_seeds_zero_std(self):
        spec = ChannelSpec(noise=NoiseSpec("white", 12.0, 19200.0), seed=13)
        btsrs = [run_trial("dpsk", 200, spec).btsr for _ in range(2)]
        assert np.std(btsrs) == 0.0

    def test_trial_seed_recorded(self):
        report = run_trial("dpsk", 10, ChannelSpec(seed=123))
        assert report.trial_seed == 123

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trial("qam", 10, ChannelSpec())

    def test_zero_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trial("dpsk", 0, ChannelSpec())

    def test_fsk_demodulator_failure_reports_empty(self):
        # gain small enough that no carrier clears the detection threshold of
        # the added noise floor -> NoClockError inside, empty stream out
        spec = ChannelSpec(
            gain=0.001, noise=NoiseSpec("white", -40.0, 18250.0), seed=14
        )
        report = run_trial("fsk", 8, spec)
        assert report.btsr == 0.0
        assert report.received_bits.size == 0
        assert report.ber_estimate == math.inf


class TestSweep:
    def test_snr_axis_shape_and_validity(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 0.0, 19200.0), seed=1)
        result = sweep("dpsk", "snr_db", [5.0, 25.0], 3, channel, payload_bits=100)
        assert result.axis_name == "snr_db"
        assert result.mean_btsr.shape == (2,)
        assert result.valid.all()
        assert result.trials_per_point == 3
        assert result.mean_btsr[1] >= result.mean_btsr[0]

    def test_snr_axis_requires_noise(self):
        with pytest.raises(ConfigurationError):
            sweep("dpsk", "snr_db", [0.0, 10.0], 2, ChannelSpec())

    def test_invalid_bitrate_point_flagged(self):
        channel = ChannelSpec(seed=1)
        result = sweep("dpsk", "bit_rate_bps", [200.0, 20000.0], 2, channel, payload_bits=20)
        assert result.valid.tolist() == [True, False]
        assert math.isnan(result.mean_btsr[1])
        csv_text = sweep_to_csv(result)
        assert "invalid" in csv_text.splitlines()[2]

    def test_bitrate_sweep_noiseless(self):
        channel = ChannelSpec(seed=2)
        result = sweep("dpsk", "bit_rate_bps", [100.0, 400.0], 2, channel, payload_bits=50)
        np.testing.assert_allclose(result.mean_btsr, [1.0, 1.0])
        np.testing.assert_allclose(result.std_btsr, [0.0, 0.0])

    def test_reproducible_csv(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 8.0, 19200.0), seed=3)
        first = sweep_to_csv(sweep("dpsk", "snr_db", [5.0, 15.0], 3, channel, payload_bits=100))
        second = sweep_to_csv(sweep("dpsk", "snr_db", [5.0, 15.0], 3, channel, payload_bits=100))
        assert first == second

    def test_csv_format(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=4)
        result = sweep("dpsk", "snr_db", [10.0], 2, channel, payload_bits=50)
        lines = sweep_to_csv(result).splitlines()
        assert lines[0] == "axis,value,mean_btsr,std_btsr,trials"
        fields = lines[1].split(",")
        assert fields[0] == "snr_db"
        assert fields[1] == "10.000000"
        assert len(fields[2].split(".")[1]) == 6
        assert fields[4] == "2"

    def test_bitrate_sweep_holds_noise_level_fixed(self):
        # the per-trial noise scale must come from the base bit rate, so the
        # same trial index gets the same scale at every axis point
        channel = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=5)
        result = sweep("dpsk", "bit_rate_bps", [50.0, 400.0], 4, channel, payload_bits=200)
        assert result.valid.all()
        # slower bit rate must not do worse (the whole point of the policy)
        assert result.mean_btsr[0] >= result.mean_btsr[1] - 0.02

    def test_bitrate_sweep_at_high_snr_holds_rate(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 30.0, 19200.0), seed=9)
        result = sweep("dpsk", "bit_rate_bps", [200.0], 3, channel, payload_bits=200)
        assert result.mean_btsr[0] >= 0.9

    def test_unknown_scheme_or_sync_rejected_on_bitrate_axis(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=6)
        with pytest.raises(ConfigurationError):
            sweep("qpsk", "bit_rate_bps", [200], 2, channel)
        with pytest.raises(ConfigurationError):
            sweep("dpsk", "bit_rate_bps", [200], 2, channel, sync="chirp")

    def test_too_few_trials_rejected(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=6)
        with pytest.raises(ConfigurationError):
            sweep("dpsk", "snr_db", [10.0], 1, channel)

    def test_bad_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep("dpsk", "frequency", [1.0], 2, ChannelSpec())

    def test_fsk_sweep_runs(self):
        channel = ChannelSpec(noise=NoiseSpec("white", 30.0, 18250.0), seed=7)
        result = sweep("fsk", "snr_db", [30.0], 2, channel, base_config=FskConfig(), payload_bits=8)
        assert result.valid.all()
        assert 0.0 <= result.mean_btsr[0] <= 1.0
