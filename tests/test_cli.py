"""End-to-end tests of the command-line interface and its exit codes."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from airmodem import (
    DEFAULT_HEADER_BITS,
    AudioSignal,
    ChannelSpec,
    FskConfig,
    NoiseSpec,
    PskConfig,
    apply_channel,
    bpsk_modulate,
    dpsk_modulate,
    fsk_modulate,
    generate_tone,
    read_wav,
    synth_noise,
    write_wav,
)
from airmodem.cli import main, parse_payload
from airmodem.errors import ConfigurationError

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = ("spectrum", "decode_fsk", "decode_dpsk", "decode_bpsk")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePayload:
    def test_hex_msb_first(self):
        np.testing.assert_array_equal(parse_payload("0xA5"), [1, 0, 1, 0, 0, 1, 0, 1])

    def test_bit_string(self):
        np.testing.assert_array_equal(parse_payload("1010"), [1, 0, 1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_payload("")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_payload("10a1")

    def test_bad_hex_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_payload("0xZZ")


class TestEncode:
    def test_dpsk_hex_payload(self, capsys, tmp_path):
        out = tmp_path / "out.wav"
        code, stdout, _ = run_cli(capsys, "encode", "dpsk", "0xA5", str(out))
        assert code == 0
        # 8 data bits + 1 reference symbol = 9 * 480 samples at 96 kHz
        assert "8 bits" in stdout
        assert "4320 samples" in stdout
        assert "0.045000 s" in stdout
        signal, spec = read_wav(out)
        assert spec.sample_rate_hz == 96000
        assert signal.num_samples == 4320

    def test_fsk_bit_payload_is_stereo(self, capsys, tmp_path):
        out = tmp_path / "fsk.wav"
        code, stdout, _ = run_cli(capsys, "encode", "fsk", "1010", str(out))
        assert code == 0
        signal, spec = read_wav(out)
        assert spec.channel_count == 2
        assert signal.num_samples == 4 * 11025

    def test_empty_payload_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "encode", "dpsk", "", str(tmp_path / "x.wav"))
        assert code == 2
        assert "payload" in err

    def test_invalid_flag_combo_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "encode", "dpsk", "0xA5", str(tmp_path / "x.wav"), "--carrier-hz", "99999"
        )
        assert code == 2

    def test_unknown_scheme_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "encode", "qam", "0xA5", str(tmp_path / "x.wav"))
        assert code == 2


class TestDecode:
    @pytest.mark.parametrize("scheme,payload", [("dpsk", "0xA5"), ("bpsk", "0xA5"), ("fsk", "1011")])
    def test_roundtrip(self, capsys, tmp_path, scheme, payload):
        out = tmp_path / "rt.wav"
        assert run_cli(capsys, "encode", scheme, payload, str(out))[0] == 0
        code, stdout, _ = run_cli(capsys, "decode", scheme, str(out))
        assert code == 0
        expected = "".join(str(b) for b in parse_payload(payload))
        assert stdout.splitlines()[0] == expected

    def test_silence_header_sync_exit_3(self, capsys, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(AudioSignal(np.zeros(96000), 96000), path)
        code, _, err = run_cli(capsys, "decode", "dpsk", str(path), "--sync", "header")
        assert code == 3
        assert "error" in err

    def test_sample_rate_mismatch_exit_2(self, capsys, tmp_path):
        out = tmp_path / "rate.wav"
        run_cli(capsys, "encode", "dpsk", "0xA5", str(out))
        code, _, err = run_cli(capsys, "decode", "dpsk", str(out), "--sample-rate", "44100")
        assert code == 2
        assert "mismatch" in err

    def test_header_sync_recovers_delayed_stream(self, capsys, tmp_path):
        from airmodem import PskConfig, dpsk_modulate

        header = [1, 0] * 8
        payload = [1, 1, 0, 1, 0, 0, 1, 0]
        cfg = PskConfig()
        sig = dpsk_modulate(header + payload, cfg)
        delayed = AudioSignal(
            np.concatenate([np.zeros(333), sig.samples, np.zeros(5000)]), 96000
        )
        path = tmp_path / "delayed.wav"
        write_wav(delayed, path)
        code, stdout, _ = run_cli(
            capsys, "decode", "dpsk", str(path), "--sync", "header", "--max-delay", "2000"
        )
        assert code == 0
        # trailing capture silence decodes as extra erasure-flagged bits; the
        # payload itself must lead the output
        decoded = stdout.splitlines()[0]
        assert decoded[: len(payload)] == "".join(str(b) for b in payload)

    def test_trace_output(self, capsys, tmp_path):
        out = tmp_path / "tr.wav"
        run_cli(capsys, "encode", "dpsk", "101", str(out))
        code, stdout, _ = run_cli(capsys, "decode", "dpsk", str(out), "--trace")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "101"
        assert lines[1] == "bit,correlation,phase_estimate,decision,erasure"
        assert len(lines) == 2 + 3

    def test_fsk_trace_lists_frames(self, capsys, tmp_path):
        out = tmp_path / "ftr.wav"
        run_cli(capsys, "encode", "fsk", "10", str(out))
        code, stdout, _ = run_cli(capsys, "decode", "fsk", str(out), "--trace")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "10"
        assert lines[1] == "frame,data0,data1,clock0,clock1,noise_floor,active"
        assert len(lines) == 2 + (2 * 11025) // 4096

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "decode", "dpsk", str(tmp_path / "nope.wav"))
        assert code == 2


class TestSimulate:
    def test_near_noiseless_loopback(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", "dpsk", "--bits", "800", "--snr-db", "99", "--seed", "7"
        )
        assert code == 0
        header, row = stdout.splitlines()
        assert header == "scheme,n_bits,snr_db,noise_kind,btsr,ber_estimate,erasures,seed"
        fields = row.split(",")
        assert fields[0] == "dpsk"
        assert fields[1] == "800"
        assert fields[4] == "1.000000"
        assert fields[7] == "7"

    def test_fsk_high_snr(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "simulate", "fsk", "--bits", "32", "--snr-db", "40", "--seed", "1"
        )
        assert code == 0
        btsr = float(stdout.splitlines()[1].split(",")[4])
        assert btsr >= 0.9

    def test_noise_kind_reported(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "simulate", "dpsk", "--bits", "100", "--snr-db", "5",
            "--noise-kind", "broadband_jangle", "--seed", "3",
        )
        assert code == 0
        assert stdout.splitlines()[1].split(",")[3] == "broadband_jangle"

    def test_no_noise_row(self, capsys):
        code, stdout, _ = run_cli(capsys, "simulate", "dpsk", "--bits", "64", "--seed", "2")
        assert code == 0
        fields = stdout.splitlines()[1].split(",")
        assert fields[2] == ""
        assert fields[3] == "none"
        assert fields[4] == "1.000000"

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "dpsk", "--bits", "200", "--snr-db", "12", "--seed", "5"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_unworkable_ramp_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "dpsk", "--bit-rate", "12000", "--ramp-fraction", "0.49"
        )
        assert code == 2
        assert "ramp_fraction" in err

    def test_noise_kind_without_snr_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "dpsk", "--noise-kind", "white")
        assert code == 2

    @pytest.mark.parametrize(
        "scheme,flag,value",
        [
            ("dpsk", "--bit-rate", "nan"),
            ("fsk", "--bit-rate", "nan"),
            ("dpsk", "--snr-db", "nan"),
            ("dpsk", "--snr-db", "inf"),
            ("dpsk", "--gain", "nan"),
            ("fsk", "--detection-ratio", "nan"),
        ],
    )
    def test_non_finite_flag_exit_2(self, capsys, scheme, flag, value):
        code, stdout, err = run_cli(capsys, "simulate", scheme, flag, value, "--bits", "8")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:")


class TestSweep:
    def test_snr_axis_csv_shape(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "dpsk", "--axis", "snr", "--values", "10,25",
            "--trials", "2", "--bits", "100", "--seed", "1",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "axis,value,mean_btsr,std_btsr,trials"
        assert len(lines) == 3
        assert lines[1].startswith("snr_db,10.000000,")

    def test_bitrate_axis_invalid_point_marked(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "dpsk", "--axis", "bitrate", "--values", "400,20000",
            "--trials", "2", "--bits", "50", "--seed", "1",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert "bit_rate_bps,400.000000," in lines[1]
        assert "invalid" in lines[2]

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "dpsk", "--axis", "snr", "--values", "20",
            "--trials", "2", "--bits", "50", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text().startswith("axis,value,mean_btsr")

    def test_bad_values_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "dpsk", "--axis", "snr", "--values", "abc", "--trials", "2"
        )
        assert code == 2


class TestSpectrum:
    def test_tone_peak_row(self, capsys, tmp_path):
        from airmodem import generate_tone

        path = tmp_path / "tone.wav"
        write_wav(generate_tone(19200, 96000, 96000, amplitude=0.5), path)
        code, stdout, _ = run_cli(capsys, "spectrum", str(path))
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "freq_hz,power"
        assert len(lines) == 1 + 4096 // 2 + 1
        rows = [line.split(",") for line in lines[1:]]
        freqs = np.array([float(r[0]) for r in rows])
        powers = np.array([float(r[1]) for r in rows])
        peak_freq = freqs[int(np.argmax(powers))]
        assert abs(peak_freq - 19200) <= 96000 / 4096

    def test_silence_all_zero(self, capsys, tmp_path):
        path = tmp_path / "quiet.wav"
        write_wav(AudioSignal(np.zeros(8192), 96000), path)
        code, stdout, _ = run_cli(capsys, "spectrum", str(path))
        assert code == 0
        powers = [float(line.split(",")[1]) for line in stdout.splitlines()[1:]]
        assert all(p == 0.0 for p in powers)

    def test_short_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "short.wav"
        write_wav(AudioSignal(np.zeros(100), 96000), path)
        code, _, _ = run_cli(capsys, "spectrum", str(path))
        assert code == 2

    def test_custom_fft_size(self, capsys, tmp_path):
        path = tmp_path / "t.wav"
        write_wav(AudioSignal(np.zeros(2048), 44100), path)
        code, stdout, _ = run_cli(capsys, "spectrum", str(path), "--fft-size", "1024")
        assert code == 0
        assert len(stdout.splitlines()) == 1 + 513


def golden_argv(case, path):
    """Write the seeded capture of one golden case to ``path``; return its argv."""
    if case == "spectrum":
        tone = generate_tone(19200.0, 5000, 96000, amplitude=0.5).samples
        noise = synth_noise("white", 5000, 96000, seed=11).samples
        write_wav(AudioSignal(tone + 0.05 * noise, 96000), path)
        return ["spectrum", str(path), "--window", "hann", "--fft-size", "1024"]
    if case == "decode_fsk":
        config = FskConfig()
        noise = NoiseSpec("white", 15.0, config.data_freq1_hz)
        signal = fsk_modulate(parse_payload("0xB4"), config)
        channel = ChannelSpec(delay_samples=1500, noise=noise, seed=12)
        write_wav(apply_channel(signal, channel).signal, path)
        return ["decode", "fsk", str(path), "--trace"]
    scheme = case.removeprefix("decode_")
    config = PskConfig()
    modulate = dpsk_modulate if scheme == "dpsk" else bpsk_modulate
    bits = np.concatenate([DEFAULT_HEADER_BITS, parse_payload("0x5A3C")])
    channel = ChannelSpec(
        delay_samples=1234, noise=NoiseSpec("white", 20.0, config.carrier_hz), seed=13
    )
    write_wav(apply_channel(modulate(bits, config), channel).signal, path)
    return ["decode", scheme, str(path), "--sync", "header", "--trace"]


def golden_stdout(case, directory):
    """Stdout of one golden case, run on a capture written under ``directory``."""
    argv = golden_argv(case, Path(directory) / f"{case}.wav")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


class TestGoldenOutputs:
    """Spectrum values, FSK frame powers and floors, and header-sync traces,
    byte for byte against ``tests/golden/cli_*.txt``.

    After an intended output change, regenerate them from the repository root with:
    PYTHONPATH=src:tests python -c "import tempfile, test_cli as t; d = tempfile.TemporaryDirectory(); [open(f'tests/golden/cli_{c}.txt', 'w').write(t.golden_stdout(c, d.name)) for c in t.GOLDEN_CASES]"
    """

    @pytest.mark.parametrize("case", GOLDEN_CASES)
    def test_stdout_matches_golden(self, capsys, tmp_path, case):
        code, stdout, err = run_cli(capsys, *golden_argv(case, tmp_path / f"{case}.wav"))
        assert code == 0, err
        assert stdout.encode() == (GOLDEN / f"cli_{case}.txt").read_bytes()
