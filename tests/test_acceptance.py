"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with ``pytest tests/test_acceptance.py -s`` to see them all).  The
determinism criterion re-executes the earlier experiments and compares their
CSV renderings byte for byte, with each other and with the committed goldens.
"""

from pathlib import Path

import numpy as np
import pytest

from airmodem import (
    AudioSignal,
    ChannelSpec,
    FskConfig,
    NoiseSpec,
    PskConfig,
    dpsk_modulate,
    power_spectrum,
)
from airmodem.evaluate import (
    REPORT_CSV_HEADER,
    ber_estimate_from_btsr,
    compute_btsr,
    report_to_csv_row,
    run_trial,
    sweep,
    sweep_to_csv,
)
from airmodem.fsk import detect_carriers_in_spectrum
from airmodem.psk import dpsk_demodulate
from airmodem.signals import Spectrum, framed_power

from oracles import naive_power_spectrum

GOLDEN = Path(__file__).parent / "golden"

_first_run: dict[str, str] = {}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


# --- experiment generators (pure; fixed seeds) -------------------------------


def _criterion1_csv() -> tuple[float, str]:
    rows = [REPORT_CSV_HEADER]
    btsrs = []
    for seed in range(10):
        channel = ChannelSpec(noise=NoiseSpec("white", 15.0, 19200.0), seed=seed)
        report = run_trial("dpsk", 800, channel)
        btsrs.append(report.btsr)
        rows.append(report_to_csv_row("dpsk", report, 15.0, "white"))
    return float(np.mean(btsrs)), "\n".join(rows) + "\n"


def _criterion2_csv() -> tuple[int, int, str]:
    rng = np.random.default_rng(20250810)
    rows = [REPORT_CSV_HEADER]
    exact_dpsk = exact_fsk = 0
    for index, length in enumerate(rng.integers(1, 801, 100)):
        report = run_trial("dpsk", int(length), ChannelSpec(seed=100000 + index))
        exact_dpsk += report.btsr == 1.0
        rows.append(report_to_csv_row("dpsk", report, None, None))
    for index, length in enumerate(rng.integers(1, 65, 100)):
        report = run_trial("fsk", int(length), ChannelSpec(seed=200000 + index))
        exact_fsk += report.btsr == 1.0
        rows.append(report_to_csv_row("fsk", report, None, None))
    return exact_dpsk, exact_fsk, "\n".join(rows) + "\n"


def _criterion3_csv() -> tuple[float, str]:
    rows = [REPORT_CSV_HEADER]
    btsrs = []
    for seed in range(10):
        channel = ChannelSpec(noise=NoiseSpec("white", 20.0, 18250.0), seed=seed)
        report = run_trial("fsk", 32, channel)
        btsrs.append(report.btsr)
        rows.append(report_to_csv_row("fsk", report, 20.0, "white"))
    return float(np.mean(btsrs)), "\n".join(rows) + "\n"


def _criterion4_csv() -> tuple[np.ndarray, str]:
    channel = ChannelSpec(noise=NoiseSpec("white", 0.0, 19200.0), seed=42)
    result = sweep("dpsk", "snr_db", [0, 5, 10, 15, 20, 25, 30], 10, channel)
    return result.mean_btsr, sweep_to_csv(result)


def _criterion5_csv() -> tuple[np.ndarray, str]:
    channel = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=7)
    result = sweep("dpsk", "bit_rate_bps", [50, 400], 10, channel)
    return result.mean_btsr, sweep_to_csv(result)


def _band_total(signal: AudioSignal, lo: float, hi: float) -> float:
    """Total hann-windowed power in [lo, hi] Hz, averaged over 4096-sample frames."""
    fft = 4096
    freqs = np.fft.rfftfreq(fft, 1.0 / signal.sample_rate_hz)
    power = framed_power(signal.samples, fft, window="hann")
    return power[:, (freqs >= lo) & (freqs <= hi)].sum(axis=1).mean()


# --- criteria ----------------------------------------------------------------


def test_criterion_1_dpsk_headline_rate():
    mean_btsr, csv_text = _criterion1_csv()
    _first_run["c1"] = csv_text
    ok = mean_btsr >= 0.90
    _report(1, "dpsk 200 bps at 15 dB", ok, f"mean BTSR {mean_btsr:.4f} (need >= 0.90)")
    assert ok


def test_criterion_2_clean_channel_exactness():
    exact_dpsk, exact_fsk, csv_text = _criterion2_csv()
    _first_run["c2"] = csv_text
    ok = exact_dpsk == 100 and exact_fsk == 100
    _report(
        2,
        "clean-channel exactness",
        ok,
        f"dpsk {exact_dpsk}/100 exact, fsk {exact_fsk}/100 exact",
    )
    assert ok


def test_criterion_3_fsk_accuracy():
    mean_btsr, csv_text = _criterion3_csv()
    _first_run["c3"] = csv_text
    ok = mean_btsr >= 0.90
    _report(3, "fsk 4 bps at 20 dB", ok, f"mean BTSR {mean_btsr:.4f} (need >= 0.90)")
    assert ok


def test_criterion_4_snr_monotonicity():
    means, csv_text = _criterion4_csv()
    _first_run["c4"] = csv_text
    monotone = all(means[i + 1] >= means[i] - 0.05 for i in range(len(means) - 1))
    top = means[-1] >= 0.99
    spread = means[0] <= means[-1] - 0.2
    ok = monotone and top and spread
    detail = (
        f"means {np.array2string(means, precision=3)}; monotone(0.05)={monotone}, "
        f"BTSR(30dB)={means[-1]:.3f}>=0.99: {top}, "
        f"BTSR(0dB)={means[0]:.3f}<=BTSR(30dB)-0.2: {spread}"
    )
    _report(4, "snr sweep shape", ok, detail)
    assert ok


def test_criterion_5_bitrate_tradeoff():
    means, csv_text = _criterion5_csv()
    _first_run["c5"] = csv_text
    slow, fast = means
    ok = slow >= fast - 0.02
    _report(
        5,
        "bitrate trade-off at 10 dB",
        ok,
        f"BTSR(50bps)={slow:.3f} vs BTSR(400bps)={fast:.3f} (need slow >= fast - 0.02)",
    )
    assert ok


def test_criterion_6_click_suppression():
    bits = np.ones(100, dtype=int)
    ramped = dpsk_modulate(bits, PskConfig())
    unramped = dpsk_modulate(bits, PskConfig(ramp_fraction=0.0))
    audible_drop_db = 10 * np.log10(
        _band_total(unramped, 0.0, 17000.0) / _band_total(ramped, 0.0, 17000.0)
    )
    in_band_delta_db = abs(
        10
        * np.log10(
            _band_total(ramped, 19100.0, 19300.0) / _band_total(unramped, 19100.0, 19300.0)
        )
    )
    ok = audible_drop_db >= 20.0 and in_band_delta_db < 0.5
    _report(
        6,
        "transition-ramp click suppression",
        ok,
        f"audible band -{audible_drop_db:.1f} dB (need >= 20); "
        f"in-band delta {in_band_delta_db:.3f} dB (need < 0.5)",
    )
    assert ok


def test_criterion_7_dpsk_error_propagation():
    config = PskConfig()
    rng = np.random.default_rng(99)
    bits = rng.integers(0, 2, 60)
    signal = dpsk_modulate(bits, config)
    spb = config.samples_per_bit
    corrupted = signal.samples.copy()
    symbol = 25  # invert the phase of one mid-stream transmitted symbol
    corrupted[symbol * spb : (symbol + 1) * spb] *= -1
    trace = dpsk_demodulate(AudioSignal(corrupted, config.sample_rate_hz), config)
    flipped = np.flatnonzero(trace.decisions != bits)
    flips_ok = flipped.tolist() == [symbol - 1, symbol]

    constructed = compute_btsr(np.ones(800, dtype=int), np.concatenate(
        [np.ones(720, dtype=int), np.zeros(80, dtype=int)]
    ))
    formula_ok = (
        constructed == 0.9
        and ber_estimate_from_btsr(constructed, 800) == 1.0 / (0.9 * 800)
        and ber_estimate_from_btsr(constructed, 800) == pytest.approx(1 / 720)
    )
    ok = flips_ok and formula_ok
    _report(
        7,
        "dpsk error propagation + BER formula",
        ok,
        f"flipped decisions {flipped.tolist()} (want [{symbol - 1}, {symbol}]); "
        f"BER(0.9, 800)={ber_estimate_from_btsr(0.9, 800):.6f} (want 1/720)",
    )
    assert ok


def test_criterion_8_adaptive_threshold():
    config = FskConfig()
    reference = power_spectrum(AudioSignal(np.zeros(4096), 44100), 4096)
    outcomes = []
    for ratio in (5.0, 9.99, 10.0, 100.0):
        power = np.zeros_like(reference.bin_power)
        in_band = (reference.bin_freq_hz >= config.band_lo_hz) & (
            reference.bin_freq_hz <= config.band_hi_hz
        )
        power[in_band] = 1.0
        power[reference.nearest_bin(config.data_freq1_hz)] = ratio
        spectrum = Spectrum(reference.bin_freq_hz, power, 4096, 44100)
        detection = detect_carriers_in_spectrum(spectrum, config)
        outcomes.append("data1" in detection.active_carriers)
    ok = outcomes == [False, False, True, True]
    _report(
        8,
        "order-of-magnitude threshold",
        ok,
        f"active at ratios (5, 9.99, 10, 100) = {outcomes} (want [F, F, T, T])",
    )
    assert ok


def test_criterion_9_spectrum_oracle_equivalence():
    rng = np.random.default_rng(1337)
    worst = 0.0
    for _ in range(50):
        frame = rng.standard_normal(1024)
        fast = power_spectrum(AudioSignal(frame, 96000), 1024).bin_power
        oracle = naive_power_spectrum(frame)
        floor = 1e-12 * oracle.max()
        worst = max(worst, float(np.max(np.abs(fast - oracle) / np.maximum(oracle, floor))))
    ok = worst <= 1e-9
    _report(9, "fft vs O(N^2) dft oracle", ok, f"max relative error {worst:.2e} (need <= 1e-9)")
    assert ok


def test_criterion_10_determinism():
    """Criteria 1-5 rerun byte-identically and match ``tests/golden/c1.csv``..``c5.csv``.

    The goldens lock every decision behind the CSVs across refactors.  After an
    intended output change, regenerate them from the repository root with:
    PYTHONPATH=src:tests python -c "import test_acceptance as t; [open(f'tests/golden/c{i}.csv', 'w').write(getattr(t, f'_criterion{i}_csv')()[-1]) for i in range(1, 6)]"
    """
    generators = {
        "c1": _criterion1_csv,
        "c2": _criterion2_csv,
        "c3": _criterion3_csv,
        "c4": _criterion4_csv,
        "c5": _criterion5_csv,
    }
    matches, golden = {}, {}
    for key, generate in generators.items():
        rerun = generate()[-1]
        baseline = _first_run.get(key)
        if baseline is None:  # criterion ran standalone: execute twice
            baseline = generate()[-1]
        matches[key] = rerun == baseline
        golden[key] = rerun.encode() == (GOLDEN / f"{key}.csv").read_bytes()
    ok = all(matches.values()) and all(golden.values())
    _report(
        10,
        "byte-identical reruns of criteria 1-5",
        ok,
        f"identical CSVs: {matches}; equal to goldens: {golden}",
    )
    assert ok
