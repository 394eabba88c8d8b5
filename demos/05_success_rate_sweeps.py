##############################################################################
# Monte-Carlo sweeps: bit transmission success rate (BTSR) vs SNR and vs
# bit rate for the DPSK link.
#
# Each point runs seeded 800-bit trials (4 s of audio at 200 bps) through the
# simulated channel; means and standard deviations are taken over the trials.
# The bit-rate sweep holds the noise *level* fixed: each trial's noise is
# calibrated so that the same payload sent at the base rate would see exactly
# 10 dB.  The room does not get quieter when the sender slows down, and a
# longer integration window is what buys the accuracy back.
##############################################################################

from airmodem import ChannelSpec, NoiseSpec
from airmodem.evaluate import sweep, sweep_to_csv

TRIALS = 10

## BTSR vs carrier-bin SNR at 200 bps

channel = ChannelSpec(noise=NoiseSpec("white", 0.0, 19200.0), seed=42)
snr_result = sweep("dpsk", "snr_db", [0, 5, 10, 15, 20, 25, 30], TRIALS, channel)
print("BTSR vs SNR (dpsk, 200 bps, 800 bits, white noise):")
for value, mean, std in zip(snr_result.axis_values, snr_result.mean_btsr, snr_result.std_btsr):
    bar = "#" * round(40 * mean)
    print(f"  {value:5.0f} dB  {mean:.3f} +- {std:.3f}  {bar}")

with open("demo05_snr_sweep.csv", "w", newline="\n") as handle:
    handle.write(sweep_to_csv(snr_result))
print("wrote demo05_snr_sweep.csv")

## BTSR vs bit rate at a fixed 10 dB environment

channel = ChannelSpec(noise=NoiseSpec("white", 10.0, 19200.0), seed=7)
rate_result = sweep("dpsk", "bit_rate_bps", [25, 50, 100, 200, 400], TRIALS, channel)
print("\nBTSR vs bit rate (fixed noise level, calibrated at 200 bps / 10 dB):")
for value, mean, std in zip(rate_result.axis_values, rate_result.mean_btsr, rate_result.std_btsr):
    bar = "#" * round(40 * mean)
    print(f"  {value:5.0f} bps {mean:.3f} +- {std:.3f}  {bar}")

with open("demo05_bitrate_sweep.csv", "w", newline="\n") as handle:
    handle.write(sweep_to_csv(rate_result))
print("wrote demo05_bitrate_sweep.csv")

## optional: the classic error-bar figures

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (left, right) = plt.subplots(1, 2, figsize=(10, 4))
    left.errorbar(snr_result.axis_values, snr_result.mean_btsr, yerr=snr_result.std_btsr,
                  marker="o", capsize=3)
    left.set_xlabel("carrier-bin SNR (dB)")
    left.set_ylabel("BTSR")
    left.set_title("success rate vs SNR")
    left.grid(True)
    right.errorbar(rate_result.axis_values, rate_result.mean_btsr, yerr=rate_result.std_btsr,
                   marker="o", capsize=3)
    right.set_xscale("log")
    right.set_xlabel("bit rate (bps)")
    right.set_title("success rate vs bit rate")
    right.grid(True)
    fig.tight_layout()
    fig.savefig("demo05_sweeps.png", dpi=120)
    print("wrote demo05_sweeps.png")
except ImportError:
    print("matplotlib not installed; skipping the plots")
