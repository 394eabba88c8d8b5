##############################################################################
# Tour of the waveform primitives: tone synthesis, power spectra, band power.
#
# The usable acoustic band for commodity speakers and laptop microphones sits
# between 18 kHz (above adult hearing) and 19.5 kHz (where transmissions stop
# being distinguishable from noise), so everything here lives in that range.
##############################################################################

import numpy as np

from airmodem import AudioSignal, band_power, generate_tone, power_spectrum

## a pure near-ultrasonic tone

sample_rate = 44100
tone = generate_tone(18250.0, 4096, sample_rate, amplitude=0.8)
print(f"tone: {tone.num_samples} samples, {tone.duration_seconds * 1000:.1f} ms, "
      f"peak {np.max(np.abs(tone.samples)):.3f}")

## the receiver's view: a one-sided power spectrum

spectrum = power_spectrum(tone, fft_size=4096)
peak_bin = int(np.argmax(spectrum.bin_power))
print(f"spectral peak at bin {peak_bin} = {spectrum.bin_freq_hz[peak_bin]:.1f} Hz "
      f"(bin width {spectrum.bin_width_hz:.2f} Hz)")

## two carriers at once, as in the dual-channel FSK scheme

pair = AudioSignal(
    generate_tone(18000.0, 4096, sample_rate, amplitude=0.4).samples
    + generate_tone(18750.0, 4096, sample_rate, amplitude=0.4).samples,
    sample_rate,
)
pair_spectrum = power_spectrum(pair, 4096)
for freq in (18000.0, 18750.0):
    bin_index = pair_spectrum.nearest_bin(freq)
    print(f"power near {freq:.0f} Hz: {pair_spectrum.bin_power[bin_index]:.4f}")

## the adaptive noise floor: in-band mean power, carriers excluded

rng = np.random.default_rng(0)
noisy = AudioSignal(pair.samples + 0.05 * rng.standard_normal(4096), sample_rate)
noisy_spectrum = power_spectrum(noisy, 4096)
floor = band_power(
    noisy_spectrum, 18000.0, 19500.0, excluded_freqs_hz=[18000.0, 18750.0]
)
carrier = noisy_spectrum.bin_power[noisy_spectrum.nearest_bin(18000.0)]
print(f"noise floor {floor:.2e}, carrier power {carrier:.2e}, "
      f"ratio {carrier / floor:.0f}x (carriers detect at >= 10x)")

## optional: picture of the two-carrier spectrum

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(8, 4))
    plt.semilogy(noisy_spectrum.bin_freq_hz, noisy_spectrum.bin_power + 1e-16)
    plt.xlim(17000, 20000)
    plt.xlabel("frequency (Hz)")
    plt.ylabel("bin power")
    plt.title("two carriers over a noise floor")
    plt.tight_layout()
    plt.savefig("demo01_spectrum.png", dpi=120)
    print("wrote demo01_spectrum.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
