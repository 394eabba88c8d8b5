##############################################################################
# The over-the-air workflow: export a modulated burst as a 16-bit WAV, play
# it through real speakers, record with a laptop microphone, decode the
# capture.  Here the "capture" is simulated, but the files are the real
# interchange format (also reachable via the CLI: `airmodem encode/decode`).
##############################################################################

import numpy as np

from airmodem import (
    AudioSignal,
    ChannelSpec,
    PskConfig,
    apply_channel,
    correlate_delay,
    dpsk_demodulate,
    dpsk_modulate,
    read_wav,
    synth_noise,
    write_wav,
)

config = PskConfig()
header = np.array([1, 0] * 8)
payload = np.array([int(b) for b in format(0xC3A5, "016b")])
print(f"payload 0xC3A5 -> {''.join(map(str, payload))}")

## sender: one continuous DPSK stream, known header bits leading

burst = dpsk_modulate(np.concatenate([header, payload]), config)
write_wav(burst, "demo06_burst.wav")
print(f"wrote demo06_burst.wav ({burst.duration_seconds:.3f} s at "
      f"{config.sample_rate_hz} Hz) - play this through speakers")

## 'microphone': delay, attenuation, cafe chatter, then a WAV capture.
## The chatter is set to a fixed loudness (RMS 0.25, about half the signal's)
## rather than a carrier-bin SNR, so it is added here to the noiseless channel
## output: conversation is loud broadband but has almost no power left at
## 19.2 kHz, so the link barely notices it.

fs = config.sample_rate_hz
padded = AudioSignal(np.concatenate([burst.samples, np.zeros(9600)]), fs)
quiet = apply_channel(padded, ChannelSpec(delay_samples=1234, gain=0.6)).signal.samples
noisy = quiet + 0.25 * synth_noise("lowpass_voice", quiet.size, fs, seed=8).samples
capture = np.clip(noisy, -1.0, 1.0)
write_wav(AudioSignal(capture, fs), "demo06_capture.wav")
print(f"wrote demo06_capture.wav (clipped {np.count_nonzero(capture != noisy)} samples)")

## receiver: locate the header by correlation, then demodulate

recording = read_wav("demo06_capture.wav")
print(f"read capture: {recording.num_samples} samples at {recording.sample_rate_hz} Hz")

template = dpsk_modulate(header, config)
offset = correlate_delay(recording, template, max_delay_samples=4800)
print(f"header found at sample {offset} (true delay 1234)")

trace = dpsk_demodulate(recording, config, start_offset_samples=offset)
decoded = trace.decisions[header.size : header.size + payload.size]
errors = int(np.sum(decoded != payload))
print(f"decoded {''.join(map(str, decoded))} ({errors} bit errors)")
value = int("".join(map(str, decoded)), 2)
print(f"recovered word: 0x{value:04X}")
