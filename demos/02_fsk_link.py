##############################################################################
# A complete dual-channel FSK link at 4 bits/second.
#
# The left speaker channel carries DATA (18 kHz = 0, 18.25 kHz = 1) and the
# right channel carries a CLOCK that alternates between 18.75 and 18.5 kHz
# every bit period.  The receiver FFTs non-overlapping buffers, marks a
# carrier "active" when it rises an order of magnitude above the in-band
# noise floor, and samples the data carrier whenever the clock flips.
##############################################################################

import numpy as np

from airmodem import ChannelSpec, FskConfig, NoiseSpec, apply_channel, fsk_demodulate, fsk_modulate

config = FskConfig()
payload = np.array([1, 0, 1, 1, 0, 0, 1, 0])
print(f"payload: {''.join(map(str, payload))}  "
      f"({payload.size} bits = {payload.size / config.bit_rate_bps:.0f} s of audio)")

## modulate: one stereo signal, one tone pair per bit period

signal = fsk_modulate(payload, config)
print(f"modulated: {signal.channel_count} channels x {signal.num_samples} samples")

## a quiet room: just attenuation and a little white noise

channel = ChannelSpec(gain=0.5, noise=NoiseSpec("white", 30.0, config.data_freq1_hz), seed=1)
received = apply_channel(signal, channel)
clipped = round(received.clip_fraction * received.signal.num_samples)
print(f"channel: gain 0.5, 30 dB carrier-bin SNR, clipped {clipped} samples")

## demodulate and inspect the frame-by-frame detections

result = fsk_demodulate(received.signal, config)
print(f"decoded: {''.join(map(str, result.bits))}  "
      f"(erasure frames: {result.erasure_frame_indices})")
assert np.array_equal(result.bits, payload)

print("\nframe  clock transitions -> sampling events")
last = None
for det in result.detections[:16]:
    clocks = sorted(det.active_carriers & {"clock0", "clock1"})
    data = sorted(det.active_carriers & {"data0", "data1"})
    marker = ""
    if len(clocks) == 1 and clocks[0] != last:
        marker = f"  <- clock flip, sample {data}"
        last = clocks[0]
    print(f"{det.frame_index:>5}  clock={clocks} data={data}{marker}")

## the same link through heavy key-jangling noise

jangle = ChannelSpec(noise=NoiseSpec("broadband_jangle", 12.0, config.data_freq1_hz), seed=2)
rough = fsk_demodulate(apply_channel(signal, jangle).signal, config)
agreement = np.mean(rough.bits[: payload.size] == payload[: rough.bits.size]) if rough.bits.size else 0.0
print(f"\nwith 12 dB broadband jangle: decoded {rough.bits.size}/{payload.size} bits, "
      f"agreement {agreement:.2f}, erasures {len(rough.erasure_frame_indices)}")
