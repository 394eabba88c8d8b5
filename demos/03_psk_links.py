##############################################################################
# BPSK versus DPSK on a 19.2 kHz carrier at 200 bits/second.
#
# BPSK keys the absolute carrier phase, so the receiver must first estimate
# the propagation delay (here: correlating against a known header).  DPSK
# keys phase *changes* and demodulates by comparing each symbol's carrier
# phase with the previous symbol's, so an unknown delay only has to be known
# to symbol granularity.  Both taper amplitude around phase steps so the transitions
# stay inaudible.
##############################################################################

import numpy as np

from airmodem import (
    AudioSignal,
    ChannelSpec,
    NoiseSpec,
    PskConfig,
    apply_channel,
    bpsk_demodulate_coherent,
    bpsk_modulate,
    correlate_delay,
    dpsk_demodulate,
    dpsk_modulate,
)
from airmodem.psk import DEFAULT_HEADER_BITS

config = PskConfig()
rng = np.random.default_rng(5)
payload = rng.integers(0, 2, 24)
print(f"payload: {''.join(map(str, payload))}")

## --- BPSK with header-based delay estimation --------------------------------

header = np.array(DEFAULT_HEADER_BITS)
tx_bits = np.concatenate([header, payload])
bpsk_tx = bpsk_modulate(tx_bits, config)

channel = ChannelSpec(delay_samples=733, noise=NoiseSpec("white", 18.0, config.carrier_hz), seed=9)
received = apply_channel(bpsk_tx, channel).signal

delay = correlate_delay(received, bpsk_modulate(header, config), max_delay_samples=2000)
print(f"\nBPSK: true delay 733, estimated {delay}")
trace = bpsk_demodulate_coherent(received, config, delay_samples=delay)
decoded = trace.decisions[header.size : header.size + payload.size]
print(f"BPSK decoded:  {''.join(map(str, decoded))}  "
      f"(bit errors: {int(np.sum(decoded != payload))})")

## --- DPSK needs no phase reference ------------------------------------------

dpsk_tx = dpsk_modulate(payload, config)
received = apply_channel(dpsk_tx, ChannelSpec(delay_samples=733, seed=10)).signal
trace = dpsk_demodulate(received, config, start_offset_samples=733)
print(f"\nDPSK decoded:  {''.join(map(str, trace.decisions))}  "
      f"(bit errors: {int(np.sum(trace.decisions != payload))})")
print("per-bit correlations (clean channel reads near +-1):")
print(np.array2string(trace.per_bit_correlation[:8], precision=3))

## --- what one corrupted symbol does to DPSK ---------------------------------

corrupted = dpsk_tx.samples.copy()
spb = config.samples_per_bit
corrupted[10 * spb : 11 * spb] *= -1  # invert the phase of symbol 10
trace = dpsk_demodulate(AudioSignal(corrupted, config.sample_rate_hz), config)
flipped = np.flatnonzero(trace.decisions != payload)
print(f"\ninverting transmitted symbol 10 flips decisions {flipped.tolist()} "
      "(the two comparisons that reference it)")

## --- the transition ramp keeps the phase steps inaudible --------------------

loud = dpsk_modulate(np.ones(50, dtype=int), PskConfig(ramp_fraction=0.0))
quiet = dpsk_modulate(np.ones(50, dtype=int), config)
for name, sig in (("unramped", loud), ("ramped", quiet)):
    spec = np.abs(np.fft.rfft(sig.samples)) ** 2
    freqs = np.fft.rfftfreq(sig.num_samples, 1 / config.sample_rate_hz)
    audible = spec[freqs <= 17000].sum() / spec.sum()
    print(f"{name:>9}: {100 * audible:.4f}% of signal power lands below 17 kHz")
