"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's fast paths: the spectrum oracle is a
direct O(N^2) DFT, the phase oracle is plain quadrature correlation, the
correlation oracle takes one dot product per delay, the ramp oracle loops
over boundaries and the PSK oracles evaluate the carrier at every sample, so
they can vouch for the fast implementations.  The channel oracle builds the
capture step by step, one new array per step, and calibrates against the
spec's reference power when it names one.  The WAV oracle packs the
44-byte PCM header field by field with ``struct``.
"""

import math
import struct

import numpy as np

from airmodem.channel import _mean_bin_power, synth_noise


def naive_power_spectrum(frame: np.ndarray) -> np.ndarray:
    """One-sided power spectrum via an explicit O(N^2) DFT sum."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.size
    bins = np.arange(n // 2 + 1)
    angles = -2j * np.pi * np.outer(bins, np.arange(n)) / n
    coeffs = (np.exp(angles) * frame).sum(axis=1)
    power = (np.abs(coeffs) / n) ** 2
    power[1:-1] *= 2.0
    return power


def naive_band_mean(power: np.ndarray, freqs: np.ndarray, lo, hi, excluded, halfwidth) -> float:
    """Brute-force mean over qualifying bins (loop form, no masking tricks)."""
    total, count = 0.0, 0
    for f, p in zip(freqs, power):
        if not lo <= f <= hi:
            continue
        if any(abs(f - fc) <= halfwidth for fc in excluded):
            continue
        total += p
        count += 1
    return total / count if count else 0.0


def measure_symbol_phases(
    samples: np.ndarray,
    sample_rate_hz: int,
    carrier_hz: float,
    samples_per_symbol: int,
    skip: int,
    window: int,
) -> np.ndarray:
    """Per-symbol carrier phase by quadrature correlation.

    Correlates ``window`` samples starting ``skip`` into each symbol against
    cos/sin references on the global time base; pick ``window`` so it spans an
    integer number of carrier half-cycles to cancel the double-frequency term.
    """
    num_symbols = samples.size // samples_per_symbol
    phases = np.empty(num_symbols)
    for i in range(num_symbols):
        start = i * samples_per_symbol + skip
        k = np.arange(start, start + window)
        ref = 2.0 * np.pi * carrier_hz * k / sample_rate_hz
        seg = samples[start : start + window]
        in_phase = (seg * np.cos(ref)).sum()
        quadrature = -(seg * np.sin(ref)).sum()
        phases[i] = np.arctan2(quadrature, in_phase) % (2.0 * np.pi)
    return phases


def naive_ncc(received: np.ndarray, template: np.ndarray, max_delay: int) -> np.ndarray:
    """Normalized cross-correlation of ``template`` at every delay in
    [0, max_delay], one dot product per delay; silent windows score 0."""
    received = np.asarray(received, dtype=np.float64)
    template = np.asarray(template, dtype=np.float64)
    template_norm = np.linalg.norm(template)
    ncc = np.zeros(max_delay + 1)
    for d in range(max_delay + 1):
        window = received[d : d + template.size]
        denom = np.linalg.norm(window) * template_norm
        if denom > 0:
            ncc[d] = np.dot(window, template) / denom
    return ncc


def loop_ramp_envelope(num_samples: int, boundaries, ramp_samples: int) -> np.ndarray:
    """Transition-ramp envelope built one boundary at a time: a raised-cosine
    dip over ``ramp_samples`` on each side of every boundary."""
    r = ramp_samples
    envelope = np.ones(num_samples)
    for b in boundaries:
        lo, hi = max(b - r, 0), min(b + r, num_samples)
        k = np.arange(lo, hi)
        dist = np.minimum(np.abs(k + 0.5 - b), r)
        envelope[lo:hi] *= 0.5 * (1.0 - np.cos(np.pi * dist / r))
    return envelope


def direct_form_psk(
    phases, sample_rate_hz, carrier_hz, samples_per_symbol, amplitude, ramp_samples
):
    """A*cos(2*pi*fc*k/fs + phi_i) at every sample k of symbol i, tapered by
    :func:`loop_ramp_envelope` at each symbol boundary where the phase steps."""
    spb = samples_per_symbol
    k = np.arange(len(phases) * spb)
    samples = amplitude * np.cos(
        2.0 * np.pi * carrier_hz * k / sample_rate_hz + np.repeat(phases, spb)
    )
    boundaries = [i * spb for i in range(1, len(phases)) if phases[i] != phases[i - 1]]
    if ramp_samples and boundaries:
        samples *= loop_ramp_envelope(samples.size, boundaries, ramp_samples)
    return samples


def direct_quadrature_arms(samples, sample_rate_hz, carrier_hz, samples_per_symbol, amplitude):
    """Normalized in-phase and quadrature arms of each whole symbol, against
    cos and sin of a carrier phase computed at every sample."""
    spb = samples_per_symbol
    n = samples.size // spb
    x = samples[: n * spb].reshape(n, spb)
    phase = 2.0 * np.pi * carrier_hz * np.arange(n * spb).reshape(n, spb) / sample_rate_hz
    scale = 2.0 / (amplitude * spb)
    return scale * (x * np.cos(phase)).sum(axis=1), -scale * (x * np.sin(phase)).sum(axis=1)


def loop_symbol_correlations(samples, sample_rate_hz, carrier_hz, samples_per_symbol, skip):
    """z_i = sum of x[k] * exp(-j*2*pi*fc*k/fs) over symbol i, one symbol at a
    time, leaving out ``skip`` samples at both ends of each symbol."""
    spb = samples_per_symbol
    z = np.empty(samples.size // spb, dtype=complex)
    for i in range(z.size):
        k = np.arange(i * spb + skip, (i + 1) * spb - skip)
        z[i] = (samples[k] * np.exp(-2j * np.pi * carrier_hz * k / sample_rate_hz)).sum()
    return z


def concat_apply_channel(signal, spec):
    """``(samples, clip_count, noise_scale)`` of the channel, one step at a
    time: mix down, scale, prepend the delay, add the scaled noise, and clip
    into a copy, counting every sample the clip changed (NaN included)."""
    fs = signal.sample_rate_hz
    x = signal.mixdown().samples * spec.gain
    if spec.delay_samples:
        x = np.concatenate([np.zeros(spec.delay_samples), x])
    noise_scale = None
    if spec.noise is not None:
        unit = synth_noise(spec.noise.kind, x.size, fs, spec.seed).samples
        signal_bin = spec.noise.reference_bin_power
        if signal_bin is None:
            signal_bin = _mean_bin_power(x, fs, spec.noise.carrier_hz)
        noise_bin = _mean_bin_power(unit, fs, spec.noise.carrier_hz)
        if signal_bin == 0.0 or noise_bin == 0.0:
            noise_scale = 0.0
        else:
            target = 10.0 ** (spec.noise.snr_db_at_carrier / 10.0)
            noise_scale = math.sqrt(signal_bin / (noise_bin * target))
        x = x + noise_scale * unit
    clipped = np.clip(x, -1.0, 1.0)
    return clipped, int(np.count_nonzero(clipped != x)), noise_scale


def struct_packed_wav(samples, sample_rate_hz: int) -> bytes:
    """A 16-bit PCM WAV file: the 44-byte header packed field by field, then
    round(clip(x) * 32767) clamped to int16, frame-major (L R L R ...).
    ``samples`` is ``(n,)`` for mono or ``(channels, n)``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    channels = samples.shape[0]
    pcm = np.clip(np.round(np.clip(samples, -1.0, 1.0) * 32767), -32768, 32767).astype("<i2")
    data = pcm.T.tobytes()
    block_align = 2 * channels
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(data),
        b"WAVE",
        b"fmt ",
        16,
        1,
        channels,
        sample_rate_hz,
        sample_rate_hz * block_align,
        block_align,
        16,
        b"data",
        len(data),
    )
    return header + data
