"""Transmission metrics and the Monte-Carlo sweep harness.

The headline metric is the bit transmission success rate (BTSR): the fraction
of transmitted bits recovered correctly, with missing bits counted as errors.
For DPSK, where one corrupted symbol flips the decisions referencing it, the
bit error rate is estimated geometrically as 1 / (BTSR * n).
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import fsk as _fsk
from . import psk as _psk
from .channel import ChannelSpec, _carrier_bin_power, apply_channel
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NoClockError,
    SyncNotFoundError,
)

SWEEP_AXES = ("snr_db", "bit_rate_bps")
SYNC_MODES = ("known_delay", "header")


@dataclass(frozen=True)
class _Scheme:
    """What differs between modulation schemes.  Entries call psk and fsk
    through their modules, so replaced module attributes are seen."""

    config_class: type
    modulate: Callable  # (bits, config) -> AudioSignal
    # (signal, config, offset, header_bits, max_delay_samples)
    #   -> (payload bits, erasure count, raw trace)
    receive: Callable
    noise_carrier_hz: Callable  # config -> the carrier the channel calibrates SNR at
    header_sync: bool = True  # False for FSK, which is self-clocked


def _receive_fsk(signal, config, offset, header_bits, max_delay_samples):
    # self-clocked: there is no start offset to honour and no header to skip
    result = _fsk.fsk_demodulate(signal, config)
    return result.bits, len(result.erasure_frame_indices), result


def _psk_scheme(modulate: str, demodulate: str) -> _Scheme:
    """A PSK entry; ``modulate`` and ``demodulate`` name functions in psk."""

    def send(bits, config):
        return getattr(_psk, modulate)(bits, config)

    def receive(signal, config, offset, header_bits, max_delay_samples):
        # a non-empty header overrides ``offset`` and is dropped from the decisions
        skip = len(header_bits)
        if skip:
            offset = _psk.correlate_delay(signal, send(header_bits, config), max_delay_samples)
        trace = getattr(_psk, demodulate)(signal, config, offset)
        return trace.decisions[skip:], int(np.count_nonzero(trace.erasures[skip:])), trace

    return _Scheme(_psk.PskConfig, send, receive, lambda config: config.carrier_hz)


_SCHEMES = {
    "fsk": _Scheme(
        _fsk.FskConfig,
        lambda bits, config: _fsk.fsk_modulate(bits, config),
        _receive_fsk,
        lambda config: config.data_freq1_hz,
        header_sync=False,
    ),
    "bpsk": _psk_scheme("bpsk_modulate", "bpsk_demodulate_coherent"),
    "dpsk": _psk_scheme("dpsk_modulate", "dpsk_demodulate"),
}
SCHEMES = tuple(_SCHEMES)


def _lookup_scheme(scheme: str, sync: str) -> _Scheme:
    if scheme not in _SCHEMES:
        raise ConfigurationError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if sync not in SYNC_MODES:
        raise ConfigurationError(f"sync must be one of {SYNC_MODES}, got {sync!r}")
    return _SCHEMES[scheme]


@dataclass(frozen=True)
class TransmissionReport:
    """Outcome of a single modulate/channel/demodulate trial."""

    sent_bits: np.ndarray
    received_bits: np.ndarray
    btsr: float
    ber_estimate: float
    erasure_count: int
    trial_seed: int


@dataclass(frozen=True)
class SweepResult:
    """Aggregated BTSR statistics along one experiment axis.

    ``valid`` marks axis points whose configuration was acceptable; invalid
    points keep their position with NaN statistics rather than disappearing.
    """

    axis_name: str
    axis_values: np.ndarray
    mean_btsr: np.ndarray
    std_btsr: np.ndarray
    trials_per_point: int
    valid: np.ndarray


def compute_btsr(sent, received) -> float:
    """Fraction of sent bits matched positionally by the received stream.

    Surplus received bits are ignored; a shortfall counts as errors.
    """
    sent = np.asarray(sent, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    if sent.size == 0:
        raise ConfigurationError("sent bit stream must be non-empty")
    overlap = min(sent.size, received.size)
    agree = int(np.count_nonzero(sent[:overlap] == received[:overlap]))
    return agree / sent.size


def ber_estimate_from_btsr(btsr: float, num_bits: int) -> float:
    """Geometric-distribution BER estimate 1 / (BTSR * n); +inf when BTSR is 0."""
    if num_bits <= 0:
        raise ConfigurationError(f"num_bits must be positive, got {num_bits}")
    if btsr <= 0.0:
        return math.inf
    return 1.0 / (btsr * num_bits)


def random_bits(num_bits: int, seed) -> np.ndarray:
    """Deterministic random payload for a trial seed (or Generator)."""
    return np.random.default_rng(seed).integers(0, 2, size=num_bits, dtype=np.int64)


def _trial_bits(entry: _Scheme, sync: str, num_bits: int, channel: ChannelSpec):
    """``(payload, header, on_air)``: a trial's random payload, its header
    (empty unless it syncs on one) and the bits it sends, header first."""
    # payload stream kept distinct from the channel's noise stream
    payload = random_bits(num_bits, np.random.default_rng([channel.seed, 1]))
    use_header = sync == "header" and entry.header_sync
    header = np.asarray(_psk.DEFAULT_HEADER_BITS if use_header else (), dtype=np.int64)
    return payload, header, np.concatenate([header, payload])


def run_trial(
    scheme: str,
    payload_bits: int,
    channel: ChannelSpec,
    config=None,
    sync: str = "known_delay",
    max_delay_samples: int = 4800,
) -> TransmissionReport:
    """One seeded end-to-end trial: random payload -> modulate -> channel -> demodulate.

    The channel's seed doubles as the trial seed (it drives both the payload
    and the noise realization).  Demodulator failures surface as an empty
    received stream, not an exception.  ``sync`` selects how PSK receivers
    align: ``known_delay`` uses the channel's true delay (loopback mode),
    ``header`` prepends :data:`psk.DEFAULT_HEADER_BITS` and synchronizes by
    correlation.
    """
    entry = _lookup_scheme(scheme, sync)
    if payload_bits < 1:
        raise ConfigurationError(f"payload_bits must be >= 1, got {payload_bits}")
    payload, header, on_air = _trial_bits(entry, sync, payload_bits, channel)
    config = config if config is not None else entry.config_class()
    out = apply_channel(entry.modulate(on_air, config), channel)
    received, erasure_count = np.array([], dtype=np.int64), 0
    try:
        received, erasure_count, _trace = entry.receive(
            out.signal, config, channel.delay_samples, header, max_delay_samples
        )
    except (NoClockError, SyncNotFoundError, InsufficientDataError):
        pass
    btsr = compute_btsr(payload, received)
    return TransmissionReport(
        sent_bits=payload,
        received_bits=np.asarray(received, dtype=np.int64),
        btsr=btsr,
        ber_estimate=ber_estimate_from_btsr(btsr, payload.size),
        erasure_count=erasure_count,
        trial_seed=channel.seed,
    )


def _derive_seed(base_seed: int, axis_index: int, trial_index: int) -> int:
    seq = np.random.SeedSequence([int(base_seed), axis_index, trial_index])
    return int(seq.generate_state(1, np.uint64)[0])


def _sweep_point(axis: str, value: float, config, channel: ChannelSpec):
    """``(config, channel)`` of one sweep point, ``value`` replacing one field:
    ``snr_db`` the noise spec's ``snr_db_at_carrier``, any other axis the
    config field of that name."""
    if axis == "snr_db":
        return config, replace(channel, noise=replace(channel.noise, snr_db_at_carrier=value))
    return replace(config, **{axis: value}), channel


def sweep(
    scheme: str,
    axis: str,
    values,
    trials: int,
    base_channel: ChannelSpec,
    base_config=None,
    payload_bits: int = 800,
    sync: str = "known_delay",
) -> SweepResult:
    """Seeded Monte-Carlo sweep of mean/std BTSR along one axis.

    Per-trial seeds derive from (base seed, axis index, trial index), so runs
    are reproducible bit-for-bit and trials could execute in parallel without
    changing the result.  One rule covers both axes:

    - a point replaces one field (see :func:`_sweep_point`);
    - a point whose config differs from the base config hears noise
      calibrated against the carrier-bin power of the same on-air bits
      (header included under header sync) sent with the base config: the
      room does not get quieter when the sender slows, and the base rate,
      calibrated against its own capture, is the ``snr_db`` point exactly;
    - a value that a constructor rejects marks its point invalid (NaN
      statistics) rather than skipping it.
    """
    entry = _lookup_scheme(scheme, sync)
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ConfigurationError("values must be non-empty")
    if trials < 2:
        raise ConfigurationError(f"trials must be >= 2, got {trials}")
    if base_config is None:
        base_config = entry.config_class()
    if axis == "snr_db" and base_channel.noise is None:
        raise ConfigurationError("snr_db sweep requires a channel with a noise spec")
    means, stds = np.full(values.size, math.nan), np.full(values.size, math.nan)
    for axis_index, value in enumerate(values):
        try:
            config, channel = _sweep_point(axis, float(value), base_config, base_channel)
        except ConfigurationError:
            continue
        btsrs = []
        for trial_index in range(trials):
            seed = _derive_seed(base_channel.seed, axis_index, trial_index)
            trial_channel = replace(channel, seed=seed)
            if config != base_config and channel.noise is not None:
                on_air = _trial_bits(entry, sync, payload_bits, trial_channel)[2]
                power = _carrier_bin_power(entry.modulate(on_air, base_config), trial_channel)
                trial_channel = replace(
                    trial_channel, noise=replace(channel.noise, reference_bin_power=power)
                )
            btsrs.append(run_trial(scheme, payload_bits, trial_channel, config, sync=sync).btsr)
        means[axis_index] = np.mean(btsrs)
        stds[axis_index] = np.std(btsrs, ddof=1)
    return SweepResult(axis, values, means, stds, trials, valid=~np.isnan(means))


def sweep_to_csv(result: SweepResult) -> str:
    """Serialize a sweep: header ``axis,value,mean_btsr,std_btsr,trials``,
    floats with six decimals, invalid points marked ``invalid``."""
    lines = ["axis,value,mean_btsr,std_btsr,trials"]
    for value, mean, std, ok in zip(
        result.axis_values, result.mean_btsr, result.std_btsr, result.valid
    ):
        if ok:
            stats = f"{mean:.6f},{std:.6f}"
        else:
            stats = "invalid,invalid"
        lines.append(f"{result.axis_name},{value:.6f},{stats},{result.trials_per_point}")
    return "\n".join(lines) + "\n"


def report_to_csv_row(
    scheme: str, report: TransmissionReport, snr_db: float | None, noise_kind: str | None
) -> str:
    """One-line CSV rendering of a trial report (no header)."""
    snr_field = "" if snr_db is None else f"{snr_db:.6f}"
    kind_field = noise_kind if noise_kind else "none"
    ber = "inf" if math.isinf(report.ber_estimate) else f"{report.ber_estimate:.6f}"
    return (
        f"{scheme},{report.sent_bits.size},{snr_field},{kind_field},"
        f"{report.btsr:.6f},{ber},{report.erasure_count},{report.trial_seed}"
    )


REPORT_CSV_HEADER = "scheme,n_bits,snr_db,noise_kind,btsr,ber_estimate,erasures,seed"
