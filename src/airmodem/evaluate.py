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
from .channel import ChannelSpec, apply_channel
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
    # (signal, config, offset, skip) -> (bits after the first skip, erasure count, raw trace)
    demodulate: Callable
    noise_carrier_hz: Callable  # config -> the carrier the channel calibrates SNR at
    header_sync: bool = True  # False for FSK, which is self-clocked

    def header_offset(self, signal, header_bits, config, max_delay_samples: int) -> int:
        """Start of the known header in ``signal``, found by correlation."""
        return _psk.correlate_delay(signal, self.modulate(header_bits, config), max_delay_samples)


def _demodulate_fsk(signal, config, offset, skip):
    # self-clocked: there is no start offset to honour and no header to skip
    result = _fsk.fsk_demodulate(signal, config)
    return result.bits, len(result.erasure_frame_indices), result


def _psk_scheme(modulate: str, demodulate: str) -> _Scheme:
    """A PSK entry; ``modulate`` and ``demodulate`` name functions in psk."""

    def receive(signal, config, offset, skip):
        trace = getattr(_psk, demodulate)(signal, config, offset)
        return trace.decisions[skip:], int(np.count_nonzero(trace.erasures[skip:])), trace

    def send(bits, config):
        return getattr(_psk, modulate)(bits, config)

    return _Scheme(_psk.PskConfig, send, receive, lambda config: config.carrier_hz)


_SCHEMES = {
    "fsk": _Scheme(
        _fsk.FskConfig,
        lambda bits, config: _fsk.fsk_modulate(bits, config),
        _demodulate_fsk,
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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.integers(0, 2, size=num_bits, dtype=np.int64)


def _trial_payload(num_bits: int, channel: ChannelSpec) -> np.ndarray:
    # payload stream kept distinct from the channel's noise stream
    return random_bits(num_bits, np.random.default_rng([channel.seed, 1]))


def run_trial(
    scheme: str,
    payload_bits: int,
    channel: ChannelSpec,
    config=None,
    sync: str = "known_delay",
    header_bits=_psk.DEFAULT_HEADER_BITS,
    max_delay_samples: int = 4800,
) -> TransmissionReport:
    """One seeded end-to-end trial: random payload -> modulate -> channel -> demodulate.

    The channel's seed doubles as the trial seed (it drives both the payload
    and the noise realization).  Demodulator failures surface as an empty
    received stream, not an exception.  ``sync`` selects how PSK receivers
    align: ``known_delay`` uses the channel's true delay (loopback mode),
    ``header`` prepends known header bits and synchronizes by correlation.
    """
    entry = _lookup_scheme(scheme, sync)
    if payload_bits < 1:
        raise ConfigurationError(f"payload_bits must be >= 1, got {payload_bits}")
    payload = _trial_payload(payload_bits, channel)
    config = config if config is not None else entry.config_class()
    use_header = sync == "header" and entry.header_sync
    header = np.asarray(header_bits if use_header else (), dtype=np.int64)
    out = apply_channel(entry.modulate(np.concatenate([header, payload]), config), channel)
    received, erasure_count = np.array([], dtype=np.int64), 0
    try:
        offset = channel.delay_samples
        if use_header:
            offset = entry.header_offset(out.signal, header, config, max_delay_samples)
        received, erasure_count, _trace = entry.demodulate(out.signal, config, offset, header.size)
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


def _reference_noise_scale(scheme, payload_bits, channel, base_config) -> float | None:
    """Noise scale calibrated against the base-rate signal for this trial.

    Holding this scale fixed across a bit-rate sweep models a constant noise
    environment: the background does not get quieter because the transmitter
    slowed down.
    """
    payload = _trial_payload(payload_bits, channel)
    return apply_channel(_SCHEMES[scheme].modulate(payload, base_config), channel).noise_scale


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
    changing the result.  Axis points with invalid configurations are flagged
    rather than skipped.  Sweeping ``bit_rate_bps`` keeps the noise level
    fixed at the value calibrated for the base configuration's bit rate.
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
    means, stds, valid = [], [], []
    for axis_index, value in enumerate(values):
        config = base_config
        if axis == "bit_rate_bps":
            try:
                config = replace(base_config, bit_rate_bps=float(value))
            except ConfigurationError:
                means.append(math.nan)
                stds.append(math.nan)
                valid.append(False)
                continue
        btsrs = []
        for trial_index in range(trials):
            seed = _derive_seed(base_channel.seed, axis_index, trial_index)
            trial_channel = replace(base_channel, seed=seed)
            if axis == "snr_db":
                trial_channel = replace(
                    trial_channel,
                    noise=replace(trial_channel.noise, snr_db_at_carrier=float(value)),
                )
            elif base_channel.noise is not None:
                scale = _reference_noise_scale(scheme, payload_bits, trial_channel, base_config)
                trial_channel = replace(
                    trial_channel, noise=replace(trial_channel.noise, fixed_scale=scale)
                )
            report = run_trial(scheme, payload_bits, trial_channel, config, sync=sync)
            btsrs.append(report.btsr)
        means.append(float(np.mean(btsrs)))
        stds.append(float(np.std(btsrs, ddof=1)))
        valid.append(True)
    return SweepResult(
        axis_name=axis,
        axis_values=values,
        mean_btsr=np.asarray(means),
        std_btsr=np.asarray(stds),
        trials_per_point=trials,
        valid=np.asarray(valid, dtype=bool),
    )


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
