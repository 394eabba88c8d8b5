"""Command-line front end: encode/decode WAV files, run simulations and sweeps.

Exit codes: 0 success; 3 a runtime signal-processing failure (SyncNotFoundError,
NoClockError); 2 a usage error, any other ModemError (bad configuration,
unreadable or mismatched files) or an OSError.  Every command is deterministic
given its flags.
"""

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import evaluate, fsk, psk, wavfile
from .channel import ChannelSpec, NoiseSpec, NOISE_KINDS
from .errors import ConfigurationError, ModemError, NoClockError, SyncNotFoundError
from .signals import framed_power

# config field -> (flag, type); a field both configs have shares one flag
_CONFIG_FLAGS = {
    "carrier_hz": ("--carrier-hz", float),
    "bit_rate_bps": ("--bit-rate", float),
    "sample_rate_hz": ("--sample-rate", int),
    "amplitude": ("--amplitude", float),
    "ramp_fraction": ("--ramp-fraction", float),
    "data_freq0_hz": ("--data-freq0", float),
    "data_freq1_hz": ("--data-freq1", float),
    "clock_freq0_hz": ("--clock-freq0", float),
    "clock_freq1_hz": ("--clock-freq1", float),
    "fft_size": ("--fft-size", int),
    "detection_ratio": ("--detection-ratio", float),
    "band_lo_hz": ("--band-lo", float),
    "band_hi_hz": ("--band-hi", float),
}
_SWEEP_AXES = {"snr": "snr_db", "bitrate": "bit_rate_bps"}


def parse_payload(text: str) -> np.ndarray:
    """Parse a payload as hex (0x..., most-significant bit first) or a raw
    bit string like 1010."""
    if text.startswith(("0x", "0X")):
        digits = text[2:]
        if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise ConfigurationError(f"invalid hex payload {text!r}")
        bits = [int(b) for d in digits for b in format(int(d, 16), "04b")]
    elif text and all(c in "01" for c in text):
        bits = [int(c) for c in text]
    else:
        raise ConfigurationError(
            f"payload {text!r} must be hex (0x...) or a non-empty bit string"
        )
    return np.asarray(bits, dtype=np.int64)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for field, (flag, kind) in _CONFIG_FLAGS.items():
        parser.add_argument(flag, type=kind, default=None, help=f"override {field}")


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    """The payload and channel flags that simulate and sweep share."""
    parser.add_argument("--bits", type=int, default=800)
    parser.add_argument("--snr-db", type=float, default=None)
    parser.add_argument("--noise-kind", choices=NOISE_KINDS, default=None)
    parser.add_argument("--delay", type=int, default=0)
    parser.add_argument("--gain", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _build_config(args):
    """The scheme's table entry and its config, with the flags' overrides."""
    scheme = evaluate._SCHEMES[args.scheme]
    names = {field.name for field in fields(scheme.config_class)}
    kwargs = {}
    for field, (flag, _kind) in _CONFIG_FLAGS.items():
        value = getattr(args, flag.lstrip("-").replace("-", "_"), None)
        if value is not None:
            if field not in names:
                raise ConfigurationError(f"{flag} does not apply to {args.scheme}")
            kwargs[field] = value
    return scheme, scheme.config_class(**kwargs)


def _bits_to_string(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def _cmd_encode(args) -> int:
    bits = parse_payload(args.payload)
    scheme, config = _build_config(args)
    signal = scheme.modulate(bits, config)
    wavfile.write_wav(signal, args.out)
    print(
        f"encoded {bits.size} bits in {signal.num_samples} samples "
        f"({signal.duration_seconds:.6f} s) -> {args.out}"
    )
    return 0


def _cmd_decode(args) -> int:
    signal = wavfile.read_wav(args.infile)
    if args.sample_rate is None:
        args.sample_rate = signal.sample_rate_hz  # the receiver rejects any other rate
    scheme, config = _build_config(args)
    header = parse_payload(args.header_bits)
    if args.sync != "header":
        header = header[:0]
    bits, _erasures, trace = scheme.receive(signal, config, args.offset, header, args.max_delay)
    print(_bits_to_string(bits))
    if args.trace and args.scheme == "fsk":
        print("frame,data0,data1,clock0,clock1,noise_floor,active")
        for det in trace.detections:
            powers = ",".join(f"{det.carrier_powers[c]:.6e}" for c in fsk.CARRIER_NAMES)
            active = "|".join(sorted(det.active_carriers))
            print(f"{det.frame_index},{powers},{det.noise_floor_power:.6e},{active}")
    elif args.trace:
        print("bit,correlation,phase_estimate,decision,erasure")
        for i in range(trace.decisions.size):
            print(
                f"{i},{trace.per_bit_correlation[i]:.6f},"
                f"{trace.per_bit_phase_estimate[i]:.6f},"
                f"{trace.decisions[i]},{int(trace.erasures[i])}"
            )
    return 0


def _build_channel(args, scheme, config, snr_db: float | None) -> ChannelSpec:
    noise = None
    if snr_db is not None or args.noise_kind is not None:
        if snr_db is None:
            raise ConfigurationError("--noise-kind requires --snr-db")
        noise = NoiseSpec(
            kind=args.noise_kind or "white",
            snr_db_at_carrier=snr_db,
            carrier_hz=scheme.noise_carrier_hz(config),
        )
    return ChannelSpec(delay_samples=args.delay, gain=args.gain, noise=noise, seed=args.seed)


def _cmd_simulate(args) -> int:
    scheme, config = _build_config(args)
    channel = _build_channel(args, scheme, config, args.snr_db)
    report = evaluate.run_trial(
        args.scheme, args.bits, channel, config, sync=args.sync, max_delay_samples=args.max_delay
    )
    print(evaluate.REPORT_CSV_HEADER)
    kind = channel.noise.kind if channel.noise else None
    print(evaluate.report_to_csv_row(args.scheme, report, args.snr_db, kind))
    return 0


def _cmd_sweep(args) -> int:
    axis = _SWEEP_AXES[args.axis]
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ConfigurationError(f"--values must be comma-separated numbers, got {args.values!r}")
    if not values:
        raise ConfigurationError("--values must be non-empty")
    scheme, config = _build_config(args)
    # every SNR point replaces the base SNR, so a placeholder stands in when --snr-db is absent
    base_snr = args.snr_db if args.snr_db is not None else (0.0 if axis == "snr_db" else None)
    channel = _build_channel(args, scheme, config, base_snr)
    result = evaluate.sweep(
        args.scheme, axis, values, args.trials, channel, config, payload_bits=args.bits
    )
    csv_text = evaluate.sweep_to_csv(result)
    if args.out:
        with open(args.out, "w", newline="\n") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_spectrum(args) -> int:
    mono = wavfile.read_wav(args.infile).mixdown()
    mean_power = framed_power(mono.samples, args.fft_size, args.window).mean(axis=0)
    freqs = np.fft.rfftfreq(args.fft_size, 1.0 / mono.sample_rate_hz)
    print("freq_hz,power")
    for freq, power in zip(freqs, mean_power):
        print(f"{freq:.6f},{power:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airmodem",
        description="Near-ultrasonic software acoustic modem (FSK, BPSK, DPSK)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="modulate a payload into a WAV file")
    encode.add_argument("scheme", choices=evaluate.SCHEMES)
    encode.add_argument("payload", help="hex (0xA5) or bit string (1010)")
    encode.add_argument("out", help="output WAV path")
    _add_config_flags(encode)
    encode.set_defaults(func=_cmd_encode)

    decode = sub.add_parser("decode", help="demodulate a WAV file to bits")
    decode.add_argument("scheme", choices=evaluate.SCHEMES)
    decode.add_argument("infile", help="input WAV path")
    decode.add_argument("--sync", choices=("offset", "header"), default="offset")
    decode.add_argument("--offset", type=int, default=0, help="known start offset in samples")
    decode.add_argument(
        "--header-bits",
        default=_bits_to_string(psk.DEFAULT_HEADER_BITS),
        help="known header bit pattern for --sync header",
    )
    decode.add_argument("--max-delay", type=int, default=4800)
    decode.add_argument("--trace", action="store_true", help="print per-bit/per-frame detail CSV")
    _add_config_flags(decode)
    decode.set_defaults(func=_cmd_decode)

    simulate = sub.add_parser("simulate", help="one seeded modulate/channel/demodulate trial")
    simulate.add_argument("scheme", choices=evaluate.SCHEMES)
    _add_trial_flags(simulate)
    simulate.add_argument("--sync", choices=evaluate.SYNC_MODES, default="known_delay")
    simulate.add_argument("--max-delay", type=int, default=4800)
    _add_config_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="Monte-Carlo BTSR sweep over SNR or bit rate")
    sweep.add_argument("scheme", choices=evaluate.SCHEMES)
    sweep.add_argument("--axis", choices=_SWEEP_AXES, required=True)
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
    sweep.add_argument("--trials", type=int, default=10)
    _add_trial_flags(sweep)
    sweep.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    _add_config_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    spectrum = sub.add_parser("spectrum", help="averaged power spectrum of a WAV file as CSV")
    spectrum.add_argument("infile", help="input WAV path")
    spectrum.add_argument("--fft-size", type=int, default=4096)
    spectrum.add_argument("--window", choices=("rectangular", "hann"), default="hann")
    spectrum.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ModemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (SyncNotFoundError, NoClockError)) else 2


if __name__ == "__main__":
    sys.exit(main())
