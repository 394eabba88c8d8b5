"""Seeded op streams for the benchmark workloads: how each op is drawn,
prepared, executed and checked.

Only the standard library is imported at module level, so a set-up probe can
start its clock before numpy and airmodem load.  airmodem is imported inside
the functions that drive it, always through its modules (``evaluate.sweep``,
``cli.main``), so the instrumentation in ``tracing.py`` sees every call.
"""

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout

WORKLOADS = ("psk_trials", "fsk_trials", "wav_decode")
TRIALS = 2  # the minimum sweep() accepts
PSK_PAYLOAD_BITS = 800
FSK_PAYLOAD_BITS = 32
PSK_RATES = (96000, 48000, 44100)
BIT_RATES = (50.0, 100.0, 200.0, 400.0)
DECODE_MAX_DELAY = 96000  # a 1 s search window at 96 kHz
FSK_RATE = 44100


def _psk_trial(rng, scheme, sync, noise, sample_rate, bit_rate=None):
    snr = rng.uniform(5.0, 25.0)
    return {
        "kind": "trial",
        "scheme": scheme,
        "sync": sync,
        "noise": noise,
        "snr_db": snr,
        "sample_rate": sample_rate,
        "delay": rng.randrange(4800),
        "axis": "snr_db" if bit_rate is None else "bit_rate_bps",
        "value": snr if bit_rate is None else bit_rate,
        "seed": rng.getrandbits(32),
        "bits": PSK_PAYLOAD_BITS,
    }


def _fsk_trial(rng, noise):
    snr = rng.uniform(10.0, 25.0)
    return {
        "kind": "trial",
        "scheme": "fsk",
        "sync": "known_delay",
        "noise": noise,
        "snr_db": snr,
        "sample_rate": FSK_RATE,
        "delay": rng.randrange(4800),
        "axis": "snr_db",
        "value": snr,
        "seed": rng.getrandbits(32),
        "bits": FSK_PAYLOAD_BITS,
    }


def _decode(rng, scheme):
    if scheme == "fsk":
        bits, delay, rate = rng.randint(32, 64), rng.randrange(FSK_RATE), FSK_RATE
    else:
        # >= 240 bits keeps the capture longer than header + the 1 s window
        bits, delay, rate = rng.randint(240, 400), rng.randrange(DECODE_MAX_DELAY), 96000
    return {
        "kind": "decode",
        "scheme": scheme,
        "payload": "".join(rng.choice("01") for _ in range(bits)),
        "delay": delay,
        "snr_db": rng.uniform(20.0, 35.0),
        "sample_rate": rate,
        "seed": rng.getrandbits(32),
    }


def _block(workload, rng):
    """One stratified block: every op category once, in seeded order.

    Blocks keep the mix of a run fixed across seeds, so throughput moves with
    the code rather than with which op kinds a seed happened to draw.
    """
    if workload == "psk_trials":
        # lowpass_voice runs at 48 and 44.1 kHz only: at 96 kHz its
        # FFT-length lottery (270-930 ms per op) would sit right on p90
        ops = [
            _psk_trial(rng, scheme, sync, noise, rate)
            for scheme in ("dpsk", "bpsk")
            for sync in ("known_delay", "header")
            for noise, rates in (("white", PSK_RATES), ("lowpass_voice", PSK_RATES[1:]))
            for rate in rates
        ]
        # Bit-rate points use white noise: a 50 bps lowpass point costs 2-4 s,
        # which would leave one op kind owning the run.
        ops += [
            _psk_trial(
                rng,
                rng.choice(("dpsk", "bpsk")),
                rng.choice(("known_delay", "header")),
                "white",
                rate,
                bit_rate,
            )
            for bit_rate in BIT_RATES
            for rate in PSK_RATES
        ]
    elif workload == "fsk_trials":
        ops = [_fsk_trial(rng, noise) for noise in ("white", "white", "white", "lowpass_music")]
    else:
        ops = [_decode(rng, scheme) for scheme in ("dpsk", "dpsk", "bpsk", "bpsk", "fsk", "fsk")]
    rng.shuffle(ops)
    return ops


def op_stream(workload, seed):
    """Yield op 0, the warm-up and set-up op, then stratified blocks forever.

    Each op carries its block number; op 0 is block -1.  It has a fixed
    category with seeded parameters, so set-up time does not swing with the
    op kind a seed draws first.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "psk_trials":
        warmup = _psk_trial(rng, "dpsk", "known_delay", "white", 48000)
    elif workload == "fsk_trials":
        warmup = _fsk_trial(rng, "white")
    else:
        warmup = _decode(rng, "dpsk")
    yield {**warmup, "block": -1}
    block = 0
    while True:
        for op in _block(workload, random.Random(f"{workload}:{seed}:{block}")):
            yield {**op, "block": block}
        block += 1


def prepare(op, path):
    """Untimed input generation.  Decode ops get their WAV capture written to
    ``path``; returns the number of samples the op's receiver will see."""
    from airmodem import channel, fsk, psk, wavfile

    if op["kind"] == "trial":
        return None
    bits = [int(c) for c in op["payload"]]
    if op["scheme"] == "fsk":
        config = fsk.FskConfig(sample_rate_hz=op["sample_rate"])
        signal, carrier = fsk.fsk_modulate(bits, config), config.data_freq1_hz
    else:
        config = psk.PskConfig(sample_rate_hz=op["sample_rate"])
        modulate = psk.dpsk_modulate if op["scheme"] == "dpsk" else psk.bpsk_modulate
        signal = modulate(list(psk.DEFAULT_HEADER_BITS) + bits, config)
        carrier = config.carrier_hz
    spec = channel.ChannelSpec(
        delay_samples=op["delay"],
        noise=channel.NoiseSpec("white", op["snr_db"], carrier),
        seed=op["seed"],
    )
    capture = channel.apply_channel(signal, spec).signal
    wavfile.write_wav(capture, path)
    return capture.num_samples


def execute(op, path):
    """The timed part of an op: one sweep() point, or one CLI decode."""
    if op["kind"] == "trial":
        from airmodem import channel, evaluate, fsk, psk

        if op["scheme"] == "fsk":
            config = fsk.FskConfig(sample_rate_hz=op["sample_rate"])
            carrier = config.data_freq1_hz
        else:
            config = psk.PskConfig(sample_rate_hz=op["sample_rate"])
            carrier = config.carrier_hz
        spec = channel.ChannelSpec(
            delay_samples=op["delay"],
            noise=channel.NoiseSpec(op["noise"], op["snr_db"], carrier),
            seed=op["seed"],
        )
        result = evaluate.sweep(
            op["scheme"],
            op["axis"],
            [op["value"]],
            TRIALS,
            spec,
            config,
            payload_bits=op["bits"],
            sync=op["sync"],
        )
        return result, evaluate.sweep_to_csv(result)
    from airmodem import cli

    argv = ["decode", op["scheme"], path]
    if op["scheme"] != "fsk":
        argv += ["--sync", "header", "--max-delay", str(DECODE_MAX_DELAY)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _spb(op):
    """Samples per bit (PSK) of the op's configuration."""
    from airmodem import psk

    bit_rate = op["value"] if op.get("axis") == "bit_rate_bps" else 200.0
    return psk.PskConfig(sample_rate_hz=op["sample_rate"], bit_rate_bps=bit_rate).samples_per_bit


def _header_len():
    from airmodem import psk

    return len(psk.DEFAULT_HEADER_BITS)


def _fsk_config(op):
    from airmodem import fsk

    return fsk.FskConfig(sample_rate_hz=op["sample_rate"])


def _trial_samples(op):
    """Samples one trial's receiver sees: the delay plus the transmission."""
    if op["scheme"] == "fsk":
        return op["delay"] + op["bits"] * _fsk_config(op).samples_per_bit
    symbols = op["bits"] + (op["scheme"] == "dpsk")
    if op["sync"] == "header":
        symbols += _header_len()
    return op["delay"] + symbols * _spb(op)


def expected_psk_bits(scheme, num_samples, spb, estimate):
    """Bits a PSK receiver emits after header sync at ``estimate``.

    The demodulators read every whole symbol from the sync point to the end of
    the signal and drop the header.  A slipped estimate changes the count; a
    failed sync (None) yields no bits.
    """
    if estimate is None:
        return 0
    symbols = (num_samples - estimate) // spb
    bits = symbols - 1 if scheme == "dpsk" else symbols
    return max(0, bits - _header_len())


def _btsr(sent, received):
    agree = sum(1 for a, b in zip(sent, received) if a == b)
    return agree / len(sent)


def audio_seconds(op, num_samples):
    """Seconds of audio the op simulates (all trials) or decodes."""
    if op["kind"] == "decode":
        return num_samples / op["sample_rate"]
    return TRIALS * _trial_samples(op) / op["sample_rate"]


def _csv_ok(op, csv_text, mean):
    """The sweep CSV has the documented header and one row for the op's point."""
    lines = csv_text.splitlines()
    if len(lines) != 2 or lines[0] != "axis,value,mean_btsr,std_btsr,trials":
        return False
    row = lines[1].split(",")
    try:
        return (
            len(row) == 5
            and row[0] == op["axis"]
            and math.isclose(float(row[1]), op["value"], abs_tol=1e-6)
            and math.isclose(float(row[2]), mean, abs_tol=1e-6)
            and row[4] == str(TRIALS)
        )
    except ValueError:
        return False


def check(op, output, num_samples, trials, syncs):
    """Check one op's output; returns (btsr, list of problems).

    ``trials`` holds the TransmissionReport of every run_trial call made by
    the op and ``syncs`` the sync estimate of every correlate_delay call
    (None where it raised SyncNotFoundError), both in call order.
    """
    problems = []
    if op["kind"] == "decode":
        code, out, err = output
        lines = out.splitlines()
        if code != 0 or not lines or set(lines[0]) - {"0", "1"}:
            return 0.0, [f"decode exited {code}: {err.strip()[:200]!r}"]
        decoded = [int(c) for c in lines[0]]
        payload = [int(c) for c in op["payload"]]
        if op["scheme"] == "fsk":
            want = len(payload)
        elif len(syncs) != 1:
            return 0.0, [f"expected one sync call, saw {len(syncs)}"]
        else:
            want = expected_psk_bits(op["scheme"], num_samples, _spb(op), syncs[0])
        if len(decoded) != want:
            problems.append(f"decoded {len(decoded)} bits, expected {want}")
        return _btsr(payload, decoded), problems

    result, csv_text = output
    if len(trials) != TRIALS:
        return 0.0, [f"sweep ran {len(trials)} trials, expected {TRIALS}"]
    if op["sync"] == "header" and len(syncs) != TRIALS:
        return 0.0, [f"header sync ran {len(syncs)} times for {TRIALS} trials"]
    btsrs = []
    for index, report in enumerate(trials):
        sent, received = report.sent_bits.tolist(), report.received_bits.tolist()
        if len(sent) != op["bits"] or set(sent) - {0, 1}:
            problems.append(f"trial {index}: bad sent payload of {len(sent)} bits")
            continue
        if op["scheme"] == "fsk":  # at most one bit per FFT frame
            ok = len(received) <= _trial_samples(op) // _fsk_config(op).fft_size
        elif op["sync"] == "header":
            want = expected_psk_bits(op["scheme"], _trial_samples(op), _spb(op), syncs[index])
            ok = len(received) == want
        else:
            ok = len(received) == op["bits"]
        if not ok:
            problems.append(f"trial {index}: received {len(received)} bits")
        btsr = _btsr(sent, received)
        if not 0.0 <= report.btsr <= 1.0 or not math.isclose(report.btsr, btsr, abs_tol=1e-12):
            problems.append(f"trial {index}: btsr {report.btsr} != recount {btsr}")
        btsrs.append(report.btsr)
    if not bool(result.valid[0]):
        problems.append("sweep marked the point invalid")
    mean = float(result.mean_btsr[0])
    if btsrs and not math.isclose(mean, sum(btsrs) / len(btsrs), abs_tol=1e-12):
        problems.append(f"sweep mean {mean} disagrees with its trials {btsrs}")
    if not _csv_ok(op, csv_text, mean):
        problems.append(f"sweep CSV malformed: {csv_text!r}")
    return mean, problems
