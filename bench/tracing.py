"""Instrumentation of airmodem from the outside.

Each layer is timed by replacing one of its functions with a wrapper in the
module its caller looks it up in (``evaluate.apply_channel``, not
``channel.apply_channel``), so no source file changes.  The wrappers that
the output checks need (``run_trial`` and ``correlate_delay``) are always
installed; with ``trace=True`` every wrapper also records a span, and the
per-layer metrics are computed from the spans and counts at the end.
"""

import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

# (module, function, layer).  The module is where the caller looks it up.
LAYERS = (
    ("evaluate", "sweep", "evaluate.sweep"),
    ("evaluate", "run_trial", "evaluate.run_trial"),
    ("evaluate", "apply_channel", "channel.apply"),
    ("channel", "synth_noise", "channel.noise_synth"),
    # private, but the only handle on SNR calibration inside apply_channel
    ("channel", "_mean_bin_power", "channel.snr_calibration"),
    ("psk", "bpsk_modulate", "psk.modulate"),
    ("psk", "dpsk_modulate", "psk.modulate"),
    ("psk", "apply_transition_ramp", "psk.ramp"),
    ("psk", "correlate_delay", "psk.sync"),
    ("psk", "bpsk_demodulate_coherent", "psk.demod"),
    ("psk", "dpsk_demodulate", "psk.demod"),
    ("fsk", "fsk_modulate", "fsk.modulate"),
    ("fsk", "fsk_demodulate", "fsk.demod"),
    ("fsk", "power_spectrum", "signals.power_spectrum"),
    ("fsk", "band_power", "signals.band_power"),
    ("fsk", "generate_tone", "signals.generate_tone"),
    ("wavfile", "read_wav", "wavfile.read"),
    ("cli", "main", "cli.main"),
)
CHECK_LAYERS = ("evaluate.run_trial", "psk.sync")

# Per-layer metrics the traced run reports: name -> unit.  Times are self
# time (span minus child spans) per op; counts are per op unless a ratio.
LAYER_METRICS = {
    "evaluate.sweep.self_ms": "ms/op",
    "evaluate.run_trial.self_ms": "ms/op",
    "evaluate.modulations_per_trial": "calls/trial",
    "evaluate.channel_calls_per_trial": "calls/trial",
    "evaluate.empty_receptions": "ratio",
    "psk.modulate.self_ms": "ms/op",
    "psk.modulate.samples": "samples/op",
    "psk.ramp.self_ms": "ms/op",
    "psk.ramp.boundaries": "count/op",
    "psk.sync.self_ms": "ms/op",
    "psk.sync.calls": "calls/op",
    "psk.sync.window_samples": "samples/call",
    "psk.sync.macs": "MAC/op",
    "psk.sync.slip_rate": "ratio",
    "psk.sync.not_found": "ratio",
    "psk.demod.self_ms": "ms/op",
    "psk.demod.bits": "bits/op",
    "fsk.modulate.self_ms": "ms/op",
    "fsk.demod.self_ms": "ms/op",
    "fsk.demod.frames": "frames/op",
    "fsk.demod.erasures": "count/op",
    "fsk.no_clock": "ratio",
    "signals.power_spectrum.calls": "calls/op",
    "signals.power_spectrum.self_ms": "ms/op",
    "signals.band_power.self_ms": "ms/op",
    "signals.generate_tone.self_ms": "ms/op",
    "channel.apply.self_ms": "ms/op",
    "channel.samples": "samples/op",
    "channel.noise_synth.self_ms": "ms/op",
    "channel.noise_synth.samples": "samples/op",
    "channel.snr_calibration.self_ms": "ms/op",
    "channel.clip_fraction": "ratio",
    "wavfile.read.self_ms": "ms/op",
    "wavfile.bytes_read": "bytes/op",
    "cli.main.self_ms": "ms/op",
    "trace.ops": "count",
    "trace.spans_per_op": "spans/op",
    "trace.overhead_frac": "ratio",
}


def self_ms(spans):
    """Total self time per layer in ms: span duration minus the time its
    direct children cover (children of one span never overlap: one thread)."""
    child = [0.0] * len(spans)
    for _layer, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    for index, (layer, start, end, _parent, _op) in enumerate(spans):
        total[layer] += (end - start - child[index]) * 1e3
    return total


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


class Instrument:
    """Wrappers around airmodem functions, plus what they recorded.

    Between ``begin_op`` and ``end_op`` the wrappers record; ``trials`` and
    ``syncs`` then hold what the op's run_trial and correlate_delay calls
    returned, for the output check.  Outside an op they pass calls through.
    """

    def __init__(self, modules, trace):
        self.trace = trace
        self.spans = []  # [layer, start, end, parent span index, op id]
        self.counts = defaultdict(float)
        self._stack = []
        self._restore = []
        self.op_id = -1
        self.op = None
        self.active = False  # off while inputs are generated
        self.trials, self.syncs = [], []
        for module_name, attr, layer in LAYERS:
            if trace or layer in CHECK_LAYERS:
                module = modules[module_name]
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(original, layer))
                self._restore.append((module, attr, original))

    def close(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def begin_op(self, op_id, op):
        self.op_id, self.op, self.active = op_id, op, True
        self.trials, self.syncs = [], []

    def end_op(self):
        self.active = False

    def _wrap(self, fn, layer):
        observe = getattr(self, "_observe_" + layer.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = None
            if self.trace:
                span = [layer, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op_id]
                self._stack.append(len(self.spans))
                self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe:
                    observe(fn, args, kwargs, None, exc)
                raise
            finally:
                if span:
                    span[2] = perf_counter()
                    self._stack.pop()
            if observe:
                observe(fn, args, kwargs, result, None)
            return result

        return wrapper

    # Observers: one per layer that keeps counts or feeds the output checks.

    def _observe_evaluate_run_trial(self, fn, args, kwargs, result, exc):
        if result is not None:
            self.trials.append(result)
            self.counts["trials"] += 1
            self.counts["empty_receptions"] += result.received_bits.size == 0

    def _observe_channel_apply(self, fn, args, kwargs, result, exc):
        if result is not None:
            self.counts["channel.calls"] += 1
            self.counts["channel.samples"] += result.signal.num_samples
            self.counts["channel.clip_sum"] += result.clip_fraction

    def _observe_channel_noise_synth(self, fn, args, kwargs, result, exc):
        self.counts["channel.noise_synth.samples"] += _arg(fn, args, kwargs, "num_samples")

    def _observe_psk_modulate(self, fn, args, kwargs, result, exc):
        if result is not None:
            self.counts["psk.modulate.samples"] += result.num_samples
            self._count_payload_modulation(fn, args, kwargs)

    def _observe_fsk_modulate(self, fn, args, kwargs, result, exc):
        self._count_payload_modulation(fn, args, kwargs)

    def _count_payload_modulation(self, fn, args, kwargs):
        # header templates are short; a payload modulation carries >= the payload
        if self.op.get("kind") == "trial" and len(_arg(fn, args, kwargs, "bits")) >= self.op["bits"]:
            self.counts["payload_modulations"] += 1

    def _observe_psk_ramp(self, fn, args, kwargs, result, exc):
        self.counts["psk.ramp.boundaries"] += len(_arg(fn, args, kwargs, "boundaries"))

    def _observe_psk_sync(self, fn, args, kwargs, result, exc):
        if exc is not None and type(exc).__name__ != "SyncNotFoundError":
            return
        self.syncs.append(result)
        window = _arg(fn, args, kwargs, "max_delay_samples") + 1
        self.counts["psk.sync.calls"] += 1
        self.counts["psk.sync.window_samples"] += window
        self.counts["psk.sync.macs"] += window * _arg(fn, args, kwargs, "template").num_samples
        self.counts["psk.sync.not_found"] += result is None
        self.counts["psk.sync.slips"] += result is not None and result != self.op["delay"]

    def _observe_psk_demod(self, fn, args, kwargs, result, exc):
        if result is not None:
            self.counts["psk.demod.bits"] += result.decisions.size

    def _observe_fsk_demod(self, fn, args, kwargs, result, exc):
        self.counts["fsk.demod.calls"] += 1
        if result is not None:
            self.counts["fsk.demod.frames"] += len(result.detections)
            self.counts["fsk.demod.erasures"] += len(result.erasure_frame_indices)
        elif type(exc).__name__ == "NoClockError":
            self.counts["fsk.no_clock"] += 1

    def _observe_signals_power_spectrum(self, fn, args, kwargs, result, exc):
        self.counts["signals.power_spectrum.calls"] += 1

    def _observe_wavfile_read(self, fn, args, kwargs, result, exc):
        self.counts["wavfile.bytes_read"] += os.path.getsize(_arg(fn, args, kwargs, "path"))

    def layer_metrics(self, num_ops, overhead_frac):
        """Every metric in LAYER_METRICS, from the spans and counts so far."""
        c = self.counts
        ops = max(num_ops, 1)

        def share(part, whole):
            return c[part] / c[whole] if c[whole] else 0.0

        values = {
            f"{layer}.self_ms": ms / ops
            for layer, ms in self_ms(self.spans).items()
            if f"{layer}.self_ms" in LAYER_METRICS
        }
        values.update(
            {
                "evaluate.modulations_per_trial": share("payload_modulations", "trials"),
                "evaluate.channel_calls_per_trial": share("channel.calls", "trials"),
                "evaluate.empty_receptions": share("empty_receptions", "trials"),
                "psk.sync.window_samples": share("psk.sync.window_samples", "psk.sync.calls"),
                "psk.sync.slip_rate": share("psk.sync.slips", "psk.sync.calls"),
                "psk.sync.not_found": share("psk.sync.not_found", "psk.sync.calls"),
                "fsk.no_clock": share("fsk.no_clock", "fsk.demod.calls"),
                "channel.clip_fraction": share("channel.clip_sum", "channel.calls"),
                "trace.ops": float(num_ops),
                "trace.spans_per_op": len(self.spans) / ops,
                "trace.overhead_frac": overhead_frac,
            }
        )
        for name in (
            "psk.modulate.samples",
            "psk.ramp.boundaries",
            "psk.sync.calls",
            "psk.sync.macs",
            "psk.demod.bits",
            "fsk.demod.frames",
            "fsk.demod.erasures",
            "signals.power_spectrum.calls",
            "channel.samples",
            "channel.noise_synth.samples",
            "wavfile.bytes_read",
        ):
            values[name] = c[name] / ops
        # a layer the workload never calls has no spans: report it as zero
        return {name: values.get(name, 0.0) for name in LAYER_METRICS}

    def write_spans(self, path):
        with open(path, "w") as handle:
            for layer, start, end, parent, op in self.spans:
                handle.write(json.dumps([layer, start, end, parent, op]) + "\n")
