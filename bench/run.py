"""airmodem benchmark: seeded closed-loop workloads over the library's public API.

    python3 bench/run.py --workload psk_trials --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the next op starts when the previous
one returns.  With ``--trace 0`` the last stdout line is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of
a traced replay of the same ops.  Full results (and, when traced, the spans)
are written under ``bench/out/``.  See ``bench/README.md``.
"""

import time

# Process start, before numpy loads: set-up probes count from here, and so
# does the wall-clock cap.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "audio_s_per_s": "s/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "btsr_mean": "ratio",
    "peak_rss_mb": "MB",
}
# Ops whose BTSR is scored: a fixed prefix of whole stratified blocks, so
# btsr_mean and btsr_digest depend on the seed alone, never on timing.
SCORED_OPS = 96  # 3, 24 and 16 blocks of psk_trials, fsk_trials and wav_decode
TINY_OPS = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WALL_CAP_S = 140  # stop early on a very slow machine so the run ends within 180 s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: score 3 ops and probe set-up once (self-tests)",
    )
    parser.add_argument("--setup-probe", metavar="OP_JSON", help=argparse.SUPPRESS)
    parser.add_argument("--capture", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def load_airmodem():
    """Import airmodem from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "airmodem" / "__init__.py").is_file():
        print(f"error: no airmodem sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import airmodem
    from airmodem import channel, cli, evaluate, fsk, psk, wavfile

    if Path(airmodem.__file__).resolve().parent != SRC / "airmodem":
        print(f"error: imported airmodem from {airmodem.__file__}", file=sys.stderr)
        sys.exit(2)
    return {
        "channel": channel,
        "cli": cli,
        "evaluate": evaluate,
        "fsk": fsk,
        "psk": psk,
        "wavfile": wavfile,
    }


def setup_probe(op_json, capture):
    """Child process: import airmodem, run one op, print seconds since start."""
    load_airmodem()
    workloads.execute(json.loads(op_json), capture)
    print(f"{time.perf_counter() - _T0!r}")


def measure_setup(op, capture, probes, host):
    """Median over fresh interpreters of import + the first op, in seconds
    at reference host speed, and raw."""
    times, kernel_s = [], []
    for _ in range(probes):
        kernel_s.append(host.sample())
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", json.dumps(op)]
            + (["--capture", capture] if capture else []),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append(float(done.stdout.split()[-1]))
    raw = statistics.median(times)
    return raw * hostspeed.REFERENCE_S / statistics.median(kernel_s), raw


class Runner:
    """Runs ops one after another and keeps a record of each."""

    def __init__(self, instrument, capture_dir, host):
        self.instrument = instrument
        self.capture_dir = capture_dir
        self.host = host
        self.records = []
        self.problems = []

    def capture_path(self, op_id, op):
        """Where a decode op's WAV capture is written; None for trials."""
        return os.path.join(self.capture_dir, f"op{op_id}.wav") if op["kind"] == "decode" else None

    def run(self, op_id, op, keep=False):
        """Prepare (untimed), execute (timed) and check (untimed) one op.
        A decode op's capture is deleted afterwards unless ``keep``."""
        path = self.capture_path(op_id, op)
        num_samples = workloads.prepare(op, path)
        if op_id % hostspeed.EVERY == 0:
            self.host.sample()
        kernel_index = len(self.host.samples) - 1
        self.instrument.begin_op(op_id, op)
        start = time.perf_counter()
        try:
            output = workloads.execute(op, path)
        except Exception as exc:  # a failed op is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - start
        self.instrument.end_op()
        if error is None:
            btsr, problems = workloads.check(
                op, output, num_samples, self.instrument.trials, self.instrument.syncs
            )
        else:
            btsr, problems = 0.0, [error]
        if path and not keep:
            os.remove(path)
        self.problems += [f"op {op_id}: {p}" for p in problems]
        record = {
            **op,
            "id": op_id,
            "seconds": elapsed,
            "kernel_index": kernel_index,
            "audio_s": workloads.audio_seconds(op, num_samples),
            "btsr": btsr,
            "failed": bool(problems),
        }
        self.records.append(record)
        return record


def run_ops(runner, ops, seconds, min_ops, whole_blocks=True):
    """Closed loop over ``ops`` (an iterator of (id, op)) until ``seconds`` of
    measured op time have passed and at least ``min_ops`` ops have run.

    With ``whole_blocks`` the run ends on a block boundary, so every run
    measures the same op mix whichever seed drew it.  Returns the records.
    """
    measured, ran = 0.0, []
    for op_id, op in ops:
        done = measured >= seconds and len(ran) >= min_ops
        if done and (not whole_blocks or op["block"] != ran[-1]["block"]):
            break
        ran.append(runner.run(op_id, op))
        measured += ran[-1]["seconds"]
        if time.perf_counter() - _T0 > WALL_CAP_S:
            print(f"warning: stopped after {len(ran)} ops at the wall-clock cap", file=sys.stderr)
            break
    for r in ran:  # now that the kernel samples after each op exist too
        r["ref_seconds"] = r["seconds"] * runner.host.scale(r["kernel_index"])
    return ran


def timings(records, key):
    """Throughput and latency metrics from the op times under ``key``.

    Rates are medians over blocks: every whole block holds the same op mix,
    so the median block shrugs off a burst of outside load without biasing
    the mix.  Latencies are nearest-rank percentiles over all ops.
    """
    blocks = {}
    for r in records:
        blocks.setdefault(r["block"], []).append(r)
    seconds = [sum(r[key] for r in b) for b in blocks.values()]
    lat = sorted(r[key] for r in records)
    return {
        "ops_per_s": statistics.median(len(b) / t for b, t in zip(blocks.values(), seconds)),
        "audio_s_per_s": statistics.median(
            sum(r["audio_s"] for r in b) / t for b, t in zip(blocks.values(), seconds)
        ),
        "op_p50_ms": percentile(lat, 50)[0] * 1e3,
        "op_p90_ms": percentile(lat, 90)[0] * 1e3,
    }


def digest(btsrs):
    return hashlib.sha256(",".join(repr(b) for b in btsrs).encode()).hexdigest()[:16]


def blas_threads():
    """Thread count of numpy's OpenBLAS, or None where it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(args):
    import numpy

    src_lines = sum(
        len(path.read_text().splitlines()) for path in (SRC / "airmodem").rglob("*.py")
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "src_airmodem_lines": src_lines,
        "load": "closed loop, 1 client, 1 process",
    }


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.setup_probe, args.capture)
        return 0
    modules = load_airmodem()
    from tracing import LAYER_METRICS, Instrument

    tiny = args.scale == "tiny"
    scored = TINY_OPS if tiny else SCORED_OPS
    OUT.mkdir(exist_ok=True)
    stream = enumerate(workloads.op_stream(args.workload, args.seed))
    with tempfile.TemporaryDirectory(dir=OUT, prefix="captures-") as capture_dir:
        instrument = Instrument(modules, trace=False)
        host = hostspeed.HostSpeed()
        runner = Runner(instrument, capture_dir, host)
        # op 0: warm-up here, and the first op of every set-up probe
        _, warm_op = next(stream)
        warm = runner.run(0, warm_op, keep=True)
        meta = metadata(args)

        if args.trace == 0:
            probes = 1 if tiny else SETUP_PROBES
            capture = runner.capture_path(0, warm_op)
            setup_s, raw_setup_s = measure_setup(warm_op, capture, probes, host)
            ran = run_ops(runner, stream, args.seconds, scored, whole_blocks=not tiny)
            btsrs = [r["btsr"] for r in ran[:scored]]
            wall_clock = {"setup_s": raw_setup_s, **timings(ran, "seconds")}
            values = {
                "setup_s": setup_s,
                **timings(ran, "ref_seconds"),
                "btsr_mean": statistics.fmean(btsrs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            meta.update(
                wall_clock=wall_clock,
                host_kernel_ms=[k * 1e3 for k in host.samples],
                op_samples=len(ran),
                samples_beyond_p90=percentile(sorted(r["seconds"] for r in ran), 90)[1],
                blocks=len({r["block"] for r in ran}),
                measured_s=sum(r["seconds"] for r in ran),
                btsr_digest=digest(btsrs),
            )
            correct = not warm["failed"]
        else:
            ops = [next(stream) for _ in range(scored)]
            untraced = run_ops(runner, iter(ops), 0.0, len(ops))
            instrument.close()
            instrument = Instrument(modules, trace=True)
            runner.instrument = instrument
            traced = run_ops(runner, iter(ops), 0.0, len(ops))
            instrument.close()
            untraced_s = sum(r["ref_seconds"] for r in untraced)
            traced_s = sum(r["ref_seconds"] for r in traced)
            untraced_digest = digest([r["btsr"] for r in untraced])
            traced_digest = digest([r["btsr"] for r in traced])
            values = instrument.layer_metrics(len(ops), traced_s / untraced_s - 1.0)
            units = LAYER_METRICS
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            instrument.write_spans(spans_path)
            meta.update(
                untraced_s=untraced_s,
                traced_s=traced_s,
                btsr_digest=untraced_digest,
                traced_btsr_digest=traced_digest,
                spans_file=str(spans_path.relative_to(ROOT)),
            )
            correct = not warm["failed"] and traced_digest == untraced_digest
    measured = runner.records[1:]  # op 0 is the warm-up
    attempted = len(measured)
    failed = sum(r["failed"] for r in measured)
    correct = correct and failed == 0
    meta["ops_failed_frac"] = failed / attempted
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"BENCH-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta, "ops": runner.records}) + "\n"
    )
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print("meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
