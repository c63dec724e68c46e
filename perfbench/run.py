"""linpres benchmark: time sampled-element verification from outside the library.

    python3 perfbench/run.py --workload verify-f7 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from ./src,
nothing is installed.  The loop is closed: one caller, one process, no
threads, and each op starts when the previous one has returned.  Whole rounds
run (every round holds the same cell mix) until --seconds have passed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same ops under
spans wrapped around the public functions of each module (perfbench/tracing.py),
replays them untraced to measure the tracing overhead, and prints the
per-layer metrics.  The last stdout line is the JSON result; the line before
it holds run metadata (input and verdict digests, machine stamp, raw wall
times).  A traced run writes its spans to perfbench/out/.

Host-speed normalisation.  On a shared host the speed of the same Python code
can swing by 2x over tens of seconds (seen on a 2-core VM with busy
neighbours).  So the loop runs a fixed reference kernel (plain Python Fraction
and int arithmetic, no linpres code) about every 25 ms, and scales each op's
time by REFERENCE_MS over the median kernel time of the samples nearest to the
op (about 0.2 s around it).  Times then read as on a host where the kernel
takes exactly REFERENCE_MS.  A change to linpres cannot change the kernel, so
it moves normalised times as it moves raw ones.  The raw wall-clock figures
are kept in the metadata line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
TRACED_SHARE = 2 / 3  # of --seconds; the untraced replay of the same ops takes the rest
REFERENCE_MS = 1.0
CALIBRATION_GAP_S = 0.025
KERNEL_WINDOW = 8


def _die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import linpres from this checkout's src/, or exit 2 without a result."""
    if not os.path.isfile(os.path.join(SRC, "linpres", "__init__.py")):
        _die("no linpres sources under %s; run from the root of a full checkout" % SRC)
    sys.path.insert(0, SRC)
    import linpres

    if not os.path.abspath(linpres.__file__).startswith(SRC + os.sep):
        _die("linpres imported from %s, not from %s" % (linpres.__file__, SRC))


# machine stamp


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def stamp():
    """Load average and cumulative steal ticks, read-only, to tell a noisy host from a slow program."""
    stat = _read("/proc/stat")
    steal = None
    if stat:
        cpu = stat.split("\n", 1)[0].split()
        if len(cpu) > 8:
            steal = int(cpu[8])
    load = _read("/proc/loadavg")
    return {"loadavg": load.split()[:3] if load else None, "steal_ticks": steal}


def machine():
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


# host-speed reference


_KERNEL_MATRIX = [[Fraction((3 * i + 5 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(5)] for i in range(5)]
_KERNEL_TERMS = [((i, j), (i * 31 + j * 17) % 10007) for i in range(6) for j in range(6)]


def reference_kernel():
    """A fixed ~1 ms of interpreter work shaped like linpres's own: rational
    Gauss-Jordan elimination and a sparse polynomial product mod a prime."""
    a = [row[:] for row in _KERNEL_MATRIX]
    for c in range(5):
        p = next(r for r in range(c, 5) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        for r in range(5):
            if r != c and a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    out = {}
    for ka, ca in _KERNEL_TERMS:
        for kb, cb in _KERNEL_TERMS:
            k = (ka[0] + kb[0], ka[1] + kb[1])
            out[k] = (out.get(k, 0) + ca * cb) % 10007
    return a, out


def time_kernel():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


# running ops


class Run:
    """Per-op wall times, reference-kernel times, failures and first-round
    digests of one loop."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.kernel_pos: list[int] = []  # per op: kernel samples taken before it ended
        self.rounds = 0
        self.failed = 0
        self.errors: list[str] = []
        self.elapsed = 0.0
        self.cpu = 0.0
        self.inputs = None
        self.verdicts = None

    @property
    def attempted(self):
        return len(self.times)

    def host_factors(self):
        """Per op: REFERENCE_MS over the median of the KERNEL_WINDOW kernel
        samples nearest to it in time."""
        half = KERNEL_WINDOW // 2
        return [
            REFERENCE_MS / (1e3 * statistics.median(self.kernel[max(0, j - half) : j + half]))
            for j in self.kernel_pos
        ]

    def normalised_times(self):
        return [t * h for t, h in zip(self.times, self.host_factors())]


def run_loop(workload, seed, seconds=None, rounds=None, tracer=None):
    """Run whole rounds of ops until `seconds` have passed or `rounds` are done,
    timing the reference kernel every CALIBRATION_GAP_S.

    A failed check or any exception counts as a failed op; the loop goes on."""
    from workloads import Digest

    n = workload.round_len
    run = Run()
    inputs, verdicts = Digest(), Digest()
    start, cpu0 = time.perf_counter(), time.process_time()
    run.kernel.append(time_kernel())
    last_kernel = time.perf_counter()
    while True:
        for k in range(run.rounds * n, (run.rounds + 1) * n):
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                result = workload.run_op(seed, k)
            except Exception as exc:  # a failed op is counted, never fatal
                result = None
                run.failed += 1
                if len(run.errors) < 5:
                    run.errors.append("op %d: %s: %s" % (k, type(exc).__name__, exc))
            t1 = time.perf_counter()
            run.times.append(t1 - t0)
            run.kernel_pos.append(len(run.kernel))
            if run.rounds == 0 and result is not None:
                inputs.add(result[0])
                verdicts.add(result[1])
            if t1 - last_kernel >= CALIBRATION_GAP_S:
                run.kernel.append(time_kernel())
                last_kernel = time.perf_counter()
        run.rounds += 1
        if run.rounds == 1:
            run.inputs, run.verdicts = inputs.hexdigest(), verdicts.hexdigest()
        if rounds is not None and run.rounds >= rounds:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    run.elapsed = time.perf_counter() - start
    run.cpu = time.process_time() - cpu0
    return run


def setup_seconds(workload_name):
    """Setup of fresh processes that import, build and warm up.

    Each probe times the reference kernel after every warm-up op and prints
    those times; its wall time less the kernel time is its raw setup time,
    which is normalised by its own median kernel time.  Returns (median
    normalised time, raw times)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload_name]
    raw, normalised = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # communicate() wakes on the pipe's EOF at exit; a bare wait(timeout)
        # would poll in steps of up to 50 ms
        with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
            try:
                out, _ = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        wall = time.perf_counter() - t0
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
        kernel = json.loads(out)
        raw.append(wall - sum(kernel))
        normalised.append(raw[-1] * REFERENCE_MS / (1e3 * statistics.median(kernel)))
    return statistics.median(normalised), raw


# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup):
    times_ms = [t * 1e3 for t in run.normalised_times()]
    return {
        "ops_per_s": metric(run.attempted / sum(times_ms) * 1e3, "1/s"),
        "op_p50_ms": metric(statistics.median(times_ms), "ms"),
        "op_p90_ms": metric(statistics.quantiles(times_ms, n=10)[8], "ms"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# spans reported as self time per call (ms or us) and as calls per op
PER_CALL_MS = [
    "sampling.gsp6_element",
    "sampling.go_element",
    "preservers.sample_group_element",
    "preservers.sample_free_element",
    "preservers.sample_violator",
    "preservers.scales_form",
    "preservers.preserves_form.symbolic",
    "preservers.preserves_form.sz",
    "preservers.preserves_minimals",
    "preservers.apply",
    "preservers.constraint_satisfied",
    "forms.eval_entries",
    "multilinear.lambda_power_matrix",
]
PER_CALL_US = [
    "forms.int_eval",
    "forms.evaluate",
    "polynomials.mul",
    "linalg.det",
    "linalg.rank",
    "linalg.matmul",
    "multilinear.wedge_of_vectors",
    "minimality.minimal_by_rank",
]
CALL_COUNTS = [
    "sampling.solve_power",
    "forms.int_eval",
    "forms.evaluate",
    "polynomials.mul",
    "linalg.det",
    "linalg.rank",
    "linalg.matmul",
    "multilinear.lambda_power_matrix",
]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    from tracing import BASE_LINES, FAMILIES, LAYERS

    names = [(n + ".ms", "ms") for n in PER_CALL_MS]
    names += [("preservers.matrix_on_space.%s.ms" % f, "ms") for f in FAMILIES]
    names += [("minimality.sample_minimal.%s.ms" % line, "ms") for line in BASE_LINES]
    names += [(n + ".us", "us") for n in PER_CALL_US]
    names += [(n + ".calls", "calls/op") for n in CALL_COUNTS]
    names += [
        ("sampling.solve_power.none_ratio", "ratio"),
        ("preservers.preserves_form.sz.trials", "trials/op"),
    ]
    for layer in LAYERS + ("unspanned",):
        names += [("layer.%s.self_ms_per_op" % layer, "ms/op"), ("layer.%s.self_share" % layer, "%")]
    names += [
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.overhead", "ratio"),
    ]
    return names


def per_layer(tracer, traced, untraced):
    agg, top = tracer.self_times()
    ops = traced.attempted
    op_time = sum(traced.times)
    host = sum(traced.normalised_times()) / op_time  # one factor for the traced run's spans
    values = {}

    def per_call(name, scale):
        calls, self_s = agg.get(name, (0, 0.0))
        return self_s * host / calls * scale if calls else 0.0

    for name, unit in per_layer_names():
        stem, _, suffix = name.rpartition(".")
        if suffix in ("ms", "us"):
            values[name] = per_call(stem, 1e3 if suffix == "ms" else 1e6)
        elif suffix == "calls":
            values[name] = agg.get(stem, (0, 0.0))[0] / ops
    calls = agg.get("sampling.solve_power", (0, 0.0))[0]
    values["sampling.solve_power.none_ratio"] = tracer.counts.get("sampling.solve_power.none", 0) / calls if calls else 0.0
    values["preservers.preserves_form.sz.trials"] = tracer.counts.get("preservers.preserves_form.sz.trials", 0) / ops
    layer_s = {}
    for name, (_, self_s) in agg.items():
        layer = name.split(".", 1)[0]
        layer_s[layer] = layer_s.get(layer, 0.0) + self_s
    layer_s["unspanned"] = op_time - top
    for layer, self_s in layer_s.items():
        values["layer.%s.self_ms_per_op" % layer] = self_s * host / ops * 1e3
        values["layer.%s.self_share" % layer] = 100 * self_s / op_time
    traced_s, untraced_s = sum(traced.normalised_times()), sum(untraced.normalised_times())
    values["trace.traced_ops_per_s"] = ops / traced_s
    values["trace.untraced_ops_per_s"] = untraced.attempted / untraced_s
    values["trace.overhead"] = traced_s / untraced_s
    return {name: metric(values.get(name, 0.0), unit) for name, unit in per_layer_names()}


# entry points


def setup_probe(name):
    import workloads

    kernel = []
    workloads.build(name).warm_up(after_op=lambda: kernel.append(time_kernel()))
    print(json.dumps(kernel))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    wall0, cpu0 = time.perf_counter(), time.process_time()
    before = stamp()
    setup = setup_samples = None
    if not args.trace:
        setup, setup_samples = setup_seconds(args.workload)
    workload = workloads.build(args.workload)
    workload.warm_up()

    if args.trace:
        from tracing import Tracer

        with Tracer() as tracer:
            run = run_loop(workload, args.seed, seconds=args.seconds * TRACED_SHARE, tracer=tracer)
        replay = run_loop(workload, args.seed, rounds=run.rounds)
        metrics = per_layer(tracer, run, replay)
        runs = [run, replay]
        beyond_p90 = None
    else:
        run = run_loop(workload, args.seed, seconds=args.seconds)
        metrics = end_to_end(run, setup)
        runs = [run]
        p90 = metrics["op_p90_ms"]["value"] / 1e3
        beyond_p90 = sum(t > p90 for t in run.normalised_times())

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    # spans must not change what the library computes
    same_digests = all((r.inputs, r.verdicts) == (run.inputs, run.verdicts) for r in runs)
    after = stamp()
    hosts = run.host_factors()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 process",
        "ops": run.attempted,
        "ops_beyond_p90": beyond_p90,
        "rounds": run.rounds,
        "ops_per_round": workload.round_len,
        "error_rate": failed / attempted,
        "errors": [e for r in runs for e in r.errors],
        "inputs_digest": run.inputs,
        "verdicts_digest": run.verdicts,
        "digests_match": same_digests,
        "digest_ops": workload.round_len,
        "setup_raw_s": setup_samples,
        "raw_ops_per_s": run.attempted / sum(run.times),
        "raw_op_p50_ms": statistics.median(run.times) * 1e3,
        "raw_op_p90_ms": statistics.quantiles(run.times, n=10)[8] * 1e3,
        "host_factor": {"median": statistics.median(hosts), "min": min(hosts), "max": max(hosts)},
        "kernel_runs": len(run.kernel),
        "machine": machine(),
        "stamp_start": before,
        "stamp_end": after,
        "timed_wall_s": run.elapsed,
        "timed_cpu_s": run.cpu,
        "process_wall_s": time.perf_counter() - wall0,
        "process_cpu_s": time.process_time() - cpu0,
    }
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, "spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        tracer.write(spans_path)
        meta["spans"] = os.path.relpath(spans_path, ROOT)
    result = {"correct": failed == 0 and same_digests, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
