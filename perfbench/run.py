"""End-to-end and per-layer benchmark of skewmm's det, mc and CLI paths.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload det-sparse --seed 1 --seconds 20 --trace 0

Workloads: det-sparse, det-wide, mc-doubling, cli-rational (see workloads.py).
Each invocation runs one workload in its own process, as a closed loop with
one client on one thread, and builds skewmm from the checkout's `src`.

--trace 0 sets up SETUP_REPEATS times (setup_s is the median), then times
whole cycles of products for as many as fit in --seconds, and prints the
end-to-end metrics. --trace 1 sets up once with spans recorded, then
alternates untraced and traced runs of the same cycles for --seconds, and
prints the per-layer metrics (per product; on cli-rational, per command
cycle) with the tracing overhead. Lines before the last start with '#' and
give the run conditions, the tail's percentile and sample count, and the
ungated det_over_naive ratio; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

PERFBENCH_DIR = Path(__file__).resolve().parent
ROOT = PERFBENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = PERFBENCH_DIR / "out"
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.001
SAMPLE_PERIOD_S = 0.05
PAD_S = 0.1
MIN_INSIDE = 4
PROBE_RUNS = 5
WORKLOADS = ("det-sparse", "det-wide", "mc-doubling", "cli-rational")
#: product spans whose direct children show which stage sets the product time
ENTRY_SPANS = ("matmul.det_mul", "matmul.mc_mul", "cli.cmd_mul", "cli.cmd_verify",
               "cli.cmd_analyze")


_REF_P = 13
_REF_A = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(_REF_P - 1)]
_REF_B = [Fraction(k % 7 - 3, k % 4 + 1) for k in range(_REF_P - 1)]


def reference_seconds():
    """One run of a fixed pure-Python loop: x * b * b in Q(zeta_13), x = _REF_A.

    Elements are coefficient lists of Fractions, reduced mod the 13th
    cyclotomic polynomial: the kind of arithmetic skewmm's products spend
    their time in, written independently of skewmm so that no change to it
    moves the loop. Of the loops tried, this one's time follows the host's
    speed most closely as the det, mc and naive products feel it.
    """
    start = time.perf_counter()
    x = _REF_A
    for _ in range(2):
        prod = [0] * (2 * _REF_P - 3)
        for i, u in enumerate(x):
            for j, v in enumerate(_REF_B):
                prod[i + j] += u * v
        for k in range(len(prod) - 1, _REF_P - 2, -1):
            for j in range(k - _REF_P + 1, k):
                prod[j] -= prod[k]
        x = prod[:_REF_P - 1]
    return time.perf_counter() - start


class Sampler:
    """Tracks the host's speed with the reference loop, run on a timer.

    The speed a shared host gives one process flips between spells lasting
    seconds (the loop runs up to 2x faster in a fast spell), so a product
    lasting seconds can span several spells. A SIGALRM handler runs the loop
    every SAMPLE_PERIOD_S, also in the middle of a product, and every timing
    is multiplied by REF_NOMINAL_S over the loop time of the samples near
    it: its time on a host where the loop takes REF_NOMINAL_S.

    `clock` stops while the handler runs, so timings exclude the loop.
    While a CLI command's child process runs, samples taken in this process
    follow the child's speed only loosely (in trials they spread CLI timings
    up to 0.23), so `child` stops the timer and `probe` samples right before
    and after the command instead.
    """

    def __init__(self):
        self.samples = []  # (clock() at the sample, loop seconds)
        self.paused = 0.0
        self._inside = False

    def clock(self):
        """perf_counter minus the time spent in the handler."""
        return time.perf_counter() - self.paused

    def _sample(self, _signum, _frame):
        if self._inside:  # a late tick while a slow sample still runs
            return
        self._inside = True
        begin = time.perf_counter()
        self.samples.append((begin - self.paused, reference_seconds()))
        self.paused += time.perf_counter() - begin
        self._inside = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self):
        """PROBE_RUNS samples now, outside any timing."""
        for _ in range(PROBE_RUNS):
            self._sample(None, None)

    @contextlib.contextmanager
    def child(self):
        """No samples while a child process does the timed work."""
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
            self.probe()

    def scale(self, start=None, end=None):
        """The factor for a timing made in [start, end]; the run's without them.

        A timing holding MIN_INSIDE samples or more integrates the host's
        speed over several spells, so it takes the mean of its own samples,
        a tenth trimmed at each end against samples that were themselves
        interrupted. A shorter one, or a CLI command (sampled only at its
        ends), falls within one spell, and the median of the samples within
        PAD_S of it picks that spell.
        """
        if start is None:
            return REF_NOMINAL_S / _trimmed_mean([sec for _, sec in self.samples])
        inside = [sec for at, sec in self.samples if start <= at <= end]
        if len(inside) >= MIN_INSIDE:
            return REF_NOMINAL_S / _trimmed_mean(inside)
        near = [sec for at, sec in self.samples if start - PAD_S <= at <= end + PAD_S]
        return REF_NOMINAL_S / statistics.median(near or [sec for _, sec in self.samples])


def _trimmed_mean(values):
    values = sorted(values)
    cut = len(values) // 10
    return statistics.mean(values[cut:len(values) - cut])


def calibration_ms(runs=50):
    """Median of a few reference loop runs, for the before/after record."""
    return statistics.median(reference_seconds() for _ in range(runs)) * 1000.0


def _median(values):
    """The median; 0 when every product failed before this step (the run then
    reports correct: false)."""
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile, samples beyond): the highest nearest-rank percentile
    with at least ten samples beyond it, or the median when that rank would
    fall below the median."""
    xs = sorted(values)
    n = len(xs)
    rank = n - 11  # 0-based rank that leaves ten samples above it
    if rank + 1 <= n / 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _another_fits(start, done, seconds):
    """Whether one more unit of work, at the mean pace so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_cycles(workload, seconds):
    """At least one pass over the input pool, and more while they fit.

    Runs are whole passes (every cycle of the pool once), so every run has
    the same mix of sparsities and inputs, and its medians do not shift with
    where the time ran out.
    """
    records = []
    cycles = 0
    start = time.perf_counter()
    while True:
        for _ in workload.pool:
            records.extend(workload.cycle(cycles))
            cycles += 1
        if not _another_fits(start, cycles // len(workload.pool), seconds):
            return records


STEPS = ("mul_s", "naive_s", "verify_s", "analyze_s")


def _scaled_s(record, step, sampler):
    """One timed step of a record, scaled by the samples near it."""
    sec = getattr(record, step)
    start = record.at[step]
    return sec * sampler.scale(start, start + sec)


def _scaled_busy_s(records, sampler):
    """Scaled time spent in the products and their checks, reference loop excluded."""
    return sum(_scaled_s(r, step, sampler)
               for r in records for step in STEPS if getattr(r, step) is not None)


def _ratio(num, den):
    return num / den if den else 0.0


def _values(records, field):
    return [getattr(r, field) for r in records if getattr(r, field) is not None]


def _scaled_ms(records, step, sampler):
    return [_scaled_s(r, step, sampler) * 1000.0
            for r in records if getattr(r, step) is not None]


def end_to_end(workload, seconds, name, sampler):
    setups = []
    records = []
    for _ in range(SETUP_REPEATS):
        start = sampler.clock()
        records.append(workload.setup())
        end = sampler.clock()
        setups.append((end - start, start, end))
    timed = run_cycles(workload, seconds)
    mul = _scaled_ms(timed, "mul_s", sampler)
    naive = _scaled_ms(timed, "naive_s", sampler)
    tail_value, percentile, beyond = tail(mul)
    metrics = {
        "setup_s": (statistics.median(sec * sampler.scale(a, b) for sec, a, b in setups), "s"),
        "products_per_s": (len(timed) / _scaled_busy_s(timed, sampler), "1/s"),
        "mul_ms_p50": (_median(mul), "ms"),
        "mul_ms_tail": (tail_value, "ms"),
        "naive_ms_p50": (_median(naive), "ms"),
        "peak_rss_mb": (peak_rss_mb(name == "cli-rational"), "MB"),
        "verify_ms_p50": (_median(_scaled_ms(timed, "verify_s", sampler)), "ms"),
        "analyze_ms_p50": (_median(_scaled_ms(timed, "analyze_s", sampler)), "ms"),
    }
    notes = [f"mul_ms_tail is p{percentile:.0f} of {len(mul)} samples ({beyond} beyond it)",
             f"unscaled: setup_s {[round(sec, 4) for sec, _, _ in setups]}, mul_ms_p50 "
             f"{_median([r.mul_s for r in timed]) * 1000.0:.3f}, naive_ms_p50 "
             f"{_median(_values(timed, 'naive_s')) * 1000.0:.3f}",
             f"det_over_naive (ungated): {_ratio(_median(mul), _median(naive)):.4f}"]
    return metrics, records + timed, notes


def _layer_names():
    from tracer import LAYERS
    return [f"{module}.{fn}" for module, functions in LAYERS.items() for fn in functions]


def per_layer(workload, seconds, name, sampler):
    from tracer import Tracer, install

    setup_tracer = Tracer()
    undo, absent = install(setup_tracer)
    try:
        records = [workload.setup(setup_tracer)]
    finally:
        undo()

    tracer = Tracer()
    plain = []
    traced = []
    cycles = 0
    start = time.perf_counter()
    while True:
        # alternate which side runs first, so drift and warm caches favour neither
        for with_trace in ((False, True) if cycles % 2 == 0 else (True, False)):
            if with_trace:
                undo, absent = install(tracer)
                try:
                    traced.extend(workload.cycle(cycles, tracer))
                finally:
                    undo()
            else:
                plain.extend(workload.cycle(cycles))
        cycles += 1
        if not _another_fits(start, cycles, seconds):
            break

    n = len(traced)
    ms = sampler.scale() / 1e6 / n  # scaled ms per product, from a total in ns
    metrics = {}
    for layer in _layer_names():
        calls, incl_ns, self_ns, _errors = tracer.stats.get(layer, (0, 0, 0, 0))
        metrics[f"{layer}.calls"] = (calls / n, "calls/product")
        metrics[f"{layer}.ms"] = (incl_ns * ms, "ms/product")
        metrics[f"{layer}.self_ms"] = (self_ns * ms, "ms/product")
    counts = tracer.counts
    rounds = sum(r.rounds for r in traced)
    overhead = (_ratio(_scaled_busy_s(traced, sampler), _scaled_busy_s(plain, sampler)) - 1.0) * 100.0
    extra = {
        "linalg.solve_square.dim_sum": (counts.get("linalg.solve_square.dim_sum", 0) / n,
                                        "count/product"),
        "skewpoly.sparse_interpolate.errors": (
            tracer.stats.get("skewpoly.sparse_interpolate", (0, 0, 0, 0))[3] / n, "count/product"),
        "matmul.mc_mul.rounds": (rounds / n, "count/product"),
        "matmul.mc_mul.useful_round_ratio": (n / rounds if rounds else 0.0, "ratio"),
        "multiply.rect_multiply.rational_mul_count": (
            counts.get("multiply.rect_multiply.rational_mul_count", 0) / n, "count/product"),
        "matrixfile.read_matrix_file.bytes": (
            counts.get("matrixfile.read_matrix_file.bytes", 0) / n, "bytes/product"),
        "matrixfile.write_matrix_file.bytes": (
            counts.get("matrixfile.write_matrix_file.bytes", 0) / n, "bytes/product"),
        "cyclotomic.shared_ctx.setup_ms": (
            setup_tracer.stats.get("cyclotomic.shared_ctx", (0, 0))[1] * ms * n, "ms"),
        "transform.phi_orientation.setup_ms": (
            setup_tracer.stats.get("transform.phi_orientation", (0, 0))[1] * ms * n, "ms"),
        "cli.startup.ms": (counts.get("cli.startup_ns", 0) * ms, "ms/product"),
        "trace.overhead_pct": (overhead, "%"),
        "det_over_naive": (_ratio(_median([r.mul_s for r in plain]),
                                  _median(_values(plain, "naive_s"))), "ratio"),
    }
    metrics.update(extra)

    notes = [f"traced {n} products, untraced {len(plain)}, same inputs: tracing overhead "
             f"{overhead:.2f}%"]
    if absent:
        notes.append(f"absent layers (reported as 0): {', '.join(absent)}")
    notes.extend(_breakdown(tracer, ms, name == "cli-rational"))
    _write_spans(tracer, name)
    return metrics, records + plain + traced, notes


def _breakdown(tracer, ms, is_cli):
    """Which stage sets each product's time: the direct children of the
    product spans, by inclusive time, and the top layers by self time."""
    spans = tracer.spans
    entry_ids = {s[0]: s[3] for s in spans if s[3] in ENTRY_SPANS}
    children = {}
    for span_id, parent, _req, name, start, end in spans:
        entry = entry_ids.get(parent)
        if entry is not None:
            key = (entry, name)
            children[key] = children.get(key, 0) + end - start
    lines = []
    for entry in ENTRY_SPANS:
        stats = tracer.stats.get(entry)
        if not stats or not stats[0]:
            continue
        total = stats[1]
        parts = sorted(((ns, name) for (e, name), ns in children.items() if e == entry),
                       reverse=True)
        shares = ", ".join(f"{name} {100.0 * ns / total:.1f}%" for ns, name in parts[:4])
        lines.append(f"{entry} {total * ms:.1f} ms/product; stages: {shares}; "
                     f"own code {100.0 * stats[2] / total:.1f}%")
    by_self = sorted(((v[2], k) for k, v in tracer.stats.items()), reverse=True)
    lines.append("top self time: " + ", ".join(
        f"{name} {ns * ms:.1f} ms/product" for ns, name in by_self[:5]))
    if is_cli:
        startup = tracer.counts.get("cli.startup_ns", 0)
        context = sum(tracer.stats.get(k, (0, 0))[1]
                      for k in ("cyclotomic.shared_ctx", "transform.phi_orientation"))
        io = sum(tracer.stats.get(k, (0, 0))[1]
                 for k in ("matrixfile.read_matrix_file", "matrixfile.write_matrix_file"))
        main = sum(tracer.stats.get(k, (0, 0))[1]
                   for k in ("cli.cmd_mul", "cli.cmd_verify", "cli.cmd_analyze"))
        whole = startup + main
        lines.append(
            f"per command cycle: start-up {startup * ms:.1f} ms, context+probe "
            f"{context * ms:.1f} ms, file I/O {io * ms:.1f} ms, other work "
            f"{(main - context - io) * ms:.1f} ms; start-up+context+I/O = "
            f"{100.0 * (startup + context + io) / whole:.1f}% of process time")
    return lines


def _write_spans(tracer, name):
    """Spans stay in memory during the run and are written once at the end."""
    path = OUT_DIR / f"{name}.spans.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "skewmm" / "__init__.py").is_file():
        print(f"perfbench: no skewmm sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import skewmm
    from skewmm.rational import Rat
    if Path(skewmm.__file__).resolve().parent != (SRC / "skewmm").resolve():
        print(f"perfbench: imported skewmm from {skewmm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import make_workload

    backend = type(Rat(0))
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": f"{backend.__module__}.{backend.__qualname__}",
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loop": "closed, 1 client, 1 thread",
        "calibration_ms_before": calibration_ms(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir, Sampler() as sampler:
        workload = make_workload(args.workload, args.seed, SRC, workdir, sampler)
        measure = per_layer if args.trace else end_to_end
        metrics, records, notes = measure(workload, args.seconds, args.workload, sampler)
    conditions["calibration_ms_after"] = calibration_ms()
    conditions["reference_runs"] = len(sampler.samples)
    conditions["time_scale"] = sampler.scale()

    failures = [r.error for r in records if r.error]
    print("# conditions " + json.dumps(conditions))
    for note in notes:
        print("# " + note)
    for error in failures[:10]:
        print("# FAILED: " + error)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
