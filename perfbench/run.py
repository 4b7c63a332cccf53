"""Benchmark of the tqft2d exact evaluator, end to end and layer by layer.

    python3 perfbench/run.py --workload fuzz-pairs --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` and the
fixtures are read from ``fixtures/``.  Each workload is one single-threaded
closed loop: an op starts when the previous one has finished.  The timed phase
runs whole passes over the workload's items until at least ``--seconds`` have
passed and at least MIN_OPS ops have run.  With ``--trace 1`` the run instead
times one untraced pass, then builds the workload again and runs one pass with
every layer traced, and reports the per-layer metrics.  The last line of
standard output is the result as one JSON object; the line before it gives the
context the numbers were measured in.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import numpy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919      # kept back for confirming claims; never tune on it
MIN_OPS = 200             # so that at least 10 ops lie beyond the p95
SETUP_PROBES = 9          # set-up is the noisiest metric: median of nine
Z_95 = 1.6448536269514722  # one-sided 95% normal quantile

# The host's speed drifts by up to a factor of two over minutes and by a
# third within seconds, more than the bounds allow, so times are reported at
# nominal speed.  A fixed piece of work, ref_loop(), is timed every
# GAUGE_EVERY_S, during ops as well as between them; its time over REF_S, its
# median on the machine the bounds were set on, is the slowdown at that
# moment.  Each op's latency is scaled by the samples taken while it ran and
# around it (see nominal()), and each set-up probe by the slowdown gauged
# around it.  The raw values go into the context line.
REF_S = 5.0e-3
GAUGE_EVERY_S = 0.1       # gauge sample interval in the timed phase
GAUGE_NEAR = 3            # samples on each side of an op that also scale it
GAUGE_SAMPLES = 5         # gauge samples on each side of a set-up probe

# per-layer metrics each workload must drive; a zero here means a binding
# the tracer no longer reaches
DRIVEN = {
    "fuzz-pairs": [
        "tensor.tensordot.calls", "tensor.tensordot.madds",
        "tensor.tensordot.outer_entries", "tensor.equal.calls",
        "tensor.invert_matrix.calls", "frobenius.comultiplication.calls",
        "frobenius.comultiplication.per_evaluate", "bordism.evaluate.calls",
        "bordism.evaluate.self_s", "bordism.topological_type.self_s",
        "bordism.random_equivalent_pair.self_s"],
    "labeled-roundtrip": [
        "tensor.tensordot.calls", "tensor.tensordot.madds",
        "tensor.tensordot.outer_entries", "tensor.equal.calls",
        "crossed.evaluate_labeled.calls", "crossed.evaluate_labeled.self_s",
        "crossed.tft_to_bundle.self_s",
        "crossed.enumerate_labeled_words.self_s"],
    "structure-checks": [
        "frobenius.validate.self_s", "frobenius.closed_invariant.self_s",
        "frobenius.parse_algebra.self_s", "bordism.parse_word.self_s",
        "bordism.topological_type.self_s", "bordism.evaluate.calls",
        "crossed.validate_bundle.self_s", "crossed.frobenius_action.self_s",
        "crossed.nfold_fission_check.self_s", "crossed.parse_bundle.self_s",
        "crossed.holonomy.self_s", "gerbe.gerbe_holonomy.self_s",
        "gerbe.check_cocycle.self_s", "groups.parse_group.self_s",
        "cli.run.calls", "cli.run.self_s"],
}

NOTE = ("the seed orders each pass; compare numbers at the same seed, "
        "and confirm claims on the held-out seed")


def import_tqft2d():
    """The package under src/ of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tqft2d
    if Path(tqft2d.__file__).resolve().parent != (src / "tqft2d").resolve():
        raise ImportError("tqft2d resolved to %s, not %s"
                          % (tqft2d.__file__, src / "tqft2d"))
    return tqft2d


def load_golden():
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def build(workload, seed):
    return workloads.BUILDERS[workload](sys.modules["tqft2d"], seed,
                                        load_golden()[workload])


def ref_loop():
    """Seconds for a fixed piece of work, a gauge of the machine's speed.

    An integer loop, then products of small Fraction matrices in numpy object
    arrays: the kind of arithmetic the program does, without calling it, so
    that a change to the program cannot move the gauge.
    """
    t0 = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    a = numpy.array([[Fraction(i + 1, j + 2) for j in range(6)]
                     for i in range(6)], dtype=object)
    m = a
    for _ in range(3):
        m = numpy.tensordot(m, a, axes=1)
        m = numpy.array([[Fraction(x.numerator % 97, x.denominator % 89 + 1)
                          for x in row] for row in m], dtype=object)
    return perf_counter() - t0


def slowdown(gauge):
    """How much slower than nominal the machine ran: 2.0 means half speed."""
    return statistics.median(gauge) / REF_S


def measure_setup(workload, seed, probes):
    """Seconds from process start to first timed op, one per fresh process,
    each scaled by the slowdown gauged just before and just after it."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(probes):
        gauge = [ref_loop() for _ in range(GAUGE_SAMPLES)]
        t0 = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe exited with %s" % proc.returncode)
        gauge += [ref_loop() for _ in range(GAUGE_SAMPLES)]
        times.append((t1 - t0, slowdown(gauge)))
    return times


class Gauge:
    """ref_loop() samples every GAUGE_EVERY_S of the timed phase.

    A one-shot timer signal fires each sample, so a long op is gauged while
    it runs and not only before and after it.  Every sample's start, end and
    ref_loop() time are kept; nominal() takes the sampling back out.
    """

    def __init__(self):
        self.starts, self.ends, self.times = array("d"), array("d"), array("d")
        self.spent = 0.0            # seconds spent sampling so far

    def take(self):
        t0 = perf_counter()
        self.times.append(ref_loop())
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.spent += t1 - t0

    def _tick(self, *_):
        self.take()
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S)

    def __enter__(self):
        for _ in range(GAUGE_NEAR - 1):
            self.take()
        self.old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old)
        for _ in range(GAUGE_NEAR):
            self.take()


@dataclass
class Timed:
    """What run_passes saw: one latency per op and the first output per item."""

    latencies: array                # seconds, gauge samples inside included
    op_starts: array
    op_items: array                 # the item each latency belongs to
    seconds: float                  # timed phase, gauge samples left out
    passes: int
    outputs: dict
    failed: set                     # items whose op raised or compared unequal
    gauge: Gauge = None
    first_error: str = None


def run_passes(wl, seconds, tracer=None, gauge=None):
    """Whole passes until `seconds` have passed and MIN_OPS ops have run.

    The time of the gauge's samples, if one runs, is left out of `seconds`.
    """
    timed = Timed(array("d"), array("d"), array("l"), 0.0, 0, {}, set(), gauge)
    latencies, outputs = timed.latencies, timed.outputs
    start = perf_counter()
    while timed.seconds < seconds or len(latencies) < MIN_OPS:
        for i in wl.order:
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = perf_counter()
            try:
                passed, out = wl.op(wl.items[i])
            except Exception:  # an op error is counted, the run goes on
                passed, out = False, None
                timed.first_error = timed.first_error or traceback.format_exc()
            latencies.append(perf_counter() - t0)
            timed.op_starts.append(t0)
            timed.op_items.append(i)
            if not passed:
                timed.failed.add(i)
            if out is not None and i not in outputs:
                outputs[i] = out
        timed.passes += 1
        timed.seconds = perf_counter() - start - (gauge.spent if gauge else 0.0)
    return timed


def nominal(timed):
    """Each op's latency with the gauge's samples taken out, raw and at
    nominal speed.

    The nominal latency is the raw one divided by the median slowdown of the
    samples taken while the op ran and the GAUGE_NEAR before and after it.
    Samples are placed by their start time, so a sample that fired between
    two reads of the clock is never counted twice or missed.
    """
    g = timed.gauge
    spent = list(accumulate((e - s for s, e in zip(g.starts, g.ends)),
                            initial=0.0))
    raw, scaled = [], []
    for t0, t in zip(timed.op_starts, timed.latencies):
        a, b = bisect_left(g.starts, t0), bisect_left(g.starts, t0 + t)
        t -= spent[b] - spent[a]
        raw.append(t)
        scaled.append(t / slowdown(g.times[a - GAUGE_NEAR:b + GAUGE_NEAR]))
    return raw, scaled


def item_latencies(timed, latencies):
    """Each item's median latency over the run's passes.

    An item is the same call in every pass, so its median keeps what the call
    costs and drops the host's one-off stalls.  The latency quantiles are
    taken over these, one value per item: with a single pass they are the
    plain op latencies.
    """
    per_item = {}
    for i, t in zip(timed.op_items, latencies):
        per_item.setdefault(i, []).append(t)
    return [statistics.median(ts) for ts in per_item.values()]


def hd_quantile(values, p, steps=32):
    """The p-quantile of `values` by the Harrell-Davis estimator.

    A weighted mean of all order statistics, weighted by the Beta((n+1)p,
    (n+1)(1-p)) distribution; each weight is integrated by the midpoint rule
    over `steps` points.  Where a plain quantile reads one or two values, a
    few dozen of them share the weight, so the noise of single ops averages
    out: on fuzz-pairs, whose p95 falls among a few 0.5 s ops, it cut the
    run-to-run spread of the p95 from 0.08 to 0.05.
    """
    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = (numpy.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
    w = numpy.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ x / w.sum())


def wilson_upper(failed, n):
    """Upper end of the one-sided 95% Wilson interval of failed / n."""
    p, z2 = failed / n, Z_95 * Z_95
    centre = p + z2 / (2 * n)
    margin = Z_95 * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (centre + margin) / (1 + z2 / n)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def context(args, wl, timed, raw):
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "timed_s": timed.seconds,
        "passes": timed.passes, "ops": len(timed.latencies),
        "items_per_pass": len(wl.order),
        "slowdown": slowdown(timed.gauge.times) if timed.gauge else None,
        "raw": raw,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(),
        "src_sha256": src_digest(), "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "note": NOTE,
    }


def untraced_run(args):
    # set-up probes on both sides of the timed phase, so that their median
    # does not hang on one stretch of the machine's speed
    setups = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
    wl = build(args.workload, args.seed)
    with Gauge() as gauge:
        timed = run_passes(wl, args.seconds, gauge=gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups += measure_setup(args.workload, args.seed,
                            SETUP_PROBES - SETUP_PROBES // 2)
    bad = timed.failed | wl.check(timed.outputs)
    latencies, scaled = nominal(timed)
    # the timed phase at nominal speed: its ops' share of it scaled as they were
    nominal_s = timed.seconds * math.fsum(scaled) / math.fsum(latencies)

    def percentiles(latencies):
        per_item = item_latencies(timed, latencies)
        return hd_quantile(per_item, 0.5) * 1e3, hd_quantile(per_item, 0.95) * 1e3

    p50, p95 = percentiles(latencies)
    raw = {"ops_per_s": len(timed.latencies) / timed.seconds,
           "op_p50_ms": p50, "op_p95_ms": p95,
           "setup_s": statistics.median(t for t, _ in setups)}
    p50, p95 = percentiles(scaled)
    metrics = {
        "ops_per_s": (len(timed.latencies) / nominal_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p95_ms": (p95, "ms"),
        "setup_s": (statistics.median(t / f for t, f in setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "error_rate": (wilson_upper(len(bad), len(wl.items)), "fraction"),
    }
    return wl, timed, bad, raw, metrics


def traced_run(args):
    import tracer as tracing
    build(args.workload, args.seed)  # warm-up: first-call imports and caches
    t0 = perf_counter()
    run_passes(build(args.workload, args.seed), 0)
    untraced = perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        wl = build(args.workload, args.seed)
        timed = run_passes(wl, 0, tracer)
        traced = perf_counter() - t0
    finally:
        tracer.uninstall()
    bad = timed.failed | wl.check(timed.outputs)
    values = tracer.metrics(traced - untraced)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / ("spans-%s-seed%d.tsv" % (args.workload, args.seed)))
    silent = [m for m in DRIVEN[args.workload] if not values[m]]
    if silent:
        raise SystemExit("tracer self-check: %s read zero on %s; a traced "
                         "function is no longer reached through its binding"
                         % (", ".join(silent), args.workload))
    units = dict(tracing.metric_names())
    metrics = {name: (value, units[name]) for name, value in values.items()}
    return wl, timed, bad, {}, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        import_tqft2d()
        load_golden()
    except (ImportError, OSError) as exc:
        print("perfbench: cannot load the program or its golden data: %s" % exc,
              file=sys.stderr)
        return 2

    if args.setup_probe:
        build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    run = traced_run if args.trace else untraced_run
    wl, timed, bad, raw, metrics = run(args)
    if timed.first_error:
        print("first op error:\n" + timed.first_error, file=sys.stderr)
    # an item that failed once fails in every pass: all its ops count
    failed_ops = timed.passes * len(bad)
    result = {
        "correct": failed_ops == 0,
        "attempted": len(timed.latencies),
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    ctx = context(args, wl, timed, raw)
    OUT.mkdir(exist_ok=True)
    with open(OUT / ("result-%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace)), "w",
              encoding="utf-8") as fh:
        json.dump({"context": ctx, "result": result}, fh, indent=1)
    print("context: " + json.dumps(ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
