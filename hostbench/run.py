"""Host-performance benchmark of the MorLog simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload tx_heavy --seed 1 --seconds 20 --trace 0

One workload runs per invocation, in this fresh interpreter, on one host
thread.  The run makes one warm-up pass (it fills the simulator's
process-wide memo caches and is not measured), then repeats identical
passes while the next one is expected to end within ``--seconds``, and
prints one JSON object as the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced passes, built
from each unit of work's and each transaction's median over passes and
timed in reference-host seconds between calibration chunks (see
``calibrate.py``).
``--trace 1`` spends half the time on untraced passes and half on
traced passes, and reports the per-layer metrics, including
``trace.overhead`` (median traced over median untraced pass, minus 1).
Every output check is one attempted operation; a failed check, or a
pass that raises, is one failed operation.  The line before the result
(prefixed ``hostbench:``) carries the simulated-result digest, the error
rate, host metadata and the workload's extra figures.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from calibrate import PassTimer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch files (result caches, trace files, spans) stay in the checkout.
OUT_DIR = os.path.join(ROOT, ".hostbench_out")
MIN_PASSES = 3


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)), 1) - 1]


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def host_metadata():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class Run:
    """Passes of one workload, their checks and their measurements."""

    def __init__(self, workload, probe):
        self.workload = workload
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reference = None
        self.passes = []
        self.untraced = []
        self.traced = []
        self.recorder = None

    @property
    def error_rate(self):
        return self.failed / self.attempted

    def one_pass(self, recorder=None, op=0):
        """Run one pass; returns its record, or None if it raised."""
        gc.collect()
        self.probe.start_pass(keep_modules=recorder is not None)
        timer = PassTimer(self.probe, recorder)
        try:
            started = time.perf_counter()
            if recorder is None:
                outcome = self.workload.run_pass(timer)
            else:
                with recorder.operation(op):
                    outcome = self.workload.run_pass(timer)
            seconds = time.perf_counter() - started
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.failures.append("pass raised")
            traceback.print_exc(file=sys.stderr)
            return None
        counts = self.probe.counts()
        tx_seconds = timer.tx_seconds
        record = {
            "wall_s": timer.wall_s,
            "raw_s": timer.raw_s,
            "pass_s": seconds,
            # The pass without its calibration chunks: what spans cover.
            "span_s": seconds - timer.calibration_s,
            "unit_s": timer.unit_s,
            "unit_setup_s": timer.unit_setup_s,
            "transactions": len(tx_seconds),
            "tx_seconds": tx_seconds,
            "tx_us_p99": percentile(tx_seconds, 0.99) * 1e6,
            "counts": counts,
            "extras": outcome.extras,
            "digest": digest({"results": outcome.results, "counts": counts}),
        }
        if recorder is not None:
            record["memo_hit_ratio"] = self.probe.memo_hit_ratio()
        if self.reference is None:
            self.reference = record["digest"]
        checks = list(outcome.checks)
        checks.append((
            "traced pass digest equals untraced" if recorder is not None
            else "pass digest repeats", record["digest"] == self.reference))
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)
        self.passes.append(record)
        return record

    def repeat(self, seconds, min_passes, recorder=None):
        """Timed passes while the next one is expected to end within
        ``seconds`` (and at least ``min_passes``)."""
        records = []
        started = time.perf_counter()
        while len(records) < min_passes or (
            time.perf_counter() - started
            + statistics.median(r["pass_s"] for r in records) <= seconds
        ):
            record = self.one_pass(recorder, op=len(records))
            if record is None:
                break
            records.append(record)
        return records


def measure(workload, seconds, trace):
    """Warm up, then run untraced (and with ``trace``, traced) passes.

    Every attribute the probes replace is restored before returning.
    """
    from instrument import HostProbe, Patcher, SpanRecorder

    patcher = Patcher()
    run = Run(workload, HostProbe())
    try:
        run.probe.install(patcher)
        if run.one_pass() is None:
            return run
        budget = seconds / 2 if trace else seconds
        run.untraced = run.repeat(budget, 1 if trace else MIN_PASSES)
        if trace and run.untraced:
            run.recorder = SpanRecorder()
            run.recorder.install(patcher)
            run.traced = run.repeat(budget, 1, run.recorder)
    finally:
        patcher.restore()
    return run


def end_to_end(run):
    """Timings in reference-host seconds (see :mod:`calibrate`).

    Passes repeat identical units of work and identical transactions,
    so each unit and each transaction is first taken as its median over
    the untraced passes: a burst of contention, or a full garbage
    collection, that lands in one unit of one pass does not move the
    figures.  ``wall_s`` and ``setup_s`` add up the units' medians;
    ``sim_stores_per_s`` and ``tx_host_us_p50`` use the transactions'.
    """
    records = run.untraced

    def medians(key):
        return [statistics.median(column)
                for column in zip(*(r[key] for r in records))]

    tx_seconds = medians("tx_seconds")
    stores = records[0]["counts"]["core.stores"]
    return {
        "wall_s": (sum(medians("unit_s")), "s"),
        "setup_s": (sum(medians("unit_setup_s")), "s"),
        "sim_stores_per_s": (stores / sum(tx_seconds), "1/s"),
        "tx_host_us_p50": (percentile(tx_seconds, 0.50) * 1e6, "us"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(run):
    from layers import LAYERS, ROOT_LAYER

    traced, recorder = run.traced, run.recorder
    passes = len(traced)
    wall = sum(r["span_s"] for r in traced)
    metrics = {}
    for layer in list(LAYERS) + [ROOT_LAYER]:
        metrics["%s.self_s" % layer] = (recorder.self_s[layer] / passes, "s")
        metrics["%s.calls" % layer] = (recorder.calls[layer] / passes, "count")
        metrics["%s.self_frac" % layer] = (
            recorder.self_s[layer] / wall, "ratio")
    last = traced[-1]
    metrics["encoding.memo_hit_ratio"] = (last["memo_hit_ratio"], "ratio")
    for name in ("experiments.cache_hits", "faultinject.crash_points",
                 "traffic.dropped"):
        metrics[name] = (last["extras"].get(name, 0), "count")
    metrics["experiments.warm_s"] = (statistics.median(
        r["extras"].get("experiments.warm_s", 0.0) for r in traced), "s")
    for name, value in last["counts"].items():
        metrics[name] = (value, "count")
    metrics["trace.overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in run.untraced) - 1.0, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("hostbench: simulator sources not found under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    run = measure(workload, args.seconds, bool(args.trace))
    if not run.untraced or (args.trace and not run.traced):
        print("hostbench: no pass completed (%s)" % ", ".join(run.failures),
              file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(run)
        run.recorder.write(os.path.join(
            OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed)))
    else:
        metrics = end_to_end(run)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": run.reference,
        "error_rate": run.error_rate,
        "failures": sorted(set(run.failures)),
        "pass_wall_s": [round(r["wall_s"], 4) for r in run.passes],
        "pass_raw_s": [round(r["raw_s"], 4) for r in run.passes],
        "tx_per_pass": run.untraced[-1]["transactions"],
        "tx_host_us_p99": statistics.median(
            r["tx_us_p99"] for r in run.untraced),
        "extras": run.untraced[-1]["extras"],
        "counts": run.untraced[-1]["counts"],
        "host": host_metadata(),
    }
    if args.workload == "crash_sweep":
        info["crash_points_per_s"] = statistics.median(
            r["extras"]["faultinject.crash_points"] / r["wall_s"]
            for r in run.untraced)
    print("hostbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
