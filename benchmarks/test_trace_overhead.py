"""Acceptance: disabled tracing costs <= 2 % wall time.

A ``TraceConfig(enabled=False)`` produces no trace ring, so nothing
subscribes to the system bus's ``trace-event`` topic and every emission
site reduces to one ``if topic:`` truth test on an empty subscriber list
— the same test a traceless system evaluates.  This benchmark pins that contract with an
interleaved min-of-N measurement (min is the standard noise filter for
wall-clock micro-benchmarks: every source of interference only ever adds
time).  For context it also reports the cost of *enabled* tracing, which
is allowed to be expensive.
"""

import os
import time

from benchmarks.bench_util import emit
from repro.analysis.report import format_table
from repro.bench import INFO, record
from repro.core.designs import make_system
from repro.trace import TraceConfig
from repro.workloads.base import WorkloadParams, make_workload

ROUNDS = 7
TRANSACTIONS = 200
THREADS = 2
#: The acceptance bar.  ``TRACE_OVERHEAD_MAX`` relaxes it for CI, where
#: shared-runner scheduling makes even paired-min wall-clock ratios
#: noisy; the 2 % bar applies to local runs (the default).
MAX_DISABLED_OVERHEAD = float(os.environ.get("TRACE_OVERHEAD_MAX", "0.02"))


def _run(trace):
    system = make_system("MorLog-SLDE", trace=trace)
    workload = make_workload(
        "hash", WorkloadParams(initial_items=64, key_space=128, seed=7)
    )
    start = time.perf_counter()
    result = system.run(workload, TRANSACTIONS, THREADS)
    elapsed = time.perf_counter() - start
    return elapsed, result


def test_disabled_tracing_overhead(benchmark):
    variants = {
        "traceless": None,
        "disabled": TraceConfig(enabled=False),
        "enabled": TraceConfig(enabled=True),
    }
    times = {name: [] for name in variants}
    stats = {}

    def measure():
        # One unrecorded warmup round charges module import and
        # allocator growth to nobody.
        for trace in variants.values():
            _run(trace)
        # Interleave variants so drift (thermal, scheduler) hits all
        # of them equally instead of biasing whichever ran last.
        for _ in range(ROUNDS):
            for name, trace in variants.items():
                elapsed, result = _run(trace)
                times[name].append(elapsed)
                stats[name] = result.stats
        return {name: min(samples) for name, samples in times.items()}

    best = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Judge each variant by its best *paired* round: rounds interleave
    # the variants back to back, so taking the minimum per-round ratio
    # cancels interference that a ratio of global minima cannot (one
    # lucky scheduler slot for the baseline would fail the build).
    def paired_overhead(name):
        return min(
            t / base - 1.0
            for t, base in zip(times[name], times["traceless"])
        )

    overhead = paired_overhead("disabled")
    enabled_overhead = paired_overhead("enabled")

    emit(
        "trace_overhead",
        format_table(
            ["variant", "best of %d (s)" % ROUNDS, "overhead (%)"],
            [
                ["traceless", best["traceless"], 0.0],
                ["disabled", best["disabled"], 100.0 * overhead],
                ["enabled", best["enabled"], 100.0 * enabled_overhead],
            ],
            "Tracing overhead (best paired round of %d), "
            "MorLog-SLDE hash x%d tx" % (ROUNDS, TRANSACTIONS),
            float_format="%.4f",
        ),
        records=[
            record(
                "trace_overhead",
                "disabled_overhead_percent",
                100.0 * overhead,
                unit="percent",
                direction=INFO,  # wall clock: host-dependent, never gates
            ),
            record(
                "trace_overhead",
                "enabled_overhead_percent",
                100.0 * enabled_overhead,
                unit="percent",
                direction=INFO,
            ),
        ],
    )

    # Observation must also be inert here, not just cheap.
    assert stats["disabled"] == stats["traceless"]
    assert stats["enabled"] == stats["traceless"]
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        "disabled tracing costs %.2f%% (budget %.0f%%)"
        % (100.0 * overhead, 100.0 * MAX_DISABLED_OVERHEAD)
    )
