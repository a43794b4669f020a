"""Stable metrics snapshots: counters + histograms as one plain dict.

``metrics_snapshot`` flattens a run's outcome — the StatGroup counters,
derived headline metrics, the trace-bus accounting and (when a trace is
present) a transaction-duration histogram — into a single JSON-safe dict
with *canonical key order*, so snapshots diff cleanly across runs and
can be hashed, cached, or asserted on by the benchmark harness.
"""

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.stats import Histogram
from repro.trace.bus import TraceBus
from repro.trace.events import SCHEMA_VERSION
from repro.trace.timeline import assemble_timelines, timeline_summary

if TYPE_CHECKING:  # the simulator imports this package; avoid the cycle
    from repro.core.system import RunResult

#: Power-of-two microsecond buckets for transaction durations.  The
#: first bucket holds every duration under one microsecond (the floor
#: division below maps them all to 0), hence the ``<1us`` label.
_DURATION_BUCKETS: Tuple[Tuple[int, Optional[int], str], ...] = tuple(
    [(0, 0, "<1us")]
    + [
        (1 << i, (1 << (i + 1)) - 1, "%d-%dus" % (1 << i, (1 << (i + 1)) - 1))
        for i in range(10)
    ]
    + [(1 << 10, None, ">=1024us")]
)


def duration_histogram(durations_ns: List[float]) -> Histogram:
    """Histogram transaction durations (simulated ns) into us buckets.

    Durations must be finite and non-negative: a negative or NaN value
    means the caller paired begin/commit timestamps wrong, and silently
    flooring it into a bucket would hide that, so reject it loudly.
    """
    histogram = Histogram(buckets=_DURATION_BUCKETS)
    for duration in durations_ns:
        if duration != duration:  # NaN — the only value unequal to itself
            raise ValueError("NaN transaction duration")
        if duration < 0:
            raise ValueError(
                "negative transaction duration %r ns" % (duration,))
        histogram.observe(int(duration // 1000))
    return histogram


def metrics_snapshot(
    result: "RunResult",
    bus: Optional[TraceBus] = None,
    design: str = "",
    workload: str = "",
    memo: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One stable dict describing a run (counters, derived, trace).

    ``memo`` takes the dict from :meth:`repro.nvm.module.NvmModule.
    memo_stats` (codec-memo hit/miss/eviction counters); it lands under
    the ``memo`` key with canonical key order.  Memo counters are host-
    visible diagnostics, not simulated results, so they appear only when
    the caller opts in.
    """
    snapshot: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "design": design,
        "workload": workload,
        "transactions": result.transactions,
        "elapsed_ns": result.elapsed_ns,
        "counters": dict(sorted(result.stats.items())),
        "derived": {
            "log_bits": result.log_bits,
            "nvmm_write_energy_pj": result.nvmm_write_energy_pj,
            "nvmm_writes": result.nvmm_writes,
            "throughput_tx_per_s": result.throughput_tx_per_s,
        },
    }
    if memo is not None:
        snapshot["memo"] = {
            name: dict(sorted(counters.items()))
            for name, counters in sorted(memo.items())
        }
    if bus is not None:
        timelines = assemble_timelines(bus.events)
        durations = [
            t.duration_ns for t in timelines.values() if t.duration_ns is not None
        ]
        snapshot["trace"] = {
            "bus": bus.summary(),
            # A bounded ring that dropped events yields timelines and
            # histograms computed from a truncated stream; the flag lets
            # consumers refuse to trust them instead of guessing.
            "truncated": bus.dropped > 0,
            "timelines": timeline_summary(timelines),
            "histograms": {
                "tx_duration_us": dict(duration_histogram(durations).counts())
            },
        }
    return snapshot
