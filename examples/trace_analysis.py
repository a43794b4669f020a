#!/usr/bin/env python3
"""Capture a workload trace and reproduce the paper's motivation stats.

Records a workload's store stream, saves the trace container to disk,
reloads it, replays it with a store collector subscribed, and prints the
Figure 3 / Figure 5 / Table II statistics for that exact store stream —
the PIN-style workflow of the paper's sections II-B and II-C.

Run with:  python examples/trace_analysis.py [workload]
"""

import os
import sys
import tempfile

from repro.analysis.report import format_table
from repro.analysis.trace import TraceCollector
from repro.core import make_system
from repro.experiments.runner import default_config
from repro.replay import load_trace, record_trace, replay_trace, save_trace
from repro.workloads.base import WorkloadParams


def main() -> None:
    workload_name = sys.argv[1] if len(sys.argv) > 1 else "redis"
    params = WorkloadParams(initial_items=256, key_space=512)

    # 1. Capture.
    trace, _result, _system = record_trace(
        "FWB-CRADE", workload_name, config=default_config(), params=params,
        n_transactions=150, n_threads=2,
    )
    path = os.path.join(tempfile.gettempdir(), "%s.mltr" % workload_name)
    save_trace(path, trace)
    print("captured %d ops from %s -> %s" % (trace.n_ops, workload_name, path))

    # 2. Reload and replay with the collector subscribed to every store.
    system = make_system("FWB-CRADE", default_config())
    collector = TraceCollector(track_patterns=True)
    system.bus.subscribe("tx-store", collector.on_tx_store)
    replay_trace(system, load_trace(path))

    # 3. The paper's motivation numbers for this stream.
    dist = collector.distance_distribution()
    print(format_table(
        ["bucket", "% of writes"],
        [[k, 100 * v] for k, v in dist.items()],
        "Write distance (Figure 3 analysis)",
        float_format="%.1f",
    ))
    print()
    print("clean bytes (Figure 5): %.1f%%" % (100 * collector.clean_byte_fraction))
    print("stores rewriting a word already written in the same tx: %.1f%%"
          % (100 * collector.rewrite_fraction))
    print()
    print(format_table(
        ["DLDC pattern", "% of dirty stores"],
        [[k, 100 * v] for k, v in collector.pattern_fractions().items()],
        "Table II analysis",
        float_format="%.1f",
    ))


if __name__ == "__main__":
    main()
