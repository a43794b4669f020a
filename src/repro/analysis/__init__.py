"""Measurement taps and paper-figure analyses.

- :mod:`repro.analysis.trace` — the store-stream collector behind
  Figures 3 and 5 and Table II's per-pattern census (the paper used
  PIN; we subscribe to the simulator's stores).
- :mod:`repro.analysis.overhead` — Table I and the SLDE overhead numbers.
- :mod:`repro.analysis.report` — plain-text table rendering.
"""

from repro.analysis.trace import (
    TraceCollector,
    collect_stores,
    dldc_pattern_census,
)
from repro.analysis.walcheck import WalChecker, attach_wal_checker
from repro.analysis.overhead import morphable_logging_overhead, slde_overhead
from repro.analysis.report import format_bars, format_table

__all__ = [
    "TraceCollector",
    "WalChecker",
    "attach_wal_checker",
    "collect_stores",
    "dldc_pattern_census",
    "morphable_logging_overhead",
    "slde_overhead",
    "format_bars",
    "format_table",
]
