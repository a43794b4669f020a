"""``repro.trace`` — structured event tracing, timelines and profiling.

The observability layer of the simulator:

- :class:`EventBus` — each System's publish/subscribe seam, with the
  fixed topic set every simulator tap subscribes to;
- :class:`TraceConfig` / :class:`TraceBus` — the opt-in, bounded ring
  of typed events, a subscriber on the ``trace-event`` topic;
- :mod:`repro.trace.events` — the typed event taxonomy and its schema;
- :mod:`repro.trace.timeline` — per-transaction timeline assembly;
- :mod:`repro.trace.export` — Chrome ``trace_event`` JSON export
  (loadable in Perfetto), JSON-lines raw dumps, and schema validation;
- :mod:`repro.trace.metrics` — stable counters+histograms snapshots;
- :mod:`repro.trace.profiler` — host wall-time attribution by phase.

Enable tracing by passing a config to the factory::

    from repro.trace import TraceConfig
    system = make_system("MorLog-SLDE", trace=TraceConfig(enabled=True))
    result = system.run(workload, 100)
    events = list(system.tracer.events)
"""

from repro.trace.bus import EventBus, TraceBus, TraceConfig
from repro.trace.events import (
    CATEGORIES,
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    TraceEvent,
    validate_event,
)
from repro.trace.export import (
    chrome_document,
    parse_chrome_trace,
    read_event_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_event_lines,
)
from repro.trace.metrics import metrics_snapshot
from repro.trace.profiler import PhaseProfiler, ProfileReport, profile_design
from repro.trace.timeline import TxTimeline, assemble_timelines, timeline_summary

__all__ = [
    "CATEGORIES",
    "EVENT_SCHEMA",
    "EventBus",
    "SCHEMA_VERSION",
    "PhaseProfiler",
    "ProfileReport",
    "TraceBus",
    "TraceConfig",
    "TraceEvent",
    "TxTimeline",
    "assemble_timelines",
    "chrome_document",
    "metrics_snapshot",
    "parse_chrome_trace",
    "profile_design",
    "read_event_lines",
    "timeline_summary",
    "validate_chrome_trace",
    "validate_event",
    "write_chrome_trace",
    "write_event_lines",
]
