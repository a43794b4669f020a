"""The layers the traced run attributes host time to, and their entry points.

Each layer is a list of entry points into one ``src/repro`` subpackage:

- ``("method", "<module>:<Class>", names)`` wraps ``names`` on the class
  and on every subclass that defines its own version of them;
- ``("function", "<module>:<function>", ())`` wraps the function in
  every ``repro`` module namespace that binds it.

Only public calls are wrapped, and only from the benchmark's own files.
A name missing from the current code is skipped, so an entry point that
a later refactor removes shows up as a layer with no calls, not as a
crash.
"""

#: Modules whose classes must be imported before subclasses are walked
#: (designs import their loggers lazily, inside ``make_system``).
SUBCLASS_PACKAGES = ("repro.logging_hw", "repro.encoding", "repro.workloads")

LAYERS = {
    "nvm": [
        ("method", "repro.nvm.module:NvmModule",
         ("write_data_line", "write_log_entry", "read_line", "decode_word")),
        ("method", "repro.nvm.array:NvmArray",
         ("write_logical", "bulk_write_logical")),
    ],
    "encoding": [
        ("method", "repro.encoding.base:WordCodec",
         ("encode", "encode_line", "encode_log", "encode_undo_redo_pair",
          "decode")),
    ],
    "logging_hw": [
        ("method", "repro.logging_hw.base:HardwareLogger",
         ("begin_tx", "on_store", "commit_tx", "tick", "on_fwb_scan",
          "drain")),
        ("method", "repro.logging_hw.region:LogRegion", ("append", "truncate")),
        ("method", "repro.logging_hw.region:LogRegionSet",
         ("append", "truncate")),
        ("method", "repro.core.system:System", ("recover",)),
    ],
    "cache": [
        ("method", "repro.cache.hierarchy:CacheHierarchy",
         ("access", "force_write_back_scan", "drain_all")),
    ],
    "core": [
        ("method", "repro.core.system:System",
         ("__init__", "run", "dispatch_transaction", "run_transaction",
          "load_word", "store_word")),
    ],
    "workloads": [
        # ``transaction`` spans also wrap the body callable it returns,
        # so the body's own execution is attributed to this layer.
        ("method", "repro.workloads.base:Workload", ("setup", "transaction")),
    ],
    "replay": [
        ("function", "repro.replay.recorder:record_trace", ()),
        ("function", "repro.replay.replayer:replay_trace", ()),
        ("function", "repro.replay.replayer:apply_trace_setup", ()),
        ("function", "repro.replay.prewarm:prewarm_codecs", ()),
        ("function", "repro.replay.container:save_trace", ()),
        ("function", "repro.replay.container:load_trace", ()),
    ],
    "faultinject": [
        ("function", "repro.faultinject.sweep:run_sweep", ()),
        ("function", "repro.faultinject.oracle:check_crash_state", ()),
    ],
    "traffic": [
        ("function", "repro.traffic.engine:run_traffic_system", ()),
    ],
    "experiments": [
        ("function", "repro.experiments.parallel:run_cells", ()),
    ],
}

#: Span name for one benchmark operation (a workload pass).  Its self
#: time is host time no wrapped entry point covers.
ROOT_LAYER = "unattributed"
