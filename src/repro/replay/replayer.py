"""Re-driving a machine from a recorded trace.

A :class:`TraceWorkload` is a recorded trace dressed as a
:class:`~repro.workloads.base.Workload`: its setup rebuilds the pre-run
memory image from the trace's setup stores, and it hands the run loop
each recorded transaction on its recorded core, re-issuing the recorded
op stream through the normal :class:`TxContext` interface.  So
:func:`replay_trace` is just ``System.run``, and everything below that
interface — logger, caches, NVM timing, stats — is the production path,
untouched; same design and config therefore produce a bit-identical
RunResult, NVM image and event trace, while a *different* design/config
scores the identical store stream (the paper's Fig 12/13 sweeps over one
traffic pattern).

The only new cost model is "no cost": workload setup becomes a flat
array install instead of Python data-structure construction, and the
optional codec prewarm (:mod:`repro.replay.prewarm`) batch-classifies
the trace's word pairs before the loop starts.  Both are result-inert.
"""

from typing import Callable, List

import numpy as np

from repro.core.system import RunResult
from repro.replay.container import (
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_STORE_NT,
    StoreTrace,
    TraceError,
)
from repro.replay.prewarm import prewarm_codecs
from repro.workloads.base import Workload


def apply_trace_setup(system, trace: StoreTrace) -> None:
    """Rebuild the pre-run memory image from the recorded setup stores.

    Setup stores are untimed and unlogged, so replaying them is pure
    data movement: the persistent/volatile split is one vectorized
    boundary compare (``is_persistent`` is ``addr >= nvmm_base``) and the
    NVMM side goes through :meth:`NvmArray.bulk_write_logical` instead of
    per-word ``setup_store`` calls.  With a ``setup-store`` subscriber
    (a recorder recording a replay) the publishing scalar path is kept.
    """
    if system.bus.topic("setup-store"):
        store = system.setup_store
        for addr, value in zip(trace.setup_addr.tolist(), trace.setup_val.tolist()):
            store(addr, value)
        return
    persistent = trace.setup_addr >= np.uint64(system.config.nvmm_base)
    system.controller.nvm.array.bulk_write_logical(
        trace.setup_addr[persistent].tolist(),
        trace.setup_val[persistent].tolist(),
    )
    if not persistent.all():
        volatile = ~persistent
        write = system.controller.dram.write_word
        for addr, value in zip(
            trace.setup_addr[volatile].tolist(),
            trace.setup_val[volatile].tolist(),
        ):
            write(addr, value)


def _make_body(ops) -> Callable:
    def body(ctx) -> None:
        for kind, addr, value in ops:
            if kind == OP_STORE:
                ctx.store(addr, value)
            elif kind == OP_LOAD:
                ctx.load(addr)
            elif kind == OP_STORE_NT:
                ctx.store_nt(addr, value)
            elif kind == OP_COMPUTE:
                ctx.compute(value)
            else:
                raise TraceError("unknown op kind %r in trace" % (kind,))

    return body


class TraceWorkload(Workload):
    """A recorded :class:`StoreTrace` as a workload.

    Transactions come out in recorded order, each on its recorded core;
    asking for more transactions than were recorded raises
    :class:`TraceError`.  ``prewarm`` seeds the codec memos from the
    trace after the setup image is installed (never changes results).
    """

    name = "trace-replay"

    def __init__(self, trace: StoreTrace, prewarm: bool = False) -> None:
        super().__init__()
        self.trace = trace
        self.prewarm = prewarm
        self._ops: List[tuple] = []
        self._starts: List[int] = []
        self._cores: List[int] = []
        self._cursor = 0

    def setup(self, system, n_threads: int) -> None:
        trace = self.trace
        self.n_threads = n_threads
        apply_trace_setup(system, trace)
        if self.prewarm:
            prewarm_codecs(system, trace)
        self._ops = list(zip(
            trace.op_kind.tolist(), trace.op_addr.tolist(), trace.op_val.tolist()
        ))
        self._starts = trace.tx_start.tolist() + [trace.n_ops]
        self._cores = trace.tx_core.tolist()
        self._cursor = 0

    def _recorded_core(self) -> int:
        if self._cursor >= len(self._cores):
            raise TraceError(
                "trace holds %d transactions; transaction %d was asked for"
                % (len(self._cores), self._cursor + 1)
            )
        return self._cores[self._cursor]

    def next_core(self, core_time_ns: List[float], n_threads: int) -> int:
        return self._recorded_core()

    def transaction(self, tid: int) -> Callable:
        core = self._recorded_core()
        if tid != core:
            raise TraceError(
                "transaction %d was recorded on core %d, not %d"
                % (self._cursor, core, tid)
            )
        index = self._cursor
        self._cursor += 1
        return _make_body(self._ops[self._starts[index]:self._starts[index + 1]])


def replay_trace(system, trace: StoreTrace, prewarm: bool = True) -> RunResult:
    """Execute ``trace`` on ``system``: ``System.run`` over a
    :class:`TraceWorkload`, so a replayed same-design run is
    bit-identical to the recording run.  ``prewarm=False`` skips the
    vectorized codec prewarm (results never depend on it)."""
    if trace.n_threads > system.config.cores.n_cores:
        raise TraceError(
            "trace was recorded with %d threads; system has %d cores"
            % (trace.n_threads, system.config.cores.n_cores)
        )
    return system.run(
        TraceWorkload(trace, prewarm), trace.n_transactions, trace.n_threads
    )
