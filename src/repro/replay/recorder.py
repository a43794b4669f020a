"""Recording a workload's store stream into a :class:`StoreTrace`.

A :class:`TraceRecorder` subscribes to a system's event bus and
observes a normal timed run from two vantage points:

- the :class:`~repro.core.transaction.TxContext` op topics capture the
  *program* — the exact sequence of loads, stores, non-temporal stores
  and compute delays each transaction body issued — and the
  ``setup-store`` topic the stores that build the pre-run memory image;
- the :class:`~repro.core.system.System` topics capture the *dispatch
  order* (which core ran each transaction, preserving the recording
  run's interleaving) and the old/new word of every persistent
  transactional store.

Recording does not perturb the run: the subscribers only append to
Python lists, and the recorded run's RunResult is bit-identical to an
unrecorded one (pinned in ``tests/test_replay_differential.py``).
"""

from typing import Any, Dict, Optional

import numpy as np

from repro.replay.container import (
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_STORE_NT,
    StoreTrace,
    TraceError,
)


class TraceRecorder:
    """Accumulates one run's store stream; ``finish`` yields the trace."""

    def __init__(self) -> None:
        self.setup_addr = []
        self.setup_val = []
        self.op_kind = []
        self.op_addr = []
        self.op_val = []
        self.tx_start = []
        self.tx_core = []
        self.pair_old = []
        self.pair_new = []

    def subscriptions(self):
        """``{topic: subscriber}`` for :meth:`EventBus.subscribe_all`."""
        return {
            "setup-store": self.on_setup_store,
            "tx-dispatch": self.on_tx_dispatch,
            "tx-store": self.on_tx_store,
            "op-load": self.on_load,
            "op-store": self.on_store,
            "op-store-nt": self.on_store_nt,
            "op-compute": self.on_compute,
        }

    # -- System topics --------------------------------------------------

    def on_setup_store(self, addr: int, value: int) -> None:
        self.setup_addr.append(addr)
        self.setup_val.append(value)

    def on_tx_dispatch(self, core: int) -> None:
        self.tx_start.append(len(self.op_kind))
        self.tx_core.append(core)

    def on_tx_store(self, tid: int, txid: int, addr: int, old: int, new: int) -> None:
        self.pair_old.append(old)
        self.pair_new.append(new)

    # -- TxContext op topics --------------------------------------------

    def on_load(self, addr: int) -> None:
        self.op_kind.append(OP_LOAD)
        self.op_addr.append(addr)
        self.op_val.append(0)

    def on_store(self, addr: int, value: int) -> None:
        self.op_kind.append(OP_STORE)
        self.op_addr.append(addr)
        self.op_val.append(value)

    def on_store_nt(self, addr: int, value: int) -> None:
        self.op_kind.append(OP_STORE_NT)
        self.op_addr.append(addr)
        self.op_val.append(value)

    def on_compute(self, cycles) -> None:
        if cycles != int(cycles) or cycles < 0:
            raise TraceError(
                "cannot record compute(%r): the trace op stream holds "
                "non-negative integer cycle counts" % (cycles,)
            )
        self.op_kind.append(OP_COMPUTE)
        self.op_addr.append(0)
        self.op_val.append(int(cycles))

    # -- finalization ---------------------------------------------------

    def finish(self, meta: Optional[Dict[str, Any]] = None) -> StoreTrace:
        """Freeze the accumulated stream into an immutable trace.

        Without an ``n_threads`` entry in ``meta``, the thread count is
        the highest recorded core plus one.
        """
        meta = dict(meta or {})
        meta.setdefault("n_threads", max(self.tx_core, default=0) + 1)
        return StoreTrace(
            meta=meta,
            setup_addr=np.asarray(self.setup_addr, dtype="<u8"),
            setup_val=np.asarray(self.setup_val, dtype="<u8"),
            op_kind=np.asarray(self.op_kind, dtype="u1"),
            op_addr=np.asarray(self.op_addr, dtype="<u8"),
            op_val=np.asarray(self.op_val, dtype="<u8"),
            tx_start=np.asarray(self.tx_start, dtype="<u8"),
            tx_core=np.asarray(self.tx_core, dtype="<u4"),
            pair_old=np.asarray(self.pair_old, dtype="<u8"),
            pair_new=np.asarray(self.pair_new, dtype="<u8"),
        )


def record_trace(
    design: str,
    workload_name: str,
    dataset=None,
    scale=None,
    config=None,
    params=None,
    n_threads: Optional[int] = None,
    n_transactions: Optional[int] = None,
):
    """Run one grid cell with recording on; returns (trace, result, system).

    Builds the cell through :func:`repro.experiments.runner.build_cell`,
    like ``run_design_system``, and runs the same loop, so the recorded
    run's RunResult is the one the direct path would have produced.
    """
    from repro.experiments.runner import build_cell
    from repro.workloads.base import DatasetSize

    system, workload, n_transactions, n_threads = build_cell(
        design, workload_name,
        dataset if dataset is not None else DatasetSize.SMALL,
        scale, config, params, n_threads, n_transactions,
    )
    recorder = TraceRecorder()
    with system.bus.subscribed(recorder.subscriptions()):
        result = system.run(workload, n_transactions, n_threads)
    meta = {
        "design": design,
        "n_threads": n_threads,
        "n_transactions": n_transactions,
        "provenance": workload.trace_provenance(),
    }
    return recorder.finish(meta), result, system
