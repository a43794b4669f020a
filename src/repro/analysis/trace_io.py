"""Transaction trace capture and replay.

The paper's motivation studies run PIN over real binaries; this module is
the equivalent interchange point for our simulator.  A trace is a JSON
Lines file of operations::

    {"op": "begin",  "tid": 0}
    {"op": "store",  "tid": 0, "addr": 4294967296, "value": 17}
    {"op": "load",   "tid": 0, "addr": 4294967296}
    {"op": "commit", "tid": 0}

Capture one by wrapping any workload in :class:`RecordingWorkload`; replay
one (e.g. converted from an external tool) with :class:`TraceWorkload`,
which behaves like any other workload and therefore runs on every design.
"""

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.workloads.base import Workload


@dataclass(frozen=True)
class TraceOp:
    op: str                  # "begin" | "store" | "load" | "commit"
    tid: int
    addr: Optional[int] = None
    value: Optional[int] = None

    def to_json(self) -> str:
        record = {"op": self.op, "tid": self.tid}
        if self.addr is not None:
            record["addr"] = self.addr
        if self.value is not None:
            record["value"] = self.value
        return json.dumps(record, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "TraceOp":
        record = json.loads(line)
        if record.get("op") not in ("begin", "store", "load", "commit"):
            raise ValueError("unknown trace op %r" % record.get("op"))
        return TraceOp(
            op=record["op"],
            tid=int(record.get("tid", 0)),
            addr=record.get("addr"),
            value=record.get("value"),
        )


def save_trace(path: str, ops: Iterable[TraceOp]) -> int:
    count = 0
    with open(path, "w") as handle:
        for op in ops:
            handle.write(op.to_json() + "\n")
            count += 1
    return count


def load_trace(path: str) -> List[TraceOp]:
    ops: List[TraceOp] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                ops.append(TraceOp.from_json(line))
    return ops


class RecordingWorkload(Workload):
    """Wraps a workload, capturing its transactional accesses.

    Each transaction body runs with this recorder subscribed to the
    system's ``op-load`` and ``op-store`` topics, so the captured ops are
    exactly the loads and stores the body issued, in order.
    """

    def __init__(self, inner: Workload) -> None:
        super().__init__(inner.params)
        self.inner = inner
        self.name = "record(%s)" % inner.name
        self.ops: List[TraceOp] = []
        self._bus = None

    def setup(self, system, n_threads: int) -> None:
        self.inner.setup(system, n_threads)
        self._bus = system.bus

    def transaction(self, tid: int):
        body = self.inner.transaction(tid)
        ops = self.ops
        subscriptions = {
            "op-load": lambda addr: ops.append(TraceOp("load", tid, addr)),
            "op-store": lambda addr, value: ops.append(
                TraceOp("store", tid, addr, value)
            ),
        }

        def recording_body(ctx):
            ops.append(TraceOp("begin", tid))
            with self._bus.subscribed(subscriptions):
                body(ctx)
            ops.append(TraceOp("commit", tid))

        return recording_body


class TraceWorkload(Workload):
    """Replays a captured trace as per-thread transaction streams.

    Addresses are used verbatim; any address below the system's NVMM base
    would not be logged, so traces should target the persistent range.
    The ``install`` map (addr -> value) seeds initial memory contents.
    """

    name = "trace-replay"

    def __init__(self, ops: List[TraceOp], install: Optional[Dict[int, int]] = None) -> None:
        super().__init__(None)
        self._install = dict(install or {})
        # Split the flat stream into per-tid transaction op lists.
        self._transactions: Dict[int, List[List[TraceOp]]] = {}
        open_tx: Dict[int, List[TraceOp]] = {}
        for op in ops:
            if op.op == "begin":
                open_tx[op.tid] = []
            elif op.op == "commit":
                self._transactions.setdefault(op.tid, []).append(
                    open_tx.pop(op.tid, [])
                )
            else:
                open_tx.setdefault(op.tid, []).append(op)
        # Unterminated transactions replay as committed tails.
        for tid, tail in open_tx.items():
            if tail:
                self._transactions.setdefault(tid, []).append(tail)
        self._cursor: Dict[int, int] = {}

    def total_transactions(self) -> int:
        return sum(len(txs) for txs in self._transactions.values())

    def setup(self, system, n_threads: int) -> None:
        self.n_threads = n_threads
        for addr, value in self._install.items():
            system.setup_store(addr, value)
        self._cursor = {tid: 0 for tid in range(n_threads)}

    def transaction(self, tid: int):
        stream = self._transactions.get(tid, [])
        index = self._cursor.get(tid, 0)
        if index >= len(stream):
            # Stream exhausted: replay wraps around (keeps the run-loop
            # contract of always having a next transaction).
            index = index % len(stream) if stream else 0
        ops = stream[index] if stream else []
        self._cursor[tid] = index + 1

        def body(ctx):
            for op in ops:
                if op.op == "store":
                    ctx.store(op.addr, op.value or 0)
                elif op.op == "load":
                    ctx.load(op.addr)

        return body
