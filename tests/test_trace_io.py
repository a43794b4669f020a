"""Trace capture / replay tests."""

import pytest

from repro.analysis.trace_io import (
    RecordingWorkload,
    TraceOp,
    TraceWorkload,
    load_trace,
    save_trace,
)
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import make_tiny_system


class TestTraceFormat:
    def test_roundtrip_json(self):
        op = TraceOp("store", 1, 0x100, 42)
        assert TraceOp.from_json(op.to_json()) == op

    def test_load_without_value(self):
        op = TraceOp.from_json('{"op": "load", "tid": 0, "addr": 8}')
        assert op.value is None

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            TraceOp.from_json('{"op": "prefetch", "tid": 0}')

    def test_file_roundtrip(self, tmp_path):
        ops = [
            TraceOp("begin", 0),
            TraceOp("store", 0, 0x100, 1),
            TraceOp("commit", 0),
        ]
        path = str(tmp_path / "trace.jsonl")
        assert save_trace(path, ops) == 3
        assert load_trace(path) == ops


class TestRecordReplay:
    def _record(self):
        system = make_tiny_system()
        inner = make_workload(
            "queue", WorkloadParams(initial_items=8, key_space=32, seed=3)
        )
        recorder = RecordingWorkload(inner)
        system.run(recorder, 20, n_threads=2)
        return recorder.ops

    def test_recording_captures_transactions(self):
        ops = self._record()
        begins = [op for op in ops if op.op == "begin"]
        commits = [op for op in ops if op.op == "commit"]
        stores = [op for op in ops if op.op == "store"]
        assert len(begins) == len(commits) == 20
        assert stores

    def test_replay_produces_same_store_stream(self):
        # Single-threaded capture gives a deterministic dispatch count per
        # stream, so the replayed store stream must match exactly.
        system = make_tiny_system()
        inner = make_workload(
            "queue", WorkloadParams(initial_items=8, key_space=32, seed=3)
        )
        recorder = RecordingWorkload(inner)
        system.run(recorder, 20, n_threads=1)
        ops = recorder.ops

        replay = TraceWorkload(ops)
        system2 = make_tiny_system()
        captured = []

        class Tap:
            def on_tx_store(self, tid, txid, addr, old, new):
                captured.append((addr, new))

        system2.bus.subscribe("tx-store", Tap().on_tx_store)
        system2.run(replay, replay.total_transactions(), n_threads=1)
        original = [(op.addr, op.value) for op in ops if op.op == "store"]
        assert captured == original

    def test_replay_runs_on_any_design(self):
        ops = self._record()
        for design in ("FWB-CRADE", "MorLog-DP"):
            system = make_tiny_system(design)
            replay = TraceWorkload(ops)
            result = system.run(replay, 10, n_threads=2)
            assert result.transactions == 10
            system.recover(verify_decode=True)

    def test_replay_wraps_when_exhausted(self):
        ops = [
            TraceOp("begin", 0),
            TraceOp("store", 0, 0x1_0000_0000, 5),
            TraceOp("commit", 0),
        ]
        replay = TraceWorkload(ops)
        system = make_tiny_system()
        result = system.run(replay, 5, n_threads=1)
        assert result.transactions == 5

    def test_install_map_seeds_memory(self):
        replay = TraceWorkload([], install={0x1_0000_0000: 99})
        system = make_tiny_system()
        replay.setup(system, 1)
        assert system.persistent_word(0x1_0000_0000) == 99
