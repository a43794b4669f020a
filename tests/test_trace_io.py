"""Trace capture, file round trip and replay of the ``.mltr`` format."""

import numpy as np

from repro.replay import (
    StoreTrace,
    TraceRecorder,
    TraceWorkload,
    load_trace,
    replay_trace,
    save_trace,
)
from repro.replay.container import OP_STORE
from repro.workloads.base import WorkloadParams, make_workload
from tests.conftest import make_tiny_system


def _queue():
    return make_workload(
        "queue", WorkloadParams(initial_items=8, key_space=32, seed=3)
    )


def _record(n_threads, taps=None):
    system = make_tiny_system()
    recorder = TraceRecorder()
    with system.bus.subscribed(recorder.subscriptions()):
        with system.bus.subscribed(taps or {}):
            system.run(_queue(), 20, n_threads=n_threads)
    return recorder.finish({"n_threads": n_threads})


def _store_tap(captured):
    def on_tx_store(tid, txid, addr, old, new):
        captured.append((addr, new))

    return {"tx-store": on_tx_store}


class TestTraceFormat:
    def test_file_roundtrip(self, tmp_path):
        trace = _record(2)
        path = str(tmp_path / "trace.mltr")
        assert save_trace(path, trace) == trace.digest()
        loaded = load_trace(path)
        assert loaded.digest() == trace.digest()
        assert np.array_equal(loaded.op_val, trace.op_val)
        assert loaded.meta == trace.meta


class TestRecordReplay:
    def test_recording_captures_transactions(self):
        trace = _record(2)
        assert trace.n_transactions == 20
        assert trace.n_threads == 2
        assert set(trace.tx_core.tolist()) == {0, 1}
        assert int((trace.op_kind == OP_STORE).sum()) > 0

    def test_replay_produces_same_store_stream(self):
        original = []
        trace = _record(1, _store_tap(original))
        replayed = []
        system = make_tiny_system()
        with system.bus.subscribed(_store_tap(replayed)):
            replay_trace(system, trace)
        assert original
        assert replayed == original

    def test_replay_runs_on_any_design(self):
        trace = _record(2)
        for design in ("FWB-CRADE", "MorLog-DP"):
            system = make_tiny_system(design)
            result = replay_trace(system, trace)
            assert result.transactions == 20
            system.recover(verify_decode=True)

    def test_install_map_seeds_memory(self):
        empty = np.zeros(0, dtype=np.uint64)
        trace = StoreTrace(
            meta={},
            setup_addr=[0x1_0000_0000],
            setup_val=[99],
            op_kind=np.zeros(0, dtype=np.uint8),
            op_addr=empty,
            op_val=empty,
            tx_start=empty,
            tx_core=np.zeros(0, dtype=np.uint32),
            pair_old=empty,
            pair_new=empty,
        )
        system = make_tiny_system()
        TraceWorkload(trace).setup(system, 1)
        assert system.persistent_word(0x1_0000_0000) == 99
