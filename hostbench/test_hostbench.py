"""Self-tests of the host-performance benchmark.

Run from the repository root::

    python3 -m pytest hostbench -q

Each workload runs here at a reduced size; the benchmark itself uses the
defaults in ``workloads.py``.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import calibrate  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from instrument import HostProbe  # noqa: E402
from layers import LAYERS, ROOT_LAYER  # noqa: E402
from workloads import CrashSweep, SetupReplay, TrafficMix, TxHeavy  # noqa: E402

from repro.core.system import System  # noqa: E402
from repro.nvm.module import NvmModule  # noqa: E402
from repro.traffic import engine  # noqa: E402

SMALL = {
    "tx_heavy": lambda seed, workdir: TxHeavy(seed, workdir, cells=(
        ("MorLog-DP", "hash", 16),
        ("Undo-CRADE", "btree", 16),
        ("FWB-CRADE", "rbtree", 16),
        ("CoW-Page", "hash", 4),
    )),
    "setup_replay": lambda seed, workdir: SetupReplay(
        seed, workdir, inputs=2, items=128, transactions=4),
    "crash_sweep": lambda seed, workdir: CrashSweep(
        seed, workdir, crash_points=60, transactions=3),
    "traffic_mix": lambda seed, workdir: TrafficMix(
        seed, workdir, stores=600, arrivals=12),
}

ORIGINALS = {
    (System, "begin_tx"): vars(System)["begin_tx"],
    (System, "__init__"): vars(System)["__init__"],
    (NvmModule, "write_data_line"): vars(NvmModule)["write_data_line"],
    (engine, "run_traffic_system"): engine.run_traffic_system,
}


def _measure(name, seed, workdir, trace=True):
    return bench.measure(SMALL[name](seed, str(workdir)), 0.0, trace)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("hostbench")
    return {
        name: (_measure(name, 3, workdir), _measure(name, 3, workdir))
        for name in SMALL
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_check_passes(traced_runs, name):
    for run in traced_runs[name]:
        assert run.attempted > 0
        assert run.failed == 0, run.failures
        assert run.error_rate == 0.0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_digests_repeat_across_runs(traced_runs, name):
    first, second = traced_runs[name]
    digests = {r["digest"] for r in first.passes + second.passes}
    assert digests == {first.reference}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_spans_nest(traced_runs, name):
    run = traced_runs[name][0]
    recorder = run.recorder
    traced_wall = sum(r["span_s"] for r in run.traced)
    assert all(seconds >= -1e-9 for seconds in recorder.self_s.values())
    assert sum(recorder.self_s.values()) <= traced_wall + 1e-6
    assert recorder.calls[ROOT_LAYER] == len(run.traced)
    by_id = {span[0]: span for span in recorder.spans}
    for span_id, parent, op, _name, start, end in recorder.spans:
        assert start <= end
        if parent in by_id:
            parent_span = by_id[parent]
            assert parent_span[2] == op
            assert parent_span[4] <= start and end <= parent_span[5]


def test_layers_are_exercised(traced_runs):
    expected = {
        "tx_heavy": {"nvm", "encoding", "logging_hw", "cache", "core",
                     "workloads", "experiments"},
        "setup_replay": {"nvm", "logging_hw", "core", "workloads", "replay"},
        "crash_sweep": {"nvm", "logging_hw", "core", "workloads",
                        "faultinject"},
        "traffic_mix": {"nvm", "encoding", "logging_hw", "cache", "core",
                        "workloads", "traffic"},
    }
    for name, layers in expected.items():
        recorder = traced_runs[name][0].recorder
        called = {layer for layer in LAYERS if recorder.calls[layer] > 0}
        assert layers <= called, (name, layers - called)


def test_per_layer_metrics_are_complete(traced_runs):
    run = traced_runs["tx_heavy"][0]
    metrics = bench.per_layer(run)
    for layer in LAYERS:
        for suffix in ("self_s", "calls", "self_frac"):
            assert "%s.%s" % (layer, suffix) in metrics
    assert metrics["experiments.cache_hits"][0] == 4
    assert 0.0 < metrics["encoding.memo_hit_ratio"][0] < 1.0
    assert metrics["core.transactions"][0] == 52


def test_end_to_end_metrics_are_positive(tmp_path):
    run = _measure("crash_sweep", 1, tmp_path, trace=False)
    metrics = bench.end_to_end(run)
    assert set(metrics) == {"wall_s", "setup_s", "sim_stores_per_s",
                            "tx_host_us_p50", "peak_rss_mb"}
    assert all(value > 0 for value, _unit in metrics.values())


def test_every_wrapped_attribute_is_restored(traced_runs):
    for (owner, name), original in ORIGINALS.items():
        assert getattr(owner, name) is original
    for layer_entries in LAYERS.values():
        for kind, target, names in layer_entries:
            module_name, _, attr = target.partition(":")
            obj = getattr(sys.modules[module_name], attr)
            if kind == "function":
                assert not hasattr(obj, "__wrapped__"), target
            else:
                for name in names:
                    assert not hasattr(getattr(obj, name, None), "__wrapped__")


def test_seed_changes_the_inputs(tmp_path):
    one = _measure("crash_sweep", 1, tmp_path, trace=False)
    two = _measure("crash_sweep", 2, tmp_path, trace=False)
    assert one.reference != two.reference


def test_forced_check_failure_raises_error_rate(tmp_path, monkeypatch):
    real = engine.run_traffic_system

    def miscounting(*args, **kwargs):
        result, system = real(*args, **kwargs)
        return dataclasses.replace(result, dropped=result.dropped + 1), system

    monkeypatch.setattr(engine, "run_traffic_system", miscounting)
    run = _measure("traffic_mix", 1, tmp_path, trace=False)
    assert run.failed > 0
    assert run.error_rate > 0.0
    assert any("admitted + dropped" in failure for failure in run.failures)
    assert run.untraced, "a failed check must not stop the run"


def test_unreached_work_target_is_a_failed_check(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "MAX_INPUTS", 1)
    workload = CrashSweep(1, str(tmp_path), crash_points=10**9, transactions=3)
    run = bench.measure(workload, 0.0, False)
    assert "pass reaches its crash points" in run.failures
    assert run.untraced, "a failed check must not stop the run"


def test_pass_timer_scales_by_calibration(monkeypatch):
    chunks = iter([0.02, 0.03])
    monkeypatch.setattr(calibrate, "time_chunk", lambda: next(chunks))
    probe = HostProbe()
    probe.setup_s = 1.0
    timer = calibrate.PassTimer(probe)

    def unit():
        probe.setup_s += 0.5
        probe.tx_seconds.append(0.25)
        return "done"

    assert timer.call(unit) == "done"
    scale = calibrate.REFERENCE_S / 0.025
    assert timer.unit_setup_s == [pytest.approx(0.5 * scale)]
    assert timer.tx_seconds == [pytest.approx(0.25 * scale)]
    assert timer.wall_s == pytest.approx(timer.raw_s * scale)
    assert timer.calibration_s == pytest.approx(0.05)


def test_raising_pass_counts_as_failed_operation(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(engine, "run_traffic_system", broken)
    run = _measure("traffic_mix", 1, tmp_path, trace=False)
    assert run.failed == run.attempted == 1


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "tx_heavy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
